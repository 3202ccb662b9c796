"""How the noise index separates informative from washed-out variations.

A recording with the frequency modulation removed (as seen when autonomic
modulation is absent) leaves the RIFV series carrying noise; its noise index
falls below the other four's, yet the default gate still passes most of its
windows.

The last part rates variation tables that hold no breathing at all, five
rows each (2000 s, seed 0), to show why: the noise index of pure noise
mostly lies above the default gate. Two tables hold white noise and random
walks drawn on the 5 Hz grid; two hold white noise drawn once per beat at a
steady heart rate of 65 or 107 beats/min and linearly interpolated onto the
grid, as `riv.extract` does with a real feature. Linear interpolation of
per-beat noise piles the rates up at 4-6 breaths/min, and the noise index of
such noise depends on the heart rate.

Run:  python3 demos/02_noise_index_gating.py
"""

import numpy as np

from rrcif import DEFAULT_THRESHOLD, pipeline, signal_io
from rrcif.riv import ALL_KINDS, GRID_STEP_S, RIV_FS, RivTable
from rrcif.signal_io import ModDepths, SynthSpec
from rrcif.spectral import rate_windows

spec = SynthSpec(
    rr=21.0, hr=82.0, duration_s=480.0, fs=100.0,
    depths=ModDepths(intensity=0.1, amplitude=0.1, frequency=0.0, width=0.1, slope=0.1),
    noise_sd=0.1, seed=7,
)
record, _ = signal_io.synthesize(spec)
analysis = pipeline.analyze_record(record)
table = analysis.estimates

print("per-variation noise index across all windows (frequency depth = 0):")
print(f"{'variation':>10} {'NI median':>10} {'NI p90':>8} {f'pass rate at t={DEFAULT_THRESHOLD}':>20}")
for column, kind in enumerate(ALL_KINDS):
    nis = table.ni[:, column][np.isfinite(table.ni[:, column])]
    print(f"{kind.name:>10} {np.median(nis):>10.3f} {np.percentile(nis, 90):>8.3f} {np.mean(nis >= DEFAULT_THRESHOLD):>20.2f}")

print("\nsweeping the gate from 0 to 0.3 (fraction of estimates forwarded):")
for t in sorted({0.0, 0.05, DEFAULT_THRESHOLD, 0.2, 0.3}):
    rated = np.isfinite(table.ni)
    passing = (table.ni >= t).sum(axis=0) / rated.sum(axis=0)
    row = "  ".join(f"{kind.name}={frac:.2f}" for kind, frac in zip(ALL_KINDS, passing))
    print(f"  t={t:.2f}: {row}")

print("\nnoise index of variations that carry no breathing (2000 s, five rows each, seed 0):")
print(f"{'series':>22} {'pairs':>6} {'rr 4-6':>7} {'NI 5%':>6} {'NI 50%':>7} {'NI 95%':>7} {f'share >= {DEFAULT_THRESHOLD}':>13}")
n = int(2000.0 * RIV_FS)
grid = np.arange(n) * GRID_STEP_S
rng = np.random.default_rng(0)


def per_beat_noise(hr):
    """Five rows of white noise drawn once per beat at `hr` beats/min, linearly interpolated onto the grid."""
    beat_t = np.arange(0.0, 2000.0 + 60.0 / hr, 60.0 / hr)
    return np.stack([np.interp(grid, beat_t, rng.standard_normal(beat_t.size)) for _ in range(5)])


series = {
    "white noise": rng.standard_normal((5, n)),
    "random walk": rng.standard_normal((5, n)).cumsum(axis=1),
    "white per beat, hr 65": per_beat_noise(65.0),
    "white per beat, hr 107": per_beat_noise(107.0),
}
for name, values in series.items():
    null = rate_windows(RivTable(t0=0.0, values=values, artifact=np.zeros(n, dtype=bool)), 2000.0)
    rated = np.isfinite(null.ni)
    nis, rates = null.ni[rated], null.rr[rated]
    p5, p50, p95 = np.percentile(nis, [5, 50, 95])
    low = np.mean((4.0 <= rates) & (rates <= 6.0))
    print(f"{name:>22} {nis.size:>6} {low:>7.1%} {p5:>6.3f} {p50:>7.3f} {p95:>7.3f} {np.mean(nis >= DEFAULT_THRESHOLD):>13.1%}")
