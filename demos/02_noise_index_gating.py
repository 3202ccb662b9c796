"""How the noise index separates informative from washed-out variations.

A recording with the frequency modulation removed (as seen when autonomic
modulation is absent) leaves the RIFV series carrying noise; its noise index
falls below the other four's, yet the default gate still passes most of its
windows.

The last part rates variation tables that hold no breathing at all, five
rows of white noise and five of random walks (2000 s, seed 0), to show
why: the noise index of pure noise mostly lies above the default gate.

Run:  python3 demos/02_noise_index_gating.py
"""

import numpy as np

from rrcif import DEFAULT_THRESHOLD, pipeline, signal_io
from rrcif.riv import ALL_KINDS, RIV_FS, RivTable
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
print(f"{'series':>12} {'pairs':>6} {'NI 5%':>6} {'NI 50%':>7} {'NI 95%':>7} {f'share >= {DEFAULT_THRESHOLD}':>13}")
n = int(2000.0 * RIV_FS)
rng = np.random.default_rng(0)
for name, values in (("white noise", rng.standard_normal((5, n))), ("random walk", rng.standard_normal((5, n)).cumsum(axis=1))):
    null = rate_windows(RivTable(t0=0.0, values=values, artifact=np.zeros(n, dtype=bool)), 2000.0).ni
    nis = null[np.isfinite(null)]
    p5, p50, p95 = np.percentile(nis, [5, 50, 95])
    print(f"{name:>12} {nis.size:>6} {p5:>6.3f} {p50:>7.3f} {p95:>7.3f} {np.mean(nis >= DEFAULT_THRESHOLD):>13.1%}")
