"""How the noise index separates informative from washed-out variations.

A recording with the frequency modulation removed (as seen when autonomic
modulation is absent) leaves the RIFV series carrying noise; its noise index
collapses while the other four stay high, so the gate drops only RIFV.

Run:  python3 demos/02_noise_index_gating.py
"""

import numpy as np

from rrcif import pipeline, signal_io
from rrcif.riv import ALL_KINDS
from rrcif.signal_io import ModDepths, SynthSpec

spec = SynthSpec(
    rr=21.0, hr=82.0, duration_s=480.0, fs=100.0,
    depths=ModDepths(intensity=0.1, amplitude=0.1, frequency=0.0, width=0.1, slope=0.1),
    noise_sd=0.1, seed=7,
)
record, _ = signal_io.synthesize(spec)
analysis = pipeline.analyze_record(record)
table = analysis.estimates

print("per-variation noise index across all windows (frequency depth = 0):")
print(f"{'variation':>10} {'NI median':>10} {'NI p90':>8} {'pass rate at t=0.13':>20}")
for column, kind in enumerate(ALL_KINDS):
    nis = table.ni[:, column][np.isfinite(table.ni[:, column])]
    print(f"{kind.name:>10} {np.median(nis):>10.3f} {np.percentile(nis, 90):>8.3f} {np.mean(nis >= 0.13):>20.2f}")

print("\nsweeping the gate from 0 to 0.3 (fraction of estimates forwarded):")
for t in (0.0, 0.05, 0.13, 0.2, 0.3):
    rated = np.isfinite(table.ni)
    passing = (table.ni >= t).sum(axis=0) / rated.sum(axis=0)
    row = "  ".join(f"{kind.name}={frac:.2f}" for kind, frac in zip(ALL_KINDS, passing))
    print(f"  t={t:.2f}: {row}")
