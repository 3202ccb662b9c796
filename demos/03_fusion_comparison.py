"""Covariance intersection vs Smart Fusion when one variation is absent.

Smart Fusion needs its whole fixed set to agree, so a single washed-out
variation costs it most windows. Covariance intersection fuses whatever
passes the gate, keeping retention high at comparable error.

Run:  python3 demos/03_fusion_comparison.py
"""

import math

from rrcif import METHODS, evaluation, pipeline, signal_io
from rrcif.signal_io import ModDepths, SynthSpec

SEEDS = (1, 2, 3)

subjects = []
for seed in SEEDS:
    spec = SynthSpec(
        rr=16.0 + 3 * seed, hr=80.0, duration_s=480.0, fs=100.0,
        depths=ModDepths(intensity=0.1, amplitude=0.1, frequency=0.0, width=0.1, slope=0.1),
        noise_sd=0.1, seed=seed,
    )
    record, reference = signal_io.synthesize(spec)
    subjects.append((pipeline.analyze_record(record).estimates, reference))
scores, _ = evaluation.report(subjects)

print(f"{'subject':>8} {'method':>6} {'RMSE':>7} {'retention':>10}")
for i, seed in enumerate(SEEDS):
    for method in METHODS:
        rmse, retention = (values[i] for values in scores[method])
        rmse = "  n/a" if math.isnan(rmse) else f"{rmse:.3f}"
        print(f"{'s' + str(seed):>8} {method.upper():>6} {rmse:>7} {retention:>10.3f}")
