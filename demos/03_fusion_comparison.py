"""Covariance intersection vs Smart Fusion when one variation is absent.

Smart Fusion needs its whole fixed set to agree, so a single washed-out
variation costs it most windows. Covariance intersection fuses whatever
passes the gate, keeping retention high at comparable error.

Run:  python3 demos/03_fusion_comparison.py
"""

import math

from rrcif import evaluation, pipeline, signal_io
from rrcif.signal_io import ModDepths, SynthSpec

print(f"{'subject':>8} {'method':>6} {'RMSE':>7} {'retention':>10}")
for seed in (1, 2, 3):
    spec = SynthSpec(
        rr=16.0 + 3 * seed, hr=80.0, duration_s=480.0, fs=100.0,
        depths=ModDepths(intensity=0.1, amplitude=0.1, frequency=0.0, width=0.1, slope=0.1),
        noise_sd=0.1, seed=seed,
    )
    record, reference = signal_io.synthesize(spec)
    estimates = pipeline.analyze_record(record).estimates
    ref_rates = evaluation.reference_at(reference, estimates.start_s)
    for method in ("cif", "sf3", "sf5"):
        fusion = pipeline.fuse_estimates(estimates, method, t=0.13)
        rmse, retention = evaluation.score(fusion, ref_rates)
        rmse = "  n/a" if math.isnan(rmse) else f"{rmse:.3f}"
        print(f"{'s' + str(seed):>8} {method.upper():>6} {rmse:>7} {retention:>10.3f}")
