"""Retention/RMSE trade-off: sweep the noise-index threshold over rrcif.T_GRID_DEFAULT.

Writes a plot-ready CSV (t, RMSE quartiles, median retention) to
demo_out/sweep.csv and prints the table. Raising the gate discards weaker
estimates: retention falls and accuracy improves.

Run:  python3 demos/04_threshold_sweep.py
"""

from pathlib import Path

from rrcif import evaluation, pipeline, signal_io
from rrcif.signal_io import ModDepths, SynthSpec

subjects = []
for rr, hr, seed in [(12.0, 74.0, 1), (20.0, 80.0, 2), (30.0, 76.0, 3), (16.0, 84.0, 4), (24.0, 78.0, 5)]:
    spec = SynthSpec(rr=rr, hr=hr, duration_s=480.0, fs=100.0,
                     depths=ModDepths(*([0.015] * 5)), noise_sd=0.1, seed=seed)
    record, reference = signal_io.synthesize(spec)
    subjects.append((pipeline.analyze_record(record).estimates, reference))

rows = evaluation.sweep(subjects)

out = Path("demo_out")
out.mkdir(exist_ok=True)
with open(out / "sweep.csv", "w") as fh:
    fh.write("t,rmse_p25,rmse_median,rmse_p75,retention_median\n")
    for r in rows:
        fh.write(f"{r.t:.2f},{r.rmse_p25:.4f},{r.rmse_median:.4f},{r.rmse_p75:.4f},{r.retention_median:.4f}\n")

print(f"{'t':>5} {'RMSE p25':>9} {'RMSE med':>9} {'RMSE p75':>9} {'retention':>10}")
for r in rows[::5]:
    print(f"{r.t:>5.2f} {r.rmse_p25:>9.3f} {r.rmse_median:>9.3f} {r.rmse_p75:>9.3f} {r.retention_median:>10.3f}")
print(f"\nfull table written to {out / 'sweep.csv'}")
