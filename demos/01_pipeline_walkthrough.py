"""Walk one synthetic recording through every pipeline stage.

Run:  python3 demos/01_pipeline_walkthrough.py
"""

import numpy as np

from rrcif import evaluation, pipeline, signal_io
from rrcif.fusion import fuse_estimates
from rrcif.preprocess import bandpass, flag_artifacts, segment_beats
from rrcif.riv import ALL_KINDS, extract
from rrcif.spectral import WINDOW_S
from rrcif.signal_io import ModDepths, SynthSpec

# ------------------------------------------------------------------ generate
spec = SynthSpec(
    rr=18.0, hr=78.0, duration_s=480.0, fs=100.0,
    depths=ModDepths(intensity=0.1, amplitude=0.1, frequency=0.1, width=0.1, slope=0.1),
    noise_sd=0.03, seed=2024,
)
record, reference = signal_io.synthesize(spec)
print(f"synthetic record: {record.duration_s:.0f} s at {record.fs:.0f} Hz, true rate {spec.rr} breaths/min")

# -------------------------------------------------------------- preprocess
filtered = bandpass(record)
beats = flag_artifacts(segment_beats(filtered), record=record)
print(f"beats detected: {len(beats)} ({np.count_nonzero(beats.rules != 0)} flagged as artifact)")
period = np.nanmedian(beats.period)
print(f"median beat period {period:.3f} s -> heart rate {60 / period:.1f} beats/min")

# ------------------------------------------------- variation series (5 Hz)
rivs = extract(beats, t_end=record.duration_s)
print(f"variation table: {rivs.values.shape[1]} samples on the 5 Hz grid from t0 = {rivs.t0:.2f} s, "
      f"{np.count_nonzero(rivs.artifact)} flagged as artifact")
for kind, values in zip(ALL_KINDS, rivs.values):
    rel = np.ptp(values) / abs(np.mean(values))
    print(f"  {kind.name}: peak-to-peak {100 * rel:.1f}% of mean")

# -------------------------------------------- spectral estimates + fusion
analysis = pipeline.analyze_record(record)
table = analysis.estimates
print(f"\nwindow 10, [{table.start_s[10]:g}, {table.start_s[10] + WINDOW_S:g}) s, per-variation estimates:")
for kind, rr, ni in zip(ALL_KINDS, table.rr[10], table.ni[10]):
    print(f"  {kind.name}: rr={rr:.2f} breaths/min, noise index {ni:.2f}, passes t=0.13: {ni >= 0.13}")
reasons, counts = np.unique(table.reason, return_counts=True)
print("estimate table reasons: " + ", ".join(f"{r}={c}" for r, c in zip(reasons, counts)))

fusion = fuse_estimates(table, method="cif", t=0.13)
rmse, retention = evaluation.score(fusion, evaluation.reference_at(reference, table.start_s))
print(f"\nCIF at t=0.13 over {table.start_s.size} windows: RMSE {rmse:.3f} breaths/min, retention {retention:.3f}")
