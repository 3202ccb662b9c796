"""Respiratory rate estimation from the photoplethysmogram.

Five respiratory-induced variation series (intensity, amplitude, frequency,
width, slope) are extracted beat-by-beat, each rated spectrally with
power-law background subtraction into one estimate table per record, and
fused per window with covariance intersection of the estimates whose noise
index passes the gate. Smart Fusion baselines and a benchmark
evaluation harness are included.

The package root re-exports nothing, so importing it loads neither numpy
nor scipy. Import the submodules: ``from rrcif import pipeline``.
"""
