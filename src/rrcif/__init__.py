"""Respiratory rate estimation from the photoplethysmogram.

Five respiratory-induced variation series (intensity, amplitude, frequency,
width, slope) are extracted beat-by-beat, each rated spectrally with
power-law background subtraction into one estimate table per record, and
fused per window with covariance intersection of the estimates whose noise
index passes the gate. Smart Fusion baselines and a benchmark
evaluation harness are included.

The package root re-exports nothing and imports nothing, so importing it
loads neither numpy nor scipy. It holds only the version, which output
headers print, and the two constants that both the analysis modules and the
command line's parser need. Import the submodules:
``from rrcif import pipeline``.
"""

# Kept equal to pyproject.toml's static version; a constant, so that naming it
# costs no scan of the installed distributions.
__version__ = "0.1.0"

# The fusion methods by name: CIF and the two Smart Fusion baselines.
METHODS = ("cif", "sf3", "sf5")

# The noise-index threshold that fusion uses unless told otherwise.
DEFAULT_THRESHOLD = 0.13
