"""Respiratory rate estimation from the photoplethysmogram.

Five respiratory-induced variation series (intensity, amplitude, frequency,
width, slope) are extracted beat-by-beat, each rated spectrally with
power-law background subtraction into one estimate table per record, and
fused per window with covariance intersection of the estimates whose noise
index passes the gate. Smart Fusion baselines and a benchmark
evaluation harness are included.

The package root re-exports nothing and imports nothing, so importing it
loads neither numpy nor scipy. It holds only the version, which output
headers print and ``pyproject.toml`` reads, and the three constants that
both the analysis modules and the command line's parser need: ``METHODS``,
``DEFAULT_THRESHOLD`` and ``T_GRID_DEFAULT``. Import the submodules:
``from rrcif import pipeline``.
"""

# The one statement of the version: pyproject.toml reads it as its dynamic
# version. A constant, so that naming it costs no scan of the installed
# distributions.
__version__ = "0.1.0"

# The fusion methods by name: CIF and the two Smart Fusion baselines.
METHODS = ("cif", "sf3", "sf5")

# The noise-index threshold that fusion uses unless told otherwise.
DEFAULT_THRESHOLD = 0.13

# The thresholds `rrcif sweep` and `evaluation.sweep` run unless told
# otherwise: 0 .. 0.3 in whole hundredths, built as the sweep builds its grid.
T_GRID_DEFAULT = tuple(k / 100 for k in range(31))
