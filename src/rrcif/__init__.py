"""Respiratory rate estimation from the photoplethysmogram.

Five respiratory-induced variation series (intensity, amplitude, frequency,
width, slope) are extracted beat-by-beat, each rated spectrally with
power-law background subtraction into one estimate table per record, and
fused per window with covariance intersection of the estimates whose noise
index passes the gate. Smart Fusion baselines and a benchmark
evaluation harness are included.
"""

from .errors import (
    BoundsError,
    EmptyFusionError,
    InsufficientSignalError,
    ParseError,
    RrcifError,
    UnsupportedRateError,
    ValidationError,
)
from .evaluation import (
    AgreementStats,
    SweepRow,
    agreement,
    reference_at,
    score,
    sweep,
    wilcoxon_signed_rank,
)
from .fusion import SF3, SF5, FusionResult, cif, cif_weights, smart_fusion
from .pipeline import RecordAnalysis, analyze_record, fuse_estimates
from .preprocess import Beat, bandpass, flag_artifacts, segment_beats
from .riv import ALL_KINDS, RivKind, RivSeries, extract
from .signal_io import (
    ModDepths,
    PpgRecord,
    ReferenceRr,
    SynthSpec,
    read_record,
    read_record_json,
    read_reference,
    synthesize,
    write_record,
    write_reference,
)
from .spectral import (
    DEFAULT_THRESHOLD,
    REASONS,
    EstimateTable,
    PowerSpectrum,
    WindowGrid,
    estimate_rr,
    fit_power_law,
    rate_windows,
    window_spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
