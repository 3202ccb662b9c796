"""End-to-end wiring: record -> beats -> variation series -> estimate table
-> fused rates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import DEFAULT_THRESHOLD, METHODS
from .fusion import SF3, SF5, FusionResult, cif, smart_fusion
from .preprocess import BeatTable, bandpass, flag_artifacts, segment_beats
from .riv import RivTable, extract
from .signal_io import PpgRecord
from .spectral import EstimateTable, rate_windows


@dataclass(frozen=True)
class RecordAnalysis:
    """Everything extracted from one recording, before fusion."""

    record_id: str
    estimates: EstimateTable
    beats: BeatTable
    rivs: RivTable


def analyze_record(record: PpgRecord) -> RecordAnalysis:
    """Run preprocessing, variation extraction and spectral estimation.

    Every (window, variation) pair gets a rate and noise index, or NaN and
    the reason it was not rated. No threshold is applied here, so the
    estimates can be fused at any threshold later.
    """
    filtered = bandpass(record)
    beats = flag_artifacts(segment_beats(filtered), record=record)
    rivs = extract(beats, t_end=record.duration_s)
    estimates = rate_windows(rivs, record.duration_s)
    return RecordAnalysis(record_id=record.id, estimates=estimates, beats=beats, rivs=rivs)


def fuse_estimates(estimates: EstimateTable, method: str = "cif", t: float = DEFAULT_THRESHOLD) -> FusionResult:
    """Fuse every window of an estimate table with 'cif', 'sf3' or 'sf5'."""
    if method == "cif":
        return cif(estimates.rr, estimates.ni, t)
    if method == "sf3":
        return smart_fusion(estimates.rr, SF3)
    if method == "sf5":
        return smart_fusion(estimates.rr, SF5)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
