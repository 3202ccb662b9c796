"""End-to-end analysis of one record: PPG -> beats -> variation series ->
estimate table. Fusion, at any threshold, is :func:`rrcif.fusion.fuse_estimates`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .preprocess import BeatTable, bandpass, flag_artifacts, segment_beats
from .riv import RivTable, extract
from .signal_io import PpgRecord
from .spectral import EstimateTable, rate_windows


@dataclass(frozen=True)
class RecordAnalysis:
    """Everything extracted from one recording, before fusion."""

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
    return RecordAnalysis(estimates=estimates, beats=beats, rivs=rivs)

