"""PPG preprocessing: band-pass filtering, beat segmentation, artifact flags.

The filter is a 3rd-order Butterworth band-pass (0.4-8 Hz) applied forward
and backward (zero phase), which keeps the cardiac pulse shape and all five
respiratory modulations while removing drift and high-frequency noise.

Segmentation finds pulse peaks with an adaptive prominence threshold (half
the median of the last 10 accepted prominences) and a 0.3 s refractory
period; feet are the minima between consecutive peaks. Width and rise time
come from linearly interpolated level crossings on each pulse.

Artifact criteria (tunable module constants): a beat whose period or
amplitude deviates from the running median of the previous 10 beats by more
than a factor of 1.75, or that contains a run of >= 3 samples pinned at the
raw record's global minimum or maximum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from statistics import median

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as sp_signal

from .errors import InsufficientSignalError, UnsupportedRateError
from .signal_io import PpgRecord

BAND_HZ = (0.4, 8.0)
FILTER_ORDER = 3
MIN_FS_HZ = 25.0

REFRACTORY_S = 0.3              # caps detectable heart rate at 200 beats/min
PROMINENCE_FACTOR = 0.5         # accept peaks above this fraction of the running median
PROMINENCE_WINDOW = 10          # beats in the running prominence median

ARTIFACT_FACTOR = 1.75          # allowed deviation factor from the running median
ARTIFACT_WINDOW = 10            # beats in the running period/amplitude medians
CLIP_RUN = 3                    # consecutive saturated samples that mark a beat


@dataclass(frozen=True)
class Beat:
    """One detected pulse; times in seconds, values in record units."""

    t_foot: float
    v_foot: float
    t_peak: float
    v_peak: float
    width50: float
    rise25_75: float
    period: float | None
    artifact: bool = False


def bandpass(record: PpgRecord) -> PpgRecord:
    """Zero-phase 0.4-8 Hz band-pass; length preserved, DC removed.

    Raises :class:`InsufficientSignalError` when the record is not longer
    than the filter's edge padding.
    """
    if record.fs < MIN_FS_HZ:
        raise UnsupportedRateError(f"fs {record.fs:g} Hz < {MIN_FS_HZ:g} Hz minimum")
    sos = sp_signal.butter(FILTER_ORDER, BAND_HZ, btype="bandpass", output="sos", fs=record.fs)
    padlen = 3 * (2 * len(sos) + 1)  # the edge extension sosfiltfilt uses for this filter
    if record.samples.size <= padlen:
        raise InsufficientSignalError(f"{record.samples.size} samples, the band-pass filter needs > {padlen}")
    x = record.samples - np.mean(record.samples)
    y = sp_signal.sosfiltfilt(sos, x, padlen=padlen)
    y -= np.mean(y)  # filter edge transients leave a residual mean
    return PpgRecord(id=record.id, fs=record.fs, samples=y)


def _refine_extremum(x, i, fs, find_max):
    """Sub-sample extremum location/value via a parabola through 3 samples."""
    if i <= 0 or i >= x.size - 1:
        return i / fs, float(x[i])
    y0, y1, y2 = x[i - 1], x[i], x[i + 1]
    curvature = y0 - 2.0 * y1 + y2
    if curvature == 0 or (curvature > 0) == find_max:
        return i / fs, float(y1)
    delta = 0.5 * (y0 - y2) / curvature
    if abs(delta) > 1.0:
        return i / fs, float(y1)
    return (i + delta) / fs, float(y1 - 0.25 * (y0 - y2) * delta)


def _crossings(x, starts, stops, levels, rising):
    """Sub-sample index where x crosses a level in each segment, NaN where it does not.

    Segment i covers the sample pairs (j, j + 1) for j in [starts[i], stops[i]).
    `levels` has shape (k, segments): each row is one level per segment. With
    `rising`, the result is the last upward crossing, otherwise the first
    downward one. All segments are scanned at once over their concatenated
    pairs, so the work and memory are O(total segment length).
    """
    lengths = stops - starts
    seg = np.repeat(np.arange(starts.size), lengths)
    j = np.arange(seg.size) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    level = levels[:, seg]
    a, b = x[j], x[j + 1]
    if rising:
        hit, reduce, none = (a < level) & (b >= level), np.maximum, -1
    else:
        hit, reduce, none = (a > level) & (b <= level), np.minimum, x.size
    row, pair = np.nonzero(hit)
    best = np.full(levels.shape, none)
    reduce.at(best, (row, seg[pair]), j[pair])
    found = best != none
    jb, lev = best[found], levels[found]
    frac = (lev - x[jb]) / (x[jb + 1] - x[jb])
    out = np.full(levels.shape, np.nan)
    out[found] = jb + frac
    return out


def segment_beats(filtered: PpgRecord) -> list[Beat]:
    """Detect pulses in a band-passed record and measure per-beat features.

    Returns beats ordered by peak time. Beats whose level crossings cannot be
    measured (e.g. a decay truncated at the record edge) are dropped.
    Raises :class:`InsufficientSignalError` if fewer than 3 beats remain.
    """
    x = filtered.samples
    fs = filtered.fs
    distance = max(1, int(round(REFRACTORY_S * fs)))
    candidates, props = sp_signal.find_peaks(x, distance=distance, prominence=1e-12)
    proms = props["prominences"]
    if candidates.size == 0:
        raise InsufficientSignalError("no pulse peaks detected")

    global_median = float(np.median(proms))
    recent: deque[float] = deque(maxlen=PROMINENCE_WINDOW)
    accepted: list[int] = []
    for idx, prom in zip(candidates, proms):
        ref = median(recent) if recent else global_median
        if prom >= PROMINENCE_FACTOR * ref:
            accepted.append(int(idx))
            recent.append(float(prom))

    # each peak's foot lies after the previous peak; its decay runs to the next
    peaks = np.array(accepted, dtype=int)
    prev = np.concatenate(([0], peaks))[:-1]
    nxt = np.append(peaks, x.size - 1)[1:]
    has_search = peaks > prev
    peaks, prev, nxt = peaks[has_search], prev[has_search], nxt[has_search]
    feet = np.array([lo + int(np.argmin(x[lo:pk])) for lo, pk in zip(prev, peaks)], dtype=int)
    t_foot, v_foot = np.array([_refine_extremum(x, i, fs, find_max=False) for i in feet]).reshape(-1, 2).T
    t_peak, v_peak = np.array([_refine_extremum(x, i, fs, find_max=True) for i in peaks]).reshape(-1, 2).T

    amp = v_peak - v_foot
    t25, t50u, t75 = _crossings(x, feet, peaks, v_foot + np.array([[0.25], [0.50], [0.75]]) * amp, rising=True) / fs
    t50d = _crossings(x, peaks, nxt, (v_foot + 0.50 * amp)[None], rising=False)[0] / fs
    keep = (v_peak > v_foot) & (t25 <= t75) & (t50u < t50d)

    t_peak = t_peak[keep]
    periods = [None] + np.diff(t_peak).tolist()
    columns = zip(
        t_foot[keep].tolist(),
        v_foot[keep].tolist(),
        t_peak.tolist(),
        v_peak[keep].tolist(),
        (t50d - t50u)[keep].tolist(),
        (t75 - t25)[keep].tolist(),
        periods,
    )
    beats = [Beat(*fields) for fields in columns]
    if len(beats) < 3:
        raise InsufficientSignalError(f"only {len(beats)} beats detected, need >= 3")
    return beats


def _clip_runs(raw: np.ndarray) -> np.ndarray:
    """Boolean mask of samples inside runs of >= CLIP_RUN at the global min/max."""
    pinned = (raw == raw.max()) | (raw == raw.min())
    mask = np.zeros(raw.size, dtype=bool)
    if not pinned.any():
        return mask
    edges = np.diff(pinned.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1) + 1)
    if pinned[0]:
        starts.insert(0, 0)
    if pinned[-1]:
        ends.append(raw.size)
    for s, e in zip(starts, ends):
        if e - s >= CLIP_RUN:
            mask[s:e] = True
    return mask


def _running_median(values: np.ndarray) -> np.ndarray:
    """Median of the non-NaN values among the previous ARTIFACT_WINDOW, per position; NaN where none.

    The same arithmetic as ``np.median``: the middle value, or the mean of the
    two middle values.
    """
    padded = np.concatenate((np.full(ARTIFACT_WINDOW, np.nan), values))
    s = np.sort(sliding_window_view(padded, ARTIFACT_WINDOW)[: values.size], axis=1)  # NaN sorts last
    count = np.count_nonzero(~np.isnan(s), axis=1)
    rows = np.arange(values.size)
    return (s[rows, (count - 1) // 2] + s[rows, count // 2]) / 2


def _deviates(values: np.ndarray, med: np.ndarray) -> np.ndarray:
    """Where a positive running median exists and values/median leaves [1/ARTIFACT_FACTOR, ARTIFACT_FACTOR]."""
    positive = med > 0
    ratio = values / np.where(positive, med, 1.0)
    return positive & ~((1.0 / ARTIFACT_FACTOR <= ratio) & (ratio <= ARTIFACT_FACTOR))


def flag_artifacts(beats: list[Beat], record: PpgRecord | None = None) -> list[Beat]:
    """Return a copy of `beats` with artifact flags set.

    A beat is flagged when its period or amplitude deviates from the running
    median of the previous ARTIFACT_WINDOW beats by more than ARTIFACT_FACTOR,
    or (when the raw `record` is supplied) when the samples it spans contain a
    run of >= CLIP_RUN values pinned at the record's global min or max.
    Flags depend only on beat values, so the operation is idempotent.
    """
    if len(beats) < 3:
        raise InsufficientSignalError("need >= 3 beats for artifact detection")
    amps = np.array([b.v_peak - b.v_foot for b in beats])
    has_period = np.array([b.period is not None for b in beats])
    periods = np.array([np.nan if b.period is None else b.period for b in beats])

    flags = _deviates(amps, _running_median(amps)) | (has_period & _deviates(periods, _running_median(periods)))
    if record is not None:
        runs = _clip_runs(record.samples)
        bounds = [b.t_foot for b in beats] + [beats[-1].t_peak + (beats[-1].width50)]
        idx = np.clip((np.asarray(bounds) * record.fs).astype(int), 0, record.samples.size)
        # a beat spans runs[idx[i] : max(idx[i + 1], idx[i] + 1)]
        start = idx[:-1]
        stop = np.minimum(np.maximum(idx[1:], start + 1), runs.size)
        pinned_before = np.concatenate(([0], np.cumsum(runs)))
        flags |= pinned_before[stop] > pinned_before[start]
    return [replace(beat, artifact=flag) for beat, flag in zip(beats, flags.tolist())]
