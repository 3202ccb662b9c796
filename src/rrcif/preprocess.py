"""PPG preprocessing: band-pass filtering, beat segmentation, artifact flags.

The entry point, :func:`segment_beats`, takes the raw record, band-passes
and segments it, and returns the beats flagged against the raw samples.

The filter is a 3rd-order Butterworth band-pass (0.4-8 Hz) applied forward
and backward (zero phase), which keeps the cardiac pulse shape and all five
respiratory modulations while removing drift and high-frequency noise.
The filter design, the filtering and the peak search are scipy's
``butter``, ``sosfiltfilt`` and ``find_peaks``, bit for bit, run on scipy's
compiled kernels through :mod:`rrcif._sigkernels`, which does not import
``scipy.signal`` unless it has to fall back to it.

Segmentation accepts each local maximum left by a 0.3 s refractory distance
whose prominence reaches half the median of the last 10 accepted ones; feet
are the minima between consecutive peaks. Width and rise time
come from linearly interpolated level crossings on each pulse.

Artifact rules (tunable module constants), each a bit of ``BeatTable.rules``:
RULE_PERIOD (1) and RULE_AMPLITUDE (2) when the beat's period or amplitude
deviates from the running median of the previous 10 beats by more than a
factor of 1.75, RULE_CLIPPING (4) when it contains a run of >= 3 samples
pinned at the raw record's global minimum or maximum. A beat is an artifact
when any bit is set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _sigkernels
from .errors import InsufficientSignalError, UnsupportedRateError, ValidationError
from .signal_io import PpgRecord, _median

BAND_HZ = (0.4, 8.0)
FILTER_ORDER = 3
MIN_FS_HZ = 25.0
MAX_FS_HZ = 10_000.0            # a 1.2 Hz tone keeps its band-pass gain here; at 1e9 Hz the design is singular
MAX_ABS_SAMPLE = 2.0**400       # above it the window powers could overflow
MIN_ABS_FILTERED = 2.0**-400    # below it the window spectra could turn subnormal

REFRACTORY_S = 0.3              # caps detectable heart rate at 200 beats/min
PROMINENCE_FACTOR = 0.5         # accept peaks above this fraction of the running median
PROMINENCE_WINDOW = 10          # beats in the running prominence median

ARTIFACT_FACTOR = 1.75          # allowed deviation factor from the running median
ARTIFACT_WINDOW = 10            # beats in the running period/amplitude medians
CLIP_RUN = 3                    # consecutive saturated samples that mark a beat
RULE_PERIOD, RULE_AMPLITUDE, RULE_CLIPPING = 1, 2, 4  # the bits of BeatTable.rules


@dataclass(frozen=True, eq=False)
class BeatTable:
    """Detected pulses as equal-length columns, one row per beat in peak-time order.

    Times in seconds, values in record units. `period` is the peak-to-peak
    interval from the previous beat, NaN for the first beat. `rules` is the
    uint8 bitmask of the artifact rules that fired; ``rules != 0`` marks an artifact.
    """

    t_foot: np.ndarray
    v_foot: np.ndarray
    t_peak: np.ndarray
    v_peak: np.ndarray
    width50: np.ndarray
    rise25_75: np.ndarray
    period: np.ndarray
    rules: np.ndarray

    def __len__(self) -> int:
        return self.t_peak.size


def bandpass(record: PpgRecord) -> np.ndarray:
    """The record's samples through a zero-phase 0.4-8 Hz band-pass; length preserved, DC removed.

    Raises :class:`UnsupportedRateError` for a sampling rate outside
    [MIN_FS_HZ, MAX_FS_HZ], :class:`ValidationError` when a raw |sample|
    exceeds MAX_ABS_SAMPLE, and :class:`InsufficientSignalError` when the
    record is not longer than the filter's edge padding or its band-passed
    |values| all lie below MIN_ABS_FILTERED. These bounds keep the window
    spectra finite and normal, so scaling a record by a power of two changes
    no rate or reason.
    """
    if record.fs < MIN_FS_HZ:
        raise UnsupportedRateError(f"fs {record.fs:g} Hz < {MIN_FS_HZ:g} Hz minimum")
    if record.fs > MAX_FS_HZ:
        raise UnsupportedRateError(f"fs {record.fs:g} Hz > {MAX_FS_HZ:g} Hz maximum")
    sos = _sigkernels.bandpass_sos(FILTER_ORDER, BAND_HZ, record.fs)
    padlen = 3 * (2 * len(sos) + 1)  # the edge extension sosfiltfilt uses for this filter
    if record.samples.size <= padlen:
        raise InsufficientSignalError(f"{record.samples.size} samples, the band-pass filter needs > {padlen}")
    largest = np.abs(record.samples).max()
    if largest > MAX_ABS_SAMPLE:  # checked first: the mean of such samples can overflow
        raise ValidationError(f"largest |sample| {largest:g} exceeds 2**400")
    x = record.samples - np.mean(record.samples)
    y = _sigkernels.sosfiltfilt(sos, x, padlen)
    y -= np.mean(y)  # filter edge transients leave a residual mean
    if np.abs(y).max() < MIN_ABS_FILTERED:
        raise InsufficientSignalError("band-passed signal is flat: every |value| is below 2**-400")
    return y


def _refine_extremum(x, i, fs, find_max):
    """Sub-sample extremum times/values via a parabola through the 3 samples around each index in `i`.

    An index at either end of `x`, a parabola that is flat or opens the wrong
    way, or a vertex more than one sample away keeps the sample itself.
    """
    y0, y1, y2 = x[np.maximum(i - 1, 0)], x[i], x[np.minimum(i + 1, x.size - 1)]
    curvature = y0 - 2.0 * y1 + y2
    fit = (i > 0) & (i < x.size - 1) & (curvature != 0) & ((curvature > 0) != find_max)
    delta = 0.5 * (y0 - y2) / np.where(fit, curvature, 1.0)
    fit &= np.abs(delta) <= 1.0
    return np.where(fit, i + delta, i) / fs, np.where(fit, y1 - 0.25 * (y0 - y2) * delta, y1)


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


def segment_beats(record: PpgRecord) -> BeatTable:
    """Band-pass the raw `record`, detect its pulses, measure per-beat features and flag artifacts.

    Beats whose level crossings cannot be measured (e.g. a decay truncated at
    the record edge) are dropped. Raises :class:`InsufficientSignalError` if
    fewer than 3 beats remain, and whatever :func:`bandpass` raises.
    """
    x, fs = bandpass(record), record.fs
    distance = max(1, int(round(REFRACTORY_S * fs)))
    candidates, proms = _sigkernels.find_peaks(x, distance)
    if candidates.size == 0:
        raise InsufficientSignalError("no pulse peaks detected")

    ref = float(_median(proms))  # until a peak is accepted
    recent: deque[float] = deque(maxlen=PROMINENCE_WINDOW)
    accepted: list[int] = []
    for idx, prom in zip(candidates, proms):
        if recent:  # the median of the sorted deque, with np.median's arithmetic
            s = sorted(recent)
            half = len(s) // 2
            ref = s[half] if len(s) % 2 else (s[half - 1] + s[half]) / 2
        if prom >= PROMINENCE_FACTOR * ref:
            accepted.append(int(idx))
            recent.append(float(prom))

    # each peak's foot lies after the previous peak; its decay runs to the next.
    # find_peaks never returns index 0 and its indices strictly increase, so
    # every span x[prev:peak] below holds at least one sample
    peaks = np.array(accepted, dtype=int)
    prev = np.concatenate(([0], peaks))[:-1]
    nxt = np.append(peaks, x.size - 1)[1:]
    # a foot is the first minimum of x[prev:peak]; these spans tile x[:peaks[-1]]
    lowest = np.repeat(np.minimum.reduceat(x[: peaks[-1]], prev), peaks - prev)
    at_lowest = np.flatnonzero(x[: peaks[-1]] == lowest)
    feet = at_lowest[np.searchsorted(at_lowest, prev)]
    t_foot, v_foot = _refine_extremum(x, feet, fs, find_max=False)
    t_peak, v_peak = _refine_extremum(x, peaks, fs, find_max=True)

    amp = v_peak - v_foot
    t25, t50u, t75 = _crossings(x, feet, peaks, v_foot + np.array([[0.25], [0.50], [0.75]]) * amp, rising=True) / fs
    t50d = _crossings(x, peaks, nxt, (v_foot + 0.50 * amp)[None], rising=False)[0] / fs
    keep = (v_peak > v_foot) & (t25 <= t75) & (t50u < t50d)

    t_peak = t_peak[keep]
    if t_peak.size < 3:
        raise InsufficientSignalError(f"only {t_peak.size} beats detected, need >= 3")
    beats = BeatTable(
        t_foot=t_foot[keep],
        v_foot=v_foot[keep],
        t_peak=t_peak,
        v_peak=v_peak[keep],
        width50=(t50d - t50u)[keep],
        rise25_75=(t75 - t25)[keep],
        period=np.concatenate(([np.nan], np.diff(t_peak))),
        rules=np.zeros(t_peak.size, dtype=np.uint8),
    )
    return flag_artifacts(beats, record)


def _clip_runs(raw: np.ndarray) -> np.ndarray:
    """Boolean mask of samples inside runs of >= CLIP_RUN at the global min/max."""
    pinned = (raw == raw.max()) | (raw == raw.min())
    edges = np.flatnonzero(np.diff(pinned, prepend=False, append=False))
    lengths = np.diff(edges, prepend=0, append=raw.size)  # runs alternate unpinned, pinned, ..., unpinned
    return np.repeat((np.arange(lengths.size) % 2 == 1) & (lengths >= CLIP_RUN), lengths)


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


def flag_artifacts(beats: BeatTable, record: PpgRecord) -> BeatTable:
    """Return a copy of `beats` with the rules column set.

    A beat gets RULE_PERIOD or RULE_AMPLITUDE when its period or amplitude
    deviates from the running median of the previous ARTIFACT_WINDOW beats by
    more than ARTIFACT_FACTOR, and RULE_CLIPPING when the samples of the raw
    `record` it spans contain a run of >= CLIP_RUN values pinned at the
    record's global min or max. The rules column is not read, so the
    operation is idempotent.
    """
    if len(beats) < 3:
        raise InsufficientSignalError("need >= 3 beats for artifact detection")
    amps = beats.v_peak - beats.v_foot
    periods = beats.period
    rules = RULE_PERIOD * (~np.isnan(periods) & _deviates(periods, _running_median(periods)))
    rules |= RULE_AMPLITUDE * _deviates(amps, _running_median(amps))
    runs = _clip_runs(record.samples)
    bounds = np.append(beats.t_foot, beats.t_peak[-1] + beats.width50[-1])
    idx = np.clip((bounds * record.fs).astype(int), 0, record.samples.size)
    # a beat spans runs[idx[i] : max(idx[i + 1], idx[i] + 1)]
    start = idx[:-1]
    stop = np.minimum(np.maximum(idx[1:], start + 1), runs.size)
    pinned_before = np.concatenate(([0], np.cumsum(runs)))
    rules |= RULE_CLIPPING * (pinned_before[stop] > pinned_before[start])
    return BeatTable(**{**vars(beats), "rules": rules.astype(np.uint8)})
