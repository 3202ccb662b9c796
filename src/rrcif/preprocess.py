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


def _cross_up(x, i0, i1, level, fs):
    """Time of the last upward crossing of `level` in x[i0:i1+1], or None."""
    seg = x[i0 : i1 + 1]
    below = seg[:-1] < level
    above = seg[1:] >= level
    hits = np.flatnonzero(below & above)
    if hits.size == 0:
        return None
    j = i0 + int(hits[-1])
    frac = (level - x[j]) / (x[j + 1] - x[j])
    return (j + frac) / fs


def _cross_down(x, i0, i1, level, fs):
    """Time of the first downward crossing of `level` in x[i0:i1+1], or None."""
    seg = x[i0 : i1 + 1]
    above = seg[:-1] > level
    below = seg[1:] <= level
    hits = np.flatnonzero(above & below)
    if hits.size == 0:
        return None
    j = i0 + int(hits[0])
    frac = (x[j] - level) / (x[j] - x[j + 1])
    return (j + frac) / fs


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

    beats: list[Beat] = []
    prev_peak_t = None
    for k, pk in enumerate(accepted):
        lo = accepted[k - 1] if k > 0 else 0
        search = x[lo:pk]
        if search.size == 0:
            continue
        foot = lo + int(np.argmin(search))
        t_foot, v_foot = _refine_extremum(x, foot, fs, find_max=False)
        t_peak, v_peak = _refine_extremum(x, pk, fs, find_max=True)
        if v_peak <= v_foot:
            continue
        amp = v_peak - v_foot
        t25 = _cross_up(x, foot, pk, v_foot + 0.25 * amp, fs)
        t50u = _cross_up(x, foot, pk, v_foot + 0.50 * amp, fs)
        t75 = _cross_up(x, foot, pk, v_foot + 0.75 * amp, fs)
        hi = accepted[k + 1] if k + 1 < len(accepted) else x.size - 1
        t50d = _cross_down(x, pk, hi, v_foot + 0.50 * amp, fs)
        if None in (t25, t50u, t75, t50d) or not (t25 <= t75 and t50u < t50d):
            continue
        beats.append(
            Beat(
                t_foot=t_foot,
                v_foot=v_foot,
                t_peak=t_peak,
                v_peak=v_peak,
                width50=t50d - t50u,
                rise25_75=t75 - t25,
                period=None if prev_peak_t is None else t_peak - prev_peak_t,
                artifact=False,
            )
        )
        prev_peak_t = t_peak

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
    periods = np.array([np.nan if b.period is None else b.period for b in beats])

    clipped = None
    if record is not None:
        runs = _clip_runs(record.samples)
        bounds = [b.t_foot for b in beats] + [beats[-1].t_peak + (beats[-1].width50)]
        idx = np.clip((np.asarray(bounds) * record.fs).astype(int), 0, record.samples.size)
        clipped = [bool(runs[idx[i] : max(idx[i + 1], idx[i] + 1)].any()) for i in range(len(beats))]

    out: list[Beat] = []
    for i, beat in enumerate(beats):
        lo = max(0, i - ARTIFACT_WINDOW)
        flag = False
        prev_amps = amps[lo:i]
        if prev_amps.size:
            med = float(np.median(prev_amps))
            if med > 0 and not (1.0 / ARTIFACT_FACTOR <= amps[i] / med <= ARTIFACT_FACTOR):
                flag = True
        prev_periods = periods[lo:i]
        prev_periods = prev_periods[~np.isnan(prev_periods)]
        if beat.period is not None and prev_periods.size:
            med = float(np.median(prev_periods))
            if med > 0 and not (1.0 / ARTIFACT_FACTOR <= beat.period / med <= ARTIFACT_FACTOR):
                flag = True
        if clipped is not None and clipped[i]:
            flag = True
        out.append(replace(beat, artifact=flag))
    return out
