"""Windowed spectra, power-law background subtraction, rate and noise index.

For each 32 s window (2 s shift) of a 5 Hz variation series: remove the mean,
apply a Hamming taper, zero-pad to 4096 points and take the magnitude-squared
FFT. A line is fitted to log(P) vs log(f) over 2-4 and 65-100 breaths/min
(excluding the 4-65 band of interest) and the implied power law

    P_fit = exp(k) * f**a

is subtracted to give the residual spectrum P_out. The rate estimate is the
frequency of the residual maximum within 4-65 breaths/min, and the noise
index is the positive residual peak over the positive residual sum in that
band, rescaled as :func:`rate_windows` explains.

Every window has the same fixed grid, built at import as read-only constants:
bin frequencies FREQS in breaths/min, the N_RATED_BINS bins up to 100, the
4-65 BAND slice, the fit bins' centred log-frequency terms, the Hamming taper.

One kernel works over the last array axis: :func:`rate_windows` runs it on
all windows of each row of a record's RivTable and returns the record's
EstimateTable, and :func:`window_spectrum` returns the full spectrum and
background of one (window, variation) pair for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy import fft  # bound here, not on first use: a forked worker would load it for itself

from .errors import RrcifError
from .riv import ALL_KINDS, RIV_FS, RivKind, RivTable

WINDOW_S = 32.0
SHIFT_S = 2.0
WINDOW_SAMPLES = round(WINDOW_S * RIV_FS)
NFFT = 4096
RR_BAND_BPM = (4.0, 65.0)
FIT_BANDS_BPM = ((2.0, 4.0), (65.0, 100.0))
MAX_BPM = FIT_BANDS_BPM[-1][1]
MIN_FIT_BINS = 5
BATCH_ROWS = 64  # windows per rFFT call, which bounds the complex spectra held at once
REASONS = ("none", "artifact", "out_of_range", "fit_degenerate")


def _constant(a) -> np.ndarray:
    a.setflags(write=False)
    return a


FREQS = _constant(fft.rfftfreq(NFFT, d=1.0 / RIV_FS) * 60.0)  # bin frequencies, breaths/min
N_RATED_BINS = int(np.searchsorted(FREQS, MAX_BPM, side="right"))  # the bins up to MAX_BPM
BAND = slice(int(np.searchsorted(FREQS, RR_BAND_BPM[0])), int(np.searchsorted(FREQS, RR_BAND_BPM[1], side="right")))
_TAPER = _constant(np.hamming(WINDOW_SAMPLES))
_FIT_BINS = _constant(np.flatnonzero(np.logical_or.reduce([(FREQS >= lo) & (FREQS <= hi) for lo, hi in FIT_BANDS_BPM])))
_FIT_CENTRE = np.log(FREQS[_FIT_BINS]).mean()
_FIT_D = np.log(FREQS[_FIT_BINS]) - _FIT_CENTRE  # d: each fit bin's log f, centred
_FIT_POWERS = _constant(np.stack([np.ones_like(_FIT_D), _FIT_D, _FIT_D * _FIT_D], axis=-1))  # 1, d, d**2


def window_starts(duration_s: float) -> np.ndarray:
    """Start times of the sliding WINDOW_S windows, SHIFT_S apart, covering a recording."""
    count = 0 if duration_s < WINDOW_S else int(np.floor((duration_s - WINDOW_S) / SHIFT_S + 1e-9)) + 1
    return np.arange(count) * SHIFT_S


@dataclass(frozen=True)
class EstimateTable:
    """Rate and noise index of every (window, variation) pair of one record.

    Window i covers [start_s[i], start_s[i] + WINDOW_S) s. The other arrays
    have shape (n_windows, 5), columns in ALL_KINDS order. ``rr`` and ``ni``
    are NaN where a pair was not rated, and ``reason`` (one of REASONS;
    "none" when rated) says why. Gating is left to fusion.
    """

    start_s: np.ndarray
    rr: np.ndarray
    ni: np.ndarray
    reason: np.ndarray


# ---------------------------------------------------------------------------
# the kernel: every function works over the last axis


def _power(x: np.ndarray, n_bins: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Tapered, zero-padded power spectra of the WINDOW_SAMPLES-long rows of x, first n_bins bins.

    ``out``, if given, receives the full complex rFFT of the rows. A constant
    row has exactly zero power: mean subtraction would leave rounding residue
    that the scale-free noise index could pick up.
    """
    constant = np.ptp(x, axis=-1) == 0
    tapered = (x - np.mean(x, axis=-1, keepdims=True)) * _TAPER
    P = np.abs(fft.rfft(tapered, NFFT, axis=-1, out=out)[..., :n_bins]) ** 2
    P[constant] = 0.0
    return P


def fit_power_law(P: np.ndarray):
    """Least-squares line log P = k + a*log f over the fit bands.

    The last axis of ``P`` holds the first N_RATED_BINS or more bins of the
    grid. Only bins with positive power count: with weights w = (P > 0) and
    d = log f minus its mean over the fit bins, the line comes in closed form
    from the sums of w, w*d, w*d**2, w*log P and w*log P*d, the same for
    every row whatever its mask. Returns (a, k, degenerate); a row with fewer
    than MIN_FIT_BINS usable bins is degenerate and gets a = 0, k = -inf,
    i.e. a zero power law.
    """
    P = P[..., _FIT_BINS]
    use = P > 0
    logp = np.log(np.where(use, P, 1.0))  # 0 where unused
    n, s1, s2 = np.moveaxis(use.astype(float) @ _FIT_POWERS, -1, 0)
    t0, t1 = np.moveaxis(logp @ _FIT_POWERS[:, :2], -1, 0)
    degenerate = n < MIN_FIT_BINS
    with np.errstate(divide="ignore", invalid="ignore"):
        d_mean = s1 / n
        a = (t1 - d_mean * t0) / (s2 - d_mean * s1)
        k = t0 / n - a * (d_mean + _FIT_CENTRE)
    return np.where(degenerate, 0.0, a), np.where(degenerate, -np.inf, k), degenerate


def _power_law(a: np.ndarray, k: np.ndarray, bins: slice) -> np.ndarray:
    """exp(k + a*log f) on the grid bins ``bins``, which leave out f = 0, for each (a, k)."""
    return np.exp(k[..., None] + a[..., None] * np.log(FREQS[bins]))


def _rate_ni(residual: np.ndarray):
    """Rate at the residual maximum and the native-resolution noise index.

    The last axis of ``residual`` holds the BAND bins.
    """
    rr = FREQS[BAND][np.argmax(residual, axis=-1)]
    denom = np.clip(residual, 0.0, None).sum(axis=-1) * WINDOW_SAMPLES / NFFT
    top = residual.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ni = np.where(denom > 0.0, np.minimum(np.maximum(top, 0.0) / denom, 1.0), 0.0)
    return rr, ni


# ---------------------------------------------------------------------------
# one record: every window of every variation series


def _first_samples(rivs: RivTable, start_s) -> np.ndarray:
    """Index of the first series sample at or after each window start."""
    return np.ceil((np.asarray(start_s) - rivs.t0) * RIV_FS - 1e-9).astype(int)


def _window_rows(rivs: RivTable, start_s: np.ndarray):
    """First sample and unrated reason of every window of a record.

    Returns (i0, reason): the window starting at start_s[i] covers samples
    i0[i] to i0[i] + WINDOW_SAMPLES of every row of ``rivs``. Its reason is
    "out_of_range" when that span is not fully inside the series, "artifact"
    when an artifact sample lies in it, and "none" otherwise.
    """
    i0 = _first_samples(rivs, start_s)
    size = rivs.values.shape[-1]
    inside = (i0 >= 0) & (i0 + WINDOW_SAMPLES <= size)
    hits = np.concatenate(([0], np.cumsum(rivs.artifact)))
    touched = hits[np.clip(i0 + WINDOW_SAMPLES, 0, size)] > hits[np.clip(i0, 0, size)]
    reason = np.full(start_s.size, "none", dtype="<U14")
    reason[~inside] = "out_of_range"
    reason[inside & touched] = "artifact"
    return i0, reason


def rate_windows(rivs: RivTable, duration_s: float) -> EstimateTable:
    """Rate and noise index of every (window, variation) pair of a ``duration_s`` long record.

    A window not fully inside the series is "out_of_range" (as the first
    window is when the first beat comes 0.2 s or more into the record) and
    one touched by an artifact is "artifact", for all five variations; a
    pair whose background fit is degenerate is "fit_degenerate". All three
    carry NaN rate and noise index. Each variation goes through the kernel
    on its own, BATCH_ROWS windows per call.

    The noise index is the positive residual peak over the in-band positive
    residual sum times n_window / nfft, clipped to [0, 1]. Zero-padding
    spreads each spectral feature over nfft / n_window bins, which would
    shrink the ratio by that factor; rescaled to the native resolution, a
    lone native-resolution peak scores about 1 and the 0.13 default gate
    keeps its meaning whatever the padding.
    """
    start_s = window_starts(duration_s)
    i0, window_reason = _window_rows(rivs, start_s)
    rated = np.flatnonzero(window_reason == "none")
    rr, ni = np.full((2, start_s.size, len(ALL_KINDS)), np.nan)
    reason = np.repeat(window_reason[:, None], len(ALL_KINDS), axis=1)
    blocks = np.array_split(rated, max(1, -(-rated.size // BATCH_ROWS)))
    spectra = np.empty((blocks[0].size, NFFT // 2 + 1), dtype=complex)  # one rFFT output for every call
    for block in blocks:
        samples = i0[block, None] + np.arange(WINDOW_SAMPLES)
        for column, values in enumerate(rivs.values):
            P = _power(values[samples], N_RATED_BINS, out=spectra[: block.size])
            a, k, degenerate = fit_power_law(P)
            residual = P[:, BAND] - _power_law(a, k, BAND)  # the background only where rates are read
            rr[block, column], ni[block, column] = np.where(degenerate, np.nan, _rate_ni(residual))
            reason[block[degenerate], column] = "fit_degenerate"
    return EstimateTable(start_s=start_s, rr=rr, ni=ni, reason=reason)


def window_spectrum(rivs: RivTable, table: EstimateTable, index: int, kind: RivKind):
    """Full spectrum of window ``index`` of one variation, for inspection.

    ``table`` is the EstimateTable that :func:`rate_windows` made from
    ``rivs``. Returns (freqs, P, P_fit) on all NFFT // 2 + 1 bins, freqs in
    breaths/min; P - P_fit is the residual the table's rate and noise index
    were read from. A degenerate fit gives P_fit = 0. Raises
    :class:`RrcifError` for an index outside the table and for a window that
    is "out_of_range" or "artifact".
    """
    n = table.start_s.size
    if not 0 <= index < n:
        valid = f"0..{n - 1}" if n else f"none, the record is shorter than {WINDOW_S:g} s"
        raise RrcifError(f"window {index} does not exist (valid windows: {valid})")
    start, column = table.start_s[index], ALL_KINDS.index(kind)
    reason = table.reason[index, column]
    if reason in ("out_of_range", "artifact"):
        raise RrcifError(f"window {index} [{start:g}, {start + WINDOW_S:g}) s of {kind.name} is not rated: {reason}")
    i0 = _first_samples(rivs, start)
    P = _power(rivs.values[column, i0 : i0 + WINDOW_SAMPLES])
    a, k, _ = fit_power_law(P)
    P_fit = np.zeros_like(P)
    P_fit[1:] = _power_law(a, k, slice(1, None))
    return FREQS, P, P_fit
