"""Windowed spectra, power-law background subtraction, rate and noise index.

For each 32 s window (2 s shift) of a 5 Hz variation series: remove the mean,
apply a Hamming taper, zero-pad to 4096 points and take the magnitude-squared
DFT. A line is fitted to log(P) vs log(f) over 2-4 and 65-100 breaths/min
(excluding the 4-65 band of interest) and the implied power law

    P_fit = exp(k) * f**a

is subtracted to give the residual spectrum P_out. The rate estimate is the
frequency of the residual maximum within 4-65 breaths/min, and the noise
index is the positive residual peak over the positive residual sum in that
band, rescaled as :func:`rate_windows` explains.

Every window has the same fixed grid, built at import as read-only constants:
bin frequencies FREQS in breaths/min, the 4-65 BAND slice, the fit bins'
centred log-frequency terms, the Hamming taper, and the DFT basis of the bins
that rating reads.

The spectrum is that zero-padded DFT, evaluated only on the bins it is read
on, as a real matrix product. The taper is symmetric about the window centre,
so a window folds into the sum and the difference of its two halves, and the
product reads half as many samples (:func:`_basis`). The product also removes
the window mean: the cosine columns, which multiply the sum, have their means
subtracted, and the difference, which the sine columns multiply, has no mean.

One kernel works over the last array axis: :func:`rate_windows` runs it on
all windows of each row of a record's RivTable and returns the record's
EstimateTable, and :func:`window_spectrum` runs it on every bin of one
(window, variation) pair and returns the spectrum and background for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RrcifError
from .riv import ALL_KINDS, RIV_FS, RivKind, RivTable

WINDOW_S = 32.0
SHIFT_S = 2.0
WINDOW_SAMPLES = round(WINDOW_S * RIV_FS)
NFFT = 4096
RR_BAND_BPM = (4.0, 65.0)
FIT_BANDS_BPM = ((2.0, 4.0), (65.0, 100.0))
MIN_FIT_BINS = 5
BATCH_ROWS = 64  # windows per basis product, which bounds the spectra held at once
_COLUMN_STEP = 64  # basis columns come in whole steps of this many (see _basis)
REASONS = ("none", "artifact", "out_of_range", "fit_degenerate")


def _constant(a) -> np.ndarray:
    a.setflags(write=False)
    return a


FREQS = _constant(np.arange(NFFT // 2 + 1) * (RIV_FS / NFFT) * 60.0)  # bin frequencies, breaths/min
BAND = slice(int(np.searchsorted(FREQS, RR_BAND_BPM[0])), int(np.searchsorted(FREQS, RR_BAND_BPM[1], side="right")))
_TAPER = _constant(np.hamming(WINDOW_SAMPLES))
_FIT_BINS = _constant(np.flatnonzero(np.logical_or.reduce([(FREQS >= lo) & (FREQS <= hi) for lo, hi in FIT_BANDS_BPM])))
_FIT_CENTRE = np.log(FREQS[_FIT_BINS]).mean()
_FIT_D = np.log(FREQS[_FIT_BINS]) - _FIT_CENTRE  # d: each fit bin's log f, centred
_FIT_POWERS = _constant(np.stack([np.ones_like(_FIT_D), _FIT_D, _FIT_D * _FIT_D], axis=-1))  # 1, d, d**2


def _basis(bins: np.ndarray):
    """(even, odd): the folded real-DFT basis of the NFFT-point grid bins ``bins``.

    Both have WINDOW_SAMPLES // 2 rows, and column j < bins.size belongs to
    bins[j]. Row n holds the taper times the cosine (even) or sine (odd) of
    the bin's angle at sample n, taken about the window centre
    c = (WINDOW_SAMPLES - 1) / 2: 2*pi*k*(n - c) / NFFT = 2*pi*(2n - 2c)*k / (2*NFFT),
    read from a 2*NFFT-entry table at the exact integer index
    (2n - 2c)*k mod 2*NFFT. The taper and the cosine are even about c and the
    sine is odd, which folds sample 2c - n onto row n. Each even column has
    its mean taken off, which removes the window mean.

    Zero columns pad the width to a multiple of _COLUMN_STEP. Without them
    OpenBLAS computes the last columns of a product with a narrower kernel
    whose sums round differently, and which columns those are depends on how
    many threads (OPENBLAS_NUM_THREADS) split the product.
    """
    half = WINDOW_SAMPLES // 2
    angles = np.arange(2 * NFFT) * (np.pi / NFFT)
    turns = (2 * np.arange(half) - (WINDOW_SAMPLES - 1))[:, None] * bins % (2 * NFFT)
    taper = _TAPER[:half, None]
    even, odd = np.zeros((2, half, bins.size + -bins.size % _COLUMN_STEP))
    np.multiply(taper, np.cos(angles)[turns], out=even[:, : bins.size])
    even -= even.mean(axis=0)
    np.multiply(taper, np.sin(angles)[turns], out=odd[:, : bins.size])
    return _constant(even), _constant(odd)


# The bins rating reads, in the columns of _EVEN and _ODD: the fit bins, then the BAND bins.
_FIT_COLUMNS = slice(0, _FIT_BINS.size)
_BAND_COLUMNS = slice(_FIT_BINS.size, _FIT_BINS.size + BAND.stop - BAND.start)
_EVEN, _ODD = _basis(np.concatenate([_FIT_BINS, np.arange(BAND.start, BAND.stop)]))


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


def _spectra(x: np.ndarray, basis) -> np.ndarray:
    """Tapered, zero-padded power spectra of the WINDOW_SAMPLES-long rows of x, one bin per basis column.

    ``basis`` is an (even, odd) pair from :func:`_basis`. A constant row has
    exactly zero power: the basis's column means leave rounding residue that
    the scale-free noise index could pick up.
    """
    even, odd = basis
    half = WINDOW_SAMPLES // 2
    head, tail = x[..., :half], x[..., : half - 1 : -1]
    P = ((head + tail) @ even) ** 2 + ((head - tail) @ odd) ** 2
    P[np.ptp(x, axis=-1) == 0] = 0.0
    return P


def fit_power_law(P: np.ndarray):
    """Least-squares line log P = k + a*log f over the fit bands.

    The last axis of ``P`` holds the grid's fit bins, the bins in
    FIT_BANDS_BPM, in grid order. Only bins with positive power count: with
    weights w = (P > 0) and d = log f minus its mean over the fit bins, the
    line comes in closed form
    from the sums of w, w*d, w*d**2, w*log P and w*log P*d, the same for
    every row whatever its mask. Returns (a, k, degenerate); a row with fewer
    than MIN_FIT_BINS usable bins is degenerate and gets a = 0, k = -inf,
    i.e. a zero power law.
    """
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
    for block in np.array_split(rated, max(1, -(-rated.size // BATCH_ROWS))):
        samples = i0[block, None] + np.arange(WINDOW_SAMPLES)
        for column, values in enumerate(rivs.values):
            P = _spectra(values[samples], (_EVEN, _ODD))
            a, k, degenerate = fit_power_law(P[:, _FIT_COLUMNS])
            residual = P[:, _BAND_COLUMNS] - _power_law(a, k, BAND)  # the background only where rates are read
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
    P = _spectra(rivs.values[column, i0 : i0 + WINDOW_SAMPLES], _basis(np.arange(FREQS.size)))[: FREQS.size]
    a, k, _ = fit_power_law(P[_FIT_BINS])
    P_fit = np.zeros_like(P)
    P_fit[1:] = _power_law(a, k, slice(1, None))
    return FREQS, P, P_fit
