import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcif import spectral
from rrcif.errors import RrcifError
from rrcif.fusion import cif
from rrcif.riv import ALL_KINDS, RivKind, RivTable
from rrcif.spectral import (
    BAND,
    FIT_BANDS_BPM,
    FREQS,
    MIN_FIT_BINS,
    NFFT,
    REASONS,
    WINDOW_S,
    WINDOW_SAMPLES,
    EstimateTable,
    fit_power_law,
    rate_windows,
    window_spectrum,
    window_starts,
)


def _table(values, t0=0.0, mask=None):
    """A table whose five rows all hold `values`."""
    values = np.asarray(values, dtype=float)
    mask = np.zeros(values.size, dtype=bool) if mask is None else mask
    return RivTable(t0=t0, values=np.tile(values, (len(ALL_KINDS), 1)), artifact=mask)


def _rate(rivs, duration):
    """(rr, ni, reason) of the first variation, after checking that the five equal rows rate alike."""
    table = rate_windows(rivs, duration)
    assert isinstance(table, EstimateTable)
    np.testing.assert_array_equal(table.start_s, window_starts(duration))
    assert table.rr.shape == table.ni.shape == table.reason.shape == (table.start_s.size, len(ALL_KINDS))
    for column in range(1, len(ALL_KINDS)):
        np.testing.assert_array_equal(table.rr[:, column], table.rr[:, 0])
        np.testing.assert_array_equal(table.ni[:, column], table.ni[:, 0])
        np.testing.assert_array_equal(table.reason[:, column], table.reason[:, 0])
    return table.rr[:, 0], table.ni[:, 0], table.reason[:, 0]


def _tone_table(f_hz, duration=64.0, amp=0.1, offset=1.0):
    t = np.arange(0.0, duration, 0.2)
    return _table(offset + amp * np.sin(2 * np.pi * f_hz * t)), t


def _grid_freqs():
    return np.fft.rfftfreq(NFFT, d=0.2) * 60.0


def _oracle(x):
    """The spectrum by definition: |rfft((x - mean) * hamming, NFFT)|**2 of each row, on the full grid."""
    x = np.asarray(x, dtype=float)
    return np.abs(np.fft.rfft((x - x.mean(axis=-1, keepdims=True)) * np.hamming(x.shape[-1]), NFFT, axis=-1)) ** 2


def _rated_bins():
    """The grid bins behind the columns of spectral._EVEN and _ODD, in column order."""
    return np.concatenate([spectral._FIT_BINS, np.arange(BAND.start, BAND.stop)])


def _first_window(series):
    """window_spectrum of the first 32 s window of RIIV."""
    return window_spectrum(series, rate_windows(series, 32.0), 0, RivKind.RIIV)


def _first_rate(series):
    """(rr, ni) of the first 32 s window, as rate_windows rates it."""
    rr, ni, reason = _rate(series, 32.0)
    assert reason[0] == "none"
    return rr[0], ni[0]


def _fitted(P):
    """(a, k, degenerate, P_fit, P_out) of one spectrum on the padded 5 Hz grid, P_fit = 0 at f = 0."""
    P = np.asarray(P, dtype=float)
    a, k, degenerate = fit_power_law(P[spectral._FIT_BINS])
    P_fit = np.zeros_like(P)
    P_fit[1:] = spectral._power_law(a, k, slice(1, None))
    return a, k, degenerate, P_fit, P - P_fit


def _rate_ni(P_out):
    """(rr, ni) from a residual on the padded 5 Hz grid of a 160-sample window."""
    return spectral._rate_ni(P_out[BAND])


# ---------------------------------------------------------------------------
# window starts


@pytest.mark.parametrize(
    "duration,count",
    [(480.0, 225), (32.0, 1), (31.9, 0), (34.0, 2), (90.0, 30), (33.9, 1)],
)
def test_window_count_law(duration, count):
    assert window_starts(duration).shape == (count,)


def test_window_geometry():
    starts = window_starts(480.0)
    assert starts.dtype == float
    assert starts[0] == 0.0 and starts[1] == 2.0
    assert starts[-1] + WINDOW_S <= 480.0 + 1e-9


# ---------------------------------------------------------------------------
# the fixed grid


def test_grid_constants_select_their_bins():
    f = _grid_freqs()
    np.testing.assert_array_equal(FREQS, f)
    bins = np.arange(f.size)
    np.testing.assert_array_equal(bins[BAND], np.flatnonzero((f >= 4.0) & (f <= 65.0)))
    np.testing.assert_array_equal(spectral._FIT_BINS, np.flatnonzero(((f >= 2.0) & (f <= 4.0)) | ((f >= 65.0) & (f <= 100.0))))
    rated = _rated_bins()
    np.testing.assert_array_equal(rated[spectral._FIT_COLUMNS], spectral._FIT_BINS)
    np.testing.assert_array_equal(rated[spectral._BAND_COLUMNS], bins[BAND])
    assert spectral._EVEN.shape == spectral._ODD.shape == (WINDOW_SAMPLES // 2, 1344)  # 1338 bins, 6 zero columns
    assert not spectral._EVEN[:, rated.size :].any() and not spectral._ODD[:, rated.size :].any()


def test_fit_alike_on_full_and_rated_grid():
    # window_spectrum fits the fit bins of a full-grid basis, rate_windows the fit columns of the rated
    # basis: the two bases agree bit for bit on every rated bin
    even, odd = spectral._basis(np.arange(FREQS.size))
    rated = _rated_bins()
    np.testing.assert_array_equal(even[:, rated], spectral._EVEN[:, : rated.size])
    np.testing.assert_array_equal(odd[:, rated], spectral._ODD[:, : rated.size])


def test_fold_preconditions():
    # _basis folds sample WINDOW_SAMPLES - 1 - n onto sample n: that needs an even window and a symmetric taper
    assert WINDOW_SAMPLES % 2 == 0
    np.testing.assert_array_equal(spectral._TAPER, spectral._TAPER[::-1])


def test_grid_constants_are_read_only():
    for constant in (FREQS, spectral._TAPER, spectral._FIT_BINS, spectral._FIT_POWERS, spectral._EVEN, spectral._ODD):
        with pytest.raises(ValueError, match="read-only"):
            constant[0] = 1
    freqs, _, _ = _first_window(_tone_table(0.3, duration=32.0)[0])
    with pytest.raises(ValueError, match="read-only"):
        freqs[1] = 0.0


# ---------------------------------------------------------------------------
# window_spectrum


def test_tone_peak_position():
    series, _ = _tone_table(1.0 / 3.0)
    freqs, P, _ = _first_window(series)
    peak = freqs[np.argmax(P)]
    assert peak == pytest.approx(20.0, abs=0.1)


def test_window_uses_160_samples():
    series, _ = _tone_table(0.3, duration=32.0)
    assert series.values.shape == (len(ALL_KINDS), 160)
    freqs, P, P_fit = _first_window(series)
    assert freqs.size == P.size == P_fit.size == NFFT // 2 + 1
    # samples past the 160th do not enter the window
    longer = _table(np.concatenate([series.values[0], np.full(40, 9.0)]))
    np.testing.assert_array_equal(_first_window(longer)[1], P)
    with pytest.raises(RrcifError, match="out_of_range"):
        _first_window(_table(series.values[0, :159]))


def test_constant_series_no_power():
    freqs, P, _ = _first_window(_table(np.full(200, 4.2)))
    nonzero = freqs > 0
    assert np.max(P[nonzero]) < 1e-18


def test_artifact_skip():
    mask = np.zeros(200, dtype=bool)
    mask[50] = True
    with pytest.raises(RrcifError, match=r"^window 0 \[0, 32\) s of RIIV is not rated: artifact$"):
        _first_window(_table(np.ones(200), mask=mask))


def test_window_out_of_range():
    series = _table(np.ones(200), t0=1.0)
    table = rate_windows(series, 52.0)
    with pytest.raises(RrcifError, match=r"^window 0 \[0, 32\) s of RIIV is not rated: out_of_range$"):
        window_spectrum(series, table, 0, RivKind.RIIV)
    with pytest.raises(RrcifError, match=r"^window 10 \[20, 52\) s of RISV is not rated: out_of_range$"):
        window_spectrum(series, table, 10, RivKind.RISV)


@pytest.mark.parametrize("index", [-1, 45, 99])
def test_window_index_outside_table(index):
    series, _ = _tone_table(0.3, duration=120.0)
    table = rate_windows(series, 120.0)
    assert table.start_s.size == 45
    with pytest.raises(RrcifError, match=rf"^window {index} does not exist \(valid windows: 0\.\.44\)$"):
        window_spectrum(series, table, index, RivKind.RIAV)


def test_window_index_in_empty_table():
    series = _table(np.ones(100))
    table = rate_windows(series, 20.0)
    with pytest.raises(RrcifError, match=r"^window 0 does not exist \(valid windows: none, the record is shorter than 32 s\)$"):
        window_spectrum(series, table, 0, RivKind.RIIV)


# ---------------------------------------------------------------------------
# fit_power_law


def test_fit_exact_inverse_square():
    f = _grid_freqs()
    P = np.zeros_like(f)
    P[1:] = f[1:] ** -2.0
    a, k, _, _, P_out = _fitted(P)
    assert a == pytest.approx(-2.0, abs=1e-6)
    assert k == pytest.approx(0.0, abs=1e-6)
    bands = ((f >= 2) & (f <= 4)) | ((f >= 65) & (f <= 100))
    np.testing.assert_allclose(P_out[bands], 0.0, atol=1e-9)


def test_fit_flat_spectrum():
    a, k, *_ = _fitted(np.full(_grid_freqs().size, 3.0))
    assert a == pytest.approx(0.0, abs=1e-9)
    assert k == pytest.approx(np.log(3.0), abs=1e-9)


def test_fit_leaves_in_band_spike():
    f = _grid_freqs()
    P = np.zeros_like(f)
    P[1:] = f[1:] ** -2.0
    spike = int(np.argmin(np.abs(f - 20.0)))
    P[spike] += 7.0
    P_out = _fitted(P)[4]
    residual = np.abs(P_out.copy())
    assert P_out[spike] == pytest.approx(7.0, rel=1e-6)
    residual[spike] = 0.0
    assert residual.max() < 1e-6 * 7.0


def test_fit_degenerate_fallback():
    P = np.zeros(_grid_freqs().size)
    _, _, degenerate, P_fit, P_out = _fitted(P)
    assert degenerate
    np.testing.assert_array_equal(P_fit, 0.0)
    np.testing.assert_array_equal(P_out, P)


def test_fit_partially_masked_matches_polyfit():
    f = _grid_freqs()
    rng = np.random.default_rng(8)
    P = np.zeros_like(f)
    P[1:] = np.exp(1.3 - 1.7 * np.log(f[1:]) + 0.3 * rng.standard_normal(f.size - 1))
    fit_bins = np.flatnonzero(((f >= 2) & (f <= 4)) | ((f >= 65) & (f <= 100)))
    P[fit_bins[::3]] = 0.0  # a third of the fit bins carry no power
    P[fit_bins[5:20]] = 0.0  # and most of the 2-4 bpm band
    usable = fit_bins[P[fit_bins] > 0]
    assert MIN_FIT_BINS <= usable.size < fit_bins.size
    a_want, k_want = np.polyfit(np.log(f[usable]), np.log(P[usable]), 1)

    a, k, degenerate, P_fit, _ = _fitted(P)
    assert not degenerate
    assert a == pytest.approx(a_want, rel=1e-9)
    assert k == pytest.approx(k_want, rel=1e-9)
    np.testing.assert_allclose(P_fit[1:], np.exp(k_want) * f[1:] ** a_want, rtol=1e-9)
    assert P_fit[0] == 0.0

    # one row of a batch, next to an unmasked row, as rate_windows fits it
    f_batch = f[f <= FIT_BANDS_BPM[-1][1]]
    unmasked = np.zeros_like(f_batch)
    unmasked[1:] = 2.0 / f_batch[1:]
    a, k, degenerate = fit_power_law(np.stack([unmasked, P[: f_batch.size]])[:, spectral._FIT_BINS])
    assert not degenerate.any()
    assert a[1] == pytest.approx(a_want, rel=1e-9) and k[1] == pytest.approx(k_want, rel=1e-9)
    assert a[0] == pytest.approx(-1.0, rel=1e-9) and k[0] == pytest.approx(np.log(2.0), rel=1e-9)


def test_p_out_identity():
    # the residual P - P_fit of window_spectrum is the one rate_windows rates
    series, _ = _tone_table(0.25)
    _, P, P_fit = _first_window(series)
    rr, ni = _rate_ni(P - P_fit)
    rr_want, ni_want = _first_rate(series)
    assert rr == rr_want
    assert ni == pytest.approx(ni_want, abs=1e-12)


# ---------------------------------------------------------------------------
# rate and noise index


def test_uniform_residual_noise_index():
    f = _grid_freqs()
    band = (f >= 4.0) & (f <= 65.0)
    rr, ni = _rate_ni(np.where(band, 2.5, 0.0))
    native_bins_in_band = band.sum() * 160 / NFFT  # in-band width in native-resolution bins
    assert ni == pytest.approx(1.0 / native_bins_in_band, rel=1e-12)


def test_single_bin_noise_index_is_one():
    f = _grid_freqs()
    P_out = np.zeros_like(f)
    target = int(np.argmin(np.abs(f - 23.0)))
    P_out[target] = 5.0
    rr, ni = _rate_ni(P_out)
    assert ni == 1.0
    assert rr == pytest.approx(23.0, abs=0.05)


def test_all_nonpositive_residual_gives_zero_ni():
    _, ni = _rate_ni(np.full_like(_grid_freqs(), -1.0))
    assert ni == 0.0


def test_peak_localization_across_band():
    for f0_bpm in (5.0, 9.0, 14.5, 20.0, 33.3, 47.0, 60.0):
        series, _ = _tone_table(f0_bpm / 60.0)
        rr, _ = _first_rate(series)
        assert abs(rr - f0_bpm) <= 0.5


def test_scale_invariance():
    series, _ = _tone_table(0.3, amp=0.07)
    base = _first_rate(series)
    scaled = _first_rate(_table(series.values[0] * 137.0))
    assert scaled[0] == base[0]
    assert scaled[1] == pytest.approx(base[1], rel=1e-9)


def _random_table(seed, n, t0, shapes, artifacts):
    """A table of n samples whose rows follow `shapes`, with artifacts at the given sample indices."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 0.2
    rows = {
        "noise": lambda: rng.standard_normal(n),
        "tone": lambda: np.sin(2 * np.pi * rng.uniform(0.05, 1.1) * t) + 0.3 * rng.standard_normal(n),
        "constant": lambda: np.full(n, rng.uniform(-5.0, 5.0)),
        "spiky": lambda: rng.standard_normal(n) * (rng.uniform(size=n) < 0.05) * 1e3,
    }
    mask = np.zeros(n, dtype=bool)
    mask[[i for i in artifacts if i < n]] = True
    return RivTable(t0=t0, values=np.stack([rows[shape]() for shape in shapes]), artifact=mask)


_SHAPES = st.lists(st.sampled_from(["noise", "tone", "constant", "spiky"]), min_size=5, max_size=5)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 600),
    t0=st.floats(-5.0, 10.0),
    duration=st.floats(0.0, 130.0),
    shapes=_SHAPES,
    artifacts=st.lists(st.integers(0, 599), max_size=4),
)
def test_rate_windows_properties(seed, n, t0, duration, shapes, artifacts):
    table = rate_windows(_random_table(seed, n, t0, shapes, artifacts), duration)
    rr, ni, reason = table.rr, table.ni, table.reason
    np.testing.assert_array_equal(table.start_s, window_starts(duration))
    assert rr.shape == ni.shape == reason.shape == (table.start_s.size, len(ALL_KINDS))
    assert set(reason.ravel()) <= set(REASONS)
    unrated = reason != "none"
    assert np.array_equal(np.isnan(rr), unrated) and np.array_equal(np.isnan(ni), unrated)
    assert np.all((ni[~unrated] >= 0.0) & (ni[~unrated] <= 1.0))
    assert np.all((rr[~unrated] >= 4.0) & (rr[~unrated] <= 65.0))
    # out_of_range and artifact are decided per window, for all five variations at once
    window_level = np.isin(reason, ("out_of_range", "artifact")).any(axis=1)
    assert (reason[window_level] == reason[window_level, :1]).all()


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 500),
    t0=st.floats(-5.0, 10.0),
    duration=st.floats(0.0, 110.0),
    shapes=_SHAPES,
    artifacts=st.lists(st.integers(0, 499), max_size=3),
    order=st.permutations(range(len(ALL_KINDS))),
)
def test_row_permutation_permutes_columns(seed, n, t0, duration, shapes, artifacts, order):
    """Each row is rated on its own: permuting the rows permutes the columns, bit for bit."""
    rivs = _random_table(seed, n, t0, shapes, artifacts)
    table = rate_windows(rivs, duration)
    permuted = rate_windows(RivTable(t0=rivs.t0, values=rivs.values[order], artifact=rivs.artifact), duration)
    for name in ("rr", "ni"):
        want = getattr(table, name)[:, order]
        assert np.array_equal(getattr(permuted, name).view(np.uint64), want.view(np.uint64)), name
    assert np.array_equal(permuted.reason, table.reason[:, order])


# ---------------------------------------------------------------------------
# the kernel against its definition


_FULL_BASIS = spectral._basis(np.arange(FREQS.size))  # the basis window_spectrum builds


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=_SHAPES,
    offset=st.floats(-10.0, 10.0),
    exponents=st.lists(st.integers(-250, 250), min_size=5, max_size=5),
)
def test_kernel_matches_rfft_oracle(seed, shapes, offset, exponents):
    """On every bin it computes, the folded product is |rfft|**2 of the tapered, mean-free, zero-padded window."""
    rows = _random_table(seed, WINDOW_SAMPLES, 0.0, shapes, []).values + offset
    x = rows * 2.0 ** np.array(exponents)[:, None]
    want = _oracle(x)
    rated = _rated_bins()
    constant = np.ptp(x, axis=-1) == 0
    for P, bins in (
        (spectral._spectra(x, (spectral._EVEN, spectral._ODD)), rated),
        (np.stack([spectral._spectra(row, _FULL_BASIS) for row in x]), np.arange(FREQS.size)),
    ):
        assert not P[:, bins.size :].any()  # the zero columns of the basis
        assert not P[constant].any()
        error = np.abs(P[:, : bins.size] - want[:, bins]).max(axis=-1)
        assert (error[~constant] <= 1e-12 * want[~constant].max(axis=-1)).all()


# ---------------------------------------------------------------------------
# rate_windows: the batch over every window of every variation


def test_batch_matches_single_window():
    rng = np.random.default_rng(4)
    t = np.arange(0.0, 90.0, 0.2)
    values = np.stack([
        offset + 0.1 * np.sin(2 * np.pi * f_hz * t) + 0.02 * rng.standard_normal(t.size)
        for offset, f_hz in ((1.0, 0.3), (2.0, 0.2), (0.5, 0.45), (1.0, 0.3), (3.0, 0.12))
    ])
    table = rate_windows(RivTable(t0=0.0, values=values, artifact=np.zeros(t.size, dtype=bool)), 90.0)
    assert (table.reason == "none").all()
    # reference: the kernel steps on every window of each row at once, over the full rfft grid
    starts = np.round(table.start_s / 0.2).astype(int)
    for column, row in enumerate(values):
        P = _oracle(row[starts[:, None] + np.arange(160)])
        a, k, degenerate = fit_power_law(P[:, spectral._FIT_BINS])
        assert not degenerate.any()
        rr_want, ni_want = spectral._rate_ni(P[:, BAND] - spectral._power_law(a, k, BAND))
        np.testing.assert_array_equal(table.rr[:, column], rr_want)
        np.testing.assert_allclose(table.ni[:, column], ni_want, rtol=0, atol=1e-12)


def test_batch_reasons():
    mask = np.zeros(450, dtype=bool)
    mask[300] = True  # t = 61 s, on a 1 s grid offset
    series, _ = _tone_table(0.3, duration=90.0)
    series = _table(series.values[0], t0=1.0, mask=mask)
    rr, ni, reason = _rate(series, 90.0)
    assert reason[0] == "out_of_range"  # starts before the series does
    touched = [i for i, start in enumerate(window_starts(90.0)) if start <= 61.0 < start + WINDOW_S]
    assert touched and (reason[touched] == "artifact").all()
    unrated = reason != "none"
    assert np.isnan(rr[unrated]).all() and np.isnan(ni[unrated]).all()
    assert np.isfinite(rr[~unrated]).all() and np.isfinite(ni[~unrated]).all()


def test_constant_window_is_fit_degenerate():
    tone = 1.0 + 0.1 * np.sin(2 * np.pi * 0.3 * np.arange(400) * 0.2)
    values = np.stack([np.concatenate([np.full(160, 4.2), tone[160:]])] + [tone] * 4)
    table = rate_windows(RivTable(t0=0.0, values=values, artifact=np.zeros(400, dtype=bool)), 80.0)
    rr, ni, reason = table.rr[:, 0], table.ni[:, 0], table.reason[:, 0]
    assert reason[0] == "fit_degenerate"
    assert np.isnan(rr[0]) and np.isnan(ni[0])
    assert reason[-1] == "none" and rr[-1] == pytest.approx(18.0, abs=0.5)
    # the reason is set per (window, variation) pair: the four tone rows rate window 0
    assert (table.reason[0, 1:] == "none").all() and np.isfinite(table.rr[0, 1:]).all()

    # fused with four rated variations, CIF leaves the degenerate one out even at t = 0
    fused = cif(table.rr, table.ni, 0.0)
    assert fused.retained[0] and not fused.contributors[0, 0]
    assert fused.rr_fusion[0] == pytest.approx(table.rr[0, 1])


def test_single_bin_spectrum_is_fit_degenerate():
    f = _grid_freqs()
    P = np.zeros_like(f)
    P[int(np.argmin(np.abs(f - 80.0)))] = 5.0  # one positive bin inside a fit band
    assert _fitted(P)[2]


def test_empty_grid():
    rr, ni, reason = _rate(_table(np.ones(100)), 20.0)
    assert rr.shape == ni.shape == reason.shape == (0,)
