import numpy as np
import pytest

from rrcif import spectral
from rrcif.errors import BoundsError
from rrcif.fusion import cif
from rrcif.riv import RivKind, RivSeries
from rrcif.spectral import (
    FIT_BANDS_BPM,
    MIN_FIT_BINS,
    NFFT,
    PowerSpectrum,
    WindowGrid,
    estimate_rr,
    fit_power_law,
    rate_windows,
    window_spectrum,
)


def _series(values, t0=0.0, mask=None):
    values = np.asarray(values, dtype=float)
    mask = np.zeros(values.size, dtype=bool) if mask is None else mask
    return RivSeries(kind=RivKind.RIIV, t0=t0, values=values, artifact_mask=mask)


def _tone_series(f_hz, duration=64.0, amp=0.1, offset=1.0):
    t = np.arange(0.0, duration, 0.2)
    return _series(offset + amp * np.sin(2 * np.pi * f_hz * t)), t


def _grid_freqs():
    return np.fft.rfftfreq(NFFT, d=0.2) * 60.0


# ---------------------------------------------------------------------------
# window grid


@pytest.mark.parametrize(
    "duration,count",
    [(480.0, 225), (32.0, 1), (31.9, 0), (34.0, 2), (90.0, 30), (33.9, 1)],
)
def test_window_count_law(duration, count):
    assert WindowGrid(duration_s=duration).count == count
    assert len(WindowGrid(duration_s=duration).windows) == count


def test_window_geometry():
    grid = WindowGrid(duration_s=480.0)
    assert grid.windows[0] == (0.0, 32.0)
    assert grid.windows[1] == (2.0, 34.0)
    assert grid.windows[-1][1] <= 480.0 + 1e-9


# ---------------------------------------------------------------------------
# window_spectrum


def test_tone_peak_position():
    series, _ = _tone_series(1.0 / 3.0)
    spectrum = window_spectrum(series, (0.0, 32.0))
    peak = spectrum.freqs[np.argmax(spectrum.P)]
    assert peak == pytest.approx(20.0, abs=0.1)


def test_window_uses_160_samples():
    series, _ = _tone_series(0.3)
    spectrum = window_spectrum(series, (0.0, 32.0))
    assert spectrum.n_window == 160
    assert spectrum.freqs.size == NFFT // 2 + 1


def test_constant_series_no_power():
    spectrum = window_spectrum(_series(np.full(200, 4.2)), (0.0, 32.0))
    nonzero = spectrum.freqs > 0
    assert np.max(spectrum.P[nonzero]) < 1e-18


def test_artifact_skip():
    mask = np.zeros(200, dtype=bool)
    mask[50] = True
    assert window_spectrum(_series(np.ones(200), mask=mask), (0.0, 32.0)) is None


def test_window_out_of_range():
    series = _series(np.ones(200), t0=1.0)
    with pytest.raises(BoundsError):
        window_spectrum(series, (0.0, 32.0))
    with pytest.raises(BoundsError):
        window_spectrum(series, (20.0, 52.0))


# ---------------------------------------------------------------------------
# fit_power_law


def _spectrum_from_power(P):
    f = _grid_freqs()
    return PowerSpectrum(freqs=f, P=np.asarray(P, dtype=float), n_window=160)


def test_fit_exact_inverse_square():
    f = _grid_freqs()
    P = np.zeros_like(f)
    P[1:] = f[1:] ** -2.0
    fitted = fit_power_law(_spectrum_from_power(P))
    assert fitted.a == pytest.approx(-2.0, abs=1e-6)
    assert fitted.k == pytest.approx(0.0, abs=1e-6)
    bands = ((f >= 2) & (f <= 4)) | ((f >= 65) & (f <= 100))
    np.testing.assert_allclose(fitted.P_out[bands], 0.0, atol=1e-9)


def test_fit_flat_spectrum():
    fitted = fit_power_law(_spectrum_from_power(np.full(_grid_freqs().size, 3.0)))
    assert fitted.a == pytest.approx(0.0, abs=1e-9)
    assert fitted.k == pytest.approx(np.log(3.0), abs=1e-9)


def test_fit_leaves_in_band_spike():
    f = _grid_freqs()
    P = np.zeros_like(f)
    P[1:] = f[1:] ** -2.0
    spike = int(np.argmin(np.abs(f - 20.0)))
    P[spike] += 7.0
    fitted = fit_power_law(_spectrum_from_power(P))
    residual = np.abs(fitted.P_out.copy())
    assert fitted.P_out[spike] == pytest.approx(7.0, rel=1e-6)
    residual[spike] = 0.0
    assert residual.max() < 1e-6 * 7.0


def test_fit_degenerate_fallback():
    fitted = fit_power_law(_spectrum_from_power(np.zeros(_grid_freqs().size)))
    assert fitted.fit_degenerate
    np.testing.assert_array_equal(fitted.P_fit, 0.0)
    np.testing.assert_array_equal(fitted.P_out, fitted.P)


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

    fitted = fit_power_law(_spectrum_from_power(P))
    assert not fitted.fit_degenerate
    assert fitted.a == pytest.approx(a_want, rel=1e-9)
    assert fitted.k == pytest.approx(k_want, rel=1e-9)
    np.testing.assert_allclose(fitted.P_fit[1:], np.exp(k_want) * f[1:] ** a_want, rtol=1e-9)
    assert fitted.P_fit[0] == 0.0

    # one row of a batch, next to an unmasked row, as rate_windows fits it
    f_batch = f[f <= FIT_BANDS_BPM[-1][1]]
    unmasked = np.zeros_like(f_batch)
    unmasked[1:] = 2.0 / f_batch[1:]
    a, k, degenerate = spectral._fit(f_batch, np.stack([unmasked, P[: f_batch.size]]))
    assert not degenerate.any()
    assert a[1] == pytest.approx(a_want, rel=1e-9) and k[1] == pytest.approx(k_want, rel=1e-9)
    assert a[0] == pytest.approx(-1.0, rel=1e-9) and k[0] == pytest.approx(np.log(2.0), rel=1e-9)


def test_p_out_identity():
    series, _ = _tone_series(0.25)
    fitted = fit_power_law(window_spectrum(series, (0.0, 32.0)))
    np.testing.assert_allclose(fitted.P_out, fitted.P - fitted.P_fit, rtol=1e-12)


# ---------------------------------------------------------------------------
# estimate_rr / noise index


def test_uniform_residual_noise_index():
    f = _grid_freqs()
    band = (f >= 4.0) & (f <= 65.0)
    P_out = np.where(band, 2.5, 0.0)
    ps = PowerSpectrum(freqs=f, P=np.abs(P_out), n_window=160, P_fit=np.zeros_like(f), P_out=P_out)
    rr, ni = estimate_rr(ps)
    native_bins_in_band = band.sum() * 160 / NFFT  # in-band width in native-resolution bins
    assert ni == pytest.approx(1.0 / native_bins_in_band, rel=1e-12)


def test_single_bin_noise_index_is_one():
    f = _grid_freqs()
    P_out = np.zeros_like(f)
    target = int(np.argmin(np.abs(f - 23.0)))
    P_out[target] = 5.0
    ps = PowerSpectrum(freqs=f, P=np.abs(P_out), n_window=160, P_fit=np.zeros_like(f), P_out=P_out)
    rr, ni = estimate_rr(ps)
    assert ni == 1.0
    assert rr == pytest.approx(23.0, abs=0.05)


def test_all_nonpositive_residual_gives_zero_ni():
    f = _grid_freqs()
    ps = PowerSpectrum(freqs=f, P=np.zeros_like(f), n_window=160, P_fit=np.zeros_like(f), P_out=np.full_like(f, -1.0))
    _, ni = estimate_rr(ps)
    assert ni == 0.0


def test_peak_localization_across_band():
    for f0_bpm in (5.0, 9.0, 14.5, 20.0, 33.3, 47.0, 60.0):
        series, _ = _tone_series(f0_bpm / 60.0)
        rr, _ = estimate_rr(fit_power_law(window_spectrum(series, (0.0, 32.0))))
        assert abs(rr - f0_bpm) <= 0.5


def test_scale_invariance():
    series, _ = _tone_series(0.3, amp=0.07)
    base = estimate_rr(fit_power_law(window_spectrum(series, (0.0, 32.0))))
    scaled_series = _series(series.values * 137.0)
    scaled = estimate_rr(fit_power_law(window_spectrum(scaled_series, (0.0, 32.0))))
    assert scaled[0] == base[0]
    assert scaled[1] == pytest.approx(base[1], rel=1e-9)


def test_ni_in_unit_interval_fuzz():
    rng = np.random.default_rng(99)
    f = _grid_freqs()
    for _ in range(50):
        P = rng.exponential(1.0, f.size)
        fitted = fit_power_law(PowerSpectrum(freqs=f, P=P, n_window=160))
        rr, ni = estimate_rr(fitted)
        assert 0.0 <= ni <= 1.0
        assert 4.0 <= rr <= 65.0


# ---------------------------------------------------------------------------
# rate_windows: the batch over every window of a series


def test_batch_matches_single_window():
    rng = np.random.default_rng(4)
    t = np.arange(0.0, 90.0, 0.2)
    series = _series(1.0 + 0.1 * np.sin(2 * np.pi * 0.3 * t) + 0.02 * rng.standard_normal(t.size))
    grid = WindowGrid(duration_s=90.0)
    rr, ni, reason = rate_windows(series, grid)
    assert (reason == "none").all()
    for i, window in enumerate(grid.windows):
        single = estimate_rr(fit_power_law(window_spectrum(series, window)))
        assert rr[i] == single[0]
        assert ni[i] == pytest.approx(single[1], abs=1e-12)


def test_batch_reasons():
    mask = np.zeros(450, dtype=bool)
    mask[300] = True  # t = 61 s, on a 1 s grid offset
    series, _ = _tone_series(0.3, duration=90.0)
    series = _series(series.values, t0=1.0, mask=mask)
    grid = WindowGrid(duration_s=90.0)
    rr, ni, reason = rate_windows(series, grid)
    assert reason[0] == "out_of_range"  # starts before the series does
    touched = [i for i, (start, end) in enumerate(grid.windows) if start <= 61.0 < end]
    assert touched and (reason[touched] == "artifact").all()
    unrated = reason != "none"
    assert np.isnan(rr[unrated]).all() and np.isnan(ni[unrated]).all()
    assert np.isfinite(rr[~unrated]).all() and np.isfinite(ni[~unrated]).all()


def test_constant_window_is_fit_degenerate():
    values = np.concatenate([np.full(160, 4.2), 1.0 + 0.1 * np.sin(2 * np.pi * 0.3 * np.arange(160, 400) * 0.2)])
    rr, ni, reason = rate_windows(_series(values), WindowGrid(duration_s=80.0))
    assert reason[0] == "fit_degenerate"
    assert np.isnan(rr[0]) and np.isnan(ni[0])
    assert reason[-1] == "none" and rr[-1] == pytest.approx(18.0, abs=0.5)

    # fused with four rated variations, CIF leaves the degenerate one out even at t = 0
    tone, _ = _tone_series(0.3, duration=80.0)
    good_rr, good_ni, _ = rate_windows(tone, WindowGrid(duration_s=80.0))
    table_rr = np.column_stack([rr] + [good_rr] * 4)
    table_ni = np.column_stack([ni] + [good_ni] * 4)
    fused = cif(table_rr, table_ni, 0.0)
    assert fused.retained[0] and not fused.contributors[0, 0]
    assert fused.rr_fusion[0] == pytest.approx(good_rr[0])


def test_single_bin_spectrum_is_fit_degenerate():
    f = _grid_freqs()
    P = np.zeros_like(f)
    P[int(np.argmin(np.abs(f - 80.0)))] = 5.0  # one positive bin inside a fit band
    assert fit_power_law(_spectrum_from_power(P)).fit_degenerate


def test_empty_grid():
    rr, ni, reason = rate_windows(_series(np.ones(100)), WindowGrid(duration_s=20.0))
    assert rr.shape == ni.shape == reason.shape == (0,)
