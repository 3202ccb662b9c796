import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcif import T_GRID_DEFAULT
from rrcif.errors import EmptyFusionError
from rrcif.fusion import (
    COVARIANCE_FLOOR,
    SF3,
    SF5,
    cif,
    smart_fusion,
)
from rrcif.riv import ALL_KINDS, RivKind
from rrcif.spectral import BAND, FREQS


def solve_weights(covs):
    """Numeric oracle: solve w_i*C_i = lam, sum(w) = 1 as a linear system."""
    n = len(covs)
    A = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    for i, c in enumerate(covs):
        A[i, i] = c
        A[i, n] = -1.0
    A[n, :n] = 1.0
    b[n] = 1.0
    return np.linalg.solve(A, b)[:n]


def fuse_direct(xs, covs):
    """Numeric oracle: evaluate the information-space combination directly."""
    w = solve_weights(covs)
    c_inv = np.sum(w / covs)
    x = np.sum(w * np.asarray(xs) / covs) / c_inv
    return x, 1.0 / c_inv


def fuse_pairs(pairs):
    """(x_fusion, c_fusion) of one row of (rate, noise index) pairs, ungated."""
    result = cif([p[0] for p in pairs], [p[1] for p in pairs], 0.0)
    return float(result.rr_fusion), float(result.c_fusion)


def kinds(mask):
    return {kind for kind, used in zip(ALL_KINDS, mask) if used}


# ---------------------------------------------------------------------------
# cif on one row of pairs


def test_fuse_identity():
    x, c = fuse_pairs([(12.0, 0.5)])
    assert x == pytest.approx(12.0)
    assert c == pytest.approx(0.5)


def test_fuse_symmetric_mean():
    x, _ = fuse_pairs([(10.0, 0.5), (20.0, 0.5)])
    assert x == pytest.approx(15.0)


def test_fuse_hand_example():
    # C = (0.2, 0.4): x = (10/0.04 + 20/0.16) / (1/0.04 + 1/0.16) = 12
    x, c = fuse_pairs([(10.0, 0.8), (20.0, 0.6)])
    assert x == pytest.approx(12.0, rel=1e-12)
    x_direct, c_direct = fuse_direct([10.0, 20.0], [0.2, 0.4])
    assert x == pytest.approx(x_direct, rel=1e-12)
    assert c == pytest.approx(c_direct, rel=1e-12)


def test_fuse_matches_inverse_square_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = rng.integers(1, 6)
        xs = rng.uniform(4, 65, n)
        nis = rng.uniform(0, 0.999, n)
        x, _ = fuse_pairs(list(zip(xs, nis)))
        c = np.maximum(1 - nis, COVARIANCE_FLOOR)
        expected = np.sum(xs / c**2) / np.sum(1.0 / c**2)
        assert x == pytest.approx(expected, rel=1e-12)


def test_fuse_empty_error():
    with pytest.raises(EmptyFusionError):
        fuse_pairs([])


def test_cif_over_no_windows():
    # a record with no window: zero rows of five
    fused = cif(np.empty((0, 5)), np.empty((0, 5)), [0.0, 0.13])
    assert fused.rr_fusion.shape == fused.retained.shape == (2, 0)
    assert fused.contributors.shape == (2, 0, 5)


def test_fuse_perfect_ni_uses_floor():
    x, c = fuse_pairs([(18.0, 1.0), (30.0, 0.5)])
    assert x == pytest.approx(18.0, abs=1e-3)  # near-certain estimate dominates
    assert c > 0


def test_fuse_convexity_and_permutation_fuzz():
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = rng.integers(1, 6)
        pairs = list(zip(rng.uniform(4, 65, n), rng.uniform(0, 0.999, n)))
        x, c = fuse_pairs(pairs)
        xs = [p[0] for p in pairs]
        assert min(xs) - 1e-9 <= x <= max(xs) + 1e-9
        order = rng.permutation(n)
        x2, c2 = fuse_pairs([pairs[i] for i in order])
        assert x2 == pytest.approx(x, rel=1e-12)
        assert c2 == pytest.approx(c, rel=1e-12)


def test_fuse_monotone_trust():
    others = [(10.0, 0.5), (30.0, 0.4)]
    target = 25.0
    previous = None
    for ni in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        x, _ = fuse_pairs(others + [(target, ni)])
        if previous is not None:
            assert abs(x - target) <= abs(previous - target) + 1e-12
        previous = x


# ---------------------------------------------------------------------------
# cif on table rows, gated at t


def _window_estimates(nis, rates=None):
    """One window's (rates, noise indices) in ALL_KINDS order."""
    rates = rates or [10.0, 12.0, 14.0, 16.0, 18.0]
    return np.array(rates, dtype=float), np.array(nis, dtype=float)


def _unrated(ests, kind):
    rr, ni = (a.copy() for a in ests)
    rr[ALL_KINDS.index(kind)] = ni[ALL_KINDS.index(kind)] = np.nan
    return rr, ni


def test_fuse_window_contributors():
    rr, ni = _window_estimates([0.5, 0.05, 0.4, 0.01, 0.02])
    result = cif(rr, ni, t=0.13)
    assert result.retained
    assert kinds(result.contributors) == {RivKind.RIIV, RivKind.RIFV}
    # C = (0.5, 0.6): each rate weighs 1/C²
    assert result.rr_fusion == pytest.approx((10.0 / 0.25 + 14.0 / 0.36) / (1 / 0.25 + 1 / 0.36), rel=1e-12)
    assert result.c_fusion == pytest.approx((1 / 0.5 + 1 / 0.6) / (1 / 0.25 + 1 / 0.36), rel=1e-12)


def test_fuse_window_all_low_gives_gap():
    result = cif(*_window_estimates([0.01] * 5), t=0.13)
    assert not result.retained
    assert np.isnan(result.rr_fusion) and not result.contributors.any()


def test_fuse_window_equal_ni_is_mean():
    result = cif(*_window_estimates([0.4] * 5), t=0.13)
    assert result.rr_fusion == pytest.approx(np.mean([10.0, 12.0, 14.0, 16.0, 18.0]))


def test_fuse_window_skips_artifacts():
    ests = _unrated(_window_estimates([0.5] * 5), RivKind.RIFV)
    result = cif(*ests, t=0.13)
    assert RivKind.RIFV not in kinds(result.contributors)
    assert result.retained


def test_fuse_window_retention_monotone_in_t():
    rng = np.random.default_rng(31)
    windows = [_window_estimates(rng.uniform(0, 1, 5), list(rng.uniform(4, 65, 5))) for _ in range(60)]
    previous = None
    for t in np.linspace(0, 1, 21):
        retained = sum(cif(*w, float(t)).retained for w in windows)
        if previous is not None:
            assert retained <= previous
        previous = retained


def test_fuse_window_threshold_error():
    with pytest.raises(ValueError):
        cif(*_window_estimates([0.5] * 5), t=2.0)


def test_gate_boundaries():
    assert cif([20.0], [0.5], 0.13).retained
    low = cif([20.0], [0.12], 0.13)
    assert not low.retained and not low.contributors.any()
    assert cif([20.0], [0.13], 0.13).retained  # equality passes


def test_fused_reasons_name_the_drop_rule():
    assert cif([20.0, 21.0], [0.5, np.nan], 0.13).reason == "none"
    assert cif([20.0, 21.0], [0.12, np.nan], 0.13).reason == "below_t"
    assert cif([np.nan, np.nan], [np.nan, np.nan], 0.0).reason == "unrated"
    rr, _ = _window_estimates([0.9] * 5, [10.0, 12.0, 20.0, 12.0, 12.0])
    assert smart_fusion(rr, SF3).reason == "sd_exceeded"
    assert smart_fusion(rr, SF5).reason == "none"  # sd of all five is 3.9
    rr, _ = _unrated(_window_estimates([0.9] * 5, [12.0] * 5), RivKind.RISV)
    assert smart_fusion(rr, SF3).reason == "none"
    assert smart_fusion(rr, SF5).reason == "member_unrated"


def test_gate_parameter_error():
    with pytest.raises(ValueError):
        cif([20.0], [0.5], 1.5)
    with pytest.raises(ValueError):
        cif([20.0], [0.5], -0.1)
    for ni in (-0.1, 1.1):
        with pytest.raises(ValueError, match="noise indices must lie in"):
            cif([20.0], [ni], 0.13)


def test_threshold_grid_matches_single_calls():
    rng = np.random.default_rng(41)
    rr = rng.uniform(4, 65, (30, 5))
    ni = rng.uniform(0, 1, (30, 5))
    ni[rng.uniform(size=ni.shape) < 0.2] = np.nan
    t_grid = np.linspace(0, 0.3, 31)
    grid = cif(rr, ni, t_grid)
    assert grid.rr_fusion.shape == grid.retained.shape == (31, 30)
    for j, t in enumerate(t_grid):
        single = cif(rr, ni, t)
        np.testing.assert_array_equal(grid.retained[j], single.retained)
        np.testing.assert_array_equal(grid.rr_fusion[j], single.rr_fusion)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(4.0, 65.0), st.one_of(st.floats(0.0, 1.0), st.just(float("nan")))),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_cif_kernel_properties(pairs, thresholds):
    rr = np.array([p[0] for p in pairs])
    ni = np.array([p[1] for p in pairs])
    t_grid = np.sort(thresholds)
    result = cif(rr, ni, t_grid)
    for j in range(t_grid.size):
        used = result.contributors[j]
        assert result.retained[j] == used.any()
        if used.any():
            assert rr[used].min() - 1e-9 <= result.rr_fusion[j] <= rr[used].max() + 1e-9
        else:
            assert np.isnan(result.rr_fusion[j])
    # retention never rises with t
    assert np.all(np.diff(result.retained.astype(int)) <= 0)
    # equal noise indices give the plain mean
    equal = cif(rr, np.full(rr.size, thresholds[0]), thresholds[0])
    assert equal.rr_fusion == pytest.approx(np.mean(rr), rel=1e-12)


@st.composite
def _estimate_tables(draw):
    """(rr, ni) of a table of 1-12 windows; NaN in both marks an unrated pair."""
    n = draw(st.integers(1, 12))
    rr = np.array(draw(st.lists(st.floats(4.0, 65.0), min_size=5 * n, max_size=5 * n))).reshape(n, 5)
    nis = st.one_of(st.floats(0.0, 1.0), st.just(float("nan")))
    ni = np.array(draw(st.lists(nis, min_size=5 * n, max_size=5 * n))).reshape(n, 5)
    rr[np.isnan(ni)] = np.nan
    return rr, ni


@settings(max_examples=200, deadline=None)
@given(_estimate_tables(), st.floats(0.0, 1.0))
def test_cif_rate_within_contributors_range(table, t):
    rr, ni = table
    result = cif(rr, ni, t)
    assert np.array_equal(result.retained, result.contributors.any(axis=-1))
    for window in np.flatnonzero(result.retained):
        rates = rr[window, result.contributors[window]]
        assert rates.min() - 1e-9 <= result.rr_fusion[window] <= rates.max() + 1e-9


@settings(max_examples=200, deadline=None)
@given(_estimate_tables(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=10))
def test_cif_retained_count_never_rises_with_t(table, thresholds):
    rr, ni = table
    result = cif(rr, ni, np.sort(thresholds))
    # per window: the contributors to each row of the table, then whether it is retained at all
    assert np.all(np.diff(result.contributors.sum(axis=-1), axis=0) <= 0)
    assert np.all(np.diff(result.retained.astype(int), axis=0) <= 0)


def _assert_one_reason_per_drop(result, drop_reasons):
    """`retained` holds exactly where the reason is "none", every dropped window
    has one of `drop_reasons`, and their counts sum to the dropped windows."""
    reason = result.reason
    assert reason.shape == result.rr_fusion.shape
    assert np.array_equal(result.retained, reason == "none")
    assert np.array_equal(result.retained, ~np.isnan(result.rr_fusion))
    dropped = np.count_nonzero(~result.retained)
    assert sum(np.count_nonzero(reason == r) for r in drop_reasons) == dropped


@settings(max_examples=200, deadline=None)
@given(_estimate_tables())
def test_cif_reasons_on_the_sweep_grid(table):
    rr, ni = table
    result = cif(rr, ni, T_GRID_DEFAULT)
    assert result.reason.shape == (len(T_GRID_DEFAULT), rr.shape[0])
    _assert_one_reason_per_drop(result, ("below_t", "unrated"))
    # below_t only where some NI is finite; unrated exactly where none is
    some_finite = np.broadcast_to(np.isfinite(ni).any(axis=-1), result.reason.shape)
    assert not np.any((result.reason == "below_t") & ~some_finite)
    assert np.array_equal(result.reason == "unrated", ~some_finite)


@settings(max_examples=200, deadline=None)
@given(_estimate_tables(), st.sampled_from([SF3, SF5]))
def test_sf_reasons(table, members):
    rr, _ = table
    result = smart_fusion(rr, members)
    _assert_one_reason_per_drop(result, ("member_unrated", "sd_exceeded"))
    complete = np.isfinite(rr[:, [kind in members for kind in ALL_KINDS]]).all(axis=-1)
    assert np.array_equal(result.reason == "member_unrated", ~complete)


@st.composite
def _agreeing_tables(draw):
    """(rate, rr, ni, t) of 1-12 windows whose pairs at NI >= t all share `rate`.

    `rate` is any rate in [4, 65] or a bin a spectrum can peak at; every window
    has at least one such pair, and its other pairs are gated out (NI < t, any
    rate) or unrated (NaN in both).
    """
    rate = draw(st.one_of(st.floats(4.0, 65.0), st.sampled_from(FREQS[BAND].tolist())))
    t = draw(st.sampled_from(T_GRID_DEFAULT))
    n = draw(st.integers(1, 12))
    states = ["agree", "unrated"] + (["gated"] if t > 0 else [])
    rr = np.empty((n, 5))
    ni = np.empty((n, 5))
    for window in range(n):
        row = draw(st.lists(st.sampled_from(states), min_size=5, max_size=5).filter(lambda r: "agree" in r))
        for j, state in enumerate(row):
            if state == "agree":
                rr[window, j], ni[window, j] = rate, draw(st.floats(t, 1.0))
            elif state == "gated":
                rr[window, j] = draw(st.floats(4.0, 65.0))
                ni[window, j] = draw(st.floats(0.0, t, exclude_max=True))
            else:
                rr[window, j] = ni[window, j] = np.nan
    return rate, rr, ni, t


@settings(max_examples=200, deadline=None)
@given(_agreeing_tables())
def test_cif_agreeing_contributors_fuse_to_their_rate_exactly(table):
    rate, rr, ni, t = table
    single = cif(rr, ni, t)
    assert single.retained.all()
    assert np.all(single.rr_fusion == rate)
    # on the sweep grid, every retained window whose contributors share the rate gives it exactly
    grid = cif(rr, ni, T_GRID_DEFAULT)
    agreeing = grid.retained & ~(grid.contributors & (rr != rate)).any(axis=-1)
    assert agreeing[T_GRID_DEFAULT.index(t)].all()
    assert np.all(grid.rr_fusion[agreeing] == rate)


# ---------------------------------------------------------------------------
# smart fusion


def test_sf3_mean():
    rr, _ = _window_estimates([0.9, 0.9, 0.9, 0.9, 0.9], [10.0, 11.0, 12.0, 50.0, 60.0])
    result = smart_fusion(rr, SF3)
    assert result.retained
    assert result.rr_fusion == pytest.approx(11.0)
    assert kinds(result.contributors) == {RivKind.RIIV, RivKind.RIAV, RivKind.RIFV}


def test_sf3_discards_on_disagreement():
    # sd of (10, 12, 20) = sqrt(28) ~ 5.29 > 4
    rr, _ = _window_estimates([0.9] * 5, [10.0, 12.0, 20.0, 12.0, 12.0])
    assert np.std([10.0, 12.0, 20.0], ddof=1) == pytest.approx(np.sqrt(28.0))
    assert not smart_fusion(rr, SF3).retained


def test_sf_boundary_sd_exactly_4_kept():
    rates = [10.0, 14.0, 18.0, 14.0, 14.0]
    assert np.std(rates[:3], ddof=1) == pytest.approx(4.0)  # boundary: not > 4
    rr, _ = _window_estimates([0.9] * 5, rates)
    assert smart_fusion(rr, SF3).retained


def test_sf5_artifact_skip_discards():
    rr, _ = _unrated(_window_estimates([0.9] * 5, [12.0] * 5), RivKind.RISV)
    assert not smart_fusion(rr, SF5).retained
    # SF3 does not use RISV, so it keeps the window
    assert smart_fusion(rr, SF3).retained


def test_sf_missing_kind_discards():
    rr = np.array([12.0, 12.0, np.nan, np.nan, np.nan])  # only RIIV and RIAV rated
    assert not smart_fusion(rr, SF3).retained


def test_sf_ignores_noise_index():
    rr, _ = _window_estimates([0.0] * 5, [12.0, 12.5, 13.0, 12.0, 12.5])
    assert smart_fusion(rr, SF5).retained
