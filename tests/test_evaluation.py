import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from rrcif import DEFAULT_THRESHOLD, METHODS, evaluation
from rrcif.evaluation import (
    _midranks,
    _nan_quartiles,
    agreement,
    reference_at,
    report,
    score,
    sweep,
    wilcoxon_signed_rank,
)
from rrcif.fusion import FusionResult, cif
from rrcif.signal_io import ReferenceRr, _median
from rrcif.spectral import WINDOW_S, EstimateTable, window_starts


def _reference(times, rates):
    return ReferenceRr(np.asarray(times, dtype=float), np.asarray(rates, dtype=float))


def _fusion(rates):
    """One fused value per window; None marks a gap."""
    retained = np.array([rr is not None for rr in rates])
    rr = np.array([np.nan if rr is None else rr for rr in rates])
    return FusionResult(rr_fusion=rr, c_fusion=np.where(retained, 0.5, np.nan),
                        contributors=np.zeros((len(rates), 5), dtype=bool), reason=np.where(retained, "none", "below_t"))


# ---------------------------------------------------------------------------
# reference_at


def test_reference_at_constant():
    ref = _reference(np.arange(0, 480, 2.0), np.full(240, 20.0))
    for start in window_starts(480.0)[:20]:
        assert reference_at(ref, [start])[0] == 20.0


def test_reference_at_symmetric_step():
    # step 15 -> 25 at the window center with symmetric samples
    ref = _reference([2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0],
                     [15.0, 15.0, 15.0, 15.0, 25.0, 25.0, 25.0, 25.0])
    assert reference_at(ref, [0.0])[0] == pytest.approx(20.0)


def test_reference_at_outside_interpolates_center():
    ref = _reference([0.0, 100.0], [10.0, 30.0])
    assert reference_at(ref, [40.0])[0] == pytest.approx(10.0 + 20.0 * 56.0 / 100.0)
    # a window with no sample whose center lies past the last reference time
    # takes the last rate
    ref = _reference([0.0, 2.0, 4.0], [10.0, 11.0, 12.0])
    assert reference_at(ref, [0.0, 100.0, 400.0]).tolist() == [11.0, 12.0, 12.0]
    # and one before the first takes the first rate
    assert reference_at(_reference([100.0, 102.0], [10.0, 11.0]), [0.0]).tolist() == [10.0]


def test_reference_at_no_windows():
    # a record shorter than one window has no window starts
    ref = _reference([0.0, 100.0], [10.0, 30.0])
    assert reference_at(ref, window_starts(20.0)).shape == (0,)


def _reference_at_loop(reference, starts):
    """The window-by-window alignment rule, kept as the oracle for reference_at."""
    rates = []
    for start in starts:
        end = start + WINDOW_S
        inside = (reference.times_s >= start) & (reference.times_s < end)
        if inside.any():
            rates.append(np.mean(reference.rr[inside]))
        else:
            rates.append(np.interp(0.5 * (start + end), reference.times_s, reference.rr))
    return np.array(rates)


@pytest.mark.parametrize(
    "times, starts",
    [
        # windows with no samples: before the first, between two, at a gap
        ([40.0, 41.0, 80.0, 150.0], [0.0, 42.0, 41.5, 8.0, 80.0, 112.5]),
        # tied reference times, also on a window's start and end
        ([0.0, 32.0, 32.0, 32.0, 64.0, 64.0, 96.0], [32.0, 0.0, 64.0, 30.0, 31.5]),
        # windows past the last sample
        ([0.0, 2.0, 4.0], [3.0, 4.0, 4.5, 100.0]),
    ],
    ids=["empty", "tied", "past-end"],
)
def test_reference_at_matches_window_loop(times, starts):
    rates = np.linspace(7.0, 41.0, len(times)) ** 1.1
    ref = _reference(times, rates)
    expected = _reference_at_loop(ref, starts)
    np.testing.assert_allclose(reference_at(ref, starts), expected, rtol=1e-12, atol=0)
    for start, value in zip(starts, expected):
        assert reference_at(ref, [start])[0] == pytest.approx(value, rel=1e-12, abs=0)


def test_reference_at_matches_window_loop_on_grid():
    rng = np.random.default_rng(11)
    times = np.sort(np.round(rng.uniform(0.0, 470.0, 300), 1))  # rounding makes ties
    ref = _reference(times, rng.uniform(0.5, 119.0, times.size))
    starts = window_starts(480.0)
    np.testing.assert_allclose(reference_at(ref, starts), _reference_at_loop(ref, starts), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# score


def test_score_perfect():
    starts = window_starts(480.0)
    ref = _reference(np.arange(0, 481, 2.0), np.full(241, 20.0))
    fusions = _fusion([20.0] * starts.size)
    rmse, retention = score(fusions, reference_at(ref, starts))
    assert rmse == 0.0
    assert retention == 1.0


def test_score_constant_error():
    starts = window_starts(480.0)
    ref = _reference(np.arange(0, 481, 2.0), np.full(241, 20.0))
    fusions = _fusion([22.0] * starts.size)
    assert score(fusions, reference_at(ref, starts))[0] == pytest.approx(2.0)


def test_score_retention_ratio():
    starts = window_starts(480.0)
    assert starts.size == 225
    ref = _reference(np.arange(0, 481, 2.0), np.full(241, 20.0))
    fusions = _fusion([20.0 if i < 90 else None for i in range(starts.size)])
    assert score(fusions, reference_at(ref, starts))[1] == pytest.approx(90 / 225)


def test_score_no_retained_windows():
    starts = window_starts(480.0)
    ref = _reference([0.0, 480.0], [20.0, 20.0])
    rmse, retention = score(_fusion([None] * starts.size), reference_at(ref, starts))
    assert math.isnan(rmse)
    assert retention == 0.0


def test_score_threshold_grid_matches_each_threshold():
    rng = np.random.default_rng(5)
    estimates, ref = _subject(rng.uniform(0, 0.5, (100, 5)), list(rng.uniform(15, 25, 5)), duration=230.0)
    ref_rates = reference_at(ref, estimates.start_s)
    t_grid = np.array([0.0, 0.1, 0.2, 0.3, 0.45, 0.6])
    rmse, retention = score(cif(estimates.rr, estimates.ni, t_grid), ref_rates)
    assert rmse.shape == retention.shape == t_grid.shape
    for i, t in enumerate(t_grid):
        rmse_t, retention_t = score(cif(estimates.rr, estimates.ni, t), ref_rates)
        assert retention[i] == retention_t
        np.testing.assert_allclose(rmse[i], rmse_t, rtol=1e-12)
    assert np.isnan(rmse[-1]) and retention[-1] == 0.0  # no noise index reaches 0.6


# ---------------------------------------------------------------------------
# sweep


def _subject(nis_per_window, rates, duration=480.0, ref_rate=20.0):
    """(EstimateTable, ReferenceRr) of a record rated alike in every window."""
    ni = np.array(nis_per_window, dtype=float)
    rr = np.broadcast_to(np.asarray(rates, dtype=float), ni.shape)
    estimates = EstimateTable(start_s=window_starts(duration), rr=rr, ni=ni, reason=np.full(ni.shape, "none"))
    assert estimates.start_s.size == ni.shape[0]
    ref = _reference(np.arange(0, duration + 1, 2.0), np.full(int(duration // 2) + 1, ref_rate))
    return estimates, ref


def test_sweep_all_valid_retention_one():
    subject = _subject([[0.9] * 5] * 225, [20.0] * 5)
    rows = sweep([subject], t_grid=[0.0])
    assert rows[0].retention_median == 1.0


def test_sweep_single_subject_percentiles_collapse():
    subject = _subject([[0.9] * 5] * 225, [20.0, 21.0, 22.0, 23.0, 24.0])
    rows = sweep([subject], t_grid=[0.0, 0.1])
    for row in rows:
        assert row.rmse_p25 == row.rmse_median == row.rmse_p75


def test_sweep_default_grid_31_points():
    subject = _subject([[0.9] * 5] * 10, [20.0] * 5, duration=50.0)
    rows = sweep([subject])
    assert len(rows) == 31
    assert rows[0].t == 0.0
    assert rows[-1].t == pytest.approx(0.3)


def test_sweep_retention_non_increasing():
    rng = np.random.default_rng(17)
    subjects = [
        _subject(rng.uniform(0, 0.5, (100, 5)), list(rng.uniform(10, 30, 5)), duration=230.0)
        for i in range(4)
    ]
    rows = sweep(subjects)
    retention = [row.retention_median for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(retention, retention[1:]))


def test_sweep_empty_dataset_rejected():
    with pytest.raises(ValueError):
        sweep([])


def test_report_empty_dataset_rejected():
    with pytest.raises(ValueError, match="need at least one subject"):
        report([], ["cif"], 0.13)


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    kept = ~np.isnan(want)
    assert np.array_equal(got[kept].view(np.uint64), want[kept].view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(1, 9).flatmap(
        lambda subjects: st.lists(
            st.lists(st.one_of(st.floats(0.0, 1e6), st.just(math.nan)), min_size=subjects, max_size=subjects),
            min_size=1,
            max_size=4,
        )
    )
)
def test_sweep_statistics_are_numpys(x):
    # sweep's quartiles and medians without np.nanpercentile and np.nanmedian, bit for bit on
    # what an RMSE or a retention can be: NaN, or a float >= 0 that is not -0.0
    x = np.array(x).T  # (subjects, thresholds)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # an all-NaN column or row
        _assert_same_bits(_nan_quartiles(x), np.nanpercentile(x, (25, 75), axis=0))
        _assert_same_bits(_median(x, axis=0), np.nanmedian(x, axis=0))
        _assert_same_bits(_median(x, axis=1), np.nanmedian(x, axis=1))


# ---------------------------------------------------------------------------
# report


def _bonferroni_subjects():
    """Six 50 s subjects (10 windows) at reference rate 20 whose CIF, SF3 and SF5 scores differ.

    Subject i: every rate is 21 + i/2, RIWV and RISV 1 more; CIF gates out the
    first gated[i] windows (subject 5: all of them, so its CIF RMSE is NaN),
    and RIWV is unrated in the first unrated[i] windows, which SF5 drops.
    """
    subjects = []
    for i, (gated, unrated) in enumerate(zip((1, 2, 3, 4, 5, 10), (0, 1, 1, 2, 2, 3))):
        rr = np.full((10, 5), 21.0 + 0.5 * i)
        rr[:, 3:] += 1.0
        ni = np.where(np.arange(10)[:, None] < gated, 0.05, 0.5) * np.ones(5)
        rr[:unrated, 3] = ni[:unrated, 3] = np.nan
        subjects.append(_subject(ni, rr, duration=50.0))
    return subjects


def test_report_bonferroni_counts_the_pairs_tested_per_metric():
    methods = ["cif", "sf3", "sf5"]
    scores, summary = report(_bonferroni_subjects(), methods, 0.13)
    rmse, retention = ({m: scores[m][k] for m in methods} for k in (0, 1))
    assert np.isnan(rmse["cif"][5]) and np.isfinite(rmse["cif"][:5]).all()
    np.testing.assert_array_equal(retention["cif"], [0.9, 0.8, 0.7, 0.6, 0.5, 0.0])
    # rmse: the two CIF pairs are scored jointly on 5 subjects, so only one pair is tested
    p = wilcoxon_signed_rank(rmse["sf3"], rmse["sf5"])
    assert summary["wilcoxon_bonferroni"]["rmse"] == {"sf3_vs_sf5": p}
    # retention: every subject is scored, so all three pairs are tested, and each p is tripled
    raw = {f"{a}_vs_{b}": wilcoxon_signed_rank(retention[a], retention[b]) for a, b in itertools.combinations(methods, 2)}
    assert summary["wilcoxon_bonferroni"]["retention"] == {pair: 3 * q for pair, q in raw.items()}
    assert max(p, *raw.values()) < 1.0 / 3.0  # so a wrong factor would show
    assert summary["methods"]["cif"]["rmse_median"] == float(np.median(rmse["cif"][:5]))
    assert summary["agreement_cif"]["n_pairs"] == 9 + 8 + 7 + 6 + 5


def test_report_defaults_to_every_method_at_the_default_threshold():
    subjects = _bonferroni_subjects()
    scores, summary = report(subjects)
    want_scores, want_summary = report(subjects, METHODS, DEFAULT_THRESHOLD)
    assert list(scores) == list(want_scores) == list(METHODS)
    for method in METHODS:
        np.testing.assert_array_equal(scores[method], want_scores[method])
    assert summary == want_summary


def test_report_and_sweep_align_each_reference_once(monkeypatch):
    aligned, real = [], evaluation.reference_at
    monkeypatch.setattr(evaluation, "reference_at", lambda ref, starts: aligned.append(ref) or real(ref, starts))
    subjects = _bonferroni_subjects()
    report(subjects)
    sweep(subjects)
    assert aligned == [reference for _, reference in subjects] * 2


@pytest.mark.parametrize(
    "subjects",
    [
        # RMSEs 0.4000000000000001 and 2.0: np.median gives 1.2, np.nanpercentile 1.2000000000000002
        [_subject([[0.9] * 5] * 10, [rate] * 5, duration=50.0, ref_rate=0.5) for rate in (0.9, 2.5)],
        _bonferroni_subjects(),  # from t = 0.06 on, the last subject's CIF RMSE is NaN
    ],
)
def test_report_and_sweep_give_the_same_median_rmse(subjects):
    for row in sweep(subjects):
        cif_summary = report(subjects, ["cif"], row.t)[1]["methods"]["cif"]
        assert cif_summary["rmse_median"] == row.rmse_median
        assert cif_summary["retention_median"] == row.retention_median


def test_report_fewer_than_six_subjects_tests_nothing():
    _, summary = report(_bonferroni_subjects()[:5], ["cif", "sf3", "sf5"], 0.13)
    assert summary["wilcoxon_bonferroni"] == {}
    assert summary["subjects"] == 5


# ---------------------------------------------------------------------------
# agreement


def test_agreement_identity():
    pairs = [(float(v), float(v)) for v in (10, 12, 15, 18, 22)]
    stats = agreement(*zip(*pairs))
    assert stats.r == pytest.approx(1.0)
    assert stats.bias == 0.0
    assert stats.loa_low == 0.0 and stats.loa_high == 0.0


def test_agreement_constant_offset():
    pairs = [(v + 2.0, float(v)) for v in (10, 12, 15, 18, 22)]
    stats = agreement(*zip(*pairs))
    assert stats.bias == pytest.approx(2.0)
    assert stats.loa_low == pytest.approx(2.0)
    assert stats.loa_high == pytest.approx(2.0)
    assert stats.r == pytest.approx(1.0)


def test_agreement_textbook_oracle():
    rng = np.random.default_rng(3)
    est = rng.uniform(5, 60, 200)
    ref = est + rng.normal(0, 2, 200)
    stats = agreement(est, ref)
    d = est - ref
    bias = d.mean()
    sd = math.sqrt(np.sum((d - bias) ** 2) / (d.size - 1))
    ex, ey = est - est.mean(), ref - ref.mean()
    r = np.sum(ex * ey) / math.sqrt(np.sum(ex**2) * np.sum(ey**2))
    assert stats.bias == pytest.approx(bias, abs=1e-9)
    assert stats.loa_low == pytest.approx(bias - 1.96 * sd, abs=1e-9)
    assert stats.loa_high == pytest.approx(bias + 1.96 * sd, abs=1e-9)
    assert stats.r == pytest.approx(r, abs=1e-9)
    # Bland-Altman identity
    assert stats.loa_high - stats.loa_low == pytest.approx(2 * 1.96 * sd, abs=1e-9)


def test_agreement_zero_variance_r_undefined():
    stats = agreement([10.0, 10.0, 10.0], [12.0, 13.0, 14.0])
    assert math.isnan(stats.r)
    assert stats.bias == pytest.approx(10.0 - 13.0)


def test_agreement_needs_two_pairs():
    with pytest.raises(ValueError):
        agreement([10.0], [10.0])


def test_agreement_needs_paired_inputs():
    with pytest.raises(ValueError, match="equal-length 1-d"):
        agreement([10.0, 11.0, 12.0], [10.0, 11.0])


# ---------------------------------------------------------------------------
# wilcoxon


def brute_force_wilcoxon(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    sums = []
    for mask in itertools.product((0, 1), repeat=n):
        sums.append(float(np.sum(ranks[np.array(mask, dtype=bool)])))
    sums = np.array(sums)
    p_le = np.mean(sums <= w_obs + 1e-12)
    p_ge = np.mean(sums >= w_obs - 1e-12)
    return min(1.0, 2.0 * min(p_le, p_ge))


def test_wilcoxon_equal_vectors():
    a = np.arange(8, dtype=float)
    assert wilcoxon_signed_rank(a, a) == 1.0


def test_wilcoxon_all_positive_n8():
    a = np.arange(1.0, 9.0)
    assert wilcoxon_signed_rank(a, np.zeros(8)) == pytest.approx(2.0 / 256.0, abs=1e-15)


def test_wilcoxon_matches_brute_force_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(6, 13))
        a = rng.integers(0, 5, n).astype(float)
        b = rng.integers(0, 5, n).astype(float)
        assert wilcoxon_signed_rank(a, b) == pytest.approx(brute_force_wilcoxon(a, b), abs=1e-9)


def test_wilcoxon_symmetry():
    rng = np.random.default_rng(8)
    a = rng.normal(0, 1, 10)
    b = rng.normal(0.5, 1, 10)
    assert wilcoxon_signed_rank(a, b) == pytest.approx(wilcoxon_signed_rank(b, a), abs=1e-12)


def test_wilcoxon_large_n_approximation():
    from scipy.stats import wilcoxon as scipy_wilcoxon

    rng = np.random.default_rng(9)
    a = rng.normal(0, 1, 40)
    b = a + rng.normal(0.3, 1, 40)
    ours = wilcoxon_signed_rank(a, b)
    theirs = scipy_wilcoxon(a, b, correction=True, method="approx").pvalue
    assert ours == pytest.approx(theirs, rel=1e-9)


def test_wilcoxon_one_tie_group_keeps_a_positive_variance():
    # the tie-corrected variance is smallest with all n differences tied, and still n(n+1)^2/16 > 0
    from scipy.stats import wilcoxon as scipy_wilcoxon

    d = np.r_[np.ones(20), -np.ones(10)]
    theirs = scipy_wilcoxon(d, correction=True, method="approx").pvalue
    assert wilcoxon_signed_rank(d, np.zeros(30)) == pytest.approx(theirs, rel=1e-9)


@st.composite
def _tied_floats(draw):
    """1-60 floats drawn from a pool of at most 6 values, so most draws tie."""
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60)))


@settings(max_examples=300, deadline=None)
@given(_tied_floats())
def test_midranks_match_scipy_rankdata(x):
    assert np.array_equal(_midranks(x).view(np.uint64), rankdata(x).view(np.uint64))


_I20, _I25, _I60, _I40 = (np.arange(n, dtype=float) for n in (20, 25, 60, 40))


@pytest.mark.parametrize(
    "a, b, p_hex",
    [
        (_I20 % 6, _I20 * 7 % 5, "0x1.4388000000000p-1"),  # exact, 17 pairs, 5 distinct |d|
        (_I25 * 0.37 % 1.9, _I25 * 0.53 % 2.1, "0x1.2ae8a40000000p-1"),  # exact, 24 pairs, no ties
        (_I60 * 7 % 9, _I60 * 4 % 8 + 0.5, "0x1.69fbf49c6429ep-10"),  # normal, 60 pairs, 8 distinct |d|
        (_I40 * 0.731 % 2.3, _I40 * 0.517 % 2.9, "0x1.118e645925071p-3"),  # normal, 39 pairs, no ties
    ],
)
def test_wilcoxon_p_value_bits_pinned(a, b, p_hex):
    # p-values of the version that ranked with scipy.stats.rankdata
    assert wilcoxon_signed_rank(a, b).hex() == p_hex


def test_wilcoxon_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.ones(8), np.ones(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wilcoxon_rejects_non_finite_differences(bad):
    a = np.arange(30, dtype=float)
    a[3] = bad
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_signed_rank(a, np.zeros(30))
