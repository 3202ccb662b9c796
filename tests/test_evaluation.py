import itertools
import math

import numpy as np
import pytest
from scipy.stats import rankdata

from rrcif.evaluation import (
    agreement,
    reference_at,
    score,
    sweep,
    wilcoxon_signed_rank,
)
from rrcif.fusion import FusionResult, cif
from rrcif.pipeline import RecordAnalysis
from rrcif.signal_io import ReferenceRr
from rrcif.spectral import EstimateTable, WindowGrid


def _reference(times, rates):
    return ReferenceRr(np.asarray(times, dtype=float), np.asarray(rates, dtype=float))


def _fusion(rates):
    """One fused value per window; None marks a gap."""
    retained = np.array([rr is not None for rr in rates])
    rr = np.array([np.nan if rr is None else rr for rr in rates])
    return FusionResult(rr_fusion=rr, c_fusion=np.where(retained, 0.5, np.nan),
                        contributors=np.zeros((len(rates), 5), dtype=bool), retained=retained)


# ---------------------------------------------------------------------------
# reference_at


def test_reference_at_constant():
    ref = _reference(np.arange(0, 480, 2.0), np.full(240, 20.0))
    grid = WindowGrid(duration_s=480.0)
    for window in grid.windows[:20]:
        assert reference_at(ref, window) == 20.0


def test_reference_at_symmetric_step():
    # step 15 -> 25 at the window center with symmetric samples
    ref = _reference([2.0, 6.0, 10.0, 14.0, 18.0, 22.0, 26.0, 30.0],
                     [15.0, 15.0, 15.0, 15.0, 25.0, 25.0, 25.0, 25.0])
    assert reference_at(ref, (0.0, 32.0)) == pytest.approx(20.0)


def test_reference_at_outside_interpolates_center():
    ref = _reference([0.0, 100.0], [10.0, 30.0])
    assert reference_at(ref, (40.0, 72.0)) == pytest.approx(10.0 + 20.0 * 56.0 / 100.0)


# ---------------------------------------------------------------------------
# score


def test_score_perfect():
    grid = WindowGrid(duration_s=480.0)
    ref = _reference(np.arange(0, 481, 2.0), np.full(241, 20.0))
    fusions = _fusion([20.0] * grid.count)
    rmse, retention = score(fusions, reference_at(ref, grid.windows))
    assert rmse == 0.0
    assert retention == 1.0


def test_score_constant_error():
    grid = WindowGrid(duration_s=480.0)
    ref = _reference(np.arange(0, 481, 2.0), np.full(241, 20.0))
    fusions = _fusion([22.0] * grid.count)
    assert score(fusions, reference_at(ref, grid.windows))[0] == pytest.approx(2.0)


def test_score_retention_ratio():
    grid = WindowGrid(duration_s=480.0)
    assert grid.count == 225
    ref = _reference(np.arange(0, 481, 2.0), np.full(241, 20.0))
    fusions = _fusion([20.0 if i < 90 else None for i in range(grid.count)])
    assert score(fusions, reference_at(ref, grid.windows))[1] == pytest.approx(90 / 225)


def test_score_no_retained_windows():
    grid = WindowGrid(duration_s=480.0)
    ref = _reference([0.0, 480.0], [20.0, 20.0])
    rmse, retention = score(_fusion([None] * grid.count), reference_at(ref, grid.windows))
    assert math.isnan(rmse)
    assert retention == 0.0


def test_score_threshold_grid_matches_each_threshold():
    rng = np.random.default_rng(5)
    analysis, ref = _subject(rng.uniform(0, 0.5, (100, 5)), list(rng.uniform(15, 25, 5)), duration=230.0)
    ref_rates = reference_at(ref, analysis.grid.windows)
    t_grid = np.array([0.0, 0.1, 0.2, 0.3, 0.45, 0.6])
    rmse, retention = score(cif(analysis.estimates.rr, analysis.estimates.ni, t_grid), ref_rates)
    assert rmse.shape == retention.shape == t_grid.shape
    for i, t in enumerate(t_grid):
        rmse_t, retention_t = score(cif(analysis.estimates.rr, analysis.estimates.ni, t), ref_rates)
        assert retention[i] == retention_t
        np.testing.assert_allclose(rmse[i], rmse_t, rtol=1e-12)
    assert np.isnan(rmse[-1]) and retention[-1] == 0.0  # no noise index reaches 0.6


# ---------------------------------------------------------------------------
# sweep


def _subject(nis_per_window, rates, duration=480.0, ref_rate=20.0, sid="s"):
    grid = WindowGrid(duration_s=duration)
    ni = np.array(nis_per_window, dtype=float)
    rr = np.broadcast_to(np.asarray(rates, dtype=float), ni.shape)
    estimates = EstimateTable(rr=rr, ni=ni, reason=np.full(ni.shape, "none"))
    ref = _reference(np.arange(0, duration + 1, 2.0), np.full(int(duration // 2) + 1, ref_rate))
    analysis = RecordAnalysis(record_id=sid, grid=grid, estimates=estimates, beats=[], rivs={})
    return analysis, ref


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
        _subject(rng.uniform(0, 0.5, (100, 5)), list(rng.uniform(10, 30, 5)), duration=230.0, sid=f"s{i}")
        for i in range(4)
    ]
    rows = sweep(subjects)
    retention = [row.retention_median for row in rows]
    assert all(b <= a + 1e-12 for a, b in zip(retention, retention[1:]))


def test_sweep_empty_dataset_rejected():
    with pytest.raises(ValueError):
        sweep([])


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


def test_wilcoxon_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank(np.ones(8), np.ones(7))
