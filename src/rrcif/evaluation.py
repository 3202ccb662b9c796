"""Benchmark metrics: per-subject RMSE and retention, threshold sweeps,
Bland-Altman / Pearson agreement, and the paired Wilcoxon signed-rank test.

Reference alignment: each analysis window scores against the mean of the
reference samples falling inside it, or the value interpolated at the window
center when none do. Percentiles interpolate linearly between order
statistics. Agreement statistics pool the retained windows of all subjects.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from .fusion import FusionResult, cif
from .signal_io import ReferenceRr
from .spectral import WindowGrid

T_GRID_DEFAULT = tuple(round(0.01 * i, 2) for i in range(31))  # 0 .. 0.3
LOA_FACTOR = 1.96
WILCOXON_EXACT_MAX_N = 25


@dataclass(frozen=True)
class SubjectResult:
    """One subject's score for one method at one threshold."""

    id: str
    method: str
    t: float
    rmse: float | None
    retention: float
    pairs: list[tuple[float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class AgreementStats:
    r: float
    bias: float
    loa_low: float
    loa_high: float
    n_pairs: int


@dataclass(frozen=True)
class SweepRow:
    t: float
    rmse_p25: float
    rmse_median: float
    rmse_p75: float
    retention_median: float


def reference_at(reference: ReferenceRr, window: tuple[float, float]) -> float:
    """Reference rate for a window: in-window mean, else value at the center."""
    start, end = window
    inside = (reference.times_s >= start) & (reference.times_s < end)
    if inside.any():
        return float(np.mean(reference.rr[inside]))
    center = 0.5 * (start + end)
    return float(np.interp(center, reference.times_s, reference.rr))


def _reference_rates(reference: ReferenceRr, grid: WindowGrid) -> np.ndarray:
    return np.array([reference_at(reference, window) for window in grid.windows])


def score_subject(
    fusion: FusionResult,
    reference: ReferenceRr,
    grid: WindowGrid,
    subject_id: str = "",
    method: str = "CIF",
    t: float = float("nan"),
) -> SubjectResult:
    """RMSE over retained windows and the retained fraction of all windows."""
    kept = np.asarray(fusion.retained, dtype=bool)
    est = np.asarray(fusion.rr_fusion)[kept]
    ref = _reference_rates(reference, grid)[kept]
    retention = est.size / grid.count if grid.count else 0.0
    rmse = float(np.sqrt(np.mean((est - ref) ** 2))) if est.size else None
    return SubjectResult(
        id=subject_id, method=method, t=t, rmse=rmse, retention=retention, pairs=list(zip(est.tolist(), ref.tolist()))
    )


def sweep(subjects, t_grid=T_GRID_DEFAULT) -> list[SweepRow]:
    """Across-subject RMSE quartiles and median retention per CIF threshold.

    `subjects` holds (RecordAnalysis, ReferenceRr) pairs; each subject is
    fused at every threshold of `t_grid` in one call.
    """
    if not subjects:
        raise ValueError("need at least one subject")
    t_grid = np.asarray(t_grid, dtype=float)
    rmse, retention = [], []
    for analysis, reference in subjects:
        fused = cif(analysis.estimates.rr, analysis.estimates.ni, t_grid)
        n_kept = fused.retained.sum(axis=-1)
        sq_err = (fused.rr_fusion - _reference_rates(reference, analysis.grid)) ** 2
        with np.errstate(invalid="ignore"):
            rmse.append(np.sqrt(np.nansum(sq_err, axis=-1) / n_kept))
        retention.append(n_kept / max(analysis.grid.count, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a threshold no subject retains gives NaN
        quartiles = np.nanpercentile(rmse, (25, 50, 75), axis=0)
    return [
        SweepRow(t=float(t), rmse_p25=float(p25), rmse_median=float(med), rmse_p75=float(p75), retention_median=float(r))
        for t, (p25, med, p75), r in zip(t_grid, quartiles.T, np.median(retention, axis=0))
    ]


def agreement(pairs) -> AgreementStats:
    """Pearson r, bias and 1.96-sd limits of agreement for (est, ref) pairs.

    With zero variance in either coordinate the correlation is undefined and
    reported as nan; bias and limits are still returned.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError(f"need >= 2 pairs, got {len(pairs)}")
    est = np.array([p[0] for p in pairs], dtype=float)
    ref = np.array([p[1] for p in pairs], dtype=float)
    diff = est - ref
    bias = float(np.mean(diff))
    sd = float(np.std(diff, ddof=1))
    if np.ptp(est) == 0 or np.ptp(ref) == 0:
        r = float("nan")
    else:
        r = float(np.corrcoef(est, ref)[0, 1])
    return AgreementStats(
        r=r,
        bias=bias,
        loa_low=bias - LOA_FACTOR * sd,
        loa_high=bias + LOA_FACTOR * sd,
        n_pairs=len(pairs),
    )


def wilcoxon_signed_rank(a, b) -> float:
    """Two-sided paired Wilcoxon signed-rank p-value.

    Zero differences are dropped and tied absolute differences mid-ranked.
    Up to WILCOXON_EXACT_MAX_N effective pairs the p-value comes from the
    exact distribution of the positive-rank sum over all sign assignments
    (computed by dynamic programming); beyond that a normal approximation
    with tie correction and continuity correction is used. Any Bonferroni
    correction is the caller's responsibility.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if a.size < 6:
        raise ValueError(f"need >= 6 pairs, got {a.size}")
    d = a - b
    d = d[d != 0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= WILCOXON_EXACT_MAX_N:
        # distribution of 2*W+ over all 2^n sign patterns via subset sums
        ranks2 = np.rint(2 * ranks).astype(int)
        total = int(ranks2.sum())
        counts = np.zeros(total + 1)
        counts[0] = 1.0
        for r in ranks2:
            counts[r:] += counts[: counts.size - r].copy()
        w2 = int(round(2 * w_plus))
        denom = 2.0**n
        p_le = counts[: w2 + 1].sum() / denom
        p_ge = counts[w2:].sum() / denom
        return float(min(1.0, 2.0 * min(p_le, p_ge)))

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if var <= 0:
        return 1.0
    delta = w_plus - mean
    z = (delta - 0.5 * np.sign(delta)) / math.sqrt(var)
    return float(min(1.0, math.erfc(abs(z) / math.sqrt(2.0))))
