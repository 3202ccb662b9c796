"""Benchmark metrics: per-subject RMSE and retention, threshold sweeps,
Bland-Altman / Pearson agreement, the paired Wilcoxon signed-rank test, and
the report of a dataset; `report` and `sweep` score through one path.

Reference alignment: each analysis window scores against the mean of the
reference samples falling inside it, or the value interpolated at the window
center when none do. Interpolation holds the end values, so a window with no
sample whose center lies before the first reference time, or past the last,
scores against the first, or the last, rate. Percentiles interpolate linearly between order
statistics. Agreement statistics pool the retained windows of all subjects.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import DEFAULT_THRESHOLD, METHODS, T_GRID_DEFAULT
from .fusion import FusionResult, fuse_estimates
from .signal_io import ReferenceRr, _median
from .spectral import WINDOW_S, EstimateTable

LOA_FACTOR = 1.96
WILCOXON_EXACT_MAX_N = 25


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


def reference_at(reference: ReferenceRr, start_s) -> np.ndarray:
    """Reference rate of each window: in-window mean, else value at the center,
    which is the first or the last rate outside the reference's time span.

    `start_s` holds window starts such as ``EstimateTable.start_s``; a window
    holds the reference samples with start <= time < start + WINDOW_S.
    """
    start = np.asarray(start_s, dtype=float)
    end = start + WINDOW_S
    times, rr = reference.times_s, reference.rr
    # times are non-decreasing, so each window's samples are one index range
    lo = np.searchsorted(times, start, side="left")
    hi = np.searchsorted(times, end, side="left")
    # Sums over rr[lo:hi] from reduceat on interleaved (lo, hi) bounds; the
    # (hi, next lo) entries between them are discarded. A trailing 0 keeps hi
    # a valid index. Unlike differences of a running sum, this keeps the
    # relative error of every positive sum near one ulp.
    sums = np.add.reduceat(np.append(rr, 0.0), np.ravel([lo, hi], order="F"))[::2]
    centre_rates = np.interp(0.5 * (start + end), times, rr)
    return np.where(hi > lo, sums / np.maximum(hi - lo, 1), centre_rates)


def score(fusion: FusionResult, ref_rates):
    """(rmse, retention): RMSE over the retained windows and the retained
    fraction of all windows.

    Reduces over the last (window) axis, so a fusion over a grid of
    thresholds gives one value per threshold. RMSE is NaN where no window
    is retained.
    """
    kept = np.asarray(fusion.retained, dtype=bool)
    n_kept = kept.sum(axis=-1)
    sq_err = np.where(kept, (fusion.rr_fusion - ref_rates) ** 2, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        rmse = np.sqrt(sq_err.sum(axis=-1) / n_kept)
    return rmse, n_kept / max(kept.shape[-1], 1)


def _aligned(subjects):
    """Each (EstimateTable, ReferenceRr) subject as (table, reference rate per window)."""
    return [(table, reference_at(reference, table.start_s)) for table, reference in subjects]


def _fuse_and_score(aligned, method, t):
    """Each aligned subject's (fusion, reference rates, rmse, retention), fused by `method` at threshold(s) `t`."""
    for table, ref_rates in aligned:
        fusion = fuse_estimates(table, method, t)
        yield (fusion, ref_rates, *score(fusion, ref_rates))


def sweep(subjects: list[tuple[EstimateTable, ReferenceRr]], t_grid=T_GRID_DEFAULT) -> list[SweepRow]:
    """Across-subject RMSE quartiles and median retention per CIF threshold.

    Each subject, an (EstimateTable, ReferenceRr) pair, is fused at every
    threshold of `t_grid` in one call.
    """
    if not subjects:
        raise ValueError("need at least one subject")
    t_grid = np.asarray(t_grid, dtype=float)
    rmse, retention = map(np.array, zip(*(scores for _, _, *scores in _fuse_and_score(_aligned(subjects), "cif", t_grid))))
    return [
        SweepRow(t=float(t), rmse_p25=float(p25), rmse_median=float(med), rmse_p75=float(p75), retention_median=float(r))
        for t, (p25, med, p75), r in zip(t_grid, _nan_quartiles(rmse).T, _median(retention))
    ]


def _nan_quartiles(x: np.ndarray) -> np.ndarray:
    """25th, 50th and 75th percentiles along axis 0 of the non-NaN values of
    2-D ``x``; NaN where a column has none (a threshold no subject retains).

    ``np.nanpercentile(x, (25, 50, 75), axis=0)`` computed as it computes
    it, so bit-equal to it where no -0.0 ties with 0.0 (an RMSE is never
    -0.0): between order statistics i and i + 1 it interpolates from the
    lower one below weight 0.5 and from the upper one from 0.5 on.
    ``np.nanpercentile`` itself loads ``numpy.ma``.
    """
    ordered = np.sort(x, axis=0)  # NaN sorts last
    count = np.count_nonzero(~np.isnan(x), axis=0)
    pos = (count - 1) * np.array([[0.25], [0.5], [0.75]])
    lo = np.maximum(np.floor(pos), 0).astype(int)
    gamma = pos - lo
    below = np.take_along_axis(ordered, lo, axis=0)
    above = np.take_along_axis(ordered, np.minimum(lo + 1, np.maximum(count - 1, 0)), axis=0)
    diff = above - below
    quartiles = np.where(gamma < 0.5, below + diff * gamma, above - diff * (1 - gamma))
    return np.where(count > 0, quartiles, np.nan)


def report(subjects: list[tuple[EstimateTable, ReferenceRr]], methods=METHODS, t=DEFAULT_THRESHOLD) -> tuple[dict, dict]:
    """(scores, summary) of `methods` fused at `t` over (EstimateTable, ReferenceRr) subjects.

    ``scores[method]`` holds per-subject rmse (NaN where no window is
    retained) and retention arrays. ``summary`` holds each method's median
    RMSE over its scored subjects and median retention; with >= 6 subjects,
    each metric's Wilcoxon p-values of the method pairs scored jointly on
    >= 6, times the pairs so tested; and with "cif", its pooled agreement.
    """
    if not subjects:
        raise ValueError("need at least one subject")
    summary = {"t": t, "subjects": len(subjects), "methods": {}, "wilcoxon_bonferroni": {}}
    scores, est, ref = {}, np.empty(0), np.empty(0)
    aligned = _aligned(subjects)
    for method in methods:
        fusions, ref_rates, rmse, retention = zip(*_fuse_and_score(aligned, method, t))
        rmse, retention = scores[method] = np.array(rmse), np.array(retention)
        scored = rmse[~np.isnan(rmse)]
        rmse_median = float(_median(scored)) if scored.size else None
        summary["methods"][method] = {"rmse_median": rmse_median, "retention_median": float(_median(retention))}
        if method == "cif":  # its retained windows, pooled for the agreement
            est = np.concatenate([f.rr_fusion[f.retained] for f in fusions])
            ref = np.concatenate([r[f.retained] for f, r in zip(fusions, ref_rates)])
    if len(subjects) >= 6:
        for i, metric in enumerate(("rmse", "retention")):
            raw = {}
            for m1, m2 in itertools.combinations(methods, 2):
                x, y = scores[m1][i], scores[m2][i]
                keep = ~(np.isnan(x) | np.isnan(y))
                if keep.sum() >= 6:
                    raw[f"{m1}_vs_{m2}"] = wilcoxon_signed_rank(x[keep], y[keep])
            # Bonferroni over the pairs actually tested for this metric
            summary["wilcoxon_bonferroni"][metric] = {pair: min(1.0, len(raw) * p) for pair, p in raw.items()}
    if est.size >= 2:
        stats = agreement(est, ref)
        summary["agreement_cif"] = {**asdict(stats), "r": None if math.isnan(stats.r) else stats.r}
    return scores, summary


def agreement(est, ref) -> AgreementStats:
    """Pearson r, bias and 1.96-sd limits of agreement of paired estimates
    and reference rates.

    With zero variance in either coordinate the correlation is undefined and
    reported as nan; bias and limits are still returned.
    """
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.shape != ref.shape or est.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if est.size < 2:
        raise ValueError(f"need >= 2 pairs, got {est.size}")
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
        n_pairs=est.size,
    )


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of the values of `x`, each group of ties sharing the mean
    of its positions (scipy.stats.rankdata's default, for finite input)."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    end = np.r_[first[1:], x.size]  # one past the last position of each group
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((first + end + 1) / 2.0, end - first)
    return ranks


def wilcoxon_signed_rank(a, b) -> float:
    """Two-sided paired Wilcoxon signed-rank p-value.

    Zero differences are dropped and tied absolute differences mid-ranked.
    Up to WILCOXON_EXACT_MAX_N effective pairs the p-value comes from the
    exact distribution of the positive-rank sum over all sign assignments
    (computed by dynamic programming); beyond that a normal approximation
    with tie correction and continuity correction is used. A non-finite
    difference is a ValueError. Any Bonferroni correction is the caller's
    responsibility.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    if a.size < 6:
        raise ValueError(f"need >= 6 pairs, got {a.size}")
    d = a - b
    if not np.all(np.isfinite(d)):
        raise ValueError("differences must be finite")
    d = d[d != 0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = _midranks(np.abs(d))
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
    delta = w_plus - mean
    z = (delta - 0.5 * np.sign(delta)) / math.sqrt(var)
    return float(min(1.0, math.erfc(abs(z) / math.sqrt(2.0))))
