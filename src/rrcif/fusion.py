"""Covariance intersection fusion of the gated per-variation estimates,
plus the Smart Fusion baselines (SF3/SF5).

The covariance of a rate estimate is C = 1 - NI, floored at
COVARIANCE_FLOOR, since a perfect noise index would make its precision
infinite. For scalar rates the closed form of covariance intersection
(Niehsen, FUSION 2002) weighs estimate i by w_i ∝ 1/C_i, the weights that
make every w_i * C_i equal. With the precisions p_i = 1/C_i, p_i = 0 for a
pair the gate drops, and q_i = p_i², the fused covariance and rate are

    C_f = sum(p) / sum(q),
    x_f = x_0 + sum(q_i * (x_i - x_0)) / sum(q),

where x_0 is the rate of the first contributor in ALL_KINDS order. So each
rate's effective weight is q_i = 1/(1 - NI_i)², and contributors that share
one rate fuse to that rate exactly. This is the only place the noise-index
gate is applied. A window CIF drops is "below_t" when some pair has a finite
NI and "unrated" when none has (``EstimateTable.reason`` says why).

Smart Fusion instead averages a fixed set of variations (RIIV/RIAV/RIFV for
SF3, all five for SF5) and discards the window when any of them is unrated,
or when the sample standard deviation across them exceeds 4 breaths/min: the
reasons "member_unrated" and "sd_exceeded". It applies no noise-index gating.

Both fuse over the last axis of (window, variation) arrays such as an
:class:`EstimateTable`'s, where NaN marks an unrated pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DEFAULT_THRESHOLD, METHODS
from .errors import EmptyFusionError
from .riv import ALL_KINDS, RivKind
from .spectral import EstimateTable

COVARIANCE_FLOOR = 1e-6
SF_SD_LIMIT_BPM = 4.0


# The variations each Smart Fusion baseline averages.
SF3 = (RivKind.RIIV, RivKind.RIAV, RivKind.RIFV)
SF5 = ALL_KINDS


@dataclass(frozen=True)
class FusionResult:
    """Per-window arrays; ``reason`` is "none" for a retained window and
    otherwise says why it is a gap, where the rate is NaN.

    ``c_fusion`` is NaN for Smart Fusion; ``contributors`` flags the
    variations fused in each window.
    """

    rr_fusion: np.ndarray
    c_fusion: np.ndarray
    contributors: np.ndarray
    reason: np.ndarray

    @property
    def retained(self) -> np.ndarray:
        return self.reason == "none"


def cif(rr, ni, t) -> FusionResult:
    """Covariance-intersection fusion of each row of (rate, noise index) pairs.

    A pair contributes when its noise index is at least t (NaN never does);
    covariances are 1 - ni floored at COVARIANCE_FLOOR. A row with no
    contributor is "below_t" when some noise index is finite, else "unrated".
    `t` may be an array of thresholds, which become the leading axes of the
    result. Raises :class:`EmptyFusionError` when the rows hold no pairs at all.
    Raises ValueError when t or a noise index lies outside [0, 1], and when a
    finite noise index sits beside a non-finite rate, which could not be scored.
    """
    rr = np.asarray(rr, dtype=float)
    ni = np.asarray(ni, dtype=float)
    t = np.asarray(t, dtype=float)
    if rr.shape[-1:] in ((), (0,)):
        raise EmptyFusionError("no estimates to fuse")
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise ValueError(f"threshold t must lie in [0, 1], got {t}")
    if np.any((ni < 0) | (ni > 1)):
        raise ValueError("noise indices must lie in [0, 1]")
    if np.any(np.isfinite(ni) & ~np.isfinite(rr)):
        raise ValueError("a rate beside a finite noise index must be finite")
    use = ni >= t.reshape(t.shape + (1,) * ni.ndim)
    p = np.where(use, 1.0 / np.maximum(1.0 - ni, COVARIANCE_FLOOR), 0.0)
    q = p * p
    # x_0 of each row; a row with no contributor gets 0/0 below, so NaN
    x0 = np.take_along_axis(np.broadcast_to(rr, use.shape), use.argmax(axis=-1)[..., None], axis=-1)
    sum_q = q.sum(axis=-1)
    with np.errstate(invalid="ignore"):
        c_fusion = p.sum(axis=-1) / sum_q
        x_fusion = x0[..., 0] + np.sum(q * np.where(use, rr - x0, 0.0), axis=-1) / sum_q
    reason = np.where(use.any(axis=-1), "none", np.where(np.isfinite(ni).any(axis=-1), "below_t", "unrated"))
    return FusionResult(rr_fusion=x_fusion, c_fusion=c_fusion, contributors=use, reason=reason)


def smart_fusion(rr, kinds: tuple[RivKind, ...]) -> FusionResult:
    """Smart Fusion baseline: mean of a fixed set of variations, such as
    SF3 or SF5, discarded on disagreement.

    A row is dropped when any of `kinds` is unrated ("member_unrated"), or
    when the sample standard deviation (ddof=1) of their rates exceeds the
    4 breaths/min limit ("sd_exceeded"). Noise indices are ignored.
    Raises ValueError when the rows are not the five variations wide.
    """
    rr = np.atleast_1d(np.asarray(rr, dtype=float))
    if rr.shape[-1] != len(ALL_KINDS):
        raise ValueError(f"rows must hold the {len(ALL_KINDS)} variations, got rows of width {rr.shape[-1]}")
    member = np.array([kind in kinds for kind in ALL_KINDS])
    rates = rr[..., member]
    with np.errstate(invalid="ignore"):
        spread = np.std(rates, axis=-1, ddof=1) > SF_SD_LIMIT_BPM
    reason = np.where(~np.isfinite(rates).all(axis=-1), "member_unrated", np.where(spread, "sd_exceeded", "none"))
    retained = reason == "none"
    return FusionResult(
        rr_fusion=np.where(retained, np.mean(rates, axis=-1), np.nan),
        c_fusion=np.full(retained.shape, np.nan),
        contributors=retained[..., None] & member,
        reason=reason,
    )


def fuse_estimates(estimates: EstimateTable, method: str = "cif", t: float = DEFAULT_THRESHOLD) -> FusionResult:
    """Fuse every window of an estimate table with 'cif', 'sf3' or 'sf5'."""
    if method == "cif":
        return cif(estimates.rr, estimates.ni, t)
    if method == "sf3":
        return smart_fusion(estimates.rr, SF3)
    if method == "sf5":
        return smart_fusion(estimates.rr, SF5)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
