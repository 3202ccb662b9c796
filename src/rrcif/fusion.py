"""Covariance intersection fusion of the gated per-variation estimates,
plus the Smart Fusion baselines (SF3/SF5).

The covariance of a rate estimate is one minus its noise index (floored at a
small epsilon, since a perfect noise index would make the inverse-covariance
terms blow up). With the constraint that all weighted covariances are equal,

    w1*C1 = w2*C2 = ... = wn*Cn,   sum(w) = 1,

the weights have the closed form w_i = (1/C_i) / sum_j (1/C_j), and the fused
estimate follows from the convex information-space combination

    1/C_f = sum_i w_i / C_i,
    x_f   = C_f * sum_i w_i * x_i / C_i.

This is the only place the noise-index gate is applied.

Smart Fusion instead averages a fixed set of variations (RIIV/RIAV/RIFV for
SF3, all five for SF5) and discards the window when any of them is unrated,
or when the sample standard deviation across them exceeds 4 breaths/min. It
applies no noise-index gating.

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
    """Per-window arrays; ``retained`` False marks a gap, where the rate is NaN.

    ``c_fusion`` is NaN for Smart Fusion; ``contributors`` flags the
    variations fused in each window.
    """

    rr_fusion: np.ndarray
    c_fusion: np.ndarray
    contributors: np.ndarray
    retained: np.ndarray


def cif_weights(covariances) -> np.ndarray:
    """Weights over the last axis satisfying the equal-product condition and
    summing to one; an infinite covariance gets zero weight."""
    c = np.asarray(covariances, dtype=float)
    if c.shape[-1:] in ((), (0,)):
        raise ValueError("need at least one covariance")
    if np.any(c <= 0):
        raise ValueError(f"covariances must be positive, got {c}")
    inv = 1.0 / c
    return inv / inv.sum(axis=-1, keepdims=True)


def cif(rr, ni, t) -> FusionResult:
    """Covariance-intersection fusion of each row of (rate, noise index) pairs.

    A pair contributes when its noise index is at least t (NaN never does);
    covariances are 1 - ni floored at COVARIANCE_FLOOR. `t` may be an array
    of thresholds, which become the leading axes of the result. Raises
    :class:`EmptyFusionError` when the rows hold no pairs at all.
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
    use = ni >= t.reshape(t.shape + (1,) * ni.ndim)
    c = np.where(use, np.maximum(1.0 - ni, COVARIANCE_FLOOR), np.inf)
    x = np.where(use, rr, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        w = cif_weights(c)
        c_fusion = 1.0 / np.sum(w / c, axis=-1)
        x_fusion = c_fusion * np.sum(w * x / c, axis=-1)
    return FusionResult(rr_fusion=x_fusion, c_fusion=c_fusion, contributors=use, retained=use.any(axis=-1))


def smart_fusion(rr, kinds: tuple[RivKind, ...]) -> FusionResult:
    """Smart Fusion baseline: mean of a fixed set of variations, such as
    SF3 or SF5, discarded on disagreement.

    A row is dropped when any of `kinds` is unrated, or when the sample
    standard deviation (ddof=1) of their rates exceeds the 4 breaths/min
    limit. Noise indices are ignored.
    """
    rr = np.asarray(rr, dtype=float)
    member = np.array([kind in kinds for kind in ALL_KINDS])
    rates = rr[..., member]
    with np.errstate(invalid="ignore"):
        retained = np.isfinite(rates).all(axis=-1) & ~(np.std(rates, axis=-1, ddof=1) > SF_SD_LIMIT_BPM)
    return FusionResult(
        rr_fusion=np.where(retained, np.mean(rates, axis=-1), np.nan),
        c_fusion=np.full(retained.shape, np.nan),
        contributors=retained[..., None] & member,
        retained=retained,
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
