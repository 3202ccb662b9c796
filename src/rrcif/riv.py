"""Respiratory-induced variation series derived from the beat sequence.

Each series takes one feature per beat, placed at the beat's peak time, and
linearly interpolates it onto a uniform 5 Hz grid shared by all five series.
Artifact beats are excluded as interpolation knots; grid points whose
bracketing beats include an artifact are marked in the shared artifact mask
instead of being dropped, so windowing decisions stay downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import InsufficientSignalError

if TYPE_CHECKING:
    from .preprocess import BeatTable

RIV_FS = 5.0
GRID_STEP_S = 1.0 / RIV_FS


class RivKind(Enum):
    """The five per-beat features modulated by respiration."""

    RIIV = "riiv"  # intensity: peak value
    RIAV = "riav"  # amplitude: peak minus foot value
    RIFV = "rifv"  # frequency: peak-to-peak period, seconds
    RIWV = "riwv"  # width: pulse width at 50% amplitude, seconds
    RISV = "risv"  # slope: 25%-to-75% upstroke transit time, seconds


ALL_KINDS = tuple(RivKind)


@dataclass(frozen=True)
class RivTable:
    """The five feature series of one record, rows in ALL_KINDS order.

    ``values`` is (5, samples) on the grid t0 + j / RIV_FS; ``artifact`` is
    the one artifact mask that all five rows share.
    """

    t0: float
    values: np.ndarray
    artifact: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.values.shape[-1]) / RIV_FS


def extract(beats: BeatTable, t_end: float) -> RivTable:
    """Build all five series on the 5 Hz grid spanning [first peak, t_end].

    The knots of a series are the non-artifact beats with a finite feature
    (the first beat has no period, so it contributes no RIFV knot).
    Interpolation is linear and clamps to the edge knots outside their span.
    Raises :class:`InsufficientSignalError` for the first kind, in
    ``ALL_KINDS`` order, with fewer than 3 knots.
    """
    features = {
        RivKind.RIIV: beats.v_peak,
        RivKind.RIAV: beats.v_peak - beats.v_foot,
        RivKind.RIFV: beats.period,
        RivKind.RIWV: beats.width50,
        RivKind.RISV: beats.rise25_75,
    }
    artifact = beats.rules != 0
    knots = {kind: ~artifact & np.isfinite(value) for kind, value in features.items()}
    for kind, used in knots.items():
        if np.count_nonzero(used) < 3:
            raise InsufficientSignalError(f"{kind.name}: only {np.count_nonzero(used)} usable beats, need >= 3")

    t0 = float(beats.t_peak[0])
    n = int(np.floor((t_end - t0) / GRID_STEP_S + 1e-9)) + 1
    if n < 1:
        raise InsufficientSignalError("t_end precedes the first beat")
    grid = t0 + np.arange(n) * GRID_STEP_S
    right = np.searchsorted(beats.t_peak, grid)
    last = len(beats) - 1
    mask = artifact[np.clip(right - 1, 0, last)] | artifact[np.clip(right, 0, last)]
    values = np.stack([np.interp(grid, beats.t_peak[used], features[kind][used]) for kind, used in knots.items()])
    return RivTable(t0, values, mask)
