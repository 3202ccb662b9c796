from dataclasses import replace

import numpy as np
import pytest

from rrcif.preprocess import BeatTable
from rrcif.signal_io import ModDepths, SynthSpec, synthesize


def make_synth(rr=20.0, hr=80.0, duration=480.0, fs=100.0, depths=(0.1,) * 5, noise=0.02, seed=1):
    spec = SynthSpec(
        rr=rr, hr=hr, duration_s=duration, fs=fs,
        depths=ModDepths(*depths), noise_sd=noise, seed=seed,
    )
    return synthesize(spec)


def make_beats(n=40, period=0.75, v_peak=1.0, amp=1.0, width=0.19, rise=0.075, t0=0.5):
    """A clean uniform beat train for unit tests on beat-level operations."""
    t_peak = t0 + np.arange(n) * period
    return BeatTable(
        t_foot=t_peak - 0.2,
        v_foot=np.full(n, v_peak - amp),
        t_peak=t_peak,
        v_peak=np.full(n, v_peak),
        width50=np.full(n, width),
        rise25_75=np.full(n, rise),
        period=np.where(np.arange(n) == 0, np.nan, period),
        artifact=np.zeros(n, dtype=bool),
    )


def edit_beat(beats, i, **values):
    """A copy of `beats` with the named columns of beat `i` set to `values`."""
    columns = {name: getattr(beats, name).copy() for name in values}
    for name, value in values.items():
        columns[name][i] = value
    return replace(beats, **columns)


@pytest.fixture(scope="session")
def clean_synth():
    return make_synth()
