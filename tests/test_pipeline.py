import numpy as np
import pytest

from rrcif import METHODS, pipeline
from rrcif.fusion import fuse_estimates
from rrcif.spectral import REASONS

from conftest import make_synth


@pytest.fixture(scope="module")
def late_start():
    """A record whose first beat comes after one 5 Hz series step (0.2 s)."""
    record, _ = make_synth(rr=12.0, hr=74.0, duration=120.0, seed=21)
    analysis = pipeline.analyze_record(record)
    assert analysis.beats.t_peak[0] > 0.2
    return analysis


def test_table_shape_and_reasons(late_start):
    table = late_start.estimates
    assert table.rr.shape == table.ni.shape == table.reason.shape == (late_start.estimates.start_s.size, 5)
    assert set(np.unique(table.reason)) <= set(REASONS)
    rated = table.reason == "none"
    assert np.isfinite(table.rr[rated]).all() and np.isfinite(table.ni[rated]).all()
    assert np.isnan(table.rr[~rated]).all() and np.isnan(table.ni[~rated]).all()


def test_late_first_beat_is_out_of_range(late_start):
    reason = late_start.estimates.reason
    assert (reason[0] == "out_of_range").all()
    assert (reason[1:] == "none").all()


def test_fuse_estimates_methods(late_start):
    for method in METHODS:
        fused = fuse_estimates(late_start.estimates, method, 0.13)
        assert fused.retained.shape == (late_start.estimates.start_s.size,)
        assert not fused.retained[0]
        assert fused.retained[1:].all()
    with pytest.raises(ValueError):
        fuse_estimates(late_start.estimates, "magic", 0.13)
