import numpy as np
import pytest

from rrcif import METHODS, pipeline
from rrcif.errors import InsufficientSignalError, ValidationError
from rrcif.fusion import fuse_estimates
from rrcif.signal_io import PpgRecord
from rrcif.spectral import REASONS, WINDOW_S

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


@pytest.mark.parametrize(("rr", "hr", "seed"), [(9.5, 65.0, 1), (15.5, 77.0, 2), (24.5, 95.0, 3), (30.5, 107.0, 4)])
def test_one_physiology_gives_the_same_rates_at_every_sampling_rate(rr, hr, seed):
    """One synthetic physiology sampled at 25, 100, 300 and 1000 Hz, fused by
    CIF at t = 0.13: every rate retains at least 90 % of the windows, and in
    each window that both it and 100 Hz retain the fused rates lie within
    0.5 breaths/min. Both bounds were fixed before the test first ran."""
    fused = {}
    for fs in (25.0, 100.0, 300.0, 1000.0):
        record, _ = make_synth(rr=rr, hr=hr, duration=120.0, fs=fs, depths=(0.1,) * 5, noise=0.02, seed=seed)
        fused[fs] = fuse_estimates(pipeline.analyze_record(record).estimates, "cif", 0.13)
    for fs, result in fused.items():
        assert result.retained.shape == fused[100.0].retained.shape, fs
        assert result.retained.mean() >= 0.9, fs
        both = result.retained & fused[100.0].retained
        assert np.abs(result.rr_fusion[both] - fused[100.0].rr_fusion[both]).max() <= 0.5, fs


# scalings of a unit-amplitude pulse that leave the amplitude envelope, and the error each raises
OUTSIDE_THE_ENVELOPE = {
    -540: InsufficientSignalError,
    -401: InsufficientSignalError,
    401: ValidationError,
    504: ValidationError,
    900: ValidationError,
}


@pytest.mark.parametrize(("fs", "seed"), [(25.0, 31), (100.0, 32), (300.0, 33)])
def test_power_of_two_scaling_leaves_the_analysis_unchanged(fs, seed):
    """Scaling the samples by 2**k is exact in floating point, and no step of
    the analysis compares a level with an absolute constant, so every rate and
    reason stays the same bit for bit; the noise index is a ratio of powers.
    Outside the amplitude envelope of `bandpass` the record is rejected with a
    typed error before any step could overflow or turn subnormal."""
    record, _ = make_synth(rr=16.0, hr=75.0, duration=120.0, fs=fs, noise=0.05, seed=seed)
    base = pipeline.analyze_record(record).estimates
    assert (base.reason == "none").any()
    for k in (-399, -200, -60, -40, 40, 200, 399):
        scaled = PpgRecord(id=record.id, fs=fs, samples=record.samples * 2.0**k)
        estimates = pipeline.analyze_record(scaled).estimates
        assert estimates.rr.tobytes() == base.rr.tobytes(), k
        assert (estimates.reason == base.reason).all(), k
        np.testing.assert_allclose(estimates.ni, base.ni, rtol=0, atol=1e-12, equal_nan=True, err_msg=str(k))
    for k, error in OUTSIDE_THE_ENVELOPE.items():
        scaled = PpgRecord(id=record.id, fs=fs, samples=record.samples * 2.0**k)
        with pytest.raises(error, match=r"2\*\*-?400"):
            pipeline.analyze_record(scaled)


BURST_S = (200.0, 205.0)  # 5 s of N(0, 1) noise, one nominal pulse amplitude in sd


@pytest.mark.parametrize("depth, noise", [(0.1, 0.03), (0.015, 0.1)], ids=["clean", "low-snr"])
@pytest.mark.parametrize(("rr", "hr"), [(9.5, 65.0), (30.5, 107.0)])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_burst_changes_only_the_windows_near_it(depth, noise, rr, hr, seed):
    """A noise burst leaves every window whose span lies at least 10 s from it
    as it was: the same rates and reasons, bit for bit, and NI within 1e-6.
    Both bounds were fixed before the test first ran."""
    record, _ = make_synth(rr=rr, hr=hr, duration=480.0, depths=(depth,) * 5, noise=noise, seed=seed)
    burst = slice(*(round(t * record.fs) for t in BURST_S))
    samples = record.samples.copy()
    samples[burst] += np.random.default_rng(seed).normal(0.0, 1.0, burst.stop - burst.start)
    base = pipeline.analyze_record(record).estimates
    hit = pipeline.analyze_record(PpgRecord(id=record.id, fs=record.fs, samples=samples)).estimates
    far = (base.start_s + WINDOW_S <= BURST_S[0] - 10.0) | (base.start_s >= BURST_S[1] + 10.0)
    assert far.sum() > far.size / 2
    assert hit.rr[far].tobytes() == base.rr[far].tobytes()
    assert (hit.reason[far] == base.reason[far]).all()
    np.testing.assert_allclose(hit.ni[far], base.ni[far], rtol=0, atol=1e-6, equal_nan=True)
