import math
from dataclasses import replace

import numpy as np
import pytest

from rrcif import DEFAULT_THRESHOLD
from rrcif.errors import InsufficientSignalError
from rrcif.preprocess import RULE_AMPLITUDE, RULE_CLIPPING, RULE_PERIOD, segment_beats
from rrcif.riv import ALL_KINDS, GRID_STEP_S, RivKind, extract
from rrcif.spectral import rate_windows

from conftest import edit_beat, make_beats, make_synth

RIIV, RIAV, RIFV = (ALL_KINDS.index(kind) for kind in (RivKind.RIIV, RivKind.RIAV, RivKind.RIFV))


def test_exactly_five_kinds():
    assert len(ALL_KINDS) == 5
    assert {k.name for k in ALL_KINDS} == {"RIIV", "RIAV", "RIFV", "RIWV", "RISV"}


def test_grid_step_and_extent():
    beats = make_beats(n=50, t0=0.6)
    t_end = beats.t_peak[-1]
    rivs = extract(beats, t_end)
    times = rivs.times
    assert rivs.values.shape == (len(ALL_KINDS), times.size) and rivs.artifact.shape == (times.size,)
    np.testing.assert_allclose(np.diff(times), GRID_STEP_S, rtol=0, atol=1e-12)
    assert abs(times[0] - beats.t_peak[0]) < GRID_STEP_S + 1e-12
    assert abs(times[-1] - beats.t_peak[-1]) < GRID_STEP_S + 1e-12


def test_times_are_the_grid_the_rows_sit_on():
    # re-interpolating each row's knots at `times` gives the row back, bit for bit
    record, _ = make_synth(duration=120.0, seed=1)
    beats = segment_beats(record)
    rivs = extract(beats, record.duration_s)
    features = (beats.v_peak, beats.v_peak - beats.v_foot, beats.period, beats.width50, beats.rise25_75)
    for kind, feature, row in zip(ALL_KINDS, features, rivs.values):
        knots = (beats.rules == 0) & np.isfinite(feature)
        got = np.interp(rivs.times, beats.t_peak[knots], feature[knots])
        np.testing.assert_array_equal(got, row, err_msg=kind.name, strict=True)


def test_interpolation_passes_through_knots():
    # peaks on exact grid times, so grid points coincide with knots
    beats = make_beats(n=40, period=0.8, t0=0.4)
    values = np.array([1.0 + 0.2 * math.sin(t) for t in beats.t_peak])
    beats = replace(beats, v_peak=values + beats.v_foot)
    rivs = extract(beats, beats.t_peak[-1])
    times = rivs.times
    for t_peak, value in zip(beats.t_peak, values):
        idx = int(round((t_peak - rivs.t0) / GRID_STEP_S))
        assert abs(times[idx] - t_peak) < 1e-9
        assert rivs.values[RIAV, idx] == pytest.approx(value, abs=1e-9)


def test_rifv_linear_interpolation_between_knots():
    beats = make_beats(n=4, period=0.75, t0=0.75)
    # periods (0.75, 0.75, 0.80): stretch the final peak
    beats = edit_beat(beats, 3, t_peak=beats.t_peak[2] + 0.80, period=0.80)
    rivs = extract(beats, beats.t_peak[3])
    times, rifv = rivs.times, rivs.values[RIFV]
    expected = np.interp(times, beats.t_peak[1:4], [0.75, 0.75, 0.80])
    np.testing.assert_allclose(rifv, expected, atol=1e-12)
    inside = (times >= beats.t_peak[2]) & (times <= beats.t_peak[3])
    assert np.all(rifv[inside] >= 0.75 - 1e-12)
    assert np.all(rifv[inside] <= 0.80 + 1e-12)


def test_constant_train_gives_constant_series():
    beats = make_beats(n=60)
    rivs = extract(beats, beats.t_peak[-1])
    assert rivs.values.shape[0] == len(ALL_KINDS)
    for row in rivs.values:
        assert np.ptp(row) == 0.0


def test_artifact_beats_excluded_and_masked():
    beats = make_beats(n=40)
    beats = edit_beat(beats, 20, v_peak=beats.v_peak[20] + 5.0, rules=RULE_AMPLITUDE)
    rivs = extract(beats, beats.t_peak[-1])
    # the spike is not a knot, so values stay at the clean level
    assert np.ptp(rivs.values[RIIV]) == 0.0
    times = rivs.times
    near = (times > beats.t_peak[19] - 1e-9) & (times < beats.t_peak[21] + 1e-9)
    assert rivs.artifact[near].all()
    assert not rivs.artifact[~near].any()


def test_insufficient_beats():
    beats = make_beats(n=4)
    flagged = replace(beats, rules=np.array([RULE_PERIOD, RULE_CLIPPING, 0, 0], dtype=np.uint8))
    with pytest.raises(InsufficientSignalError, match="^RIIV: only 2 usable beats, need >= 3$"):
        extract(flagged, beats.t_peak[-1])


def test_insufficient_beats_reported_in_kind_order():
    # three beats give three knots to every kind but RIFV: the first beat has no period
    beats = make_beats(n=3)
    with pytest.raises(InsufficientSignalError, match="^RIFV: only 2 usable beats, need >= 3$"):
        extract(beats, beats.t_peak[-1])
    with pytest.raises(InsufficientSignalError, match="^RIIV: only 2 usable beats, need >= 3$"):
        extract(edit_beat(beats, 1, rules=RULE_CLIPPING), beats.t_peak[-1])
    with pytest.raises(InsufficientSignalError, match="^t_end precedes the first beat$"):
        extract(make_beats(n=4), 0.0)


def _window_estimates(rivs, window=5):
    """(rr, ni, reason) of every variation in window 5, [10, 42) s, as rate_windows rates it."""
    table = rate_windows(rivs, 42.0)
    return table.rr[window], table.ni[window], table.reason[window]


def test_single_feature_modulation_isolates_one_series():
    """One modulated beat feature must light up only its own series.

    Exercised at the beat interface: with every other feature analytically
    constant, the four unmatched series are flat, so their window has no
    power to fit and is left unrated ("fit_degenerate", NaN noise index),
    while the matching one scores far above the default gate.
    """
    rr_bpm = 20.0

    def dyadic(m):
        # exactly representable shift so v_peak + s and v_foot + s subtract
        # without rounding dust (the noise index is scale-free, so even
        # 1e-16-level coherent residue would register)
        return np.array([round(0.2 * v * (1 << 20)) / (1 << 20) for v in m])

    features = {
        RivKind.RIIV: lambda b, m: replace(b, v_peak=b.v_peak + dyadic(m), v_foot=b.v_foot + dyadic(m)),
        RivKind.RIAV: lambda b, m: replace(b, v_foot=b.v_peak - 1.0 - 0.2 * m),
        RivKind.RIWV: lambda b, m: replace(b, width50=b.width50 * (1 + 0.2 * m)),
        RivKind.RISV: lambda b, m: replace(b, rise25_75=b.rise25_75 * (1 + 0.2 * m)),
    }
    def check(kind, beats):
        estimates = _window_estimates(extract(beats, beats.t_peak[-1]))
        for probe, rr, ni, reason in zip(ALL_KINDS, *estimates):
            if probe is kind:
                assert reason == "none"
                assert ni > DEFAULT_THRESHOLD
                assert rr == pytest.approx(rr_bpm, abs=0.5)
            else:
                assert reason == "fit_degenerate" and np.isnan(ni)  # never passes a noise-index gate

    for kind, apply in features.items():
        beats = make_beats(n=80)
        check(kind, apply(beats, np.array([math.sin(2 * math.pi * rr_bpm / 60.0 * t) for t in beats.t_peak])))

    # frequency: modulated peak-to-peak periods, every other feature constant
    t_peak, periods, t_pk = [], [], 0.5
    for i in range(80):
        period = 0.75 * (1 + 0.2 * math.sin(2 * math.pi * rr_bpm / 60.0 * t_pk)) if i else None
        t_pk = t_pk + period if period else t_pk
        t_peak.append(t_pk)
        periods.append(period)
    t_peak = np.array(t_peak)
    check(RivKind.RIFV, replace(make_beats(n=80), t_peak=t_peak, t_foot=t_peak - 0.2, period=np.array(periods, dtype=float)))


def test_waveform_single_modulation_series_content():
    """Amplitude-only waveform: RIAV sinusoidal at rr/60, RIFV constant to 1%."""
    record, _ = make_synth(rr=20.0, hr=80.0, duration=240.0, depths=(0.0, 0.2, 0.0, 0.0, 0.0), noise=0.0)
    beats = segment_beats(record)
    rivs = extract(beats, beats.t_peak[-1])
    rr, ni, reason = (column[RIAV] for column in _window_estimates(rivs))
    assert reason == "none"
    assert rr == pytest.approx(20.0, abs=0.5)
    assert ni > DEFAULT_THRESHOLD
    rifv = rivs.values[RIFV]
    assert np.ptp(rifv) / np.mean(rifv) < 0.01
