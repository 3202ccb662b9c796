from collections import deque
from dataclasses import replace
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from rrcif.errors import InsufficientSignalError, UnsupportedRateError
from rrcif.preprocess import (
    ARTIFACT_FACTOR,
    ARTIFACT_WINDOW,
    PROMINENCE_FACTOR,
    PROMINENCE_WINDOW,
    REFRACTORY_S,
    Beat,
    _clip_runs,
    _refine_extremum,
    bandpass,
    flag_artifacts,
    segment_beats,
)
from rrcif.signal_io import PpgRecord

from conftest import make_beats, make_synth


def _tone_gain_db(freq_hz, fs=100.0, duration=120.0):
    t = np.arange(0, duration, 1 / fs)
    x = np.sin(2 * np.pi * freq_hz * t)
    y = bandpass(PpgRecord("tone", fs, x + 2.0)).samples
    core = slice(int(10 * fs), int(-10 * fs))  # skip filter edge transients
    return 10 * np.log10(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))


def test_bandpass_drift_attenuated():
    assert _tone_gain_db(0.05) <= -20.0


def test_bandpass_cardiac_preserved():
    assert abs(_tone_gain_db(1.3)) <= 1.0


def test_bandpass_constant_is_zero():
    out = bandpass(PpgRecord("c", 100.0, np.full(4000, 3.3))).samples
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_bandpass_removes_dc():
    record, _ = make_synth(duration=120.0)
    out = bandpass(record).samples
    assert abs(np.mean(out)) <= 1e-6 * np.std(out)
    assert out.size == record.samples.size


def test_bandpass_low_fs_rejected():
    with pytest.raises(UnsupportedRateError):
        bandpass(PpgRecord("x", 20.0, np.ones(100)))


def test_segment_beat_count_matches_heart_rate():
    record, _ = make_synth(rr=15.0, hr=80.0, duration=60.0, depths=(0.0,) * 5, noise=0.0)
    beats = segment_beats(bandpass(record))
    assert abs(len(beats) - 80) <= 1


def test_segment_periods_without_frequency_modulation():
    record, _ = make_synth(rr=15.0, hr=80.0, duration=60.0, depths=(0.1, 0.1, 0.0, 0.1, 0.1), noise=0.0)
    beats = segment_beats(bandpass(record))
    periods = np.array([b.period for b in beats if b.period is not None])
    np.testing.assert_allclose(periods, 0.75, rtol=0.01)


def test_segment_flatline_errors():
    with pytest.raises(InsufficientSignalError):
        segment_beats(bandpass(PpgRecord("flat", 100.0, np.full(6000, 1.0))))


def test_segment_beat_invariants_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(8):
        rr = rng.uniform(6, 40)
        hr = rng.uniform(max(2.2 * rr, 60), 150)
        record, _ = make_synth(
            rr=rr, hr=hr, duration=60.0,
            depths=tuple(rng.uniform(0, 0.2, 5)), noise=rng.uniform(0, 0.05),
            seed=int(rng.integers(1e6)),
        )
        beats = segment_beats(bandpass(record))
        peaks = [b.t_peak for b in beats]
        assert np.all(np.diff(peaks) > 0)
        for b in beats:
            assert b.t_foot < b.t_peak
            assert b.v_peak > b.v_foot
            assert b.width50 > 0
            assert b.rise25_75 > 0


def test_segmentation_stable_under_small_noise():
    base, _ = make_synth(duration=120.0, noise=0.0, seed=5)
    noisy, _ = make_synth(duration=120.0, noise=0.01, seed=5)
    n0 = len(segment_beats(bandpass(base)))
    n1 = len(segment_beats(bandpass(noisy)))
    assert abs(n1 - n0) <= max(1, round(0.02 * n0))


def test_flag_artifacts_clean_synthetic():
    record, _ = make_synth(duration=120.0)
    beats = flag_artifacts(segment_beats(bandpass(record)), record=record)
    assert not any(b.artifact for b in beats)


def test_flag_artifacts_injected_amplitude():
    beats = make_beats(n=30)
    beats[17] = replace(beats[17], v_peak=beats[17].v_foot + 3.0 * (beats[17].v_peak - beats[17].v_foot))
    flagged = flag_artifacts(beats)
    assert [i for i, b in enumerate(flagged) if b.artifact] == [17]


def test_flag_artifacts_identical_beats_zero_flags():
    flagged = flag_artifacts(make_beats(n=25))
    assert not any(b.artifact for b in flagged)


def test_flag_artifacts_idempotent():
    beats = make_beats(n=30)
    beats[5] = replace(beats[5], period=2.0)
    once = flag_artifacts(beats)
    twice = flag_artifacts(once)
    assert [b.artifact for b in once] == [b.artifact for b in twice]


def test_flag_artifacts_clipping_run():
    record, _ = make_synth(duration=60.0, noise=0.01, seed=3)
    samples = record.samples.copy()
    hi = samples.max() + 0.5
    i0 = int(30.0 * record.fs)
    samples[i0 : i0 + 40] = hi  # saturated plateau, well past CLIP_RUN
    clipped_record = PpgRecord(record.id, record.fs, samples)
    beats = segment_beats(bandpass(clipped_record))
    flagged = flag_artifacts(beats, record=clipped_record)
    spanning = [b for b in flagged if b.t_foot <= 30.0 <= b.t_foot + 1.5]
    assert any(b.artifact for b in spanning)


def test_flag_artifacts_needs_three_beats():
    with pytest.raises(InsufficientSignalError):
        flag_artifacts(make_beats(n=2))


# ---------------------------------------------------------------------------
# Per-beat loop oracles. segment_beats finds level crossings for all beats at
# once and flag_artifacts takes running medians over a sliding window; these
# loops are the one-beat-at-a-time versions they replaced, kept as the
# reference the array code must match exactly.


def _cross_up_loop(x, i0, i1, level, fs):
    """Time of the last upward crossing of `level` in x[i0:i1+1], or None."""
    seg = x[i0 : i1 + 1]
    hits = np.flatnonzero((seg[:-1] < level) & (seg[1:] >= level))
    if hits.size == 0:
        return None
    j = i0 + int(hits[-1])
    return (j + (level - x[j]) / (x[j + 1] - x[j])) / fs


def _cross_down_loop(x, i0, i1, level, fs):
    """Time of the first downward crossing of `level` in x[i0:i1+1], or None."""
    seg = x[i0 : i1 + 1]
    hits = np.flatnonzero((seg[:-1] > level) & (seg[1:] <= level))
    if hits.size == 0:
        return None
    j = i0 + int(hits[0])
    return (j + (x[j] - level) / (x[j] - x[j + 1])) / fs


def _segment_beats_loop(filtered):
    x, fs = filtered.samples, filtered.fs
    candidates, props = find_peaks(x, distance=max(1, int(round(REFRACTORY_S * fs))), prominence=1e-12)
    if candidates.size == 0:
        raise InsufficientSignalError("no pulse peaks detected")
    global_median = float(np.median(props["prominences"]))
    recent, accepted = deque(maxlen=PROMINENCE_WINDOW), []
    for idx, prom in zip(candidates, props["prominences"]):
        if prom >= PROMINENCE_FACTOR * (median(recent) if recent else global_median):
            accepted.append(int(idx))
            recent.append(float(prom))
    beats, prev_peak_t = [], None
    for k, pk in enumerate(accepted):
        lo = accepted[k - 1] if k > 0 else 0
        if pk == lo:
            continue
        foot = lo + int(np.argmin(x[lo:pk]))
        t_foot, v_foot = _refine_extremum(x, foot, fs, find_max=False)
        t_peak, v_peak = _refine_extremum(x, pk, fs, find_max=True)
        if v_peak <= v_foot:
            continue
        amp = v_peak - v_foot
        t25 = _cross_up_loop(x, foot, pk, v_foot + 0.25 * amp, fs)
        t50u = _cross_up_loop(x, foot, pk, v_foot + 0.50 * amp, fs)
        t75 = _cross_up_loop(x, foot, pk, v_foot + 0.75 * amp, fs)
        hi = accepted[k + 1] if k + 1 < len(accepted) else x.size - 1
        t50d = _cross_down_loop(x, pk, hi, v_foot + 0.50 * amp, fs)
        if None in (t25, t50u, t75, t50d) or not (t25 <= t75 and t50u < t50d):
            continue
        period = None if prev_peak_t is None else t_peak - prev_peak_t
        beats.append(Beat(t_foot, v_foot, t_peak, v_peak, t50d - t50u, t75 - t25, period))
        prev_peak_t = t_peak
    if len(beats) < 3:
        raise InsufficientSignalError(f"only {len(beats)} beats detected, need >= 3")
    return beats


def _flag_artifacts_loop(beats, record=None):
    amps = np.array([b.v_peak - b.v_foot for b in beats])
    periods = np.array([np.nan if b.period is None else b.period for b in beats])
    clipped = None
    if record is not None:
        runs = _clip_runs(record.samples)
        bounds = [b.t_foot for b in beats] + [beats[-1].t_peak + beats[-1].width50]
        idx = np.clip((np.asarray(bounds) * record.fs).astype(int), 0, record.samples.size)
        clipped = [bool(runs[idx[i] : max(idx[i + 1], idx[i] + 1)].any()) for i in range(len(beats))]
    out = []
    for i, beat in enumerate(beats):
        lo = max(0, i - ARTIFACT_WINDOW)
        flag = False
        if i > lo:
            med = float(np.median(amps[lo:i]))
            if med > 0 and not (1.0 / ARTIFACT_FACTOR <= amps[i] / med <= ARTIFACT_FACTOR):
                flag = True
        prev_periods = periods[lo:i][~np.isnan(periods[lo:i])]
        if beat.period is not None and prev_periods.size:
            med = float(np.median(prev_periods))
            if med > 0 and not (1.0 / ARTIFACT_FACTOR <= beat.period / med <= ARTIFACT_FACTOR):
                flag = True
        out.append(replace(beat, artifact=flag or bool(clipped and clipped[i])))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientSignalError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    fs=st.sampled_from([50.0, 100.0, 125.0, 250.0]),
    rr=st.floats(6.0, 30.0),
    hr_over_rr=st.floats(2.5, 8.0),
    hrv=st.floats(0.0, 0.2),
    noise=st.floats(0.0, 0.3),
    bursts=st.integers(0, 4),
    clip_quantile=st.sampled_from([None, 0.98, 0.9, 0.7]),
)
def test_array_beats_match_loop_oracles(seed, fs, rr, hr_over_rr, hrv, noise, bursts, clip_quantile):
    hr = min(rr * hr_over_rr, 180.0)
    record, _ = make_synth(rr=rr, hr=hr, duration=40.0, fs=fs, depths=(0.1, 0.1, hrv, 0.1, 0.1), noise=noise, seed=seed)
    rng = np.random.default_rng(seed)
    samples = record.samples.copy()
    for _ in range(bursts):  # noise bursts of 1-4 s, one pulse amplitude in sd
        burst = samples[int(rng.integers(samples.size)) :][: int(rng.uniform(1.0, 4.0) * fs)]
        burst += rng.normal(0.0, 1.0, burst.size)
    if clip_quantile is not None:  # saturation pins a run of samples at the global max
        samples = np.minimum(samples, np.quantile(samples, clip_quantile))
    record = PpgRecord(record.id, fs, samples)
    filtered = bandpass(record)
    beats = _outcome(segment_beats, filtered)
    assert beats == _outcome(_segment_beats_loop, filtered)
    if isinstance(beats, list):
        assert flag_artifacts(beats, record=record) == _flag_artifacts_loop(beats, record)
        assert flag_artifacts(beats) == _flag_artifacts_loop(beats)
