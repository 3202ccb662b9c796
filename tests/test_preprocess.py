import importlib
import importlib.machinery
import sys
from collections import deque
from statistics import median

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from rrcif import _sigkernels
from rrcif.errors import InsufficientSignalError, UnsupportedRateError
from rrcif.preprocess import (
    ARTIFACT_FACTOR,
    ARTIFACT_WINDOW,
    BAND_HZ,
    CLIP_RUN,
    FILTER_ORDER,
    MAX_FS_HZ,
    MIN_FS_HZ,
    PROMINENCE_FACTOR,
    PROMINENCE_WINDOW,
    REFRACTORY_S,
    RULE_AMPLITUDE,
    RULE_CLIPPING,
    RULE_PERIOD,
    BeatTable,
    _clip_runs,
    _refine_extremum,
    bandpass,
    flag_artifacts,
    segment_beats,
)
from rrcif.signal_io import PpgRecord

from conftest import edit_beat, make_beats, make_synth, ramp_record


def _tone_gain_db(freq_hz, fs=100.0, duration=120.0):
    t = np.arange(0, duration, 1 / fs)
    x = np.sin(2 * np.pi * freq_hz * t)
    y = bandpass(PpgRecord("tone", fs, x + 2.0))
    core = slice(int(10 * fs), int(-10 * fs))  # skip filter edge transients
    return 10 * np.log10(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))


def test_bandpass_drift_attenuated():
    assert _tone_gain_db(0.05) <= -20.0


def test_bandpass_cardiac_preserved():
    assert abs(_tone_gain_db(1.3)) <= 1.0


def test_bandpass_constant_is_zero():
    # 3.3 is not exactly representable, so subtracting the mean leaves a
    # rounding residue of about 1e-16, above MIN_ABS_FILTERED
    out = bandpass(PpgRecord("c", 100.0, np.full(4000, 3.3)))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("value", [0.0, 4.0])
def test_bandpass_exact_constant_rejected(value):
    with pytest.raises(InsufficientSignalError, match=r"below 2\*\*-400"):
        bandpass(PpgRecord("c", 100.0, np.full(4000, value)))


def test_bandpass_removes_dc():
    record, _ = make_synth(duration=120.0)
    out = bandpass(record)
    assert abs(np.mean(out)) <= 1e-6 * np.std(out)
    assert out.size == record.samples.size


def test_bandpass_low_fs_rejected():
    with pytest.raises(UnsupportedRateError):
        bandpass(PpgRecord("x", 20.0, np.ones(100)))


def test_bandpass_fs_above_maximum_rejected():
    tone = np.sin(2 * np.pi * 1.2 * np.arange(3000) / MAX_FS_HZ)
    assert np.all(np.isfinite(bandpass(PpgRecord("x", MAX_FS_HZ, tone))))
    # at 1e9 Hz sosfiltfilt itself fails with a singular matrix
    with pytest.raises(UnsupportedRateError, match="10000 Hz maximum"):
        bandpass(PpgRecord("x", 1e9, tone))


def test_segment_beat_count_matches_heart_rate():
    record, _ = make_synth(rr=15.0, hr=80.0, duration=60.0, depths=(0.0,) * 5, noise=0.0)
    beats = segment_beats(record)
    assert abs(len(beats) - 80) <= 1


def test_segment_periods_without_frequency_modulation():
    record, _ = make_synth(rr=15.0, hr=80.0, duration=60.0, depths=(0.1, 0.1, 0.0, 0.1, 0.1), noise=0.0)
    beats = segment_beats(record)
    np.testing.assert_allclose(beats.period[1:], 0.75, rtol=0.01)


def test_segment_flatline_errors():
    with pytest.raises(InsufficientSignalError):
        segment_beats(PpgRecord("flat", 100.0, np.full(6000, 1.0)))


def test_segment_single_step_has_no_peaks():
    # the band-passed step has no interior local maximum for find_peaks to take
    with pytest.raises(InsufficientSignalError, match="^no pulse peaks detected$"):
        segment_beats(PpgRecord("step", 100.0, np.r_[np.zeros(21), 1.0]))


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
        beats = segment_beats(record)
        assert np.all(np.diff(beats.t_peak) > 0)
        assert np.all(beats.t_foot < beats.t_peak)
        assert np.all(beats.v_peak > beats.v_foot)
        assert np.all(beats.width50 > 0)
        assert np.all(beats.rise25_75 > 0)


def test_segmentation_stable_under_small_noise():
    base, _ = make_synth(duration=120.0, noise=0.0, seed=5)
    noisy, _ = make_synth(duration=120.0, noise=0.01, seed=5)
    n0 = len(segment_beats(base))
    n1 = len(segment_beats(noisy))
    assert abs(n1 - n0) <= max(1, round(0.02 * n0))


def test_flag_artifacts_clean_synthetic():
    record, _ = make_synth(duration=120.0)
    assert not segment_beats(record).rules.any()


def test_flag_artifacts_injected_amplitude():
    beats = make_beats(n=30)
    beats = edit_beat(beats, 17, v_peak=beats.v_foot[17] + 3.0 * (beats.v_peak[17] - beats.v_foot[17]))
    flagged = flag_artifacts(beats, ramp_record(beats))
    assert np.flatnonzero(flagged.rules).tolist() == [17]


def test_flag_artifacts_identical_beats_zero_flags():
    beats = make_beats(n=25)
    flagged = flag_artifacts(beats, ramp_record(beats))
    assert not flagged.rules.any()


def test_flag_artifacts_idempotent():
    beats = edit_beat(make_beats(n=30), 5, period=2.0)
    record = ramp_record(beats)
    once = flag_artifacts(beats, record)
    twice = flag_artifacts(once, record)
    assert once.rules.tolist() == twice.rules.tolist()


def test_flag_artifacts_clipping_run():
    record, _ = make_synth(duration=60.0, noise=0.01, seed=3)
    samples = record.samples.copy()
    hi = samples.max() + 0.5
    i0 = int(30.0 * record.fs)
    samples[i0 : i0 + 40] = hi  # saturated plateau, well past CLIP_RUN
    clipped_record = PpgRecord(record.id, record.fs, samples)
    flagged = segment_beats(clipped_record)
    spanning = (flagged.t_foot <= 30.0) & (30.0 <= flagged.t_foot + 1.5)
    assert flagged.rules[spanning].any()


@pytest.mark.parametrize("rule", [RULE_PERIOD, RULE_AMPLITUDE, RULE_CLIPPING])
def test_each_artifact_rule_sets_only_its_bit(rule):
    beats = make_beats(n=30)
    record = ramp_record(beats)
    if rule == RULE_PERIOD:
        beats = edit_beat(beats, 17, period=2.0)
    elif rule == RULE_AMPLITUDE:
        beats = edit_beat(beats, 17, v_peak=beats.v_foot[17] + 3.0)
    else:  # CLIP_RUN samples inside beat 17 pinned at the record's global max
        samples = record.samples.copy()
        i = int((beats.t_foot[17] + 0.1) * record.fs)
        samples[i : i + CLIP_RUN] = samples.max()
        record = PpgRecord(record.id, record.fs, samples)
    rules = flag_artifacts(beats, record).rules
    assert rules.dtype == np.uint8
    assert rules.tolist() == [rule if i == 17 else 0 for i in range(len(beats))]


def test_flag_artifacts_needs_three_beats():
    beats = make_beats(n=2)
    with pytest.raises(InsufficientSignalError):
        flag_artifacts(beats, ramp_record(beats))


# ---------------------------------------------------------------------------
# Per-beat loop oracles. segment_beats refines extrema and finds level
# crossings for all beats at once, flag_artifacts takes running medians over a
# sliding window and _clip_runs measures every run at once; these loops are the
# one-beat-at-a-time (or one-sample-at-a-time) versions they replaced, kept as
# the reference the array code must match exactly.

BEAT_COLUMNS = ("t_foot", "v_foot", "t_peak", "v_peak", "width50", "rise25_75", "period")


def _refine_extremum_loop(x, i, fs, find_max):
    """Sub-sample extremum location/value via a parabola through 3 samples."""
    if i <= 0 or i >= x.size - 1:
        return i / fs, float(x[i])
    y0, y1, y2 = x[i - 1], x[i], x[i + 1]
    curvature = y0 - 2.0 * y1 + y2
    if curvature == 0 or (curvature > 0) == find_max:
        return i / fs, float(y1)
    delta = 0.5 * (y0 - y2) / curvature
    if abs(delta) > 1.0:
        return i / fs, float(y1)
    return (i + delta) / fs, float(y1 - 0.25 * (y0 - y2) * delta)


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


def _segment_beats_loop(record):
    """Per-beat rows in BEAT_COLUMNS order, None for the first beat's period."""
    x, fs = bandpass(record), record.fs
    candidates, props = find_peaks(x, distance=max(1, int(round(REFRACTORY_S * fs))), prominence=0)
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
        t_foot, v_foot = _refine_extremum_loop(x, foot, fs, find_max=False)
        t_peak, v_peak = _refine_extremum_loop(x, pk, fs, find_max=True)
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
        beats.append((t_foot, v_foot, t_peak, v_peak, t50d - t50u, t75 - t25, period))
        prev_peak_t = t_peak
    if len(beats) < 3:
        raise InsufficientSignalError(f"only {len(beats)} beats detected, need >= 3")
    return beats


def _flag_artifacts_loop(beats, record):
    """Per-beat artifact rule bits of a beat table, as a list of ints."""
    amps = beats.v_peak - beats.v_foot
    periods = beats.period
    runs = _clip_runs(record.samples)
    bounds = beats.t_foot.tolist() + [beats.t_peak[-1] + beats.width50[-1]]
    idx = np.clip((np.asarray(bounds) * record.fs).astype(int), 0, record.samples.size)
    clipped = [bool(runs[idx[i] : max(idx[i + 1], idx[i] + 1)].any()) for i in range(len(beats))]
    out = []
    for i in range(len(beats)):
        lo = max(0, i - ARTIFACT_WINDOW)
        rules = RULE_CLIPPING if clipped[i] else 0
        if i > lo:
            med = float(np.median(amps[lo:i]))
            if med > 0 and not (1.0 / ARTIFACT_FACTOR <= amps[i] / med <= ARTIFACT_FACTOR):
                rules |= RULE_AMPLITUDE
        prev_periods = periods[lo:i][~np.isnan(periods[lo:i])]
        if not np.isnan(periods[i]) and prev_periods.size:
            med = float(np.median(prev_periods))
            if med > 0 and not (1.0 / ARTIFACT_FACTOR <= periods[i] / med <= ARTIFACT_FACTOR):
                rules |= RULE_PERIOD
        out.append(rules)
    return out


def _clip_runs_loop(raw):
    """Per sample: pinned at the global min or max, in a run of >= CLIP_RUN pinned samples."""
    pinned = [v == raw.max() or v == raw.min() for v in raw]
    mask = []
    for k in range(len(raw)):
        lo = hi = k
        while lo > 0 and pinned[lo - 1]:
            lo -= 1
        while hi < len(raw) - 1 and pinned[hi + 1]:
            hi += 1
        mask.append(pinned[k] and hi - lo + 1 >= CLIP_RUN)
    return mask


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientSignalError as exc:
        return str(exc)


def _assert_table(beats, rows, rules):
    """`beats` holds exactly the oracle's rows and rule bits, NaN where a row has no period."""
    assert isinstance(beats, BeatTable)
    for name, column in zip(BEAT_COLUMNS, zip(*rows)):
        np.testing.assert_array_equal(getattr(beats, name), np.array(column, dtype=float), err_msg=name, strict=True)
    np.testing.assert_array_equal(beats.rules, np.array(rules, dtype=np.uint8), strict=True)


# The stress inputs of the oracle and invariant tests below.
STRESS = dict(
    seed=st.integers(0, 2**16),
    fs=st.sampled_from([50.0, 100.0, 125.0, 250.0]),
    rr=st.floats(6.0, 30.0),
    hr_over_rr=st.floats(2.5, 8.0),
    hrv=st.floats(0.0, 0.2),
    noise=st.floats(0.0, 0.3),
    bursts=st.integers(0, 4),
    clip_quantile=st.sampled_from([None, 0.98, 0.9, 0.7]),
)


def _stress_record(seed, fs, rr, hr_over_rr, hrv, noise, bursts, clip_quantile):
    hr = min(rr * hr_over_rr, 180.0)
    record, _ = make_synth(rr=rr, hr=hr, duration=40.0, fs=fs, depths=(0.1, 0.1, hrv, 0.1, 0.1), noise=noise, seed=seed)
    rng = np.random.default_rng(seed)
    samples = record.samples.copy()
    for _ in range(bursts):  # noise bursts of 1-4 s, one pulse amplitude in sd
        burst = samples[int(rng.integers(samples.size)) :][: int(rng.uniform(1.0, 4.0) * fs)]
        burst += rng.normal(0.0, 1.0, burst.size)
    if clip_quantile is not None:  # saturation pins a run of samples at the global max
        samples = np.minimum(samples, np.quantile(samples, clip_quantile))
    return PpgRecord(record.id, fs, samples)


@settings(max_examples=30, deadline=None)
@given(**STRESS)
def test_array_beats_match_loop_oracles(seed, fs, rr, hr_over_rr, hrv, noise, bursts, clip_quantile):
    record = _stress_record(seed, fs, rr, hr_over_rr, hrv, noise, bursts, clip_quantile)
    beats = _outcome(segment_beats, record)
    rows = _outcome(_segment_beats_loop, record)
    if isinstance(rows, str):
        assert beats == rows
        return
    _assert_table(beats, rows, _flag_artifacts_loop(beats, record))


@settings(max_examples=30, deadline=None)
@given(**STRESS)
def test_beat_table_invariants(seed, fs, rr, hr_over_rr, hrv, noise, bursts, clip_quantile):
    record = _stress_record(seed, fs, rr, hr_over_rr, hrv, noise, bursts, clip_quantile)
    beats = _outcome(segment_beats, record)
    if isinstance(beats, str):
        return
    assert {getattr(beats, name).shape for name in (*BEAT_COLUMNS, "rules")} == {(len(beats),)}
    assert np.all(np.diff(beats.t_peak) > 0)
    assert np.isnan(beats.period[0])
    assert np.array_equal(beats.period[1:], np.diff(beats.t_peak))
    assert np.all(beats.t_foot < beats.t_peak)
    assert np.all(beats.v_peak > beats.v_foot)
    again = flag_artifacts(beats, record=record)
    assert np.array_equal(again.rules, beats.rules)
    for name in BEAT_COLUMNS:
        assert np.array_equal(getattr(again, name), getattr(beats, name), equal_nan=True), name


# a small alphabet makes flat and linear triples, so zero curvature and ties are common
_SAMPLE = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-10.0, 10.0, allow_subnormal=False).filter(lambda v: v == 0 or abs(v) > 1e-3),
)


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(_SAMPLE, min_size=1, max_size=30),
    fs=st.sampled_from([25.0, 100.0, 300.0]),
    find_max=st.booleans(),
)
def test_refine_extremum_matches_scalar_oracle(x, fs, find_max):
    x = np.array(x)
    i = np.arange(x.size)  # every index, the first and last included
    t, v = _refine_extremum(x, i, fs, find_max)
    want_t, want_v = np.array([_refine_extremum_loop(x, j, fs, find_max) for j in i]).T
    np.testing.assert_array_equal(t, want_t, strict=True)
    np.testing.assert_array_equal(v, want_v, strict=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
@example([2, 2, 2, 2, 2])  # constant record: every sample is at both extremes
@example([2, 2])
@example([0, 0, 0, 1, 2, 1, 3, 3, 3])  # runs touching both ends
@example([3, 3, 1, 2, 0, 0])  # short runs at both ends
def test_clip_runs_match_run_length_oracle(values):
    raw = np.array(values, dtype=float)
    np.testing.assert_array_equal(_clip_runs(raw), np.array(_clip_runs_loop(raw), dtype=bool), strict=True)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
    assert got.tobytes() == want.tobytes()


def test_kernels_load_from_the_installed_scipy():
    # otherwise the oracle below would compare scipy.signal with itself
    assert len(_sigkernels._load_kernels()) == 4
    assert _sigkernels._sosfilt is sys.modules["scipy.signal._sosfilt"]._sosfilt


@pytest.mark.parametrize(
    "kernels, message",
    [({"_no_such_kernel": {}}, "no _no_such_kernel extension in "),
     ({"_sosfilt": {"_sosfilt": ("sos", "x")}}, r"_sosfilt takes \('sos', 'x', 'zi'\), not \('sos', 'x'\)")],
    ids=["missing-extension", "other-parameters"],
)
def test_kernels_refuse_an_extension_they_do_not_know(monkeypatch, kernels, message):
    monkeypatch.setattr(_sigkernels, "_KERNELS", kernels)
    with pytest.raises(ImportError, match=message):
        _sigkernels._load_kernels()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    fs=st.floats(MIN_FS_HZ, MAX_FS_HZ),
    extra=st.integers(1, 2000),  # samples beyond the filter's edge padding
    step=st.sampled_from([0.0, 0.05, 0.5]),  # a quantization step makes plateaus
    runs=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(2, 60)), max_size=4),  # (start fraction, length)
    seed=st.integers(0, 2**32 - 1),
    distance=st.integers(1, 40),
)
@example(fs=MIN_FS_HZ, extra=1, step=0.0, runs=[], seed=1, distance=1)
@example(fs=MAX_FS_HZ, extra=1, step=0.5, runs=[], seed=2, distance=3)
@example(fs=100.0, extra=1, step=0.0, runs=[(0.0, 60)], seed=3, distance=2)  # a constant record
def test_kernels_equal_scipy_signal_bit_for_bit(fs, extra, step, runs, seed, distance):
    sos = _sigkernels.bandpass_sos(FILTER_ORDER, BAND_HZ, fs)
    _same_bits(sos, scipy.signal.butter(FILTER_ORDER, BAND_HZ, btype="bandpass", output="sos", fs=fs))
    padlen = 3 * (2 * len(sos) + 1)
    n = padlen + extra
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(size=n)) + np.sin(2 * np.pi * 1.2 * np.arange(n) / fs)
    if step:
        x = np.round(x / step) * step
    for start, length in runs:
        i = int(start * (n - 1))
        x[i : i + length] = x[i]
    y = _sigkernels.sosfiltfilt(sos, x, padlen)
    _same_bits(y, scipy.signal.sosfiltfilt(sos, x, padlen=padlen))
    for samples, d in ((x, distance), (y - np.mean(y), max(1, int(round(REFRACTORY_S * fs))))):
        peaks, prominences = _sigkernels.find_peaks(samples, d)
        want, properties = scipy.signal.find_peaks(samples, distance=d, prominence=0)
        _same_bits(peaks, want)
        _same_bits(prominences, properties["prominences"])


class _NoExtensionLoader:
    def __init__(self, *args):
        raise ImportError("extension loading is switched off")


@pytest.mark.parametrize("fs", [MIN_FS_HZ, 100.0, 1000.0])
def test_scipy_signal_fallback_gives_the_same_output(monkeypatch, fs):
    record, _ = make_synth(duration=60.0, fs=fs, noise=0.05, seed=4)
    filtered = bandpass(record)
    beats = segment_beats(record)
    calls = []
    for name in ("butter", "sosfiltfilt", "find_peaks"):
        def spy(*args, _name=name, _real=getattr(scipy.signal, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, name, spy)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(importlib.machinery, "ExtensionFileLoader", _NoExtensionLoader)
            importlib.reload(_sigkernels)
        fallback = bandpass(record)
        fallback_beats = segment_beats(record)
    finally:
        importlib.reload(_sigkernels)
    assert calls == ["butter", "sosfiltfilt", "butter", "sosfiltfilt", "find_peaks"]
    _same_bits(fallback, filtered)
    for name in (*BEAT_COLUMNS, "rules"):
        _same_bits(getattr(fallback_beats, name), getattr(beats, name))
    segment_beats(record)
    assert len(calls) == 5  # the reload restored the compiled path
