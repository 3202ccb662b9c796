import csv
import json
import os
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcif import signal_io
from rrcif.errors import ParseError, RrcifError, ValidationError
from rrcif.signal_io import (
    ModDepths,
    PpgRecord,
    ReferenceRr,
    SynthSpec,
    list_subjects,
    read_record,
    read_reference,
    read_subject,
    write_record,
    write_reference,
)

from conftest import make_synth, mutated_file

needs_dev_fd = pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")


def _read_whole_subject(path):
    """A subject's record and its reference, as the function read_subject returns gives them."""
    _, read = read_subject(path)
    return read()


def test_read_record_csv(tmp_path):
    path = tmp_path / "rec.csv"
    lines = ["t,ppg"] + [f"{i / 100.0},{np.sin(i / 10.0)}" for i in range(800)]
    path.write_text("\n".join(lines) + "\n")
    rec = read_record(path)
    assert rec.fs == pytest.approx(100.0)
    assert rec.samples.size == 800
    assert rec.duration_s == pytest.approx(8.0)
    assert rec.id == "rec"


def test_read_record_nan_sample(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ppg\n0.0,1.0\n0.01,nan\n0.02,1.0\n")
    with pytest.raises(ValidationError, match="non-finite"):
        read_record(path)


def test_read_record_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ParseError, match="line 1"):
        read_record(path)


def test_read_record_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ppg\n0.0,1.0\n0.01,oops\n")
    with pytest.raises(ParseError, match="line 3"):
        read_record(path)


def test_read_record_nonuniform_step(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ppg\n0.0,1\n0.01,1\n0.03,1\n0.04,1\n")
    with pytest.raises(ValidationError, match="non-uniform"):
        read_record(path)


@pytest.mark.parametrize("t0", [1000.0, 0.01, -0.01, 1e-7])
def test_read_record_clock_must_start_at_zero(tmp_path, t0):
    # window and beat times count from the first sample, as reference times do
    path = tmp_path / "late.csv"
    path.write_text("t,ppg\n" + "".join(f"{t0 + i / 100},{i % 7}\n" for i in range(300)))
    with pytest.raises(ValidationError, match=f"t must start at 0, got first timestamp {t0!r} s"):
        read_record(path)
    path.write_text("t,ppg\n" + "".join(f"{1e-9 + i / 100},{i % 7}\n" for i in range(300)))
    assert read_record(path).fs == pytest.approx(100.0)  # within STEP_TOLERANCE of a step


def test_read_record_decreasing_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ppg\n0.0,1\n0.02,1\n0.01,1\n")
    with pytest.raises(ValidationError, match="increasing"):
        read_record(path)


@pytest.mark.parametrize(
    "text",
    [
        "# provenance\nt,ppg\n0.0,1\n0.01,1\n0.02,1\n0.01,1\n",
        "t,ppg\n0.0,1\n0.01,1\n\n0.02,1\n0.01,1\n",
        't,ppg\n0.0,1\n"0.01\n",1\n0.02,1\n0.01,1\n',
    ],
    ids=["comment", "blank", "quoted-line-break"],
)
def test_read_record_decreasing_time_names_real_line(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="line 6: timestamps not strictly increasing"):
        read_record(path)


def test_read_reference_basic(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("t,rr\n0,20\n2,20\n")
    ref = read_reference(path)
    assert ref.times_s.size == 2
    assert ref.rr[1] == 20.0


def test_read_reference_out_of_range(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("t,rr\n0,150\n")
    with pytest.raises(ValidationError, match=r"\(0, 120\)"):
        read_reference(path)


def test_read_reference_decreasing(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("t,rr\n2,20\n0,20\n")
    with pytest.raises(ValidationError, match="decreasing"):
        read_reference(path)


def test_read_reference_empty_body(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("t,rr\n")
    with pytest.raises(ValidationError, match="no rows"):
        read_reference(path)


def test_record_roundtrip_csv(tmp_path, clean_synth):
    record, _ = clean_synth
    path = tmp_path / "out.csv"
    write_record(record, path)
    back = read_record(path)
    assert back.fs == pytest.approx(record.fs, rel=1e-9)
    np.testing.assert_allclose(back.samples, record.samples, rtol=1e-9)


def test_record_roundtrip_json(tmp_path, clean_synth):
    record, _ = clean_synth
    path = tmp_path / "out.json"
    write_record(record, path)
    back = read_record(path)
    assert back.id == record.id
    np.testing.assert_allclose(back.samples, record.samples, rtol=0, atol=0)


def test_json_embedded_reference(tmp_path):
    path = tmp_path / "rec.json"
    obj = {"id": "s1", "fs": 50.0, "samples": list(np.sin(np.arange(500) / 5.0)),
           "reference": {"t": [0, 2, 4], "rr": [18, 18, 19]}}
    path.write_text(json.dumps(obj))
    record, reference = _read_whole_subject(path)
    assert record.fs == 50.0
    assert reference is not None
    assert reference.rr[-1] == 19.0


def test_read_record_leaves_a_json_reference_unread(tmp_path):
    path = tmp_path / "rec.json"
    obj = {"id": "s1", "fs": 50.0, "samples": [0.0, 1.0, 0.0], "reference": {"t": [0, 2, 1], "rr": [18, 18, 19]}}
    path.write_text(json.dumps(obj))
    assert read_record(path).samples.tolist() == [0.0, 1.0, 0.0]
    record_id, read = read_subject(path)  # the id comes before the reference check
    assert record_id == "s1"
    with pytest.raises(ValidationError, match="decreasing timestamp at row 2"):
        read()


def test_read_subject_csv_reads_the_reference_beside_it(tmp_path):
    record, reference = make_synth(duration=20.0)
    write_record(record, tmp_path / "X.CSV")
    with pytest.raises(RrcifError, match="X.CSV: no matching X_ref.CSV reference"):
        _read_whole_subject(tmp_path / "X.CSV")
    write_reference(reference, tmp_path / "X_ref.CSV")
    got_record, got_reference = _read_whole_subject(tmp_path / "X.CSV")
    assert got_record.samples.tolist() == record.samples.tolist()
    assert got_reference.rr.tolist() == reference.rr.tolist()


def test_list_subjects_leaves_out_only_the_references_of_records(tmp_path):
    names = ["a.csv", "a_ref.csv", "b_ref.csv", "b_ref_ref.csv", "C.JSON", "c_ref.json", "orphan_ref.csv",
             "X.CSV", "X_ref.csv", "Y.Csv", "Y_ref.Csv", "notes.txt"]
    for name in names:
        (tmp_path / name).write_text("")
    # X_ref.csv is not X.CSV's reference, which reference_path spells X_ref.CSV
    assert [p.name for p in list_subjects(tmp_path)] == [
        "C.JSON", "X.CSV", "X_ref.csv", "Y.Csv", "a.csv", "b_ref.csv", "c_ref.json", "orphan_ref.csv"
    ]


def test_read_subject_gives_a_csv_id_before_reading_the_file(tmp_path):
    record_id, read = read_subject(tmp_path / "x_ref.csv")
    assert record_id == "x_ref"
    with pytest.raises(OSError):
        read()


def test_read_subject_json_needs_its_reference(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"id": "s1", "fs": 50.0, "samples": [0.0, 1.0, 0.0], "reference": None}))
    with pytest.raises(RrcifError, match="rec.json: JSON record has no embedded reference"):
        _read_whole_subject(path)


def test_reference_roundtrip(tmp_path):
    ref = ReferenceRr(np.array([0.0, 2.0, 4.0]), np.array([20.0, 21.0, 22.0]))
    path = tmp_path / "ref.csv"
    write_reference(ref, path)
    back = read_reference(path)
    np.testing.assert_allclose(back.rr, ref.rr, rtol=1e-12)


def test_synth_determinism():
    r1, _ = make_synth(noise=0.05, seed=42)
    r2, _ = make_synth(noise=0.05, seed=42)
    r3, _ = make_synth(noise=0.05, seed=43)
    np.testing.assert_array_equal(r1.samples, r2.samples)
    assert not np.array_equal(r1.samples, r3.samples)


def test_synth_reference_is_constant_every_2s():
    _, ref = make_synth(rr=17.0, duration=100.0)
    np.testing.assert_array_equal(ref.rr, 17.0)
    np.testing.assert_allclose(np.diff(ref.times_s), 2.0)
    assert ref.times_s[0] == 0.0


def test_synth_no_modulation_is_periodic():
    record, _ = make_synth(depths=(0.0,) * 5, noise=0.0, duration=60.0, hr=80.0)
    x = record.samples
    lag = int(round(0.75 * record.fs))  # one beat
    mid = slice(5 * lag, 40 * lag)
    np.testing.assert_allclose(x[mid.start + lag : mid.stop + lag], x[mid], atol=1e-9)


def test_synth_validation():
    with pytest.raises(ValidationError):
        SynthSpec(rr=3.0, hr=70.0)
    with pytest.raises(ValidationError):
        SynthSpec(rr=40.0, hr=80.0)  # hr must exceed 2*rr
    with pytest.raises(ValidationError):
        ModDepths(intensity=1.5)
    with pytest.raises(ValidationError):
        SynthSpec(rr=20.0, hr=80.0, noise_sd=-0.1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ModDepths(frequency=1.0),
        lambda: SynthSpec(rr=15.0, hr=70.0, duration_s=60.0, depths=ModDepths(frequency=1.0 - 1e-12)),
        lambda: SynthSpec(rr=15.0, hr=70.0, noise_sd=0.1, seed=-1),
    ],
    ids=["frequency-depth-1", "frequency-depth-near-1", "negative-seed"],
)
def test_synth_spec_rejects_runaway_beat_loops_and_negative_seeds(build):
    # constructor only: at frequency depth 1, or near it, the beat loop would not finish
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "field",
    [{"hr": float("nan")}, {"hr": float("inf")}, {"duration_s": float("nan")}, {"duration_s": float("inf")},
     {"fs": float("nan")}, {"noise_sd": float("nan")}],
    ids=["hr-nan", "hr-inf", "duration-nan", "duration-inf", "fs-nan", "noise-nan"],
)
def test_synth_spec_rejects_non_finite(field):
    # constructor only: synthesize() with such a spec would never finish its beat loop
    with pytest.raises(ValidationError):
        SynthSpec(rr=20.0, **{"hr": 80.0, **field})


def test_read_record_nan_timestamp_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,ppg\n0.0,1.0\nnan,1.0\n0.02,1.0\n")
    with pytest.raises(ValidationError, match="line 3: non-finite timestamp"):
        read_record(path)


def test_reference_nan_time_rejected():
    with pytest.raises(ValidationError, match="non-finite timestamp"):
        ReferenceRr(np.array([0.0, np.nan, 4.0]), np.full(3, 20.0))


@pytest.mark.parametrize(
    "times, rates, message",
    [([0.0, 2.0], [20.0], "t and rr lengths differ"), ([], [], "reference: empty")],
    ids=["unequal-lengths", "empty"],
)
def test_reference_rejects_unpaired_or_no_rows(times, rates, message):
    with pytest.raises(ValidationError, match=message):
        ReferenceRr(np.array(times), np.array(rates))


def test_read_reference_nan_time_names_line(tmp_path):
    path = tmp_path / "rec_ref.csv"
    path.write_text("# provenance\nt,rr\n0,12\nnan,13\n")
    with pytest.raises(ValidationError, match="line 4: non-finite timestamp"):
        read_reference(path)


def test_json_nan_fs_rejected(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text('{"id": "r", "fs": NaN, "samples": [0.0, 1.0, 0.0]}')
    with pytest.raises(ValidationError, match="fs"):
        read_record(path)


def test_record_validation():
    with pytest.raises(ValidationError):
        PpgRecord("x", -1.0, np.ones(10))
    with pytest.raises(ValidationError):
        PpgRecord("x", 100.0, np.array([]))
    with pytest.raises(ValidationError):
        PpgRecord("x", 100.0, np.array([1.0, np.inf]))


def test_duration_exact():
    rec = PpgRecord("x", 100.0, np.ones(480 * 100))
    assert rec.duration_s == 480.0


@st.composite
def _caller_array(draw, values):
    """A caller's writeable float64 array of the drawn ``values``, and its
    base: the array itself, or a larger array of which it is a strided view."""
    values = np.array(values, dtype=float)
    if not draw(st.booleans()):
        return values, values
    step, offset = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    base = np.zeros(offset + step * values.size)
    view = base[offset::step]
    view[:] = values
    return view, base


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_record_and_reference_own_read_only_copies_of_their_arrays(data):
    n = data.draw(st.integers(1, 12))
    samples = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    times = sorted(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
    rates = data.draw(st.lists(st.floats(1.0, 119.0), min_size=n, max_size=n))
    given_arrays = [data.draw(_caller_array(v)) for v in (samples, times, rates)]
    (s, s_base), (t, t_base), (r, r_base) = given_arrays
    record = PpgRecord("x", 100.0, s)
    reference = ReferenceRr(t, r)
    for a, _ in given_arrays:
        assert a.flags.writeable
    for a, base in given_arrays:
        a[0] = 500.0
        base[-1] = 500.0
    assert record.samples.tolist() == samples
    assert reference.times_s.tolist() == times
    assert reference.rr.tolist() == rates
    for stored in (record.samples, reference.times_s, reference.rr):
        assert not stored.flags.writeable
        assert stored.flags.c_contiguous
        assert stored.dtype == np.float64


# Each body follows a "t,ppg" header. The one-call reader must give what the
# row loop gives (the same values, or the same error type and message), and
# the same bytes must read alike from every source.
DIALECTS = {
    "plain": "t,ppg\n0,1.5\n0.01,2.5\n",
    "crlf": "t,ppg\r\n0,1.5\r\n0.01,2.5\r\n",
    "bare-cr": "t,ppg\r0,1.5\r0.01,2.5\r",
    "bom": "\ufefft,ppg\n0,1.5\n0.01,2.5\n",
    "provenance": "# rrcif synth\n# second\nt,ppg\n0,1.5\n0.01,2.5\n",
    "bare-cr-provenance": "# a\r# b\rt,ppg\r0,1.5\r0.01,2.5\r",
    "quoted-header-line-break": '"t\n",ppg\n0,1.5\n0.01,2.5\n',
    "blank-lines": "t,ppg\n\n0,1.5\n\n\n0.01,2.5\n\n",
    "whitespace-lines": "t,ppg\n0,1.5\n   \n\t\n0.01,2.5\n",
    "padded-fields": "t,ppg\n 0 , 1.5\t\n0.01,2.5\n",
    "quoted": 't,ppg\n"0","1.5"\n0.01,2.5\n',
    "underscore": "t,ppg\n0,1_0\n0.01,2.5\n",
    "special-values": "t,ppg\n0,inf\n0.01,-Infinity\n0.02,+1e3\n",
    "trailing-empty-field": "t,ppg\n0,1.5,\n0.01,2.5,\n",
    "three-columns": "t,ppg\n0,1.5,7\n0.01,2.5,7\n",
    "one-column": "t,ppg\n0\n0.01\n",
    "empty-field": "t,ppg\n0,1.5\n0.01,\n",
    "non-numeric": "t,ppg\n0,1.5\n0.01,oops\n",
    "quoted-line-break": 't,ppg\n"0\n",1.5\n0.01,oops\n',
    "body-comment": "t,ppg\n0,1.5\n# note\n0.01,2.5\n",
    "header-only": "t,ppg\n",
    "empty": "",
    "bad-header": "time,ppg\n0,1.5\n",
    "no-final-newline": "t,ppg\n0,1.5\n0.01,2.5",
    "nan-time": "t,ppg\n0,1.5\nnan,2.5\n0.02,1\n",
    "nan-time-then-parse-error": "t,ppg\n0,1.5\nnan,2.5\n0.02,x\n",
}


def _outcome(read, path):
    """The values ``read`` returns, or its error's type and message with
    ``path`` written as ``<path>``."""
    try:
        return repr(np.asarray(read()).reshape(-1, 2).tolist())
    except RrcifError as exc:
        return type(exc), str(exc).replace(str(path), "<path>")


def _through_pipe(data: bytes, read):
    """``read("/dev/fd/N")`` with ``data`` written to that pipe by another thread."""
    read_fd, write_fd = os.pipe()

    def write():
        try:
            with open(write_fd, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read(f"/dev/fd/{read_fd}")
    finally:
        os.close(read_fd)  # a writer still blocked on a full pipe then fails and ends
        writer.join(timeout=30)
        assert not writer.is_alive()


def _row_loop(path, header):
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        signal_io._read_header(reader, path, header)
        return signal_io._rows(reader, path, len(header), False)


@pytest.mark.parametrize("name", sorted(DIALECTS))
def test_column_reader_matches_row_loop(tmp_path, name):
    # A regular file is parsed from its path; a file whose suffix loadtxt
    # takes for a compression format, and a pipe, from the text already read.
    data = DIALECTS[name].encode("utf-8")
    path, gz = tmp_path / "rec.csv", tmp_path / "rec.gz"
    path.write_bytes(data)
    gz.write_bytes(data)
    header = ("t", "ppg")

    def columns(source):
        return _outcome(lambda: signal_io._read_columns(Path(source), header), source)

    got = {"file": columns(path), "gz-suffix": columns(gz)}
    if Path("/dev/fd").is_dir():
        got["pipe"] = _through_pipe(data, columns)
    assert got == dict.fromkeys(got, _outcome(lambda: _row_loop(path, header), path))


@needs_dev_fd
def test_record_reads_alike_from_a_pipe_and_under_a_compression_suffix(tmp_path):
    record, _ = make_synth(duration=40.0, seed=1)  # about 100 kB, more than a pipe holds
    write_record(record, tmp_path / "rec.csv")
    text = (tmp_path / "rec.csv").read_bytes()
    (tmp_path / "rec.gz").write_bytes(text)
    assert read_record(tmp_path / "rec.gz").samples.tolist() == record.samples.tolist()
    assert _through_pipe(text, read_record).samples.tolist() == record.samples.tolist()


@needs_dev_fd
@pytest.mark.parametrize("head", ["t,ppg\n0,1\n", "t,ppg\n0,1\n0.01,x\n"], ids=["valid-rows", "malformed-row"])
def test_byte_deep_in_the_body_that_is_not_utf8_is_named_in_every_route(tmp_path, head):
    # the 0xff byte lies about 200 kB in, far past what reading the header decodes
    body = "".join(f"{0.01 * i:.2f},1\n" for i in range(2, 20_000))
    data = (head + body).encode("utf-8") + b"200,\xff\n"
    path, gz = tmp_path / "rec.csv", tmp_path / "rec.gz"
    path.write_bytes(data)
    gz.write_bytes(data)

    def outcome(source):
        return _outcome(lambda: read_record(Path(source)), source)

    expected = (ParseError, "<path>: not UTF-8 text: invalid start byte 0xff")
    assert outcome(path) == outcome(gz) == _through_pipe(data, outcome) == expected


def test_parse_error_after_a_non_increasing_timestamp_is_named_first(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,ppg\n0,1\n0.01,2\n0.01,3\n0.03,x\n")
    with pytest.raises(ParseError, match="line 5: non-numeric"):
        read_record(path)


@pytest.mark.parametrize(
    "text, line",
    [('t,ppg\n0,1\n0.01,"' + "1" * 200_000 + '"\n', 3), ('"' + "t" * 200_000 + '",ppg\n0,1\n', 1)],
    ids=["body", "header"],
)
def test_field_over_the_csv_limit_is_a_parse_error(tmp_path, text, line):
    path = tmp_path / "rec.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"line {line}: field larger than field limit"):
        read_record(path)


def test_overflowing_timestamp_step_is_rejected_without_a_warning(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("t,ppg\n-1.7e308,1\n1.7e308,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="timestamp step inf is not finite"):
            read_record(path)
    ref_path = tmp_path / "rec_ref.csv"
    ref_path.write_text("t,rr\n-1.7e308,12\n1.7e308,12\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="negative timestamp"):
            read_reference(ref_path)


@pytest.mark.parametrize(
    "text",
    ['{"id": "r", "fs": 100, "samples": ' + "[" * 100_000 + "]" * 100_000 + "}",
     '{"id": "r", "fs": ' + "1" * 5000 + ', "samples": [0.0, 1.0]}'],
    ids=["deep-nesting", "long-integer"],
)
def test_json_past_the_decoder_limits_is_a_parse_error(tmp_path, text):
    path = tmp_path / "rec.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="invalid JSON"):
        read_record(path)


def test_clean_csv_skips_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "rec.csv"
    path.write_bytes(("\ufeff# provenance\r\nt,ppg\r\n" + "".join(f"{i / 100},{i % 5}\r\n" for i in range(50))).encode())
    ref_path = tmp_path / "rec_ref.csv"
    ref_path.write_text("# provenance\nt,rr\n0,12\n2,13\n")

    def no_loop(*args, **kwargs):
        raise AssertionError("row loop reached for a clean file")

    monkeypatch.setattr(signal_io, "_rows", no_loop)
    record = read_record(path)
    assert record.samples.size == 50 and record.fs == pytest.approx(100.0)
    assert read_reference(ref_path).rr.tolist() == [12.0, 13.0]


@pytest.mark.parametrize(
    "obj, error, message",
    [
        ({"id": "r", "fs": [100, 50], "samples": [0.0, 1.0]}, ParseError, "fs must be a number"),
        ({"id": "r", "fs": 100, "samples": 5}, ValidationError, "1-D"),
        ({"id": "r", "fs": 100, "samples": [0.0, 1.0], "reference": {"t": [[0, 2]], "rr": [[12, 12]]}}, ValidationError, "1-D"),
        ({"id": "r", "fs": 100, "samples": [0.0, 1.0], "reference": 5}, ParseError, "reference must hold"),
        ({"id": "r", "fs": "100", "samples": [0.0, 1.0]}, ParseError, 'non-numeric value: "100"'),
        ({"id": "r", "fs": True, "samples": [0.0, 1.0]}, ParseError, "non-numeric value: true"),
        ({"id": "r", "fs": 100, "samples": ["1.5", True, "2e0"]}, ParseError, 'non-numeric value: "1.5"'),
        ({"id": "r", "fs": 100, "samples": [1.5, True, 2.0]}, ParseError, "non-numeric value: true"),
        ({"id": "r", "fs": 100, "samples": [0.0, 1.0], "reference": {"t": [0, "2"], "rr": [12, 12]}}, ParseError, 'non-numeric value: "2"'),
        ({"id": "r", "fs": 100, "samples": [0.0, 1.0], "reference": {"t": [0, 2], "rr": [12, False]}}, ParseError, "non-numeric value: false"),
    ],
    ids=[
        "fs-list", "samples-scalar", "reference-2d", "reference-number", "fs-string", "fs-boolean",
        "samples-strings", "samples-boolean", "reference-t-string", "reference-rr-boolean",
    ],
)
def test_json_wrong_shapes_rejected(tmp_path, obj, error, message):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(error, match=message):
        _read_whole_subject(path)


# ---------------------------------------------------------------------------
# Reader fuzzer: valid record CSV, reference CSV and record JSON files, each
# mutated by conftest's mutated_file, must read alike from a regular file and
# from a pipe, and give a result or an RrcifError without a warning.


def _read_outcome(read, source):
    """What ``read(source)`` gives, and the warnings it raised. The source's
    path is left out, and so is a CSV record's id, which is its file name."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = read(source)
        except RrcifError as exc:
            message = str(exc).replace(str(source), "<path>")
            value = (type(exc).__name__, message.replace(f"record {Path(source).stem!r}", "record <id>"))
    if isinstance(value, tuple) and isinstance(value[0], PpgRecord):  # record JSON
        record, reference = value
        value = (record.id, record.fs, record.samples.tobytes(), reference.times_s.tobytes(), reference.rr.tobytes())
    elif isinstance(value, PpgRecord):
        value = (value.fs, value.samples.tobytes())
    elif isinstance(value, ReferenceRr):
        value = (value.times_s.tobytes(), value.rr.tobytes())
    return value, [str(w.message) for w in caught]


@needs_dev_fd
@pytest.mark.parametrize(
    "kind, read",
    [("record", read_record), ("reference", read_reference), ("json", _read_whole_subject)],
    ids=["record-csv", "reference-csv", "record-json"],
)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_readers_give_a_result_or_an_error_alike_from_a_file_and_a_pipe(kind, read, data):
    text = data.draw(mutated_file(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "rec.json" if kind == "json" else "rec.csv")
        path.write_bytes(text)
        from_file = _read_outcome(read, path)

        def read_pipe(source):
            if kind != "json":
                return _read_outcome(read, source)
            link = Path(tmp, "pipe.json")  # read_subject knows a record JSON by its suffix
            link.symlink_to(source)
            return _read_outcome(read, link)

        from_pipe = _through_pipe(text, read_pipe)
    assert from_file[1] == []
    assert from_file == from_pipe
