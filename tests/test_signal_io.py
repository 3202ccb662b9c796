import json

import numpy as np
import pytest

from rrcif import signal_io
from rrcif.errors import ParseError, RrcifError, ValidationError
from rrcif.signal_io import (
    ModDepths,
    PpgRecord,
    ReferenceRr,
    SynthSpec,
    read_record,
    read_record_json,
    read_reference,
    write_record,
    write_reference,
)

from conftest import make_synth


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
    record, reference = read_record_json(path)
    assert record.fs == 50.0
    assert reference is not None
    assert reference.rr[-1] == 19.0


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


def test_read_reference_nan_time_names_line(tmp_path):
    path = tmp_path / "rec_ref.csv"
    path.write_text("# provenance\nt,rr\n0,12\nnan,13\n")
    with pytest.raises(ValidationError, match="line 4: non-finite timestamp"):
        read_reference(path)


def test_json_nan_fs_rejected(tmp_path):
    path = tmp_path / "rec.json"
    path.write_text('{"id": "r", "fs": NaN, "samples": [0.0, 1.0, 0.0]}')
    with pytest.raises(ValidationError, match="fs"):
        read_record_json(path)


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


# Each body follows a "t,ppg" header. The one-call reader must give what the
# row loop gives: the same values, or the same error type and message.
DIALECTS = {
    "plain": "t,ppg\n0,1.5\n0.01,2.5\n",
    "crlf": "t,ppg\r\n0,1.5\r\n0.01,2.5\r\n",
    "bare-cr": "t,ppg\r0,1.5\r0.01,2.5\r",
    "bom": "\ufefft,ppg\n0,1.5\n0.01,2.5\n",
    "provenance": "# rrcif synth\n# second\nt,ppg\n0,1.5\n0.01,2.5\n",
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


def _outcome(read):
    try:
        return repr(np.asarray(read()).reshape(-1, 2).tolist())
    except RrcifError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(DIALECTS))
def test_column_reader_matches_row_loop(tmp_path, name):
    path = tmp_path / "rec.csv"
    path.write_bytes(DIALECTS[name].encode("utf-8"))
    header = ("t", "ppg")
    fast = _outcome(lambda: signal_io._read_columns(path, header))
    loop = _outcome(lambda: [values for _, values in signal_io._read_csv_rows(path, header)])
    assert fast == loop


def test_clean_csv_skips_row_loop(tmp_path, monkeypatch):
    path = tmp_path / "rec.csv"
    path.write_bytes(("\ufeff# provenance\r\nt,ppg\r\n" + "".join(f"{i / 100},{i % 5}\r\n" for i in range(50))).encode())
    ref_path = tmp_path / "rec_ref.csv"
    ref_path.write_text("# provenance\nt,rr\n0,12\n2,13\n")

    def no_loop(*args, **kwargs):
        raise AssertionError("row loop reached for a clean file")

    monkeypatch.setattr(signal_io, "_read_csv_rows", no_loop)
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
    ],
    ids=["fs-list", "samples-scalar", "reference-2d", "reference-number"],
)
def test_json_wrong_shapes_rejected(tmp_path, obj, error, message):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(error, match=message):
        read_record_json(path)
