import functools
import itertools
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from rrcif.preprocess import BeatTable
from rrcif.signal_io import ModDepths, PpgRecord, SynthSpec, synthesize, write_record, write_reference


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
        rules=np.zeros(n, dtype=np.uint8),
    )


def ramp_record(beats):
    """A 100 Hz raw record spanning `beats` whose samples strictly increase, so
    no run is pinned at an extreme and the clipping rule flags no beat."""
    n = int((beats.t_peak[-1] + beats.width50[-1]) * 100.0) + 2
    return PpgRecord("ramp", 100.0, np.arange(n, dtype=float))


def edit_beat(beats, i, **values):
    """A copy of `beats` with the named columns of beat `i` set to `values`."""
    columns = {name: getattr(beats, name).copy() for name in values}
    for name, value in values.items():
        columns[name][i] = value
    return replace(beats, **columns)


@pytest.fixture(scope="session")
def clean_synth():
    return make_synth()


# ---------------------------------------------------------------------------
# File mutations for the fuzzers: a valid record CSV, reference CSV or record
# JSON, mutated at the byte, line or token level.

_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_NUMBER_OR_ARRAY = re.compile(_NUMBER.pattern + rb"|(?<=: )\[[^][]*\]")  # or a flat array that is an object value
_EXTREMES = (b"1e308", b"-1e308", b"1.7e308", b"-1.7e308", b"5e-324")
_WRONG_TYPES = (b'"1"', b"true", b"null", b"{}", b"[]", b"[1, [2]]", b'{"t": [1]}')
_BYTE_MUTATIONS = ("flip", "truncate", "extreme", "bom", "line-ends", "long-field")
_CSV_MUTATIONS = _BYTE_MUTATIONS + ("repeat-time", "decrease-time", "extreme-time")
_TIMESTAMPS = {"repeat-time": [None], "decrease-time": [b"-0.5"], "extreme-time": _EXTREMES}
_JSON_MUTATIONS = _BYTE_MUTATIONS + ("deep", "long-integer", "wrong-type")


@functools.cache
def _fuzz_seeds():
    record, reference = make_synth(duration=40.0, seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        write_record(record, Path(tmp, "rec.csv"), comment="fuzz seed")
        write_reference(reference, Path(tmp, "rec_ref.csv"))
        csv_text, ref_text = Path(tmp, "rec.csv").read_bytes(), Path(tmp, "rec_ref.csv").read_bytes()
    doc = {
        "id": record.id, "fs": record.fs, "samples": record.samples.tolist(),
        "reference": {"t": reference.times_s.tolist(), "rr": reference.rr.tolist()},
    }
    return {"record": csv_text, "reference": ref_text, "json": json.dumps(doc).encode()}


def _replace_token(data, draw, choices, pattern=_NUMBER):
    spans = [m.span() for m in pattern.finditer(data)]
    if not spans:
        return data
    start, end = draw(st.sampled_from(spans))
    return data[:start] + draw(st.sampled_from(choices)) + data[end:]


def _set_timestamps(data, draw, choices):
    """Set the timestamps of two consecutive data rows to values drawn from
    ``choices``, where None repeats the timestamp of the row before."""
    lines = data.split(b"\n")
    rows = [i for i, line in enumerate(lines) if b"," in line and line[:1].isdigit()]
    if len(rows) < 3:
        return data
    first = draw(st.integers(1, len(rows) - 2))
    pair = draw(st.sampled_from(list(itertools.product(choices, repeat=2))))  # one draw, so the two may differ
    for k, value in zip((first, first + 1), pair):
        if value is None:
            value = lines[rows[k - 1]].split(b",")[0]
        lines[rows[k]] = value + lines[rows[k]][lines[rows[k]].index(b",") :]
    return b"\n".join(lines)


@st.composite
def mutated_file(draw, kind):
    """The bytes of a valid file of `kind` (see _fuzz_seeds) after one to three mutations."""
    data = _fuzz_seeds()[kind]
    mutations = _JSON_MUTATIONS if kind == "json" else _CSV_MUTATIONS
    for mutation in draw(st.lists(st.sampled_from(mutations), min_size=1, max_size=3)):
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if mutation == "flip" and data:
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1 :]
        elif mutation == "truncate":
            data = data[:at]
        elif mutation == "extreme":
            data = _replace_token(data, draw, _EXTREMES)
        elif mutation == "bom":
            at = draw(st.sampled_from([0, at]))
            data = data[:at] + b"\xef\xbb\xbf" + data[at:]
        elif mutation == "line-ends":
            data = data[:at] + data[at:].replace(b"\n", draw(st.sampled_from([b"\r\n", b"\r"])))
        elif mutation == "long-field":
            data = _replace_token(data, draw, [b'"' + b"1" * 200_000 + b'"'])
        elif mutation in _TIMESTAMPS:
            data = _set_timestamps(data, draw, _TIMESTAMPS[mutation])
        elif mutation == "deep":
            data = _replace_token(data, draw, [b"[" * depth + b"1" + b"]" * depth for depth in (2, 100, 100_000)])
        elif mutation == "long-integer":
            data = _replace_token(data, draw, [b"1" * 5000])
        elif mutation == "wrong-type":
            data = _replace_token(data, draw, _WRONG_TYPES, _NUMBER_OR_ARRAY)
    return data
