"""Per-beat columns pinned from two golden records.

Every column of ``segment_beats(r)`` for the ``clean12`` and ``clipped``
records of ``test_golden``, compared exactly, NaN equal to NaN (the first
beat has no period). The pinned ``artifact`` column is ``rules != 0``:
whether any artifact rule fired.

``tests/data/beats_golden.npz`` was written by running this module as a
script; rewrite it only for a deliberate change of behaviour::

    PYTHONPATH=src:tests python tests/test_beats_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from rrcif.preprocess import segment_beats

from test_golden import build

BEATS_GOLDEN = Path(__file__).parent / "data" / "beats_golden.npz"
RECORDS = ("clean12", "clipped")
COLUMNS = ("t_foot", "v_foot", "t_peak", "v_peak", "width50", "rise25_75", "period", "artifact")


def observe(record):
    beats = segment_beats(record)
    return {name: getattr(beats, name) for name in COLUMNS[:-1]} | {"artifact": beats.rules != 0}


@pytest.fixture(scope="module")
def golden():
    with np.load(BEATS_GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("name", RECORDS)
def test_beats_pinned(name, golden):
    record, _ = build(name)
    got = observe(record)
    for column in COLUMNS:
        want = golden[f"{name}__{column}"]
        assert got[column].dtype == want.dtype, column
        np.testing.assert_array_equal(got[column], want, err_msg=column)


def test_pinned_records_cover_artifacts(golden):
    assert not golden["clean12__artifact"].any()
    assert golden["clipped__artifact"].any()


if __name__ == "__main__":
    arrays = {f"{name}__{column}": value for name in RECORDS for column, value in observe(build(name)[0]).items()}
    BEATS_GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(BEATS_GOLDEN, **arrays)
    print(f"wrote {BEATS_GOLDEN} ({BEATS_GOLDEN.stat().st_size} bytes)")
