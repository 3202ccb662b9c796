"""Golden outputs pinned from acceptance-seed records.

Per record: the rate and noise index of every rated (window, variation)
pair, which pairs are unrated, and the CIF/SF3/SF5 fused rates and retained
flags at t = 0.13. Across records: the 31-row threshold sweep. Refactors of
the spectral, fusion and evaluation layers must reproduce these numbers:
rates and flags exactly, noise indices within 1e-12 and fused rates within
1e-9 breaths/min.

``tests/data/golden.npz`` was written by running this module as a script;
rewrite it only for a deliberate change of behaviour::

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rrcif import evaluation, pipeline
from rrcif.fusion import fuse_estimates
from rrcif.signal_io import PpgRecord

from conftest import make_synth

GOLDEN = Path(__file__).parent / "data" / "golden.npz"
T = 0.13
METHODS = ("cif", "sf3", "sf5")
NI_ATOL = 1e-12
FUSED_ATOL = 1e-9

# name -> make_synth arguments, drawn from the acceptance suite's subjects
RECORDS = {
    "clean12": dict(rr=12.0, hr=74.0, seed=21),
    "fast30": dict(rr=30.0, hr=90.0, seed=42, duration=240.0),
    "lowsnr": dict(rr=20.0, hr=80.0, depths=(0.015,) * 5, noise=0.1, seed=2),
    "norifv": dict(rr=21.0, hr=80.0, depths=(0.1, 0.1, 0.0, 0.1, 0.1), noise=0.1, seed=13, duration=240.0),
    "clipped": dict(rr=16.0, hr=84.0, seed=4, duration=240.0),
}


def _clip_segment(record, start_s=100.0, length_s=5.0, gain=2.0):
    """Amplify one segment and saturate it at the record's own extremes."""
    x = record.samples.copy()
    i0, i1 = int(start_s * record.fs), int((start_s + length_s) * record.fs)
    seg = x[i0:i1]
    x[i0:i1] = np.clip(gain * (seg - seg.mean()) + seg.mean(), x.min(), x.max())
    return PpgRecord(id=record.id, fs=record.fs, samples=x)


def build(name):
    record, reference = make_synth(**RECORDS[name])
    if name == "clipped":
        record = _clip_segment(record)
    return record, reference


def observe(record, reference):
    """The pinned quantities of one record, as a flat dict of arrays."""
    analysis = pipeline.analyze_record(record)
    out = {"rr": analysis.estimates.rr, "ni": analysis.estimates.ni}
    for method in METHODS:
        fusion = fuse_estimates(analysis.estimates, method, T)
        out[f"{method}_rr"] = fusion.rr_fusion
        out[f"{method}_retained"] = fusion.retained
    return out


def sweep_rows(records):
    subjects = [(pipeline.analyze_record(record).estimates, reference) for record, reference in records]
    rows = evaluation.sweep(subjects)
    return np.array([[r.t, r.rmse_p25, r.rmse_median, r.rmse_p75, r.retention_median] for r in rows])


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.fixture(scope="module")
def records():
    return {name: build(name) for name in RECORDS}


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_pinned(name, records, golden):
    got = observe(*records[name])
    rr, ni = golden[f"{name}__rr"], golden[f"{name}__ni"]
    unrated = np.isnan(rr)
    np.testing.assert_array_equal(np.isnan(got["rr"]), unrated)
    np.testing.assert_array_equal(np.isnan(got["ni"]), np.isnan(ni))
    np.testing.assert_array_equal(got["rr"][~unrated], rr[~unrated])
    np.testing.assert_allclose(got["ni"][~unrated], ni[~unrated], rtol=0, atol=NI_ATOL)
    for method in METHODS:
        retained = golden[f"{name}__{method}_retained"]
        np.testing.assert_array_equal(got[f"{method}_retained"], retained)
        np.testing.assert_allclose(
            got[f"{method}_rr"][retained], golden[f"{name}__{method}_rr"][retained], rtol=0, atol=FUSED_ATOL
        )


def test_records_cover_skips(golden):
    """The pinned set includes artifact-skipped and out-of-range pairs."""
    assert np.isnan(golden["clipped__rr"]).sum() > np.isnan(golden["clean12__rr"]).sum()
    assert any(np.isnan(golden[f"{name}__rr"][0]).all() for name in RECORDS)


def test_sweep_pinned(records, golden):
    got = sweep_rows(records.values())
    want = golden["sweep"]
    assert got.shape == want.shape == (31, 5)
    np.testing.assert_array_equal(got[:, 0], want[:, 0])
    np.testing.assert_allclose(got[:, 1:4], want[:, 1:4], rtol=0, atol=FUSED_ATOL)
    np.testing.assert_array_equal(got[:, 4], want[:, 4])


def test_rates_do_not_depend_on_blas_threads(tmp_path):
    """The spectra are BLAS products, and the command keeps a user's OPENBLAS_NUM_THREADS: one or two threads rate alike."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from rrcif import pipeline\n"
        "from test_golden import build\n"
        "table = pipeline.analyze_record(build('clean12')[0]).estimates\n"
        "np.savez(sys.argv[1], rr=table.rr, ni=table.ni, reason=table.reason)\n"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True, timeout=120)
        with np.load(out) as data:
            tables.append(dict(data))
    one, two = tables
    assert (one["reason"] == "none").sum() > 1000
    for name in ("rr", "ni"):
        assert np.array_equal(one[name].view(np.uint64), two[name].view(np.uint64)), name
    np.testing.assert_array_equal(one["reason"], two["reason"])


if __name__ == "__main__":
    built = {name: build(name) for name in RECORDS}
    arrays = {f"{name}__{key}": value for name in RECORDS for key, value in observe(*built[name]).items()}
    arrays["sweep"] = sweep_rows(built.values())
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
