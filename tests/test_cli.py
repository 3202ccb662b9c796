import contextlib
import hashlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrcif import DEFAULT_THRESHOLD, T_GRID_DEFAULT, __version__, pipeline, spectral
from rrcif.cli import main
from rrcif.riv import ALL_KINDS, RivKind
from rrcif.signal_io import PpgRecord, read_record, read_reference, write_record

from conftest import make_synth, mutated_file


# sha256 of the `--dump-spectrum 10 riav` file of the seed-1 120 s subject
DUMP_SPECTRUM_SHA256 = "2fd881b39cca93ba4e0afe53f2cbe3a12a43a578f8170da86b137d0546068699"
# sha256 of each `--dump-riv` file of the same subject
DUMP_RIV_SHA256 = {
    "riiv": "862c4dc2f1b633d15cc05a034e990a21b6d924b6c9d3e895dae06305bdfe2d55",
    "riav": "3603635af8d88232eb3220a4b4ca622fd9e13892a7d932b54406b05b2e04e710",
    "rifv": "eac80c6ae82c7909f89f8bfbf63770c1aa198f4b654713e67c4e70ce6fc06e1f",
    "riwv": "7fa3ca7496d99b0449f4e469691b581b0fc025bf0a3c1946ecfed55ac97063a5",
    "risv": "a7d6d1c07d9dac2e81157fdc5f76ad4a3e7c991bb676a54b4225ce27038ad45f",
}


def _write_subject(tmp_path, name, rr=20.0, hr=80.0, duration=120.0, seed=1, noise=0.02):
    from rrcif.signal_io import write_record, write_reference

    record, reference = make_synth(rr=rr, hr=hr, duration=duration, seed=seed, noise=noise)
    write_record(record, tmp_path / f"{name}.csv")
    write_reference(reference, tmp_path / f"{name}_ref.csv")
    return tmp_path / f"{name}.csv"


def _read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# rrcif ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_synth_then_estimate_row_count(tmp_path):
    out_prefix = tmp_path / "subj"
    assert main(["synth", "--rr", "20", "--hr", "80", "--duration", "480",
                 "--noise-sd", "0.02", "--seed", "7", "--out", str(out_prefix)]) == 0
    rec_path = tmp_path / "subj.csv"
    assert read_record(rec_path).duration_s == pytest.approx(480.0)
    assert read_reference(tmp_path / "subj_ref.csv").rr[0] == 20.0

    out = tmp_path / "est.csv"
    assert main(["estimate", str(rec_path), "--method", "cif", "--t", "0.13", "--out", str(out)]) == 0
    header, rows = _read_table(out)
    assert header == ["window_start_s", "rr_fusion", "c_fusion", "retained", "contributors"]
    assert len(rows) == 225


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fs", "1e9"], "at most 67108864 samples, got 4.8e+11"),
        (["--fs", "1e-3", "--duration", "1e12"], "at most 67108864 samples, got 1e+09"),
        (["--fs", "1e-3", "--duration", "1e9"], "at most 1048576 beats, got 1.28333e+09"),
    ],
    ids=["samples", "samples-and-beats", "beats"],
)
def test_synth_oversized_spec_exit_2(tmp_path, capsys, argv, message):
    # rejected before anything is allocated or the beat loop starts
    assert main(["synth", "--rr", "15", "--hr", "77", *argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--depths", "0.1", "0.1", "1", "0.1", "0.1"], "depth frequency must be in [0, 1), got 1.0"),
        (["--depths", "0.1", "0.1", "0.999999999999", "0.1", "0.1"], "at most 1048576 beats, got 70 / "),
        (["--seed", "-1", "--noise-sd", "0.1"], "seed must be >= 0, got -1"),
    ],
    ids=["frequency-depth-1", "frequency-depth-near-1", "negative-seed"],
)
def test_synth_invalid_spec_exit_2(tmp_path, capsys, argv, message):
    # a frequency depth near 1 would keep the beat loop running for hours
    assert main(["synth", "--rr", "15", "--hr", "70", "--duration", "60", *argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["", ".", "/", "..", "data/.."])
def test_synth_out_without_file_name_exit_64(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--rr", "15", "--hr", "70", "--duration", "60", "--out", out])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    # synth's usage line, then the one error line, both naming the command
    assert err.splitlines()[0].startswith("usage: rrcif synth ")
    assert err.splitlines()[-1] == f"rrcif synth: error: --out must end in a file name, got {out!r}"
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_estimate_sf3_contributors_subset(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    out = tmp_path / "est.csv"
    assert main(["estimate", str(rec_path), "--method", "sf3", "--out", str(out)]) == 0
    _, rows = _read_table(out)
    retained_rows = [r for r in rows if r[3] == "1"]
    assert retained_rows
    for row in retained_rows:
        assert set(row[4].split("|")) <= {"RIIV", "RIAV", "RIFV"}


def test_estimate_missing_file_exit_2(tmp_path, capsys):
    assert main(["estimate", str(tmp_path / "nope.csv")]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exit_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "x.csv", "--frobnicate"])
    assert exc.value.code == 64


def test_t_out_of_range_exit_64(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    with pytest.raises(SystemExit) as exc:
        main(["estimate", str(rec_path), "--t", "1.5"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "t, printed",
    [("0", "0"), ("0.13", "0.13"), ("0.1234567", "0.1234567"), ("1e-7", "1e-07"), ("0.30000000000000004", "0.30000000000000004")],
)
def test_estimate_header_names_the_t_used(tmp_path, t, printed):
    # :g text where it reads back as the same float, repr otherwise
    rec_path = _write_subject(tmp_path, "short", duration=20.0)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(rec_path), "--t", t, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].endswith(f" method=cif t={printed}")
    assert float(printed) == float(t)


def test_estimate_deterministic_output(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["estimate", str(rec_path), "--out", str(out1)])
    main(["estimate", str(rec_path), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_estimate_dump_flags(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    out = tmp_path / "est.csv"
    assert main([
        "estimate", str(rec_path), "--out", str(out),
        "--dump-beats", str(tmp_path / "beats.csv"),
        "--dump-riv", str(tmp_path / "rivs"),
        "--dump-spectrum", "10", "riav",
    ]) == 0
    beats_lines = (tmp_path / "beats.csv").read_text().splitlines()
    assert beats_lines[0] == "t_foot,v_foot,t_peak,v_peak,width50,rise25_75,period,artifact"
    assert len(beats_lines) > 100
    first, second = (line.split(",") for line in beats_lines[1:3])
    assert first[6] == "" and float(second[6]) > 0  # the first beat has no period
    assert {line.rsplit(",", 1)[1] for line in beats_lines[1:]} <= {"0", "1"}
    assert sorted(p.name for p in (tmp_path / "rivs").iterdir()) == sorted(f"{kind}.csv" for kind in DUMP_RIV_SHA256)
    for kind, digest in DUMP_RIV_SHA256.items():
        assert hashlib.sha256((tmp_path / "rivs" / f"{kind}.csv").read_bytes()).hexdigest() == digest
    spectrum_path = tmp_path / "spectrum_w10_riav.csv"
    spectrum_lines = spectrum_path.read_text().splitlines()
    assert spectrum_lines[0] == "f,P,P_fit,P_out"
    assert len(spectrum_lines) == 2050  # 4096-point rfft grid + header
    assert hashlib.sha256(spectrum_path.read_bytes()).hexdigest() == DUMP_SPECTRUM_SHA256

    # the dumped window is the one the estimate table rates
    analysis = pipeline.analyze_record(read_record(rec_path))
    estimates = analysis.estimates
    riav = ALL_KINDS.index(RivKind.RIAV)
    P, P_fit, P_out = np.loadtxt(spectrum_path, delimiter=",", skiprows=1, usecols=(1, 2, 3), unpack=True)
    freqs = np.fft.rfftfreq(spectral.NFFT, d=0.2) * 60.0  # row i is rfft bin i
    band = (freqs >= 4.0) & (freqs <= 65.0)
    assert freqs[band][np.argmax(P_out[band])] == estimates.rr[10, riav]
    # P_out is printed to 8 significant digits, which bounds the noise index recomputed from the file
    _, ni = spectral._rate_ni(P_out[band])
    assert ni == pytest.approx(estimates.ni[10, riav], rel=1e-7)
    np.testing.assert_allclose(P_out, P - P_fit, rtol=1e-7, atol=1e-7 * np.abs(P).max())
    # unrounded, the residual behind the file gives the table's noise index to 1e-12
    _, P, P_fit = spectral.window_spectrum(analysis.rivs, estimates, 10, RivKind.RIAV)
    _, ni = spectral._rate_ni((P - P_fit)[band])
    assert ni == pytest.approx(estimates.ni[10, riav], abs=1e-12)


# sha256 of each CSV file the commands write on six 96 s, 100 Hz subjects
OUTPUT_CSV_SHA256 = {
    "estimate.csv": "144dde1728267f4d41ff1f3352be18b6cc16b87a127e01d1e19646884d2b35bf",
    "beats.csv": "2492d422832f3cc56b5d8be0c019bfa10f4307c05b48bb73da477e91d6830f2b",
    "subjects.csv": "3fb49e5b4846abe8acb74f43d63592fcc8c27291917ef3b236d663265aeb5140",
    "sweep.csv": "e790a3659c386a859105ee54798708602d1d5101866afa6709f786a3eaca9686",
    # t from 0.9 to 1: no subject retains a window, so the RMSE columns read nan
    "sweep_high_t.csv": "c16c9c7c83b016c6a03efe9ca2f24c6e8903de8e46e4b9267438e5e61221a2b1",
}
# report.json of `benchmark` on the same six subjects
REPORT_JSON_PINNED = {
    "agreement_cif": {"bias": 0.004918487365712802, "loa_high": 0.0655698608913302, "loa_low": -0.0557328861599046,
                      "n_pairs": 195, "r": 0.9999818565444233},
    "methods": {
        "cif": {"retention_median": 0.9848484848484849, "rmse_median": 0.027140780133318373},
        "sf3": {"retention_median": 0.9848484848484849, "rmse_median": 0.032865942267401825},
        "sf5": {"retention_median": 0.9848484848484849, "rmse_median": 0.03133138215899538},
    },
    "skipped": [],
    "subjects": 6,
    "t": 0.13,
    "version": __version__,
    "wilcoxon_bonferroni": {
        "retention": {"cif_vs_sf3": 1.0, "cif_vs_sf5": 1.0, "sf3_vs_sf5": 1.0},
        "rmse": {"cif_vs_sf3": 0.65625, "cif_vs_sf5": 0.1875, "sf3_vs_sf5": 1.0},
    },
}


def test_output_csv_files_are_pinned(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for i in range(6):
        _write_subject(data, f"s{i:02d}", rr=9.5 + 3 * i, hr=65.0 + 6 * i, duration=96.0, seed=i + 1, noise=0.03)
    out = tmp_path / "out"
    assert main(["benchmark", str(data), "--out", str(out)]) == 0
    assert main(["sweep", str(data), "--out", str(out / "sweep.csv")]) == 0
    assert main(["sweep", str(data), "--t-min", "0.9", "--t-max", "1", "--t-step", "0.05",
                 "--out", str(out / "sweep_high_t.csv")]) == 0
    assert main(["estimate", str(data / "s02.csv"), "--out", str(out / "estimate.csv"),
                 "--dump-beats", str(out / "beats.csv")]) == 0
    assert ",nan," in (out / "sweep_high_t.csv").read_text()
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUT_CSV_SHA256}
    assert digests == OUTPUT_CSV_SHA256
    # report.json prints floats to 17 digits, which another BLAS build may move: its numbers are pinned to 1e-9
    report, pinned = dict(_leaves(json.loads((out / "report.json").read_text()))), dict(_leaves(REPORT_JSON_PINNED))
    assert report.keys() == pinned.keys()
    for path, value in pinned.items():
        assert report[path] == (pytest.approx(value, abs=1e-9) if isinstance(value, float) else value), path


def _leaves(node, path=()):
    """(key path, value) of every value in nested dicts that is not itself a dict."""
    if not isinstance(node, dict):
        yield path, node
        return
    for key, value in node.items():
        yield from _leaves(value, (*path, key))


def test_sweep_default_31_rows(tmp_path):
    _write_subject(tmp_path, "s1")
    _write_subject(tmp_path, "s2", rr=14.0, seed=2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), "--out", str(out)]) == 0
    header, rows = _read_table(out)
    assert header == ["t", "rmse_p25", "rmse_median", "rmse_p75", "retention_median"]
    assert len(rows) == 31
    # the command's default options are read from the package's default grid
    assert [float(row[0]) for row in rows] == list(T_GRID_DEFAULT)
    retention = [float(r[4]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(retention, retention[1:]))


def test_default_threshold_lies_on_the_default_grid():
    # so the default sweep table has a row at the threshold that benchmark and estimate fuse at
    assert DEFAULT_THRESHOLD in T_GRID_DEFAULT


@pytest.mark.parametrize(
    "argv, named",
    [([], "t_min=0 t_max=0.3 t_step=0.01"), (["--t-min", "0.05", "--t-max", "0.2"], "t_min=0.05 t_max=0.2 t_step=0.01"),
     (["--t-max", "0.30000000000000004", "--t-step", "0.1"], "t_min=0 t_max=0.30000000000000004 t_step=0.1"),
     # within 1e-9 of the grid: the values used, whole hundredths, are named; --t-max is a bound, named as given
     (["--t-min", "0.0500000001", "--t-max", "0.2000000001", "--t-step", "0.0999999999"],
      "t_min=0.05 t_max=0.2000000001 t_step=0.1")],
    ids=["default", "narrowed", "repr", "near-grid"],
)
def test_sweep_header_names_the_whole_grid(tmp_path, argv, named):
    _write_subject(tmp_path, "s1", duration=40.0)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), *argv, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].endswith(f" method=cif {named}")


def test_sweep_coarse_step_4_rows(tmp_path):
    _write_subject(tmp_path, "s1")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), "--t-step", "0.1", "--out", str(out)]) == 0
    _, rows = _read_table(out)
    assert len(rows) == 4


def test_dump_spectrum_bad_args_exit_64(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    for bad in (["oops", "riav"], ["10", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(rec_path), "--out", str(tmp_path / "e.csv"), "--dump-spectrum", *bad])
        assert exc.value.code == 64


def test_dump_spectrum_bad_args_write_nothing(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    out = tmp_path / "est.csv"
    # a malformed request fails before the record is read: a missing input would exit 2
    for bad in (["5", "bogus"], ["five", "riav"]):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(tmp_path / "missing.csv"), "--out", str(out), "--dump-spectrum", *bad])
        assert exc.value.code == 64
    # a window outside the record is a data error, raised before any output is written
    for index in ("9999", "-1"):
        assert main(["estimate", str(rec_path), "--out", str(out), "--dump-beats", str(tmp_path / "beats.csv"),
                     "--dump-spectrum", index, "riav"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.csv", "s1_ref.csv"]


def test_dump_spectrum_unrated_window_writes_nothing(tmp_path, capsys):
    # the first peak comes 0.204 s in, so window 0 is not fully inside the variation series
    rec_path = _write_subject(tmp_path, "s1", rr=18.0, hr=78.0, noise=0.03, seed=1)
    out = tmp_path / "o"
    assert main(["estimate", str(rec_path), "--out", str(out / "est.csv"), "--dump-beats", str(out / "beats.csv"),
                 "--dump-riv", str(out / "rivs"), "--dump-spectrum", "0", "riiv"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.csv", "s1_ref.csv"]
    assert "window 0 [0, 32) s of RIIV is not rated: out_of_range" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["cif", "sf3", "sf5"])
def test_estimate_record_shorter_than_a_window(tmp_path, method):
    # 20 s holds no 32 s window: every method writes a table with no rows
    rec_path = _write_subject(tmp_path, "short", rr=18.0, hr=78.0, duration=20.0, noise=0.03, seed=1)
    out = tmp_path / "est.csv"
    assert main(["estimate", str(rec_path), "--method", method, "--out", str(out)]) == 0
    header, rows = _read_table(out)
    assert header == ["window_start_s", "rr_fusion", "c_fusion", "retained", "contributors"]
    assert rows == []


def test_dump_spectrum_record_without_window_exit_2(tmp_path, capsys):
    rec_path = _write_subject(tmp_path, "short", rr=18.0, hr=78.0, duration=20.0, noise=0.03, seed=1)
    assert main(["estimate", str(rec_path), "--out", str(tmp_path / "o" / "est.csv"), "--dump-spectrum", "0", "riav"]) == 2
    assert "window 0 does not exist (valid windows: none, the record is shorter than 32 s)" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.csv", "short_ref.csv"]


def test_dataset_with_record_shorter_than_a_window(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    _write_subject(data, "long", rr=18.0, hr=78.0, noise=0.03, seed=1)
    _write_subject(data, "short", rr=18.0, hr=78.0, duration=20.0, noise=0.03, seed=1)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(data), "--out", str(out_dir)]) == 0
    _, rows = _read_table(out_dir / "subjects.csv")
    short = [row for row in rows if row[0] == "short"]
    assert [row[1] for row in short] == ["CIF", "SF3", "SF5"]
    assert all(row[3] == "" and float(row[4]) == 0.0 for row in short)  # no window: no RMSE, nothing retained
    assert all(row[3] != "" for row in rows if row[0] == "long")
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(data), "--out", str(sweep_csv)]) == 0
    assert len(_read_table(sweep_csv)[1]) == 31


def test_sweep_fine_step_exit_64(tmp_path):
    # rejected before any record is read: an empty dataset would otherwise exit 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(tmp_path), "--t-step", "0.001"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--t-min", "0.005"], "--t-min must be a multiple of 0.01, got 0.005"),
        (["sweep", "--t-step", "0.015"], "--t-step must be a multiple of 0.01, got 0.015"),
        (["sweep", "--t-step", "0"], "--t-step must be positive, got 0.0"),
        (["sweep", "--t-step", "1e308"], "--t-step must lie in [0, 1], got 1e+308"),
        (["sweep", "--t-step", "2"], "--t-step must lie in [0, 1], got 2.0"),
        (["sweep", "--t-min", "-0.01"], "--t-min must lie in [0, 1], got -0.01"),
        (["sweep", "--t-max", "1.5"], "--t-max must lie in [0, 1], got 1.5"),
        (["sweep", "--t-min", "0.2", "--t-max", "0.1"], "--t-min 0.2 exceeds --t-max 0.1"),
        (["benchmark", "--t", "0.125"], "--t must be a multiple of 0.01, got 0.125"),
        (["benchmark", "--t", "0.13000001"], "--t must be a multiple of 0.01, got 0.13000001"),  # 1e-8 off
        (["benchmark", "--t", "1.5"], "--t must lie in [0, 1], got 1.5"),
        (["benchmark", "--methods", "cif,foo"], "unknown method 'foo'"),
        (["benchmark", "--methods", "cif,cif"], "method 'cif' given twice"),
        (["benchmark", "--methods", "cif,sf3,CIF"], "method 'cif' given twice"),
        (["estimate", "--t", "2"], "--t must lie in [0, 1], got 2.0"),
        (["estimate", "--dump-spectrum", "x", "riiv"], "--dump-spectrum window must be an integer, got 'x'"),
        (["estimate", "--dump-spectrum", "0", "zz"], "--dump-spectrum kind must be one of "),
        (["synth", "--out", ""], "--out must end in a file name, got ''"),
    ],
    ids=[
        "sweep-t-min", "sweep-t-step", "sweep-t-step-0", "sweep-t-step-overflow", "sweep-t-step-above-1",
        "sweep-t-min-negative", "sweep-t-max-above-1", "sweep-t-min-above-t-max",
        "benchmark-t", "benchmark-t-1e-8-off", "benchmark-t-above-1",
        "benchmark-unknown-method", "benchmark-repeated-method", "benchmark-repeated-method-any-case",
        "estimate-t-above-1", "estimate-spectrum-window", "estimate-spectrum-kind",
        "synth-out-empty",
    ],
)
def test_threshold_off_the_t_column_grid_exit_64(tmp_path, capsys, argv, message):
    # Every usage error a command raises, each before any input is read: the t column prints two
    # decimals, so a threshold between them would be misreported; a missing input would exit 2.
    command, *options = argv
    inputs = {"estimate": [str(tmp_path / "missing.csv")], "synth": ["--rr", "15", "--hr", "70"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs.get(command, [str(tmp_path)]), *options])
    assert exc.value.code == 64
    # the command's own usage and error lines, naming only options the command has
    *usage, error = capsys.readouterr().err.splitlines()
    assert usage[0].startswith(f"usage: rrcif {command} ")
    assert error.startswith(f"rrcif {command}: error: {message}")
    named = re.findall(r"(?<![\w-])--[a-z][\w-]*", error)
    assert set(named) <= set(re.findall(r"(?<![\w-])--[a-z][\w-]*", " ".join(usage)))
    assert list(tmp_path.iterdir()) == []


def test_threshold_on_the_t_column_grid_is_printed_as_fused(tmp_path):
    _write_subject(tmp_path, "s1")
    out = tmp_path / "sweep.csv"
    argv = ["sweep", str(tmp_path), "--t-min", "0.05", "--t-max", "0.2", "--t-step", "0.05", "--out", str(out)]
    assert main(argv) == 0
    assert [row[0] for row in _read_table(out)[1]] == ["0.05", "0.10", "0.15", "0.20"]
    assert main(["benchmark", str(tmp_path), "--t", "0.07", "--out", str(tmp_path / "b")]) == 0
    assert {row[2] for row in _read_table(tmp_path / "b" / "subjects.csv")[1]} == {"0.07"}
    # estimate prints no t column, so any threshold in [0, 1] is accepted
    assert main(["estimate", str(tmp_path / "s1.csv"), "--t", "0.125", "--out", str(tmp_path / "e.csv")]) == 0


@pytest.mark.parametrize(
    "given, printed, named", [("0", "0.00", "t=0"), ("0.1300000001", "0.13", "t=0.13")], ids=["t-0", "t-near-0.13"]
)
def test_benchmark_fuses_at_the_printed_threshold(tmp_path, given, printed, named):
    # a threshold within 1e-9 of a whole number of hundredths is read as that number: it is fused at
    # (report.json's t is the value the report fused at), and the rows and the provenance line name it
    _write_subject(tmp_path, "s1", duration=40.0)
    out = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--t", given, "--out", str(out)]) == 0
    assert (out / "subjects.csv").read_text().splitlines()[0].endswith(f" method=cif,sf3,sf5 {named}")
    assert {row[2] for row in _read_table(out / "subjects.csv")[1]} == {printed}
    assert json.loads((out / "report.json").read_text())["t"] == float(printed)


def _write_fast_record(path):
    """3000 samples at 1e9 Hz, where the band-pass design is singular; JSON records embed a reference."""
    samples = np.sin(np.arange(3000) / 5.0)
    if path.suffix == ".json":
        obj = {"id": path.stem, "fs": 1e9, "samples": samples.tolist(), "reference": {"t": [0.0], "rr": [15.0]}}
        path.write_text(json.dumps(obj))
    else:
        path.write_text("t,ppg\n" + "".join(f"{i * 1e-9!r},{v!r}\n" for i, v in enumerate(samples.tolist())))


@pytest.mark.parametrize("name", ["fast.json", "fast.csv"])
def test_estimate_fs_above_maximum_exit_2(tmp_path, capsys, name):
    _write_fast_record(tmp_path / name)
    assert main(["estimate", str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert "> 10000 Hz maximum" in err and "Traceback" not in err


@pytest.mark.parametrize(("k", "message"), [(504, "exceeds 2**400"), (-540, "below 2**-400")])
def test_estimate_outside_the_amplitude_envelope_exit_2(tmp_path, capsys, k, message):
    record, _ = make_synth(duration=60.0)
    path = tmp_path / "scaled.csv"
    write_record(PpgRecord(record.id, record.fs, record.samples * 2.0**k), path)
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err and "Traceback" not in err


def test_benchmark_skips_fs_above_maximum(tmp_path, capsys):
    _write_subject(tmp_path, "s1")
    _write_fast_record(tmp_path / "fast.json")
    assert main(["benchmark", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert "warning: skipping fast.json: " in capsys.readouterr().err
    assert json.loads((tmp_path / "out" / "report.json").read_text())["skipped"] == ["fast.json"]


def test_estimate_nan_timestamp_exit_2(tmp_path, capsys):
    path = tmp_path / "nan_t.csv"
    path.write_text("t,ppg\n" + "".join(f"{'nan' if i == 50 else i / 100},{(i % 7) / 7:.3f}\n" for i in range(3000)))
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 52" in err and "Traceback" not in err


def test_benchmark_and_sweep_score_alike(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for i in range(3):
        _write_subject(data, f"s{i}", rr=12.0 + 5 * i, hr=75.0 + 5 * i, seed=i + 1, noise=0.3)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(data), "--methods", "cif", "--t", "0.13", "--out", str(out_dir)]) == 0
    cif = json.loads((out_dir / "report.json").read_text())["methods"]["cif"]
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", str(data), "--t-min", "0.13", "--t-max", "0.13", "--out", str(sweep_csv)]) == 0
    _, rows = _read_table(sweep_csv)
    assert len(rows) == 1 and rows[0][0] == "0.13"
    # the sweep CSV prints 6 significant digits
    assert rows[0][2] == f"{cif['rmse_median']:.6g}"
    assert rows[0][4] == f"{cif['retention_median']:.6g}"


def test_benchmark_report(tmp_path, capsys):
    (tmp_path / "data").mkdir()
    for i, (rr, hr) in enumerate([(12.0, 70.0), (20.0, 80.0), (28.0, 90.0)]):
        _write_subject(tmp_path / "data", f"s{i}", rr=rr, hr=hr, seed=i + 1)
    (tmp_path / "data" / "broken.csv").write_text("t,ppg\n0,1\nnot,numbers\n")
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path / "data"), "--out", str(out_dir)]) == 0
    assert "skipping broken.csv" in capsys.readouterr().err

    header, rows = _read_table(out_dir / "subjects.csv")
    assert header == ["id", "method", "t", "rmse", "retention"]
    assert len(rows) == 9  # 3 subjects x 3 methods

    report = json.loads((out_dir / "report.json").read_text())
    assert report["skipped"] == ["broken.csv"]
    assert report["subjects"] == 3
    assert set(report["methods"]) == {"cif", "sf3", "sf5"}
    assert report["methods"]["cif"]["retention_median"] >= 0.9
    assert report["methods"]["cif"]["rmse_median"] <= 1.0
    agreement = report["agreement_cif"]
    assert agreement["n_pairs"] > 100
    assert agreement["loa_low"] <= agreement["bias"] <= agreement["loa_high"]


def test_benchmark_empty_dataset_exit_2(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["benchmark", str(empty)]) == 2


def _write_json_subject(path, record_id, seed):
    record, reference = make_synth(duration=120.0, seed=seed)
    reference = {"t": reference.times_s.tolist(), "rr": reference.rr.tolist()}
    path.write_text(json.dumps({"id": record_id, "fs": record.fs, "samples": record.samples.tolist(), "reference": reference}))


def test_benchmark_id_of_a_csv_and_a_json_exit_2(tmp_path, capsys):
    _write_subject(tmp_path, "s00", seed=1)
    _write_subject(tmp_path, "s01", seed=2)
    _write_json_subject(tmp_path / "s00.json", "s00", seed=3)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "record id 's00' is used by both s00.csv and s00.json" in err
    assert not out_dir.exists()


def test_benchmark_reads_record_suffixes_in_any_case(tmp_path, capsys):
    _write_subject(tmp_path, "s00", seed=1)
    _write_subject(tmp_path, "s01", seed=2)
    for name in ("s01.csv", "s01_ref.csv"):
        (tmp_path / name).rename(tmp_path / name.replace(".csv", ".CSV"))
    _write_json_subject(tmp_path / "C.JSON", "s02", seed=3)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--methods", "cif", "--out", str(out_dir)]) == 0
    assert "warning" not in capsys.readouterr().err
    _, rows = _read_table(out_dir / "subjects.csv")
    assert [row[0] for row in rows] == ["s00", "s01", "s02"]
    assert json.loads((out_dir / "report.json").read_text())["skipped"] == []


def test_sweep_id_of_two_jsons_exit_2(tmp_path, capsys):
    _write_subject(tmp_path, "s00", seed=1)
    _write_json_subject(tmp_path / "a.json", "s01", seed=2)
    _write_json_subject(tmp_path / "b.json", "s01", seed=3)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "record id 's01' is used by both a.json and b.json" in err
    assert not out.exists()


def test_duplicate_ids_leave_no_output_and_no_warning(tmp_path, capsys):
    # both files would be skipped, yet the clash ends the command before any warning
    (tmp_path / "s00.csv").write_text("t,ppg\n")  # cannot be read: a CSV's id is its stem all the same
    (tmp_path / "s00.json").write_text(json.dumps({"id": "s00", "fs": 100.0, "samples": [0.0] * 50}))  # no reference
    _write_subject(tmp_path, "s01", seed=1)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "record id 's00' is used by both s00.csv and s00.json" in err
    assert "warning:" not in err
    assert not out_dir.exists()


def test_subjects_csv_quotes_record_ids(tmp_path):
    import csv

    _write_subject(tmp_path, "a,b", duration=40.0, seed=1)
    _write_subject(tmp_path, 'a"b', duration=40.0, seed=2)
    _write_json_subject(tmp_path / "c.json", "c\nd", seed=3)
    _write_json_subject(tmp_path / "e.json", "e\rf", seed=4)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--methods", "cif", "--out", str(out_dir)]) == 0
    with open(out_dir / "subjects.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["id", "method", "t", "rmse", "retention"]
    assert [row[0] for row in rows[2:]] == ['a"b', "a,b", "c\nd", "e\rf"]
    assert all(len(row) == 5 for row in rows[2:])


def test_a_repeated_json_id_key_clashes_by_its_last_value(tmp_path, capsys):
    # the reader's json.load keeps the last "id", so that is the one that clashes
    _write_subject(tmp_path, "s00", seed=1)
    _write_subject(tmp_path, "s01", seed=2)
    _write_json_subject(tmp_path / "x.json", "s00", seed=3)
    text = (tmp_path / "x.json").read_text()
    (tmp_path / "x.json").write_text('{"id": "x", ' + text[1:])
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--out", str(out_dir)]) == 2
    assert "record id 's00' is used by both s00.csv and x.json" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_json_whose_reference_fails_takes_part_in_the_id_check(tmp_path, capsys):
    _write_subject(tmp_path, "s00", seed=1)
    _write_subject(tmp_path, "s01", seed=2)
    _write_json_subject(tmp_path / "x.json", "s00", seed=3)
    doc = json.loads((tmp_path / "x.json").read_text())
    (tmp_path / "x.json").write_text(json.dumps({**doc, "reference": {"t": [0, 2, 1], "rr": [12, 12, 12]}}))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), "--out", str(out)]) == 2
    assert "record id 's00' is used by both s00.csv and x.json" in capsys.readouterr().err
    assert not out.exists()


def test_a_record_named_like_a_reference_is_scored(tmp_path, capsys):
    # synth --out DIR/x_ref writes the record x_ref.csv and its reference x_ref_ref.csv
    _write_subject(tmp_path, "a", duration=40.0, seed=1)
    argv = ["--rr", "15", "--hr", "75", "--duration", "40", "--noise-sd", "0.02", "--seed", "2"]
    assert main(["synth", *argv, "--out", str(tmp_path / "x_ref")]) == 0
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--methods", "cif", "--out", str(out_dir)]) == 0
    assert "warning" not in capsys.readouterr().err
    _, rows = _read_table(out_dir / "subjects.csv")
    assert [row[0] for row in rows] == ["a", "x_ref"]


@pytest.mark.parametrize("command", ["benchmark", "sweep"])
def test_a_reference_without_its_record_is_skipped_with_a_warning(tmp_path, capsys, command):
    from rrcif.signal_io import write_reference

    _write_subject(tmp_path, "a", duration=40.0, seed=1)
    write_reference(make_synth(duration=40.0)[1], tmp_path / "y_ref.csv")
    out = tmp_path / "out"
    assert main([command, str(tmp_path), "--out", str(out)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    assert warnings[0].startswith("warning: skipping y_ref.csv: ") and "expected header 't,ppg', got 't,rr'" in warnings[0]
    if command == "benchmark":
        assert json.loads((out / "report.json").read_text())["skipped"] == ["y_ref.csv"]


def test_skipped_subjects_come_in_file_name_order(tmp_path, capsys):
    _write_subject(tmp_path, "c", seed=1)
    (tmp_path / "b.csv").write_text("t,ppg\n0,1\nnot,numbers\n")
    (tmp_path / "a.json").write_text(json.dumps({"id": "a", "fs": 100.0, "samples": "none"}))
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--methods", "cif", "--out", str(out_dir)]) == 0
    skips = [line.split(":")[1] for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert skips == [" skipping a.json", " skipping b.csv"]
    assert json.loads((out_dir / "report.json").read_text())["skipped"] == ["a.json", "b.csv"]


def test_a_json_the_reader_rejects_takes_no_part_in_the_id_check(tmp_path, capsys):
    _write_subject(tmp_path, "s00", seed=1)
    _write_subject(tmp_path, "s01", seed=2)
    (tmp_path / "s00.json").write_text(json.dumps({"id": "s00", "fs": 100.0, "samples": "none"}))
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(tmp_path), "--out", str(out_dir)]) == 0
    assert "warning: skipping s00.json" in capsys.readouterr().err
    assert (out_dir / "report.json").exists()


def test_benchmark_bonferroni_counts_tested_pairs(tmp_path):
    from rrcif import cli, evaluation, fusion

    data = tmp_path / "data"
    data.mkdir()
    for i in range(6):
        _write_subject(data, f"s{i}", rr=12.0 + 3 * i, hr=75.0 + 2 * i, seed=i + 1, noise=0.15)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(data), "--methods", "cif,sf3", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())

    subjects, scores = [], {"cif": [], "sf3": []}
    for i in range(6):
        analysis = pipeline.analyze_record(read_record(data / f"s{i}.csv"))
        reference = read_reference(data / f"s{i}_ref.csv")
        subjects.append((analysis.estimates, reference))
        for method in scores:
            fused = fusion.fuse_estimates(analysis.estimates, method, 0.13)
            scores[method].append(evaluation.score(fused, evaluation.reference_at(reference, analysis.estimates.start_s)))
    for i, metric in enumerate(("rmse", "retention")):
        p = evaluation.wilcoxon_signed_rank(*([r[i] for r in scores[m]] for m in ("cif", "sf3")))
        assert report["wilcoxon_bonferroni"][metric] == {"cif_vs_sf3": pytest.approx(p, rel=1e-12)}
        if metric == "rmse":
            assert p < 1.0 / 3.0  # so a tripled p-value would differ
    # report.json is the in-process report plus the version and the skipped files
    assert report == {"version": cli.VERSION, "skipped": [], **evaluation.report(subjects, ["cif", "sf3"], 0.13)[1]}


def test_estimate_short_record_exit_2(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("t,ppg\n" + "".join(f"{i / 100:.2f},{(i % 7) / 7:.3f}\n" for i in range(15)))
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"id": "r", "fs": "abc", "samples": [0.0, 1.0, 0.0]}', "non-numeric value"),
        ('{"id": "r", "fs": 100, "samples": [0.0, "x", 0.0]}', "non-numeric value"),
        ("5", "expected a JSON object"),
        ('{"id": "r", "fs": 100, "samples": [[0.0, 1.0], [1.0, 0.0]]}', "samples must be 1-D"),
    ],
    ids=["fs-text", "sample-text", "top-level-number", "samples-2d"],
)
def test_estimate_malformed_json_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "rec.json"
    path.write_text(text)
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_estimate_leaves_a_json_reference_unread(tmp_path, capsys):
    # only benchmark and sweep read a record JSON's reference
    record, _ = make_synth(duration=40.0, seed=1)
    doc = {"id": record.id, "fs": record.fs, "samples": record.samples.tolist()}
    (tmp_path / "plain.json").write_text(json.dumps(doc))
    (tmp_path / "ref.json").write_text(json.dumps({**doc, "reference": {"t": [0, 2, 1], "rr": [12, 12, 12]}}))
    assert main(["estimate", str(tmp_path / "ref.json"), "--out", str(tmp_path / "ref.csv")]) == 0
    assert main(["estimate", str(tmp_path / "plain.json"), "--out", str(tmp_path / "plain.csv")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "ref.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_benchmark_json_reference_text_exit_2(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "rec.json").write_text('{"id": "r", "fs": 100, "samples": [0.0, 1.0, 0.0], "reference": {"t": ["a"], "rr": [12]}}')
    assert main(["benchmark", str(data), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "warning: skipping rec.json: " in err and "non-numeric value" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name, content",
    [
        ("rec.csv", b"t,ppg\n0,1\n0.01,\xff2\n0.02,3\n"),
        ("rec.json", b'{"id": "r\xff", "fs": 100, "samples": [0.0, 1.0, 0.0]}'),
    ],
    ids=["csv", "json"],
)
def test_estimate_not_utf8_exit_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{name}: not UTF-8 text" in err and "0xff" in err and "Traceback" not in err


def test_dataset_worker_bug_is_raised_not_skipped(tmp_path, capsys, monkeypatch):
    from rrcif import cli

    _write_subject(tmp_path, "a")

    def broken(record):
        raise ValueError("a bug, not a bad subject")

    monkeypatch.setattr(pipeline, "analyze_record", broken)
    with pytest.raises(ValueError, match="a bug, not a bad subject"):
        cli._analyze_dataset(tmp_path)
    assert "skipping" not in capsys.readouterr().err


def test_dataset_pool_matches_serial_analysis(tmp_path, capsys, monkeypatch):
    import concurrent.futures
    from concurrent.futures import ProcessPoolExecutor

    from rrcif import cli, pipeline

    good = [
        _write_subject(tmp_path, name, rr=rr, seed=seed)
        for name, rr, seed in (("a", 14.0, 1), ("c", 20.0, 2), ("e", 26.0, 3))
    ]
    (tmp_path / "b.csv").write_text("t,ppg\n0,1\nnot,numbers\n")
    (tmp_path / "d.csv").write_bytes(b"t,ppg\n0,\xff1\n")
    workers = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(16)))
    subjects, skipped = cli._analyze_dataset(tmp_path)

    assert workers == [5]  # one per subject file, not one per reported CPU
    assert skipped == ["b.csv", "d.csv"]
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: skipping b.csv: ") and "line 3" in warnings[0]
    assert warnings[1].startswith("warning: skipping d.csv: ") and "not UTF-8" in warnings[1]
    assert list(subjects) == ["a", "c", "e"]
    for path, (estimates, reference) in zip(good, subjects.values()):
        _assert_tables_bit_equal(estimates, pipeline.analyze_record(read_record(path)).estimates)
        np.testing.assert_array_equal(reference.rr, read_reference(path.with_name(f"{path.stem}_ref.csv")).rr)


def _assert_tables_bit_equal(table, expected):
    for field in ("start_s", "rr", "ni"):
        assert np.array_equal(getattr(table, field).view(np.uint64), getattr(expected, field).view(np.uint64)), field
    np.testing.assert_array_equal(table.reason, expected.reason)


def test_analyze_subject_returns_estimates_and_reference(tmp_path):
    from rrcif import cli
    from rrcif.signal_io import ReferenceRr
    from rrcif.spectral import EstimateTable

    path = _write_subject(tmp_path, "s1", rr=18.0, hr=78.0, noise=0.03, seed=1)
    result = cli._analyze_subject(path)
    assert isinstance(result, tuple) and len(result) == 2
    record_id, (estimates, reference) = result
    assert record_id == "s1"
    assert isinstance(estimates, EstimateTable) and isinstance(reference, ReferenceRr)
    _assert_tables_bit_equal(estimates, pipeline.analyze_record(read_record(path)).estimates)
    np.testing.assert_array_equal(reference.times_s, read_reference(tmp_path / "s1_ref.csv").times_s)


def test_analyze_subject_returns_the_record_id_with_its_error(tmp_path):
    from rrcif import cli

    (tmp_path / "bad.csv").write_text("t,ppg\n")
    (tmp_path / "bad.json").write_text("{")
    _write_json_subject(tmp_path / "x.json", "s9", seed=1)
    doc = json.loads((tmp_path / "x.json").read_text())
    (tmp_path / "x.json").write_text(json.dumps({**doc, "reference": {"t": [0, 2, 1], "rr": [12, 12, 12]}}))
    results = {name: cli._analyze_subject(tmp_path / name) for name in ("bad.csv", "bad.json", "x.json")}
    assert {name: record_id for name, (record_id, _) in results.items()} == {"bad.csv": "bad", "bad.json": None, "x.json": "s9"}
    assert all(isinstance(error, str) for _, error in results.values())
    assert "decreasing timestamp" in results["x.json"][1]


# ---------------------------------------------------------------------------
# File-boundary fuzzer: `estimate` on a record CSV or record JSON mutated by
# conftest's mutated_file gives its table or one error line, never a
# traceback (an uncaught exception fails the test) or a RuntimeWarning.


@pytest.mark.parametrize("kind, name", [("record", "rec.csv"), ("json", "rec.json")], ids=["record-csv", "record-json"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_estimate_on_a_mutated_file_exits_0_or_2(kind, name, data):
    text = data.draw(mutated_file(kind))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        path = Path(tmp, name)
        path.write_bytes(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["estimate", str(path)])
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("# rrcif ")
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("rrcif: error: ") and err.getvalue().count("\n") == 1
