import json

import pytest

from rrcif.cli import main
from rrcif.signal_io import read_record, read_reference

from conftest import make_synth


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
    for kind in ("riiv", "riav", "rifv", "riwv", "risv"):
        assert (tmp_path / "rivs" / f"{kind}.csv").exists()
    spectrum_lines = (tmp_path / "spectrum_w10_riav.csv").read_text().splitlines()
    assert spectrum_lines[0] == "f,P,P_fit,P_out"
    assert len(spectrum_lines) == 2050  # 4096-point rfft grid + header


def test_sweep_default_31_rows(tmp_path):
    _write_subject(tmp_path, "s1")
    _write_subject(tmp_path, "s2", rr=14.0, seed=2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), "--out", str(out)]) == 0
    header, rows = _read_table(out)
    assert header == ["t", "rmse_p25", "rmse_median", "rmse_p75", "retention_median"]
    assert len(rows) == 31
    retention = [float(r[4]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(retention, retention[1:]))


def test_sweep_coarse_step_4_rows(tmp_path):
    _write_subject(tmp_path, "s1")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(tmp_path), "--t-step", "0.1", "--out", str(out)]) == 0
    _, rows = _read_table(out)
    assert len(rows) == 4


def test_dump_spectrum_bad_args_exit_64(tmp_path):
    rec_path = _write_subject(tmp_path, "s1")
    for bad in (["oops", "riav"], ["10", "nope"], ["9999", "riav"]):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(rec_path), "--out", str(tmp_path / "e.csv"), "--dump-spectrum", *bad])
        assert exc.value.code == 64


def test_sweep_bad_range_exit_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(tmp_path), "--t-min", "0.2", "--t-max", "0.1"])
    assert exc.value.code == 64


def test_sweep_fine_step_exit_64(tmp_path):
    # rejected before any record is read: an empty dataset would otherwise exit 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(tmp_path), "--t-step", "0.001"])
    assert exc.value.code == 64


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


def test_benchmark_unknown_method_exit_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", str(tmp_path), "--methods", "cif,magic"])
    assert exc.value.code == 64


def test_benchmark_repeated_method_exit_64(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["benchmark", str(tmp_path), "--methods", "cif,sf3,CIF"])
    assert exc.value.code == 64


def test_benchmark_bonferroni_counts_tested_pairs(tmp_path):
    from rrcif import evaluation, pipeline

    data = tmp_path / "data"
    data.mkdir()
    for i in range(6):
        _write_subject(data, f"s{i}", rr=12.0 + 3 * i, hr=75.0 + 2 * i, seed=i + 1, noise=0.15)
    out_dir = tmp_path / "out"
    assert main(["benchmark", str(data), "--methods", "cif,sf3", "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())

    scores = {"cif": [], "sf3": []}
    for i in range(6):
        analysis = pipeline.analyze_record(read_record(data / f"s{i}.csv"))
        reference = read_reference(data / f"s{i}_ref.csv")
        for method in scores:
            fused = pipeline.fuse_estimates(analysis.estimates, method, 0.13)
            scores[method].append(evaluation.score(fused, evaluation.reference_at(reference, analysis.grid.windows)))
    for i, metric in enumerate(("rmse", "retention")):
        p = evaluation.wilcoxon_signed_rank(*([r[i] for r in scores[m]] for m in ("cif", "sf3")))
        assert report["wilcoxon_bonferroni"][metric] == {"cif_vs_sf3": pytest.approx(p, rel=1e-12)}
        if metric == "rmse":
            assert p < 1.0 / 3.0  # so a tripled p-value would differ


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
        ('{"id": "r", "fs": 100, "samples": [0.0, 1.0, 0.0], "reference": {"t": ["a"], "rr": [12]}}', "non-numeric value"),
        ("5", "expected a JSON object"),
        ('{"id": "r", "fs": 100, "samples": [[0.0, 1.0], [1.0, 0.0]]}', "samples must be 1-D"),
    ],
    ids=["fs-text", "sample-text", "reference-t-text", "top-level-number", "samples-2d"],
)
def test_estimate_malformed_json_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "rec.json"
    path.write_text(text)
    assert main(["estimate", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
