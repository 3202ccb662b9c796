"""Quick self-check of the benchmark: ``python3 perfbench/run.py --self-check``.

On reduced inputs (96 s records, 2 estimate records, 6 subjects) it

1. runs every workload once untraced and once traced, and requires correct
   results whose metric names are exactly those in BENCHMARK.json;
2. corrupts the real outputs those runs left behind, in ways a broken
   program could, and requires the output checks to report each one;
3. re-runs one invocation after tampering with its recorded first output,
   and requires the run to count the failure.

Prints one PASS/FAIL line per check and exits 0 only when all pass.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from perfbench import checks, datasets, run

SEED = 1


def _report(results, name, ok, detail=""):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""), flush=True)


def _names(root):
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def _rewrite(src, dst, edit):
    lines = Path(src).read_text(encoding="utf-8").splitlines(keepends=True)
    Path(dst).write_text("".join(edit(lines)), encoding="utf-8")
    return dst


def _shift_rates(lines, delta=5.0):
    out = lines[:2]
    for line in lines[2:]:
        f = line.rstrip("\n").split(",")
        if f[3] == "1":
            f[1] = f"{float(f[1]) + delta:.4f}"
        out.append(",".join(f) + "\n")
    return out


def _rising_retention(lines):
    out = list(lines)
    last = out[-1].rstrip("\n").split(",")
    last[4] = "1"
    out[-1] = ",".join(last) + "\n"
    return out


def mutation_checks(root, results):
    base = root / run.WORK_DIR
    mutants = base / "selfcheck-mutants"
    shutil.rmtree(mutants, ignore_errors=True)
    mutants.mkdir(parents=True)
    size = datasets.SMALL

    est_dir = base / "estimate-300hz"
    est = sorted((est_dir / "out").glob("est_*.csv"))[0]
    true_rr = json.loads((est_dir / "details.json").read_text())["dataset"]["true_rr"][est.stem[4:]]

    def est_case(name, path, code=0, stderr=""):
        outcome = checks.check_estimate(path, true_rr, size.duration_s, code, stderr)
        _report(results, f"estimate check rejects {name}", bool(outcome.problems), "; ".join(outcome.problems)[:160])

    ok = checks.check_estimate(est, true_rr, size.duration_s, 0, "")
    _report(results, "estimate check accepts the real output", not ok.problems, "; ".join(ok.problems))
    est_case("a missing window row", _rewrite(est, mutants / "est_drop.csv", lambda ls: ls[:-1]))
    est_case("rates 5 bpm off", _rewrite(est, mutants / "est_shift.csv", _shift_rates))
    est_case("a missing provenance line", _rewrite(est, mutants / "est_noprov.csv", lambda ls: ls[1:]))
    est_case("a non-zero exit", est, code=2, stderr="rrcif: error: boom")

    bench = base / "benchmark-100hz" / "out" / "bench"
    ids = [f"s{i:02d}" for i in range(size.subjects)]

    def bench_case(name, out_dir, code=0, stderr=""):
        outcome = checks.check_benchmark(out_dir, ids, size.duration_s, code, stderr)
        _report(results, f"benchmark check rejects {name}", bool(outcome.problems), "; ".join(outcome.problems)[:160])
        return outcome

    ok = checks.check_benchmark(bench, ids, size.duration_s, 0, "")
    _report(results, "benchmark check accepts the real output", not ok.problems, "; ".join(ok.problems))
    skipped = mutants / "bench_skipped"
    shutil.copytree(bench, skipped)
    report = json.loads((skipped / "report.json").read_text())
    report["subjects"] -= 1
    report["skipped"] = ["s00.csv"]
    (skipped / "report.json").write_text(json.dumps(report))
    outcome = bench_case("a skipped subject", skipped, stderr="warning: skipping s00.csv: bad\n")
    _report(results, "a skipped subject counts as a failure", outcome.skipped == 1, f"skipped={outcome.skipped}")
    short = mutants / "bench_short"
    shutil.copytree(bench, short)
    _rewrite(bench / "subjects.csv", short / "subjects.csv", lambda ls: ls[:-1])
    bench_case("a missing subjects.csv row", short)
    bench_case("a non-zero exit", bench, code=2)

    sweep = base / "sweep-artifact" / "out" / "sweep.csv"

    def sweep_case(name, path, code=0, stderr=""):
        outcome = checks.check_sweep(path, code, stderr)
        _report(results, f"sweep check rejects {name}", bool(outcome.problems), "; ".join(outcome.problems)[:160])

    ok = checks.check_sweep(sweep, 0, "")
    _report(results, "sweep check accepts the real output", not ok.problems, "; ".join(ok.problems))
    sweep_case("30 rows", _rewrite(sweep, mutants / "sweep_30.csv", lambda ls: ls[:-1]))
    sweep_case("retention rising with t", _rewrite(sweep, mutants / "sweep_rise.csv", _rising_retention))
    sweep_case("a skipped subject", sweep, stderr="warning: skipping s03.csv: no beats\n")


def determinism_check(root, results):
    """A changed output on a repeated input must fail the invocation and the run."""
    work = root / run.WORK_DIR / "selfcheck-determinism"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ds = datasets.build("estimate-300hz", SEED, work / "data", datasets.SMALL)
    runner = run.Runner(root, ds, work)
    runner.run(0)
    clean = not runner.problems
    runner.first_output[ds.records[0].stem] = b"tampered"
    runner.run(0)
    _report(
        results,
        "a changed output on a repeated input fails the run",
        clean and runner.failed == 1 and any("differs" in p for p in runner.problems),
        f"failed={runner.failed}/{runner.attempted}",
    )


def main(root):
    sys.path.insert(0, str(root / "src"))
    end_to_end, per_layer = _names(root)
    results = []
    for workload in sorted(datasets.WORKLOAD_IDS):
        # Untraced last, so its outputs stay behind for the mutation checks.
        for trace, expected in ((1, per_layer), (0, end_to_end)):
            args = argparse.Namespace(workload=workload, seed=SEED, seconds=0, trace=trace)
            result, details = run.run_workload(root, args, datasets.SMALL)
            names = sorted(result["metrics"])
            _report(results, f"{workload} trace={trace} is correct", result["correct"], "; ".join(details["problems"])[:300])
            _report(results, f"{workload} trace={trace} metric names", names == sorted(expected), f"got {names}")
        (root / run.WORK_DIR / workload / "details.json").write_text(json.dumps(details), encoding="utf-8")
    mutation_checks(root, results)
    determinism_check(root, results)
    passed = sum(results)
    print(f"self-check: {passed}/{len(results)} passed")
    return 0 if passed == len(results) else 1
