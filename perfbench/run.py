"""rrcif benchmark: cold command-line runs on seeded synthetic data.

Run from the root of an rrcif source tree::

    python3 perfbench/run.py --workload benchmark-100hz --seed 1 --seconds 54 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads, the metrics and the traced mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench import checks, datasets, layers  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_PROBES = 3  # cold `rrcif --help` runs behind setup_s
IMPORT_PROBES = 3  # `-X importtime` runs behind the import.* metrics
MIN_RUNS = 2  # invocations of benchmark or sweep per run, whatever --seconds says
CHILD_TIMEOUT_S = 120  # a child still running after this is killed and counts as failed
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "RRCIF_THREADS",
)


@dataclass
class Invocation:
    key: str  # which job: a record stem, or "all" for a dataset command
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str
    output: Path


def child_env(root):
    """The CLI runs the source tree's code, with the default worker pool."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.pop("RRCIF_THREADS", None)
    return env


def spawn(argv, env, cwd, log_stem):
    """Run a child to completion; returns (wall s, cpu s, peak rss MB, exit code, stdout, stderr).

    `wait4` reports the CPU time and peak memory of this child alone. A timer
    kills a child that outlives CHILD_TIMEOUT_S, and an interrupted benchmark
    kills and reaps its child before it exits.
    """
    out_path, err_path = Path(f"{log_stem}.out"), Path(f"{log_stem}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def jobs(ds, out_dir):
    """(key, CLI arguments, output path) for each distinct invocation of the workload."""
    if ds.workload == "estimate-300hz":
        return [
            (p.stem, ["estimate", str(p), "--method", "cif", "--out", str(out_dir / f"est_{p.stem}.csv")], out_dir / f"est_{p.stem}.csv")
            for p in ds.records
        ]
    if ds.workload == "benchmark-100hz":
        target = out_dir / "bench"
        return [("all", ["benchmark", str(ds.directory), "--methods", ",".join(checks.METHODS), "--out", str(target)], target)]
    target = out_dir / "sweep.csv"
    return [("all", ["sweep", str(ds.directory), "--out", str(target)], target)]


def _snapshot(path):
    """Bytes of an output file, or of every file in an output directory."""
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes() if path.exists() else None


def _clear(path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


class Runner:
    """Runs one workload's CLI invocations in a closed loop and checks each output."""

    def __init__(self, root, ds, work):
        self.ds = ds
        self.work = work
        self.env = child_env(root)
        self.jobs = jobs(ds, work / "out")
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.first_output = {}
        self.outcomes = {}  # key -> Outcome of the first invocation
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def cli(self, args):
        return [sys.executable, "-m", "rrcif.cli", *args]

    def run(self, job_index, traced=False):
        key, args, output = self.jobs[job_index % len(self.jobs)]
        _clear(output)
        self.count += 1
        spans = self.logs / f"spans_{self.count}.json"
        if traced:
            argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "trace_cli.py"), str(spans), "--", *args]
        else:
            argv = self.cli(args)
        wall, cpu, rss, code, _, stderr = spawn(argv, self.env, self.work, self.logs / f"run_{self.count}")
        inv = Invocation(key, wall, cpu, rss, code, stderr, output)
        outcome = self.check(inv)
        snapshot = _snapshot(output) if code == 0 else None
        if key not in self.first_output:
            self.first_output[key] = snapshot
            self.outcomes[key] = outcome
        elif snapshot != self.first_output[key]:
            outcome.problems.append(f"{key}: output differs from an earlier invocation on the same input")
        units = 1 + (len(self.ds.records) if self.ds.workload != "estimate-300hz" else 0)
        self.attempted += units
        self.failed += min(units, outcome.skipped + (1 if outcome.problems else 0))
        self.problems.extend(outcome.problems)
        return inv, (spans if traced else None)

    def check(self, inv):
        ds = self.ds
        if ds.workload == "estimate-300hz":
            return checks.check_estimate(inv.output, ds.true_rr[inv.key], ds.size.duration_s, inv.exit_code, inv.stderr)
        if ds.workload == "benchmark-100hz":
            ids = [p.stem for p in ds.records]
            return checks.check_benchmark(inv.output, ids, ds.size.duration_s, inv.exit_code, inv.stderr)
        return checks.check_sweep(inv.output, inv.exit_code, inv.stderr)

    def accuracy(self):
        """(rmse_bpm, retention) over the distinct inputs, from their first outputs."""
        outs = list(self.outcomes.values())
        if any(o.rmse is not None for o in outs):  # the sweep reports them directly
            return outs[0].rmse, outs[0].retention
        sq = sum(o.squared_error for o in outs)
        kept = sum(o.retained for o in outs)
        windows = sum(o.windows for o in outs)
        return ((sq / kept) ** 0.5 if kept else 0.0), (kept / windows if windows else 0.0)


def closed_loop(runner, seconds, traced_too=False):
    """Invoke jobs one after another until the next one would end past `seconds`.

    Untraced, every distinct job runs at least once (and benchmark/sweep at
    least MIN_RUNS times) so the accuracy metrics cover the same inputs on
    every run. With `traced_too`, each untraced invocation is followed by a
    traced one on the same job, and one such pair is the minimum. The loop
    stops at the first failed check: the run has failed by then.
    """
    minimum = 1 if traced_too else max(len(runner.jobs), MIN_RUNS)
    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        per_job = sum(inv.wall_s for inv in untraced) + sum(inv.wall_s for inv, _ in traced)
        estimate = per_job / i if i else 0.0
        if i and (runner.problems or (i >= minimum and time.perf_counter() - start + estimate > seconds)):
            break
        untraced.append(runner.run(i)[0])
        if traced_too:
            traced.append(runner.run(i, traced=True))
        i += 1
    return untraced, traced


def summary(values):
    """Median and sample count, plus the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 20:  # at least the median has ten samples beyond it
        k = len(values) - 11
        out[f"p{100 * (k + 1) // len(values)}"] = values[k]
    return out


def setup_probes(runner):
    walls = []
    for k in range(SETUP_PROBES):
        wall, _, _, code, stdout, stderr = spawn(runner.cli(["--help"]), runner.env, runner.work, runner.logs / f"help_{k}")
        if code != 0 or "usage:" not in stdout:
            runner.problems.append(f"rrcif --help exited {code}: {stderr.strip()[-300:]}")
        walls.append(wall)
    return walls


def import_probes(runner):
    samples = []
    argv = [sys.executable, "-X", "importtime", "-c", "import rrcif.cli"]
    for k in range(IMPORT_PROBES):
        _, _, _, code, _, stderr = spawn(argv, runner.env, runner.work, runner.logs / f"import_{k}")
        if code != 0:
            runner.problems.append(f"import rrcif.cli failed: {stderr.strip()[-300:]}")
        samples.append(layers.parse_importtime(stderr))
    return {name: statistics.median(s[name] for s in samples) for name in layers.IMPORTS}


def end_to_end_metrics(runner, untraced, setup_walls):
    rmse, retention = runner.accuracy()
    return {
        "wall_s": (statistics.median(inv.wall_s for inv in untraced), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "cpu_s": (statistics.median(inv.cpu_s for inv in untraced), "s"),
        "peak_rss_mb": (statistics.median(inv.peak_rss_mb for inv in untraced), "MB"),
        "ok_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
        "rmse_bpm": (rmse, "bpm"),
        "retention": (retention, "ratio"),
    }


def layer_metrics(runner, untraced, traced, imports):
    per_run = []
    for inv, spans in traced:
        if inv.exit_code != 0 or not spans.exists():
            continue  # already a failed check
        s = layers.summarize_spans(spans, inv.stderr)
        rows = runner.ds.rows[inv.key] if inv.key != "all" else sum(runner.ds.rows.values())
        s["rows_per_s"] = rows / s["self_s"]["signal_io"] if s["self_s"]["signal_io"] > 0 else 0.0
        per_run.append(s)

    def med(pick):
        return statistics.median(pick(s) for s in per_run) if per_run else 0.0

    metrics = {name: (value, "s") for name, value in imports.items()}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = (med(lambda s: s["self_s"][layer]), "s")
    metrics.update(
        {
            "signal_io.rows_per_s": (med(lambda s: s["rows_per_s"]), "1/s"),
            "preprocess.artifact_ratio": (med(lambda s: s["artifact_ratio"]), "ratio"),
            "spectral.calls": (med(lambda s: s["calls"]["spectral"]), "count"),
            "spectral.useful_ratio": (med(lambda s: s["useful_ratio"]), "ratio"),
            "fusion.retained_ratio": (med(lambda s: s["retained_ratio"]), "ratio"),
            "evaluation.calls": (med(lambda s: s["calls"]["evaluation"]), "count"),
            "cli.busy_over_wall": (med(lambda s: s["busy_over_wall"]), "ratio"),
            "trace.overhead_s": (
                statistics.median(inv.wall_s for inv, _ in traced) - statistics.median(inv.wall_s for inv in untraced),
                "s",
            ),
        }
    )
    return metrics, per_run


def environment(args):
    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        # The CLI's pool rule with RRCIF_THREADS unset, as the benchmark runs it.
        "cli_pool_threads": min(8, os.cpu_count() or 1),
    }


def run_workload(root, args, size=datasets.FULL):
    """Build the inputs, measure, check; returns (result line, details)."""
    work = root / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    ds = datasets.build(args.workload, args.seed, work / "data", size)
    build_s = time.perf_counter() - t0
    runner = Runner(root, ds, work)

    if args.trace:
        imports = import_probes(runner)
        untraced, traced = closed_loop(runner, args.seconds, traced_too=True)
        metrics, per_run = layer_metrics(runner, untraced, traced, imports)
        extra = {"traced_runs": per_run}
    else:
        setup_walls = setup_probes(runner)
        untraced, _ = closed_loop(runner, args.seconds)
        metrics = end_to_end_metrics(runner, untraced, setup_walls)
        extra = {
            "setup_samples": setup_walls,
            "setup_s": summary(setup_walls),
            "wall_s": summary([inv.wall_s for inv in untraced]),
            "cpu_s": summary([inv.cpu_s for inv in untraced]),
            "peak_rss_mb": summary([inv.peak_rss_mb for inv in untraced]),
        }
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            runner.problems.append(f"metric {name} is {value}")
            metrics[name] = (0.0, metrics[name][1])
    correct = not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "environment": environment(args),
        "dataset": {
            "build_s": build_s,
            "size": vars(ds.size),
            "true_rr": ds.true_rr,
            "corrupted_fraction": ds.corrupted_fraction,
            "digests": ds.digests,
        },
        "invocations": [
            {"key": inv.key, "wall_s": inv.wall_s, "cpu_s": inv.cpu_s, "peak_rss_mb": inv.peak_rss_mb, "exit": inv.exit_code}
            for inv in untraced
        ],
        "problems": runner.problems,
        **extra,
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(datasets.WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=54)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="quick check of the checks and metric names")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rrcif" / "cli.py").is_file():
        print(f"perfbench: {root} is not an rrcif source tree (no src/rrcif/cli.py)", file=sys.stderr)
        return 2
    if args.self_check:
        from perfbench import selfcheck

        return selfcheck.main(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    sys.path.insert(0, str(root / "src"))
    result, details = run_workload(root, args)
    details_path = root / WORK_DIR / args.workload / "details.json"
    details_path.write_text(json.dumps({"result": result, **details}, indent=1) + "\n", encoding="utf-8")
    for problem in details["problems"]:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(details["environment"]))
    print("inputs: " + json.dumps(details["dataset"]["digests"]))
    print(f"details: {details_path.relative_to(root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
