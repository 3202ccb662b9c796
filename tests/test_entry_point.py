"""The command as a process: `python -m rrcif.cli` in a fresh interpreter.

The other CLI tests call `main` in-process; these cover what only a real
process shows: the BLAS thread pin, the modules a command loads, the exit
path of `run` and the lifetime of the worker processes.
"""

import ast
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import make_synth

SRC = str(Path(__file__).resolve().parents[1] / "src")
needs_proc = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")


def _env(**overrides):
    # Unbuffered streams would hide output lost at exit.
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    env.update(overrides)
    return env


def _python(code, **env):
    result = subprocess.run(
        [sys.executable, "-c", code], env=_env(**env), capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rrcif.cli", *map(str, args)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )


@needs_proc
def test_cli_import_runs_one_thread():
    threads, blas = _python("import os, rrcif.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert (threads, blas) == ("1", "1")


def test_cli_import_keeps_callers_blas_threads():
    assert _python("import os, rrcif.cli; print(os.environ['OPENBLAS_NUM_THREADS'])", OPENBLAS_NUM_THREADS="2") == ["2"]


@needs_proc
def test_library_modules_leave_environment_and_threads_alone():
    code = (
        "import importlib, os, pkgutil\n"
        "import numpy, scipy.signal, scipy.stats, rrcif\n"
        "env, threads = dict(os.environ), len(os.listdir('/proc/self/task'))\n"
        "import rrcif.pipeline\n"
        "for info in pkgutil.iter_modules(rrcif.__path__, 'rrcif.'):\n"
        "    if info.name != 'rrcif.cli':\n"
        "        importlib.import_module(info.name)\n"
        "print(dict(os.environ) == env, len(os.listdir('/proc/self/task')) == threads,\n"
        "      os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    assert _python(code) == ["True", "True", "None"]


def test_cli_import_loads_no_process_pool():
    # multiprocessing loads when a dataset command imports the pool class, not before
    code = (
        "import sys, rrcif.cli\n"
        "print('multiprocessing' in sys.modules, 'concurrent.futures.process' in sys.modules)\n"
    )
    assert _python(code) == ["False", "False"]


def _numpy_and_scipy_modules_after(statements):
    code = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in statements)
        + "print(*(sum(n == top or n.startswith(top + '.') for n in sys.modules) for top in ('numpy', 'scipy')))\n"
    )
    return [int(count) for count in _python(code)]


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["--help"],
        ["estimate", "--help"],
        ["benchmark", "--help"],
        ["sweep", "--help"],
        ["synth", "--help"],
        ["benchmark", "no-such-dir", "--t", "0.125"],  # usage error, exit 64
        ["frobnicate"],  # unknown subcommand, exit 64
        ["synth", "--rr", "15", "--hr", "70", "--duration", "40", "--out", "{tmp}/s"],
    ],
    ids=[
        "import", "help", "estimate-help", "benchmark-help", "sweep-help", "synth-help",
        "usage-error", "unknown-subcommand", "synth",
    ],
)
def test_commands_that_analyze_no_record_load_no_scipy(tmp_path, argv):
    # Only synth needs numpy; the rest load the standard library alone.
    statements = ["import rrcif.cli"]
    if argv is not None:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        statements += ["try:", f"    rrcif.cli.main({argv!r})", "except SystemExit:", "    pass"]
    numpy_modules, scipy_modules = _numpy_and_scipy_modules_after(statements)
    assert scipy_modules == 0
    if argv and argv[0] == "synth" and "--help" not in argv:
        assert numpy_modules > 0
        assert (tmp_path / "s.csv").is_file()
    else:
        assert numpy_modules == 0


@pytest.mark.parametrize("command", ["benchmark", "sweep"])
def test_pool_is_created_after_the_filter_stack_loads(tmp_path, command):
    # Forked workers inherit the parent's modules, so scipy's compiled filter
    # and peak kernels must be loaded before the pool exists or every worker
    # pays for loading them.
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).touch()
    code = (
        "import concurrent.futures, sys\n"
        "from rrcif import cli\n"
        "class Probe:\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        print(all(f'scipy.signal.{name}' in sys.modules for name in ('_sosfilt', '_peak_finding_utils')))\n"
        "        raise SystemExit(0)\n"
        "concurrent.futures.ProcessPoolExecutor = Probe\n"
        f"cli.main([{command!r}, {str(tmp_path)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
    )
    assert _python(code) == ["True"]


def _write_dataset(directory):
    from rrcif.signal_io import write_record, write_reference

    directory.mkdir()
    for name, seed in (("a", 1), ("b", 2)):
        record, reference = make_synth(duration=40.0, seed=seed)
        write_record(record, directory / f"{name}.csv")
        write_reference(reference, directory / f"{name}_ref.csv")
    return directory


def test_workers_import_no_numpy_scipy_or_rrcif_module(tmp_path):
    # Forked workers inherit the parent's modules; a module that only loads on
    # first use in a worker is loaded by every worker for itself. Each worker
    # notes what it imported between its fork and the end of each subject.
    data = _write_dataset(tmp_path / "data")
    code = (
        "import os, sys\n"
        "from rrcif import cli\n"
        "at_fork = []\n"
        "os.register_at_fork(after_in_child=lambda: at_fork.append(set(sys.modules)))\n"
        "analyze = cli._analyze_subject\n"
        "def probe(path):\n"
        "    result = analyze(path)\n"
        f"    with open(os.path.join({str(tmp_path)!r}, f'loaded-{{os.getpid()}}'), 'a') as fh:\n"
        "        fh.writelines(f'{name}\\n' for name in set(sys.modules) - at_fork[0])\n"
        "    return result\n"
        "cli._analyze_subject = probe\n"
        f"print(cli.main(['benchmark', {str(data)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    assert _python(code) == ["0"]
    logs = list(tmp_path.glob("loaded-*"))
    assert 1 <= len(logs) <= 2
    loaded = {name for log in logs for name in log.read_text().split()}
    assert sorted(n for n in loaded if n.split(".")[0] in ("numpy", "scipy", "rrcif")) == []


@pytest.mark.parametrize("command", ["benchmark", "sweep"])
def test_each_json_subject_is_parsed_once_and_in_a_worker(tmp_path, command):
    # The worker that analyzes a record JSON also gives its id; the command
    # itself never parses one. Every parse of a record JSON is logged.
    import json

    data = _write_dataset(tmp_path / "data")
    for name, seed, times in (("c", 3, [0, 40]), ("d", 4, [0, 2, 1])):  # d's reference is invalid
        record, _ = make_synth(duration=40.0, seed=seed)
        doc = {"id": name, "fs": record.fs, "samples": record.samples.tolist(), "reference": {"t": times, "rr": [15] * len(times)}}
        (data / f"{name}.json").write_text(json.dumps(doc))
    log = tmp_path / "parsed"
    code = (
        "import os\n"
        "from rrcif import cli, signal_io\n"
        "parse = signal_io._read_json\n"
        "def logged(path):\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()} {path.name}\\n')\n"
        "    return parse(path)\n"
        "signal_io._read_json = logged\n"
        f"print(os.getpid(), cli.main([{command!r}, {str(data)!r}, '--out', {str(tmp_path / 'out')!r}]))\n"
    )
    pid, code = _python(code)
    assert code == "0"
    parses = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for _, name in parses) == ["c.json", "d.json"]
    assert pid not in {parser for parser, _ in parses}


def test_commands_load_neither_importlib_metadata_nor_statistics(tmp_path):
    # the version is a constant, no median comes from the statistics module,
    # and no median or percentile from numpy's, which load numpy.ma
    data = _write_dataset(tmp_path / "data")
    runs = [
        ["estimate", str(data / "a.csv"), "--out", str(tmp_path / "est.csv")],
        ["benchmark", str(data), "--out", str(tmp_path / "bench")],
        ["sweep", str(data), "--out", str(tmp_path / "sweep.csv")],
    ]
    code = (
        "import sys\n"
        "from rrcif import cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(*codes, *(name in sys.modules for name in ('importlib.metadata', 'statistics', 'numpy.ma')))\n"
    )
    assert _python(code) == ["0", "0", "0", "False", "False", "False"]


def test_evaluation_loads_neither_scipy_nor_the_filter_stack():
    # benchmark imports evaluation before its pool: were the filter stack to come
    # with it, the benchmark case of the pool-order test above could not fail
    code = (
        "import sys, rrcif.evaluation\n"
        "print(any(n == 'scipy' or n.startswith('scipy.') for n in sys.modules), 'rrcif.preprocess' in sys.modules)\n"
    )
    assert _python(code) == ["False", "False"]


def test_estimate_loads_neither_scipy_signal_nor_scipy_stats(tmp_path):
    # the band-pass and the peak finder run on scipy's compiled kernels, loaded by file path
    from rrcif.signal_io import write_record

    record, _ = make_synth(duration=40.0, seed=1)
    write_record(record, tmp_path / "r.csv")
    code = (
        "import sys\n"
        "from rrcif import cli\n"
        f"code = cli.main(['estimate', {str(tmp_path / 'r.csv')!r}, '--out', {str(tmp_path / 'est.csv')!r}])\n"
        "print(code, *(name in sys.modules for name in ('scipy.signal', 'scipy.stats', 'scipy.signal._sosfilt')))\n"
    )
    assert _python(code) == ["0", "False", "False", "True"]
    assert (tmp_path / "est.csv").is_file()


def test_scipy_signal_fallback_analyzes_a_record_to_the_same_bytes(tmp_path):
    # _load_kernels finds no extension beside a scipy that claims to live elsewhere, so the
    # first import of rrcif takes the scipy.signal fallback; rates, NI and reasons must not move
    from rrcif.signal_io import write_record

    record, _ = make_synth(seed=3)
    write_record(record, tmp_path / "r.csv")
    analyze = (
        "import hashlib, sys\n"
        "from rrcif import pipeline, signal_io\n"
        f"table = pipeline.analyze_record(signal_io.read_record({str(tmp_path / 'r.csv')!r})).estimates\n"
        "print('scipy.signal' in sys.modules, *(hashlib.sha256(getattr(table, n).tobytes()).hexdigest() for n in ('rr', 'ni', 'reason')))\n"
    )
    kernels = _python(analyze)
    fallback = _python("import scipy\nscipy.__file__ = '/nonexistent/scipy/__init__.py'\n" + analyze)
    assert (kernels[0], fallback[0]) == ("False", "True")
    assert fallback[1:] == kernels[1:]


def test_only_preprocess_imports_scipy():
    # and the module that loads scipy's compiled signal kernels for it
    offenders = []
    for path in sorted(Path(SRC, "rrcif").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            if path.name not in ("preprocess.py", "_sigkernels.py") and any(m == "scipy" or m.startswith("scipy.") for m in modules):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_source_tree_version_matches_pyproject():
    # output headers print VERSION; pyproject states no version of its own but reads this constant
    import tomllib

    import rrcif
    from rrcif import cli

    pyproject = Path(SRC).parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        declared = tomllib.load(fh)
    assert "version" not in declared["project"]
    assert "version" in declared["project"]["dynamic"]
    assert declared["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "rrcif.__version__"}
    # setuptools reads the attribute from the source, importing neither rrcif nor numpy
    expanded, imported = _python(
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')  # older setuptools call [tool.setuptools] beta\n"
        "from setuptools.config.pyprojecttoml import read_configuration\n"
        f"print(read_configuration({str(pyproject)!r})['project']['version'])\n"
        "print(any(m.split('.')[0] in ('rrcif', 'numpy') for m in sys.modules))\n"
    )
    assert rrcif.__version__ == cli.VERSION == expanded
    assert imported == "False"


def test_a_failing_property_under_the_pytest_settings_prints_its_example(tmp_path):
    # the settings make a DeprecationWarning an error; reporting a failure, hypothesis
    # may import libcst, which warns, and that must not end the session with INTERNALERROR
    shutil.copy(Path(SRC).parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 0\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout


def test_help_exit_0():
    result = _cli("--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: rrcif")


def test_help_with_stdout_closed_exit_0():
    # Python sets sys.stdout to None when descriptor 1 is closed at startup.
    result = subprocess.run(
        ["sh", "-c", 'exec "$0" -m rrcif.cli --help >&-', sys.executable],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: rrcif" in result.stderr


def test_unknown_subcommand_exit_64():
    result = _cli("frobnicate")
    assert result.returncode == 64
    assert "invalid choice" in result.stderr


def test_missing_file_exit_2(tmp_path):
    result = _cli("estimate", tmp_path / "nope.csv")
    assert result.returncode == 2
    assert result.stderr.startswith("rrcif: error:")
    assert "Traceback" not in result.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["estimate", "{tmp}/r.csv", "--out", "-"], ["--help"]], ids=["estimate", "help"])
def test_stdout_on_a_full_disk_exit_2(tmp_path, argv):
    # the output fits stdout's buffer, so the write fails only when run() flushes it
    from rrcif.signal_io import write_record

    write_record(make_synth(duration=120.0, seed=1)[0], tmp_path / "r.csv")
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "rrcif.cli", *(arg.format(tmp=tmp_path) for arg in argv)],
            env=_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert result.returncode == 2, result.stderr
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith("rrcif: error: [Errno 28] ")
    assert "Traceback" not in result.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["estimate", "sweep", "benchmark"])
def test_stderr_on_a_full_disk_exit_2(tmp_path, command):
    # estimate fails on a missing file; sweep and benchmark fail writing the skip warning of broken.csv
    from rrcif.signal_io import write_record, write_reference

    record, reference = make_synth(duration=120.0, seed=1)
    write_record(record, tmp_path / "a.csv")
    write_reference(reference, tmp_path / "a_ref.csv")
    (tmp_path / "broken.csv").write_text("t,ppg\n0,1\nnot,numbers\n")
    argv = {
        "estimate": ["estimate", tmp_path / "nope.csv"],
        "sweep": ["sweep", tmp_path, "--out", "-"],
        "benchmark": ["benchmark", tmp_path, "--out", tmp_path / "out"],
    }[command]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "rrcif.cli", *map(str, argv)],
            env=_env(), stdout=subprocess.PIPE, stderr=full, text=True, timeout=120,
        )
    assert (result.returncode, result.stdout) == (2, "")
    assert not (tmp_path / "out").exists()


def test_sweep_to_stdout_prints_every_row(tmp_path):
    from rrcif.signal_io import write_record, write_reference

    for name, seed in (("a", 1), ("b", 2)):
        record, reference = make_synth(duration=120.0, seed=seed)
        write_record(record, tmp_path / f"{name}.csv")
        write_reference(reference, tmp_path / f"{name}_ref.csv")
    result = _cli("sweep", tmp_path, "--out", "-")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("# rrcif ") and lines[1].startswith("t,rmse_p25,")
    assert len(lines) == 2 + 31
    assert lines[-1].startswith("0.30,")


def _children(pid):
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _running(pid):
    """True unless the process is gone or a zombie."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@needs_proc
def test_workers_end_with_a_killed_command(tmp_path):
    # Records that are FIFOs with no writer: each worker blocks opening one,
    # so the workers are certainly alive when the command is killed.
    for name in ("a.csv", "b.csv"):
        os.mkfifo(tmp_path / name)
    expected = min(2, len(os.sched_getaffinity(0)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rrcif.cli", "benchmark", str(tmp_path), "--out", str(tmp_path / "out")],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < expected and time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.05)
            workers = _children(proc.pid)
        assert len(workers) == expected, "the command's workers never appeared"
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        time.sleep(1.0)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
