"""Command-line front end.

Subcommands:
  estimate   one recording -> per-window fused rates (CSV)
  benchmark  a directory of record/reference pairs -> per-subject CSV and an
             aggregate JSON report
  sweep      threshold sweep over a dataset -> plot-ready CSV
  synth      write a synthetic recording and its reference

Exit codes: 0 ok, 2 I/O or data errors, 64 usage errors. The estimate CSV,
subjects.csv, the sweep CSV and the synth files start with a versioned
provenance comment line; the --dump-* files and report.json do not.

Importing this module loads the standard library alone: each command
imports the numpy-backed modules it needs once its usage checks pass, so
--help and usage errors load no numpy (except the --dump-spectrum check,
which needs the variation kinds).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_THRESHOLD, METHODS, T_GRID_DEFAULT, __version__ as VERSION
from .errors import RrcifError

if TYPE_CHECKING:
    from .fusion import FusionResult
    from .spectral import EstimateTable

# Before numpy loads OpenBLAS: parallelism is the worker pool, so BLAS helper threads only spin.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _header(*words: str, **values) -> str:
    # the provenance text; :g keeps 6 significant digits, so a number it would round prints as its repr
    named = (f"{k}={v if isinstance(v, str) else f'{v:g}' if float(f'{v:g}') == v else repr(v)}" for k, v in values.items())
    return " ".join((f"rrcif {VERSION}", *words, *named))


def _check_t(parser, option, t):
    if not 0.0 <= t <= 1.0:
        parser.error(f"{option} must lie in [0, 1], got {t}")


def _hundredths(parser, option, value):
    """The k for which `value`, in [0, 1], lies within 1e-9 of k / 100, as the t column prints it; else a usage error."""
    _check_t(parser, option, value)
    k = round(value * 100)
    if abs(value - k / 100) > 1e-9:
        parser.error(f"{option} must be a multiple of 0.01, got {value}")
    return k


def _write_estimates(path, fusion: FusionResult, estimates: EstimateTable, method, t):
    from .riv import ALL_KINDS

    rows = []
    windows = zip(estimates.start_s.tolist(), fusion.rr_fusion.tolist(), fusion.c_fusion.tolist(), fusion.retained, fusion.contributors)
    for start, rr, c, retained, contributors in windows:
        rr = f"{rr:.4f}" if retained else ""
        c = f"{c:.6g}" if retained and not math.isnan(c) else ""
        names = "|".join(k.name for k, used in zip(ALL_KINDS, contributors) if used)
        rows.append(f"{start:.1f},{rr},{c},{int(retained)},{names}")
    _emit_table(path, "window_start_s,rr_fusion,c_fusion,retained,contributors", rows, _header(method=method, t=t))


def _emit(path, lines):
    if path == "-":
        sys.stdout.writelines(lines)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)


def _emit_table(path, header, rows, comment=None):
    """Write `# comment` when given, then the header and each row, each ended by a newline."""
    lines = [f"# {comment}"] if comment is not None else []
    _emit(path, [f"{line}\n" for line in (*lines, header, *rows)])


def _dump_riv(directory, rivs):
    from .riv import ALL_KINDS

    for kind, values in zip(ALL_KINDS, rivs.values):
        rows = (f"{t:.4f},{v:.8g},{int(a)}" for t, v, a in zip(rivs.times, values, rivs.artifact))
        _emit_table(Path(directory) / f"{kind.name.lower()}.csv", "t,value,artifact", rows)


def _spectrum_request(parser, raw):
    """(window index, kind) from the two --dump-spectrum words; usage error if malformed."""
    from .riv import RivKind

    raw_index, raw_kind = raw
    try:
        window_index = int(raw_index)
    except ValueError:
        parser.error(f"--dump-spectrum window must be an integer, got {raw_index!r}")
    if raw_kind.upper() not in RivKind.__members__:
        parser.error(f"--dump-spectrum kind must be one of {[k.name for k in RivKind]}, got {raw_kind!r}")
    return window_index, RivKind[raw_kind.upper()]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_estimate(args, parser):
    _check_t(parser, "--t", args.t)
    # usage errors come before any reading or writing
    spectrum_at = _spectrum_request(parser, args.dump_spectrum) if args.dump_spectrum else None
    from . import fusion, pipeline, signal_io
    from .spectral import window_spectrum

    record = signal_io.read_record(args.input)
    analysis = pipeline.analyze_record(record)
    if spectrum_at:
        window_index, kind = spectrum_at
        # a missing or unrated window is a data error, raised before any output is written
        spectrum = window_spectrum(analysis.rivs, analysis.estimates, window_index, kind)
    fused = fusion.fuse_estimates(analysis.estimates, args.method, args.t)
    _write_estimates(args.out, fused, analysis.estimates, args.method, args.t)
    if args.dump_beats:
        header = "t_foot,v_foot,t_peak,v_peak,width50,rise25_75,period,artifact"
        columns = [getattr(analysis.beats, name) for name in header.split(",")[:-1]] + [analysis.beats.rules != 0]
        beats = zip(*(column.tolist() for column in columns))
        _emit_table(args.dump_beats, header, (
            f"{t_foot:.4f},{v_foot:.6g},{t_peak:.4f},{v_peak:.6g},{width50:.6g},{rise:.6g},"
            f"{'' if math.isnan(period) else f'{period:.6g}'},{int(artifact)}"
            for t_foot, v_foot, t_peak, v_peak, width50, rise, period, artifact in beats
        ))
    if args.dump_riv:
        _dump_riv(args.dump_riv, analysis.rivs)
    if spectrum_at:
        out_dir = Path(args.out).parent if args.out != "-" else Path(".")
        rows = (f"{f:.6g},{p:.8g},{pf:.8g},{p - pf:.8g}" for f, p, pf in zip(*spectrum))
        _emit_table(out_dir / f"spectrum_w{window_index}_{kind.name.lower()}.csv", "f,P,P_fit,P_out", rows)
    return EXIT_OK


def _analyze_subject(path):
    """Read and analyze one subject in a worker process; returns its record id
    with (estimates, reference) or with the error message. The id is the one
    :func:`signal_io.read_subject` gives, None when it raises. A data or I/O
    error comes back as text for the parent to report; any other exception
    is a bug and propagates.
    """
    from . import pipeline, signal_io

    record_id = None
    try:
        record_id, read = signal_io.read_subject(path)
        record, reference = read()
        return record_id, (pipeline.analyze_record(record).estimates, reference)
    except (RrcifError, OSError) as exc:  # one bad subject must not end the run
        return record_id, str(exc)


def _end_with_parent(parent_pid):
    """Pool initializer: have the kernel send this worker SIGTERM when the
    command that forked it dies, so a killed command leaves no worker behind.
    """
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM) != 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))
    if os.getppid() != parent_pid:  # the command died before the prctl call
        os._exit(1)


def _analyze_dataset(directory):
    """Read and analyze every subject of a dataset directory, in id order.

    :func:`_analyze_subject` reads and analyzes each subject that
    :func:`signal_io.list_subjects` lists, once, in a worker process, one per
    available CPU but no more than there are subjects. Workers are forked
    with the analysis imported, so none imports a numpy, scipy or rrcif
    module for itself; each still loads ``gzip`` (through ``np.loadtxt``)
    and the ``utf-8-sig`` codec. Two files with one record id are a data error, found once the
    workers are done and before anything is written. A subject that cannot
    be read or analyzed is then warned about and skipped, in file-name order.
    Returns ({record id: (estimates, reference)} in id order, skipped names).
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # forked workers inherit the analysis, scipy's compiled kernels and the spectral basis, so none loads or builds them itself
    from . import pipeline, signal_io  # noqa: F401

    directory = Path(directory)
    records = signal_io.list_subjects(directory)
    if not records:
        raise RrcifError(f"{directory}: no record files found")
    workers = min(len(records), len(os.sched_getaffinity(0)))

    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_end_with_parent,
        initargs=(os.getpid(),),
    ) as pool:
        results = list(pool.map(_analyze_subject, records))
    paths = {}
    for path, (record_id, _) in zip(records, results):
        if record_id is not None and paths.setdefault(record_id, path) != path:
            raise RrcifError(f"{directory}: record id {record_id!r} is used by both {paths[record_id].name} and {path.name}")
    errors = {path.name: result for path, (_, result) in zip(records, results) if isinstance(result, str)}
    for name, error in errors.items():
        print(f"warning: skipping {name}: {error}", file=sys.stderr)
    subjects = dict(sorted((record_id, result) for record_id, result in results if not isinstance(result, str)))
    if not subjects:
        raise RrcifError(f"{directory}: no subject could be analyzed")
    return subjects, list(errors)


def _cmd_benchmark(args, parser):
    t = _hundredths(parser, "--t", args.t) / 100
    methods = [m.strip().lower() for m in args.methods.split(",")]
    for i, m in enumerate(methods):
        if m not in METHODS:
            parser.error(f"unknown method {m!r}")
        if m in methods[:i]:
            parser.error(f"method {m!r} given twice")
    import json

    from . import evaluation

    subjects, skipped = _analyze_dataset(args.dataset)
    scores, summary = evaluation.report(list(subjects.values()), methods, t)

    out_dir = Path(args.out)
    rows = []
    for method, (rmse, retention) in scores.items():
        for record_id, subject_rmse, subject_retention in zip(subjects, rmse.tolist(), retention.tolist()):
            if any(c in record_id for c in ',"\r\n'):  # RFC 4180 quotes a comma, a quote and a line break
                record_id = '"' + record_id.replace('"', '""') + '"'
            subject_rmse = "" if math.isnan(subject_rmse) else f"{subject_rmse:.6g}"
            rows.append(f"{record_id},{method.upper()},{t:.2f},{subject_rmse},{subject_retention:.6g}")
    _emit_table(out_dir / "subjects.csv", "id,method,t,rmse,retention", rows, _header(method=",".join(methods), t=t))
    report = {"version": VERSION, "skipped": skipped, **summary}
    _emit(out_dir / "report.json", [json.dumps(report, indent=2, sort_keys=True), "\n"])
    return EXIT_OK


def _cmd_sweep(args, parser):
    _check_t(parser, "--t-max", args.t_max)
    k_min = _hundredths(parser, "--t-min", args.t_min)
    k_step = _hundredths(parser, "--t-step", args.t_step)
    if k_step == 0:
        parser.error(f"--t-step must be positive, got {args.t_step}")
    k_max = math.floor(args.t_max * 100 + 1e-9)  # a bound: the grid's last point is the largest one not above it
    if k_min > k_max:
        parser.error(f"--t-min {args.t_min} exceeds --t-max {args.t_max}")
    t_grid = [k / 100 for k in range(k_min, k_max + 1, k_step)]
    from . import evaluation

    subjects, _ = _analyze_dataset(args.dataset)
    rows = (
        f"{row.t:.2f},{row.rmse_p25:.6g},{row.rmse_median:.6g},{row.rmse_p75:.6g},{row.retention_median:.6g}"
        for row in evaluation.sweep(list(subjects.values()), t_grid)
    )
    comment = _header(method="cif", t_min=k_min / 100, t_max=args.t_max, t_step=k_step / 100)
    _emit_table(args.out, "t,rmse_p25,rmse_median,rmse_p75,retention_median", rows, comment)
    return EXIT_OK


def _cmd_synth(args, parser):
    if Path(args.out).name in ("", ".."):  # a directory: "..", with a suffix, would make "...csv"
        parser.error(f"--out must end in a file name, got {args.out!r}")
    from . import signal_io

    spec = signal_io.SynthSpec(
        rr=args.rr,
        hr=args.hr,
        duration_s=args.duration,
        fs=args.fs,
        depths=signal_io.ModDepths(*args.depths),
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    record, reference = signal_io.synthesize(spec)
    out = Path(args.out)
    if out.suffix.lower() != ".csv":  # a dotted prefix such as s1.5 keeps its dot
        out = out.with_name(out.name + ".csv")
    ref_out = signal_io.reference_path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    provenance = _header("synth", rr=spec.rr, hr=spec.hr, duration=spec.duration_s, fs=spec.fs,
                         **vars(spec.depths), noise_sd=spec.noise_sd, seed=spec.seed)
    signal_io.write_record(record, out, comment=provenance)
    signal_io.write_reference(reference, ref_out, comment=provenance)
    print(f"wrote {out} and {ref_out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rrcif", description="Respiratory rate from PPG via covariance intersection fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="per-window fused rates for one recording")
    p.add_argument("input", help="PPG CSV (t,ppg) or record JSON")
    p.add_argument("--method", choices=METHODS, default="cif")
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD, help="noise index threshold")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.add_argument("--dump-beats", metavar="PATH", help="also write detected beats as CSV")
    p.add_argument("--dump-riv", metavar="DIR", help="also write one CSV per variation series")
    p.add_argument("--dump-spectrum", nargs=2, metavar=("WINDOW", "KIND"), help="also write one window's spectrum CSV")
    p.set_defaults(fn=_cmd_estimate, parser=p)

    dataset_help = "directory of record JSONs and <id>.csv records with their <id>_ref.csv; a reference with no record is skipped"
    p = sub.add_parser("benchmark", help="score methods over a dataset directory")
    p.add_argument("dataset", help=dataset_help)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", default="benchmark_out", help="output directory")
    p.set_defaults(fn=_cmd_benchmark, parser=p)

    p = sub.add_parser("sweep", help="threshold sweep over a dataset directory")
    p.add_argument("dataset", help=dataset_help)
    p.add_argument("--t-min", type=float, default=T_GRID_DEFAULT[0])
    p.add_argument("--t-max", type=float, default=T_GRID_DEFAULT[-1])
    p.add_argument("--t-step", type=float, default=T_GRID_DEFAULT[1] - T_GRID_DEFAULT[0])
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_sweep, parser=p)

    p = sub.add_parser("synth", help="write a synthetic recording + reference")
    p.add_argument("--rr", type=float, required=True, help="true respiratory rate, breaths/min")
    p.add_argument("--hr", type=float, required=True, help="heart rate, beats/min")
    p.add_argument("--duration", type=float, default=480.0)
    p.add_argument("--fs", type=float, default=100.0)
    p.add_argument(
        "--depths",
        type=float,
        nargs=5,
        default=[0.1, 0.1, 0.1, 0.1, 0.1],
        metavar=("INTENSITY", "AMPLITUDE", "FREQUENCY", "WIDTH", "SLOPE"),
    )
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=_cmd_synth, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, args.parser)  # a usage error names the command, through its own parser
    except (RrcifError, OSError) as exc:
        return _io_error(exc)


def _io_error(exc) -> int:
    try:  # one line on stderr, which may itself be full or closed
        print(f"rrcif: error: {exc}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return EXIT_IO


def run():
    """Process entry point: run `main` and end the process without
    interpreter teardown, which would only free memory the OS reclaims.

    By the time `main` returns, every output file is closed and the worker
    pool is joined, so flushing the standard streams is all that is left.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help and usage errors
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None when the descriptor was closed at startup
        try:
            stream.flush()
        except OSError as exc:  # a full disk or a closed pipe; a command that failed keeps its own report
            code = code or _io_error(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
