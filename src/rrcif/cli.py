"""Command-line front end.

Subcommands:
  estimate   one recording -> per-window fused rates (CSV)
  benchmark  a directory of record/reference pairs -> per-subject CSV and an
             aggregate JSON report
  sweep      threshold sweep over a dataset -> plot-ready CSV
  synth      write a synthetic recording and its reference

Exit codes: 0 ok, 2 I/O or data errors, 64 usage errors. Output files start
with a versioned provenance comment line.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from . import evaluation, pipeline, signal_io
from .errors import RrcifError
from .fusion import FusionResult
from .riv import ALL_KINDS, RivKind
from .signal_io import ModDepths, SynthSpec
from .spectral import DEFAULT_THRESHOLD, fit_power_law, window_spectrum

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
MIN_T_STEP = 0.01

try:
    VERSION = version("rrcif")
except PackageNotFoundError:  # running from a source tree
    VERSION = "0.1.0"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _header(method: str, t: float) -> str:
    return f"# rrcif {VERSION} method={method} t={t:g}\n"


def _check_t(parser, t):
    if not 0.0 <= t <= 1.0:
        parser.error(f"--t must lie in [0, 1], got {t}")


def _write_estimates(path, fusion: FusionResult, grid, method, t):
    lines = [_header(method, t), "window_start_s,rr_fusion,c_fusion,retained,contributors\n"]
    rows = zip(grid.windows, fusion.rr_fusion.tolist(), fusion.c_fusion.tolist(), fusion.retained, fusion.contributors)
    for (start, _), rr, c, retained, contributors in rows:
        rr = f"{rr:.4f}" if retained else ""
        c = f"{c:.6g}" if retained and not np.isnan(c) else ""
        names = "|".join(k.name for k, used in zip(ALL_KINDS, contributors) if used)
        lines.append(f"{start:.1f},{rr},{c},{int(retained)},{names}\n")
    _emit(path, lines)


def _emit(path, lines):
    if path == "-":
        sys.stdout.writelines(lines)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)


def _dump_beats(path, beats):
    lines = ["t_foot,v_foot,t_peak,v_peak,width50,rise25_75,period,artifact\n"]
    for b in beats:
        period = f"{b.period:.6g}" if b.period is not None else ""
        lines.append(
            f"{b.t_foot:.4f},{b.v_foot:.6g},{b.t_peak:.4f},{b.v_peak:.6g},"
            f"{b.width50:.6g},{b.rise25_75:.6g},{period},{int(b.artifact)}\n"
        )
    _emit(path, lines)


def _dump_riv(directory, rivs):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for kind, series in rivs.items():
        lines = ["t,value,artifact\n"]
        for t, v, a in zip(series.times, series.values, series.artifact_mask):
            lines.append(f"{t:.4f},{v:.8g},{int(a)}\n")
        _emit(directory / f"{kind.name.lower()}.csv", lines)


def _dump_spectrum(out_dir, analysis, window_index, kind_name):
    kind = RivKind[kind_name.upper()]
    window = analysis.grid.windows[window_index]
    spectrum = window_spectrum(analysis.rivs[kind], window)
    if spectrum is None:
        raise RrcifError(f"window {window_index} of {kind.name} is artifact-skipped")
    spectrum = fit_power_law(spectrum)
    lines = ["f,P,P_fit,P_out\n"]
    for f, p, pf, po in zip(spectrum.freqs, spectrum.P, spectrum.P_fit, spectrum.P_out):
        lines.append(f"{f:.6g},{p:.8g},{pf:.8g},{po:.8g}\n")
    path = Path(out_dir) / f"spectrum_w{window_index}_{kind.name.lower()}.csv"
    _emit(path, lines)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_estimate(args, parser):
    _check_t(parser, args.t)
    record = signal_io.read_record(args.input)
    analysis = pipeline.analyze_record(record)
    fusion = pipeline.fuse_estimates(analysis.estimates, args.method, args.t)
    _write_estimates(args.out, fusion, analysis.grid, args.method, args.t)
    if args.dump_beats:
        _dump_beats(args.dump_beats, analysis.beats)
    if args.dump_riv:
        _dump_riv(args.dump_riv, analysis.rivs)
    if args.dump_spectrum:
        raw_index, raw_kind = args.dump_spectrum
        try:
            window_index = int(raw_index)
        except ValueError:
            parser.error(f"--dump-spectrum window must be an integer, got {raw_index!r}")
        if raw_kind.upper() not in RivKind.__members__:
            parser.error(f"--dump-spectrum kind must be one of {[k.name for k in RivKind]}, got {raw_kind!r}")
        if not 0 <= window_index < analysis.grid.count:
            parser.error(f"--dump-spectrum window {window_index} outside 0..{analysis.grid.count - 1}")
        out_dir = Path(args.out).parent if args.out != "-" else Path(".")
        _dump_spectrum(out_dir, analysis, window_index, raw_kind)
    return EXIT_OK


def _analyze_dataset(directory):
    """Read and analyze every subject of a dataset directory, in id order.

    A subject is <id>.csv with <id>_ref.csv beside it, or a record JSON with
    an embedded reference. One that cannot be read or analyzed is warned
    about and skipped. Returns ((analysis, reference) pairs, skipped names).
    """
    directory = Path(directory)
    records = sorted(p for p in directory.glob("*.csv") if not p.stem.endswith("_ref"))
    records += sorted(directory.glob("*.json"))
    if not records:
        raise RrcifError(f"{directory}: no record files found")
    subjects, skipped = [], []
    for path in records:
        try:
            if path.suffix == ".json":
                record, reference = signal_io.read_record_json(path)
                if reference is None:
                    raise RrcifError(f"{path}: JSON record has no embedded reference")
            else:
                ref_path = path.with_name(path.stem + "_ref.csv")
                record = signal_io.read_record(path)
                if not ref_path.exists():
                    raise RrcifError(f"{path}: no matching *_ref.csv reference")
                reference = signal_io.read_reference(ref_path)
            subjects.append((pipeline.analyze_record(record), reference))
        except Exception as exc:  # noqa: BLE001 - one bad subject must not end the run
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            skipped.append(path.name)
    if not subjects:
        raise RrcifError(f"{directory}: no subject could be analyzed")
    subjects.sort(key=lambda s: s[0].record_id)
    return subjects, skipped


def _cmd_benchmark(args, parser):
    _check_t(parser, args.t)
    methods = [m.strip().lower() for m in args.methods.split(",")]
    for i, m in enumerate(methods):
        if m not in pipeline.METHODS:
            parser.error(f"unknown method {m!r}")
        if m in methods[:i]:
            parser.error(f"method {m!r} given twice")
    subjects, skipped = _analyze_dataset(args.dataset)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ref_rates = [evaluation.reference_at(ref, a.grid.windows) for a, ref in subjects]
    fused, rmse, retention = {}, {}, {}
    for method in methods:
        fused[method] = [pipeline.fuse_estimates(a.estimates, method, args.t) for a, _ in subjects]
        rmse[method], retention[method] = np.array([evaluation.score(f, r) for f, r in zip(fused[method], ref_rates)]).T

    lines = [_header(",".join(methods), args.t), "id,method,t,rmse,retention\n"]
    for method in methods:
        for (a, _), subject_rmse, subject_retention in zip(subjects, rmse[method], retention[method]):
            subject_rmse = "" if np.isnan(subject_rmse) else f"{subject_rmse:.6g}"
            lines.append(f"{a.record_id},{method.upper()},{args.t:.2f},{subject_rmse},{subject_retention:.6g}\n")
    _emit(out_dir / "subjects.csv", lines)

    report = {
        "version": VERSION,
        "t": args.t,
        "subjects": len(subjects),
        "skipped": skipped,
        "methods": {},
        "wilcoxon_bonferroni": {},
    }
    for method in methods:
        scored = rmse[method][~np.isnan(rmse[method])]
        report["methods"][method] = {
            "rmse_median": float(np.median(scored)) if scored.size else None,
            "retention_median": float(np.median(retention[method])),
        }
    if len(subjects) >= 6:
        for metric, values in (("rmse", rmse), ("retention", retention)):
            raw = {}
            for i, m1 in enumerate(methods):
                for m2 in methods[i + 1 :]:
                    x, y = values[m1], values[m2]
                    keep = ~(np.isnan(x) | np.isnan(y))
                    if keep.sum() >= 6:
                        raw[f"{m1}_vs_{m2}"] = evaluation.wilcoxon_signed_rank(x[keep], y[keep])
            # Bonferroni over the pairs actually tested for this metric
            report["wilcoxon_bonferroni"][metric] = {pair: min(1.0, len(raw) * p) for pair, p in raw.items()}
    if "cif" in methods:
        est = np.concatenate([f.rr_fusion[f.retained] for f in fused["cif"]])
        ref = np.concatenate([r[f.retained] for f, r in zip(fused["cif"], ref_rates)])
        if est.size >= 2:
            stats = evaluation.agreement(est, ref)
            report["agreement_cif"] = {
                "r": None if np.isnan(stats.r) else stats.r,
                "bias": stats.bias,
                "loa_low": stats.loa_low,
                "loa_high": stats.loa_high,
                "n_pairs": stats.n_pairs,
            }
    with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def _cmd_sweep(args, parser):
    if args.t_min > args.t_max:
        parser.error(f"--t-min {args.t_min} exceeds --t-max {args.t_max}")
    # a finer step would repeat thresholds in the 2-decimal t column
    if not args.t_step >= MIN_T_STEP:
        parser.error(f"--t-step must be at least {MIN_T_STEP}, got {args.t_step}")
    for t in (args.t_min, args.t_max):
        _check_t(parser, t)
    n_steps = int(np.floor((args.t_max - args.t_min) / args.t_step + 1e-9)) + 1
    t_grid = [round(args.t_min + i * args.t_step, 10) for i in range(n_steps)]

    subjects, _ = _analyze_dataset(args.dataset)
    rows = evaluation.sweep(subjects, t_grid)
    lines = [_header("cif", args.t_min), "t,rmse_p25,rmse_median,rmse_p75,retention_median\n"]
    for row in rows:
        lines.append(
            f"{row.t:.2f},{row.rmse_p25:.6g},{row.rmse_median:.6g},{row.rmse_p75:.6g},{row.retention_median:.6g}\n"
        )
    _emit(args.out, lines)
    return EXIT_OK


def _cmd_synth(args, parser):
    depths = ModDepths(
        intensity=args.depths[0],
        amplitude=args.depths[1],
        frequency=args.depths[2],
        width=args.depths[3],
        slope=args.depths[4],
    )
    spec = SynthSpec(
        rr=args.rr,
        hr=args.hr,
        duration_s=args.duration,
        fs=args.fs,
        depths=depths,
        noise_sd=args.noise_sd,
        seed=args.seed,
    )
    record, reference = signal_io.synthesize(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    provenance = (
        f"rrcif {VERSION} synth rr={spec.rr:g} hr={spec.hr:g} fs={spec.fs:g} "
        f"noise_sd={spec.noise_sd:g} seed={spec.seed}"
    )
    signal_io.write_record(record, out.with_suffix(".csv"), comment=provenance)
    signal_io.write_reference(reference, out.with_name(out.stem + "_ref.csv"), comment=provenance)
    print(f"wrote {out.with_suffix('.csv')} and {out.with_name(out.stem + '_ref.csv')}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="rrcif", description="Respiratory rate from PPG via covariance intersection fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="per-window fused rates for one recording")
    p.add_argument("input", help="PPG CSV (t,ppg) or record JSON")
    p.add_argument("--method", choices=pipeline.METHODS, default="cif")
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD, help="noise index threshold")
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.add_argument("--dump-beats", metavar="PATH", help="also write detected beats as CSV")
    p.add_argument("--dump-riv", metavar="DIR", help="also write one CSV per variation series")
    p.add_argument("--dump-spectrum", nargs=2, metavar=("WINDOW", "KIND"), help="also write one window's spectrum CSV")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("benchmark", help="score methods over a dataset directory")
    p.add_argument("dataset", help="directory of <id>.csv + <id>_ref.csv pairs (or JSON records)")
    p.add_argument("--methods", default="cif,sf3,sf5")
    p.add_argument("--t", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", default="benchmark_out", help="output directory")
    p.set_defaults(fn=_cmd_benchmark)

    p = sub.add_parser("sweep", help="threshold sweep over a dataset directory")
    p.add_argument("dataset")
    p.add_argument("--t-min", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=0.3)
    p.add_argument("--t-step", type=float, default=0.01)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_sweep)

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
    p.set_defaults(fn=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, parser)
    except (RrcifError, OSError) as exc:
        print(f"rrcif: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
