"""Output checks for each workload.

Each check reads what one CLI invocation wrote and returns an `Outcome`:
the problems found (any problem fails the invocation), the subjects the CLI
skipped, and the numbers the end-to-end accuracy metrics are built from.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

ESTIMATE_HEADER = ["window_start_s", "rr_fusion", "c_fusion", "retained", "contributors"]
SUBJECTS_HEADER = ["id", "method", "t", "rmse", "retention"]
SWEEP_HEADER = ["t", "rmse_p25", "rmse_median", "rmse_p75", "retention_median"]
METHODS = ("cif", "sf3", "sf5")
SWEEP_T = [round(0.01 * i, 2) for i in range(31)]
GATE_T = 0.13

# Recovery limits on clean synthetic data, where the pipeline's error is a
# few hundredths of a breath per minute.
CLEAN_MAX_RMSE_BPM = 1.0
CLEAN_MIN_RETENTION = 0.9
WINDOW_S, SHIFT_S = 32.0, 2.0


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    skipped: int = 0
    squared_error: float = 0.0  # sum of squared errors of retained windows
    retained: int = 0  # retained windows
    windows: int = 0  # windows scored
    rmse: float | None = None  # rmse reported directly (sweep)
    retention: float | None = None  # retention reported directly (sweep)


def window_count(duration_s):
    if duration_s < WINDOW_S:
        return 0
    return int(math.floor((duration_s - WINDOW_S) / SHIFT_S + 1e-9)) + 1


def _rows(path, header, out):
    """Data rows of a CLI CSV, after its provenance line and header."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        out.problems.append(f"{path}: cannot read output: {exc}")
        return []
    if not lines or not lines[0].startswith("# rrcif "):
        out.problems.append(f"{path}: missing provenance line")
        return []
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != header:
        out.problems.append(f"{path}: header {rows[0] if rows else None} != {header}")
        return []
    return rows[1:]


def _skipped_in(stderr):
    return sum(1 for line in stderr.splitlines() if "skipping" in line)


def check_estimate(path, true_rr, duration_s, exit_code, stderr):
    """One row per window on the 2 s grid, and the known rate recovered."""
    out = Outcome()
    if exit_code != 0:
        out.problems.append(f"estimate exited {exit_code}: {stderr.strip()[-300:]}")
        return out
    rows = _rows(path, ESTIMATE_HEADER, out)
    expected = window_count(duration_s)
    if len(rows) != expected:
        out.problems.append(f"{path}: {len(rows)} rows, expected one per window ({expected})")
        return out
    for i, row in enumerate(rows):
        try:
            start = float(row[0])
            retained = row[3] == "1"
            if abs(start - i * SHIFT_S) > 1e-6 or row[3] not in ("0", "1"):
                raise ValueError("bad window start or retained flag")
            if retained:
                err = float(row[1]) - true_rr
                if not (math.isfinite(err) and float(row[2]) > 0 and row[4]):
                    raise ValueError("retained window without rate, covariance or contributors")
                out.squared_error += err * err
                out.retained += 1
            elif row[1] or row[2] or row[4]:
                raise ValueError("gap window carries a rate")
        except (ValueError, IndexError) as exc:
            out.problems.append(f"{path}: row {i}: {exc}: {row}")
            return out
    out.windows = len(rows)
    _check_recovery(out, str(path))
    return out


def _check_recovery(out, label):
    if out.windows == 0 or out.retained / out.windows < CLEAN_MIN_RETENTION:
        out.problems.append(f"{label}: retained {out.retained}/{out.windows} windows, below {CLEAN_MIN_RETENTION}")
    elif math.sqrt(out.squared_error / out.retained) > CLEAN_MAX_RMSE_BPM:
        rmse = math.sqrt(out.squared_error / out.retained)
        out.problems.append(f"{label}: rmse {rmse:.3f} bpm above {CLEAN_MAX_RMSE_BPM} on clean data")


def check_benchmark(out_dir, subject_ids, duration_s, exit_code, stderr):
    """report.json lists every subject and skips none; subjects.csv scores each method."""
    out = Outcome()
    out.skipped = _skipped_in(stderr)
    if exit_code != 0:
        out.problems.append(f"benchmark exited {exit_code}: {stderr.strip()[-300:]}")
        return out
    out_dir = Path(out_dir)
    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        out.problems.append(f"report.json unreadable: {exc}")
        return out
    n = len(subject_ids)
    if report.get("subjects") != n:
        out.problems.append(f"report.json: {report.get('subjects')} subjects, expected {n}")
    if report.get("skipped"):
        out.skipped = max(out.skipped, len(report["skipped"]))
        out.problems.append(f"report.json: skipped {report['skipped']}")
    if sorted(report.get("methods", {})) != sorted(METHODS):
        out.problems.append(f"report.json: methods {sorted(report.get('methods', {}))}")
    if n >= 6 and sorted(report.get("wilcoxon_bonferroni", {})) != ["retention", "rmse"]:
        out.problems.append("report.json: Wilcoxon tables missing")
    if not report.get("agreement_cif", {}).get("n_pairs"):
        out.problems.append("report.json: CIF agreement missing")

    rows = _rows(out_dir / "subjects.csv", SUBJECTS_HEADER, out)
    windows = window_count(duration_s)
    seen = set()
    for row in rows:
        try:
            sid, method, rmse, retention = row[0], row[1].lower(), float(row[3]), float(row[4])
        except (ValueError, IndexError):
            out.problems.append(f"subjects.csv: bad row {row}")
            continue
        seen.add((sid, method))
        if not 0.0 <= retention <= 1.0:
            out.problems.append(f"subjects.csv: retention {retention} outside [0, 1]")
        if method == "cif":
            kept = round(retention * windows)
            out.squared_error += rmse * rmse * kept
            out.retained += kept
            out.windows += windows
    expected = {(sid, m) for sid in subject_ids for m in METHODS}
    if seen != expected:
        out.problems.append(f"subjects.csv: rows for {len(seen)} (subject, method) pairs, expected {len(expected)}")
    elif not out.problems:
        _check_recovery(out, "subjects.csv CIF")
    return out


def check_sweep(path, exit_code, stderr):
    """31 thresholds 0.00..0.30, retention never rising with t, no subject skipped."""
    out = Outcome()
    out.skipped = _skipped_in(stderr)
    if out.skipped:
        out.problems.append(f"sweep skipped {out.skipped} subjects")
    if exit_code != 0:
        out.problems.append(f"sweep exited {exit_code}: {stderr.strip()[-300:]}")
        return out
    rows = _rows(path, SWEEP_HEADER, out)
    if len(rows) != len(SWEEP_T):
        out.problems.append(f"{path}: {len(rows)} rows, expected {len(SWEEP_T)}")
        return out
    try:
        table = [[float(v) for v in row] for row in rows]
    except ValueError:
        out.problems.append(f"{path}: non-numeric field")
        return out
    if [round(r[0], 2) for r in table] != SWEEP_T:
        out.problems.append(f"{path}: thresholds {[r[0] for r in table]}")
    retention = [r[4] for r in table]
    if any(b > a for a, b in zip(retention, retention[1:])):
        out.problems.append(f"{path}: retention rises with t: {retention}")
    gate = table[SWEEP_T.index(GATE_T)]
    if not all(math.isfinite(v) for v in gate) or not 0.0 < gate[4] <= 1.0:
        out.problems.append(f"{path}: no retained windows at t={GATE_T}: {gate}")
    out.rmse, out.retention = gate[2], gate[4]
    return out
