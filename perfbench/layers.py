"""Per-layer numbers from a traced invocation and from ``-X importtime``.

A layer is an ``rrcif`` module. A span's self time is its duration minus
the part of its interval that its child spans cover (children on worker
threads included), and a layer's self time is the sum over its spans plus
the module's own import time (its ``-X importtime`` self column), so work
moved from calls into module import stays in the layer. Adding up by module,
not by function, keeps a layer's metric meaningful when a later change
renames, splits or merges functions inside the module.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

LAYERS = ("signal_io", "preprocess", "riv", "spectral", "pipeline", "fusion", "evaluation", "cli")
# Modules whose spans make up the analysis phase: reading and analyzing records.
ANALYSIS_LAYERS = ("signal_io", "preprocess", "riv", "spectral", "pipeline")
# Imports reported by -X importtime, as metric name -> module name.
IMPORTS = {"import.rrcif_s": "rrcif", "import.scipy_signal_s": "scipy.signal", "import.scipy_stats_s": "scipy.stats"}

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize_spans(path, importtime_log):
    """Per-layer self time, call counts and the pool's busy share from a spans file.

    `importtime_log` is the traced process's ``-X importtime`` output.
    """
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    names = trace["names"]
    spans = trace["spans"]
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent:
            children[parent].append((start, end))

    self_ns = defaultdict(int)
    calls = defaultdict(int)
    phase = []
    by_thread = defaultdict(list)
    for sid, name, start, end, parent, _, thread in spans:
        layer = names[name].partition(".")[0]
        calls[layer] += 1
        self_ns[layer] += (end - start) - _covered(children.get(sid, ()), start, end)
        if layer in ANALYSIS_LAYERS:
            phase.append((start, end))
            by_thread[thread].append((start, end))

    for line in importtime_log.splitlines():
        m = _IMPORTTIME.match(line)
        if m and m.group(4).startswith("rrcif."):
            self_ns[m.group(4)[len("rrcif.") :]] += int(m.group(1)) * 1000

    busy_over_wall = 0.0
    if phase:
        lo = min(s for s, _ in phase)
        hi = max(e for _, e in phase)
        busy = sum(_covered(iv, lo, hi) for iv in by_thread.values())
        busy_over_wall = busy / (hi - lo) if hi > lo else 0.0

    beats, flagged = trace["beats"]
    rated, useful = trace["estimates"]
    fused, retained = trace["fused"]
    return {
        "self_s": {layer: self_ns.get(layer, 0) / 1e9 for layer in LAYERS},
        "calls": {layer: calls.get(layer, 0) for layer in LAYERS},
        "busy_over_wall": busy_over_wall,
        "artifact_ratio": flagged / beats if beats else 0.0,
        "useful_ratio": useful / rated if rated else 0.0,
        "retained_ratio": retained / fused if fused else 0.0,
        "spans": len(spans),
        "threads": len({s[6] for s in spans}),
    }


def parse_importtime(stderr_text):
    """Import seconds of each package in IMPORTS (0 when it is not imported).

    A package's time is the summed cumulative time of its outermost entries:
    the package line and any of its submodules not nested under another of
    its entries. Submodules count too because a package imported lazily, as
    ``from scipy import signal`` does, can be missing its own line.
    """
    entries = []
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2)) / 1e6))
    totals = dict.fromkeys(IMPORTS, 0.0)
    ancestors = []  # (depth, name) of the enclosing entries; parents print after children
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for metric, package in IMPORTS.items():
            inside = name == package or name.startswith(package + ".")
            if inside and not any(a == package or a.startswith(package + ".") for _, a in ancestors):
                totals[metric] += cumulative
        ancestors.append((depth, name))
    return totals
