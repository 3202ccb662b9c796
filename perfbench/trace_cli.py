"""Run the rrcif command line with every public rrcif function traced.

Usage::

    python perfbench/trace_cli.py SPANS_JSON -- <rrcif arguments>

The rrcif package must be importable (put its ``src`` directory on
PYTHONPATH). Each public function of each ``rrcif`` module is wrapped, and
the wrapper replaces the function in its own module and wherever another
``rrcif`` module imported it by name, so calls between modules are traced
too. Then ``rrcif.cli.main`` runs with the given arguments, exactly as
``python -m rrcif.cli`` would run it.

Every call becomes a span: name, start, end, parent span, record id and
thread. A span opened on a worker thread with nothing open on that thread
takes the main thread's innermost open span as its parent, so a layer's self
time excludes the time its worker threads spent in other layers. Spans stay
in memory and are written once, after the command returns. A few counts are
taken from return values at the same boundaries; they look at the data
(beats, estimates, fusion results), not at function names, so they survive
a refactor that renames functions inside a module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from pathlib import PurePath

# Noise-index threshold behind spectral.useful_ratio: the CLI default.
USEFUL_NI = 0.13


class Tracer:
    def __init__(self):
        self.spans = []
        self.names = {}
        self.records = {None: 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self.beats = {}  # record id -> (beats, flagged) from the latest beat list
        self.estimate_sets = {}  # id of an estimates object -> (the object, rated, useful)
        self.fused = [0, 0]  # fused windows, retained windows
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_index(self, name):
        return self.names.setdefault(name, len(self.names))

    def _record_index(self, rid):
        return self.records.setdefault(rid, len(self.records))

    def wrap(self, module_short, fn):
        name = self._name_index(f"{module_short}.{fn.__name__}")
        hook = {"preprocess": self._count_beats, "fusion": self._count_fused, "pipeline": self._count_estimates}.get(
            module_short
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, rid = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1][0] if (main and stack is not main) else 0
                rid = 0
            if rid == 0:
                rid = tracer._record_index(_record_id(args, kwargs))
            sid = next(tracer._ids)
            stack.append((sid, rid))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, rid, threading.get_ident()))
            if hook is not None:
                hook(result, rid)
            return result

        return traced

    # -- counts taken at layer boundaries ---------------------------------

    def _count_beats(self, result, rid):
        if isinstance(result, list) and result and hasattr(result[0], "artifact"):
            self.beats[rid] = (len(result), sum(bool(b.artifact) for b in result))

    def _count_fused(self, result, rid):
        retained = getattr(result, "retained", None)
        if retained is None:
            return
        if isinstance(retained, bool):
            windows, kept = 1, int(retained)
        else:  # an array of per-window flags
            import numpy as np

            flags = np.asarray(retained, dtype=bool)
            windows, kept = int(flags.size), int(flags.sum())
        with self._lock:
            self.fused[0] += windows
            self.fused[1] += kept

    def _count_estimates(self, result, rid):
        estimates = getattr(result, "estimates", None)
        if estimates is None or id(estimates) in self.estimate_sets:
            return
        ni = getattr(estimates, "ni", None)
        if ni is not None:  # a table of arrays
            import numpy as np

            ni = np.asarray(ni, dtype=float)
            rated = int(np.isfinite(ni).sum())
            useful = int((ni >= USEFUL_NI).sum())
        else:  # per-window lists of estimate objects
            values = [e.ni for window in estimates for e in window if e.rr is not None and e.ni is not None]
            rated = len(values)
            useful = sum(v >= USEFUL_NI for v in values)
        # The object is kept so its id cannot be reused by another estimates object.
        self.estimate_sets[id(estimates)] = (estimates, rated, useful)

    # -- installation and output ------------------------------------------

    def install(self):
        """Wrap the public functions of every loaded rrcif module."""
        modules = {n: m for n, m in sys.modules.items() if n == "rrcif" or n.startswith("rrcif.")}
        wrapped = {}
        for mod_name, module in modules.items():
            short = mod_name.rpartition(".")[2]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod_name:
                    continue
                wrapped[obj] = self.wrap(short, obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def write(self, path, wall_ns):
        threads = {}
        rows = []
        for sid, name, start, end, parent, rid, tid in self.spans:
            rows.append((sid, name, start, end, parent, rid, threads.setdefault(tid, len(threads))))
        payload = {
            "wall_ns": wall_ns,
            "names": sorted(self.names, key=self.names.get),
            "records": sorted(self.records, key=self.records.get),
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "record", "thread"],
            "spans": rows,
            "beats": [sum(v[0] for v in self.beats.values()), sum(v[1] for v in self.beats.values())],
            "estimates": [sum(v[1] for v in self.estimate_sets.values()), sum(v[2] for v in self.estimate_sets.values())],
            "fused": self.fused,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _record_id(args, kwargs):
    """The record a call works on: a record-like object's id, or a data file's stem."""
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, (str, PurePath)):
            text = str(value)
            if text.endswith((".csv", ".json")):
                stem = PurePath(text).stem
                return stem[:-4] if stem.endswith("_ref") else stem
            continue
        rid = getattr(value, "record_id", None) or getattr(value, "id", None)
        if isinstance(rid, str):
            return rid
    return None


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_cli.py SPANS_JSON -- <rrcif arguments>", file=sys.stderr)
        return 64
    spans_path, cli_args = argv[0], argv[2:]
    # An import statement, unlike importlib, shows in -X importtime's log.
    import rrcif.cli

    # Load every module before wrapping, also ones the package might import lazily.
    for info in pkgutil.iter_modules(rrcif.__path__, "rrcif."):
        importlib.import_module(info.name)

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter_ns()
    try:
        code = rrcif.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    wall_ns = time.perf_counter_ns() - start
    tracer.write(spans_path, wall_ns)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
