"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``warpdirac`` modules from
outside the package: each wrapper is installed at every module-level name
where a caller looks the function up, so the program's source stays
untouched.  A span records its name, start, end, parent span, thread and
optional counts; spans live in memory and are written once, at exit.

The parent stack is kept per thread.  A span opened on a thread whose own
stack is empty (a worker of ``mu_scan``'s thread pool) takes as parent the
innermost span open on the main thread, which is the call that is waiting
for the worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

# Modules whose public functions get a span.  ``profiles``, ``spectrum`` and
# ``errors`` are left out: their calls are too small or too frequent to span
# cheaply, so their time shows inside the callers' spans.
MODULES = ("config", "admissibility", "scan", "operators", "evolution",
           "estimates", "reporting", "cli")
METHODS = {"operators": ("DiscreteRadialOperator.eigh",),
           "estimates": ("SobolevCalculus.__init__",)}
# Per-value helpers called once per JSON number; a span each would cost more
# than the work it measures.
SKIP = {"reporting.format_float", "reporting.canonical_json"}

NAME, START, END, PARENT, THREAD, COUNTS = range(6)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _eigh_counts(args, kwargs):
    op = args[0]
    return {"computed": int(op._eig is None), "side": op.matrix.shape[0]}


def _evolve_counts(args, kwargs):
    return {"samples": len(_arg(args, kwargs, 2, "times")),
            "side": _arg(args, kwargs, 0, "op").matrix.shape[0]}


def _dirac_bytes(args, kwargs, result):
    return {"bytes": result.matrix.nbytes}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# span name -> (counts taken before the call, counts taken from its result).
# A hook that no longer matches the program raises, so the traced run fails
# instead of reporting a wrong count.
COUNTERS = {
    "operators.DiscreteRadialOperator.eigh": (_eigh_counts, None),
    "operators.assemble_dirac": (None, _dirac_bytes),
    "evolution.evolve": (_evolve_counts, None),
    "evolution.evolve_crank_nicolson": (_evolve_counts, None),
    "reporting.write_text_atomic": (None, _file_bytes),
    "reporting.write_json_atomic": (None, _file_bytes),
    "reporting.write_csv_atomic": (None, _file_bytes),
}


class Tracer:
    """In-memory span recorder for one process (one CLI invocation)."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span; the result passes through unchanged."""
        before, after = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and self.spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)  # recursion folds into the outer span
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            counts = before(args, kwargs) if before else {}
            span = [name, 0.0, None, parent, threading.get_ident(), counts]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if after:
                counts.update(after(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap the package's public functions everywhere they are looked up.

        Returns a function that puts the originals back.
        """
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"warpdirac.{short}")
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                obj = getattr(mod, attr, None)
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and name not in SKIP):
                    wrappers[obj] = self.wrap(obj, name)
        undo = []
        for short, methods in METHODS.items():
            mod = importlib.import_module(f"warpdirac.{short}")
            for qual in methods:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, self.wrap(fn, f"{short}.{qual}"))
                undo.append((cls, meth, fn))
        # Replace by identity in every package namespace, including module
        # level dicts such as the CLI's command table.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "warpdirac" or mod_name.startswith("warpdirac.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((namespace, key, value))
                    namespace[key] = wrappers[value]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrappers:
                            undo.append((value, k, v))
                            value[k] = wrappers[v]

        def restore():
            for target, key, value in reversed(undo):
                if isinstance(target, dict):
                    target[key] = value
                else:
                    setattr(target, key, value)

        return restore

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may run on other threads and overlap each other; only the union
    of their intervals, clipped to the parent's, is subtracted.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    out = []
    for index, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = union_length((max(c[START], lo), min(c[END], hi))
                               for c in children.get(index, ()))
        out.append((hi - lo) - covered)
    return out


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there."""
    out = []
    for index, span in enumerate(spans):
        if span[NAME] not in names:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent is None:
            out.append(index)
    return out


_ASSEMBLE = {"operators.assemble_dirac", "operators.assemble_kg",
             "operators.flat_reference_operator", "operators.weighted_laplacian_operator"}
_EIGH = {"operators.DiscreteRadialOperator.eigh"}
_EVOLVE = {"evolution.evolve", "evolution.evolve_crank_nicolson"}
_EXTREMUM = {"scan.scan_infimum", "scan.scan_supremum"}
_WRITES = {"reporting.write_text_atomic", "reporting.write_json_atomic",
           "reporting.write_csv_atomic"}

# Per-layer metrics of a traced pass, in report order, with their units.
LAYER_METRICS = (
    ("config.load_s", "s"),
    ("admissibility.check_admissible_s", "s"),
    ("admissibility.check_admissible_calls", "count"),
    ("scan.extremum_s", "s"),
    ("scan.extremum_calls", "count"),
    ("operators.assemble_s", "s"),
    ("operators.dirac_matrix_bytes", "bytes"),
    ("operators.eigh_s", "s"),
    ("operators.eigh_calls", "count"),
    ("operators.eigh_max_side", "count"),
    ("operators.verify_square_s", "s"),
    ("operators.factorization_check_s", "s"),
    ("operators.norm_equivalence_s", "s"),
    ("evolution.evolve_s", "s"),
    ("evolution.evolve_samples", "count"),
    ("evolution.propagate_per_sample_ms", "ms"),
    ("evolution.oracle_s", "s"),
    ("estimates.mu_scan_s", "s"),
    ("estimates.mu_scan_calls", "count"),
    ("estimates.sobolev_setup_s", "s"),
    ("estimates.strichartz_norm_s", "s"),
    ("estimates.strichartz_norm_calls", "count"),
    ("estimates.smoothing_norm_s", "s"),
    ("reporting.write_s", "s"),
    ("reporting.bytes_written", "bytes"),
    ("reporting.files_written", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(traces, oracle_s: float, overhead_s: float) -> dict:
    """Per-layer metrics summed over the span lists of one pass's invocations.

    "Busy" metrics add the durations of the outermost spans of a layer, so
    they include the callees; "self" metrics subtract child spans.  The
    oracle time and the tracing overhead are measured by the caller.
    """
    out = {name: 0.0 if unit in ("s", "ms") else 0 for name, unit in LAYER_METRICS}
    for spans in traces:
        selfs = self_times(spans)

        def busy(names):
            ids = outermost(spans, names)
            return sum(spans[i][END] - spans[i][START] for i in ids), ids

        def self_of(names):
            return sum(t for span, t in zip(spans, selfs) if span[NAME] in names)

        out["config.load_s"] += busy({"config.load_config"})[0]
        t, ids = busy({"admissibility.check_admissible"})
        out["admissibility.check_admissible_s"] += t
        out["admissibility.check_admissible_calls"] += len(ids)
        t, ids = busy(_EXTREMUM)
        out["scan.extremum_s"] += t
        out["scan.extremum_calls"] += len(ids)
        out["operators.assemble_s"] += busy(_ASSEMBLE)[0]
        # Result counts are missing only on a call that raised.
        out["operators.dirac_matrix_bytes"] += sum(
            s[COUNTS].get("bytes", 0) for s in spans if s[NAME] == "operators.assemble_dirac")
        t, ids = busy(_EIGH)
        out["operators.eigh_s"] += t
        computed = [spans[i][COUNTS]["side"] for i in ids if spans[i][COUNTS]["computed"]]
        out["operators.eigh_calls"] += len(computed)
        out["operators.eigh_max_side"] = max([out["operators.eigh_max_side"], *computed])
        out["operators.verify_square_s"] += self_of({"operators.verify_square"})
        out["operators.factorization_check_s"] += self_of({"operators.factorization_check"})
        out["operators.norm_equivalence_s"] += self_of({"operators.norm_equivalence_check"})
        out["evolution.evolve_s"] += self_of(_EVOLVE)
        out["evolution.evolve_samples"] += sum(
            spans[i][COUNTS]["samples"] for i in outermost(spans, _EVOLVE))
        out["estimates.mu_scan_s"] += self_of({"estimates.mu_scan"})
        out["estimates.mu_scan_calls"] += len(outermost(spans, {"estimates.mu_scan"}))
        out["estimates.sobolev_setup_s"] += busy({"estimates.SobolevCalculus.__init__"})[0]
        out["estimates.strichartz_norm_s"] += self_of({"estimates.strichartz_norm"})
        out["estimates.strichartz_norm_calls"] += len(
            outermost(spans, {"estimates.strichartz_norm"}))
        out["estimates.smoothing_norm_s"] += self_of({"estimates.smoothing_norm"})
        t, ids = busy(_WRITES)
        out["reporting.write_s"] += t
        out["reporting.bytes_written"] += sum(spans[i][COUNTS].get("bytes", 0) for i in ids)
        out["reporting.files_written"] += len(ids)
        out["cli.self_s"] += sum(t for span, t in zip(spans, selfs)
                                 if span[NAME].startswith("cli.cmd_"))
    if out["evolution.evolve_samples"]:
        out["evolution.propagate_per_sample_ms"] = (
            1000.0 * out["evolution.evolve_s"] / out["evolution.evolve_samples"])
    out["evolution.oracle_s"] = oracle_s
    out["trace.overhead_s"] = overhead_s
    return out
