"""Span tracer for the benchmark's traced run.

Every public function listed in ``LAYERS`` is wrapped, and the wrapper is
bound in every wernerlab module namespace that binds the original: names
imported with ``from .x import f`` would otherwise bypass it.  Each call
records one span (id, parent id, name, start, end, thread).  Spans stay in
memory; ``summary`` turns them into per-function call counts and self
times, and ``write`` dumps them when the run ends.

Spans nest per thread.  A span opened on a worker thread with nothing open
on that thread is parented to the span open on the main thread at that
moment, which is the ``verify`` check whose sweep the worker runs.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# layer (wernerlab module) -> public functions wrapped in that layer
LAYERS = {
    "linalg": (
        "eigh",
        "qcb_numeric",
        "golden_section_min",
        "bures_fidelity_numeric",
        "relative_entropy_numeric",
        "trace_distance_numeric",
        "tensor_product",
        "random_density_matrix",
    ),
    "states": ("werner_state", "isotropic_state"),
    "teleport": ("teleport_channel", "covariance_check"),
    "metrics": (
        "qcb_werner",
        "qcb_isotropic",
        "helstrom_multicopy_werner",
        "fidelity_werner",
        "relative_entropy_werner",
    ),
    "metrology": ("simulate_estimation",),
    "discrimination": ("bounds", "curve_grid"),
    "verify": (
        "check_fidelity_oracle",
        "check_trace_distance_oracle",
        "check_relative_entropy_oracle",
        "check_qcb_oracle",
        "check_qcb_isotropic_oracle",
        "check_critical_point_identities",
        "check_substitution_identity",
        "check_teleport_simulation",
        "check_teleport_covariance",
        "check_helstrom_explicit",
        "check_estimation_saturation",
        "check_delta_s_sign",
        "check_sandwich_ordering",
        "teleport_check",
    ),
    "cli": ("main", "build_parser", "format_curves_csv"),
}

# helstrom_multicopy_werner sums its class weights in log space above this n
LOG_SPACE_N = 50


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, name -> unit."""
    units = {}
    for layer, functions in LAYERS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
            if fn.startswith("check_"):
                units[f"{layer}.{fn}.points"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["linalg.eigh.unique_frac"] = "ratio"
    units["linalg.eigh.dim_max"] = "rows"
    units["metrics.helstrom_multicopy_werner.log_space_frac"] = "ratio"
    units["traced_wall_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


def _covered_ns(intervals, lo: int, hi: int) -> int:
    # Length of the union of the intervals, clipped to [lo, hi].
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Context manager: wrap on entry, restore the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.points: Counter = Counter()
        self._eigh_inputs: set = set()
        self._eigh_dims: set = set()
        self._helstrom_n: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- observers, run outside the observed span ---------------------------

    def _see_eigh(self, args, kwargs):
        a = np.asarray(kwargs.get("a", args[0] if args else None))
        self._eigh_inputs.add((a.shape, a.dtype.str, hash(a.tobytes())))
        if a.ndim:
            self._eigh_dims.add(a.shape[0])

    def _see_helstrom(self, args, kwargs):
        self._helstrom_n.append(kwargs.get("n", args[3] if len(args) > 3 else 0))

    def _see_check(self, name, result):
        results = result if isinstance(result, tuple) else (result,)
        self.points[name] += sum(r.points for r in results)

    # -- wrapping ------------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn, before=None, after=None):
        spans, ids, main_stack, stack_of = self.spans, self._ids, self._main_stack, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, threading.get_ident()))
            if after is not None:
                after(name, result)
            return result

        return traced

    def __enter__(self):
        self._local.stack = self._main_stack
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "wernerlab" or key.startswith("wernerlab."))
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"wernerlab.{layer}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue  # absent function: reported as 0 calls
                name = f"{layer}.{fn_name}"
                before = after = None
                if name == "linalg.eigh":
                    before = self._see_eigh
                elif name == "metrics.helstrom_multicopy_werner":
                    before = self._see_helstrom
                elif fn_name.startswith("check_"):
                    after = self._see_check
                wrapped = self._wrap(name, original, before, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls, self_s and counters for one traced pass, keyed by metric name."""
        children = defaultdict(list)
        for sid, parent, _name, t0, t1, _tid in self.spans:
            if parent:
                children[parent].append((t0, t1))
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, _parent, name, t0, t1, _tid in self.spans:
            calls[name] += 1
            self_ns[name] += (t1 - t0) - _covered_ns(children.get(sid, ()), t0, t1)
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            layer_ns = 0
            for fn in functions:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_ns[name] / 1e9
                layer_ns += self_ns[name]
                if fn.startswith("check_"):
                    out[f"{name}.points"] = self.points[name]
            out[f"{layer}.self_s"] = layer_ns / 1e9
        eigh_calls = calls["linalg.eigh"]
        out["linalg.eigh.unique_frac"] = len(self._eigh_inputs) / eigh_calls if eigh_calls else 0.0
        out["linalg.eigh.dim_max"] = max(self._eigh_dims, default=0)
        n_values = self._helstrom_n
        out["metrics.helstrom_multicopy_werner.log_space_frac"] = (
            sum(1 for n in n_values if n > LOG_SPACE_N) / len(n_values) if n_values else 0.0
        )
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines: a header naming the columns, then one
        span per line with thread idents renumbered in order of appearance."""
        threads: dict[int, int] = {}
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name", "start_ns", "end_ns", "thread"]}) + "\n")
            for sid, parent, name, t0, t1, tid in self.spans:
                thread = threads.setdefault(tid, len(threads))
                fh.write(json.dumps([sid, parent, name, t0, t1, thread]) + "\n")
