"""Call counters and spans around the public functions of each layer.

The tracer replaces each traced function in every ``chrono_duhamel``
namespace that holds it, so calls made through ``module.function``, through
a ``from .module import function`` name and from inside the defining module
are all seen.  ``install`` and ``uninstall`` swap the wrappers in and out:
the untraced commands of a traced run execute the program unchanged.

Spans are kept in memory as aggregates per (caller, callee) pair: calls,
total time and self time, where self time is the span's duration minus the
time its traced children took.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "chrono_duhamel"

# (module, attribute path, span name).  A name that the program no longer
# defines is skipped, and its metrics read 0.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("propagator", "propagate", "propagator.propagate"),
    ("propagator", "cau_norm", "propagator.cau_norm"),
    ("dynamics", "evolve", "dynamics.evolve"),
    ("dynamics", "lagrange_duhamel_V", "dynamics.lagrange_duhamel_V"),
    ("dynamics", "duhamel_residual", "dynamics.duhamel_residual"),
    ("dynamics", "trajectory_csv", "dynamics.trajectory_csv"),
    ("symfun", "compose_table", "symfun.compose_table"),
    ("symfun", "extend_table", "symfun.extend_table"),
    ("symfun", "canonical_indices", "symfun.canonical_indices"),
    ("symfun", "multiplicities", "symfun.multiplicities"),
    ("symfun", "compose_first_slot", "symfun.compose_first_slot"),
    ("symfun", "functional_add", "symfun.functional_add"),
    ("symfun", "eval_series", "symfun.eval_series"),
    ("symfun", "SymTensor.from_rank_one_sum", "symfun.from_rank_one_sum"),
    ("symfun", "majorant_of", "symfun.majorant_of"),
    ("chrono", "vdot", "chrono.vdot"),
    ("chrono", "invariance_scan", "chrono.invariance_scan"),
    ("chrono", "ChartMap.vertex_tensors", "chrono.vertex_tensors"),
    ("chrono", "transport_majorant", "chrono.transport_majorant"),
    ("chrono", "certify_window", "chrono.certify_window"),
    ("series", "flow", "series.flow"),
    ("series", "guaranteed_time", "series.guaranteed_time"),
]

def _nbytes(obj) -> int:
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return int(getattr(obj, "nbytes", 0))


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, time taken by traced children]
        self._swaps: list[tuple[object, str, object, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a new measurement: zero every counter and span aggregate."""
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])  # calls, seconds
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._vertex_keys: set = set()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        cache_info = getattr(fn, "cache_info", None)
        after = {
            "dynamics.evolve": self._after_evolve,
            "chrono.invariance_scan": self._after_scan,
            "chrono.vertex_tensors": self._after_vertex,
        }.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else "<root>"
            frame = [name, 0.0]
            stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.self_s[name] += dt - frame[1]
                edge = self.edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
            # a cached index table that was built, not looked up
            if cache_info and cache_info().misses > misses:
                self.counts[name + ".builds"] += 1
                self.counts["table_bytes"] += _nbytes(out)
            if after:
                after(out, args, kwargs)
            return out

        return wrapper

    def _after_evolve(self, out, args, kwargs) -> None:
        self.counts["dynamics.evolve.steps"] += max(len(out) - 1, 0)

    def _after_scan(self, out, args, kwargs) -> None:
        self.counts["chrono.truncation_events"] += len(out[3])

    def _after_vertex(self, out, args, kwargs) -> None:
        t = args[2] if len(args) > 2 else kwargs["t"]
        key = (id(args[0]), float(t))
        if key not in self._vertex_keys:
            self._vertex_keys.add(key)
            self.counts["chrono.vertex_tensors.distinct_t"] += 1

    def new_operation(self) -> None:
        """Distinct vertex times are counted per operation (each has its own chart)."""
        self._vertex_keys.clear()

    def install(self) -> None:
        if self._swaps:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                continue
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            if cls_path:
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(fn, name)
                new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                self._swaps.append((owner, attr, raw, new))
                continue
            wrapped = self._wrap(raw, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is raw:
                        self._swaps.append((mod, key, raw, wrapped))
        for owner, attr, _, new in self._swaps:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in reversed(self._swaps):
            setattr(owner, attr, raw)
        self._swaps.clear()

    # -- read-out -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Every counter and aggregate collected since the last reset."""
        calls: dict[str, int] = defaultdict(int)
        total_s: dict[str, float] = defaultdict(float)
        for (_, name), (n, secs) in self.edges.items():
            calls[name] += n
            total_s[name] += secs
        return {
            "calls": dict(calls),
            "total_s": dict(total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "edges": [
                {"caller": p, "callee": c, "calls": n, "total_s": s}
                for (p, c), (n, s) in sorted(self.edges.items())
            ],
        }
