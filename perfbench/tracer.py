"""Span tracing around relclock's public functions, installed from outside.

``Tracer.install()`` replaces every public function of the traced layers, in
every relclock module that holds a reference to it (so the names that ``cli``
and ``events`` import are wrapped too), plus a few class methods.  Spans are
kept in flat arrays while the run lasts and written out once at the end.
Nothing under ``src/`` changes; without ``install()`` no wrapper exists.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# leaf helpers folded into their callers' self time instead of getting spans
_UNTRACED = {"hermitize", "herm_defect", "spectral_norm", "trapezoid_weights", "backend_name"}

# builders plus the first (lazy, dense) h_clock evaluation form one span name
_RENAMED = {"build_free_particle_clock": "build", "build_ideal_clock": "build"}

# the spans that report peak_alloc_mb; tracemalloc runs only inside them, so
# that it does not slow the many small Python allocations of other layers
ALLOC_SPANS = {"relational.conditional_probabilities", "relational.reduce_state", "events.rho_event"}

# (module, class, method, span name); constructor validation is named after the class
_METHODS = (
    ("states", "DensityOperator", "__post_init__", "states.DensityOperator"),
    ("states", "Observable", "__post_init__", "states.Observable"),
    ("states", "ProjectorFamily", "__post_init__", "states.ProjectorFamily"),
    ("clocks", "ClockModel", "window_projector", "clocks.window_projector"),
    ("clocks", "ClockModel", "window_probabilities", "clocks.window_probabilities"),
    ("clocks", "ClockModel", "evolve_state", "clocks.evolve_state"),
    ("relational", "Trajectory", "to_csv", "relational.Trajectory.to_csv"),
)


def layer_name(layer: str) -> str:
    """Metric names must start with a letter, so ``_accel`` reports as ``accel``."""
    return layer.lstrip("_")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_query = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.query_id = -1
        self.active = False
        self._stack: list[int] = []
        self._alloc: list[list] = []  # per open ALLOC_SPANS span: [base, peak seen, started tracemalloc]
        self.installed: set[str] = set()

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        if name in ALLOC_SPANS:
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            elif self._alloc:
                self._alloc[-1][1] = max(self._alloc[-1][1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            cur = tracemalloc.get_traced_memory()[0]
            self._alloc.append([cur, cur, started])
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_query.append(self.query_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        name = self.names[self.span_name[idx]]
        if name not in ALLOC_SPANS:
            return
        base, seen, started = self._alloc.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peak_alloc[name] = max(self.peak_alloc[name], peak - base)
        if started:
            tracemalloc.stop()
        elif self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], peak)
            tracemalloc.reset_peak()

    def wrap(self, name: str, fn):
        tracer = self
        quantity, count = _COUNTS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.counters[(name, quantity)] += count(out)
            return out

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import relclock
        from relclock import _accel, cli, clocks, dephasing, events, relational, states

        modules = {"states": states, "clocks": clocks, "relational": relational,
                   "events": events, "dephasing": dephasing, "_accel": _accel, "cli": cli}
        holders = [relclock, *modules.values(), relclock.fixtures]
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            named: dict[int, tuple[str, object]] = {}
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in _UNTRACED or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                # aliases (``_accel.sandwich_traces = sandwich_traces_numpy``) keep the short name
                if id(obj) not in named or len(attr) < len(named[id(obj)][0]):
                    named[id(obj)] = (attr, obj)
            for attr, obj in named.values():
                span = f"{layer_name(layer)}.{_RENAMED.get(attr, attr)}"
                replaced[id(obj)] = self.wrap(span, obj)
                self.installed.add(span)
        # the full-space Kronecker expansion is private: count its output, no span
        kron = relational._kron_stack
        replaced[id(kron)] = functools.wraps(kron)(lambda a, b: self._count_stack(kron(a, b)))
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(mod, attr, replaced[id(obj)])

        for layer, cls_name, meth, span in _METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(span, getattr(cls, meth)))
            self.installed.add(span)
        h_clock = clocks.ClockModel.__dict__["h_clock"]
        lazy = functools.cached_property(self.wrap("clocks.build", h_clock.func))
        lazy.__set_name__(clocks.ClockModel, "h_clock")
        clocks.ClockModel.h_clock = lazy

    def _count_stack(self, out: np.ndarray) -> np.ndarray:
        if self.active and self._stack:
            self.counters[(self.names[self.span_name[self._stack[-1]]], "stack_bytes_computed")] += out.nbytes
        return out

    # -- results -------------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        start = np.frombuffer(self.span_start, dtype=float)
        dur = np.frombuffer(self.span_end, dtype=float) - start
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, peak allocation, counters."""
        dur, self_s = self.self_times()
        ids = np.frombuffer(self.span_name, dtype=np.int64)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "peak_alloc_mb": 0.0}
               for name in self.installed}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[name] = {"calls": int(sel.sum()), "total_s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum()),
                         "peak_alloc_mb": self.peak_alloc[name] / 2**20}
        for (name, quantity), value in self.counters.items():
            out[name][quantity] = value
        return out

    def write(self, path: Path) -> None:
        """Spans as columns (name id, parent index, query id, start, end) plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, name=np.asarray(self.span_name), parent=np.asarray(self.span_parent),
                 query=np.asarray(self.span_query), start=np.asarray(self.span_start),
                 end=np.asarray(self.span_end), names=np.array(json.dumps(self.names)))


# counts taken from a call's result: span -> (quantity, increment)
_COUNTS = {
    "relational.heisenberg_stack": ("bytes_computed", lambda out: out.nbytes),
    "relational.conditional_probabilities": ("projectors", len),
    "relational.master_evolve": ("steps", lambda traj: round(float(traj.times[-1]) / traj.metadata["dt"])),
    "dephasing.interference_factor": ("points", np.size),
    "events.detect_event": ("occurred", lambda rec: int(rec.event_occurred)),
}
