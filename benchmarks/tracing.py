"""Span tracer that wraps the package's functions where their callers look them up.

``Tracer.install`` replaces every module attribute of ``epictrl`` that holds
one of the traced functions (``epictrl.control.integrate_forward``,
``epictrl.cli.fbsm_solve``, ...) with a wrapper that records a span, and
swaps the row-view properties on the trajectory classes.  ``restore`` puts
every original back.  Spans stay in memory until ``write`` is called.

Nothing in ``src/`` knows about the tracer: the spans sit at the calls into
each layer, which is what the benchmark needs before any in-program tracing
exists.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Span key (``<layer>.<function>``) -> names in the defining module.
FUNCTIONS = {
    "scenarios.load_config": ("epictrl.scenarios", ("load_config",)),
    "integrator.forward": ("epictrl.integrator", ("integrate_forward",)),
    "integrator.backward": ("epictrl.integrator", ("integrate_adjoint_backward",)),
    "control.fbsm_solve": ("epictrl.control", ("fbsm_solve",)),
    "control.optimize_terminal_time": ("epictrl.control", ("optimize_terminal_time",)),
    "control.total_cost": ("epictrl.control", ("total_cost",)),
    "control.transversality_residual": ("epictrl.control", ("transversality_residual",)),
    "oracle.brute_force": ("epictrl.oracle", ("brute_force_optimum",)),
    "cli.main": ("epictrl.cli", ("main",)),
    "cli.summarize": ("epictrl.cli", ("summarize",)),
    "cli.write": (
        "epictrl.cli",
        ("_write_trajectory", "_write_controls", "_write_adjoints", "_write_summary"),
    ),
}
# Span key -> (module, class, property) of the flattened pre/post row views.
PROPERTIES = {
    "integrator.row_views": (
        ("epictrl.model", "Trajectory", "times"),
        ("epictrl.model", "Trajectory", "states"),
        ("epictrl.integrator", "AdjointTrajectory", "times"),
        ("epictrl.integrator", "AdjointTrajectory", "values"),
    ),
}
ROOT_KEY = "bench.op"


def _note_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _note_candidates(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[3]
    return {"candidates": config.candidates}


def _note_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# Counts read off a call's arguments or result, keyed like FUNCTIONS.
NOTES = {
    "control.fbsm_solve": _note_iterations,
    "oracle.brute_force": _note_candidates,
    "cli.write": _note_bytes,
}


class Span:
    __slots__ = ("name", "key", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, key, parent, op):
        self.name = name
        self.key = key
        self.parent = parent
        self.op = op
        self.attrs = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; ``op`` groups the spans of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, key: str) -> Span:
        span = Span(name, key, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, fn, *args):
        """Run one benchmark operation under a fresh operation id and root span."""
        self.op += 1
        span = self._open(ROOT_KEY, ROOT_KEY)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, key: str):
        note = NOTES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.attrs = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every lookup site of the traced functions and properties."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "epictrl" or n.startswith("epictrl.")]
        originals = {}
        for key, (module, names) in FUNCTIONS.items():
            for attr in names:
                originals[id(getattr(sys.modules[module], attr))] = key
        for module in modules:
            for attr, value in list(vars(module).items()):
                key = originals.get(id(value))
                if key is not None:
                    self._patch(module, attr, self._wrap(value, f"{module.__name__}.{attr}", key))
        for key, sites in PROPERTIES.items():
            for module, cls_name, attr in sites:
                cls = getattr(sys.modules[module], cls_name)
                prop = vars(cls)[attr]
                wrapped = self._wrap(prop.fget, f"{module}.{cls_name}.{attr}", key)
                self._patch(cls, attr, property(wrapped, doc=prop.__doc__))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "op": s.op,
                }
                if s.attrs:
                    record.update(s.attrs)
                fh.write(json.dumps(record) + "\n")


def snapshot() -> dict:
    """Identity of every attribute the tracer may touch, to prove ``restore`` worked."""
    out = {}
    for n, m in sys.modules.items():
        if n == "epictrl" or n.startswith("epictrl."):
            for attr, value in vars(m).items():
                out[(n, attr)] = id(value)
    for sites in PROPERTIES.values():
        for module, cls_name, attr in sites:
            cls = getattr(sys.modules[module], cls_name)
            out[(module, cls_name, attr)] = id(vars(cls)[attr])
    return out


def per_op(spans: list[Span]) -> dict[int, dict]:
    """Per operation: root wall time and, per key, calls, total, self time, durations, counts."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    ops: dict[int, dict] = {}
    for i, s in enumerate(spans):
        op = ops.setdefault(s.op, {"wall": 0.0, "keys": {}})
        if s.key == ROOT_KEY:
            op["wall"] = s.duration
        agg = op["keys"].setdefault(
            s.key, {"calls": 0, "total": 0.0, "self": 0.0, "durations": [], "counts": {}}
        )
        agg["calls"] += 1
        agg["total"] += s.duration
        agg["self"] += s.duration - child[i]
        agg["durations"].append(s.duration)
        for name, value in (s.attrs or {}).items():
            agg["counts"][name] = agg["counts"].get(name, 0) + value
    return ops
