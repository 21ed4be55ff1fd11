"""In-memory span tracing of the package's layer entry points.

``Tracer.install`` replaces each entry point in ``TARGETS`` by a recording
wrapper wherever a ``vws`` module or class holds a reference to it (callers
look names up in their own module globals, so every such reference is
patched); ``uninstall`` puts the originals back.  Nothing under ``src/`` is
changed, and with the tracer uninstalled the package runs its own code.

A span is (name, start, end, parent span index, op id).  Spans stay in memory
until the run ends.  Counts that spans cannot give (iterations from returned
diagnostics, computed array bytes) are read off arguments and results by
per-target hooks.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from vws import biharmonic, boundary, evolution, operators, stokes, traces, transposition

MB = 1e6


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays)


def _poisson_bytes(args, result):
    # VelocityPoisson.solve(self, b1, b2) -> (x1, x2)
    return {"operators.poisson_bytes": _nbytes(args[1], args[2], *result)}


def _cg_iterations(args, result):
    return {"operators.cg_iterations": result.iterations}


def _saddle_outer(args, result):
    return {"stokes.outer_iterations": result[3]["outer_iterations"]}


def _plate_iterations(args, result):
    return {"biharmonic.cg_iterations": result.diagnostics["iterations"]}


def _plate_apply_bytes(args, result):
    # apply_biharmonic(grid, psi_int) -> out
    return {"biharmonic.apply_bytes": _nbytes(args[1], result)}


def _trajectory(args, result):
    arrays = [a for u in result.velocities for a in (u.u1, u.u2)]
    arrays += [p.p for p in result.pressures if p is not None]
    return {"evolution.steps": result.steps,
            "evolution.trajectory_bytes": _nbytes(*arrays)}


# (span name, owner, attribute, hook).  The span name's prefix is the layer.
TARGETS = [
    ("boundary.data", boundary, "cavity_g_eps", None),
    ("boundary.data", boundary, "rotation_data", None),
    ("boundary.data", boundary, "compatibility_defect", None),
    ("boundary.data", boundary.BoundaryData, "__mul__", None),
    ("boundary.data", evolution.TimeBoundaryData, "at", None),
    ("operators.poisson", operators.VelocityPoisson, "solve", _poisson_bytes),
    ("operators.laplacian_apply", operators, "apply_velocity_laplacian", None),
    ("operators.cg", operators, "cg_solve", _cg_iterations),
    ("stokes.solve_saddle", stokes, "solve_saddle", _saddle_outer),
    ("stokes.solve_boundary", stokes, "solve_boundary", None),
    ("stokes.solve_homogeneous", stokes, "solve_homogeneous", None),
    ("transposition.adjoint", transposition, "solve_adjoint", None),
    ("transposition.extract", transposition, "normal_derivative_on_gamma", None),
    ("transposition.extract", transposition, "boundary_pressure", None),
    ("transposition.identity", transposition, "transposition_identity", None),
    ("transposition.estimate", transposition, "estimate_ratio", None),
    ("traces.lift", traces, "lift_tangential", None),
    ("traces.pairing", traces, "pairing_L", None),
    ("biharmonic.solve", biharmonic, "solve_biharmonic", _plate_iterations),
    ("biharmonic.apply", biharmonic, "apply_biharmonic", _plate_apply_bytes),
    ("biharmonic.velocity", biharmonic, "velocity_from_stream", None),
    ("evolution.forward", evolution, "evolve_lifted", _trajectory),
    ("evolution.backward", evolution, "solve_adjoint_backward", _trajectory),
    ("evolution.functional", evolution, "spacetime_pairing", None),
    ("evolution.functional", evolution, "spacetime_estimate_ratio", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}       # op id -> Counter of hook counts
        self._stack: list = []
        self._op = None
        self._patched: list = []     # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self._op)
            if hook is not None:
                self.counts.setdefault(self._op, Counter()).update(hook(args, result))
            return result
        return wrapper

    def install(self) -> None:
        owners = [m for key, m in sys.modules.items()
                  if key == "vws" or key.startswith("vws.")]
        owners += [owner for _, owner, _, _ in TARGETS if isinstance(owner, type)]
        for name, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.counts.setdefault(op_id, Counter())

    def end_op(self) -> None:
        self._op = None


def self_times(spans: list) -> list:
    """Per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, t0, t1, _, _), c in zip(spans, child)]


def layer_table(spans: list, counts: dict, ops: int) -> dict:
    """Per span name, per op: calls, self seconds and inclusive seconds."""
    table: dict = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        if span[3] < 0 or spans[span[3]][0] != span[0]:
            row["total_s"] += span[2] - span[1]
    totals = Counter()
    for c in counts.values():
        totals.update(c)
    for row in table.values():
        for k in row:
            row[k] /= ops
    return {"spans": table, "counts": {k: v / ops for k, v in totals.items()}}


def per_layer_metrics(table: dict) -> dict:
    """The named per-layer metrics, per op, from a layer_table result."""
    spans, counts = table["spans"], table["counts"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0.0)

    def self_of(prefix):
        return sum(r["self_s"] for k, r in spans.items() if k.startswith(prefix))

    return {
        "operators.poisson_solves": (get("operators.poisson", "calls"), "count/op"),
        "operators.poisson_self_s": (get("operators.poisson", "self_s"), "s/op"),
        "operators.poisson_mb_computed":
            (counts.get("operators.poisson_bytes", 0) / MB, "MB/op"),
        "operators.laplacian_apply_calls":
            (get("operators.laplacian_apply", "calls"), "count/op"),
        "operators.laplacian_apply_s":
            (get("operators.laplacian_apply", "self_s"), "s/op"),
        "operators.cg_iterations": (counts.get("operators.cg_iterations", 0), "count/op"),
        "operators.cg_self_s": (get("operators.cg", "self_s"), "s/op"),
        "stokes.solves": (get("stokes.solve_saddle", "calls"), "count/op"),
        "stokes.outer_iterations": (counts.get("stokes.outer_iterations", 0), "count/op"),
        "stokes.self_s": (self_of("stokes."), "s/op"),
        "transposition.adjoint_s": (get("transposition.adjoint", "total_s"), "s/op"),
        "transposition.extract_s": (get("transposition.extract", "self_s"), "s/op"),
        "traces.lift_s": (get("traces.lift", "self_s"), "s/op"),
        "traces.pairing_s": (get("traces.pairing", "self_s"), "s/op"),
        "traces.pairings": (get("traces.pairing", "calls"), "count/op"),
        "biharmonic.cg_iterations":
            (counts.get("biharmonic.cg_iterations", 0), "count/op"),
        "biharmonic.apply_calls": (get("biharmonic.apply", "calls"), "count/op"),
        "biharmonic.apply_s": (get("biharmonic.apply", "self_s"), "s/op"),
        "biharmonic.apply_mb_computed":
            (counts.get("biharmonic.apply_bytes", 0) / MB, "MB/op"),
        "evolution.steps": (counts.get("evolution.steps", 0), "count/op"),
        "evolution.step_self_s": (get("evolution.forward", "self_s"), "s/op"),
        "evolution.backward_step_self_s":
            (get("evolution.backward", "self_s"), "s/op"),
        "evolution.trajectory_mb":
            (counts.get("evolution.trajectory_bytes", 0) / MB, "MB/op"),
        "boundary.data_s": (self_of("boundary."), "s/op"),
    }
