"""The benchmark under perfbench/ resolves its entry points in the package.

perfbench/tracer.py wraps named package functions and perfbench/workloads.py
calls others through module attributes; a name that is gone fails every
benchmark run at import, and an entry point that returns something else
than the tracer's hooks read fails every traced run.  These tests load both
files read-only (no bytecode is written next to them), check every name they
use and run one traced op of each workload.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    path = PERFBENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"no {path.name} in this checkout")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    assert tracer.TARGETS
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr, _ in tracer.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_workloads_import_and_build(monkeypatch):
    # module-level constants (the divergence tolerance) and the workload
    # constructors use the package at import and build time
    workloads = _load("workloads", monkeypatch)
    assert workloads.DIV_TOL > 0.0
    for cls in workloads.WORKLOADS.values():
        cls()


# per workload, per-layer metrics that one traced op must reach
_TRACED = {
    "steady-duality": lambda m: m["stokes.solves"] >= 1,
    "plate-crosscheck": lambda m: m["stokes.solves"] >= 1
    and m["biharmonic.cg_iterations"] >= 1,
    # a Crank-Nicolson step is one saddle solve and an extrapolation: the
    # march applies no face-space Laplacian
    "unsteady-adjoint": lambda m: m["evolution.steps"] == 32
    and m["operators.laplacian_apply_calls"] == 0,
}


def test_one_traced_op_per_workload(monkeypatch):
    tracer = _load("tracer", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    assert sorted(workloads.WORKLOADS) == sorted(_TRACED)
    for name, cls in workloads.WORKLOADS.items():
        w = cls()
        w.setup()
        t = tracer.Tracer()
        t.install()
        try:
            t.begin_op(0)
            w.op(w.choices[0], 1.0)
            t.end_op()
        finally:
            t.uninstall()
        table = tracer.layer_table(t.spans, t.counts, 1)
        metrics = {k: v for k, (v, _) in tracer.per_layer_metrics(table).items()}
        assert _TRACED[name](metrics), (name, metrics)
