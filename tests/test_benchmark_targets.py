"""The benchmark under perfbench/ resolves its entry points in the package.

perfbench/tracer.py wraps named package functions and perfbench/workloads.py
calls others through module attributes; a name that is gone fails every
benchmark run at import.  These tests load both files read-only (no bytecode
is written next to them) and check every name they use.
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
