"""Small helpers shared across test modules."""

import numpy as np


def find_assertion(report, name):
    for a in report.assertions:
        if a.name == name:
            return a
    raise KeyError(f"no assertion {name!r} in recipe {report.recipe!r}")


def observed_orders(values):
    v = np.asarray(values, dtype=float)
    return [float(np.log2(v[k] / v[k + 1])) for k in range(len(v) - 1)]


def count_poisson_solves(monkeypatch):
    """Count VelocityPoisson.solve calls; returns the list each call extends."""
    from vws.operators import VelocityPoisson

    calls = []
    solve = VelocityPoisson.solve
    monkeypatch.setattr(VelocityPoisson, "solve",
                        lambda self, b1, b2: calls.append(1) or solve(self, b1, b2))
    return calls
