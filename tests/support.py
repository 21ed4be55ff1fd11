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


def dense_velocity_laplacian(grid, shift=0.0):
    """(-Laplacian + shift) on the interior faces (u1, then u2) as a dense
    matrix, column by column from apply_velocity_laplacian."""
    from vws.grid import VelocityField
    from vws.operators import DirichletBC, apply_velocity_laplacian

    n = grid.n
    bc = DirichletBC.zero(grid)
    cut = (n - 1) * n
    cols = []
    for e in np.eye(2 * cut):
        u = VelocityField.from_interior(grid, e[:cut].reshape(n - 1, n),
                                        e[cut:].reshape(n, n - 1))
        r1, r2 = apply_velocity_laplacian(grid, u.u1, u.u2, bc, shift=shift)
        cols.append(np.concatenate([r1.ravel(), r2.ravel()]))
    return np.column_stack(cols)


def dense_face_gradient(grid):
    """Interior-face gradient of cell arrays (u1, then u2) as a dense matrix."""
    from vws.operators import face_gradient

    n = grid.n
    cols = []
    for e in np.eye(n * n):
        g1, g2 = face_gradient(e.reshape(n, n), grid.h)
        cols.append(np.concatenate([g1.ravel(), g2.ravel()]))
    return np.column_stack(cols)
