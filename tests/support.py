"""Small helpers shared across test modules."""

import numpy as np


def find_assertion(report, name):
    for a in report.assertions:
        if a.name == name:
            return a
    raise KeyError(f"no assertion {name!r} in recipe {report.recipe!r}")


def count_saddle_solves(monkeypatch):
    """Count modal saddle solves (SaddleInverse.solve_modes calls, which
    every stationary solve and every time step makes once; a march then
    brings all its steps to the cells, and checks every defect, in one cell
    stage, SaddleInverse.to_cells, which this does not count); returns the
    list each call extends."""
    from vws.operators import SaddleInverse

    calls = []
    solve_modes = SaddleInverse.solve_modes

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve_modes(self, *args, **kwargs)

    monkeypatch.setattr(SaddleInverse, "solve_modes", counted)
    return calls


def dense_velocity_laplacian(grid, shift=0.0):
    """(-Laplacian + shift) on the interior faces (u1, then u2) as a dense
    matrix: the operator-algebra recipe's matrix, shifted on the diagonal."""
    from vws.experiments.recipes import _dense_velocity_laplacian

    A = _dense_velocity_laplacian(grid)
    A[np.diag_indices_from(A)] += shift
    return A


def dense_face_gradient(grid):
    """Interior-face gradient of cell arrays (u1, then u2) as a dense matrix."""
    from vws.operators import face_gradient

    n = grid.n
    cols = []
    for e in np.eye(n * n):
        g1, g2 = face_gradient(e.reshape(n, n), grid.h)
        cols.append(np.concatenate([g1.ravel(), g2.ravel()]))
    return np.column_stack(cols)
