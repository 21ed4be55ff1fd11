"""Small helpers shared across test modules."""

import numpy as np


def find_assertion(report, name):
    for a in report.assertions:
        if a.name == name:
            return a
    raise KeyError(f"no assertion {name!r} in recipe {report.recipe!r}")


def refuse(monkeypatch, owner, names, why):
    """Make the attribute of owner named names, or each of names, raise
    AssertionError(why) when called."""
    def refused(*args, **kwargs):
        raise AssertionError(why)

    for name in [names] if isinstance(names, str) else names:
        monkeypatch.setattr(owner, name, refused)


def modules_binding(names):
    """The vws modules, each imported, that bind any of names (the entry
    module __main__, which runs the command line, aside)."""
    import importlib
    import pkgutil

    import vws

    found = []
    for info in pkgutil.walk_packages(vws.__path__, "vws."):
        if info.name != "vws.__main__":
            module = importlib.import_module(info.name)
            if any(hasattr(module, name) for name in names):
                found.append(info.name)
    return found


def watch_transforms(monkeypatch, seen):
    """Call seen(x, kind, axes) before every call of the one transform
    helper, operators._transform, wherever a vws module binds it; seen may
    record the call or raise to refuse it."""
    import sys

    from vws import operators

    transform = operators._transform

    def watched(x, kind, axes):
        seen(x, kind, axes)
        return transform(x, kind, axes)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("vws") and hasattr(module, "_transform"):
            monkeypatch.setattr(module, "_transform", watched)


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
    matrix: the velocity block of the operator-algebra recipe's saddle
    matrix, shifted on the diagonal."""
    from vws.experiments.recipes import _dense_saddle

    m = 2 * (grid.n - 1) * grid.n
    A = _dense_saddle(grid)[:m, :m].copy()
    A[np.diag_indices_from(A)] += shift
    return A


def dense_face_gradient(grid):
    """Interior-face gradient of cell arrays (u1, then u2) as a dense matrix:
    the gradient block of the operator-algebra recipe's saddle matrix."""
    from vws.experiments.recipes import _dense_saddle

    m = 2 * (grid.n - 1) * grid.n
    return _dense_saddle(grid)[:m, m:-1].copy()


def check_sector_inverse(k_inv, K, first_mode):
    """Check a vws.operators._SectorInverse k_inv against a dense capacitance
    matrix K: k_inv applied to the 4m unit vectors, m = K.shape[0] / 4 modes
    a pair, must be K^{-1}.  K orders the first pair's (parity a, mode k) at
    a m + k - first_mode and the second pair's after them; rows below
    first_mode lie in no sector, are filled with ones and must come back
    zero, and the inputs must not be written."""
    m = K.shape[0] // 4
    cols = []
    for e in np.eye(4 * m):
        r1, r2 = np.ones((2, first_mode + m, 2))
        r1[first_mode:], r2[first_mode:] = e.reshape(2, 2, m).swapaxes(1, 2)
        kept = r1.copy(), r2.copy()
        y1, y2 = k_inv(r1, r2)
        assert np.array_equal(r1, kept[0]) and np.array_equal(r2, kept[1])
        assert not y1[:first_mode].any() and not y2[:first_mode].any()
        cols.append(np.concatenate([y1[first_mode:].T.ravel(),
                                    y2[first_mode:].T.ravel()]))
    K_inv = np.column_stack(cols)
    assert np.abs(np.linalg.inv(K_inv) - K).max() <= 1e-12 * np.abs(K).max()
