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


def check_sector_inverse(sectors, K, first_mode, seed=0):
    """Check vws.operators._SectorInverse of ``sectors`` against the dense
    capacitance matrix K they were assembled into, on a seeded random
    (r1, r2).  K orders the first pair's (parity a, mode k) at a m + k -
    first_mode and the second pair's after them, m = K.shape[0] / 4 modes a
    pair; rows below first_mode lie in no sector."""
    from vws.operators import _SectorInverse

    m = K.shape[0] // 4
    rng = np.random.default_rng(seed)
    r1 = rng.standard_normal((first_mode + m, 2))
    r2 = rng.standard_normal((first_mode + m, 2))
    kept = r1.copy(), r2.copy()
    y1, y2 = _SectorInverse(sectors)(r1, r2)
    assert np.array_equal(r1, kept[0]) and np.array_equal(r2, kept[1])
    assert not y1[:first_mode].any() and not y2[:first_mode].any()

    def in_k(x1, x2):
        return np.concatenate([x1[first_mode:].T.ravel(), x2[first_mode:].T.ravel()])

    r, y = in_k(r1, r2), in_k(y1, y2)
    assert np.abs(K @ y - r).max() <= 1e-12 * np.abs(r).max()
