"""Stationary Stokes solves on the MAC grid by a direct pressure-Schur solve.

The saddle problem

    A u + G p = b        (momentum, A = -Laplacian + shift, Dirichlet data)
    D u       = 0        (divergence constraint)

reduces to the pressure Schur complement S = -D A^{-1} G, symmetric positive
semidefinite with kernel = constants.  :class:`vws.operators.SaddleInverse`
inverts A and S exactly at every shift and solves the whole system in one
basis, where D and G are diagonal and A is diagonal up to a wall
correction.  D (:func:`vws.operators.cell_divergence`) counts the wall
faces, which reach only the border cells as fluxes +-(normal value)/h, so
the interior unknowns see D w = c, with c the negated fluxes.  Summed over
the cells, D u = 0 reads h sum g . n = 0, which
:meth:`vws.operators.SaddleInverse.right_side` checks to rounding before a
stationary solve, and a time march at its first step that loads g.  Then:

    1. w = A^{-1} b on the interior faces, and D w;
    2. rhs = c - D w, re-centred to zero mean;
    3. p = S^{-1} rhs;
    4. the wall faces of u get the prescribed normal values and its interior
       faces w - A^{-1} G p;
    5. the divergence defect max|D u| of the returned field must be at most
       DIV_TOL times the data scale max(max|c|, rms(D w)), the cell RMS of
       D w read from its modes (Parseval), which never exceeds max|D w|; a
       miss, a NaN included, raises NonConvergence carrying p and the
       defect.

Steps 1-4 are the modal stage (:meth:`vws.operators.SaddleInverse.solve_modes`),
after the forward transforms of g's load and of c
(:meth:`vws.operators.SaddleInverse.right_side`); the cell stage
(:meth:`vws.operators.SaddleInverse.to_cells`) brings u back and takes step
5, and :func:`solve_saddle`, which runs the three, adds one inverse
transform of p.  The load of g and c, the wall fluxes, live on their border
lines, so their forward transforms are closed-form products of 1-D
transforms; a zero c takes none.  A forcing reaches b through
:meth:`vws.operators.SaddleInverse.forcing_modes` alone, which reads the
interior modes every solved velocity keeps
(:attr:`vws.grid.VelocityField.modes`) with no transform.  A time
march steps in modes, each step paying the modal stage and the transform of
its new forcing, then brings every velocity back, and checks every defect,
in one cell stage with one stacked inverse transform.
:func:`residual_report` computes the momentum residual on demand, from one
residual pair and one load pair.  The solver is built once per (grid, shift) by
:func:`vws.operators.saddle_inverses`, which refuses a singular shift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import AXIS, SIDES, BoundaryData, wall
from .grid import (PressureField, StaggeredGrid, VelocityField, l2_norm_omega,
                   require_same_grid)
from .operators import (
    DIV_TOL,
    _check_defect,
    _transform,
    apply_velocity_laplacian,
    cell_divergence,
    laplacian_load,
    saddle_inverses,
)

__all__ = [
    "StokesSolution",
    "solve_saddle",
    "solve_homogeneous",
    "solve_boundary",
    "residual_report",
]


@dataclass
class SolverOptions:
    """DIV_TOL, kept unexported because ``perfbench/`` reads it; no solve does."""

    div_tol: float = DIV_TOL   # max divergence defect, relative to the data


@dataclass
class StokesSolution:
    grid: StaggeredGrid
    velocity: VelocityField
    pressure: PressureField
    diagnostics: dict = field(default_factory=dict)


def solve_saddle(grid: StaggeredGrid, g: BoundaryData, f, shift: float = 0.0,
                 *, modes=None):
    """Core saddle solve.  f the forcing, a velocity or an interior pair
    (f1, f2), or None.

    Returns (u1_full, u2_full, p_cells, diagnostics dict).  Boundary faces of
    the returned velocity hold the normal samples of g.  The modes of f
    (:meth:`vws.operators.SaddleInverse.forcing_modes`, a solved velocity's
    with no transform) are added to g's, from
    :meth:`~vws.operators.SaddleInverse.right_side`, or for zero g
    transformed in its block; then
    :meth:`~vws.operators.SaddleInverse.solve_modes` and
    :meth:`~vws.operators.SaddleInverse.to_cells` run with k = 1, and p
    comes to the cells from its modes.  modes, a block of 2 (n - 1) n
    floats (:meth:`~vws.operators.SaddleInverse.components`), receives the
    interior modes of the returned velocity; one is allocated when it
    is not given.  A g or f of another grid, a non-finite shift, or a shift
    at which the velocity or Schur operator is singular, raises ValueError.
    The data are checked as in every time step: a misshapen or non-finite f
    raises ValueError, unsolvable data raise IncompatibleBoundaryData, and a
    divergence defect above DIV_TOL of the data scale, or a non-finite one,
    raises NonConvergence carrying the cell pressure and the defect.
    """
    require_same_grid(grid, g)
    t0 = time.perf_counter()
    inv = saddle_inverses(grid, shift)
    n = grid.n
    u12 = np.empty((1, 2 * n * (n + 1)))
    x, u1, u2 = inv.cell_views(u12)
    b_hat, c_hat, c_max = inv.right_side(
        g, out=np.empty(2 * (n - 1) * n) if modes is None else modes)
    if f is not None:
        # zero g leaves b_hat zero: the forcing is then transformed in it
        blank = not any(a.any() for a in g.samples.values())
        f_hat = inv.forcing_modes(f, out=b_hat if blank else None)
        if f_hat is not b_hat:
            b_hat += f_hat
    p, scale, steps = inv.solve_modes(b_hat, c_hat, c_max, u12[0])
    del c_hat   # free before the cell stage's buffers
    x[0] = b_hat
    div_max = float(inv.to_cells(u12, g, (1.0,))[0])
    _check_defect(div_max, scale, p, steps)
    p = _transform(p, "idct", (-1, -2))
    return u1[0], u2[0], p, {"outer_iterations": steps, "div_max": div_max,
                             "wall_time": time.perf_counter() - t0}


def _solution(grid: StaggeredGrid, g: BoundaryData,
              f: VelocityField | None) -> StokesSolution:
    """The saddle solve at shift 0, its velocity keeping its modes."""
    modes = np.empty(2 * (grid.n - 1) * grid.n)
    u1, u2, p, diag = solve_saddle(grid, g, f, modes=modes)
    return StokesSolution(grid, VelocityField._solved(grid, u1, u2, modes),
                          PressureField(grid, p), diag)


def solve_homogeneous(grid: StaggeredGrid,
                      f: VelocityField | None = None) -> StokesSolution:
    """Stokes with zero boundary values and interior forcing f.

    Non-finite f (interior faces), or f on another grid, raises ValueError.
    A solved f forces through the modes it keeps, with no forward transform.
    """
    require_same_grid(grid, f)
    return _solution(grid, BoundaryData.zeros(grid), f)


def solve_boundary(grid: StaggeredGrid, g: BoundaryData) -> StokesSolution:
    """Stokes driven by boundary velocity data alone.

    g must be compatible (net flux at most 1e-12 of h sum |g . n|);
    otherwise IncompatibleBoundaryData is raised, and g on another grid
    raises ValueError.  Normal samples land exactly on boundary faces;
    tangential samples act through ghost reflection.
    """
    return _solution(grid, g, None)


def residual_report(sol: StokesSolution, f: VelocityField | None = None,
                    g: BoundaryData | None = None) -> dict:
    """Recompute residuals of a solution against its data.

    momentum_res is h ||f + L g - A u - G p|| over the interior faces, A at
    shift 0 on u's interior faces and L g the load of g; u's wall faces
    enter only div_* and boundary_mismatch.  momentum_res_rel divides it by
    h ||f + L g|| (0 when that is 0).  f or g on another grid, or f with
    non-finite interior faces, raises ValueError.
    """
    grid = sol.grid
    require_same_grid(grid, f, g)
    if f is not None and not all(np.isfinite(a).all() for a in f.interior()):
        raise ValueError("forcing has non-finite values")
    data = BoundaryData.zeros(grid) if g is None else g
    u1, u2 = sol.velocity.u1, sol.velocity.u2
    # the divergence first, so that its cells are free before the face pairs
    div = cell_divergence(u1, u2, grid.h)
    div_max = max(float(div.max()), -float(div.min()))
    div_l2 = l2_norm_omega(PressureField(grid, div))
    del div
    # one residual pair, A u - b, and one right side pair b = f + L g; b,
    # once its norm is read and it is subtracted, holds the pressure gradient
    r1, r2 = apply_velocity_laplacian(grid, *sol.velocity.interior())
    b1, b2 = laplacian_load(grid, data)
    if f is not None:
        f1, f2 = f.interior()
        b1 += f1
        b2 += f2
    b_scale = grid.h * float(np.sqrt(np.vdot(b1, b1) + np.vdot(b2, b2)))
    r1 -= b1
    r2 -= b2
    p = sol.pressure.p
    for r, gp in ((r1, np.subtract(p[1:, :], p[:-1, :], out=b1)),
                  (r2, np.subtract(p[:, 1:], p[:, :-1], out=b2))):
        gp /= grid.h
        r += gp
    mom = grid.h * float(np.sqrt(np.vdot(r1, r1) + np.vdot(r2, r2)))
    mismatch = 0.0
    if g is not None:
        for side in SIDES:
            a = AXIS[side]
            miss = np.abs(wall((u1, u2)[a], side) - g.samples[side][:, a])
            mismatch = max(mismatch, float(miss.max()))
    return {
        "momentum_res": mom,
        "momentum_res_rel": mom / b_scale if b_scale > 0.0 else 0.0,
        "div_max": div_max,
        "div_l2": div_l2,
        "boundary_mismatch": mismatch,
        "pressure_mean": sol.pressure.mean(),
    }
