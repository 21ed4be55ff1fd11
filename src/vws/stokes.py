"""Stationary Stokes solves on the MAC grid by a direct pressure-Schur solve.

The saddle problem

    A u + G p = b        (momentum, A = -Laplacian + shift, Dirichlet data)
    D u       = c        (divergence constraint)

reduces to the pressure Schur complement S = -D A^{-1} G, symmetric positive
semidefinite with kernel = constants.  :class:`vws.operators.SchurInverse`
inverts S exactly at every shift (the Cahouet-Chabard map
I + shift (-Delta_N)^+, which inverts the free-slip complement, plus a
boundary capacitance correction for the no-slip walls, applied with one pair
of 2-D cosine transforms), so the solve is direct.  Every step works on the face field u that is
returned, with D the one cell divergence of full face arrays
(:func:`vws.operators.cell_divergence`), so prescribed wall faces count in
it and the source c of the constraint D u = c is just h_src:

    1. the interior faces of u get w = A^{-1} b while its wall faces are still
       zero, and D w is taken there;
    2. the wall faces get the prescribed normal values; rhs = h_src - D u is
       then the Schur right-hand side c - D w of the interior unknowns,
       re-centred to zero mean;
    3. p = S^{-1} rhs;
    4. the interior faces of u get A^{-1} (b - G p);
    5. the divergence defect max|h_src - D u| of the returned field must be at
       most div_tol times the data scale max(max|rhs + D w|, max|D w|); a
       miss, a NaN included, raises NonConvergence carrying p and the defect.

A solve therefore costs two exact sine-transform velocity Laplacian solves.
Both inverses are built once per (grid, shift) by
:func:`vws.operators.saddle_inverses`, which refuses a singular shift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryData, require_compatible
from .errors import IncompatibleSource, NonConvergence
from .grid import PressureField, StaggeredGrid, VelocityField, l2_norm_omega
from .operators import (
    DirichletBC,
    apply_velocity_laplacian,
    cell_divergence,
    divergence,
    face_gradient,
    laplacian_load,
    saddle_inverses,
)

__all__ = [
    "SolverOptions",
    "StokesSolution",
    "solve_saddle",
    "solve_homogeneous",
    "solve_boundary",
    "residual_report",
]


@dataclass
class SolverOptions:
    """Tolerance shared by all saddle solves."""

    div_tol: float = 1e-8      # max divergence defect, relative to the data


@dataclass
class StokesSolution:
    grid: StaggeredGrid
    velocity: VelocityField
    pressure: PressureField
    diagnostics: dict = field(default_factory=dict)


def _divergence_defect(u1, u2, h: float, h_src) -> np.ndarray:
    """h_src - D u for full face arrays; h_src None means zero."""
    d = cell_divergence(u1, u2, h)
    return -d if h_src is None else h_src - d


def _momentum_residual(grid: StaggeredGrid, u1, u2, p, bc: DirichletBC,
                       f1, f2, shift: float = 0.0) -> float:
    """h-weighted 2-norm of f - (-Laplacian + shift) u - G p, interior faces."""
    r1, r2 = apply_velocity_laplacian(grid, u1, u2, bc, shift=shift)
    g1, g2 = face_gradient(p, grid.h)
    r1 += g1
    r2 += g2
    if f1 is not None:
        r1 -= f1
        r2 -= f2
    return grid.h * float(np.sqrt((r1 ** 2).sum() + (r2 ** 2).sum()))


def solve_saddle(grid: StaggeredGrid, bc: DirichletBC, f1, f2, h_src,
                 shift: float = 0.0, opts: SolverOptions | None = None):
    """Core saddle solve.  f1, f2 interior-shaped forcing; h_src cell-shaped.

    Returns (u1_full, u2_full, p_cells, diagnostics dict).  Boundary faces of
    the returned velocity hold the prescribed normal values from bc.
    Non-finite shift, f1, f2 or h_src, or a shift at which the velocity or
    Schur operator is singular, raises ValueError; a divergence defect
    of the returned velocity above div_tol of the data scale, or a
    non-finite one, raises NonConvergence.
    """
    for name, a in (("forcing", f1), ("forcing", f2),
                    ("divergence source", h_src)):
        if a is not None and not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite values")
    opts = opts or SolverOptions()
    n, h = grid.n, grid.h
    t0 = time.perf_counter()
    poisson, schur = saddle_inverses(grid, shift)
    # the returned velocity outlives the call (a march keeps every step), so
    # it is allocated before the temporaries, which then free as one block
    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))

    load1, load2 = laplacian_load(grid, bc)
    b1 = load1 if f1 is None else f1 + load1
    b2 = load2 if f2 is None else f2 + load2
    b_scale = h * float(np.sqrt((b1 ** 2).sum() + (b2 ** 2).sum()))

    u1[1:n, :], u2[:, 1:n] = poisson.solve(b1, b2)
    dw = cell_divergence(u1, u2, h)
    u1[0, :] = bc.u1_left
    u1[n, :] = bc.u1_right
    u2[:, 0] = bc.u2_bottom
    u2[:, n] = bc.u2_top
    rhs = _divergence_defect(u1, u2, h, h_src)
    scale = max(float(np.abs(rhs + dw).max()), float(np.abs(dw).max()))
    rhs -= rhs.mean()
    p = schur(rhs)
    p -= p.mean()
    g1, g2 = face_gradient(p, h)
    b1 -= g1
    b2 -= g2
    u1[1:n, :], u2[:, 1:n] = poisson.solve(b1, b2)

    # one exact pressure step, none for zero data
    steps = int(rhs.any())
    div_max = float(np.abs(_divergence_defect(u1, u2, h, h_src)).max())
    if not div_max <= opts.div_tol * scale:
        raise NonConvergence(
            f"saddle solve: divergence defect {div_max:.3e} above "
            f"{opts.div_tol:.1e} of the data scale {scale:.3e}",
            best_x=p, residual=div_max, iterations=steps,
        )
    mom_abs = _momentum_residual(grid, u1, u2, p, bc, f1, f2, shift)
    diag = {
        "outer_iterations": steps,
        "div_max": div_max,
        "mom_res": mom_abs,
        "mom_res_rel": mom_abs / b_scale if b_scale > 0.0 else 0.0,
        "wall_time": time.perf_counter() - t0,
    }
    return u1, u2, p, diag


def solve_homogeneous(grid: StaggeredGrid, f: VelocityField | None = None,
                      h_src: PressureField | None = None,
                      opts: SolverOptions | None = None) -> StokesSolution:
    """Stokes with zero boundary values, interior forcing f, divergence h_src.

    h_src must have zero discrete mean (solvability; to 1e-12 of
    h^2 sum |h_src|); otherwise IncompatibleSource is raised.  Non-finite f
    (interior faces) or h_src raises ValueError.
    """
    src = None
    if h_src is not None:
        src = h_src.p
        # a non-finite total fails no comparison and solve_saddle rejects it
        with np.errstate(invalid="ignore"):
            total = grid.h ** 2 * float(src.sum())
        scale = grid.h ** 2 * float(np.abs(src).sum())
        if abs(total) > 1e-12 * scale:
            raise IncompatibleSource(
                f"divergence source has nonzero mean {total:.3e}"
            )
    f1, f2 = (None, None) if f is None else f.interior()
    bc = DirichletBC.zero(grid)
    u1, u2, p, diag = solve_saddle(grid, bc, f1, f2, src, opts=opts)
    return StokesSolution(grid, VelocityField(grid, u1, u2),
                          PressureField(grid, p), diag)


def solve_boundary(grid: StaggeredGrid, g: BoundaryData,
                   opts: SolverOptions | None = None) -> StokesSolution:
    """Stokes driven by boundary velocity data alone.

    g must be compatible (net flux at most 1e-12 of h sum |g . n|);
    otherwise IncompatibleBoundaryData is raised.  Normal samples land
    exactly on boundary faces; tangential samples act through ghost
    reflection.
    """
    require_compatible(g)
    bc = DirichletBC.from_boundary_data(g)
    u1, u2, p, diag = solve_saddle(grid, bc, None, None, None, opts=opts)
    return StokesSolution(grid, VelocityField(grid, u1, u2),
                          PressureField(grid, p), diag)


def residual_report(sol: StokesSolution, f: VelocityField | None = None,
                    g: BoundaryData | None = None) -> dict:
    """Recompute residuals of a solution against its data."""
    grid = sol.grid
    bc = DirichletBC.zero(grid) if g is None else DirichletBC.from_boundary_data(g)
    f1, f2 = (None, None) if f is None else f.interior()
    u1, u2 = sol.velocity.u1, sol.velocity.u2
    mom = _momentum_residual(grid, u1, u2, sol.pressure.p, bc, f1, f2)
    div = divergence(sol.velocity)
    mismatch = 0.0
    if g is not None:
        mismatch = max(
            float(np.abs(u1[0, :] - bc.u1_left).max()),
            float(np.abs(u1[-1, :] - bc.u1_right).max()),
            float(np.abs(u2[:, 0] - bc.u2_bottom).max()),
            float(np.abs(u2[:, -1] - bc.u2_top).max()),
        )
    return {
        "momentum_res": mom,
        "div_max": float(np.abs(div.p).max()),
        "div_l2": l2_norm_omega(div),
        "boundary_mismatch": mismatch,
        "pressure_mean": sol.pressure.mean(),
    }
