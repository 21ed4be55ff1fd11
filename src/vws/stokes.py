"""Stationary Stokes solves on the MAC grid by pressure-Schur (Uzawa) iteration.

The saddle problem

    A u + G p = b        (momentum, A = -Laplacian with Dirichlet data)
    D u       = c        (divergence constraint)

is reduced to the pressure Schur complement S = -D A^{-1} G, which is
symmetric positive semidefinite with kernel = constants.  Conjugate gradients
run on the zero-mean complement; the CG residual *is* the divergence defect of
the current velocity, so the stopping rule is its max-norm.  Every outer step
re-centers the pressure to zero mean.  Each application of S takes one
velocity Laplacian solve (exact sine-transform solve by default, conjugate
gradients on request).

The CG is preconditioned by the exact inverse of S at every shift
(:class:`vws.operators.SchurInverse`): the Cahouet-Chabard map
I + shift (-Delta_N)^+, which inverts the free-slip Schur complement, plus a
boundary capacitance correction for the no-slip walls, applied with one pair
of 2-D cosine transforms.  The first step therefore lands on the solution up
to rounding; the stopping rule stays on the unpreconditioned residual, and
any nonzero initial defect takes at least one step.  A breakdown (a search
direction with q.Sq <= 0, or a preconditioned residual product r.z that is
not positive and finite) raises NonConvergence instead of dividing.  The
diagnostics flag a true divergence defect above div_tol (``div_tol_met``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import BoundaryData, compatibility_defect
from .errors import IncompatibleBoundaryData, IncompatibleSource, NonConvergence
from .grid import PressureField, StaggeredGrid, VelocityField, l2_norm_omega
from .operators import (
    DirichletBC,
    VelocityPoisson,
    apply_velocity_laplacian,
    boundary_divergence,
    divergence,
    divergence_interior,
    laplacian_load,
    schur_inverse,
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
    """Tolerances and method selection shared by all saddle solves."""

    method: str = "dst"        # velocity solve: "dst" (exact) or "cg" (reference)
    div_tol: float = 1e-8      # outer stop: max-norm of the divergence defect
    mom_tol: float = 1e-8      # relative momentum residual the caller may assert
    cg_tol: float = 1e-12      # inner CG relative tolerance (method="cg")
    max_outer: int = 500
    cg_max_iter: int | None = None


@dataclass
class StokesSolution:
    grid: StaggeredGrid
    velocity: VelocityField
    pressure: PressureField
    diagnostics: dict = field(default_factory=dict)


def _grad_interior(p: np.ndarray, h: float):
    return (p[1:, :] - p[:-1, :]) / h, (p[:, 1:] - p[:, :-1]) / h


def solve_saddle(grid: StaggeredGrid, bc: DirichletBC, f1, f2, h_src,
                 shift: float = 0.0, opts: SolverOptions | None = None,
                 p0: np.ndarray | None = None):
    """Core saddle solve.  f1, f2 interior-shaped forcing; h_src cell-shaped.

    Returns (u1_full, u2_full, p_cells, diagnostics dict).  Boundary faces of
    the returned velocity hold the prescribed normal values from bc.
    Non-finite f1, f2, h_src or p0 raises ValueError.
    """
    for name, a in (("forcing", f1), ("forcing", f2),
                    ("divergence source", h_src), ("initial pressure", p0)):
        if a is not None and not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite values")
    opts = opts or SolverOptions()
    n, h = grid.n, grid.h
    t0 = time.perf_counter()
    poisson = VelocityPoisson(grid, shift=shift, method=opts.method,
                              cg_tol=opts.cg_tol, cg_max_iter=opts.cg_max_iter)
    precond = schur_inverse(grid, shift)

    load1, load2 = laplacian_load(grid, bc)
    b1 = load1 if f1 is None else f1 + load1
    b2 = load2 if f2 is None else f2 + load2
    c = -boundary_divergence(grid, bc)
    if h_src is not None:
        c = c + h_src

    def schur(d):
        g1, g2 = _grad_interior(d, h)
        w1, w2 = poisson.solve(g1, g2)
        return -divergence_interior(grid, w1, w2)

    # rhs of S p = c - D A^{-1} b
    w1, w2 = poisson.solve(b1, b2)
    rhs = c - divergence_interior(grid, w1, w2)
    rhs = rhs - rhs.mean()

    p = np.zeros((n, n)) if p0 is None else (p0 - p0.mean())
    outer = 0
    if p.any():
        r = rhs - schur(p)
    else:
        r = rhs.copy()
    res = float(np.abs(r).max())
    if res > 0.0:
        best_p, best_res = p.copy(), res

        def fail(why, iterations):
            return NonConvergence(
                f"uzawa: {why}; best divergence defect {best_res:.3e} "
                f"(target {opts.div_tol:.1e})",
                best_x=best_p, residual=best_res, iterations=iterations,
            )

        z = precond(r)
        q = z
        rz = float((r * z).sum())
        for outer in range(1, opts.max_outer + 1):
            Sq = schur(q)
            qSq = float((q * Sq).sum())
            if not (rz > 0.0 and np.isfinite(rz) and qSq > 0.0):
                raise fail(f"breakdown, r.z = {rz:.3e}, q.Sq = {qSq:.3e}",
                           outer - 1)
            alpha = rz / qSq
            p += alpha * q
            p -= p.mean()
            r -= alpha * Sq
            # the rounding residue in the constant mode scales with the
            # data, not with r, and the preconditioner cannot remove it
            r -= r.mean()
            res = float(np.abs(r).max())
            if res < best_res:
                best_p, best_res = p.copy(), res
            if res <= opts.div_tol:
                break
            z = precond(r)
            rz_new = float((r * z).sum())
            q = z + (rz_new / rz) * q
            rz = rz_new
        else:
            raise fail(f"no convergence in {opts.max_outer} outer iterations",
                       opts.max_outer)

    g1, g2 = _grad_interior(p, h)
    u1_int, u2_int = poisson.solve(b1 - g1, b2 - g2)

    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))
    u1[1:n, :] = u1_int
    u2[:, 1:n] = u2_int
    u1[0, :] = bc.u1_left
    u1[n, :] = bc.u1_right
    u2[:, 0] = bc.u2_bottom
    u2[:, n] = bc.u2_top

    # verify from the actual velocity, not the CG recursion
    div_defect = c - divergence_interior(grid, u1_int, u2_int)
    r1, r2 = apply_velocity_laplacian(grid, u1, u2, bc, shift=shift)
    m1 = (b1 - load1) - r1 - g1
    m2 = (b2 - load2) - r2 - g2
    mom_abs = h * float(np.sqrt((m1 ** 2).sum() + (m2 ** 2).sum()))
    b_scale = h * float(np.sqrt((b1 ** 2).sum() + (b2 ** 2).sum()))
    div_max = float(np.abs(div_defect).max())
    diag = {
        "outer_iterations": outer,
        "inner_iterations": poisson.inner_iterations,
        "div_max": div_max,
        "div_tol_met": div_max <= opts.div_tol,
        "mom_res": mom_abs,
        "mom_res_rel": mom_abs / b_scale if b_scale > 0.0 else 0.0,
        "wall_time": time.perf_counter() - t0,
        "method": opts.method,
        "preconditioner": "capacitance",
    }
    return u1, u2, p - p.mean(), diag


def _as_interior(grid, f: VelocityField | None):
    if f is None:
        return None, None
    return f.u1[1:grid.n, :].copy(), f.u2[:, 1:grid.n].copy()


def solve_homogeneous(grid: StaggeredGrid, f: VelocityField | None = None,
                      h_src: PressureField | None = None,
                      opts: SolverOptions | None = None) -> StokesSolution:
    """Stokes with zero boundary values, interior forcing f, divergence h_src.

    h_src must have zero discrete mean (solvability); otherwise
    IncompatibleSource is raised.  Non-finite f (interior faces) or h_src
    raises ValueError.
    """
    src = None
    if h_src is not None:
        src = h_src.p
        # a non-finite total fails no comparison and solve_saddle rejects it
        with np.errstate(invalid="ignore"):
            total = grid.h ** 2 * float(src.sum())
        scale = max(1.0, float(np.abs(src).max()))
        if abs(total) > 1e-12 * scale:
            raise IncompatibleSource(
                f"divergence source has nonzero mean {total:.3e}"
            )
    f1, f2 = _as_interior(grid, f)
    bc = DirichletBC.zero(grid)
    u1, u2, p, diag = solve_saddle(grid, bc, f1, f2, src, opts=opts)
    return StokesSolution(grid, VelocityField(grid, u1, u2),
                          PressureField(grid, p), diag)


def solve_boundary(grid: StaggeredGrid, g: BoundaryData,
                   opts: SolverOptions | None = None) -> StokesSolution:
    """Stokes driven by boundary velocity data alone.

    g must be compatible (zero net flux, tolerance 1e-10); otherwise
    IncompatibleBoundaryData is raised.  Normal samples land exactly on
    boundary faces; tangential samples act through ghost reflection.
    """
    defect = compatibility_defect(g)
    if abs(defect) > 1e-10:
        raise IncompatibleBoundaryData(
            f"boundary data has net flux {defect:.3e}; project it first"
        )
    bc = DirichletBC.from_boundary_data(g)
    u1, u2, p, diag = solve_saddle(grid, bc, None, None, None, opts=opts)
    return StokesSolution(grid, VelocityField(grid, u1, u2),
                          PressureField(grid, p), diag)


def residual_report(sol: StokesSolution, f: VelocityField | None = None,
                    g: BoundaryData | None = None) -> dict:
    """Recompute residuals of a solution against its data."""
    grid = sol.grid
    bc = DirichletBC.zero(grid) if g is None else DirichletBC.from_boundary_data(g)
    f1, f2 = _as_interior(grid, f)
    r1, r2 = apply_velocity_laplacian(grid, sol.velocity.u1, sol.velocity.u2, bc)
    g1, g2 = _grad_interior(sol.pressure.p, grid.h)
    m1 = -r1 - g1 if f1 is None else f1 - r1 - g1
    m2 = -r2 - g2 if f2 is None else f2 - r2 - g2
    mom = grid.h * float(np.sqrt((m1 ** 2).sum() + (m2 ** 2).sum()))
    div = divergence(sol.velocity)
    mismatch = 0.0
    if g is not None:
        u1, u2 = sol.velocity.u1, sol.velocity.u2
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
