"""Transposition (duality) identities tying interior norms to boundary data.

For a Stokes field u driven by boundary data g, the adjoint problem

    -Laplace(v) + grad(q) = u,   div v = 0,   v = 0 on the boundary

turns the interior energy into a boundary integral:

    |u|^2_{L2} = integral over Gamma of ( (g.n) q - g . dv/dn ).

(Integrate u.(-Laplace(v) + grad q) by parts twice; every volume term drops
because div u = div v = 0 and v = 0 on the boundary.)

This module solves the adjoint problem, extracts dv/dn and the boundary
pressure by one-sided second-order stencils, and evaluates both sides of the
identity.  u is tested against the adjoint problem it forces itself,
brought to the modes by :meth:`vws.operators.SaddleInverse.forcing_modes`:
a solved u forces it through the interior modes it keeps
(:attr:`vws.grid.VelocityField.modes`), so the adjoint solve takes no
forward transform and, as its boundary data are zero, builds no load; the
discrete adjoint stays exact because it reads the forward solve's own
modes.  A hand-built u is transformed once.  The identity reads only wall
traces, so its adjoint stays in its modes
(:meth:`vws.operators.SaddleInverse.solve_homogeneous_modes`, its defect
max|D v| from one n x n inverse transform of D v's modes): of v and q only
the two lines by each wall come back, from a four-line basis product and a
1-D inverse transform.  The ratio |u|_Omega / |g|_Gamma realizes the a priori
estimate the rough-data theory rests on.
"""

from __future__ import annotations

import numpy as np

from .boundary import (AXIS, SIDES, BoundaryData, _pair_sum, l2_norm_gamma,
                       wall)
from .errors import ZeroBoundaryData
from .grid import (PressureField, StaggeredGrid, VelocityField, l2_norm_omega,
                   require_same_grid)
from .operators import face_gradient, saddle_inverses
from .stokes import StokesSolution, solve_homogeneous

__all__ = [
    "solve_adjoint",
    "normal_derivative_on_gamma",
    "boundary_pressure",
    "transposition_identity",
    "estimate_ratio",
    "adjoint_gradient_pairing",
]


def solve_adjoint(grid: StaggeredGrid, u_rhs: VelocityField) -> StokesSolution:
    """Adjoint Stokes solve with interior forcing u_rhs and zero boundary
    data; a solved u_rhs forces through its kept modes, with no forward
    transform."""
    return solve_homogeneous(grid, f=u_rhs)


def normal_derivative_on_gamma(v: VelocityField) -> BoundaryData:
    """Outward normal derivative of both components at boundary face midpoints.

    Assumes v vanishes on the boundary (adjoint solutions, liftings).  With
    w_d a component's line d in from the side, the normal one takes the
    one-sided stencil -(-3 w_0 + 4 w_1 - w_2)/2h through the zero wall face,
    the tangential one -(9 w_0 - w_1)/3h (a quadratic through the wall zero),
    averaged to midpoints.  Both are exact for quadratics in the wall distance.
    """
    return BoundaryData(v.grid, _wall_derivative(v.grid, (v.u1, v.u2), (v.u2, v.u1)))


def _wall_derivative(grid: StaggeredGrid, normal, tangential) -> dict:
    # side -> (n, 2), the stencils of normal_derivative_on_gamma on the lines
    # wall(normal[a], side, d), d = 0, 1, 2 (0 the wall faces), of the
    # component normal to the sides of AXIS a, and wall(tangential[a], side,
    # d), d = 0, 1, of the other, n + 1 values each
    h = grid.h
    out = {}
    for side in SIDES:
        a = AXIS[side]
        w0, w1, w2 = (wall(normal[a], side, d) for d in range(3))
        t0, t1 = wall(tangential[a], side), wall(tangential[a], side, 1)
        dn = out[side] = np.empty((grid.n, 2))
        dn[:, a] = -(-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * h)
        dn[:, 1 - a] = -0.5 * _pair_sum((9.0 * t0 - t1) / (3.0 * h))
    return out


def boundary_pressure(q: PressureField) -> dict:
    """Pressure extrapolated to the boundary from the two nearest cell rows.

    Linear (second-order) extrapolation to each side, sampled at the boundary
    face midpoints; returns side -> (n,) array.
    """
    return _extrapolated((q.p, q.p))


def _extrapolated(lines) -> dict:
    # from lines[AXIS[side]], whose first and last two lines are the pressure's
    return {s: 1.5 * wall(lines[AXIS[s]], s) - 0.5 * wall(lines[AXIS[s]], s, 1)
            for s in SIDES}


def transposition_identity(grid: StaggeredGrid, g: BoundaryData,
                           u: VelocityField) -> dict:
    """Evaluate both sides of the duality identity for g and its solution u.

    Solves the adjoint problem with u as forcing and compares |u|^2 against
    the boundary integral of (g.n) q - g . dv/dn.  Returns lhs, rhs,
    rel_gap, the split of the boundary integral into its two terms, and
    adjoint_div_max, the adjoint's divergence defect max|D v|.  The adjoint
    solve is checked as any (a defect miss raises NonConvergence carrying
    the cell pressure).  Zero data raises ZeroBoundaryData, g or u on
    another grid ValueError.
    """
    require_same_grid(grid, g, u)
    if l2_norm_gamma(g) == 0.0:
        raise ZeroBoundaryData("duality gap is undefined for zero data")
    inv = saddle_inverses(grid, 0.0)
    v_hat, q_hat, div_max = inv.solve_homogeneous_modes(inv.forcing_modes(u))
    dvdn = _wall_derivative(grid, *inv.velocity_wall_lines(v_hat))
    q_b = _extrapolated(inv.pressure_wall_lines(q_hat))
    h = grid.h
    term_dvdn = 0.0
    term_q = 0.0
    for side in SIDES:
        term_dvdn += h * float(np.sum(g.samples[side] * dvdn[side]))
        term_q += h * float(np.sum(g.normal_part(side) * q_b[side]))
    lhs = l2_norm_omega(u) ** 2
    rhs = term_q - term_dvdn
    rel_gap = abs(lhs - rhs) / lhs if lhs > 0.0 else abs(rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rel_gap": rel_gap,
        "term_dvdn": term_dvdn,
        "term_q": term_q,
        "adjoint_div_max": div_max,
    }


def estimate_ratio(grid: StaggeredGrid, g: BoundaryData,
                   sol: StokesSolution) -> float:
    """|u|_Omega / |g|_Gamma for the rough-data solution sol driven by g;
    zero data raises ZeroBoundaryData, g or sol on another grid ValueError."""
    require_same_grid(grid, g, sol)
    g_norm = l2_norm_gamma(g)
    if g_norm == 0.0:
        raise ZeroBoundaryData("estimate ratio is undefined for zero data")
    return l2_norm_omega(sol.velocity) / g_norm


def adjoint_gradient_pairing(grid: StaggeredGrid, u: VelocityField) -> float:
    """Discrete integral of u . grad(q) for the adjoint pair of a solved u.

    For u solved from zero or tangential data this vanishes identically (the
    uniqueness mechanism: the only very weak solution with zero data is zero).
    """
    adj = solve_adjoint(grid, u)
    g1, g2 = face_gradient(adj.pressure.p, grid.h)
    u1, u2 = u.interior()
    return grid.h ** 2 * float(np.sum(u1 * g1) + np.sum(u2 * g2))
