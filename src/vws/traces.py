"""Boundary traces of rough fields, tangential liftings, and the weak pairing.

An L2 velocity field has no classical boundary values, but two boundary
objects survive: the normal trace (read directly off boundary faces in the
staggered layout) and a weak tangential trace defined by duality.  For
tangential data g1 (g1 . n = 0) the lifting R builds an interior field v with

    v = 0 on the boundary,   dv/dn = g1,   div v = 0 (exactly, discretely),

as the discrete curl of the stream function

    Psi = -1/2 d(x)^2 (g1.tau)(pi(x)) chi(d(x)),

with d the distance to the wall and chi a smooth cutoff.  The pairing

    L_u(g1) = integral of u . Laplace(v)

then recovers the tangential trace of u: discretely -h^2 <u, A v> plus u's
wall faces against v's normal faces one line in.  For a discrete Stokes flow
with data g it is exactly B(g, g1) = -h^2 <L g_tau, R g1>, the MAC scheme's
discrete Green's formula (A is symmetric, div v = 0, and the wall term
cancels the normal load), a boundary sum that tends to the integral of
(g.tau)(g1.tau) at second order.

The lift is assembled side by side from coordinate-distance strips; each
side's profile is tapered off smoothly within a few cells of the corners, so
near each wall only that wall's strip is nonzero and the corner ambiguity of
the distance map never enters.

Each strip is separable, Psi_side = outer(a, b): one factor is the tapered
wall profile, the other -1/2 d^2 chi(d) across the wall.  The curl of an
outer product is a pair of outer products, and the zero-data MAC Laplacian
acts on outer(a, c) as outer(L_D a, c) + outer(a, L_G c), with L_D the node
and L_G the ghost-closed cell second difference.  pairing_L therefore
evaluates L_u(g1) in closed form from the 1-D factors: four bilinear forms in
u, one pass per component and nonzero side over that side's strip of u,
and one dot product over its wall, O(n^2) flops and no lift built.  The
data are immutable, so their 1-D weights and strip windows are built once,
with them.  The same forms give the mass pairing <u, R g1>_h, which the
space-time pairing of vws.evolution needs beside it.  pairing_with_field
pairs u with a built field and is the reference the closed form is tested
against.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .boundary import (AXIS, NORMALS, SIDES, BoundaryData, _frozen_sides, _pair_sum,
                       smoothstep, wall)
from .grid import StaggeredGrid, VelocityField, require_same_grid
from .operators import apply_velocity_laplacian, stream_curl

__all__ = [
    "TangentialBoundaryData",
    "lift_tangential",
    "lift_stream",
    "pairing_L",
    "pairing_with_field",
    "boundary_pairing",
    "probe_set",
]


class TangentialBoundaryData:
    """Purely tangential boundary data, stored as scalar profiles per side.

    profiles[side] holds (g1 . tau) at face midpoints, with tau the
    counterclockwise unit tangent, so g1 . n = 0 by construction.  A side
    without a profile is zero; a key that is not a side raises ValueError.
    The profiles are read-only, arrays and mapping alike, so the weights of
    every pairing with the data are built here, once.
    """

    def __init__(self, grid: StaggeredGrid, profiles: dict):
        self.grid = grid
        self._profiles = MappingProxyType(
            _frozen_sides(profiles, (grid.n,), missing_ok=True))
        factors = list(_lift_factors(self))
        self._forms = tuple(_pairing_forms(*ab, grid) for _, _, ab in factors)
        self._walls = tuple(_wall_form(sd, along, grid) for sd, along, _ in factors)

    @property
    def profiles(self) -> MappingProxyType:
        """The read-only profile of each side."""
        return self._profiles


def _wall_cutoff(d: np.ndarray) -> np.ndarray:
    """C2 plateau cutoff: 1 up to 1/8, smooth descent, 0 from 1/4 on."""
    return 1.0 - smoothstep((d - 0.125) / 0.125)


def _corner_taper(s: np.ndarray, h: float) -> np.ndarray:
    """Arc-length taper: 0 within 2h of each corner, 1 beyond 6h."""
    return smoothstep((s - 2.0 * h) / (4.0 * h)) * smoothstep(((1.0 - s) - 2.0 * h) / (4.0 * h))


def _midpoints_to_nodes(t: np.ndarray) -> np.ndarray:
    # end values never matter: the corner taper vanishes there
    return np.concatenate([[t[0]], 0.5 * _pair_sum(t), [t[-1]]])


@lru_cache(maxsize=8)
def _lift_profiles(grid: StaggeredGrid) -> np.ndarray:
    """Read-only node rows: the corner taper and -1/2 d^2 chi(d) from 0."""
    z = grid.nodes()
    rows = np.stack([_corner_taper(z, grid.h), -0.5 * z ** 2 * _wall_cutoff(z)])
    rows.flags.writeable = False
    return rows


def _lift_factors(g1: TangentialBoundaryData):
    """Yield (side, along, (a, b)) per side with a nonzero profile; Psi =
    sum of outer(a, b).

    One factor is the tapered wall profile along, at the nodes, the other the
    across-wall profile -1/2 d^2 chi(d); the first index of Psi runs along x.
    """
    taper, prof0 = _lift_profiles(g1.grid)
    for side in SIDES:
        along = _midpoints_to_nodes(g1.profiles[side]) * taper
        if not along.any():     # no lift: no pairing window either
            continue
        # the distance from coordinate 0 on bottom/left, from 1 on top/right
        across = prof0 if NORMALS[side][AXIS[side]] < 0.0 else prof0[::-1]
        yield side, along, (along, across) if AXIS[side] else (across, along)


def lift_stream(g1: TangentialBoundaryData) -> np.ndarray:
    """Node stream function whose curl lifts g1 (see lift_tangential)."""
    n = g1.grid.n
    psi = np.zeros((n + 1, n + 1))
    for _, _, ab in _lift_factors(g1):
        psi += np.outer(*ab)
    return psi


def lift_tangential(g1: TangentialBoundaryData) -> VelocityField:
    """Divergence-free lift with zero boundary values and dv/dn matching g1.

    Built as the discrete curl of a per-side stream function, so the discrete
    divergence vanishes to rounding.  The normal-derivative match holds at
    boundary face midpoints away from the tapered corner windows (within 8h
    of a corner the profile is deliberately rolled off to zero).
    """
    return stream_curl(g1.grid, lift_stream(g1))


def pairing_with_field(u: VelocityField, v: VelocityField) -> float:
    """Discrete integral of u . Laplace(v) for a lift-like v (module
    docstring), the wall term included."""
    grid = u.grid
    require_same_grid(grid, v)
    a1, a2 = apply_velocity_laplacian(grid, *v.interior())
    u1, u2 = u.interior()
    uf, vf = (u.u1, u.u2), (v.u1, v.u2)
    edge = sum(float(wall(uf[AXIS[s]], s) @ wall(vf[AXIS[s]], s, 1)) for s in SIDES)
    return -grid.h ** 2 * float(np.sum(u1 * a1) + np.sum(u2 * a2)) + edge


def _node_second_difference(a: np.ndarray, h: float) -> np.ndarray:
    """L_D a: -a'' at the interior nodes, closed by a's own end values."""
    return (2.0 * a[1:-1] - a[:-2] - a[2:]) / (h * h)


def _cell_second_difference(c: np.ndarray, h: float) -> np.ndarray:
    """L_G c: -c'' at the cells, closed by the ghost values -c at both walls."""
    pad = np.concatenate([[-c[0]], c, [-c[-1]]])
    return (2.0 * c - pad[:-2] - pad[2:]) / (h * h)


def _pairing_forms(a: np.ndarray, b: np.ndarray, grid: StaggeredGrid):
    """The 1-D weights of one side's factors (a, b), one form per component.

    Each form is (left, right, window): the component's interior faces U
    enter only as the 2 x 2 product left @ U[window] @ right, with

        u1: left = [a_int; L_D a],   right = [Db, L_G Db]
        u2: left = [L_G Da; Da],     right = [b_int, L_D b]

    cut to the window where they are nonzero, the lift's strip.
    """
    n, h = grid.n, grid.h
    da, db = np.diff(a) / h, np.diff(b) / h
    forms = []
    for left, right in (
            ((a[1:n], _node_second_difference(a, h)),
             (db, _cell_second_difference(db, h))),
            ((_cell_second_difference(da, h), da),
             (b[1:n], _node_second_difference(b, h)))):
        left, right = np.stack(left), np.column_stack(right)
        rows, cols = (np.flatnonzero(w.any(axis=k)) for w, k in ((left, 0), (right, 1)))
        rows, cols = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
        forms.append((left[:, rows], right[cols], (rows, cols)))
    return tuple(forms)


def _wall_form(side: str, along: np.ndarray, grid: StaggeredGrid):
    """(side, window, wall, load): one side's lift at its own wall.  Psi is
    0 there and psi_1 along one node line in, so v = curl Psi has normal
    faces +-psi_1 D along one line in (+ on left/right), pairing with u's
    wall faces where nonzero, and first tangential faces +-(psi_1/h)
    along_int, pairing with the load (pair sums of g.tau)/h^2."""
    h, psi1 = grid.h, _lift_profiles(grid)[1][1]
    edge = (1.0, -1.0)[AXIS[side]] * psi1 * np.diff(along) / h
    nz = np.flatnonzero(edge)
    window = slice(nz[0], nz[-1] + 1)
    return side, window, edge[window], -psi1 / h * along[1:-1]


def _lift_pairings(u: VelocityField, g1: TangentialBoundaryData):
    """(<u, R g1>_h, integral of u . Laplace(R g1)) from the lift factors.

    With U1, U2 the interior faces of u and (a, b) each side's factors, the
    lift's interior faces are outer(a_int, Db) and -outer(Da, b_int), so

        <u, R g1>_h = h^2 sum_s [a_int.U1 Db - Da.U2 b_int],

    which reuses the products the Laplacian pairing forms anyway.  The
    weights are those g1 built once (:func:`_pairing_forms`, :func:`_wall_form`).
    """
    h = u.grid.h
    mass = total = 0.0
    for form in g1._forms:
        m1, m2 = (left @ (uc[window] @ right)
                  for uc, (left, right, window) in zip(u.interior(), form))
        mass += m1[0, 0] - m2[1, 0]
        total += m1[1, 0] + m1[0, 1] - m2[0, 0] - m2[1, 1]
    edge = sum(float(wall((u.u1, u.u2)[AXIS[side]], side)[window] @ w)
               for side, window, w, _ in g1._walls)
    return h * h * float(mass), edge - h * h * float(total)


def pairing_L(u: VelocityField, g1: TangentialBoundaryData) -> float:
    """Weak tangential pairing: integral of u . Laplace(R g1).

    For u solving the rough-data Stokes problem with boundary values g this
    approximates the boundary integral of (g.tau)(g1.tau).  Equals
    pairing_with_field(u, lift_tangential(g1)) to rounding, but is evaluated
    from each side's factors (a, b) without building the lift (see the module
    docstring): with U1, U2 the interior faces of u,

        -h^2 sum_s [(L_D a).U1 Db + a_int.U1 (L_G Db)
                    - (L_G Da).U2 b_int - Da.U2 (L_D b)] + the wall term,

    each read over the window of u where its weights are nonzero, the side's
    lift strip and wall: a non-finite u outside them no longer reaches the
    result.  g1 on another grid than u raises ValueError.
    """
    require_same_grid(u.grid, g1)
    return _lift_pairings(u, g1)[1]


def boundary_pairing(g: BoundaryData, g1: TangentialBoundaryData) -> float:
    """B(g, g1) = -h^2 <L g_tau, R g1>, which pairing_L(solve_boundary(grid,
    g).velocity, g1) equals to rounding (module docstring), from g1's wall
    weights: no lift, no solve.  g on another grid raises ValueError."""
    require_same_grid(g.grid, g1)
    return sum(float(_pair_sum(g.tangential_part(side)) @ load)
               for side, _, _, load in g1._walls)


def probe_set(grid: StaggeredGrid) -> list:
    """Five tangential probes per side: constant plus two Fourier pairs.

    Returns (probe_id, TangentialBoundaryData, integral) triples; the integral
    is the exact one of the untapered profile over its side, for quadrature
    references.
    """
    modes = [
        ("const", np.ones_like, 1.0),
        ("sin1", lambda s: np.sin(np.pi * s), 2.0 / np.pi),
        ("cos1", lambda s: np.cos(np.pi * s), 0.0),
        ("sin2", lambda s: np.sin(2.0 * np.pi * s), 0.0),
        ("cos2", lambda s: np.cos(2.0 * np.pi * s), 0.0),
    ]
    s = grid.x_centers()
    return [(f"{side}:{label}", TangentialBoundaryData(grid, {side: fn(s)}), integral)
            for side in SIDES for label, fn, integral in modes]
