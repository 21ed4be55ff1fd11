"""Fourth-order stream-function route to the tangential-data Stokes problem.

When the boundary data has no normal component the velocity is the curl of a
scalar stream function that solves the clamped-plate problem

    Laplace^2 Psi = f in Omega,   Psi = 0,  dPsi/dn = -(g.tau)  on the wall

(counterclockwise tangents; the sign makes a rightward lid drive rightward
flow under the lid).  Solving it with the classical 13-point stencil and
recovering the velocity by discrete curl gives a second, independent
discretization of the same flow, used to cross-validate the primitive
saddle-point solver.

On walls Psi vanishes at the boundary nodes; the normal-derivative condition
enters through mirror ghost values Psi_ghost = Psi_mirror - 2h (g.tau).
Eliminating the ghosts bumps the stencil diagonal (the operator stays
symmetric positive definite) and sends 2 (g.tau) / h^3 loads to the rhs.

The clamped operator splits as L_D^2 + U D U^T: L_D^2 is the
simply-supported plate (the squared 5-point Dirichlet Laplacian on interior
nodes), which a 2-D type-I sine transform diagonalizes; U holds the four
full wall-adjacent node lines, 4(n-1) columns with the corner nodes
repeated, and D = (2/h^4) I, so a node gets 2/h^4 per adjacent wall.  The
Woodbury identity inverts it exactly with a 4(n-1)-square capacitance
matrix K = (h^4/2) I + U^T L_D^-2 U, which in the sine modes along the walls
has a closed form that splits into four parity sectors (Bjorstad 1983;
Buzbee, Dorr, George and Golub 1971).  A solve is one forward and one
inverse 2-D DST-I, each two passes of :func:`vws.operators._transform`, plus
O(n^2) work, with no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import SIDES, BoundaryData, _pair_sum, wall
from .errors import NonConvergence, NonTangentialData
from .grid import StaggeredGrid, VelocityField, require_same_grid
from .operators import _SectorInverse, _transform, stream_curl

__all__ = [
    "StreamFunction",
    "apply_biharmonic",
    "biharmonic_load",
    "solve_biharmonic",
    "velocity_from_stream",
]


@dataclass(frozen=True)
class StreamFunction:
    """Stream values at grid nodes (i h, j h); boundary nodes exactly zero."""

    grid: StaggeredGrid
    psi: np.ndarray
    diagnostics: dict | None = None

    def __post_init__(self):
        n = self.grid.n
        if self.psi.shape != (n + 1, n + 1):
            raise ValueError(f"stream array must have shape {(n + 1, n + 1)}")
        self.psi.flags.writeable = False

    def extremum(self) -> tuple:
        """(x, y, value) of the largest-|Psi| node."""
        k = int(np.argmax(np.abs(self.psi)))
        i, j = divmod(k, self.grid.n + 1)
        return (i * self.grid.h, j * self.grid.h, float(self.psi[i, j]))


def apply_biharmonic(grid: StaggeredGrid, psi_int: np.ndarray) -> np.ndarray:
    """13-point clamped-plate operator on interior node values.

    psi_int has shape (n-1, n-1) (nodes 1..n-1 each way); another shape
    raises ValueError.  Boundary nodes are held at zero and ghost nodes
    mirror the interior (the homogeneous part of the normal-derivative
    condition), which is what keeps the operator symmetric.
    """
    n, h = grid.n, grid.h
    if np.shape(psi_int) != (n - 1, n - 1):
        raise ValueError(f"interior nodes must have shape {(n - 1, n - 1)}, "
                         f"got {np.shape(psi_int)}")
    p = np.zeros((n + 3, n + 3))
    p[2:n + 1, 2:n + 1] = psi_int
    for side in SIDES:
        wall(p, side)[...] = wall(p, side, 2)
    c = p[2:n + 1, 2:n + 1]
    e, w = p[3:n + 2, 2:n + 1], p[1:n, 2:n + 1]
    nn, ss = p[2:n + 1, 3:n + 2], p[2:n + 1, 1:n]
    ee, ww = p[4:n + 3, 2:n + 1], p[0:n - 1, 2:n + 1]
    nn2, ss2 = p[2:n + 1, 4:n + 3], p[2:n + 1, 0:n - 1]
    ne = p[3:n + 2, 3:n + 2]
    nw = p[1:n, 3:n + 2]
    se = p[3:n + 2, 1:n]
    sw = p[1:n, 1:n]
    out = (20.0 * c - 8.0 * (e + w + nn + ss)
           + 2.0 * (ne + nw + se + sw)
           + (ee + ww + nn2 + ss2))
    return out / h ** 4


class _ClampedPlateInverse:
    """Exact inverse of the 13-point clamped-plate operator, by Woodbury.

    A^{-1} b = L_D^-2 b - L_D^-2 U K^{-1} U^T L_D^-2 b, K = (h^4/2) I +
    U^T L_D^-2 U.  The wall lines are taken in pairs: left and right (nodes
    i = 1 and i = n-1, the first pair), bottom and top (j = 1 and j = n-1,
    the second), each as its even (sum) or odd (difference) combination
    over sqrt(2).  Along a line the basis is the sine modes phi_k(i) =
    sqrt(2/n) sin(k i pi/n), k = 1..n-1; since phi_k(n-1) =
    (-1)^(k+1) phi_k(1), the even pair sees the odd modes k with weight
    w_k = sqrt(2) phi_k(1), the odd pair the even ones.  With
    D_kl = (lambda_k + lambda_l)^2 the spectrum of L_D^2 on the 2-D DST-I
    modes, lambda_k = (2 - 2 cos(k pi/n))/h^2, K has

    * blocks diagonal per mode between parallel lines, entry
      (h^4/2) + sum_l w_l^2 / D_kl;
    * a dense row-column block, entry w_k w_l / D_kl,

    the closed form of :class:`vws.operators._SectorInverse` with modes
    indexed k - 1.  The build holds D, the weights w (n-1, 2) with column a
    those of parity a, and K^{-1}.  In the 2-D DST-I modes L_D^-2 is
    division by D, U^T picks the pair values by the weights w, and U spreads
    them back, so one solve takes one forward and one inverse transform.
    """

    def __init__(self, n: int):
        h = 1.0 / n
        lam = (2.0 - 2.0 * np.cos(np.arange(1, n) * np.pi / n)) / h ** 2
        self._den = (lam[:, None] + lam[None, :]) ** 2
        modes = np.arange(n - 1)
        self._w = w = np.zeros((n - 1, 2))
        w[modes, modes % 2] = 2.0 / np.sqrt(n) * np.sin((modes + 1) * np.pi / n)
        self._k_inv = _SectorInverse(1.0 / self._den, w, modes, 0.5 / n ** 4, 1.0)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached arrays."""
        return self._den.nbytes + self._w.nbytes + self._k_inv.nbytes

    def __call__(self, rhs: np.ndarray) -> np.ndarray:
        b_hat = _transform(rhs.copy(), "dst", (-2, -1))
        v_hat = b_hat / self._den
        # U^T L_D^-2 b: left/right pairs per mode along y, bottom/top along x
        y1, y2 = self._k_inv(v_hat.T @ self._w, v_hat @ self._w)
        b_hat -= self._w @ y1.T
        b_hat -= y2 @ self._w.T
        b_hat /= self._den
        return _transform(b_hat, "dst", (-2, -1))


@lru_cache(maxsize=8)
def _clamped_plate_inverse(grid: StaggeredGrid) -> _ClampedPlateInverse:
    """The exact clamped-plate inverse for ``grid``, cached."""
    return _ClampedPlateInverse(grid.n)


def biharmonic_load(grid: StaggeredGrid, g: BoundaryData,
                    f_nodes: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side at interior nodes: source plus eliminated ghost data,
    2 (g.tau)/h^3 next to each wall, g.tau averaged to the nodes."""
    n, h = grid.n, grid.h
    rhs = np.zeros((n - 1, n - 1))
    if f_nodes is not None:
        if f_nodes.shape != (n + 1, n + 1):
            raise ValueError(f"source must be node-shaped {(n + 1, n + 1)}, "
                             f"got {f_nodes.shape}")
        if not np.isfinite(f_nodes).all():
            raise ValueError("source has non-finite values")
        rhs += f_nodes[1:n, 1:n]
    c = 2.0 / h ** 3
    for side in SIDES:
        wall(rhs, side)[...] += c * (0.5 * _pair_sum(g.tangential_part(side)))
    return rhs


def solve_biharmonic(grid: StaggeredGrid, g: BoundaryData,
                     f_nodes: np.ndarray | None = None) -> StreamFunction:
    """Clamped-plate solve for the stream function of tangential data g.

    A direct solve of the symmetric positive definite 13-point system by the
    cached :class:`_ClampedPlateInverse`, checked by one application of the
    operator: the residual must meet max|b - A psi| <= 1e-12
    (max|b| + (64/h^4) max|psi|), a backward error against the data and the
    operator scale (the stencil weights sum to 64 in absolute value).  The
    solve itself reaches about 3e-16 at n = 16..512; the bound keeps four
    decades above that, since a smooth error in psi barely moves the
    residual (psi scaled by 1.001 on the n = 64 plate MMS reads 1.6e-9).
    A miss raises NonConvergence carrying psi.  Data with a normal part above
    1e-12 of max|g| raise NonTangentialData, g on another grid ValueError.
    """
    require_same_grid(grid, g)
    n, h = grid.n, grid.h
    worst = max(float(np.abs(g.normal_part(s)).max()) for s in SIDES)
    size = max(float(np.abs(g.samples[s]).max()) for s in SIDES)
    if worst > 1e-12 * size:
        raise NonTangentialData(
            f"stream formulation needs g.n = 0; max |g.n| = {worst:.3e} "
            f"of max |g| = {size:.3e}")

    rhs = biharmonic_load(grid, g, f_nodes)
    psi_int = _clamped_plate_inverse(grid)(rhs)
    residual = float(np.abs(rhs - apply_biharmonic(grid, psi_int)).max())
    scale = float(np.abs(rhs).max()) + 64.0 / h ** 4 * float(np.abs(psi_int).max())
    # one direct step, none for zero data
    steps = int(rhs.any())
    # written to fail on a NaN residual too
    if not residual <= 1e-12 * scale:
        raise NonConvergence(
            f"clamped plate: residual {residual:.3e} above 1e-12 "
            f"of the data and operator scale {scale:.3e}",
            best_x=psi_int, residual=residual, iterations=steps,
        )
    psi = np.zeros((n + 1, n + 1))
    psi[1:n, 1:n] = psi_int
    diag = {"iterations": steps, "residual": residual,
            "rel_residual": residual / scale if scale > 0.0 else 0.0,
            "path": "capacitance"}
    return StreamFunction(grid, psi, diag)


def velocity_from_stream(stream: StreamFunction) -> VelocityField:
    """Face velocities (dPsi/dy, -dPsi/dx); exactly divergence-free."""
    return stream_curl(stream.grid, stream.psi)
