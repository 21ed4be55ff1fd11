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

The clamped operator splits as L_D^2 + D: L_D^2 is the simply-supported
plate (the squared 5-point Dirichlet Laplacian on interior nodes), which a
2-D type-I sine transform diagonalizes, and D is diagonal with 2/h^4 per wall
adjacent to the node.  The solver is conjugate gradients preconditioned by
the exact inverse of L_D^2; since D lives on the boundary rows only, the
iteration count grows slowly with n (17, 24 and 32 at n = 32, 64, 128
for the lid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dstn, idstn

from .boundary import SIDES, BoundaryData
from .grid import StaggeredGrid, VelocityField
from .operators import CGResult, cg_solve, stream_curl

__all__ = [
    "StreamFunction",
    "apply_biharmonic",
    "biharmonic_load",
    "simply_supported_inverse",
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

    psi_int has shape (n-1, n-1) (nodes 1..n-1 each way).  Boundary nodes are
    held at zero and ghost nodes mirror the interior (the homogeneous part of
    the normal-derivative condition), which is what keeps the operator
    symmetric.
    """
    n, h = grid.n, grid.h
    p = np.zeros((n + 3, n + 3))
    p[2:n + 1, 2:n + 1] = psi_int
    p[0, :] = p[2, :]
    p[n + 2, :] = p[n, :]
    p[:, 0] = p[:, 2]
    p[:, n + 2] = p[:, n]
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


def simply_supported_inverse(grid: StaggeredGrid):
    """Exact inverse of L_D^2 on flattened interior node values, by DST-I.

    L_D is the 5-point Dirichlet Laplacian on the (n-1)^2 interior nodes; its
    eigenvalues are lambda_i + lambda_j with lambda_k = (2 - 2 cos(k pi/n))/h^2
    and its eigenvectors are the type-I sine modes, so the simply-supported
    plate L_D^2 is inverted by one forward and one inverse 2-D transform.
    """
    n, h = grid.n, grid.h
    lam = (2.0 - 2.0 * np.cos(np.arange(1, n) * np.pi / n)) / h ** 2
    den = (lam[:, None] + lam[None, :]) ** 2

    def apply(r):
        f = dstn(r.reshape(n - 1, n - 1), type=1, norm="ortho")
        return idstn(f / den, type=1, norm="ortho").ravel()

    return apply


def _tangential_node_values(g: BoundaryData) -> dict:
    """g.tau averaged from face midpoints to the interior boundary nodes."""
    out = {}
    for side in SIDES:
        t = g.tangential_part(side)
        out[side] = 0.5 * (t[:-1] + t[1:])
    return out


def biharmonic_load(grid: StaggeredGrid, g: BoundaryData,
                    f_nodes: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side at interior nodes: source plus eliminated ghost data."""
    n, h = grid.n, grid.h
    rhs = np.zeros((n - 1, n - 1))
    if f_nodes is not None:
        if f_nodes.shape == (n + 1, n + 1):
            rhs += f_nodes[1:n, 1:n]
        elif f_nodes.shape == (n - 1, n - 1):
            rhs += f_nodes
        else:
            raise ValueError("source must be node-shaped or interior-node-shaped")
        if not np.isfinite(f_nodes).all():
            raise ValueError("source has non-finite values")
    t = _tangential_node_values(g)
    c = 2.0 / h ** 3
    rhs[:, 0] += c * t["bottom"]
    rhs[:, -1] += c * t["top"]
    rhs[0, :] += c * t["left"]
    rhs[-1, :] += c * t["right"]
    return rhs


def solve_biharmonic(grid: StaggeredGrid, g: BoundaryData,
                     f_nodes: np.ndarray | None = None,
                     rel_tol: float = 1e-8,
                     max_iter: int | None = None) -> StreamFunction:
    """Clamped-plate solve for the stream function of tangential data g.

    Conjugate gradients on the symmetric positive definite 13-point system,
    preconditioned by the simply-supported plate L_D^2 (applied exactly by
    :func:`simply_supported_inverse`).  The two operators differ by a
    diagonal on the wall-adjacent rows, so the iteration count stays small
    and grows slowly with n; it stops when the true residual meets rel_tol.
    """
    from .errors import NonTangentialData

    n = grid.n
    worst = max(float(np.max(np.abs(g.normal_part(s)))) for s in SIDES)
    if worst > 1e-12:
        raise NonTangentialData(
            f"stream formulation needs g.n = 0; max |g.n| = {worst:.3e}")

    rhs = biharmonic_load(grid, g, f_nodes)

    def A(x):
        return apply_biharmonic(grid, x.reshape(n - 1, n - 1)).ravel()

    if max_iter is None:
        # D has rank 4(n-2): exact-arithmetic CG needs at most 4n-7 steps
        max_iter = max(1000, 4 * n)
    res: CGResult = cg_solve(A, rhs.ravel(), rel_tol=rel_tol,
                             max_iter=max_iter,
                             precond=simply_supported_inverse(grid))
    psi = np.zeros((n + 1, n + 1))
    psi[1:n, 1:n] = res.x.reshape(n - 1, n - 1)
    diag = {"iterations": res.iterations, "residual": res.residual,
            "rel_residual": res.rel_residual}
    return StreamFunction(grid, psi, diag)


def velocity_from_stream(stream: StreamFunction) -> VelocityField:
    """Face velocities (dPsi/dy, -dPsi/dx); exactly divergence-free."""
    return stream_curl(stream.grid, stream.psi)
