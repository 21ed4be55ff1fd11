"""Discrete operators on the MAC grid: Laplacian, divergence, gradient, solvers.

The velocity Laplacian acts on interior faces.  Dirichlet data enters two ways:
normal components sit exactly on boundary faces (a plain Dirichlet neighbor),
tangential components are imposed through ghost-cell reflection

    u_ghost = 2 g - u_interior

which keeps the eliminated operator symmetric (the elimination only adds
+1/h^2 to the diagonal) and moves 2 g / h^2 into the load vector.

Divergence and gradient are exact adjoints of each other under the natural
Euclidean pairing: <grad p, w> = -<p, div w> for any w vanishing on boundary
faces, with no quadrature fudge factors.

The (optionally shifted) velocity Laplacian is solved exactly by
sine-transform diagonalization: the uniform-grid operator separates, and the
ghost-modified rows are exactly the half-offset Dirichlet boundary closure,
which the type-II sine basis diagonalizes.  A matrix-free conjugate-gradient
path on the same stencil is kept as an independent reference; tests pin the
two against each other.

The cell-centred Neumann Laplacian (divergence of the interior-face gradient)
is diagonalized the same way by the type-II cosine basis; its inverse on
zero-mean fields gives the Cahouet-Chabard preconditioner for the shifted
pressure Schur complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, dst, idctn, idst

from .boundary import BoundaryData
from .errors import NonConvergence
from .grid import StaggeredGrid, VelocityField, PressureField

__all__ = [
    "DirichletBC",
    "apply_velocity_laplacian",
    "laplacian_load",
    "divergence",
    "divergence_interior",
    "boundary_divergence",
    "gradient",
    "stream_curl",
    "cg_solve",
    "CGResult",
    "VelocityPoisson",
    "cahouet_chabard",
]


@dataclass(frozen=True)
class DirichletBC:
    """Prescribed velocity values at the locations the stencils need them.

    Normal components at boundary faces (exact sample positions); tangential
    components at the ghost-reflection abscissae (i h along bottom/top, j h
    along left/right, corners excluded), obtained by averaging the two
    adjacent midpoint samples.
    """

    grid: StaggeredGrid
    u1_left: np.ndarray    # (n,)   u1 at (0, (j+1/2)h)
    u1_right: np.ndarray   # (n,)
    u2_bottom: np.ndarray  # (n,)   u2 at ((i+1/2)h, 0)
    u2_top: np.ndarray     # (n,)
    u1_bottom: np.ndarray  # (n-1,) tangential u1 at (i h, 0), i = 1..n-1
    u1_top: np.ndarray     # (n-1,)
    u2_left: np.ndarray    # (n-1,) tangential u2 at (0, j h), j = 1..n-1
    u2_right: np.ndarray   # (n-1,)

    @classmethod
    def zero(cls, grid: StaggeredGrid) -> "DirichletBC":
        n = grid.n
        z_n = np.zeros(n)
        z_m = np.zeros(n - 1)
        return cls(grid, z_n, z_n.copy(), z_n.copy(), z_n.copy(),
                   z_m, z_m.copy(), z_m.copy(), z_m.copy())

    @classmethod
    def from_boundary_data(cls, g: BoundaryData) -> "DirichletBC":
        s = g.samples

        def mid(a):  # midpoint samples -> values at interior face abscissae
            return 0.5 * (a[:-1] + a[1:])

        return cls(
            g.grid,
            u1_left=s["left"][:, 0].copy(),
            u1_right=s["right"][:, 0].copy(),
            u2_bottom=s["bottom"][:, 1].copy(),
            u2_top=s["top"][:, 1].copy(),
            u1_bottom=mid(s["bottom"][:, 0]),
            u1_top=mid(s["top"][:, 0]),
            u2_left=mid(s["left"][:, 1]),
            u2_right=mid(s["right"][:, 1]),
        )


def laplacian_load(grid: StaggeredGrid, bc: DirichletBC):
    """Boundary contribution to the right-hand side of A u = b.

    Returns interior-shaped arrays (b1, b2): Dirichlet neighbors contribute
    g/h^2, eliminated tangential ghosts contribute 2 g/h^2.
    """
    n, h = grid.n, grid.h
    ih2 = 1.0 / h ** 2
    b1 = np.zeros((n - 1, n))
    b2 = np.zeros((n, n - 1))
    b1[0, :] += bc.u1_left * ih2
    b1[-1, :] += bc.u1_right * ih2
    b1[:, 0] += 2.0 * bc.u1_bottom * ih2
    b1[:, -1] += 2.0 * bc.u1_top * ih2
    b2[:, 0] += bc.u2_bottom * ih2
    b2[:, -1] += bc.u2_top * ih2
    b2[0, :] += 2.0 * bc.u2_left * ih2
    b2[-1, :] += 2.0 * bc.u2_right * ih2
    return b1, b2


def apply_velocity_laplacian(grid: StaggeredGrid, u1, u2, bc: DirichletBC,
                             shift: float = 0.0):
    """Matrix-free (-Laplacian + shift) u at interior faces.

    u1, u2 are full face arrays whose boundary faces already hold the normal
    Dirichlet values; tangential ghosts come from bc.  Returns interior-shaped
    arrays.  Equivalent to A u - load(bc), with A the interior-face operator
    and load from :func:`laplacian_load`.
    """
    n, h = grid.n, grid.h
    ih2 = 1.0 / h ** 2

    # u1 with ghost columns below/above
    u1p = np.empty((n + 1, n + 2))
    u1p[:, 1:-1] = u1
    u1p[:, 0] = -u1[:, 0]
    u1p[:, -1] = -u1[:, -1]
    u1p[1:n, 0] += 2.0 * bc.u1_bottom
    u1p[1:n, -1] += 2.0 * bc.u1_top
    c = u1p[1:n, 1:-1]
    r1 = (4.0 * c - u1p[0:n - 1, 1:-1] - u1p[2:n + 1, 1:-1]
          - u1p[1:n, 0:-2] - u1p[1:n, 2:]) * ih2 + shift * c

    u2p = np.empty((n + 2, n + 1))
    u2p[1:-1, :] = u2
    u2p[0, :] = -u2[0, :]
    u2p[-1, :] = -u2[-1, :]
    u2p[0, 1:n] += 2.0 * bc.u2_left
    u2p[-1, 1:n] += 2.0 * bc.u2_right
    c = u2p[1:-1, 1:n]
    r2 = (4.0 * c - u2p[0:n, 1:n] - u2p[2:n + 2, 1:n]
          - u2p[1:-1, 0:n - 1] - u2p[1:-1, 2:n + 1]) * ih2 + shift * c
    return r1, r2


def divergence(vel: VelocityField) -> PressureField:
    """Cell-centered divergence of a full face field (boundary faces included)."""
    g = vel.grid
    d = (vel.u1[1:, :] - vel.u1[:-1, :]) / g.h + (vel.u2[:, 1:] - vel.u2[:, :-1]) / g.h
    return PressureField(g, d)


def divergence_interior(grid: StaggeredGrid, u1_int, u2_int):
    """Divergence of interior-face values with boundary faces taken as zero."""
    h = grid.h
    n = grid.n
    d = np.zeros((n, n))
    d[:-1, :] += u1_int / h
    d[1:, :] -= u1_int / h
    d[:, :-1] += u2_int / h
    d[:, 1:] -= u2_int / h
    return d


def boundary_divergence(grid: StaggeredGrid, bc: DirichletBC):
    """Contribution of prescribed boundary faces to the cell divergence."""
    n, h = grid.n, grid.h
    d = np.zeros((n, n))
    d[0, :] -= bc.u1_left / h
    d[-1, :] += bc.u1_right / h
    d[:, 0] -= bc.u2_bottom / h
    d[:, -1] += bc.u2_top / h
    return d


def gradient(p: PressureField) -> VelocityField:
    """Face gradient of a cell field; zero on boundary faces.

    Adjoint identity: <gradient(p), w> = -<p, divergence(w)> exactly, for any
    w that vanishes on boundary faces.
    """
    g = p.grid
    n, h = g.n, g.h
    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))
    u1[1:n, :] = (p.p[1:, :] - p.p[:-1, :]) / h
    u2[:, 1:n] = (p.p[:, 1:] - p.p[:, :-1]) / h
    return VelocityField(g, u1, u2)


def stream_curl(grid: StaggeredGrid, psi: np.ndarray) -> VelocityField:
    """Face velocity (d psi/dy, -d psi/dx) from node values of a stream function.

    The result is exactly divergence-free in the discrete sense (telescoping).
    """
    n, h = grid.n, grid.h
    if psi.shape != (n + 1, n + 1):
        raise ValueError(f"stream array must be node-shaped {(n + 1, n + 1)}")
    u1 = (psi[:, 1:] - psi[:, :-1]) / h
    u2 = -(psi[1:, :] - psi[:-1, :]) / h
    return VelocityField(grid, u1, u2)


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float       # final absolute 2-norm of b - A x
    rel_residual: float   # residual / ||b||


def cg_solve(A, b, rel_tol: float = 1e-10, max_iter: int | None = None,
             x0=None, precond=None) -> CGResult:
    """Conjugate gradients for SPD systems.

    A may be anything with matrix-vector product via ``A @ x`` or a callable.
    ``precond`` is an SPD preconditioner given as a callable r -> M^-1 r
    (Jacobi scaling is ``lambda r: r / d``).  The stopping rule is on the
    true, unpreconditioned residual ||b - A x|| <= rel_tol ||b||, checked
    whenever the recursive residual passes the target or stops improving.
    Raises NonConvergence carrying the best iterate seen and its true
    residual when the iteration cap is hit, or at once when a true-residual
    check fails without improving on the previous one (rel_tol below the
    rounding floor of the system).
    """
    matvec = A if callable(A) else (lambda v: A @ v)
    b = np.asarray(b, dtype=float).ravel()
    m = b.size
    if max_iter is None:
        max_iter = 20 * m + 100
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return CGResult(np.zeros(m), 0, 0.0, 0.0)
    x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=float).ravel().copy()
    r = b - matvec(x) if x.any() else b.copy()
    tol = rel_tol * bnorm
    z = r if precond is None else precond(r)
    p = z.copy()
    rz = float(r @ z)
    best_x, best_res, best_it = x.copy(), float(np.linalg.norm(r)), 0
    last_true, next_check, it = np.inf, 0, 0
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res, best_x, best_it = res, x.copy(), it
        # the recursion can drift from the true residual, and at the rounding
        # floor it can wander without passing tol: confirm with the true
        # residual when it claims convergence, or when it has gone as many
        # iterations (at least 20) without a new best as it took to reach
        # the last one
        stalled = it - best_it >= max(best_it, 20) and it >= next_check
        if res <= tol or stalled:
            r_true = b - matvec(x)
            res_true = float(np.linalg.norm(r_true))
            if res_true <= tol * 1.5:
                return CGResult(x, it, res_true, res_true / bnorm)
            if res_true >= last_true:
                why = "stalled at the rounding floor"
                break
            last_true, next_check = res_true, 2 * it
            r = r_true
        z = r if precond is None else precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    else:
        why = "iteration cap reached"
    # the recursive residual of best_x may sit far below its true residual
    best_true = float(np.linalg.norm(b - matvec(best_x)))
    raise NonConvergence(
        f"cg: no convergence in {it} iterations, {why} "
        f"(best true residual {best_true:.3e}, target {tol:.3e})",
        best_x=best_x, residual=best_true, iterations=it,
    )


class VelocityPoisson:
    """Solver for (-Laplacian + shift) on interior velocity faces.

    method "dst": exact solve by sine-transform diagonalization (default).
    method "cg": matrix-free conjugate gradients on
    :func:`apply_velocity_laplacian` with zero boundary values, a reference
    that shares no code with the transform path.
    """

    def __init__(self, grid: StaggeredGrid, shift: float = 0.0,
                 method: str = "dst", cg_tol: float = 1e-12,
                 cg_max_iter: int | None = None):
        if method not in ("dst", "cg"):
            raise ValueError(f"unknown method {method!r}")
        self.grid = grid
        self.shift = shift
        self.method = method
        self.cg_tol = cg_tol
        self.cg_max_iter = cg_max_iter
        self.inner_iterations = 0  # cumulative, cg path only
        n, h = grid.n, grid.h
        if method == "dst":
            lam_face = (2.0 - 2.0 * np.cos(np.arange(1, n) * np.pi / n)) / h ** 2
            lam_cell = (2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / n)) / h ** 2
            self._den1 = lam_face[:, None] + lam_cell[None, :] + shift
            self._den2 = lam_cell[:, None] + lam_face[None, :] + shift

    def solve(self, b1: np.ndarray, b2: np.ndarray):
        """Solve for interior-face arrays from interior-shaped right sides."""
        if self.method == "dst":
            f1 = dst(dst(b1, type=1, axis=0, norm="ortho"), type=2, axis=1, norm="ortho")
            f1 /= self._den1
            x1 = idst(idst(f1, type=2, axis=1, norm="ortho"), type=1, axis=0, norm="ortho")
            f2 = dst(dst(b2, type=2, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")
            f2 /= self._den2
            x2 = idst(idst(f2, type=2, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")
            return x1, x2
        grid, n = self.grid, self.grid.n
        cut = grid.n_u1_interior
        bc = DirichletBC.zero(grid)

        def matvec(v):
            u1 = np.zeros((n + 1, n))
            u2 = np.zeros((n, n + 1))
            u1[1:n, :] = v[:cut].reshape(n - 1, n)
            u2[:, 1:n] = v[cut:].reshape(n, n - 1)
            r1, r2 = apply_velocity_laplacian(grid, u1, u2, bc, shift=self.shift)
            return np.concatenate([r1.ravel(), r2.ravel()])

        b = np.concatenate([b1.ravel(), b2.ravel()])
        res = cg_solve(matvec, b, rel_tol=self.cg_tol, max_iter=self.cg_max_iter)
        self.inner_iterations += res.iterations
        return res.x[:cut].reshape(n - 1, n), res.x[cut:].reshape(n, n - 1)


def cahouet_chabard(grid: StaggeredGrid, shift: float):
    """Cahouet-Chabard preconditioner r -> r + shift (-Delta_N)^+ r, zero mean.

    Approximates the inverse of the shifted pressure Schur complement
    -D (shift - Laplacian)^{-1} G, which behaves like the identity at small
    shift and like shift (-Delta_N)^{-1} at large shift.  Delta_N is the
    5-point cell-centred Neumann Laplacian, D G with boundary faces held at
    zero; its eigenvalues are lambda_k + lambda_l with
    lambda_k = (2 - 2 cos(k pi/n))/h^2, k = 0..n-1, and its eigenvectors are
    the type-II cosine modes, so the pseudo-inverse (constant mode dropped)
    takes one forward and one inverse 2-D transform.
    """
    n, h = grid.n, grid.h
    lam = (2.0 - 2.0 * np.cos(np.arange(n) * np.pi / n)) / h ** 2
    den = lam[:, None] + lam[None, :]
    den[0, 0] = np.inf

    def apply(r):
        z = r + shift * idctn(dctn(r, type=2, norm="ortho") / den,
                              type=2, norm="ortho")
        return z - z.mean()

    return apply
