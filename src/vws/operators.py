"""Discrete operators on the MAC grid: Laplacian, divergence, gradient, solvers.

The velocity Laplacian acts on interior faces.  Dirichlet data enters two ways:
normal components sit exactly on boundary faces (a plain Dirichlet neighbor),
tangential components are imposed through ghost-cell reflection

    u_ghost = 2 g - u_interior

which keeps the eliminated operator symmetric (the elimination only adds
+1/h^2 to the diagonal) and moves 2 g / h^2 into the load vector.

There is one divergence and one gradient.  :func:`cell_divergence` takes the
full face arrays, so prescribed wall faces count in it like any other face;
:func:`face_gradient` gives the interior faces of the gradient, whose wall
faces are zero.  :func:`divergence` and :func:`gradient` wrap them for the
field types.  They are exact adjoints of each other under the natural
Euclidean pairing: <grad p, w> = -<p, div w> for any w vanishing on boundary
faces, with no quadrature fudge factors.

The (optionally shifted) velocity Laplacian is solved exactly by
sine-transform diagonalization: the uniform-grid operator separates, and the
ghost-modified rows are exactly the half-offset Dirichlet boundary closure,
which the type-II sine basis diagonalizes.  Tests pin it against the dense
operator assembled column by column from :func:`apply_velocity_laplacian`.

The cell-centred Neumann Laplacian (divergence of the interior-face gradient)
is diagonalized the same way by the type-II cosine basis.  Its inverse on
zero-mean fields gives the Cahouet-Chabard map, the exact inverse of the
pressure Schur complement with free-slip walls; a closed-form boundary
capacitance matrix corrects it to the exact inverse for no-slip walls at
every shift (:class:`SchurInverse`).  :func:`saddle_inverses` caches both
exact inverses per (grid, shift) and refuses a singular shift.

That capacitance matrix, and the clamped-plate one of :mod:`vws.biharmonic`,
couple two pairs of opposite walls through a diagonal 2-D spectral inverse,
so both split into four parity sectors with the same closed form
(:func:`_parity_sectors`) and are inverted by the same per-sector block
elimination (:class:`_SectorInverse`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dctn, dst, idctn, idst

from .boundary import BoundaryData
from .errors import NonConvergence
from .grid import StaggeredGrid, VelocityField, PressureField

__all__ = [
    "DirichletBC",
    "apply_velocity_laplacian",
    "laplacian_load",
    "cell_divergence",
    "divergence",
    "face_gradient",
    "gradient",
    "stream_curl",
    "cg_solve",
    "CGResult",
    "VelocityPoisson",
    "SchurInverse",
    "saddle_inverses",
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

    def __post_init__(self):
        for name in ("u1_left", "u1_right", "u2_bottom", "u2_top",
                     "u1_bottom", "u1_top", "u2_left", "u2_right"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} has non-finite values")

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


def cell_divergence(u1: np.ndarray, u2: np.ndarray, h: float) -> np.ndarray:
    """Cell divergence of full face arrays, boundary faces included."""
    return (u1[1:, :] - u1[:-1, :]) / h + (u2[:, 1:] - u2[:, :-1]) / h


def divergence(vel: VelocityField) -> PressureField:
    """Cell-centered divergence of a face field (see :func:`cell_divergence`)."""
    g = vel.grid
    return PressureField(g, cell_divergence(vel.u1, vel.u2, g.h))


def face_gradient(p: np.ndarray, h: float):
    """Gradient of a cell array at the interior faces: (n-1, n), (n, n-1)."""
    return (p[1:, :] - p[:-1, :]) / h, (p[:, 1:] - p[:, :-1]) / h


def gradient(p: PressureField) -> VelocityField:
    """Face gradient of a cell field; zero on boundary faces.

    Adjoint identity: <gradient(p), w> = -<p, divergence(w)> exactly, for any
    w that vanishes on boundary faces.
    """
    return VelocityField.from_interior(p.grid, *face_gradient(p.p, p.grid.h))


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


def cg_solve(A, b, rel_tol: float = 1e-10,
             max_iter: int | None = None) -> CGResult:
    """Conjugate gradients for SPD systems.

    A may be anything with matrix-vector product via ``A @ x`` or a callable.
    The iteration starts from zero.  The stopping rule is on the true
    residual ||b - A x|| <= rel_tol ||b||, checked whenever the recursive
    residual passes the target or stops improving.  Raises NonConvergence
    carrying the best iterate seen and its true residual when the iteration
    cap is hit, or at once when a true-residual check fails without
    improving on the previous one (rel_tol below the rounding floor of the
    system).
    """
    matvec = A if callable(A) else (lambda v: A @ v)
    b = np.asarray(b, dtype=float).ravel()
    m = b.size
    if max_iter is None:
        max_iter = 20 * m + 100
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return CGResult(np.zeros(m), 0, 0.0, 0.0)
    x = np.zeros(m)
    r = b.copy()
    tol = rel_tol * bnorm
    p = r.copy()
    rr = float(r @ r)
    best_x, best_res, best_it = x.copy(), float(np.linalg.norm(r)), 0
    last_true, next_check, it = np.inf, 0, 0
    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        alpha = rr / float(p @ Ap)
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
        rr_new = float(r @ r)
        p = r + (rr_new / rr) * p
        rr = rr_new
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
    """Exact solve of (-Laplacian + shift) on interior velocity faces.

    The operator is diagonal in sine modes; a non-finite shift, or one that
    zeroes an eigenvalue (the operator is singular), raises ValueError.
    """

    def __init__(self, grid: StaggeredGrid, shift: float = 0.0):
        if not np.isfinite(shift):
            raise ValueError("shift has non-finite values")
        n, h = grid.n, grid.h
        lam_face = (2.0 - 2.0 * np.cos(np.arange(1, n) * np.pi / n)) / h ** 2
        lam_cell = (2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / n)) / h ** 2
        self._den1 = lam_face[:, None] + lam_cell[None, :] + shift
        self._den2 = self._den1.T.copy()  # contiguous: a strided divide is slower
        if not self._den1.all():
            raise ValueError(
                f"shift {shift!r} makes the velocity Laplacian singular")

    @property
    def nbytes(self) -> int:
        """Bytes held by the denominators."""
        return self._den1.nbytes + self._den2.nbytes

    def solve(self, b1: np.ndarray, b2: np.ndarray):
        """Solve for interior-face arrays from interior-shaped right sides."""
        f1 = dst(dst(b1, type=1, axis=0, norm="ortho"), type=2, axis=1, norm="ortho")
        f1 /= self._den1
        x1 = idst(idst(f1, type=2, axis=1, norm="ortho"), type=1, axis=0, norm="ortho")
        f2 = dst(dst(b2, type=2, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")
        f2 /= self._den2
        x2 = idst(idst(f2, type=2, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")
        return x1, x2


def _neumann_inverse(mu: np.ndarray) -> np.ndarray:
    """(-Delta_N)^+ in the 2-D type-II cosine modes: 1/(mu_k + mu_l), 0 at (0, 0)."""
    inv_lam = mu[:, None] + mu[None, :]
    inv_lam[0, 0] = np.inf
    return np.reciprocal(inv_lam, out=inv_lam)


def _parity_sectors(inv_d: np.ndarray, weight: np.ndarray, modes: np.ndarray,
                    delta: float, sign: float) -> list:
    """Closed-form wall capacitance matrix K, split into four parity sectors.

    Both capacitance matrices here (the no-slip pressure correction of
    :class:`SchurInverse` and the clamped plate of :mod:`vws.biharmonic`)
    couple a first and a second pair of opposite walls through a 2-D
    spectral inverse ``inv_d``, in the sine modes ``modes`` along the walls.
    A wall pair is taken as the even (sum) or odd (difference) combination
    of its two walls; ``weight[:, a]`` is the weight of each mode normal to
    the walls on the pair of parity a, and a mode has parity ``mode % 2``.

    * Each pair's block is diagonal per mode k:
      delta + sum_l weight_la^2 inv_d[k, l].
    * The coupling of first-pair mode k and second-pair mode l is dense:
      sign weight_kb weight_la inv_d[k, l].

    The coupling is nonzero only for first-pair modes of parity b and
    second-pair modes of parity a, so K splits into four sectors (a, b),
    returned as tuples (a, b, k, l, d1, c, d2): first-pair modes k,
    second-pair modes l, the diagonals d1, d2 and the coupling block c.
    """
    parity = modes % 2
    sectors = []
    for a in (0, 1):
        for b in (0, 1):
            k = modes[parity == b]
            l = modes[parity == a]
            d1 = delta + inv_d[k] @ weight[:, a] ** 2
            d2 = delta + weight[:, b] ** 2 @ inv_d[:, l]
            c = sign * np.outer(weight[k, b], weight[l, a])
            c *= inv_d[np.ix_(k, l)]
            sectors.append((a, b, k, l, d1, c, d2))
    return sectors


class _SectorInverse:
    """K^{-1} for the sectors of :func:`_parity_sectors`.

    Each sector is inverted by block elimination of its diagonal first-pair
    part; the inverse of the dense Schur complement D2 - C^T D1^{-1} C of
    that part is stored.
    """

    def __init__(self, sectors: list):
        self._sectors = []
        for a, b, k, l, d1, c, d2 in sectors:
            e = c / d1[:, None]
            s2 = np.linalg.inv(np.diag(d2) - c.T @ e)
            self._sectors.append((a, b, k, l, 1.0 / d1, e, 0.5 * (s2 + s2.T)))

    @property
    def nbytes(self) -> int:
        """Bytes held by the factored sectors."""
        return sum(x.nbytes for sector in self._sectors for x in sector[2:])

    def __call__(self, r1: np.ndarray, r2: np.ndarray):
        """(y1, y2) = K^{-1} (r1, r2); r1[k, a] is first-pair mode k, parity a."""
        y1 = np.zeros_like(r1)
        y2 = np.zeros_like(r2)
        for a, b, k, l, d1_inv, e, s2_inv in self._sectors:
            f1, f2 = r1[k, a], r2[l, b]
            x2 = s2_inv @ (f2 - e.T @ f1)
            y1[k, a] = d1_inv * f1 - e @ x2
            y2[l, b] = x2
        return y1, y2


def _capacitance_sectors(n: int, shift: float):
    """Closed-form capacitance matrix K of the no-slip walls, by parity sector.

    The no-slip operator is the free-slip one (tangential ghost +u) plus
    2/h^2 on the m = 4(n-1) wall-adjacent tangential faces.  In the type-I
    sine modes along each wall, K = (h^2/2) I + U^T A_fs^{-1} U
    - U^T G [L (L + shift)]^+ G^T U, L = -Delta_N, has, with
    D_kl = (mu_k + mu_l)(mu_k + mu_l + shift):

    * u1-u1 and u2-u2 blocks diagonal per wall mode, entry
      (h^2/2) + sum_l mu_l w_l^2 / D_kl;
    * a dense u1-u2 block, entry -sqrt(mu_k mu_l) w_k w_l / D_kl,

    where w_l = sqrt(2) psi_l(0) is the weight of cosine mode l on the even
    (bottom + top, left + right) or odd (bottom - top, ...) wall pair; since
    psi_l(n-1) = (-1)^l psi_l(0), even pairs see only even l.  These are the
    sectors of :func:`_parity_sectors` with the u1 pair first, weights
    sqrt(mu) w and the sine modes 1..n-1.

    A shift that zeroes a factor mu_k + mu_l + shift, (k, l) != (0, 0),
    raises ValueError.

    Returns mu (the 1-D eigenvalues (2 - 2 cos(k pi/n))/h^2), w (n, 2) with
    column a the weights of parity a, and the sectors.
    """
    h = 1.0 / n
    modes = np.arange(n)
    mu = (2.0 - 2.0 * np.cos(modes * np.pi / n)) / h ** 2
    psi0 = np.sqrt(2.0 / n) * np.cos(modes * np.pi / (2 * n))
    psi0[0] = np.sqrt(1.0 / n)
    w = np.zeros((n, 2))
    w[modes, modes % 2] = np.sqrt(2.0) * psi0
    inv_lam = _neumann_inverse(mu)
    # 1 / D = inv_lam / (mu_k + mu_l + shift), built in place: the n^2
    # temporaries set the peak memory of the build.  The constant mode
    # (0, 0) is the kernel of L and is never inverted
    inv_d = mu[:, None] + mu[None, :] + shift
    inv_d[0, 0] = 1.0
    if not inv_d.all():
        raise ValueError(
            f"shift {shift!r} makes the pressure Schur complement singular")
    np.divide(inv_lam, inv_d, out=inv_d)
    sectors = _parity_sectors(inv_d, np.sqrt(mu)[:, None] * w, modes[1:],
                              0.5 * h * h, -1.0)
    return mu, w, sectors


class SchurInverse:
    """Exact inverse of the pressure Schur complement S = -D (A + shift)^{-1} G.

    A is the no-slip velocity Laplacian.  With free-slip walls the velocity
    operator commutes with the gradient, so that Schur complement is
    L (L + shift)^{-1}, L = -Delta_N, whose inverse on zero-mean fields is
    the Cahouet-Chabard map CC = I + shift L^+.  No slip adds a rank-m
    diagonal on the wall faces, and two Woodbury steps give

        S^{-1} = CC + B0^T K^{-1} B0,   B0 = U^T G L^+,

    with K the capacitance matrix of :func:`_capacitance_sectors`.  L is
    diagonal in the 2-D type-II cosine modes, and the wall values of G q are
    sums of those modes weighted by w, so an application takes one forward
    and one inverse 2-D transform; K^{-1} is applied per sector by
    :class:`_SectorInverse`.  The result has zero mean.
    """

    def __init__(self, n: int, shift: float):
        self.shift = shift
        self._mu, self._w, sectors = _capacitance_sectors(n, shift)
        self._k_inv = _SectorInverse(sectors)
        self._root_mu = np.sqrt(self._mu)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached arrays."""
        arrays = [self._mu, self._w, self._root_mu]
        return sum(a.nbytes for a in arrays) + self._k_inv.nbytes

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r_hat = dctn(r, type=2, norm="ortho")
        r_hat[0, 0] = 0.0
        # rebuilt per call: cheaper than holding another n^2 array in the cache
        inv_lam = _neumann_inverse(self._mu)
        q_hat = r_hat * inv_lam
        # B0 r: wall values of -G q, q = L^+ r, per wall pair and sine mode
        e1 = self._root_mu[:, None] * (q_hat @ self._w)
        e2 = self._root_mu[:, None] * (q_hat.T @ self._w)
        y1, y2 = self._k_inv(e1, e2)
        # B0^T y = L^+ G^T U y, added to CC r = r + shift q; in place, since
        # the n^2 temporaries set the peak memory of a solve
        y1 *= self._root_mu[:, None]
        y2 *= self._root_mu[:, None]
        z_hat = y1 @ self._w.T
        z_hat += self._w @ y2.T
        z_hat *= inv_lam
        q_hat *= self.shift
        z_hat += q_hat
        z_hat += r_hat
        return idctn(z_hat, type=2, norm="ortho", overwrite_x=True)


@lru_cache(maxsize=8)
def saddle_inverses(grid: StaggeredGrid, shift: float = 0.0):
    """(VelocityPoisson, SchurInverse) for ``grid`` and ``shift``, cached.

    Both builds are closed-form (no solve) and together hold about 4 n^2
    floats; the cache keeps the last few (n, shift) pairs.  The Poisson
    denominators are built first: a non-finite shift, or one at which either
    inverse is singular, raises ValueError, and nothing is cached.
    """
    shift = float(shift)
    return VelocityPoisson(grid, shift), SchurInverse(grid.n, shift)
