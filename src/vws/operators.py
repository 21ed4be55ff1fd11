"""Discrete operators on the MAC grid: Laplacian, divergence, gradient, solvers.

The velocity Laplacian A acts on interior faces and takes no data.  Boundary
data g, a :class:`vws.boundary.BoundaryData` of midpoint samples, enter its
load L g alone, two ways: normal components sit on boundary faces (a plain
Dirichlet neighbor), tangential ones through ghost-cell reflection

    u_ghost = 2 g - u_interior

at the interior face abscissae, where 2 g is the sum of the two adjacent
midpoint samples.  This keeps the eliminated operator symmetric (the
elimination only adds +1/h^2 to the diagonal) and moves 2 g / h^2 into the
load vector.  Where each side's values sit on the face arrays is read from
:data:`vws.boundary.AXIS` and :func:`vws.boundary.wall`, which every
per-side stencil of the package shares.

There is one divergence and one gradient.  :func:`cell_divergence` takes the
full face arrays, so prescribed wall faces count in it like any other face;
:func:`face_gradient` gives the interior faces of the gradient, whose wall
faces are zero.  :func:`divergence` and :func:`gradient` wrap them for the
field types.  They are exact adjoints of each other under the natural
Euclidean pairing: <grad p, w> = -<p, div w> for any w vanishing on boundary
faces, with no quadrature fudge factors.

The saddle problem is solved exactly in one basis (:class:`SaddleInverse`),
where the gradient, the divergence and the free-slip velocity Laplacian are
diagonal; the no-slip walls and the pressure Schur complement are closed-form
capacitance corrections.  The free-slip inverse passes through D and G, D
A_fs^{-1} = (L + shift)^{-1} D and A_fs^{-1} G = G (L + shift)^{-1} with L
= -D G, so a saddle solve takes one wall correction, not one per velocity
inverse; the tables L^+ and 1/(L + shift) are built once per inverse, and
every Schur solve, at any shift, reads them.  A velocity's modes are one
block, u1's and u2's each laid out as its faces (``components``), so no
stage passes over a transposed array.
Its ``forcing_modes``, the one reader of a forcing's form, brings a
forcing to the modes; its ``right_side`` builds and checks the part of g
in the right side of every solve and time step; its ``solve_modes``, the
one modal stage, runs every solve and time step in modes, leaving u's
interior modes in the right side's block; its ``to_cells``, the one cell
stage, brings k solves' velocities back, and checks every defect, in one
stacked inverse transform: k = 1 for a stationary solve, every step of a
time march at once; the duality adjoint takes its working set in one
block, which keeps glibc from trimming the heap between solves.
:func:`apply_velocity_laplacian`, A with no slip, the velocity inverse's
operator at shift 0, serves the residuals and pairings; tests pin the
velocity inverse against it.  :func:`saddle_inverses` caches
one solver per (grid, shift) and refuses a singular shift.  Every transform,
the clamped plate's too, is one in-place helper, :func:`_transform`: type-I
sine, type-II cosine or its inverse, along one axis or two in turn, one 1-D
pass per axis; below length 128 a product with a cached read-only
orthonormal basis per kind and length, a bounded chunk of a stack at a
time; from 128 on, scipy's call.

That capacitance matrix, and the clamped-plate one of :mod:`vws.biharmonic`,
couple two pairs of opposite walls through a diagonal 2-D spectral inverse,
so both split into four parity sectors with the same closed form, which one
class, :class:`_SectorInverse`, builds and inverts by block elimination; a
call runs all four sectors at once as zero-padded stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct, dst, idct

from .boundary import AXIS, SIDES, BoundaryData, _pair_sum, wall
from .errors import IncompatibleBoundaryData, NonConvergence
from .grid import (PressureField, StaggeredGrid, VelocityField,
                   _require_interior, require_same_grid)

__all__ = [
    "DIV_TOL",
    "apply_velocity_laplacian",
    "laplacian_load",
    "cell_divergence",
    "divergence",
    "face_gradient",
    "gradient",
    "stream_curl",
    "SaddleInverse",
    "saddle_inverses",
]

# the largest divergence defect a saddle solve may return, relative to the data
DIV_TOL = 1e-8


def defect_miss(div_max: float, scale: float) -> str | None:
    """Why a solve's divergence defect div_max is not at most DIV_TOL times
    its data scale, which must be finite (a NaN defect misses); else None."""
    if not div_max <= DIV_TOL * scale < np.inf:
        return (f"saddle solve: divergence defect {div_max:.3e} above "
                f"{DIV_TOL:.1e} of the data scale {scale:.3e}")


def _require_finite(name: str, a, shape: tuple) -> None:
    if np.shape(a) != shape or not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite values or a shape other than {shape}")


# per kind of :func:`_transform`: scipy's transform, its type, the inverse kind
_KINDS = {"dst": (dst, 1, "dst"), "dct": (dct, 2, "idct"), "idct": (idct, 2, "dct")}


@lru_cache(maxsize=16)
def _basis(kind: str, m: int) -> np.ndarray:
    """The read-only orthonormal basis T of a kind and length m, T @ v the
    transform of v; T.T is the inverse kind's basis."""
    transform, t, _ = _KINDS[kind]
    basis = transform(np.eye(m), type=t, axis=0, norm="ortho")
    if kind == "dst":
        basis = 0.5 * (basis + basis.T)   # exactly symmetric, as its inverse
    basis.flags.writeable = False
    return basis


def _transform(x: np.ndarray, kind: str, axes) -> np.ndarray:
    """x <- its orthonormal transform of a kind along axis -1 or -2, or each
    of a tuple of them in turn, in place: "dst" the type-I sine transform,
    its own inverse, "dct" the type-II cosine transform and "idct" its
    inverse.  A cached basis product up to length 127, scipy's beyond."""
    transform, t, inverse = _KINDS[kind]
    for axis in (axes,) if isinstance(axes, int) else axes:
        m = x.shape[axis]
        if m >= 128:   # shorter, a product costs less than pocketfft's call
            y = transform(x, type=t, axis=axis, norm="ortho", overwrite_x=True)
            if not np.shares_memory(y, x):
                x[...] = y
            continue
        # from the right, x T.T: the inverse kind's basis, which is contiguous
        basis = _basis(kind if axis == -2 else inverse, m)
        # matmul copies an input it overwrites: a stack goes 2**15 floats at a time
        step = len(x) if x.ndim < 3 else max(1, 2 ** 15 // x[0].size)
        for s in (x[a:a + step] for a in range(0, len(x), step)):
            np.matmul(*((s, basis) if axis == -1 else (basis, s)), out=s)
    return x


def laplacian_load(grid: StaggeredGrid, g: BoundaryData, out=None):
    """Boundary contribution to the right-hand side of A u = b.

    Returns interior-shaped arrays (b1, b2): the normal samples of g, which
    sit on the wall faces, are Dirichlet neighbors and contribute g/h^2;
    eliminated tangential ghosts contribute 2 g/h^2, with 2 g at an interior
    face abscissa the sum of the two adjacent midpoint samples.  Given out,
    a pair of interior-shaped arrays, the load is added to them in place.
    """
    n = grid.n
    ih2 = 1.0 / grid.h ** 2
    if out is None:
        out = np.zeros((n - 1, n)), np.zeros((n, n - 1))
    for side in SIDES:
        a, s = AXIS[side], g.samples[side]
        wall(out[a], side)[...] += s[:, a] * ih2
        wall(out[1 - a], side)[...] += _pair_sum(s[:, 1 - a]) * ih2
    return out


def apply_velocity_laplacian(grid: StaggeredGrid, u1, u2):
    """The matrix A: -Laplacian u at the interior faces, with no slip.

    u1 (n-1, n) and u2 (n, n-1) are interior-shaped; the wall faces count
    as zero and the tangential ghosts as -u.  Returns interior-shaped
    arrays; other shapes raise ValueError.  Boundary data enter a right side
    only through :func:`laplacian_load`, as b in A u = b.
    """
    n, h = grid.n, grid.h
    _require_interior(n, u1, u2)
    ih2 = 1.0 / h ** 2
    r = []
    for t, u in enumerate((u1, u2)):
        # u padded with its wall faces and a ghost line beyond each wall it
        # runs along, so that its interior faces are up[1:-1, 1:-1]
        up = np.zeros((n + 1 + t, n + 2 - t))
        up[1:-1, 1:-1] = u
        for side in SIDES:
            if AXIS[side] != t:
                wall(up, side)[1:-1] = -wall(u, side)
        # (4 c - x- - x+ - y- - y+) / h^2, summed in place in this order;
        # another order changes the rounding of every residual and pairing
        # built on it
        rt = 4.0 * up[1:-1, 1:-1]
        for nb in (up[:-2, 1:-1], up[2:, 1:-1], up[1:-1, :-2], up[1:-1, 2:]):
            rt -= nb
        rt *= ih2
        r.append(rt)
    return tuple(r)


def cell_divergence(u1: np.ndarray, u2: np.ndarray, h: float,
                    out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Cell divergence of full face arrays, boundary faces included.

    (u1[i+1] - u1[i]) / h + (u2[j+1] - u2[j]) / h over the last two axes,
    written to out when given; scratch, a cell-shaped array, then spares
    the one temporary.
    """
    d = np.subtract(u1[..., 1:, :], u1[..., :-1, :], out=out)
    d += np.subtract(u2[..., 1:], u2[..., :-1], out=scratch)
    d /= h
    return d


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
    """Conjugate gradients for SPD systems; kept, unexported, with its
    CGResult, because ``perfbench/`` names them: no solve calls or reads them.

    A may be anything with matrix-vector product via ``A @ x`` or a callable.
    The iteration starts from zero.  The stopping rule is on the true
    residual ||b - A x|| <= rel_tol ||b||, checked whenever the recursive
    residual passes the target or stops improving.  Raises NonConvergence
    carrying the best iterate seen and its true residual when the iteration
    cap is hit, or at once when a true-residual check fails without
    improving on the previous one (rel_tol below the system's rounding floor).
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


class _SectorInverse:
    """K^{-1} for a closed-form wall capacitance matrix K, by parity sector.

    Both capacitance matrices here (the no-slip pressure correction of
    :class:`SaddleInverse` and the clamped plate of :mod:`vws.biharmonic`)
    couple a first and a second pair of opposite walls through a 2-D
    spectral inverse ``inv_d``, in the sine modes ``modes`` along the walls.
    A wall pair is taken as the even (sum) or odd (difference) combination
    of its two walls; ``weight[:, a]`` is the weight of each mode normal to
    the walls on the pair of parity a, and a mode has parity ``mode % 2``.

    * Each pair's block is diagonal per mode k:
      delta + sum_l weight_la^2 inv_d[k, l].
    * The coupling of first-pair mode k and second-pair mode l is dense:
      sign weight_kb weight_la inv_d[k, l].

    The coupling is nonzero only for first-pair modes k of parity b and
    second-pair modes l of parity a, so K splits into four sectors (a, b),
    each with diagonals D1, D2 and a coupling block C.  Each sector is
    inverted by block elimination of D1; the inverse of the dense Schur
    complement D2 - C^T D1^{-1} C is stored.  The sectors are zero-padded to
    one size and stacked, so a call is one gather per input, three batched
    products and one scatter per output.  Sector (a, b) reads and writes the
    raveled (r1, r2) entries 2k + a and 2l + b.  A padded entry, index -1,
    reads the last input entry, which the zero-padded tables multiply by
    zero, and writes a slot past the output; rows in no sector read zero.
    """

    def __init__(self, inv_d: np.ndarray, weight: np.ndarray,
                 modes: np.ndarray, delta: float, sign: float):
        by_parity = [modes[modes % 2 == a] for a in (0, 1)]
        p = max(map(len, by_parity))
        self._i1, self._i2 = np.full((4, p), -1), np.full((4, p), -1)
        self._d1_inv, self._e = np.zeros((4, p)), np.zeros((4, p, p))
        self._s2_inv = np.zeros((4, p, p))
        for j in range(4):
            a, b = divmod(j, 2)
            k, l = by_parity[b], by_parity[a]
            d1 = delta + inv_d[k] @ weight[:, a] ** 2
            d2 = delta + weight[:, b] ** 2 @ inv_d[:, l]
            c = sign * np.outer(weight[k, b], weight[l, a])
            c *= inv_d[np.ix_(k, l)]
            e = c / d1[:, None]
            s2 = np.linalg.inv(np.diag(d2) - c.T @ e)
            self._i1[j, :len(k)], self._i2[j, :len(l)] = 2 * k + a, 2 * l + b
            self._d1_inv[j, :len(k)] = 1.0 / d1
            self._e[j, :len(k), :len(l)] = e
            self._s2_inv[j, :len(l), :len(l)] = 0.5 * (s2 + s2.T)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stacked sectors and their index maps."""
        return sum(x.nbytes for x in vars(self).values())

    def __call__(self, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
        """(y1, y2) = K^{-1} (r1, r2), stacked; r1[k, a] is first-pair mode k,
        parity a.  r1 and r2, of one shape with two columns, are read, never
        written."""
        f1, f2 = r1.ravel()[self._i1], r2.ravel()[self._i2]
        # x2 = S2^{-1} (f2 - E^T f1), y1 = D1^{-1} f1 - E x2, per sector
        f2 -= np.matmul(f1[:, None], self._e)[:, 0]
        x2 = np.matmul(f2[:, None], self._s2_inv)
        f1 *= self._d1_inv
        f1 -= np.matmul(self._e, x2.swapaxes(1, 2))[..., 0]
        y = np.zeros((2, r1.size + 1))
        y[0, self._i1], y[1, self._i2] = f1, x2[:, 0]
        return y[:, :-1].reshape((2,) + r1.shape)


def _border_lines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first and last rows of a over the first and last columns of b, as
    rows, the columns' ends zeroed: the lines of :meth:`SaddleInverse.border_to_modes`."""
    lines = np.concatenate((a[[0, -1]], b[:, [0, -1]].T))
    lines[2:, [0, -1]] = 0.0
    return lines


class SaddleInverse:
    """Exact direct solve of the shifted saddle problem, in one basis.

    A velocity component takes type-I sine modes along its normal direction
    and type-II cosine modes along the other, each stored the way its faces
    lie: u1's (n - 1, n), sine along x, and u2's (n, n - 1), sine along y,
    two views (:meth:`components`) of one block of 2 (n - 1) n floats.  The
    pressure takes type-II cosine modes.  There, with mu_k = (2 - 2 cos(k
    pi/n))/h^2:

    * G and D = -G^T are diagonal, -sqrt(mu_k) and sqrt(mu_k) for the mode
      k normal to the face;
    * the free-slip velocity operator A_fs (tangential ghost +u) is diagonal,
      mu_k + mu_l + shift.  No slip adds 2/h^2 on the 4(n-1) wall-adjacent
      tangential faces U, so A^{-1} = A_fs^{-1} - A_fs^{-1} U C^{-1} U^T
      A_fs^{-1} (Woodbury), with C = (h^2/2) I + U^T A_fs^{-1} U diagonal
      per wall mode and parity;
    * S = -D A^{-1} G has the exact inverse CC + B0^T K^{-1} B0: CC = I +
      shift L^+, L = mu_k + mu_l, the Cahouet-Chabard map that inverts the
      free-slip complement, and B0 = U^T G L^+.  With D_kl = (mu_k +
      mu_l)(mu_k + mu_l + shift), the capacitance matrix K = (h^2/2) I +
      U^T A_fs^{-1} U - U^T G [L (L + shift)]^+ G^T U, L = -Delta_N, has in
      the sine modes along each wall u1-u1 and u2-u2 blocks diagonal per
      wall mode, entry (h^2/2) + sum_l mu_l w_l^2 / D_kl, and a dense u1-u2
      block, entry -sqrt(mu_k mu_l) w_k w_l / D_kl.  w_l = sqrt(2) psi_l(0)
      weighs cosine mode l on the even (bottom + top, left + right) or odd
      (bottom - top, ...) wall pair; since psi_l(n-1) = (-1)^l psi_l(0),
      even pairs see only even l.  This is the closed form of
      :class:`_SectorInverse`, which applies K^{-1}, with the u1 pair first,
      weights sqrt(mu) w and the sine modes 1..n-1.

    :meth:`solve_modes` runs p = S^{-1}(c - D A^{-1} b), u = A^{-1}(b - G p)
    in these modes, from the modes of b and c that :meth:`right_side`
    builds and checks, with one wall correction, since D A_fs^{-1} = (L +
    shift)^{-1} D and A_fs^{-1} G = G (L + shift)^{-1}; :meth:`to_cells`
    brings u to the cells, and
    :func:`vws.stokes.solve_saddle` runs the three in sequence.
    :meth:`solve_homogeneous_modes` is the modal stage alone for zero data,
    its defect checked in the modes, and
    :meth:`velocity_wall_lines` and :meth:`pressure_wall_lines` bring back
    only the lines by each wall.

    The build holds sqrt(mu), w (n, 2), column a the weights of parity a,
    K^{-1} and the (n, n) tables L^+ and 1/(L + shift), which every velocity
    and Schur solve reads; no solve forms L.  Neither table inverts the
    constant mode (0, 0), the kernel of L, which no face mode and no zero-mean
    pressure reads (0 in L^+, 1 in 1/(L + shift) at a nonzero shift), so at
    shift 0 they are one array.  A non-finite shift raises ValueError, as does
    one that zeroes a denominator of the velocity Laplacian (mu_k + nu_l +
    shift, k >= 1, nu_l = mu_l for l < n, 4/h^2 for l = n) or of the Schur
    complement (mu_k + mu_l + shift, (k, l) != (0, 0)).
    """

    def __init__(self, grid: StaggeredGrid, shift: float = 0.0):
        if not np.isfinite(shift):
            raise ValueError("shift has non-finite values")
        n, h = grid.n, grid.h
        self.grid, self.shift = grid, shift
        modes = np.arange(n)
        mu = (2.0 - 2.0 * np.cos(modes * np.pi / n)) / h ** 2
        nu = np.append(mu[1:], 4.0 / h ** 2)
        if not (mu[1:, None] + nu[None, :] + shift).all():
            raise ValueError(f"shift {shift!r} makes the velocity Laplacian singular")
        psi0 = np.sqrt(2.0 / n) * np.cos(modes * np.pi / (2 * n))
        psi0[0] = np.sqrt(1.0 / n)
        self._w = np.zeros((n, 2))
        self._w[modes, modes % 2] = np.sqrt(2.0) * psi0
        lam = mu[:, None] + mu[None, :]
        den = lam + shift
        den[0, 0] = 1.0
        if not den.all():
            raise ValueError(
                f"shift {shift!r} makes the pressure Schur complement singular")
        lam[0, 0] = np.inf
        self._lap_pinv = np.reciprocal(lam, out=lam)
        # _inv_den, A_fs^{-1}, is symmetric: rows 1.. serve u1's modes and
        # columns 1.. u2's
        self._inv_den = np.reciprocal(den) if shift else self._lap_pinv
        # 1 / D = L^+ / (L + shift), in place of the last n^2 temporary
        inv_d = np.divide(self._lap_pinv, den, out=den)
        self._root_mu = np.sqrt(mu)
        self._k_inv = _SectorInverse(inv_d, self._root_mu[:, None] * self._w,
                                     modes[1:], 0.5 * h * h, -1.0)
        self._c_inv = 1.0 / (0.5 * h * h + self._inv_den[1:] @ self._w ** 2)
        # the type-I sine modes of the unit vectors 0, 1, m - 2 and m - 1 of
        # length m = n - 1, and the type-II cosine ones of length n, as rows;
        # the first and last of each are the border's ends
        self._sin_lines = _transform(np.eye(n - 1)[[0, 1, -2, -1]], "dst", -1)
        self._cos_lines = _transform(np.eye(n)[[0, 1, -2, -1]], "dct", -1)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached arrays, a table shared at shift 0 once."""
        arrays = [self._w, self._root_mu, self._lap_pinv, self._inv_den,
                  self._c_inv, self._sin_lines, self._cos_lines]
        return sum({id(a): a.nbytes for a in arrays}.values()) + self._k_inv.nbytes

    def components(self, x: np.ndarray):
        """Views (x1, x2) of the interior faces or modes x of a velocity, a
        block of 2 (n - 1) n floats, or of a stack of such blocks: u1's
        (..., n - 1, n) and u2's (..., n, n - 1)."""
        n, lead = self.grid.n, x.shape[:-1]
        cut = (n - 1) * n
        return (x[..., :cut].reshape(lead + (n - 1, n)),
                x[..., cut:].reshape(lead + (n, n - 1)))

    def to_modes(self, x: np.ndarray) -> np.ndarray:
        """The modes of the interior faces x of a velocity, or of a stack of
        them (:meth:`components`), in place."""
        x1, x2 = self.components(x)
        _transform(_transform(x1, "dst", -2), "dct", -1)
        _transform(_transform(x2, "dst", -1), "dct", -2)
        return x

    def border_to_modes(self, x: np.ndarray) -> np.ndarray:
        """The modes of x, nonzero on its first and last lines only, in place.

        x is an (n, n) cell array (type-II cosine modes along both axes) or
        the interior faces of a velocity, a block of :meth:`components` (the
        modes of :meth:`to_modes`).  With r_0, r_1 the first and last rows of
        an (m, p) array and l_0, l_1 the inner parts of its first and last
        columns, x = e_0 r_0^T + e_{m-1} r_1^T + l_0 e_0^T + l_1 e_{p-1}^T,
        so its modes are one (m, 4) @ (4, p) product of 1-D transforms,
        [T e_0, T e_{m-1}, T l_0, T l_1] @ [C r_0; C r_1; C e_0; C e_{p-1}],
        with T the transform along the first axis and C along the second.
        The lines of one kind take one call: u1's rows and u2's columns are
        cosine lines of length n, u2's rows and u1's columns sine lines.
        """
        # T e_0 and T e_{m-1} of either kind are lines of the bases held for
        # the wall lines
        cos_ends, sin_ends = self._cos_lines[::3].T, self._sin_lines[::3].T
        if x.ndim == 2:
            lines = _transform(_border_lines(x, x), "dct", -1)
            parts = [(x, cos_ends, lines[2:], lines[:2], cos_ends)]
        else:
            x1, x2 = self.components(x)
            cos = _transform(_border_lines(x1, x2), "dct", -1)
            sin = _transform(_border_lines(x2, x1), "dst", -1)
            parts = [(x1, sin_ends, sin[2:], cos[:2], cos_ends),
                     (x2, cos_ends, cos[2:], sin[:2], sin_ends)]
        for y, first_ends, cols, rows, second_ends in parts:
            left, right = np.empty((len(y), 4)), np.empty((4, y.shape[1]))
            left[:, :2], left[:, 2:] = first_ends, cols.T
            right[:2], right[2:] = rows, second_ends.T
            np.matmul(left, right, out=y)
        return x

    def from_modes(self, x: np.ndarray):
        """Faces (x1, x2) of the modes x of a velocity, or of a stack of them,
        in place."""
        x1, x2 = self.components(x)
        return (_transform(_transform(x1, "idct", -1), "dst", -2),
                _transform(_transform(x2, "idct", -2), "dst", -1))

    def velocity_solve(self, x: np.ndarray) -> np.ndarray:
        """x <- A^{-1} x in place, for x the modes of one velocity."""
        x12 = self.components(x)
        self._free_slip_solve(*x12)
        self._wall_correct(*x12, np.empty(x.size // 2))
        return x

    def _free_slip_solve(self, x1: np.ndarray, x2: np.ndarray) -> None:
        """(x1, x2) <- A_fs^{-1} (x1, x2) in place, the modes of one
        velocity's components (:meth:`components`)."""
        x1 *= self._inv_den[1:]
        x2 *= self._inv_den[:, 1:]

    def _wall_sums(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """C^{-1} U^T x for x1 and x2 the modes of one velocity's components:
        u1's and u2's (n, 2), a row per sine mode along the walls (row 0
        zero) and a column per parity."""
        y = np.zeros((2, self.grid.n, 2))
        np.multiply(x1 @ self._w, self._c_inv, out=y[0, 1:])
        np.multiply(x2.T @ self._w, self._c_inv, out=y[1, 1:])
        return y

    def _wall_correct(self, x1: np.ndarray, x2: np.ndarray, scratch) -> None:
        """(x1, x2) <- (I - A_fs^{-1} U C^{-1} U^T) (x1, x2) in place, which
        takes A_fs^{-1} b to A^{-1} b, along the cosine modes: axis -1 of u1,
        -2 of u2.  scratch, of (n - 1) n floats or more, is overwritten."""
        w, d = self._w, self._inv_den
        y1, y2 = self._wall_sums(x1, x2)
        t = scratch.reshape(-1)[:x1.size]
        t1 = np.matmul(y1[1:], w.T, out=t.reshape(x1.shape))
        t1 *= d[1:]
        x1 -= t1
        t2 = np.matmul(w, y2[1:].T, out=t.reshape(x2.shape))
        t2 *= d[:, 1:]
        x2 -= t2

    def _wall_divergence(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out <- D U y, y laid out as :meth:`_wall_sums`: one product
        [sqrt(mu) y1 | w] @ [w | sqrt(mu) y2]^T."""
        w, (y1, y2) = self._w, self._root_mu[:, None] * y
        return np.matmul(np.concatenate((y1, w), axis=1),
                         np.concatenate((w, y2), axis=1).T, out=out)

    def schur_solve(self, r: np.ndarray, out: np.ndarray,
                    q: np.ndarray) -> np.ndarray:
        """out <- S^{-1} r = r + L^+ (shift r + G^T U K^{-1} U^T G L^+ r) in
        the cosine modes, from the tables L^+ and 1/(L + shift) the build
        holds; r (n, n) has its mean (mode (0, 0)) dropped in place, q (n,
        n) is overwritten with shift L^+ r, and the result has zero mean.
        """
        w, root_mu = self._w, self._root_mu[:, None]
        r[0, 0] = 0.0
        q = np.multiply(r, self._lap_pinv, out=q)
        # B0 r, the wall values of -G q, per wall pair and sine mode, and
        # B0^T K^{-1} B0 r = L^+ G^T U K^{-1} B0 r; CC r = r + shift q
        self._wall_divergence(self._k_inv(root_mu * (q @ w), root_mu * (q.T @ w)),
                              out=out)
        out *= self._lap_pinv
        out += r
        q *= self.shift
        out += q
        return out

    def forcing_modes(self, f, out=None) -> np.ndarray:
        """The interior modes of a forcing f, a velocity or an interior pair
        (f1, f2): the one reader of a forcing's form.

        A velocity that keeps its modes (:attr:`vws.grid.VelocityField.modes`)
        is returned as it is (read, never written, no transform); any other
        velocity or pair is written to out, a block of 2 (n - 1) n floats
        (:meth:`components`, allocated when not given), and transformed
        once; the modes returned need not be out itself.  A velocity on
        another grid, or misshapen or non-finite faces, raise ValueError.
        """
        if isinstance(f, VelocityField):
            require_same_grid(self.grid, f)
            if f.modes is not None:
                return f.modes
            f = f.interior()
        n = self.grid.n
        x = np.empty(2 * (n - 1) * n) if out is None else out
        for fk, xk in zip(f, self.components(x), strict=True):
            _require_finite("forcing", fk, xk.shape)
            xk[...] = fk
        return self.to_modes(x)

    def right_side(self, g: BoundaryData, out=None):
        """The modes (b_hat, c_hat) of g's part of the right side of
        A u + G p = b, D u = 0, and its data scale c_max = max|c|.

        b is the load of g, to which a caller adds its forcing's modes
        (:meth:`forcing_modes`); c is minus the wall fluxes (g . n)/h.  Data
        whose net flux h sum g . n exceeds 1e-12 of h sum |g . n| raise
        IncompatibleBoundaryData.  Both live on border lines and take the
        closed form of :meth:`border_to_modes`, a zero c none; c is built,
        checked and read on its 4n - 4 border cells.  out, a block
        of 2 (n - 1) n floats, receives b_hat; one is allocated when not
        given.
        """
        n, h = self.grid.n, self.grid.h
        b = np.empty(2 * (n - 1) * n) if out is None else out
        b.fill(0.0)
        laplacian_load(self.grid, g, out=self.components(b))
        self.border_to_modes(b)
        c = np.zeros((n, n))
        border = (c[0], c[-1], c[1:-1, 0], c[1:-1, -1])
        # the wall fluxes reach the border cells only; the u1 walls go first,
        # so that a corner cell adds its two fluxes in one fixed order
        scale = 0.0
        for side in sorted(SIDES, key=AXIS.get):
            flux = g.normal_part(side)
            wall(c, side)[...] -= flux / h
            scale += float(np.abs(flux).sum())
        cells = np.concatenate(border)
        # h^2 sum c is minus the net flux h sum g . n
        net = -h * h * float(cells.sum())
        if abs(net) > 1e-12 * (h * scale):
            raise IncompatibleBoundaryData(
                f"net boundary flux is {net:.3e}; project the data first")
        c_max = max(float(cells.max()), -float(cells.min()))
        if c_max > 0.0:
            self.border_to_modes(c)
        return b, c, c_max

    def solve_homogeneous_modes(self, f_hat: np.ndarray):
        """The saddle solve with zero data forced by the modes f_hat
        (:meth:`forcing_modes`), left in the modes: :meth:`solve_modes` of
        b = f and c = 0, with no right side built, and the defect check of
        every solve.  D is diagonal in the modes and the wall faces are zero,
        so the defect max|D v| takes one inverse transform of D v's modes,
        and none of v.  v, work, c and p are one block (3.14 MB at n = 256):
        freeing it lifts glibc's trim threshold to twice that, so repeated
        solves stop handing the heap top back and faulting it in again.

        Returns (v_hat, p_hat, div_max): the velocity's interior modes, a
        block of :meth:`components`, the pressure's cosine modes and the
        defect.  A miss raises NonConvergence carrying the cell pressure and
        the defect.
        """
        n = self.grid.n
        size = 2 * (n - 1) * n
        block = np.empty(2 * size + 2 * n * n)
        v_hat, work = block[:2 * size].reshape(2, size)
        c_hat, p = block[2 * size:].reshape(2, n, n)
        v_hat[...] = f_hat
        c_hat.fill(0.0)
        p, scale, steps = self.solve_modes(v_hat, c_hat, 0.0, work, p)
        dv = _transform(self.divergence_modes(v_hat, out=c_hat, scratch=work),
                        "idct", (-1, -2))
        div_max = max(float(dv.max()), -float(dv.min()))
        _check_defect(div_max, scale, p, steps)
        return v_hat, p, div_max

    def divergence_modes(self, w_hat: np.ndarray, out=None,
                         scratch=None) -> np.ndarray:
        """The cosine modes of D w, for w the interior faces of the modes
        w_hat and zero wall faces: sqrt(mu_k) w1 + sqrt(mu_l) w2.

        out (n, n) receives them and scratch, of (n - 1) n floats or more, is
        overwritten; each is allocated when it is not given.
        """
        n = self.grid.n
        root_mu = self._root_mu[1:]
        w1, w2 = self.components(w_hat)
        dw = np.empty((n, n)) if out is None else out
        t = None if scratch is None else scratch.reshape(-1)[:w1.size].reshape(w1.shape)
        # u2's term first, so that u1's is added over contiguous rows; einsum
        # broadcasts in one pass, multiply row by row
        dw[:, 0] = 0.0
        np.einsum("kl,l->kl", w2, root_mu, out=dw[:, 1:])
        dw[1:] += np.einsum("k,kl->kl", root_mu, w1, out=t)
        return dw

    def velocity_wall_lines(self, v_hat: np.ndarray):
        """The lines by each wall of the velocity whose interior modes are
        v_hat, a block of :meth:`components`, with zero wall faces: (normal,
        tangential), each a pair indexed by the axis a across the walls.

        normal[a] is the component normal to those walls on its faces 0, 1,
        2, n - 2, n - 1 and n along axis a (u1 (6, n), u2 (n, 6)), and
        tangential[a] the other on its cells 0, 1, n - 2 and n - 1 along it
        (u2 (4, n + 1), u1 (n + 1, 4)), so that :func:`vws.boundary.wall`
        reads lines 0 to 2 and 0 to 1 in from each side.  Each line takes a
        basis product and a 1-D inverse transform.
        """
        n = self.grid.n
        v1, v2 = self.components(v_hat)
        # each line as a row, from a product that reads the other
        # component's modes transposed, and one transform per kind
        normal = np.zeros((2, 6, n))
        sin_rows, cos_rows = self._sin_lines, self._cos_lines
        normal[:, 1:5] = _transform(np.stack([sin_rows @ v1, sin_rows @ v2.T]),
                                    "idct", -1)
        tangential = np.zeros((2, 4, n + 1))
        tangential[:, :, 1:n] = _transform(np.stack([cos_rows @ v2, cos_rows @ v1.T]),
                                           "dst", -1)
        return (normal[0], normal[1].T), (tangential[0], tangential[1].T)

    def pressure_wall_lines(self, p_hat: np.ndarray):
        """The cells 0, 1, n - 2 and n - 1 along each axis of the pressure
        whose cosine modes are p_hat: rows (4, n) and columns (n, 4), from
        one basis product per axis and a 1-D inverse transform."""
        basis = self._cos_lines
        rows, cols = _transform(np.stack([basis @ p_hat, basis @ p_hat.T]),
                                "idct", -1)
        return rows, cols.T

    def solve_modes(self, b_hat: np.ndarray, c_hat: np.ndarray, c_max: float,
                    work: np.ndarray, out=None):
        """The modal stage of a saddle solve, from the modes of its right side.

        b_hat and c_hat are the modes of b and c (see :meth:`right_side`)
        and c_max = max|c|; b_hat is overwritten with the interior modes of
        u; c_hat and work, a row of a :meth:`cell_views` block (2 (n - 1) n
        floats do), are scratch; out (n, n), allocated when not given,
        receives p_hat.  Returns (p_hat, scale, steps): p's cosine modes, the
        data scale max(c_max, |D w|_2 / n), w = A^{-1} b, read from the modes
        of D w (by Parseval the cell RMS of D w, never more than max|D w|),
        and the pressure steps (0 for zero data, else 1).  With y = A_fs^{-1}
        b and Y its wall sums, D w = D y - (L + shift)^{-1} D U Y, and u is
        the wall correction of y - G (L + shift)^{-1} p.
        """
        n = self.grid.n
        p = np.empty((n, n)) if out is None else out
        t = work[:n * n].reshape(n, n)
        y = self.components(b_hat)
        self._free_slip_solve(*y)
        dw = self.divergence_modes(b_hat, out=p, scratch=work)
        dw -= np.multiply(self._wall_divergence(self._wall_sums(*y), out=t),
                          self._inv_den, out=t)
        scale = max(c_max, float(np.linalg.norm(dw)) / n)
        c = c_hat
        c -= dw
        c[0, 0] = 0.0
        # one exact pressure step, none for zero data
        steps = int(c.any())
        self.schur_solve(c, p, t)
        # -G q = sqrt(mu) q on each component's normal modes, q in the free c
        q, root_mu = np.multiply(p, self._inv_den, out=c), self._root_mu[1:]
        g = work[:b_hat.size]
        g1, g2 = self.components(g)
        np.einsum("k,kl->kl", root_mu, q[1:], out=g1)
        np.einsum("kl,l->kl", q[:, 1:], root_mu, out=g2)
        b_hat += g
        self._wall_correct(*y, work)
        return p, scale, steps

    def cell_views(self, u12: np.ndarray):
        """Views (x, u1, u2) of a (k, 2 n (n + 1)) block, one velocity a row:
        its modes x (k, 2 (n - 1) n) at offset n, so that u1's interior modes
        lie over its interior faces, and its faces u1 and u2."""
        n, k, half = self.grid.n, len(u12), self.grid.n * (self.grid.n + 1)
        return (u12[:, n:n + 2 * (n - 1) * n],
                u12[:, :half].reshape(k, n + 1, n), u12[:, half:].reshape(k, n, n + 1))

    def to_cells(self, u12: np.ndarray, g: BoundaryData | None, rho) -> np.ndarray:
        """The cell stage of k saddle solves: the velocities in the modes x
        of a block of :meth:`cell_views` brought to its faces by one stacked
        inverse transform, with rho[i] times g's normal samples, or zero for
        g None, on row i's wall faces.  Returns the k defects max|D u|, taken
        a bounded chunk of rows at a time.
        """
        n, h, k = self.grid.n, self.grid.h, len(u12)
        x, u1, u2 = self.cell_views(u12)
        _, x2 = self.from_modes(x)
        rows = max(1, min(k, 2 ** 15 // (n * n)))   # at most 256 kB a buffer
        buf = np.empty((rows, n, n)), np.empty((rows, n, n))
        defects = np.empty(k)
        for a in range(0, k, rows):
            s = slice(a, min(a + rows, k))
            d, t = (b[:s.stop - a] for b in buf)
            # u2 came back over the modes' second half, which it overlaps
            np.copyto(t[:, :, :n - 1], x2[s])
            u2[s, :, 1:n] = t[:, :, :n - 1]
            for side, ax in AXIS.items():
                wall((u1, u2)[ax][s], side)[...] = 0.0 if g is None else (
                    np.multiply.outer(rho[s], g.samples[side][:, ax]))
            cell_divergence(u1[s], u2[s], h, out=d, scratch=t)
            np.maximum(d.max(axis=(1, 2)), -d.min(axis=(1, 2)), out=defects[s])
        return defects


def _check_defect(div_max: float, scale: float, p_hat: np.ndarray,
                  steps: int) -> None:
    # a defect miss (defect_miss) raises NonConvergence with the cell pressure
    if why := defect_miss(div_max, scale):
        raise NonConvergence(why, best_x=_transform(p_hat.copy(), "idct", (-1, -2)),
                             residual=div_max, iterations=steps)


class VelocityPoisson:
    """Exact solve of (-Laplacian + shift) on interior velocity faces; kept,
    unexported, because ``perfbench/`` names it: no solve calls or reads it.

    A thin wrapper over the modal A^{-1} of :class:`SaddleInverse`, between
    one forward and one inverse transform.  A non-finite shift, or one at
    which the no-slip or the free-slip operator is singular, raises ValueError.
    """

    def __init__(self, grid: StaggeredGrid, shift: float = 0.0):
        self._inv = saddle_inverses(grid, shift)

    def solve(self, b1: np.ndarray, b2: np.ndarray):
        """Interior-face solution of interior-shaped right sides b1, b2 (kept);
        misshapen or non-finite ones raise ValueError."""
        inv = self._inv
        return inv.from_modes(inv.velocity_solve(inv.forcing_modes((b1, b2))))


@lru_cache(maxsize=8)
def saddle_inverses(grid: StaggeredGrid, shift: float = 0.0) -> SaddleInverse:
    """The :class:`SaddleInverse` of ``grid`` and ``shift``, cached.

    The build is closed-form (no solve) and holds about 3 n^2 floats, n^2
    more at a nonzero shift; the cache keeps the last few (n, shift) pairs.
    A non-finite shift, or one at which the velocity Laplacian or the Schur
    complement is singular, raises ValueError, and nothing is cached.
    """
    return SaddleInverse(grid, float(shift))
