import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct, dctn, dst, idct, idctn
from scipy.linalg import hilbert

from vws import operators
from vws.biharmonic import _clamped_plate_inverse, solve_biharmonic
from vws.boundary import (BoundaryData, cavity_g_eps, outward_normal_data,
                          rotation_data)
from vws.errors import NonConvergence
from vws.evolution import TimeBoundaryData, evolve
from vws.grid import PressureField, VelocityField, build_grid
from vws.operators import (
    SaddleInverse,
    VelocityPoisson,
    apply_velocity_laplacian,
    cell_divergence,
    cg_solve,
    divergence,
    face_gradient,
    gradient,
    saddle_inverses,
    stream_curl,
)
from vws.experiments.report import orders

from vws.stokes import solve_boundary, solve_saddle
from vws.transposition import transposition_identity

from support import (
    check_sector_inverse, dense_face_gradient, dense_velocity_laplacian,
    modules_binding, refuse,
)


def _random_interior(rng, n):
    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))
    u1[1:n, :] = rng.standard_normal((n - 1, n))
    u2[:, 1:n] = rng.standard_normal((n, n - 1))
    return u1, u2


_OPERANDS = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([5, 8, 16, 17]))
# the 1e-12 bounds are relative to an inner product that random operands can
# cancel: of seeds 0-4999 at each n, six self-adjointness draws and one
# duality draw miss them, so the drawn seeds are the same on every run
_DRAWS = settings(max_examples=25, deadline=None, derandomize=True)


@_DRAWS
@given(**_OPERANDS)
def test_laplacian_self_adjoint(seed, n):
    rng = np.random.default_rng(seed)
    grid = build_grid(n)
    u1, u2 = _random_interior(rng, n)
    v1, v2 = _random_interior(rng, n)
    Au1, Au2 = apply_velocity_laplacian(grid, u1[1:n, :], u2[:, 1:n])
    Av1, Av2 = apply_velocity_laplacian(grid, v1[1:n, :], v2[:, 1:n])
    lhs = (Au1 * v1[1:n, :]).sum() + (Au2 * v2[:, 1:n]).sum()
    rhs = (u1[1:n, :] * Av1).sum() + (u2[:, 1:n] * Av2).sum()
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_laplacian_positive():
    rng = np.random.default_rng(3)
    grid = build_grid(12)
    u1, u2 = _random_interior(rng, 12)
    Au1, Au2 = apply_velocity_laplacian(grid, u1[1:12, :], u2[:, 1:12])
    energy = (Au1 * u1[1:12, :]).sum() + (Au2 * u2[:, 1:12]).sum()
    assert energy > 0.0


def test_laplacian_truncation_order():
    # reflected ghosts make the wall-tangential rows second order too
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    lap = lambda x, y: 2.0 * np.pi ** 2 * f(x, y)
    errs = []
    for n in (32, 64):
        grid = build_grid(n)
        v = VelocityField.from_functions(grid, f, f)
        r1, r2 = apply_velocity_laplacian(grid, *v.interior())
        ex = VelocityField.from_functions(grid, lap, lap)
        errs.append(max(np.abs(r1 - ex.u1[1:n, :]).max(),
                        np.abs(r2 - ex.u2[:, 1:n]).max()))
    assert errs[0] == pytest.approx(1.583016e-02, rel=1e-3)
    assert orders(errs)[0] >= 1.9


@_DRAWS
@given(**_OPERANDS)
def test_div_grad_duality(seed, n):
    rng = np.random.default_rng(seed)
    grid = build_grid(n)
    u1, u2 = _random_interior(rng, n)
    vel = VelocityField(grid, u1, u2)
    p = PressureField(grid, rng.standard_normal((n, n))).zero_mean()
    gp = gradient(p)
    a = float((divergence(vel).p * p.p).sum()) * grid.h ** 2
    b = -float((vel.u1[1:n, :] * gp.u1[1:n, :]).sum()
               + (vel.u2[:, 1:n] * gp.u2[:, 1:n]).sum()) * grid.h ** 2
    assert abs(a - b) <= 1e-12 * abs(a)


@_DRAWS
@given(**_OPERANDS)
def test_stream_curl_divergence_free(seed, n):
    rng = np.random.default_rng(seed)
    grid = build_grid(n)
    psi = rng.standard_normal((n + 1, n + 1))
    vel = stream_curl(grid, psi)
    assert np.abs(divergence(vel).p).max() <= 1e-12
    # constant boundary rows of psi give zero normal faces
    psi2 = psi.copy()
    psi2[0, :] = psi2[-1, :] = psi2[:, 0] = psi2[:, -1] = 0.0
    vel2 = stream_curl(grid, psi2)
    assert np.abs(vel2.u1[0, :]).max() == 0.0
    assert np.abs(vel2.u2[:, -1]).max() == 0.0


def test_boundary_divergence_counts_flux():
    # wall faces count in the divergence like any other face
    n = 32
    grid = build_grid(n)
    g = outward_normal_data(grid)
    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))
    u1[0, :], u1[n, :] = g.samples["left"][:, 0], g.samples["right"][:, 0]
    u2[:, 0], u2[:, n] = g.samples["bottom"][:, 1], g.samples["top"][:, 1]
    total = grid.h ** 2 * divergence(VelocityField(grid, u1, u2)).p.sum()
    assert abs(total - 4.0) <= 1e-12


def test_cg_closed_form():
    A = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    b = np.array([1.0, 2.0, 3.0])
    res = cg_solve(lambda x: A @ x, b, rel_tol=1e-14)
    exact = np.array([5.0 / 28.0, 2.0 / 7.0, 19.0 / 28.0])
    assert np.abs(res.x - exact).max() <= 1e-12
    assert res.rel_residual <= 1e-13


def test_cg_matches_dense_solver():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((12, 12))
    S = M @ M.T + 12.0 * np.eye(12)
    b = rng.standard_normal(12)
    res = cg_solve(lambda x: S @ x, b, rel_tol=1e-14)
    ref = np.linalg.solve(S, b)
    assert np.abs(res.x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_cg_zero_rhs():
    res = cg_solve(lambda x: 2.0 * x, np.zeros(5))
    assert np.all(res.x == 0.0)
    assert res.iterations == 0


def test_cg_nonconvergence_raises():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((20, 20))
    S = M @ M.T + 0.1 * np.eye(20)
    b = rng.standard_normal(20)
    with pytest.raises(NonConvergence):
        cg_solve(lambda x: S @ x, b, rel_tol=1e-14, max_iter=2)


def test_cg_stall_below_rounding_floor_raises_early():
    # cond(hilbert(12)) ~ 1.7e16: a 1e-15 target lies below the floor of the
    # true residual, so the solve must give up long before max_iter
    H = hilbert(12)
    calls = [0]

    def matvec(x):
        calls[0] += 1
        return H @ x

    with pytest.raises(NonConvergence) as info:
        cg_solve(matvec, np.ones(12), rel_tol=1e-15, max_iter=100000)
    assert calls[0] <= 1000
    best = info.value.best_x
    assert info.value.residual == pytest.approx(
        np.linalg.norm(np.ones(12) - H @ best), rel=1e-12)


@pytest.mark.parametrize("shift", [0.0, 64.0, 4096.0])
def test_poisson_dst_matches_dense(shift):
    # the dense operator shares no code with the transforms
    rng = np.random.default_rng(21)
    n = 16
    grid = build_grid(n)
    f1 = rng.standard_normal((n - 1, n))
    f2 = rng.standard_normal((n, n - 1))
    keep1, keep2 = f1.copy(), f2.copy()
    w = VelocityPoisson(grid, shift).solve(f1, f2)
    # the transforms overwrite their input: it must be a private copy
    assert np.array_equal(f1, keep1) and np.array_equal(f2, keep2)
    w = np.concatenate([w[0].ravel(), w[1].ravel()])
    ref = np.linalg.solve(dense_velocity_laplacian(grid, shift),
                          np.concatenate([f1.ravel(), f2.ravel()]))
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [5, 8, 17, 129])
@pytest.mark.parametrize("shift", [0.0, 64.0])
def test_velocity_laplacian_undoes_the_velocity_solve(n, shift):
    # A x + shift x = b for x = A^{-1} b, past the dense test's n = 16: n = 5
    # and 17 are odd, and at n = 129 the solve runs scipy's transforms
    grid = build_grid(n)
    inv = saddle_inverses(grid, shift)
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n - 1, n)), rng.standard_normal((n, n - 1))
    x = inv.from_modes(inv.velocity_solve(inv.forcing_modes(b)))
    b_max = max(np.abs(bk).max() for bk in b)
    for ax, xk, bk in zip(apply_velocity_laplacian(grid, *x), x, b):
        assert np.abs(ax + shift * xk - bk).max() <= 1e-12 * b_max


def _schur_apply(inv, r):
    """S^{-1} r on the cells, through the solver's modal Schur inverse."""
    n = r.shape[0]
    out = inv.schur_solve(dctn(r, type=2, norm="ortho"), np.empty((n, n)),
                          np.empty((n, n)))
    return idctn(out, type=2, norm="ortho")


@pytest.mark.parametrize("n", [16, 48])
def test_neumann_laplacian_is_dct_diagonal(n):
    # the Schur inverse applies (-Delta_N)^+ as 1/(mu_k + mu_l) on the 2-D type-II
    # cosine modes; that holds when Delta_N is -divergence(gradient) with
    # boundary faces held at zero
    rng = np.random.default_rng(n)
    grid = build_grid(n)
    p = rng.standard_normal((n, n))
    p -= p.mean()
    r = -divergence(gradient(PressureField(grid, p))).p
    # the L^+ table the Schur inverse holds, at a shift where it is not the
    # free-slip table too, and at shift 0 where it is
    p_hat = dctn(p, type=2, norm="ortho")
    for shift in (64.0, 0.0):
        got = saddle_inverses(grid, shift)._lap_pinv * dctn(r, type=2, norm="ortho")
        assert np.linalg.norm(got - p_hat) <= 1e-12 * np.linalg.norm(p_hat)
    # constants are the kernel: the preconditioned residual keeps zero mean
    ones = np.ones((n, n))
    assert np.abs(_schur_apply(saddle_inverses(grid, 1e4), ones)).max() <= 1e-12


def _dense_schur(grid, shift):
    """S = -D (A + shift)^{-1} G, column by column through the DST solve."""
    n = grid.n
    poisson = VelocityPoisson(grid, shift=shift)
    cols = []
    for e in np.eye(n * n):
        g = gradient(PressureField(grid, e.reshape(n, n)))
        w = VelocityField.from_interior(grid, *poisson.solve(*g.interior()))
        cols.append(-divergence(w).p.ravel())
    return np.column_stack(cols)


@pytest.mark.parametrize("shift", [0.0, 64.0, 4096.0])
@pytest.mark.parametrize("n", [8, 9, 12])
def test_schur_inverse_is_exact(n, shift):
    grid = build_grid(n)
    S = _dense_schur(grid, shift)
    inv = saddle_inverses(grid, shift)
    MS = np.column_stack([_schur_apply(inv, col.reshape(n, n)).ravel()
                          for col in S.T])
    # identity on zero-mean fields, constants to zero
    want = np.eye(n * n) - 1.0 / (n * n)
    assert np.abs(MS - want).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([17, 64, 129]),
       shift=st.sampled_from([0.0, 64.0, 4096.0]))
def test_schur_complement_undoes_the_schur_inverse(seed, n, shift):
    # S S^{-1} r = r for zero-mean r, past the dense test's n = 12, with S =
    # -D A^{-1} G applied in the modes: the one Schur path at every shift,
    # at odd n and through scipy's transforms at n = 129
    inv = saddle_inverses(build_grid(n), shift)
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-6, 6)
    r[0, 0] = 0.0
    p = inv.schur_solve(r.copy(), np.empty((n, n)), np.empty((n, n)))
    s_p = -inv.divergence_modes(inv.velocity_solve(_gradient_modes(inv, p)))
    assert np.abs(s_p - r).max() <= 1e-13 * np.abs(r).max()


def _wall_modes(n):
    """Orthonormal wall-face basis in the order of the capacitance matrix.

    Columns run over (component u1, u2) x (pair parity 0, 1) x (sine mode
    1..n-1); rows are interior faces, u1 then u2.  Parity 0 is the sum of
    the two opposite walls, parity 1 their difference.
    """
    i = np.arange(1, n)
    cols = []
    for comp in (0, 1):
        for a in (0, 1):
            for k in range(1, n):
                phi = np.sqrt(2.0 / n) * np.sin(k * np.pi * i / n) / np.sqrt(2.0)
                u1 = np.zeros((n - 1, n))
                u2 = np.zeros((n, n - 1))
                if comp == 0:
                    u1[:, 0], u1[:, -1] = phi, (-1) ** a * phi
                else:
                    u2[0, :], u2[-1, :] = phi, (-1) ** a * phi
                cols.append(np.concatenate([u1.ravel(), u2.ravel()]))
    return np.column_stack(cols)


@pytest.mark.parametrize("shift", [0.0, 64.0, 4096.0])
@pytest.mark.parametrize("n", [8, 9, 12])
def test_capacitance_matrix_matches_probe(n, shift):
    grid, h = build_grid(n), 1.0 / n
    A = dense_velocity_laplacian(grid, shift)
    G = dense_face_gradient(grid)
    U = _wall_modes(n)
    A_fs = A - (2.0 / h ** 2) * U @ U.T
    L = G.T @ G
    # free slip commutes with the gradient
    A_fs_G = A_fs @ G
    gap = np.abs(A_fs_G - G @ (L + shift * np.eye(n * n))).max()
    assert gap <= 1e-12 * np.abs(A_fs_G).max()
    K_probe = (0.5 * h * h * np.eye(U.shape[1]) + U.T @ np.linalg.solve(A_fs, U)
               - U.T @ G @ np.linalg.pinv(L @ (L + shift * np.eye(n * n))) @ G.T @ U)

    # the closed form, through the stacked, padded inverse that every Schur
    # solve applies; mode 0 lies in no sector
    check_sector_inverse(SaddleInverse(grid, shift)._k_inv, K_probe,
                         first_mode=1)


# the solve under test, the shift of the saddle inverse it reads (None for
# the clamped plate) and its error; measured at n = 64 under the
# perturbation below: defects 5.9e-3, 1.6e-5 and 1.1e-2, and a plate
# residual of 1.05e4 against a bound of 1e-12 x 9.75e7
_K_CHECKS = {
    "solve_boundary": (lambda grid, g, u: solve_boundary(grid, g), 0.0,
                       "divergence defect"),
    "transposition_adjoint": (
        lambda grid, g, u: transposition_identity(grid, g, u=u), 0.0,
        "divergence defect"),
    "evolve_cn": (
        lambda grid, g, u: evolve(grid, TimeBoundaryData.constant(g), 0.25,
                                  0.125, scheme="cn"),
        2.0 / 0.125, "forward step 1/2 .*divergence defect"),
    "solve_biharmonic": (lambda grid, g, u: solve_biharmonic(grid, g), None,
                         "clamped plate"),
}


@pytest.mark.parametrize("case", sorted(_K_CHECKS))
def test_perturbed_capacitance_inverse_raises(monkeypatch, case):
    # K^{-1} off by 0.1% on the cached inverse that the solve reads: the
    # solve's own check must see it, not return a wrong answer
    call, shift, message = _K_CHECKS[case]
    grid = build_grid(64)
    g = cavity_g_eps(grid, 0.125)
    u = solve_boundary(grid, g).velocity
    inv = (_clamped_plate_inverse(grid) if shift is None
           else saddle_inverses(grid, shift))
    k_inv = inv._k_inv
    monkeypatch.setattr(inv, "_k_inv", lambda r1, r2: 1.001 * k_inv(r1, r2))
    with pytest.raises(NonConvergence, match=message):
        call(grid, g, u)


def test_schur_inverse_is_small_cached_and_untraced(monkeypatch):
    # the build is closed-form: it must not run the velocity solve, the
    # Laplacian apply or CG, whose calls the benchmark tracer counts per op
    why = "builder called a solver entry point"
    refuse(monkeypatch, VelocityPoisson, "solve", why)
    refuse(monkeypatch, SaddleInverse, "solve_modes", why)
    refuse(monkeypatch, operators, ("apply_velocity_laplacian", "cg_solve"), why)
    # the Schur sectors plus one n^2 array, at shift 0 both L^+ and the
    # free-slip table 1/(L + shift), counted once; no workspace is cached
    saddle_inverses.cache_clear()
    inv = saddle_inverses(build_grid(256), 0.0)
    assert inv._lap_pinv is inv._inv_den
    assert inv.nbytes == 1_611_728 <= 1_700_000
    # a shifted inverse holds the two tables apart: n^2 floats more
    shifted = saddle_inverses(build_grid(256), 64.0)
    assert shifted._lap_pinv is not shifted._inv_den
    assert shifted.nbytes == inv.nbytes + 8 * 256 ** 2
    grid = build_grid(32)
    assert saddle_inverses(grid, 64.0) is saddle_inverses(build_grid(32), 64)


def _border_only(rng, shape):
    x = rng.standard_normal(shape)
    x[..., 1:-1, 1:-1] = 0.0
    return x


@pytest.mark.parametrize("n", [4, 5, 8, 33, 64])
def test_border_closed_forms_match_2d_transforms(n):
    # random arrays nonzero on their first and last lines only: the cells
    # of c against dctn, the faces of b, each component in its own layout,
    # against to_modes
    inv = saddle_inverses(build_grid(n), 0.0)
    rng = np.random.default_rng(n)
    cells = _border_only(rng, (n, n))
    faces = np.concatenate([_border_only(rng, (n - 1, n)).ravel(),
                            _border_only(rng, (n, n - 1)).ravel()])
    for x in (cells, faces):
        want = inv.to_modes(x.copy()) if x.ndim == 1 else dctn(x, type=2, norm="ortho")
        got = inv.border_to_modes(x)
        assert got is x
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


_INVERSE = {"dst": "dst", "dct": "idct", "idct": "dct"}
_SCIPY = {"dst": (dst, 1), "dct": (dct, 2), "idct": (idct, 2)}


@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("m", [2, 15, 63, 64, 95, 96, 112, 127, 128])
def test_sine_transform_is_scipys_in_place(m, axis):
    # for every kind of the transform helper, the basis product (m up to
    # 127) and scipy's transform (m = 128) are scipy's orthonormal transform,
    # written over their input, and the inverse kind brings it back; the
    # cached bases are read-only.  A product and scipy round differently:
    # over 40 random stacks per kind, lengths 2 to 127 and both axes, they
    # differ by at most 1.4e-15 of max|x| (type-II cosine)
    rng = np.random.default_rng(m)
    x = rng.standard_normal((3, 2, m, 5) if axis == -2 else (3, 5, m))
    for kind, inverse in _INVERSE.items():
        transform, t = _SCIPY[kind]
        want = transform(x, type=t, axis=axis, norm="ortho")
        y = x.copy()
        got = operators._transform(y, kind, axis)
        assert got is y and np.shares_memory(got, y)
        assert np.abs(got - want).max() <= 2e-15 * np.abs(x).max()
        assert np.abs(operators._transform(got, inverse, axis) - x).max() <= 1e-14
        assert not operators._basis(kind, m).flags.writeable


@pytest.mark.parametrize("m", [95, 96, 97, 112, 127, 128])
def test_every_kind_takes_the_product_below_length_128(m):
    # one crossover for all three kinds, bit for bit a product up to length
    # 127 and scipy's call from 128: at lengths 96-127 scipy's cosine passes
    # win by up to 1.8x only at lengths with small prime factors (108, 112,
    # 120), and run 2-7x slower at primes and twice primes (97, 106, 127)
    x = np.random.default_rng(m).standard_normal((3, m))
    for kind, inverse in _INVERSE.items():
        transform, t = _SCIPY[kind]
        want = (transform(x, type=t, axis=-1, norm="ortho") if m >= 128
                else x @ operators._basis(inverse, m))
        assert np.array_equal(operators._transform(x.copy(), kind, -1), want)
    # over both axes, one 1-D pass per axis, in place
    if m >= 127:
        x = np.random.default_rng(m).standard_normal((m, m))
        want = idctn(x, type=2, norm="ortho")
        got = operators._transform(x, "idct", (-1, -2))
        assert got is x and np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("axis", [-1, -2])
def test_scipys_result_in_a_new_array_is_copied_back(monkeypatch, axis):
    # scipy may return a transform in a new array despite overwrite_x; the
    # helper then copies it into x, which it returns.  Each kind is patched
    # to leave x as it is and return scipy's result in a fresh array
    x0 = np.random.default_rng(2).standard_normal((2, 128, 130))
    for kind, (transform, t, inverse) in list(operators._KINDS.items()):
        def fresh(x, transform=transform, **kw):
            return transform(x.copy(), **kw)
        monkeypatch.setitem(operators._KINDS, kind, (fresh, t, inverse))
        x = x0.copy()
        got = operators._transform(x, kind, axis)
        assert got is x
        assert np.array_equal(x, transform(x0, type=t, axis=axis, norm="ortho"))


@pytest.mark.parametrize("axis", [-1, -2])
def test_sine_product_copies_a_bounded_chunk_of_a_stack(axis):
    # matmul copies an input it overwrites; a stack the size of the march's
    # cell stage at n = 64 (16 steps of both components) goes a chunk of at
    # most 2**15 floats at a time, for every kind,
    # so the copy stays near 0.26 MB instead of the stack's 1.03 MB, with
    # every slice's product unchanged; from the right the helper multiplies
    # by the inverse kind's basis, the transpose of its own
    stack = np.random.default_rng(1).standard_normal((16, 2, 63, 64))
    for kind, inverse in _INVERSE.items():
        x = stack.copy()
        m = x.shape[axis]
        left, right = operators._basis(kind, m), operators._basis(inverse, m)
        assert np.abs(right - left.T).max() <= 1e-15
        want = np.stack([[s @ right if axis == -1 else left @ s for s in pair]
                         for pair in x])
        tracemalloc.start()
        try:
            operators._transform(x, kind, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.3e6
        assert np.array_equal(x, want)


@pytest.mark.parametrize("n", [16, 129])
def test_stack_transforms_work_in_place(n):
    # the right side and the velocity's interior faces are transformed in
    # the buffers that hold them, a view into a larger block included: the
    # solver keeps the right side's block as the velocity's modes and reads
    # u1's interior rows from a copy placed over them; n = 129 takes
    # scipy's sine transform, n = 16 the basis product
    inv = saddle_inverses(build_grid(n), 0.0)
    rng = np.random.default_rng(0)
    block = np.zeros(2 * n * (n + 1))
    x = block[n:n + 2 * (n - 1) * n]
    want = rng.standard_normal(x.shape)
    x[...] = want
    modes = inv.to_modes(want.copy())
    inv.to_modes(x)
    assert np.array_equal(x, modes)
    inv.from_modes(x)
    assert np.abs(x - want).max() <= 1e-14


def test_border_data_take_no_2d_forward_transform(monkeypatch):
    # no module binds an n-D transform, every transform goes
    # through operators, and boundary data alone take the closed forms for
    # b and c; zero data with forcing take one 2-D transform, the
    # forcing's, and leave c zero, which takes no transform at all
    assert modules_binding(("dctn", "dstn", "idstn", "idctn")) == []
    assert modules_binding(("dct", "idct", "idctn", "dst")) == ["vws.operators"]
    grid = build_grid(16)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((15, 16)), rng.standard_normal((16, 15))

    why = "2-D forward transform of border data"
    with monkeypatch.context() as m:
        refuse(m, SaddleInverse, "to_modes", why)
        assert solve_saddle(grid, rotation_data(grid), None)[3]["outer_iterations"] == 1
    to_modes, border_to_modes = SaddleInverse.to_modes, SaddleInverse.border_to_modes
    calls = []

    def counted(self, x):
        calls.append(1)
        return to_modes(self, x)

    def velocity_border(self, x):
        if x.ndim == 2:
            raise AssertionError("border transform of a zero c")
        return border_to_modes(self, x)

    monkeypatch.setattr(SaddleInverse, "to_modes", counted)
    monkeypatch.setattr(SaddleInverse, "border_to_modes", velocity_border)
    assert solve_saddle(grid, BoundaryData.zeros(grid), f)[3]["outer_iterations"] == 1
    assert len(calls) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([4, 5, 8, 33, 64]),
       shift=st.sampled_from([0.0, 64.0]))
def test_divergence_scale_is_the_cell_rms_of_d_w(seed, n, shift):
    # solve_modes scales its divergence check by |D w|_2 / n, read from the
    # modes of D w: by Parseval the cell RMS of D w, never above max|D w|,
    # so the check is at least as tight as one scaled by max|D w|
    grid = build_grid(n)
    inv = saddle_inverses(grid, shift)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2 * (n - 1) * n) * 10.0 ** rng.uniform(-6, 6)
    w_hat = inv.velocity_solve(inv.to_modes(x))
    dw_hat = inv.divergence_modes(w_hat)
    # D w of the field w with zero wall faces, in the cells
    w1, w2 = inv.from_modes(w_hat.copy())
    dw = divergence(VelocityField.from_interior(grid, w1, w2)).p
    cells = idctn(dw_hat, type=2, norm="ortho")
    assert np.abs(cells - dw).max() <= 1e-12 * np.abs(dw).max()
    rms_modes = float(np.linalg.norm(dw_hat)) / n
    rms_cells = float(np.sqrt(np.mean(cells ** 2)))
    assert abs(rms_modes - rms_cells) <= 1e-13 * rms_cells
    assert rms_modes <= np.abs(cells).max()


@pytest.mark.parametrize("n", [5, 8, 17])
def test_solved_velocity_keeps_each_components_modes_as_its_faces_lie(n):
    # u1's kept modes are the orthonormal DST-I along x and DCT-II along y
    # of its interior faces, (n - 1, n); u2's the DCT-II along x and DST-I
    # along y of its own, (n, n - 1): two views of one block, neither
    # transposed
    grid = build_grid(n)
    u = solve_boundary(grid, rotation_data(grid)).velocity
    inv = saddle_inverses(grid, 0.0)
    m1, m2 = inv.components(u.modes)
    assert m1.base is m2.base is u.modes
    u1, u2 = u.interior()
    want1 = dct(dst(u1, type=1, axis=0, norm="ortho"), type=2, axis=1, norm="ortho")
    want2 = dst(dct(u2, type=2, axis=0, norm="ortho"), type=1, axis=1, norm="ortho")
    for got, want in ((m1, want1), (m2, want2)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _gradient_modes(inv, p_hat):
    """The interior modes of G p, for p the cell pressure whose cosine modes
    are p_hat: -sqrt(mu_k) p_hat on u1's, -sqrt(mu_l) p_hat on u2's, with
    mu_k = (2 - 2 cos(k pi/n)) n^2."""
    n = inv.grid.n
    root_mu = n * np.sqrt(2.0 - 2.0 * np.cos(np.arange(1, n) * np.pi / n))
    g = np.empty(2 * (n - 1) * n)
    g1, g2 = inv.components(g)
    g1[...] = -root_mu[:, None] * p_hat[1:]
    g2[...] = -p_hat[:, 1:] * root_mu
    return g


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([5, 8, 17, 64]),
       shift=st.sampled_from([0.0, 64.0, 4096.0]))
def test_modal_stage_folds_the_two_velocity_solve_sequence(seed, n, shift):
    # solve_modes takes one wall correction where the sequence it folds,
    # w = A^{-1} b, p = S^{-1}(c - D w), u = w - A^{-1} G p, took two; on
    # random b and a compatible (zero-mean) c, with a scratch row of
    # exactly 2 (n - 1) n floats, its u, p and data scale are that
    # sequence's to rounding
    grid = build_grid(n)
    inv = saddle_inverses(grid, shift)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 6)
    b_hat = rng.standard_normal(2 * (n - 1) * n) * scale
    # c from as large as b to far below D w, so either sets the scale
    c_hat = rng.standard_normal((n, n)) * scale * 10.0 ** rng.uniform(-8, 0)
    c_hat[0, 0] = 0.0
    c_max = float(np.abs(idctn(c_hat, type=2, norm="ortho")).max())

    w_hat = inv.velocity_solve(b_hat.copy())
    dw_hat = inv.divergence_modes(w_hat)
    want_scale = max(c_max, float(np.linalg.norm(dw_hat)) / n)
    want_p = inv.schur_solve(c_hat - dw_hat, np.empty((n, n)), np.empty((n, n)))
    want_u = w_hat - inv.velocity_solve(_gradient_modes(inv, want_p))

    u_hat = b_hat.copy()
    p_hat, got_scale, steps = inv.solve_modes(u_hat, c_hat.copy(), c_max,
                                              np.empty(2 * (n - 1) * n))
    assert steps == 1
    assert np.abs(u_hat - want_u).max() <= 1e-13 * np.abs(want_u).max()
    assert np.abs(p_hat - want_p).max() <= 1e-13 * np.abs(want_p).max()
    assert abs(got_scale - want_scale) <= 1e-12 * want_scale


def test_no_solve_calls_the_velocity_inverse(monkeypatch):
    # the modal stage folds both of its velocity inverses into one wall
    # correction: velocity_solve serves VelocityPoisson and the tests alone
    from vws.evolution import TimeBoundaryData, evolve
    from vws.transposition import transposition_identity

    grid = build_grid(16)
    g = rotation_data(grid)
    refuse(monkeypatch, SaddleInverse, "velocity_solve", "a solve ran velocity_solve")
    u = solve_boundary(grid, g).velocity
    transposition_identity(grid, g, u=u)
    evolve(grid, TimeBoundaryData.constant(g), 0.125, 1.0 / 16, scheme="cn")


@pytest.mark.parametrize("n", [5, 8, 17])
def test_modal_divergence_and_gradient_are_the_cell_operators(n):
    # D and G are diagonal in the modes, each component in its own layout:
    # on random interior faces (zero wall faces) and a random cell
    # pressure, divergence_modes and the G that the modal stage's pin
    # reads (_gradient_modes) are the modes of cell_divergence and
    # face_gradient, at odd and even n
    grid = build_grid(n)
    inv = saddle_inverses(grid, 0.0)
    rng = np.random.default_rng(n)
    w1, w2 = rng.standard_normal((n - 1, n)), rng.standard_normal((n, n - 1))
    w = VelocityField.from_interior(grid, w1, w2)
    want = cell_divergence(w.u1, w.u2, grid.h)
    got = idctn(inv.divergence_modes(inv.forcing_modes((w1, w2))), type=2, norm="ortho")
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    p = rng.standard_normal((n, n))
    faces = inv.from_modes(_gradient_modes(inv, dctn(p, type=2, norm="ortho")))
    for got, want in zip(faces, face_gradient(p, grid.h)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
