import numpy as np
import pytest
from scipy.fft import dctn
from scipy.linalg import hilbert

from vws import operators
from vws.boundary import outward_normal_data
from vws.errors import NonConvergence
from vws.grid import PressureField, VelocityField, build_grid
from vws.operators import (
    DirichletBC,
    SchurInverse,
    VelocityPoisson,
    apply_velocity_laplacian,
    cg_solve,
    divergence,
    gradient,
    saddle_inverses,
    stream_curl,
)
from vws.operators import _capacitance_sectors, _neumann_inverse

from support import dense_face_gradient, dense_velocity_laplacian, observed_orders


def _random_interior(rng, n):
    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))
    u1[1:n, :] = rng.standard_normal((n - 1, n))
    u2[:, 1:n] = rng.standard_normal((n, n - 1))
    return u1, u2


def test_laplacian_self_adjoint():
    rng = np.random.default_rng(11)
    for n in (8, 12, 16):
        grid = build_grid(n)
        bc = DirichletBC.zero(grid)
        for _ in range(3):
            u1, u2 = _random_interior(rng, n)
            v1, v2 = _random_interior(rng, n)
            Au1, Au2 = apply_velocity_laplacian(grid, u1, u2, bc)
            Av1, Av2 = apply_velocity_laplacian(grid, v1, v2, bc)
            lhs = (Au1 * v1[1:n, :]).sum() + (Au2 * v2[:, 1:n]).sum()
            rhs = (u1[1:n, :] * Av1).sum() + (u2[:, 1:n] * Av2).sum()
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_laplacian_positive():
    rng = np.random.default_rng(3)
    grid = build_grid(12)
    bc = DirichletBC.zero(grid)
    u1, u2 = _random_interior(rng, 12)
    Au1, Au2 = apply_velocity_laplacian(grid, u1, u2, bc)
    energy = (Au1 * u1[1:12, :]).sum() + (Au2 * u2[:, 1:12]).sum()
    assert energy > 0.0


def test_laplacian_shift():
    rng = np.random.default_rng(5)
    n = 8
    grid = build_grid(n)
    bc = DirichletBC.zero(grid)
    u1, u2 = _random_interior(rng, n)
    a1, a2 = apply_velocity_laplacian(grid, u1, u2, bc)
    s1, s2 = apply_velocity_laplacian(grid, u1, u2, bc, shift=3.5)
    assert np.allclose(s1, a1 + 3.5 * u1[1:n, :], atol=1e-12)
    assert np.allclose(s2, a2 + 3.5 * u2[:, 1:n], atol=1e-12)


def test_laplacian_truncation_order():
    # reflected ghosts make the wall-tangential rows second order too
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    lap = lambda x, y: 2.0 * np.pi ** 2 * f(x, y)
    errs = []
    for n in (32, 64):
        grid = build_grid(n)
        v = VelocityField.from_functions(grid, f, f)
        r1, r2 = apply_velocity_laplacian(grid, v.u1, v.u2,
                                          DirichletBC.zero(grid))
        ex = VelocityField.from_functions(grid, lap, lap)
        errs.append(max(np.abs(r1 - ex.u1[1:n, :]).max(),
                        np.abs(r2 - ex.u2[:, 1:n]).max()))
    assert errs[0] == pytest.approx(1.583016e-02, rel=1e-3)
    assert observed_orders(errs)[0] >= 1.9


def test_div_grad_duality():
    rng = np.random.default_rng(7)
    n = 16
    grid = build_grid(n)
    u1, u2 = _random_interior(rng, n)
    vel = VelocityField(grid, u1, u2)
    p = PressureField(grid, rng.standard_normal((n, n))).zero_mean()
    gp = gradient(p)
    a = float((divergence(vel).p * p.p).sum()) * grid.h ** 2
    b = -float((vel.u1[1:n, :] * gp.u1[1:n, :]).sum()
               + (vel.u2[:, 1:n] * gp.u2[:, 1:n]).sum()) * grid.h ** 2
    assert abs(a - b) <= 1e-12 * abs(a)


def test_stream_curl_divergence_free():
    rng = np.random.default_rng(13)
    grid = build_grid(24)
    psi = rng.standard_normal((25, 25))
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
    bc = DirichletBC.from_boundary_data(outward_normal_data(grid))
    u1 = np.zeros((n + 1, n))
    u2 = np.zeros((n, n + 1))
    u1[0, :], u1[n, :] = bc.u1_left, bc.u1_right
    u2[:, 0], u2[:, n] = bc.u2_bottom, bc.u2_top
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


@pytest.mark.parametrize("shift", [0.0, 64.0])
def test_poisson_dst_matches_dense(shift):
    # the dense operator shares no code with the transforms
    rng = np.random.default_rng(21)
    n = 16
    grid = build_grid(n)
    f1 = rng.standard_normal((n - 1, n))
    f2 = rng.standard_normal((n, n - 1))
    w = VelocityPoisson(grid, shift).solve(f1, f2)
    w = np.concatenate([w[0].ravel(), w[1].ravel()])
    ref = np.linalg.solve(dense_velocity_laplacian(grid, shift),
                          np.concatenate([f1.ravel(), f2.ravel()]))
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [16, 48])
def test_neumann_laplacian_is_dct_diagonal(n):
    # SchurInverse applies (-Delta_N)^+ as 1/(mu_k + mu_l) on the 2-D type-II
    # cosine modes; that holds when Delta_N is -divergence(gradient) with
    # boundary faces held at zero
    rng = np.random.default_rng(n)
    grid = build_grid(n)
    p = rng.standard_normal((n, n))
    p -= p.mean()
    r = -divergence(gradient(PressureField(grid, p))).p
    inv_lam = _neumann_inverse(_capacitance_sectors(n, 0.0)[0])
    p_hat = dctn(p, type=2, norm="ortho")
    got = inv_lam * dctn(r, type=2, norm="ortho")
    assert np.linalg.norm(got - p_hat) <= 1e-12 * np.linalg.norm(p_hat)
    # constants are the kernel: the preconditioned residual keeps zero mean
    assert np.abs(saddle_inverses(grid, 1e4)[1](np.ones((n, n)))).max() <= 1e-12


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
@pytest.mark.parametrize("n", [8, 12])
def test_schur_inverse_is_exact(n, shift):
    grid = build_grid(n)
    S = _dense_schur(grid, shift)
    _, M = saddle_inverses(grid, shift)
    MS = np.column_stack([M(col.reshape(n, n)).ravel() for col in S.T])
    # identity on zero-mean fields, constants to zero
    want = np.eye(n * n) - 1.0 / (n * n)
    assert np.abs(MS - want).max() <= 1e-12


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
@pytest.mark.parametrize("n", [8, 12])
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

    m = n - 1
    K = np.zeros_like(K_probe)
    for a, b, k, l, d1, c, d2 in _capacitance_sectors(n, shift)[2]:
        i1 = a * m + k - 1
        i2 = 2 * m + b * m + l - 1
        K[i1, i1] = d1
        K[i2, i2] = d2
        K[np.ix_(i1, i2)] = c
        K[np.ix_(i2, i1)] = c.T
    assert np.abs(K - K_probe).max() <= 1e-12 * np.abs(K_probe).max()


def test_schur_inverse_is_small_cached_and_untraced(monkeypatch):
    # the build is closed-form: it must not run the velocity solve, the
    # Laplacian apply or CG, whose calls the benchmark tracer counts per op
    def refuse(*args, **kwargs):
        raise AssertionError("builder called a solver entry point")

    monkeypatch.setattr(VelocityPoisson, "solve", refuse)
    monkeypatch.setattr(operators, "apply_velocity_laplacian", refuse)
    monkeypatch.setattr(operators, "cg_solve", refuse)
    assert SchurInverse(256, 0.0).nbytes <= 2_000_000
    # the cached entry adds the two n^2 Poisson denominators
    assert sum(a.nbytes for a in saddle_inverses(build_grid(256), 0.0)) <= 2_200_000
    grid = build_grid(32)
    assert saddle_inverses(grid, 64.0) is saddle_inverses(build_grid(32), 64)
