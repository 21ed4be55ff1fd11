import dataclasses
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vws.boundary import (
    SIDES,
    BoundaryData,
    cavity_g_eps,
    outward_normal_data,
    project_compatible,
    rotation_data,
)
from vws.errors import (
    IncompatibleBoundaryData,
    IncompatibleSource,
    NonConvergence,
    UnderResolvedWarning,
)
from vws.grid import PressureField, VelocityField, build_grid, l2_norm_omega
from vws.manufactured import stationary_fields
from vws.operators import (
    DirichletBC,
    VelocityPoisson,
    divergence,
    laplacian_load,
    saddle_inverses,
)
from vws.stokes import (
    SolverOptions,
    residual_report,
    solve_boundary,
    solve_homogeneous,
    solve_saddle,
)

from support import (
    count_poisson_solves,
    dense_face_gradient,
    dense_velocity_laplacian,
    observed_orders,
)


def _lid(n, eps=0.1):
    grid = build_grid(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        return grid, cavity_g_eps(grid, eps)


def test_manufactured_errors_frozen():
    errs = []
    for n in (16, 32):
        grid = build_grid(n)
        u_ex, f, _ = stationary_fields(grid)
        sol = solve_homogeneous(grid, f=f)
        errs.append(l2_norm_omega(sol.velocity - u_ex))
    assert errs[0] == pytest.approx(2.49149670129e-2, rel=1e-3)
    assert errs[1] == pytest.approx(6.19272344388e-3, rel=1e-3)
    assert observed_orders(errs)[0] >= 1.8


def test_manufactured_pressure_order():
    errs = []
    for n in (16, 32):
        grid = build_grid(n)
        _, f, p_ex = stationary_fields(grid)
        sol = solve_homogeneous(grid, f=f)
        p = PressureField(grid, sol.pressure.p).zero_mean()
        errs.append(l2_norm_omega(PressureField(grid, p.p - p_ex.p)))
    assert observed_orders(errs)[0] >= 1.8


def test_zero_data_zero_solution():
    grid = build_grid(16)
    sol = solve_boundary(grid, BoundaryData.zeros(grid))
    assert l2_norm_omega(sol.velocity) <= 1e-12
    assert abs(sol.pressure.p).max() <= 1e-10


def test_cavity_solution_quality():
    grid, g = _lid(64)
    sol = solve_boundary(grid, g)
    rep = residual_report(sol, g=g)
    assert rep["div_max"] <= 2e-8
    assert rep["boundary_mismatch"] <= 1e-12
    assert abs(rep["pressure_mean"]) <= 1e-12
    assert sol.diagnostics["mom_res_rel"] <= 1e-10


def test_cavity_ratio_frozen():
    from vws.boundary import l2_norm_gamma

    grid, g = _lid(64)
    sol = solve_boundary(grid, g)
    ratio = l2_norm_omega(sol.velocity) / l2_norm_gamma(g)
    assert ratio == pytest.approx(0.28414760985, rel=2e-3)


def test_incompatible_boundary_rejected():
    grid = build_grid(16)
    with pytest.raises(IncompatibleBoundaryData):
        solve_boundary(grid, outward_normal_data(grid))


def test_incompatible_source_rejected():
    grid = build_grid(16)
    h_src = PressureField(grid, np.ones((16, 16)))
    with pytest.raises(IncompatibleSource):
        solve_homogeneous(grid, h_src=h_src)


def test_balanced_source_accepted():
    grid = build_grid(16)
    arr = np.zeros((16, 16))
    arr[2, 2], arr[9, 9] = 1.0, -1.0
    sol = solve_homogeneous(grid, h_src=PressureField(grid, arr))
    div = np.abs(sol.velocity.u1).max()
    assert div > 0.0  # source drives a flow


@pytest.mark.parametrize("shift", [0.0, 1024.0])
@pytest.mark.parametrize("n", [8, 16])
def test_saddle_solve_matches_dense_kkt(n, shift):
    # the dense KKT system [[A, G], [-G^T, 0]], bordered to pin the pressure
    # mean, shares no code with the transform and Schur inverses
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    bc = DirichletBC.from_boundary_data(rotation_data(grid))
    f1, f2 = _random_forcing(grid, n + 3)
    src = rng.standard_normal((n, n))
    src -= src.mean()
    u1, u2, p, _ = solve_saddle(grid, bc, f1, f2, src, shift=shift)

    A = dense_velocity_laplacian(grid, shift)
    G = dense_face_gradient(grid)
    m, k = G.shape
    load1, load2 = laplacian_load(grid, bc)
    w1, w2 = np.zeros((n + 1, n)), np.zeros((n, n + 1))
    w1[0, :], w1[n, :] = bc.u1_left, bc.u1_right
    w2[:, 0], w2[:, n] = bc.u2_bottom, bc.u2_top
    c = src - divergence(VelocityField(grid, w1, w2)).p
    kkt = np.zeros((m + k + 1, m + k + 1))
    kkt[:m, :m] = A
    kkt[:m, m:m + k] = G
    kkt[m:m + k, :m] = -G.T
    kkt[m:m + k, -1] = 1.0
    kkt[-1, m:m + k] = 1.0
    rhs = np.concatenate([(f1 + load1).ravel(), (f2 + load2).ravel(),
                          c.ravel(), [0.0]])
    x = np.linalg.solve(kkt, rhs)

    u = np.concatenate([u1[1:n, :].ravel(), u2[:, 1:n].ravel()])
    assert np.abs(u - x[:m]).max() <= 1e-10 * np.abs(x[:m]).max()
    assert np.abs(p.ravel() - x[m:m + k]).max() <= 1e-10 * np.abs(x[m:m + k]).max()


@pytest.mark.parametrize("n", [32, 64, 128])
def test_shifted_uzawa_iterations_bounded(n):
    # plain Uzawa CG needs up to 155 outer iterations here (n=128, shift
    # 16384); the exact Schur inverse solves directly at every shift
    grid, g = _lid(n)
    bc = DirichletBC.from_boundary_data(g)
    opts = SolverOptions()
    for shift in (0.0, 64.0, 1024.0, 16384.0):
        _, _, _, diag = solve_saddle(grid, bc, None, None, None, shift=shift,
                                     opts=opts)
        assert diag["outer_iterations"] == 1
        assert diag["div_max"] <= opts.div_tol


def test_tiny_data_takes_a_step():
    # scaled by 1e-9 the initial defect sat below div_tol, so Uzawa stopped
    # after 0 outer iterations with the velocity off by 130% relative
    grid, g = _lid(32)
    want = solve_boundary(grid, g).velocity * 1e-9
    sol = solve_boundary(grid, g * 1e-9)
    assert sol.diagnostics["outer_iterations"] >= 1
    assert l2_norm_omega(sol.velocity - want) <= 1e-10 * l2_norm_omega(want)


@lru_cache(maxsize=1)
def _unit_lid_solution():
    grid, g = _lid(32)
    return grid, g, solve_boundary(grid, g).velocity


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-12.0, max_value=12.0))
@example(log_alpha=8.9375)
def test_velocity_is_linear_in_data(log_alpha):
    # u(alpha g) = alpha u(g) across 24 decades of data scale.  At 10^8.9375
    # the rounding left in the constant mode of the Uzawa residual once held
    # it above div_tol until the 500-iteration cap
    alpha = 10.0 ** log_alpha
    grid, g, u = _unit_lid_solution()
    want = u * alpha
    got = solve_boundary(grid, g * alpha).velocity
    assert l2_norm_omega(got - want) <= 1e-12 * l2_norm_omega(want)


def test_div_tol_met_flags_a_missed_tolerance(monkeypatch):
    # div_tol is relative to the data: the 1e9 lid, whose rounding-level
    # defect (1.4e-5) once read as a miss of an absolute 1e-8, returns
    # exact, while a velocity solve that is truly off raises
    grid, g, u = _unit_lid_solution()
    big = solve_boundary(grid, g * 1e9)
    want = u * 1e9
    assert l2_norm_omega(big.velocity - want) <= 1e-12 * l2_norm_omega(want)
    solve = VelocityPoisson.solve
    monkeypatch.setattr(VelocityPoisson, "solve",
                        lambda self, b1, b2: tuple(1.001 * x for x in
                                                   solve(self, b1, b2)))
    with pytest.raises(NonConvergence, match="divergence defect") as info:
        solve_boundary(grid, g)
    assert info.value.residual > SolverOptions().div_tol


def test_saddle_solve_takes_two_poisson_solves(monkeypatch):
    # one solve for D A^{-1} b and one for the velocity; the Uzawa loop
    # took three
    calls = count_poisson_solves(monkeypatch)
    grid, g = _lid(32)
    solve_saddle(grid, DirichletBC.from_boundary_data(g), None, None, None,
                 shift=64.0)
    assert len(calls) == 2


def test_solver_options_hold_method_and_tolerance():
    # the velocity solve has one method; the tolerance is the only option
    fields = [f.name for f in dataclasses.fields(SolverOptions)]
    assert fields == ["div_tol"]
    assert SolverOptions().div_tol == 1e-8


def test_large_compatible_data_accepted():
    # the flux of exactly compatible data rounds in proportion to the data;
    # an absolute 1e-10 bound rejected this at 4.7e-9
    grid = build_grid(32)
    rng = np.random.default_rng(0)
    g = project_compatible(BoundaryData(
        grid, {side: rng.standard_normal((32, 2)) for side in SIDES}))
    want = solve_boundary(grid, g).velocity * 1e8
    got = solve_boundary(grid, g * 1e8).velocity
    assert l2_norm_omega(got - want) <= 1e-12 * l2_norm_omega(want)


def test_tiny_incompatible_data_rejected():
    # a net flux of 4e-11 slipped under an absolute 1e-10 bound and came
    # back as a velocity with a nonzero divergence
    grid = build_grid(16)
    with pytest.raises(IncompatibleBoundaryData):
        solve_boundary(grid, outward_normal_data(grid) * 1e-11)


def test_tiny_incompatible_source_rejected():
    grid = build_grid(16)
    h_src = PressureField(grid, np.full((16, 16), 1e-13))
    with pytest.raises(IncompatibleSource):
        solve_homogeneous(grid, h_src=h_src)


def _random_forcing(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n
    return rng.standard_normal((n - 1, n)), rng.standard_normal((n, n - 1))


def _inner(grid, a, b):
    return grid.h ** 2 * (float(np.sum(a[0] * b[0])) + float(np.sum(a[1] * b[1])))


def _forced_velocity(grid, f, shift):
    u1, u2, _, _ = solve_saddle(grid, DirichletBC.zero(grid), f[0], f[1], None,
                                shift=shift)
    return u1[1:grid.n, :], u2[:, 1:grid.n]


_shifts = st.sampled_from([0.0, 64.0, 4096.0])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1), _shifts)
def test_superposition_of_forcings(seed_f, seed_w, shift):
    grid = build_grid(32)
    f, w = _random_forcing(grid, seed_f), _random_forcing(grid, seed_w)
    uf = _forced_velocity(grid, f, shift)
    uw = _forced_velocity(grid, w, shift)
    both = _forced_velocity(grid, (f[0] + w[0], f[1] + w[1]), shift)
    gap = max(float(np.abs(b - x - y).max()) for b, x, y in zip(both, uf, uw))
    assert gap <= 1e-12 * max(float(np.abs(b).max()) for b in both)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(min_value=-6.0, max_value=6.0))
def test_lid_flow_mirror_symmetry(seed, log_alpha):
    # a lid profile even in x drives u1 even and u2 odd under x -> 1 - x
    grid = build_grid(32)
    r = np.random.default_rng(seed).standard_normal(32)
    samples = {side: np.zeros((32, 2)) for side in SIDES}
    samples["top"][:, 0] = (10.0 ** log_alpha) * (r + r[::-1])
    sol = solve_boundary(grid, BoundaryData(grid, samples))
    u1, u2 = sol.velocity.u1, sol.velocity.u2
    scale = max(float(np.abs(u1).max()), float(np.abs(u2).max()))
    assert float(np.abs(u1 - u1[::-1, :]).max()) <= 1e-12 * scale
    assert float(np.abs(u2 + u2[::-1, :]).max()) <= 1e-12 * scale


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1), _shifts)
def test_solution_operator_is_symmetric(seed_f, seed_w, shift):
    # <u(f), w> = <f, u(w)>: the forced zero-data solve is self-adjoint
    grid = build_grid(32)
    f, w = _random_forcing(grid, seed_f), _random_forcing(grid, seed_w)
    uf = _forced_velocity(grid, f, shift)
    uw = _forced_velocity(grid, w, shift)
    lhs, rhs = _inner(grid, uf, w), _inner(grid, f, uw)
    bound = np.sqrt(_inner(grid, uf, uf) * _inner(grid, w, w))
    assert abs(lhs - rhs) <= 1e-12 * bound


@pytest.mark.parametrize("side", ["u1_bottom", "u1_left"])
def test_dirichlet_bc_rejects_non_finite(side):
    # a NaN in a DirichletBC built directly, not through BoundaryData, used
    # to come back as a NaN velocity after 0 outer iterations
    grid = build_grid(16)
    bc = DirichletBC.zero(grid)
    bad = getattr(bc, side).copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_saddle(grid, dataclasses.replace(bc, **{side: bad}),
                     None, None, None, shift=10.0)


def test_rejects_non_finite_forcing():
    # a NaN forcing used to come back as a NaN velocity with no error
    grid = build_grid(16)
    _, f, _ = stationary_fields(grid)
    u1 = f.u1.copy()
    u1[5, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_homogeneous(grid, f=VelocityField(grid, u1, f.u2))


def test_rejects_non_finite_divergence_source():
    # +inf and -inf cancel to a NaN mean, which slipped past the mean check
    grid = build_grid(16)
    arr = np.zeros((16, 16))
    arr[2, 2], arr[9, 9] = np.inf, -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        solve_homogeneous(grid, h_src=PressureField(grid, arr))


def test_saddle_rejects_non_finite_forcing_with_shift():
    # the time marches call solve_saddle directly; a NaN forcing used to
    # come back as a NaN velocity after 0 outer iterations
    grid = build_grid(16)
    bc = DirichletBC.zero(grid)
    f1 = np.zeros((15, 16))
    f2 = np.zeros((16, 15))
    f1[4, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_saddle(grid, bc, f1, f2, None, shift=10.0)


@pytest.mark.parametrize("shift", [0.0, 10.0])
def test_uzawa_breakdown_raises_nonconvergence(monkeypatch, shift):
    # a velocity solve that returns zero leaves the whole divergence source
    # as the defect; the Uzawa loop once surfaced this as a bare
    # ZeroDivisionError, the direct solve raises carrying its pressure
    grid = build_grid(16)
    src = np.zeros((16, 16))
    src[2, 2], src[9, 9] = 1.0, -1.0
    monkeypatch.setattr(VelocityPoisson, "solve",
                        lambda self, b1, b2: (np.zeros_like(b1), np.zeros_like(b2)))
    with pytest.raises(NonConvergence, match="divergence defect") as info:
        solve_saddle(grid, DirichletBC.zero(grid), None, None, src, shift=shift)
    assert info.value.best_x is not None
    assert info.value.residual == pytest.approx(1.0)


@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
def test_saddle_rejects_non_finite_shift(shift):
    # a NaN or infinite shift used to come back as an all-NaN velocity
    grid = build_grid(16)
    bc = DirichletBC.from_boundary_data(rotation_data(grid))
    with pytest.raises(ValueError, match="shift"):
        solve_saddle(grid, bc, None, None, None, shift=shift)


def test_singular_shift_raises_nonconvergence():
    # -2 mu_1 zeroes a denominator of the velocity solve and -mu_1 one of the
    # Schur inverse.  Both used to divide by zero (numpy warnings, made
    # errors by the suite), leave a NaN-bearing inverse in the cache and
    # raise NonConvergence only after the solve; the build now refuses the
    # shift first and caches nothing
    n = 16
    grid = build_grid(n)
    bc = DirichletBC.from_boundary_data(rotation_data(grid))
    mu_1 = (2.0 - 2.0 * np.cos(np.pi / n)) * n ** 2
    saddle_inverses.cache_clear()
    for shift, which in ((-2.0 * mu_1, "velocity"), (-mu_1, "Schur")):
        with pytest.raises(ValueError, match=f"{which}.* singular"):
            solve_saddle(grid, bc, None, None, None, shift=shift)
    assert saddle_inverses.cache_info().currsize == 0


@pytest.mark.parametrize("shift", [0.0, 64.0])
@pytest.mark.parametrize("n", [16, 32])
def test_div_max_is_the_defect_of_the_returned_field(n, shift):
    # normal and tangential wall data, a forcing and a zero-mean source: the
    # reported defect is the one divergence applied to the returned field
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    bc = DirichletBC.from_boundary_data(rotation_data(grid))
    f1, f2 = _random_forcing(grid, n + 1)
    src = rng.standard_normal((n, n))
    src -= src.mean()
    u1, u2, _, diag = solve_saddle(grid, bc, f1, f2, src, shift=shift)
    defect = src - divergence(VelocityField(grid, u1, u2)).p
    assert diag["div_max"] == float(np.abs(defect).max())
    assert u1[0, :] == pytest.approx(bc.u1_left, abs=0.0)
    assert u2[:, n] == pytest.approx(bc.u2_top, abs=0.0)


def test_residual_report_matches_the_solver_momentum_residual():
    grid = build_grid(32)
    _, f, _ = stationary_fields(grid)
    sol = solve_homogeneous(grid, f=f)
    rep = residual_report(sol, f=f)
    assert rep["momentum_res"] == pytest.approx(sol.diagnostics["mom_res"],
                                                rel=1e-12)
    g = rotation_data(grid)
    sol = solve_boundary(grid, g)
    rep = residual_report(sol, g=g)
    assert rep["momentum_res"] == pytest.approx(sol.diagnostics["mom_res"],
                                                rel=1e-12)
    assert rep["div_max"] == sol.diagnostics["div_max"]
