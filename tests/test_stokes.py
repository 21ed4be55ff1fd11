import dataclasses
import re
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import dctn, idctn

from vws.boundary import (
    SIDES,
    BoundaryData,
    cavity_g,
    cavity_g_eps,
    outward_normal_data,
    project_compatible,
    rotation_data,
)
from vws.errors import (
    IncompatibleBoundaryData,
    NonConvergence,
    UnderResolvedWarning,
)
from vws.grid import PressureField, VelocityField, build_grid, l2_norm_omega
from vws.manufactured import stationary_fields
from vws.operators import (
    DIV_TOL,
    SaddleInverse,
    divergence,
    laplacian_load,
    saddle_inverses,
)
from vws.stokes import (
    SolverOptions,
    StokesSolution,
    residual_report,
    solve_boundary,
    solve_homogeneous,
    solve_saddle,
)
from vws.experiments.report import orders

from support import (
    count_saddle_solves,
    dense_face_gradient,
    dense_velocity_laplacian,
    refuse,
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
    assert orders(errs)[0] >= 1.8


def test_manufactured_pressure_order():
    errs = []
    for n in (16, 32):
        grid = build_grid(n)
        _, f, p_ex = stationary_fields(grid)
        sol = solve_homogeneous(grid, f=f)
        p = PressureField(grid, sol.pressure.p).zero_mean()
        errs.append(l2_norm_omega(PressureField(grid, p.p - p_ex.p)))
    assert orders(errs)[0] >= 1.8


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
    assert rep["momentum_res_rel"] <= 1e-10
    assert set(sol.diagnostics) == {"outer_iterations", "div_max", "wall_time"}


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


@pytest.mark.parametrize("shift", [0.0, 64.0])
def test_saddle_solve_checks_solvability(shift):
    # a net wall flux is a solvability failure, not a solver miss: it used
    # to come back as NonConvergence ("divergence defect 4.000e+00")
    grid = build_grid(16)
    g = outward_normal_data(grid)           # net outflow h sum g . n = 4
    with pytest.raises(IncompatibleBoundaryData, match="net boundary flux"):
        solve_saddle(grid, g, None, shift=shift)


@pytest.mark.parametrize("shift", [0.0, 1024.0])
@pytest.mark.parametrize("n", [4, 5, 8, 16])
def test_saddle_solve_matches_dense_kkt(n, shift):
    # the dense KKT system [[A, G], [-G^T, 0]], bordered to pin the pressure
    # mean, shares no code with the transform and Schur inverses.  Forcing
    # present or absent: the load of g takes the border closed form, and
    # the lid has c = 0.  The forcing comes as a pair, as a hand-built
    # velocity and as a solved one, whose kept modes join the load's with
    # no transform.  The rotation alone is
    # a Stokes flow with p = 0 at shift 0, so the lid is added to it
    grid = build_grid(n)
    f1, f2 = _random_forcing(grid, n + 3)
    hand = VelocityField.from_interior(grid, f1, f2)
    solved = solve_homogeneous(grid, f=hand).velocity
    assert hand.modes is None and solved.modes is not None
    forcings = [(None, (0.0, 0.0)), ((f1, f2), (f1, f2)), (hand, (f1, f2)),
                (solved, solved.interior())]

    A = dense_velocity_laplacian(grid, shift)
    G = dense_face_gradient(grid)
    m, k = G.shape
    kkt = np.zeros((m + k + 1, m + k + 1))
    kkt[:m, :m] = A
    kkt[:m, m:m + k] = G
    kkt[m:m + k, :m] = -G.T
    kkt[m:m + k, -1] = 1.0
    kkt[-1, m:m + k] = 1.0
    cases, rhs = [], []
    for g in (rotation_data(grid) + cavity_g(grid), cavity_g(grid)):
        load1, load2 = laplacian_load(grid, g)
        flux = divergence(VelocityField(grid, *_wall_faces(grid, g))).p
        for f, (e1, e2) in forcings:
            cases.append(solve_saddle(grid, g, f, shift=shift))
            b1, b2 = load1 + e1, load2 + e2
            rhs.append(np.concatenate([b1.ravel(), b2.ravel(), -flux.ravel(), [0.0]]))
    x = np.linalg.solve(kkt, np.column_stack(rhs))

    for (u1, u2, p, _), xj in zip(cases, x.T):
        u = np.concatenate([u1[1:n, :].ravel(), u2[:, 1:n].ravel()])
        assert np.abs(u - xj[:m]).max() <= 1e-10 * np.abs(xj[:m]).max()
        assert np.abs(p.ravel() - xj[m:m + k]).max() <= 1e-10 * np.abs(xj[m:m + k]).max()


@pytest.mark.parametrize("n", [32, 64, 128, 129])
def test_shifted_uzawa_iterations_bounded(n):
    # plain Uzawa CG needs up to 155 outer iterations here (n=128, shift
    # 16384); the exact Schur inverse solves directly at every shift
    grid, g = _lid(n)
    for shift in (0.0, 64.0, 1024.0, 16384.0):
        _, _, _, diag = solve_saddle(grid, g, None, shift=shift)
        assert diag["outer_iterations"] == 1
        assert diag["div_max"] <= DIV_TOL


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
    # exact, while a velocity solve that is truly off raises, in the
    # duality identity's adjoint, whose defect is read from its modes, too
    from vws.transposition import transposition_identity

    grid, g, u = _unit_lid_solution()
    big = solve_boundary(grid, g * 1e9)
    want = u * 1e9
    assert l2_norm_omega(big.velocity - want) <= 1e-12 * l2_norm_omega(want)
    # the solver's modal velocity inverse, off by 0.1%
    velocity_solve = SaddleInverse.velocity_solve

    def off(self, x, scratch=None):
        x = velocity_solve(self, x, scratch)
        x *= 1.001
        return x

    monkeypatch.setattr(SaddleInverse, "velocity_solve", off)
    with pytest.raises(NonConvergence, match="divergence defect") as info:
        solve_boundary(grid, g)
    assert info.value.residual > DIV_TOL
    with pytest.raises(NonConvergence, match="divergence defect"):
        transposition_identity(grid, g, u=u)


def test_saddle_solve_takes_one_modal_solve(monkeypatch):
    # D A^{-1} b, the pressure and the velocity all come from one modal
    # solve; the Uzawa loop took three velocity solves, the two-basis
    # direct solve two
    calls = count_saddle_solves(monkeypatch)
    grid, g = _lid(32)
    solve_saddle(grid, g, None, shift=64.0)
    assert len(calls) == 1


def test_solver_options_hold_method_and_tolerance():
    # the velocity solve has one method; the tolerance is the only option,
    # and the one the benchmark reads is the solves' DIV_TOL
    fields = [f.name for f in dataclasses.fields(SolverOptions)]
    assert fields == ["div_tol"]
    assert SolverOptions().div_tol == DIV_TOL == 1e-8


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


def _wall_faces(grid, g):
    """Face arrays holding the normal samples of g on the wall faces, zero
    elsewhere."""
    n = grid.n
    w1, w2 = np.zeros((n + 1, n)), np.zeros((n, n + 1))
    w1[0, :], w1[n, :] = g.samples["left"][:, 0], g.samples["right"][:, 0]
    w2[:, 0], w2[:, n] = g.samples["bottom"][:, 1], g.samples["top"][:, 1]
    return w1, w2


def _random_forcing(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.n
    return rng.standard_normal((n - 1, n)), rng.standard_normal((n, n - 1))


def _inner(grid, a, b):
    return grid.h ** 2 * (float(np.sum(a[0] * b[0])) + float(np.sum(a[1] * b[1])))


def _forced_velocity(grid, f, shift):
    u1, u2, _, _ = solve_saddle(grid, BoundaryData.zeros(grid), f, shift=shift)
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


def test_rejects_non_finite_forcing():
    # a NaN forcing used to come back as a NaN velocity with no error
    grid = build_grid(16)
    _, f, _ = stationary_fields(grid)
    u1 = f.u1.copy()
    u1[5, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_homogeneous(grid, f=VelocityField(grid, u1, f.u2))


def test_every_forcing_reaches_the_modes_through_one_method(monkeypatch):
    # a forcing's form is read in SaddleInverse.forcing_modes alone: with it
    # refused, every forced entry point fails, so that no second path from a
    # forcing to the modes comes back, while unforced solves still run
    from vws.evolution import (TimeBoundaryData, evolve, evolve_lifted,
                               solve_adjoint_backward)
    from vws.transposition import transposition_identity

    grid = build_grid(8)
    g = rotation_data(grid)
    f = _random_forcing(grid, 3)
    hand = VelocityField.from_interior(grid, *f)
    solved = solve_boundary(grid, g).velocity
    tb = TimeBoundaryData.constant(g)
    traj = evolve(grid, tb, 0.25, 0.125)
    why = "a forcing bypassed SaddleInverse.forcing_modes"
    refuse(monkeypatch, SaddleInverse, "forcing_modes", why)
    forced = [
        lambda: solve_saddle(grid, BoundaryData.zeros(grid), f),
        lambda: solve_homogeneous(grid, f=hand),
        lambda: solve_homogeneous(grid, f=solved),
        lambda: evolve_lifted(grid, tb, 0.25, 0.125, force=lambda t: f),
        lambda: solve_adjoint_backward(grid, traj),
        lambda: transposition_identity(grid, g, u=solved),
    ]
    for call in forced:
        with pytest.raises(AssertionError, match=why):
            call()
    assert solve_boundary(grid, g).diagnostics["outer_iterations"] == 1
    assert evolve(grid, tb, 0.25, 0.125).norms()[-1] > 0.0


def test_zero_data_forcing_is_transformed_in_the_solves_block(monkeypatch):
    # zero g leaves the right side's modes block zero, so a hand-built
    # forcing is written and transformed in it: up to the modal stage a
    # solve at n = 256 holds its face block, its modes block and c, 2.8 MB,
    # and no second 1.04 MB forcing stack (3.8 MB with one).  Its velocity
    # is the forced part of a solve with nonzero g, whose forcing is added;
    # the forcing is scaled to give a velocity of the rotation's size
    grid = build_grid(256)
    f = VelocityField.from_interior(grid, *(1e4 * a for a in _random_forcing(grid, 4)))
    g = rotation_data(grid)
    both = solve_saddle(grid, g, f)
    lifted = solve_boundary(grid, g).velocity
    peaks, solve_modes = [], SaddleInverse.solve_modes

    def recorded(self, *args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return solve_modes(self, *args)

    monkeypatch.setattr(SaddleInverse, "solve_modes", recorded)
    tracemalloc.start()
    try:
        u = solve_homogeneous(grid, f=f).velocity
    finally:
        tracemalloc.stop()
    assert len(peaks) == 1 and peaks[0] <= 3.0e6
    for got, b, l in zip((u.u1, u.u2), both, (lifted.u1, lifted.u2)):
        assert np.abs(got - (b - l)).max() <= 1e-12 * np.abs(got).max()


def test_saddle_rejects_non_finite_forcing_with_shift():
    # the time marches call solve_saddle directly; a NaN forcing used to
    # come back as a NaN velocity after 0 outer iterations
    grid = build_grid(16)
    g = BoundaryData.zeros(grid)
    f1 = np.zeros((15, 16))
    f2 = np.zeros((16, 15))
    f1[4, 7] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_saddle(grid, g, (f1, f2), shift=10.0)


@pytest.mark.parametrize("shift", [0.0, 10.0])
def test_uzawa_breakdown_raises_nonconvergence(monkeypatch, shift):
    # a velocity solve that returns zero leaves the whole wall flux as the
    # defect; the Uzawa loop once surfaced this as a bare ZeroDivisionError,
    # the direct solve raises carrying its pressure in the cells, although
    # a solve keeps it in its modes until it returns
    grid = build_grid(16)
    g = rotation_data(grid)
    # c, minus the wall fluxes (g . n)/h, lives on the border cells
    c = -divergence(VelocityField(grid, *_wall_faces(grid, g))).p
    def zero(self, x, scratch=None):
        x[...] = 0.0
        return x

    monkeypatch.setattr(SaddleInverse, "velocity_solve", zero)
    with pytest.raises(NonConvergence, match="divergence defect") as info:
        solve_saddle(grid, g, None, shift=shift)
    assert info.value.best_x is not None
    assert info.value.best_x.shape == (16, 16)
    # with w = 0 the pressure is S^{-1} c, whose modes no cell array of the
    # border c matches
    inv = saddle_inverses(grid, shift)
    p_hat = inv.schur_solve(dctn(c, type=2, norm="ortho"), np.empty((16, 16)),
                            np.empty((16, 16)))
    want = idctn(p_hat, type=2, norm="ortho")
    assert np.abs(info.value.best_x - want).max() <= 1e-12 * np.abs(want).max()
    assert info.value.residual == np.abs(c).max() > 0.0


def test_non_finite_data_scale_raises_nonconvergence(monkeypatch):
    # an infinite data scale would let any finite defect through; the
    # stationary solve refuses it, carrying its cell pressure as ever
    grid, g = _lid(16)
    solve_modes = SaddleInverse.solve_modes

    def unbounded(self, *args):
        p, _, steps = solve_modes(self, *args)
        return p, np.inf, steps

    monkeypatch.setattr(SaddleInverse, "solve_modes", unbounded)
    with pytest.raises(NonConvergence, match="data scale inf") as info:
        solve_saddle(grid, g, None)
    assert info.value.best_x.shape == (16, 16)
    assert 0.0 < info.value.residual < 1e-12


@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
def test_saddle_rejects_non_finite_shift(shift):
    # a NaN or infinite shift used to come back as an all-NaN velocity
    grid = build_grid(16)
    g = rotation_data(grid)
    with pytest.raises(ValueError, match="shift"):
        solve_saddle(grid, g, None, shift=shift)


def test_singular_shift_raises_nonconvergence():
    # -2 mu_1 zeroes a denominator of the velocity solve and -mu_1 one of the
    # Schur inverse.  Both used to divide by zero (numpy warnings, made
    # errors by the suite), leave a NaN-bearing inverse in the cache and
    # raise NonConvergence only after the solve; the build now refuses the
    # shift first and caches nothing
    n = 16
    grid = build_grid(n)
    g = rotation_data(grid)
    mu_1 = (2.0 - 2.0 * np.cos(np.pi / n)) * n ** 2
    saddle_inverses.cache_clear()
    for shift, which in ((-2.0 * mu_1, "velocity"), (-mu_1, "Schur")):
        with pytest.raises(ValueError, match=f"{which}.* singular"):
            solve_saddle(grid, g, None, shift=shift)
    assert saddle_inverses.cache_info().currsize == 0


@pytest.mark.parametrize("shift", [0.0, 64.0])
@pytest.mark.parametrize("n", [16, 32])
def test_div_max_is_the_defect_of_the_returned_field(n, shift):
    # normal and tangential wall data and a forcing: the reported defect is
    # the one divergence applied to the returned field
    grid = build_grid(n)
    g = rotation_data(grid)
    f1, f2 = _random_forcing(grid, n + 1)
    u1, u2, _, diag = solve_saddle(grid, g, (f1, f2), shift=shift)
    defect = divergence(VelocityField(grid, u1, u2)).p
    assert diag["div_max"] == float(np.abs(defect).max()) > 0.0
    assert u1[0, :] == pytest.approx(g.samples["left"][:, 0], abs=0.0)
    assert u2[:, n] == pytest.approx(g.samples["top"][:, 1], abs=0.0)


def test_residual_report_momentum_residual_flags_a_wrong_pressure():
    # the solve no longer computes the momentum residual; residual_report
    # does, relative to h ||f + load||, and it must see a pressure that is
    # off by a non-constant field
    grid = build_grid(32)
    _, f, _ = stationary_fields(grid)
    sol = solve_homogeneous(grid, f=f)
    assert residual_report(sol, f=f)["momentum_res_rel"] <= 1e-10
    g = rotation_data(grid)
    sol = solve_boundary(grid, g)
    rep = residual_report(sol, g=g)
    assert rep["momentum_res_rel"] <= 1e-10
    assert rep["div_max"] == sol.diagnostics["div_max"]
    x = grid.x_centers()
    bump = np.outer(np.cos(np.pi * x), np.ones(grid.n))
    wrong = StokesSolution(grid, sol.velocity,
                           PressureField(grid, sol.pressure.p + bump))
    assert residual_report(wrong, g=g)["momentum_res_rel"] >= 1e-3


def test_residual_report_matches_the_plain_recomputation():
    # the report forms its residual in place and sums by dot products: its
    # divergence maximum is the plain max|D u| bit for bit, and its norms
    # equal the plain ones to rounding
    from vws.operators import apply_velocity_laplacian, face_gradient

    grid = build_grid(32)
    _, f, _ = stationary_fields(grid)
    g = rotation_data(grid)
    u1, u2, p, _ = solve_saddle(grid, g, f.interior())
    sol = StokesSolution(grid, VelocityField(grid, u1, u2), PressureField(grid, p))
    rep = residual_report(sol, f=f, g=g)
    r1, r2 = apply_velocity_laplacian(grid, *sol.velocity.interior())
    b1, b2 = laplacian_load(grid, g)
    (g1, g2), (f1, f2) = face_gradient(p, grid.h), f.interior()
    b1, b2 = b1 + f1, b2 + f2
    r1, r2 = r1 + g1 - b1, r2 + g2 - b2
    mom = grid.h * np.sqrt((r1 ** 2).sum() + (r2 ** 2).sum())
    b_scale = grid.h * np.sqrt((b1 ** 2).sum() + (b2 ** 2).sum())
    div = divergence(sol.velocity).p
    assert rep["div_max"] == float(np.abs(div).max())
    assert rep["div_l2"] == pytest.approx(grid.h * np.sqrt((div ** 2).sum()),
                                          rel=1e-13)
    assert rep["momentum_res"] == pytest.approx(mom, rel=1e-13)
    assert rep["momentum_res_rel"] == pytest.approx(mom / b_scale, rel=1e-13)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("shift", [0.0, 128.0])
def test_divergence_defect_is_far_below_its_rms_scale(n, shift):
    # the check scales by the cell RMS of D w, up to 300 times below the
    # max|D w| it once read for the unregularised lid; the defects of
    # rough and smooth data still sit three decades under the tolerance
    grid = build_grid(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        data = (cavity_g(grid), cavity_g_eps(grid, 0.05), rotation_data(grid))
    inv = saddle_inverses(grid, shift)
    for g in data:
        b_hat, _, c_max = inv.right_side(g)
        dw_hat = inv.divergence_modes(inv.velocity_solve(b_hat))
        scale = max(c_max, float(np.linalg.norm(dw_hat)) / n)
        diag = solve_saddle(grid, g, None, shift=shift)[3]
        assert diag["div_max"] <= 1e-3 * DIV_TOL * scale


def test_divergence_check_quotes_the_rms_scale(monkeypatch):
    # tangential lid data have c = 0, so the check's scale is the cell RMS
    # of D w alone, about a seventh of the max|D w| it once read here
    grid, g = _lid(64)
    velocity_solve = SaddleInverse.velocity_solve

    def off(self, x, scratch=None):
        x = velocity_solve(self, x, scratch)
        x *= 1.001
        return x

    monkeypatch.setattr(SaddleInverse, "velocity_solve", off)
    inv = saddle_inverses(grid, 0.0)
    b_hat, _, c_max = inv.right_side(g)
    dw_hat = inv.divergence_modes(inv.velocity_solve(b_hat))
    rms = float(np.linalg.norm(dw_hat)) / 64
    peak = float(np.abs(idctn(dw_hat, type=2, norm="ortho")).max())
    assert c_max == 0.0 and rms < 0.2 * peak
    with pytest.raises(NonConvergence, match=re.escape(f"data scale {rms:.3e}")):
        solve_boundary(grid, g)
