import dataclasses
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vws.boundary import (
    BoundaryData,
    cavity_g_eps,
    outward_normal_data,
)
from vws.errors import (
    IncompatibleBoundaryData,
    IncompatibleSource,
    NonConvergence,
    UnderResolvedWarning,
)
from vws.grid import PressureField, VelocityField, build_grid, l2_norm_omega
from vws.manufactured import stationary_fields
from vws.operators import DirichletBC, VelocityPoisson
from vws.stokes import (
    SolverOptions,
    residual_report,
    solve_boundary,
    solve_homogeneous,
    solve_saddle,
)

from support import observed_orders


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


def test_warm_start_pressure():
    grid, g = _lid(32)
    bc = DirichletBC.from_boundary_data(g)
    u1a, u2a, pa, diag_a = solve_saddle(grid, bc, None, None, None)
    u1b, u2b, pb, diag_b = solve_saddle(grid, bc, None, None, None, p0=pa)
    assert np.abs(u1b - u1a).max() <= 1e-7
    assert diag_b["outer_iterations"] <= diag_a["outer_iterations"]


def test_cg_velocity_path_matches_dst():
    grid, g = _lid(32)
    sol_dst = solve_boundary(grid, g)
    sol_cg = solve_boundary(grid, g, opts=SolverOptions(method="cg"))
    gap = l2_norm_omega(sol_dst.velocity - sol_cg.velocity)
    assert gap <= 1e-6 * l2_norm_omega(sol_dst.velocity)
    assert sol_dst.diagnostics["preconditioner"] == "capacitance"


def test_cg_velocity_path_matches_dst_shifted():
    grid, g = _lid(32)
    bc = DirichletBC.from_boundary_data(g)
    u1d, u2d, _, _ = solve_saddle(grid, bc, None, None, None, shift=1024.0)
    u1c, u2c, _, _ = solve_saddle(grid, bc, None, None, None, shift=1024.0,
                                  opts=SolverOptions(method="cg"))
    dst_vel = VelocityField(grid, u1d, u2d)
    gap = l2_norm_omega(dst_vel - VelocityField(grid, u1c, u2c))
    assert gap <= 1e-6 * l2_norm_omega(dst_vel)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_shifted_uzawa_iterations_bounded(n):
    # plain Uzawa CG needs up to 155 outer iterations here (n=128, shift
    # 16384); the exact Schur inverse needs one at every shift
    grid, g = _lid(n)
    bc = DirichletBC.from_boundary_data(g)
    opts = SolverOptions()
    for shift in (0.0, 64.0, 1024.0, 16384.0):
        _, _, _, diag = solve_saddle(grid, bc, None, None, None, shift=shift,
                                     opts=opts)
        assert diag["preconditioner"] == "capacitance"
        assert diag["outer_iterations"] <= 2
        assert diag["div_max"] <= opts.div_tol
        assert diag["div_tol_met"]


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
@given(st.floats(min_value=-12.0, max_value=9.0))
@example(log_alpha=8.9375)
def test_velocity_is_linear_in_data(log_alpha):
    # u(alpha g) = alpha u(g) across 21 decades of data scale.  At 10^8.9375
    # the rounding left in the constant mode of the Uzawa residual once held
    # it above div_tol until the 500-iteration cap
    alpha = 10.0 ** log_alpha
    grid, g, u = _unit_lid_solution()
    want = u * alpha
    got = solve_boundary(grid, g * alpha).velocity
    assert l2_norm_omega(got - want) <= 1e-10 * l2_norm_omega(want)


def test_div_tol_met_flags_a_missed_tolerance():
    # at 1e9 times the lid the rounding floor of the divergence defect sits
    # above the absolute div_tol; the diagnostics must say so
    grid, g = _lid(32)
    assert solve_boundary(grid, g).diagnostics["div_tol_met"] is True
    big = solve_boundary(grid, g * 1e9).diagnostics
    assert big["div_max"] > SolverOptions().div_tol
    assert big["div_tol_met"] is False


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
    # a Schur complement that maps every direction to zero gives q.Sq = 0,
    # which used to surface as a bare ZeroDivisionError
    grid = build_grid(16)
    src = np.zeros((16, 16))
    src[2, 2], src[9, 9] = 1.0, -1.0
    monkeypatch.setattr(VelocityPoisson, "solve",
                        lambda self, b1, b2: (np.zeros_like(b1), np.zeros_like(b2)))
    with pytest.raises(NonConvergence, match="breakdown") as info:
        solve_saddle(grid, DirichletBC.zero(grid), None, None, src, shift=shift)
    assert info.value.best_x is not None
    assert info.value.residual == pytest.approx(1.0)
