import warnings
from functools import lru_cache

import numpy as np
import pytest

from vws.boundary import (BoundaryData, cavity_g, cavity_g_eps, outward_normal_data,
                          project_compatible, rotation_data)
from vws.errors import (
    IncompatibleBoundaryData,
    UnderResolvedWarning,
    ZeroBoundaryData,
)
from vws.evolution import (
    TimeBoundaryData,
    Trajectory,
    bump_ramp,
    evolve,
    evolve_lifted,
    final_zero_modulation,
    hard_start,
    smooth_ramp,
    solve_adjoint_backward,
    spacetime_boundary_norm,
    spacetime_estimate_ratio,
    spacetime_independence_gap,
    spacetime_pairing,
    spacetime_pairing_reference,
    spacetime_velocity_norm,
    trapezoid_weights,
)
from vws.grid import VelocityField, build_grid, l2_norm_omega
from vws.manufactured import time_dependent_forcing, time_dependent_solution
from vws.boundary import SIDES
from vws.stokes import solve_boundary
from vws.traces import TangentialBoundaryData
from vws.transposition import solve_adjoint

from support import count_poisson_solves, observed_orders


def _lid(grid, eps=0.1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        return cavity_g_eps(grid, eps)


def _force(grid):
    f1f, f2f = time_dependent_forcing()

    def force(t):
        f = VelocityField.from_functions(
            grid, lambda x, y: f1f(t, x, y), lambda x, y: f2f(t, x, y))
        return f.u1[1:grid.n, :].copy(), f.u2[:, 1:grid.n].copy()

    return force


@lru_cache(maxsize=None)
def _forced_final(scheme, m, n=32):
    grid = build_grid(n)
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    traj = evolve_lifted(grid, tb, 1.0, 1.0 / m, scheme=scheme,
                         force=_force(grid))
    return traj.final()


def test_time_profiles():
    r = smooth_ramp(0.5)
    assert float(r(0.0)) == 0.0
    assert float(r(0.25)) == pytest.approx(0.5)
    assert float(r(0.5)) == 1.0
    assert float(r(2.0)) == 1.0
    b = bump_ramp(0.25, 0.5)
    assert float(b(0.0)) == 0.0
    assert float(b(0.25)) == 1.0
    assert float(b(0.5)) == 0.0
    assert float(hard_start()(0.0)) == 1.0


def test_time_boundary_data_modes():
    grid = build_grid(8)
    g = rotation_data(grid)
    with pytest.raises(ValueError):
        TimeBoundaryData(grid)
    tb = TimeBoundaryData.ramped(g, smooth_ramp(0.5))
    gk = tb.at(8, 1.0 / 32)            # t = 0.25, ramp = 1/2
    assert np.allclose(gk.samples["top"], 0.5 * g.samples["top"])
    slices = [BoundaryData.zeros(grid), g]
    tbs = TimeBoundaryData.from_slices(grid, slices)
    assert tbs.at(1, 0.5) is slices[1]


def test_zero_data_evolves_to_zero():
    grid = build_grid(16)
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    traj = evolve(grid, tb, 0.25, 1.0 / 16, scheme="cn")
    assert traj.norms().max() <= 1e-12


def test_step_validation():
    grid = build_grid(8)
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    with pytest.raises(ValueError):
        evolve(grid, tb, 1.0, 0.3)
    with pytest.raises(ValueError):
        evolve(grid, tb, 1.0, -0.1)
    with pytest.raises(ValueError):
        evolve(grid, tb, 1.0, 0.25, scheme="rk4")


def test_slice_with_net_flux_rejected():
    grid = build_grid(8)
    slices = [BoundaryData.zeros(grid), outward_normal_data(grid)]
    tb = TimeBoundaryData.from_slices(grid, slices)
    with pytest.raises(IncompatibleBoundaryData):
        evolve(grid, tb, 1.0, 1.0)


def test_slice_checks_follow_the_data_scale():
    # exactly compatible slices pass at any scale, a tiny net flux fails;
    # an absolute 1e-10 bound got both wrong
    grid = build_grid(32)
    rng = np.random.default_rng(0)
    g = project_compatible(BoundaryData(
        grid, {side: rng.standard_normal((32, 2)) for side in SIDES}))
    evolve(grid, TimeBoundaryData.constant(g * 1e8), 0.25, 0.125)
    tiny = TimeBoundaryData.constant(outward_normal_data(grid) * 1e-11)
    with pytest.raises(IncompatibleBoundaryData):
        evolve(grid, tiny, 0.25, 0.125)


def test_march_takes_two_poisson_solves_per_step(monkeypatch):
    # a forward plus backward Crank-Nicolson march of m steps is 2m saddle
    # solves of two velocity solves each, with no warm start
    calls = count_poisson_solves(monkeypatch)
    grid = build_grid(16)
    m = 8
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.25))
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme="cn")
    back = solve_adjoint_backward(grid, traj)
    assert len(calls) == 4 * m
    assert [d["step"] for d in traj.diagnostics] == list(range(1, m + 1))
    assert [d["step"] for d in back.diagnostics] == list(range(m))


def test_forced_cn_final_error_frozen():
    grid = build_grid(32)
    u1f, u2f, _ = time_dependent_solution()
    exact = VelocityField.from_functions(
        grid, lambda x, y: u1f(1.0, x, y), lambda x, y: u2f(1.0, x, y))
    err = l2_norm_omega(_forced_final("cn", 32) - exact)
    assert err == pytest.approx(5.7305e-3, rel=2e-3)


def test_temporal_orders_by_self_difference():
    windows = {"euler": (0.7, 1.3), "cn": (1.7, 2.3)}
    for scheme, (lo, hi) in windows.items():
        diffs = [l2_norm_omega(_forced_final(scheme, m)
                               - _forced_final(scheme, 2 * m))
                 for m in (8, 16)]
        order = observed_orders(diffs)[0]
        assert lo <= order <= hi, f"{scheme}: order {order}"


def test_relaxation_to_stationary_flow():
    grid = build_grid(32)
    g = _lid(grid)
    stat = solve_boundary(grid, g).velocity
    traj = evolve(grid, TimeBoundaryData.constant(g), 1.0, 1.0 / 64,
                  scheme="euler")
    errs = np.array([l2_norm_omega(u - stat) for u in traj.velocities[1:]])
    # decay stalls at the solver floor; any late growth is rounding creep
    assert float(np.diff(errs).max()) <= 1e-11
    assert errs[-1] / l2_norm_omega(stat) <= 0.05


def test_bump_ramp_energy_decays_after_shutoff():
    grid = build_grid(16)
    tb = TimeBoundaryData.ramped(cavity_g(grid), bump_ramp(0.25, 0.5))
    traj = evolve(grid, tb, 1.0, 1.0 / 32, scheme="euler")
    norms = traj.norms()
    # data is identically zero from t = 1/2 (step 16) on
    tail = norms[17:]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert norms[-1] < 0.05 * norms.max()


def test_backward_march_matches_stationary_adjoint():
    grid = build_grid(16)
    u_rhs = solve_boundary(grid, rotation_data(grid)).velocity
    m = 32
    vels = [u_rhs for _ in range(m + 1)]
    traj = Trajectory(grid, "euler", 2.0 / m, np.arange(m + 1) * (2.0 / m),
                      vels, [None] * (m + 1))
    back = solve_adjoint_backward(grid, traj, scheme="euler")
    v_stat = solve_adjoint(grid, u_rhs).velocity
    gap = l2_norm_omega(back.velocities[0] - v_stat) / l2_norm_omega(v_stat)
    assert gap <= 1e-5
    assert l2_norm_omega(back.velocities[-1]) == 0.0


def test_spacetime_pairing_frozen():
    gaps = []
    indeps = []
    for n in (16, 32):
        grid = build_grid(n)
        tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.5))
        traj = evolve(grid, tb, 1.0, 1.0 / n, scheme="cn")
        s = grid.x_centers()
        probe = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s)
                                              for sd in SIDES})
        mod = final_zero_modulation(1.0)
        val = spacetime_pairing(traj, probe, mod)
        ref = spacetime_pairing_reference(tb, probe, mod, 1.0, 1.0 / n)
        gaps.append(abs(val - ref))
        indeps.append(spacetime_independence_gap(traj, mod, seed=5))
    assert indeps[1] < indeps[0]
    assert gaps[0] == pytest.approx(9.530e-2, rel=2e-3)
    assert gaps[1] == pytest.approx(1.871e-2, rel=2e-3)
    assert observed_orders(gaps)[0] >= 0.8


def test_spacetime_ratio_frozen_and_scale_invariant():
    grid = build_grid(32)
    g = _lid(grid)
    tb = TimeBoundaryData.ramped(g, smooth_ramp(0.5))
    ratio = spacetime_estimate_ratio(grid, tb, 1.0, 1.0 / 32, scheme="cn")
    assert ratio == pytest.approx(0.2803707568, rel=1e-3)
    tb3 = TimeBoundaryData.ramped(g * 3.0, smooth_ramp(0.5))
    ratio3 = spacetime_estimate_ratio(grid, tb3, 1.0, 1.0 / 32, scheme="cn")
    assert abs(ratio3 - ratio) <= 1e-8
    with pytest.raises(ZeroBoundaryData):
        spacetime_estimate_ratio(
            grid, TimeBoundaryData.constant(BoundaryData.zeros(grid)),
            1.0, 1.0 / 32)


def test_trapezoid_weights():
    w = trapezoid_weights(8, 0.125)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert w[0] == w[-1] == 0.0625
    assert np.allclose(w[1:-1], 0.125)


def test_spacetime_norms_of_constant_trajectory():
    grid = build_grid(16)
    u = VelocityField.from_functions(
        grid,
        lambda x, y: np.sin(np.pi * x) * y,
        lambda x, y: np.cos(np.pi * y) * x,
    )
    m, T = 10, 2.5
    traj = Trajectory(grid, "euler", T / m, np.arange(m + 1) * (T / m),
                      [u] * (m + 1), [None] * (m + 1))
    assert spacetime_velocity_norm(traj) == pytest.approx(
        l2_norm_omega(u) * np.sqrt(T), rel=1e-12)
    g = rotation_data(grid)
    tb = TimeBoundaryData.constant(g)
    from vws.boundary import l2_norm_gamma

    assert spacetime_boundary_norm(tb, T, T / m) == pytest.approx(
        l2_norm_gamma(g) * np.sqrt(T), rel=1e-12)
