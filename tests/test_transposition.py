import tracemalloc
import warnings

import numpy as np
import pytest

from vws.boundary import SIDES, cavity_g, cavity_g_eps, rotation_data
from vws import operators
from vws.errors import NonConvergence, UnderResolvedWarning, ZeroBoundaryData
from vws.grid import PressureField, VelocityField, build_grid, l2_norm_omega
from vws.manufactured import stationary_solution
from vws.stokes import solve_boundary
from vws.transposition import (
    adjoint_gradient_pairing,
    boundary_pressure,
    estimate_ratio,
    normal_derivative_on_gamma,
    solve_adjoint,
    transposition_identity,
)
from vws.experiments.report import orders

from support import count_saddle_solves, modules_binding, refuse, watch_transforms


def _lid(n, eps=0.1):
    grid = build_grid(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        return grid, cavity_g_eps(grid, eps)


def test_identity_rotation_frozen():
    gaps = []
    for n in (32, 64):
        grid = build_grid(n)
        g = rotation_data(grid)
        r = transposition_identity(grid, g, u=solve_boundary(grid, g).velocity)
        assert r["rhs"] == pytest.approx(r["term_q"] - r["term_dvdn"],
                                         abs=1e-14)
        gaps.append(r["rel_gap"])
    assert gaps[0] == pytest.approx(5.80400894007e-2, rel=1e-3)
    assert gaps[1] == pytest.approx(3.02995257767e-2, rel=1e-3)
    assert orders(gaps)[0] >= 0.8


def test_identity_lhs_is_velocity_norm():
    grid = build_grid(32)
    g = rotation_data(grid)
    sol = solve_boundary(grid, g)
    r = transposition_identity(grid, g, u=sol.velocity)
    assert r["lhs"] == pytest.approx(l2_norm_omega(sol.velocity) ** 2,
                                     rel=1e-12)


def test_identity_lid_frozen():
    grid, g = _lid(64)
    r = transposition_identity(grid, g, u=solve_boundary(grid, g).velocity)
    assert r["rel_gap"] == pytest.approx(7.11010530118e-2, rel=1e-3)


def test_estimate_ratio_frozen_and_zero_guard():
    grid, g = _lid(64)
    assert estimate_ratio(grid, g, sol=solve_boundary(grid, g)) == (
        pytest.approx(0.28414760985, rel=2e-3))
    from vws.boundary import BoundaryData

    zero = BoundaryData.zeros(grid)
    with pytest.raises(ZeroBoundaryData):
        estimate_ratio(grid, zero, sol=solve_boundary(grid, zero))


@pytest.mark.parametrize("functional, solves", [
    ("estimate_ratio", 0),
    ("spacetime_estimate_ratio", 0),
    ("transposition_identity", 1),
    ("adjoint_gradient_pairing", 1),
])
def test_functionals_measure_the_solution_they_are_given(monkeypatch,
                                                         functional, solves):
    # no functional solves or marches its own forward problem; the identity
    # and the gradient echo make their adjoint solve alone
    from vws.evolution import (TimeBoundaryData, evolve, smooth_ramp,
                               spacetime_estimate_ratio)

    grid = build_grid(16)
    g = rotation_data(grid)
    sol = solve_boundary(grid, g)
    tb = TimeBoundaryData.ramped(g, smooth_ramp(0.5))
    traj = evolve(grid, tb, 0.5, 0.125)
    calls = {
        "estimate_ratio": lambda: estimate_ratio(grid, g, sol=sol),
        "spacetime_estimate_ratio": lambda: spacetime_estimate_ratio(
            grid, tb, 0.5, 0.125, traj=traj),
        "transposition_identity": lambda: transposition_identity(
            grid, g, u=sol.velocity),
        "adjoint_gradient_pairing": lambda: adjoint_gradient_pairing(
            grid, sol.velocity),
    }
    solved = count_saddle_solves(monkeypatch)
    calls[functional]()
    assert len(solved) == solves


def test_adjoint_solves_homogeneous_problem():
    grid = build_grid(16)
    u = VelocityField.from_functions(
        grid,
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        lambda x, y: 0.0 * x,
    )
    sol = solve_adjoint(grid, u)
    # boundary faces at rest: the adjoint problem has zero boundary data
    assert np.abs(sol.velocity.u1[0, :]).max() == 0.0
    assert np.abs(sol.velocity.u2[:, -1]).max() == 0.0
    assert np.abs(sol.velocity.u1[-1, :]).max() == 0.0


def test_adjoint_of_a_solved_velocity_takes_no_forward_transform(monkeypatch):
    # the adjoint solve reads the forward solve's kept modes: no forward
    # transform (no module binds a 2-D one).  The identity's adjoint builds
    # no load of its zero boundary data, and solve_adjoint transforms no
    # kept forcing; a fresh hand-built copy of the same velocity is
    # transformed exactly once
    from vws.operators import SaddleInverse

    grid, g = _lid(32)
    g = g + rotation_data(grid)
    u = solve_boundary(grid, g).velocity
    fresh = VelocityField(grid, u.u1, u.u2)
    want = transposition_identity(grid, g, u=fresh)

    assert modules_binding(("dctn", "dstn", "idstn")) == []
    assert modules_binding(("dct", "idct", "idctn", "dst")) == ["vws.operators"]
    why = "forward transform or zero load in an adjoint solve"
    with monkeypatch.context() as m:
        refuse(m, operators, "laplacian_load", why)
        refuse(m, SaddleInverse, ("to_modes", "border_to_modes"), why)
        got = transposition_identity(grid, g, u=u)
    refuse(monkeypatch, SaddleInverse, "to_modes", "forward transform of a kept forcing")
    assert solve_adjoint(grid, u).velocity.modes is not None
    monkeypatch.undo()
    assert got["lhs"] == want["lhs"]
    assert got["rhs"] == pytest.approx(want["rhs"], rel=1e-12)

    calls = []
    to_modes = SaddleInverse.to_modes

    def counted(self, x):
        calls.append(1)
        return to_modes(self, x)

    monkeypatch.setattr(SaddleInverse, "to_modes", counted)
    solve_adjoint(grid, fresh)
    assert len(calls) == 1


@pytest.mark.parametrize("n", [16, 64, 256])
def test_identity_from_kept_modes_matches_transformed(n):
    # rotation data exercise the pressure term, the lid the tangential one;
    # lhs and rhs agree whether the adjoint is forced by the kept modes or by
    # the transform of the same velocity's faces
    grid, lid = _lid(n)
    g = lid + rotation_data(grid)
    u = solve_boundary(grid, g).velocity
    kept = transposition_identity(grid, g, u=u)
    fresh = transposition_identity(grid, g, u=VelocityField(grid, u.u1, u.u2))
    assert abs(kept["term_q"]) > 0.1 * abs(kept["term_dvdn"])
    for key in ("lhs", "rhs", "term_q", "term_dvdn"):
        assert abs(kept[key] - fresh[key]) <= 1e-12 * abs(fresh[key])


def _full_path_identity(grid, g, u):
    # the identity from the whole adjoint solution, its cell pressure
    # included, and the public extraction stencils
    adj = solve_adjoint(grid, u)
    dvdn = normal_derivative_on_gamma(adj.velocity)
    q_b = boundary_pressure(adj.pressure)
    term_dvdn = grid.h * sum(float(np.sum(g.samples[s] * dvdn.samples[s]))
                             for s in SIDES)
    term_q = grid.h * sum(float(np.sum(g.normal_part(s) * q_b[s])) for s in SIDES)
    return {"lhs": l2_norm_omega(u) ** 2, "rhs": term_q - term_dvdn,
            "term_q": term_q, "term_dvdn": term_dvdn}


def _record_2d_inverse_transforms(monkeypatch):
    # (transformed, defects): the arrays every 2-D inverse transform of the
    # package is called on, and the modes of D v that divergence_modes
    # returns for the velocity modes of a modal solve once that solve has
    # returned (the D w it takes inside solve_modes, for the data scale,
    # fills what becomes p's modes)
    transformed, defects, solved = [], [], []
    inv = operators.SaddleInverse
    solve_modes, divergence_modes = inv.solve_modes, inv.divergence_modes

    def recorded_solve(self, b_hat, *args, **kwargs):
        result = solve_modes(self, b_hat, *args, **kwargs)
        solved.append(b_hat)
        return result

    def recorded_divergence(self, w_hat, *args, **kwargs):
        dw = divergence_modes(self, w_hat, *args, **kwargs)
        if any(w_hat is v_hat for v_hat in solved):
            defects.append(dw)
        return dw

    def recorded_inverse(x, kind, axes):
        if kind == "idct" and not isinstance(axes, int):
            transformed.append(x)

    monkeypatch.setattr(inv, "solve_modes", recorded_solve)
    monkeypatch.setattr(inv, "divergence_modes", recorded_divergence)
    watch_transforms(monkeypatch, recorded_inverse)
    return transformed, defects


@pytest.mark.parametrize("n", [4, 5, 16, 17, 64, 256])
def test_identity_matches_full_adjoint_path(monkeypatch, n):
    # one modal saddle solve whose velocity and pressure stay in modes but
    # for their wall lines: no velocity transform, one 2-D inverse transform,
    # of D v for the defect check, and the values of the full path; at n = 4
    # and 5 the lines by opposite walls overlap
    grid, lid = _lid(n)
    g = lid + rotation_data(grid)
    u = solve_boundary(grid, g).velocity
    want = _full_path_identity(grid, g, u)
    refuse(monkeypatch, operators.SaddleInverse, ("from_modes", "to_cells"),
           "velocity transform in the identity")
    transformed, defects = _record_2d_inverse_transforms(monkeypatch)
    calls = count_saddle_solves(monkeypatch)
    got = transposition_identity(grid, g, u=u)
    assert len(calls) == 1
    [dv] = transformed
    assert dv.shape == (n, n) and any(dv is d for d in defects)
    assert abs(want["term_q"]) > 0.1 * abs(want["term_dvdn"])
    for key in ("lhs", "rhs", "term_q", "term_dvdn"):
        assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key])


@pytest.mark.parametrize("n", [4, 5, 16, 17, 64, 256])
def test_identity_adjoint_keeps_its_defect_check(monkeypatch, n):
    # the adjoint's divergence defect is checked in the cells as in every
    # solve; a miss carries the cell pressure of the full path
    grid, lid = _lid(n)
    g = lid + rotation_data(grid)
    u = solve_boundary(grid, g).velocity
    want = solve_adjoint(grid, u).pressure.p
    monkeypatch.setattr(operators, "DIV_TOL", 0.0)
    with pytest.raises(NonConvergence, match="divergence defect") as info:
        transposition_identity(grid, g, u=u)
    assert 0.0 < info.value.residual
    assert np.abs(info.value.best_x - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [17, 256])
def test_identity_adjoint_takes_its_working_set_in_one_block(n):
    # v, the modal stage's work, c and p are views of one allocation, 3.14 MB
    # at n = 256: glibc, freeing a block that large, lifts its trim threshold
    # to twice its size, above the heap top a steady-duality op leaves free
    # (5.89 MB), so the next op finds its heap in place instead of faulting
    # it in again (1251 minor faults per op with three arrays, none with one)
    grid, lid = _lid(n)
    u = solve_boundary(grid, lid + rotation_data(grid)).velocity
    inv = operators.saddle_inverses(grid, 0.0)
    v_hat, p_hat, _ = inv.solve_homogeneous_modes(inv.forcing_modes(u))
    assert v_hat.shape == (2 * (n - 1) * n,) and p_hat.shape == (n, n)
    assert v_hat.base is p_hat.base is not None
    assert v_hat.base.nbytes == 8 * (4 * (n - 1) * n + 2 * n * n)


def test_identity_peak_memory_stays_one_working_set():
    # one block holds what three arrays held: the peak of an identity call at
    # n = 256 is no more than with the three (3,335,552 B)
    grid, lid = _lid(256)
    g = lid + rotation_data(grid)
    u = solve_boundary(grid, g).velocity
    transposition_identity(grid, g, u=u)
    tracemalloc.start()
    try:
        transposition_identity(grid, g, u=u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_335_552


@pytest.mark.parametrize("n", [4, 17, 64])
def test_identity_reports_its_adjoint_defect(n):
    # the defect it checked, max|D v|, is at rounding level, within DIV_TOL
    # of the scale the adjoint solve reads: the cell RMS of D A^{-1} u
    grid, lid = _lid(n)
    g = lid + rotation_data(grid)
    u = solve_boundary(grid, g).velocity
    inv = operators.saddle_inverses(grid, 0.0)
    dw = inv.divergence_modes(inv.velocity_solve(u.modes.copy()))
    scale = float(np.linalg.norm(dw)) / n
    div_max = transposition_identity(grid, g, u=u)["adjoint_div_max"]
    assert 0.0 < div_max <= operators.DIV_TOL * scale


def test_solution_modes_are_read_only():
    grid = build_grid(16)
    sol = solve_boundary(grid, rotation_data(grid))
    adj = solve_adjoint(grid, sol.velocity)
    for modes in (sol.velocity.modes, adj.velocity.modes):
        with pytest.raises(ValueError, match="read-only"):
            modes[0, 1, 1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            modes *= 2.0


def test_normal_derivative_recovery_frozen():
    u1f, u2f, _ = stationary_solution()
    errs = []
    for n in (32, 64):
        grid = build_grid(n)
        v = VelocityField.from_functions(grid, u1f, u2f)
        dvdn = normal_derivative_on_gamma(v)
        x = grid.x_centers()
        exact = -2.0 * np.pi ** 2 * np.sin(np.pi * x) ** 2  # outward normal
        errs.append(np.abs(dvdn.tangential_part("bottom") - exact).max())
        assert np.abs(dvdn.normal_part("bottom")).max() <= 0.02
    assert errs[0] == pytest.approx(4.775010e-2, rel=1e-3)
    assert errs[1] == pytest.approx(1.190263e-2, rel=1e-3)
    assert orders(errs)[0] >= 1.9


def test_boundary_pressure_extrapolation_order():
    _, _, pf = stationary_solution()
    errs = []
    for n in (32, 64):
        grid = build_grid(n)
        p = PressureField.from_function(grid, pf)
        bp = boundary_pressure(p)
        x = grid.x_centers()
        errs.append(max(
            np.abs(bp["bottom"] - np.cos(np.pi * x)).max(),
            np.abs(bp["top"] + np.cos(np.pi * x)).max(),
            np.abs(bp["left"] - np.cos(np.pi * x)).max(),
            np.abs(bp["right"] + np.cos(np.pi * x)).max(),
        ))
    assert errs[0] == pytest.approx(3.600587e-3, rel=1e-3)
    assert orders(errs)[0] >= 1.9


# the distance to each side
_WALL_DISTANCE = {
    "bottom": lambda x, y: y,
    "right": lambda x, y: 1.0 - x,
    "top": lambda x, y: 1.0 - y,
    "left": lambda x, y: x,
}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("n", [8, 32])
def test_boundary_stencils_exact_on_every_side(side, n):
    # v = c d + e d^2 and p = a + b d in the distance d to the side: the
    # outward derivative is -c there and the wall pressure a
    grid = build_grid(n)
    d = _WALL_DISTANCE[side]
    c, e = np.array([0.7, -1.3]), np.array([2.1, 0.4])
    v = VelocityField.from_functions(
        grid,
        lambda x, y: c[0] * d(x, y) + e[0] * d(x, y) ** 2,
        lambda x, y: c[1] * d(x, y) + e[1] * d(x, y) ** 2,
    )
    dvdn = normal_derivative_on_gamma(v).samples[side]
    assert np.abs(dvdn + c).max() <= 1e-14
    p = PressureField.from_function(grid, lambda x, y: 0.3 - 1.7 * d(x, y))
    assert np.abs(boundary_pressure(p)[side] - 0.3).max() <= 1e-14


def test_gradient_echo_tangential_data():
    for n in (16, 32):
        grid = build_grid(n)
        u = solve_boundary(grid, cavity_g(grid)).velocity
        assert abs(adjoint_gradient_pairing(grid, u)) <= 1e-10
