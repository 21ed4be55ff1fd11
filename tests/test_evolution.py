import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vws.boundary import (BoundaryData, cavity_g, cavity_g_eps, l2_norm_gamma,
                          outward_normal_data, project_compatible, rotation_data,
                          smoothstep)
from vws.errors import (
    IncompatibleBoundaryData,
    NonConvergence,
    UnderResolvedWarning,
    ZeroBoundaryData,
)
from vws.evolution import (
    TimeBoundaryData,
    Trajectory,
    evolve,
    evolve_lifted,
    final_zero_modulation,
    smooth_ramp,
    solve_adjoint_backward,
    spacetime_boundary_norm,
    spacetime_boundary_pairing,
    spacetime_estimate_ratio,
    spacetime_pairing,
    spacetime_pairing_reference,
    spacetime_velocity_norm,
    trapezoid_weights,
)
from vws.grid import VelocityField, build_grid, l2_norm_omega
from vws.manufactured import time_dependent_forcing, time_dependent_solution
from vws.boundary import AXIS, SIDES, wall
from vws.stokes import solve_boundary, solve_saddle
from vws.operators import (apply_velocity_laplacian, divergence, laplacian_load,
                           saddle_inverses)
from vws.traces import TangentialBoundaryData, lift_tangential, pairing_with_field
from vws.transposition import solve_adjoint
from vws.experiments.report import orders

from support import count_saddle_solves, modules_binding, refuse, watch_transforms


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


def test_time_boundary_data_modes():
    grid = build_grid(8)
    g = rotation_data(grid)
    tb = TimeBoundaryData.ramped(g, smooth_ramp(0.5))
    assert tb.grid is grid
    gk = tb.at(8, 1.0 / 32)            # t = 0.25, ramp = 1/2
    assert np.allclose(gk.samples["top"], 0.5 * g.samples["top"])
    gc = TimeBoundaryData.constant(g).at(5, 0.1)
    for side in SIDES:
        assert np.array_equal(gc.samples[side], g.samples[side])


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


def test_slice_with_net_flux_rejected(monkeypatch):
    # slice 0 is zero, slice 1 the outward normal data; the march builds
    # and checks g's right side once, before its first step, so the data
    # are refused with no step run and no step named, whatever the ramp:
    # zero slices up to t = 1/4 are refused as early
    calls = count_saddle_solves(monkeypatch)
    grid = build_grid(8)
    tb = TimeBoundaryData.ramped(outward_normal_data(grid), lambda t: t)
    late = TimeBoundaryData.ramped(outward_normal_data(grid),
                                   lambda t: max(t - 0.25, 0.0))
    for scheme in ("euler", "cn"):
        for data, dt in ((tb, 1.0), (late, 0.125)):
            with pytest.raises(IncompatibleBoundaryData,
                               match=r"^net boundary flux is"):
                evolve(grid, data, 1.0, dt, scheme=scheme)
    assert calls == []


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


def test_march_takes_one_modal_solve_per_step(monkeypatch):
    # a forward plus backward Crank-Nicolson march of m steps is 2m modal
    # saddle solves, with no warm start
    calls = count_saddle_solves(monkeypatch)
    grid = build_grid(16)
    m = 8
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.25))
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme="cn")
    back = solve_adjoint_backward(grid, traj)
    assert len(calls) == 2 * m
    assert [d["step"] for d in traj.diagnostics] == list(range(1, m + 1))
    assert [d["step"] for d in back.diagnostics] == list(range(m))
    assert all(d["outer_iterations"] == 1 for d in traj.diagnostics)


@pytest.mark.parametrize("scheme, ramp, loads", [
    ("euler", lambda t: 1.0, 1), ("cn", lambda t: 1.0, 2),
    ("cn", smooth_ramp(0.25), 1), ("euler", lambda t: 0.0, 0),
    ("cn", lambda t: 0.0, 0)])
def test_march_builds_each_right_side_of_g_once(monkeypatch, scheme, ramp,
                                                loads):
    # loads right sides of g enter a step with a nonzero ramp factor: the
    # load of g, and with r_0 != 0 the tangential start of Crank-Nicolson.
    # Each is built once, and the load of g before the first step whatever
    # the ramp, so a ramp that is zero throughout builds it too; the
    # backward march, with no boundary data, builds none
    from vws.operators import SaddleInverse

    calls = []
    right_side = SaddleInverse.right_side

    def counted(self, *args, **kwargs):
        calls.append(1)
        return right_side(self, *args, **kwargs)

    monkeypatch.setattr(SaddleInverse, "right_side", counted)
    grid = build_grid(16)
    tb = TimeBoundaryData.ramped(rotation_data(grid), ramp)
    traj = evolve(grid, tb, 0.5, 0.125, scheme=scheme)
    assert len(calls) == max(loads, 1)
    solve_adjoint_backward(grid, traj)
    assert len(calls) == max(loads, 1)


@pytest.mark.parametrize("scheme", ["euler", "cn"])
@pytest.mark.parametrize("m", [1, 3, 8])
def test_march_brings_every_step_back_in_one_inverse_transform(monkeypatch,
                                                               scheme, m):
    # each step is one modal solve; the cell stage then takes the whole
    # march to the cells in one stacked inverse transform pair per velocity
    # component, whose sine axis is one call of the transform helper on a
    # stack of steps, in the component's own layout
    transforms = []

    def counted(x, kind, axes):
        if x.ndim == 3 and kind == "dst":
            transforms.append(x.shape[1:])

    watch_transforms(monkeypatch, counted)
    calls = count_saddle_solves(monkeypatch)
    grid = build_grid(16)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.25))
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme)
    pair = [(15, 16), (16, 15)]
    assert (len(calls), sorted(transforms)) == (m, pair)
    back = solve_adjoint_backward(grid, traj)
    assert (len(calls), sorted(transforms)) == (2 * m, sorted(2 * pair))
    for diag in traj.diagnostics + back.diagnostics:
        assert set(diag) == {"outer_iterations", "div_max", "wall_time", "step"}
        assert diag["wall_time"] > 0.0


def test_cell_stage_of_a_stack_matches_one_row_at_a_time():
    # the batched cell stage, over several buffer chunks (8 rows at n = 64),
    # gives each row the faces and the defect of its own k = 1 stage, bit
    # for bit, with its own factor times g's normal samples on its wall faces
    n, k = 64, 19
    grid = build_grid(n)
    inv = saddle_inverses(grid, 4.0)
    rng = np.random.default_rng(3)
    u12 = np.empty((k, 2 * n * (n + 1)))
    x, u1, u2 = inv.cell_views(u12)
    x[...] = rng.standard_normal(x.shape)
    rows, blank = u12.copy(), u12[:1].copy()
    g = BoundaryData(grid, {side: rng.standard_normal((n, 2)) for side in SIDES})
    rho = rng.standard_normal(k)
    defects = inv.to_cells(u12, g, rho)
    for i in range(k):
        one = rows[i:i + 1]
        d = inv.to_cells(one, g, rho[i:i + 1])
        assert np.array_equal(one[0], u12[i]) and d[0] == defects[i]
    assert np.all(defects > 0.0)
    _, b1, b2 = inv.cell_views(blank)
    inv.to_cells(blank, None, ())
    for side in SIDES:
        a = AXIS[side]
        assert np.array_equal(wall((u1, u2)[a], side),
                              np.multiply.outer(rho, g.samples[side][:, a]))
        # no data: zero wall faces
        assert not wall((b1, b2)[a], side).any()


@pytest.mark.parametrize("scheme", ["euler", "cn"])
@pytest.mark.parametrize("m", [3, 8])
def test_each_step_reports_the_defect_of_the_velocity_it_returns(scheme, m):
    # every step's div_max is max|D u| of the velocity that step returns,
    # bit for bit, forward and backward; a ramp with r_0 != 0 runs the
    # Crank-Nicolson tangential start
    grid = build_grid(16)
    tb = TimeBoundaryData.ramped(rotation_data(grid), lambda t: 0.5 + t * t)
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme)
    back = solve_adjoint_backward(grid, traj)
    for march, steps in ((traj, range(1, m + 1)), (back, range(m))):
        assert [d["step"] for d in march.diagnostics] == list(steps)
        for d in march.diagnostics:
            u = march.velocities[d["step"]]
            assert d["div_max"] == np.abs(divergence(u).p).max()
    assert traj.norms()[-1] > 0.01 and back.norms()[0] > 0.0


def _zero_div_tol(monkeypatch):
    from vws import operators

    monkeypatch.setattr(operators, "DIV_TOL", 0.0)


@pytest.mark.parametrize("scheme", ["euler", "cn"])
def test_march_defect_miss_raises_at_its_first_step(monkeypatch, scheme):
    # with no defect allowed every step misses: the first one raises, named
    # with its place in the march, carrying its defect and the faces of the
    # velocity it returns (u^1 forward, v^(m-1) backward), as no cell
    # pressure is formed
    grid, m = build_grid(16), 8
    tb = TimeBoundaryData.ramped(rotation_data(grid), lambda t: 0.5 + t * t)
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme)
    back = solve_adjoint_backward(grid, traj)
    with monkeypatch.context() as mp:
        _zero_div_tol(mp)
        for march, where, want in (
                (lambda: evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme),
                 "forward step 1/8 (t=0.0625)", traj.velocities[1]),
                (lambda: solve_adjoint_backward(grid, traj),
                 "backward step 1/8 (t=0.4375)", back.velocities[m - 1])):
            with pytest.raises(NonConvergence) as info:
                march()
            assert str(info.value).startswith(f"{where}: saddle solve: divergence defect")
            z1, z2 = info.value.best_x
            assert np.array_equal(z1, want.u1) and np.array_equal(z2, want.u2)
            assert info.value.residual == np.abs(divergence(want).p).max() > 0.0
            assert info.value.iterations == 1


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_march_raises_at_the_step_that_goes_wrong(monkeypatch, backward, bad):
    # a NaN velocity at step 3 misses the defect check there, not at a later
    # step; a non-finite data scale at step 3 ends the march at that step,
    # with no later step solved
    from vws.operators import SaddleInverse

    grid, m = build_grid(16), 8
    tb = TimeBoundaryData.constant(rotation_data(grid))
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme="cn")
    solve_modes = SaddleInverse.solve_modes
    calls = []

    def spoiled(self, b_hat, *args):
        calls.append(1)
        p, scale, steps = solve_modes(self, b_hat, *args)
        if len(calls) == 3 and bad == "nan":
            self.components(b_hat)[0][2, 2] = np.nan
        return p, np.inf if len(calls) == 3 and bad == "inf" else scale, steps

    monkeypatch.setattr(SaddleInverse, "solve_modes", spoiled)
    direction = "backward" if backward else "forward"
    with pytest.raises(NonConvergence, match=f"^{direction} step 3/8 "):
        if backward:
            solve_adjoint_backward(grid, traj)
        else:
            evolve(grid, tb, 0.5, 0.5 / m, scheme="cn")
    assert len(calls) == (3 if bad == "inf" else m)


def test_march_makes_no_2d_transform(monkeypatch):
    # the boundary data enter every step through the border modes of g,
    # built once per march, the velocity's modes are carried between steps
    # and the steps' pressures stay in their modes; the backward march of a
    # marched trajectory reads its modes.  Nothing of an unforced march or of
    # that backward march goes through a 2-D transform; no module binds a
    # 2-D forward one, and every transform goes through operators
    from vws.operators import SaddleInverse

    assert modules_binding(("dctn", "dstn", "idstn")) == []
    assert modules_binding(("dct", "idct", "idctn", "dst")) == ["vws.operators"]
    why = "2-D transform in a march"

    def one_axis(x, kind, axes):
        if not isinstance(axes, int):
            raise AssertionError(why)

    watch_transforms(monkeypatch, one_axis)
    refuse(monkeypatch, SaddleInverse, "to_modes", why)
    grid, m = build_grid(16), 8
    tb = TimeBoundaryData.ramped(rotation_data(grid), lambda t: 0.5 + t * t)
    for scheme in ("euler", "cn"):
        traj = evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme)
        assert traj.norms()[-1] > 0.01
        back = solve_adjoint_backward(grid, traj)
        assert back.norms()[0] > 0.0
        assert traj.pressures == back.pressures == [None] * (m + 1)


def _march_bytes(n, m, stacks):
    # m + 1 cell rows, the 2 (n - 1) n mode blocks and c_hat
    return 8 * ((m + 1) * 2 * n * (n + 1) + stacks * 2 * (n - 1) * n + n * n)


def _bases(traj):
    # of every face array and every kept mode stack but the zero start's,
    # which takes no memory
    return ({id(a.base) for u in traj.velocities for a in (u.u1, u.u2)}
            | {id(u.modes.base) for u in traj.velocities[1:] if u.modes is not None})


@pytest.mark.parametrize("n, m, scheme", [(64, 16, "cn"), (17, 5, "euler")])
def test_march_takes_its_working_set_in_one_block(n, m, scheme):
    # the cells, the kept modes and the scratch a march writes are views of
    # one allocation, 2.26 MB at (64, 16): glibc, freeing a block that large,
    # lifts its trim threshold above the heap top an unsteady-adjoint op
    # leaves free, so the next op finds its heap in place instead of faulting
    # it in again (948 minor faults per op with an array a step, none with
    # one block).  Forward: m z stacks and the boundary scratch; backward:
    # two alternating z stacks and no scratch, its forcing the kept modes
    grid = build_grid(n)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(m / 256))
    traj = evolve(grid, tb, m / 128, 1 / 128, scheme=scheme)
    u = traj.velocities[1]
    assert u.u1.base is u.u2.base is u.modes.base
    assert _bases(traj) == {id(u.u1.base)}
    assert u.u1.base.nbytes == _march_bytes(n, m, m + 1)
    assert np.all(traj.velocities[0].u1 == 0.0) and np.all(traj.velocities[0].u2 == 0.0)
    for back in (solve_adjoint_backward(grid, traj),
                 solve_adjoint_backward(grid, _hand_built(traj))):
        v = back.velocities[0]
        assert _bases(back) == {id(v.u1.base)}
        assert v.u1.base.nbytes == _march_bytes(n, m, 2)
    # a forced march adds the forcing's two stacks
    forced = evolve_lifted(grid, tb, m / 128, 1 / 128, scheme=scheme,
                           force=_force(grid))
    assert forced.final().u1.base.nbytes == _march_bytes(n, m, m + 3)


def test_march_peak_memory_stays_within_the_separate_arrays():
    # the block holds only what a march writes, so a trajectory keeps no
    # dead scratch: the tracemalloc peak of a march and its backward march at
    # (64, 16) is no more than with an array a step (4,290,651 B, the lowest
    # of four pytest runs; this layout reads about 4.26 MB)
    grid = build_grid(64)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(1 / 16))

    def both():
        solve_adjoint_backward(grid, evolve(grid, tb, 1 / 8, 1 / 128, scheme="cn"))

    both()
    tracemalloc.start()
    try:
        both()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_290_651


def _hand_built(traj):
    """The same velocities in a Trajectory built without the march: fresh
    fields, which keep no modes."""
    velocities = [VelocityField(traj.grid, u.u1, u.u2) for u in traj.velocities]
    return Trajectory(traj.grid, traj.scheme, traj.dt, velocities)


@pytest.mark.parametrize("scheme", ["euler", "cn"])
def test_backward_march_transforms_each_forcing_node_once(monkeypatch, scheme):
    # a marched trajectory's velocities hand their modes to the backward
    # march, which then transforms nothing; a hand-built one is transformed
    # once per node, the two Crank-Nicolson steps that read a node sharing
    # its modes
    from vws.operators import SaddleInverse

    grid, m = build_grid(16), 8
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.25))
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme)
    calls = []
    to_modes = SaddleInverse.to_modes

    def counted(self, x):
        calls.append(1)
        return to_modes(self, x)

    monkeypatch.setattr(SaddleInverse, "to_modes", counted)
    solve_adjoint_backward(grid, traj)
    assert len(calls) == 0
    solve_adjoint_backward(grid, _hand_built(traj))
    assert 0 < len(calls) <= m + 1


@pytest.mark.parametrize("scheme", ["euler", "cn"])
@pytest.mark.parametrize("n", [16, 64, 128, 129])
def test_kept_modes_are_those_of_the_velocities(n, scheme):
    # the backward march forced by the kept modes is the one forced by the
    # transforms of the same velocities, and each kept mode is that transform;
    # n = 129 takes scipy's sine transform, the rest the basis product
    from vws.operators import saddle_inverses

    grid, m = build_grid(n), 8
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.25))
    traj = evolve(grid, tb, 0.5, 0.5 / m, scheme=scheme)
    inv = saddle_inverses(grid, 0.0)
    for u in traj.velocities:
        want = inv.forcing_modes(u.interior())
        assert np.abs(u.modes - want).max() <= 1e-13 * np.abs(want).max()
    got = solve_adjoint_backward(grid, traj)
    ref = solve_adjoint_backward(grid, _hand_built(traj))
    for v, w in zip(got.velocities, ref.velocities):
        _close(v, (w.u1, w.u2), 1e-13)
    # the backward march's own fields keep no modes
    assert all(v.modes is None for v in got.velocities)


def test_marched_fields_are_read_only():
    # the backward march reads the kept modes in place, so neither they nor
    # the velocities they mirror may change after the march
    grid = build_grid(8)
    tb = TimeBoundaryData.constant(rotation_data(grid))
    traj = evolve(grid, tb, 0.5, 0.125, scheme="cn")
    u = traj.velocities[2]
    for a in (u.u1, u.u2, u.modes):
        with pytest.raises(ValueError, match="read-only"):
            a[1, 1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0


def test_hand_built_non_finite_velocity_raises_value_error():
    # a velocity without modes is transformed through the checked forcing
    # path, so a NaN in it is a ValueError naming the data, not a
    # NonConvergence from the solve that meets it
    grid = build_grid(8)
    traj = evolve(grid, TimeBoundaryData.constant(rotation_data(grid)), 0.5,
                  0.125)
    hand = _hand_built(traj)
    u1 = hand.velocities[2].u1.copy()
    u1[3, 3] = np.nan
    hand.velocities[2] = VelocityField(grid, u1, hand.velocities[2].u2)
    with pytest.raises(ValueError, match="non-finite"):
        solve_adjoint_backward(grid, hand)


def test_euler_steps_match_per_step_saddle_solves():
    # each forced implicit Euler step, forward and backward, is the saddle
    # solve at shift 1/dt of u^k/dt plus the forcing and the data at t_{k+1}
    grid = build_grid(16)
    T, m = 0.7, 8
    dt = T / m
    tb = TimeBoundaryData.ramped(rotation_data(grid), lambda t: 0.5 + t * t)
    force = _force(grid)
    traj = evolve_lifted(grid, tb, T, dt, scheme="euler", force=force)
    s = 1.0 / dt
    for k in range(m):
        (u1, u2), (f1, f2) = traj.velocities[k].interior(), force((k + 1) * dt)
        ref = solve_saddle(grid, tb.at(k + 1, dt), (s * u1 + f1, s * u2 + f2),
                           shift=s)[:2]
        _close(traj.velocities[k + 1], ref, 1e-12)
    back = solve_adjoint_backward(grid, traj)
    zero = BoundaryData.zeros(grid)
    for k in range(m - 1, -1, -1):
        (v1, v2), (f1, f2) = (back.velocities[k + 1].interior(),
                              traj.velocities[k].interior())
        ref = solve_saddle(grid, zero, (s * v1 + f1, s * v2 + f2),
                           shift=s)[:2]
        _close(back.velocities[k], ref, 1e-12)


def _trapezoid_step(grid, dt, u, g, f1, f2, g_next):
    """One Crank-Nicolson step in trapezoid form: the saddle solve at shift
    2/dt of (2/dt - A) u + load + f, where the explicit half step loads u's
    wall normals and g's tangents."""
    data = {side: g.samples[side].copy() for side in SIDES}
    for side in SIDES:
        data[side][:, AXIS[side]] = wall((u.u1, u.u2)[AXIS[side]], side)
    b1, b2 = laplacian_load(grid, BoundaryData(grid, data))
    r1, r2 = apply_velocity_laplacian(grid, *u.interior())
    (v1, v2), s = u.interior(), 2.0 / dt
    return solve_saddle(grid, g_next, (s * v1 - r1 + b1 + f1,
                                       s * v2 - r2 + b2 + f2), shift=s)[:2]


def _close(got, ref, rel):
    for a, b in zip((got.u1, got.u2), ref):
        assert np.abs(a - b).max() <= rel * np.abs(b).max()


def test_first_cn_step_takes_no_wall_normals():
    # every Crank-Nicolson step, forward and backward, is the trapezoid step
    # of the previous velocity.  The zero start's wall faces hold no normal
    # values, so the first step sees only the tangential values of g(0); no
    # other test tells that from a step that loads all of g(0).  From then
    # on each velocity's wall faces are exactly the normal samples of its
    # slice, written from r_{k+1}
    grid = build_grid(16)
    T, m = 0.7, 8
    dt = T / m
    tb = TimeBoundaryData.ramped(rotation_data(grid), lambda t: 0.5 + t * t)
    force = _force(grid)
    traj = evolve_lifted(grid, tb, T, dt, scheme="cn", force=force)
    for k in range(m):
        f1, f2 = (a + b for a, b in zip(force(k * dt), force((k + 1) * dt)))
        ref = _trapezoid_step(grid, dt, traj.velocities[k], tb.at(k, dt),
                              f1, f2, tb.at(k + 1, dt))
        _close(traj.velocities[k + 1], ref, 1e-12)
        u, gk = traj.velocities[k + 1], tb.at(k + 1, dt)
        for side in SIDES:
            a = AXIS[side]
            assert np.array_equal(wall((u.u1, u.u2)[a], side),
                                  gk.samples[side][:, a])
    back = solve_adjoint_backward(grid, traj)
    zero = BoundaryData.zeros(grid)
    for k in range(m - 1, -1, -1):
        f1, f2 = (a + b for a, b in zip(traj.velocities[k].interior(),
                                        traj.velocities[k + 1].interior()))
        ref = _trapezoid_step(grid, dt, back.velocities[k + 1], zero, f1, f2,
                              zero)
        _close(back.velocities[k], ref, 1e-12)


@pytest.mark.parametrize("scheme", ["euler", "cn"])
def test_march_takes_a_velocity_forcing_as_its_pair(scheme):
    # force(t) may return a velocity, as the f of solve_homogeneous may be:
    # it once died with "'VelocityField' object is not iterable".  A field
    # without modes forces through its interior faces, so the two marches
    # agree bit for bit
    grid = build_grid(16)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.25))
    force = _force(grid)
    field = lambda t: VelocityField.from_interior(grid, *force(t))
    pair = evolve_lifted(grid, tb, 0.5, 0.0625, scheme=scheme, force=force)
    vel = evolve_lifted(grid, tb, 0.5, 0.0625, scheme=scheme, force=field)
    assert pair.norms()[-1] > 0.01
    for u, w in zip(pair.velocities, vel.velocities):
        for a, b in ((u.u1, w.u1), (u.u2, w.u2), (u.modes, w.modes)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", ["euler", "cn"])
def test_march_rejects_non_finite_forcing(scheme):
    # the march transforms its forcing itself; a NaN must not come back as a
    # NaN trajectory
    grid = build_grid(16)
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    force = _force(grid)

    def bad(t):
        f1, f2 = force(t)
        if t > 0.1:
            f2[3, 4] = np.nan
        return f1, f2

    with pytest.raises(ValueError, match="non-finite"):
        evolve_lifted(grid, tb, 0.25, 0.0625, scheme=scheme, force=bad)


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
        order = orders(diffs)[0]
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
    # C2 bump: rises on [0, 1/4], falls back to zero on [1/4, 1/2]
    grid = build_grid(16)
    tb = TimeBoundaryData.ramped(
        cavity_g(grid), lambda t: smoothstep(t / 0.25) * smoothstep((0.5 - t) / 0.25))
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
    traj = Trajectory(grid, "euler", 2.0 / m, vels)
    back = solve_adjoint_backward(grid, traj)
    v_stat = solve_adjoint(grid, u_rhs).velocity
    gap = l2_norm_omega(back.velocities[0] - v_stat) / l2_norm_omega(v_stat)
    assert gap <= 1e-5
    assert l2_norm_omega(back.velocities[-1]) == 0.0


def _dot_h(h, a, b):
    return h * h * sum(float(np.vdot(x, y)) for x, y in zip(a, b))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 16]),
       m=st.integers(2, 6), scheme=st.sampled_from(["euler", "cn"]))
def test_backward_march_is_the_exact_discrete_adjoint(seed, n, m, scheme):
    # the forward march with random interior forcing F and zero data, and the
    # backward march forced by its velocities u, satisfy
    #   Euler: sum_{k=1..m} <F^k, v^k>_h = sum_{k=1..m-1} |u^k|_h^2
    #   CN:    sum_{k=1..m} <F^{k-1} + F^k, v^k>_h
    #              = sum_{k=1..m-1} <u^k, u^k + u^{k+1}>_h
    # to rounding, at a dt that is no power of two
    grid, T = build_grid(n), 0.7
    dt = T / m
    rng = np.random.default_rng(seed)
    F = [(rng.standard_normal((n - 1, n)), rng.standard_normal((n, n - 1)))
         for _ in range(m + 1)]
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    traj = evolve_lifted(grid, tb, T, dt, scheme=scheme,
                         force=lambda t: F[round(t / dt)])
    back = solve_adjoint_backward(grid, traj)
    u = [x.interior() for x in traj.velocities]
    v = [x.interior() for x in back.velocities]
    w = u
    if scheme == "cn":
        add = lambda a, b: tuple(x + y for x, y in zip(a, b))
        F = [None] + [add(F[k - 1], F[k]) for k in range(1, m + 1)]
        w = [None] + [add(u[k], u[k + 1]) for k in range(1, m)]
    h = grid.h
    norm = lambda a: np.sqrt(_dot_h(h, a, a))
    lhs = sum(_dot_h(h, F[k], v[k]) for k in range(1, m + 1))
    rhs = sum(_dot_h(h, u[k], w[k]) for k in range(1, m))
    # each term bounded by Cauchy-Schwarz
    scale = (sum(norm(F[k]) * norm(v[k]) for k in range(1, m + 1))
             + sum(norm(u[k]) * norm(w[k]) for k in range(1, m)))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_spacetime_pairing_frozen():
    gaps = []
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
    assert gaps[0] == pytest.approx(1.1024e-1, rel=2e-3)
    assert gaps[1] == pytest.approx(2.8886e-2, rel=2e-3)
    assert orders(gaps)[0] >= 1.9


def _per_step_pairing(traj, v, modulation):
    """sum_k e_k (dt P(w^k, v) - <u^{k+1} - u^k, v>_h), one step at a time:
    step k tested with dt e_k v, where w^k is the velocity the step solves
    for (u^{k+1} for Euler, the mean of u^k and u^{k+1} for Crank-Nicolson),
    e_k the modulation there (m_{k+1}, or the mean of m_k and m_{k+1}) and
    P the pairing with the built field v."""
    h, dt = traj.grid.h, traj.dt
    m = [float(modulation(t)) for t in traj.times]
    total = 0.0
    for k, (u0, u1) in enumerate(zip(traj.velocities, traj.velocities[1:])):
        if traj.scheme == "cn":
            e, w = 0.5 * (m[k] + m[k + 1]), (u0 + u1) * 0.5
        else:
            e, w = m[k + 1], u1
        du = [a - b for a, b in zip(u1.interior(), u0.interior())]
        mass = h * h * sum(float(np.sum(a * b)) for a, b in zip(du, v.interior()))
        total += e * (dt * pairing_with_field(w, v) - mass)
    return total


@pytest.mark.parametrize("scheme", ["euler", "cn"])
@pytest.mark.parametrize("n", [16, 32])
def test_spacetime_functionals_match_per_step_pairing(scheme, n):
    # the time sums carry the wall faces of the rotation data along; the
    # pairing must equal the step-by-step sums to rounding
    grid = build_grid(n)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.5))
    traj = evolve(grid, tb, 1.0, 1.0 / n, scheme=scheme)
    assert np.abs(traj.velocities[-1].u1[0]).max() > 0.1
    s = grid.x_centers()
    probe = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s) + 0.3
                                          for sd in SIDES})
    for mod in (final_zero_modulation(1.0),
                lambda t: np.cos(0.5 * np.pi * t)):
        ref = -_per_step_pairing(traj, lift_tangential(probe), mod)
        assert spacetime_pairing(traj, probe, mod) == pytest.approx(
            ref, rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 3, 8]),
       scheme=st.sampled_from(["euler", "cn"]))
def test_spacetime_pairing_of_a_march_is_its_boundary_sum(seed, m, scheme):
    # summed by parts over the scheme's own steps, the space-time pairing of
    # a march of r(t) g is -(sum_k b_k r_k) B(g, g1) to rounding, for random
    # compatible g, a ramp that need not start at zero, a random tangential
    # g1 and a random modulation vanishing at T, at a dt no power of two
    grid, T = build_grid(8), 0.7
    rng = np.random.default_rng(seed)
    g = project_compatible(BoundaryData(
        grid, {sd: rng.standard_normal((8, 2)) for sd in SIDES}))
    c = rng.standard_normal(6)
    tb = TimeBoundaryData.ramped(g, lambda t: c[0] + c[1] * t + c[2] * t * t)
    mod = lambda t: (1.0 - t / T) * (c[3] + c[4] * t + np.cos(c[5] * t))
    g1 = TangentialBoundaryData(grid, {sd: rng.standard_normal(8) for sd in SIDES})
    traj = evolve(grid, tb, T, T / m, scheme=scheme)
    exact = spacetime_boundary_pairing(tb, g1, mod, T, T / m, scheme)
    # bounds the sum term by term: |b|_1 <= T max|m|, |B| <= |g|_Gamma |g1|_Gamma
    t = traj.times
    g1_norm = np.sqrt(grid.h * sum(float(np.sum(p ** 2)) for p in g1.profiles.values()))
    scale = (T * np.abs(mod(t)).max() * np.abs(tb.ramp_samples(m, T / m)).max()
             * l2_norm_gamma(g) * g1_norm)
    assert abs(spacetime_pairing(traj, g1, mod) - exact) <= 1e-12 * scale


def test_spacetime_pairing_builds_no_lift(monkeypatch):
    from vws import traces

    grid = build_grid(32)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.5))
    traj = evolve(grid, tb, 1.0, 1.0 / 32, scheme="cn")
    s = grid.x_centers()
    probe = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s)
                                          for sd in SIDES})
    mod = final_zero_modulation(1.0)
    ref = -_per_step_pairing(traj, lift_tangential(probe), mod)

    refuse(monkeypatch, traces, "stream_curl", "spacetime_pairing built a lift")
    assert spacetime_pairing(traj, probe, mod) == pytest.approx(ref, rel=1e-13)


def test_spacetime_ratio_frozen_and_scale_invariant():
    grid = build_grid(32)
    g = _lid(grid)
    tb = TimeBoundaryData.ramped(g, smooth_ramp(0.5))
    traj = evolve(grid, tb, 1.0, 1.0 / 32, scheme="cn")
    ratio = spacetime_estimate_ratio(grid, tb, 1.0, 1.0 / 32, traj=traj)
    assert ratio == pytest.approx(0.2803707568, rel=1e-3)
    tb3 = TimeBoundaryData.ramped(g * 3.0, smooth_ramp(0.5))
    traj3 = evolve(grid, tb3, 1.0, 1.0 / 32, scheme="cn")
    ratio3 = spacetime_estimate_ratio(grid, tb3, 1.0, 1.0 / 32, traj=traj3)
    assert abs(ratio3 - ratio) <= 1e-8
    zero = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    with pytest.raises(ZeroBoundaryData):
        spacetime_estimate_ratio(grid, zero, 1.0, 1.0 / 32,
                                 traj=evolve(grid, zero, 1.0, 1.0 / 32))


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
    traj = Trajectory(grid, "euler", T / m, [u] * (m + 1))
    assert spacetime_velocity_norm(traj) == pytest.approx(
        l2_norm_omega(u) * np.sqrt(T), rel=1e-12)
    g = rotation_data(grid)
    tb = TimeBoundaryData.constant(g)
    from vws.boundary import l2_norm_gamma

    assert spacetime_boundary_norm(tb, T, T / m) == pytest.approx(
        l2_norm_gamma(g) * np.sqrt(T), rel=1e-12)
