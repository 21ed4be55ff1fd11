"""Typed errors at the public entry points.

Each entry point returns finite values or raises ValueError (ZeroBoundaryData
is one) or NonConvergence: never an IndexError, a KeyError, an OverflowError
or a numpy broadcasting error, and never a silent wrong value.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vws.biharmonic import solve_biharmonic
from vws.boundary import (SIDES, BoundaryData, cavity_g, cavity_g_eps,
                          corner_variant, l2_norm_gamma, sigma)
from vws.errors import NonConvergence, ZeroBoundaryData
from vws.evolution import (
    TimeBoundaryData,
    Trajectory,
    evolve,
    evolve_lifted,
    final_zero_modulation,
    smooth_ramp,
    solve_adjoint_backward,
    spacetime_boundary_norm,
    spacetime_estimate_ratio,
    spacetime_independence_gap,
    spacetime_pairing,
    spacetime_pairing_reference,
)
from vws.grid import VelocityField, build_grid, l2_norm_omega
from vws.operators import stream_curl
from vws.stokes import (residual_report, solve_boundary, solve_homogeneous,
                        solve_saddle)
from vws.traces import TangentialBoundaryData, pairing_L, pairing_with_field
from vws.transposition import estimate_ratio, transposition_identity

DT = 0.125


@lru_cache(maxsize=None)
def _solution(n):
    grid = build_grid(n)
    return solve_boundary(grid, cavity_g(grid))


def _velocity(n):
    return _solution(n).velocity


@lru_cache(maxsize=None)
def _trajectory(n, steps):
    grid = build_grid(n)
    tb = TimeBoundaryData.ramped(cavity_g(grid), smooth_ramp(0.25))
    return evolve(grid, tb, steps * DT, DT, scheme="cn")


def _probe(n):
    return TangentialBoundaryData(build_grid(n), {"top": np.ones(n)})


# --- one test per defect ------------------------------------------------------

def test_boundary_data_names_unknown_and_missing_sides():
    grid = build_grid(8)
    with pytest.raises(ValueError, match="unknown \\['north'\\]"):
        BoundaryData(grid, {"north": np.zeros((8, 2))})
    three = {s: np.zeros((8, 2)) for s in SIDES[:3]}
    with pytest.raises(ValueError, match="missing \\['left'\\]"):
        BoundaryData(grid, three)


def test_tangential_data_rejects_unknown_sides_and_zeros_missing_ones():
    grid = build_grid(8)
    with pytest.raises(ValueError, match="unknown \\['north'\\]"):
        TangentialBoundaryData(grid, {"north": np.ones(8)})
    top = TangentialBoundaryData(grid, {"top": np.ones(8)})
    assert all(not top.profiles[s].any() for s in ("bottom", "right", "left"))


_BOUNDARY_CHECKS = {
    "BoundaryData_shape": (
        lambda: BoundaryData(build_grid(8), {s: np.zeros((8, 3)) for s in SIDES}),
        ValueError, "side 'bottom': expected shape \\(8, 2\\), got \\(8, 3\\)"),
    "build_grid_non_integer": (
        lambda: build_grid(8.0), ValueError, "cell count must be an integer, got 8.0"),
    "stream_curl_shape": (
        lambda: stream_curl(build_grid(8), np.zeros((8, 8))), ValueError,
        "stream array must be node-shaped \\(9, 9\\)"),
    "sigma_outside_0_1": (
        lambda: sigma([0.5, 1.25]), ValueError, "sigma is defined on \\[0, 1\\]"),
    "l2_norm_omega_non_field": (
        lambda: l2_norm_omega(np.zeros((8, 8))), TypeError,
        "cannot take an Omega norm of ndarray"),
}


@pytest.mark.parametrize("entry", sorted(_BOUNDARY_CHECKS))
def test_entry_points_check_their_arguments(entry):
    call, error, message = _BOUNDARY_CHECKS[entry]
    with pytest.raises(error, match=message):
        call()


_CROSS_GRID = {
    "solve_boundary": lambda a, b: solve_boundary(a, cavity_g(b)),
    "solve_homogeneous": lambda a, b: solve_homogeneous(a, f=_velocity(b.n)),
    "solve_saddle": lambda a, b: solve_saddle(a, BoundaryData.zeros(b), None),
    "solve_saddle_forcing": lambda a, b: solve_saddle(
        a, BoundaryData.zeros(a), _velocity(b.n)),
    "transposition_identity": lambda a, b: transposition_identity(
        a, cavity_g(a), u=_velocity(b.n)),
    "estimate_ratio": lambda a, b: estimate_ratio(a, cavity_g(a),
                                                  sol=_solution(b.n)),
    "pairing_L": lambda a, b: pairing_L(_velocity(a.n), _probe(b.n)),
    "pairing_with_field": lambda a, b: pairing_with_field(_velocity(a.n),
                                                          _velocity(b.n)),
    "evolve": lambda a, b: evolve(a, TimeBoundaryData.constant(cavity_g(b)),
                                  2 * DT, DT),
    "evolve_lifted_forcing": lambda a, b: evolve_lifted(
        a, TimeBoundaryData.constant(BoundaryData.zeros(a)), 2 * DT, DT,
        force=lambda t: _velocity(b.n)),
    "solve_adjoint_backward": lambda a, b: solve_adjoint_backward(
        a, _trajectory(b.n, 2)),
    "spacetime_pairing": lambda a, b: spacetime_pairing(
        _trajectory(a.n, 2), _probe(b.n), final_zero_modulation(2 * DT)),
    "spacetime_estimate_ratio": lambda a, b: spacetime_estimate_ratio(
        a, TimeBoundaryData.constant(cavity_g(a)), 2 * DT, DT,
        traj=_trajectory(b.n, 2)),
    "solve_biharmonic": lambda a, b: solve_biharmonic(a, cavity_g(b)),
}


@pytest.mark.parametrize("entry", sorted(_CROSS_GRID))
def test_entry_points_name_both_grids(entry):
    with pytest.raises(ValueError, match="n=8 grid passed with an n=16 grid"):
        _CROSS_GRID[entry](build_grid(16), build_grid(8))


@pytest.mark.parametrize("eps", [np.nan, -1.0, np.inf])
def test_corner_variant_rejects_bad_eps(eps):
    # NaN and -1 returned exactly the eps = 0 samples; inf zeroed half the lid
    with pytest.raises(ValueError,
                       match=f"eps must be finite and zero or positive, got {eps}"):
        corner_variant(build_grid(16), "corner_01", eps=eps)


def test_nan_layer_width_names_eps():
    # a NaN eps used to surface as non-finite boundary values on the top side
    with pytest.raises(ValueError, match="eps must be finite and positive, got nan"):
        cavity_g_eps(build_grid(16), np.nan)


@pytest.mark.parametrize("eps", [np.inf, 0.0, -1.0])
def test_layer_width_must_be_finite_and_positive(eps):
    # eps = inf returned a lid moving backwards, its top samples from -0.984
    # to 0 at n = 16
    with pytest.raises(ValueError, match=f"eps must be finite and positive, got {eps}"):
        cavity_g_eps(build_grid(16), eps)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize("profile, name", [(smooth_ramp, "t0"),
                                           (final_zero_modulation, "T")],
                         ids=["smooth_ramp", "final_zero_modulation"])
def test_time_profiles_refuse_a_time_that_is_not_finite_and_positive(
        profile, name, bad):
    # smooth_ramp(inf) and smooth_ramp(-1) gave zero data, smooth_ramp(0) a
    # numpy RuntimeWarning, and final_zero_modulation(0) a ZeroDivisionError
    # when called
    with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {bad}"):
        profile(bad)


def test_duality_gap_of_zero_data_raises():
    grid = build_grid(8)
    zero = BoundaryData.zeros(grid)
    with pytest.raises(ZeroBoundaryData):
        transposition_identity(grid, zero, u=solve_boundary(grid, zero).velocity)


def test_spacetime_functionals_need_two_steps():
    traj = _trajectory(8, 1)
    mod = final_zero_modulation(DT)
    with pytest.raises(ValueError, match="at least two steps, got 1"):
        spacetime_pairing(traj, _probe(8), mod)
    with pytest.raises(ValueError, match="at least two steps, got 1"):
        spacetime_independence_gap(traj, mod)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_modulation_raises(bad):
    traj = _trajectory(8, 2)
    mod = lambda t: bad if t > 0.0 else 1.0
    tb = TimeBoundaryData.constant(cavity_g(build_grid(8)))
    for call in (lambda: spacetime_pairing(traj, _probe(8), mod),
                 lambda: spacetime_independence_gap(traj, mod),
                 lambda: spacetime_pairing_reference(tb, _probe(8), mod, 2 * DT, DT)):
        with pytest.raises(ValueError, match="modulation has non-finite"):
            call()


def test_modulation_must_vanish_at_final_time():
    # m = 1 gave a pairing that is not the space-time functional, with no
    # error, in all three
    traj = _trajectory(8, 2)
    mod = lambda t: 1.0
    tb = TimeBoundaryData.constant(cavity_g(build_grid(8)))
    for call in (lambda: spacetime_pairing(traj, _probe(8), mod),
                 lambda: spacetime_independence_gap(traj, mod),
                 lambda: spacetime_pairing_reference(tb, _probe(8), mod, 2 * DT, DT)):
        with pytest.raises(ValueError, match="modulation must vanish at t = T"):
            call()


@pytest.mark.parametrize("T, dt", [(4 * DT, DT), (2 * DT, DT / 2)])
def test_estimate_ratio_refuses_a_trajectory_of_other_steps(T, dt):
    # a trajectory of T = 2 DT, dt = DT passed with another T gave a wrong
    # ratio, and with another dt the ratio of the trajectory's own dt
    traj = _trajectory(8, 2)
    tb = TimeBoundaryData.ramped(cavity_g(build_grid(8)), smooth_ramp(0.25))
    with pytest.raises(ValueError, match=f"trajectory has T={2 * DT}, dt={DT}, "
                                         f"not T={T}, dt={dt}"):
        spacetime_estimate_ratio(traj.grid, tb, T, dt, traj=traj)


@pytest.mark.parametrize("T, dt", [(np.inf, DT), (np.nan, DT), (1.0, np.nan),
                                   (np.inf, np.inf)])
def test_non_finite_step_data_raises(T, dt):
    grid = build_grid(8)
    tb = TimeBoundaryData.constant(cavity_g(grid))
    with pytest.raises(ValueError, match="finite and positive"):
        evolve(grid, tb, T, dt)


@pytest.mark.parametrize("dt", [1e-15, 1e-300])
def test_step_count_ceiling(dt):
    # 1e15 steps asked for a 7.11 PiB time axis (MemoryError), 1e300 for an
    # array above numpy's maximum size
    grid = build_grid(8)
    tb = TimeBoundaryData.constant(cavity_g(grid))
    for call in (lambda: evolve(grid, tb, 1.0, dt),
                 lambda: spacetime_boundary_norm(tb, 1.0, dt),
                 lambda: spacetime_pairing_reference(
                     tb, _probe(8), final_zero_modulation(1.0), 1.0, dt)):
        with pytest.raises(ValueError, match=f"T=1.0 and dt={dt} make .* steps, "
                                             "more than 1000000"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_ramp_raises(bad):
    grid = build_grid(8)
    tb = TimeBoundaryData.ramped(cavity_g(grid), lambda t: bad if t > 0.0 else 0.0)
    with pytest.raises(ValueError, match="ramp is"):
        evolve(grid, tb, 2 * DT, DT)


def test_misshapen_forcing_raises():
    # a row of n values broadcast silently over the (n-1, n) interior faces
    grid = build_grid(8)
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    row = lambda t: (np.ones(8), np.zeros((8, 7)))
    # both entry points run the one check of SaddleInverse.solve
    message = "forcing has non-finite values or a shape other than \\(7, 8\\)"
    with pytest.raises(ValueError, match=message):
        evolve_lifted(grid, tb, 2 * DT, DT, force=row)
    with pytest.raises(ValueError, match=message):
        solve_saddle(grid, BoundaryData.zeros(grid), (np.ones(8), None))
    # a pair of one member left the march's other component unset
    for bad in ((np.zeros((7, 8)),), (np.zeros((7, 8)), None, None),
                (np.zeros((7, 8)), None)):
        with pytest.raises(ValueError):
            evolve_lifted(grid, tb, 2 * DT, DT, force=lambda t: bad)
        with pytest.raises(ValueError):
            solve_saddle(grid, BoundaryData.zeros(grid), bad)


@pytest.mark.parametrize("dt, steps", [(0.0, 4), (-0.5, 4), (np.nan, 4),
                                       (np.inf, 4), (DT, -1)])
def test_trajectory_takes_finite_positive_dt_and_a_velocity(dt, steps):
    # dt = 0 made the backward march divide by zero, and dt = -0.5 was
    # marched at shift -2, a wrong answer with no error
    grid = build_grid(8)
    with pytest.raises(ValueError, match="finite dt > 0 and a velocity"):
        Trajectory(grid, "euler", dt, [VelocityField.zeros(grid)] * (steps + 1))


@pytest.mark.parametrize("scheme", ["rk4", "CN", ""])
def test_trajectory_and_march_refuse_an_unknown_scheme(scheme):
    # Trajectory took "rk4", and spacetime_velocity_norm read 0.0 for it;
    # only a later backward march raised
    grid = build_grid(8)
    with pytest.raises(ValueError, match=f"unknown scheme {scheme!r}"):
        Trajectory(grid, scheme, 0.1, [VelocityField.zeros(grid)] * 3)
    tb = TimeBoundaryData.constant(cavity_g(grid))
    with pytest.raises(ValueError, match=f"unknown scheme {scheme!r}"):
        evolve(grid, tb, 2 * DT, DT, scheme=scheme)


def test_residual_report_rejects_non_finite_forcing():
    # a NaN in f gave momentum_res = nan with momentum_res_rel = 0.0, which
    # reads as a perfect residual
    grid = build_grid(8)
    sol = solve_boundary(grid, cavity_g(grid))
    u1 = np.zeros((9, 8))
    u1[3, 4] = np.nan
    f = VelocityField(grid, u1, np.zeros((8, 9)))
    with pytest.raises(ValueError, match="forcing has non-finite values"):
        residual_report(sol, f=f, g=cavity_g(grid))


def test_residual_report_names_both_grids():
    # f or g of another grid raised a numpy broadcasting error
    grid = build_grid(16)
    sol = solve_boundary(grid, cavity_g(grid))
    coarse = build_grid(8)
    for f, g in ((VelocityField.zeros(coarse), None), (None, cavity_g(coarse))):
        with pytest.raises(ValueError, match="n=8 grid passed with an n=16 grid"):
            residual_report(sol, f=f, g=g)


# --- the sweep ------------------------------------------------------------------

_SIDE_KEYS = st.lists(st.sampled_from(SIDES + ("north", "Top")), unique=True,
                      max_size=5)
_BAD = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _cases(draw):
    """(entry name, thunk): a call with drawn grids, keys, lengths and values."""
    na, nb = draw(st.sampled_from([4, 8])), draw(st.sampled_from([4, 8]))
    a, b = build_grid(na), build_grid(nb)
    keys = draw(_SIDE_KEYS)
    steps = draw(st.integers(1, 3))
    T = draw(st.one_of(st.just(steps * DT), _BAD))
    dt = draw(st.one_of(st.just(DT), _BAD, st.sampled_from([1e-15, 1e-300])))
    ramp_value = draw(st.one_of(st.just(1.0), _BAD))
    mod_value = draw(st.one_of(st.just(None), _BAD))
    scale = draw(st.sampled_from([0.0, 1.0]))
    ramp = lambda t: ramp_value if t > 0.0 else 0.0
    mod = final_zero_modulation(steps * DT) if mod_value is None else (
        lambda t: mod_value)
    g = cavity_g(b) * scale
    tb = TimeBoundaryData.ramped(g, ramp)
    calls = {
        "BoundaryData": lambda: l2_norm_gamma(
            BoundaryData(a, {k: np.ones((na, 2)) for k in keys})),
        "TangentialBoundaryData": lambda: pairing_L(
            _velocity(na), TangentialBoundaryData(a, {k: np.ones(na) for k in keys})),
        "solve_boundary": lambda: l2_norm_omega(solve_boundary(a, g).velocity),
        "solve_homogeneous": lambda: l2_norm_omega(
            solve_homogeneous(a, f=_velocity(nb) * scale).velocity),
        "transposition_identity": lambda: list(
            transposition_identity(a, cavity_g(a) * scale, u=_velocity(nb)).values()),
        "estimate_ratio": lambda: estimate_ratio(a, g, sol=_solution(nb)),
        "pairing_L": lambda: pairing_L(_velocity(na), _probe(nb)),
        "pairing_with_field": lambda: pairing_with_field(_velocity(na), _velocity(nb)),
        "evolve": lambda: evolve(a, tb, T, dt, scheme="cn").norms(),
        "solve_adjoint_backward": lambda: solve_adjoint_backward(
            a, _trajectory(nb, steps)).norms(),
        "spacetime_pairing": lambda: spacetime_pairing(
            _trajectory(na, steps), _probe(nb), mod),
        "spacetime_independence_gap": lambda: spacetime_independence_gap(
            _trajectory(na, steps), mod),
        "spacetime_estimate_ratio": lambda: spacetime_estimate_ratio(
            a, tb, T, dt, traj=_trajectory(nb, steps)),
        "solve_biharmonic": lambda: solve_biharmonic(a, g).psi,
    }
    name = draw(st.sampled_from(sorted(calls)))
    return name, calls[name]


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_entry_points_fail_only_with_typed_errors(case):
    name, call = case
    try:
        result = call()
    except (ValueError, NonConvergence) as exc:
        assert "broadcast" not in str(exc), f"{name}: {exc}"
        return
    assert np.isfinite(np.asarray(result, dtype=float)).all(), name
