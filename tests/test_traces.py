import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vws import traces
from vws.boundary import (SIDES, TANGENTS, BoundaryData, cavity_g, l2_norm_gamma,
                          project_compatible, rotation_data, wall)
from vws.grid import VelocityField, build_grid, l2_norm_omega
from vws.operators import divergence, laplacian_load
from vws.stokes import solve_boundary
from vws.traces import (
    TangentialBoundaryData,
    lift_stream,
    boundary_pairing,
    lift_tangential,
    pairing_L,
    pairing_with_field,
    probe_set,
)
from vws.transposition import normal_derivative_on_gamma
from vws.experiments.report import orders

from support import refuse


def _worst_probe_gap(n):
    grid = build_grid(n)
    u = solve_boundary(grid, rotation_data(grid)).velocity
    worst = 0.0
    for _, g1, integral in probe_set(grid):
        # rotation data has tangential part 1/2 on every side
        ref = 0.5 * integral
        worst = max(worst, abs(pairing_L(u, g1) - ref))
    return worst


def test_probe_recovery_frozen():
    # the worst probe is the constant one, whose corner taper costs 4h
    gaps = [_worst_probe_gap(n) for n in (32, 64)]
    assert gaps[0] == pytest.approx(0.125, rel=1e-3)
    assert gaps[1] == pytest.approx(0.0625, rel=1e-3)
    assert orders(gaps)[0] >= 0.8


def test_lift_roundtrip_frozen():
    grid = build_grid(32)
    s = grid.x_centers()
    g1 = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s) + 0.3
                                       for sd in SIDES})
    lift = lift_tangential(g1)
    dvdn = normal_derivative_on_gamma(lift)
    margin = min(8.0 / 32, 0.375)
    mask = (s > margin) & (s < 1.0 - margin)
    worst = 0.0
    for sd in SIDES:
        worst = max(
            worst,
            np.abs(dvdn.tangential_part(sd) - g1.profiles[sd])[mask].max(),
            np.abs(dvdn.normal_part(sd))[mask].max(),
        )
    assert worst == pytest.approx(2.4047365601e-3, rel=1e-3)
    assert np.abs(divergence(lift).p).max() <= 1e-12


def test_lift_puts_each_profile_on_its_own_wall():
    # distinct profiles per side: a lift that swapped the roles of the wall
    # and across-wall factors would move the bottom data onto the left wall
    grid = build_grid(32)
    s = grid.x_centers()
    prof = {"bottom": np.sin(np.pi * s), "right": np.full(32, 0.3),
            "top": np.cos(np.pi * s), "left": s}
    dvdn = normal_derivative_on_gamma(
        lift_tangential(TangentialBoundaryData(grid, prof)))
    mask = (s > 0.25) & (s < 0.75)
    for sd in SIDES:
        assert np.abs(dvdn.tangential_part(sd) - prof[sd])[mask].max() <= 2.5e-3
        assert np.abs(dvdn.normal_part(sd))[mask].max() <= 2.5e-3


def test_lift_vanishes_on_walls():
    grid = build_grid(24)
    s = grid.x_centers()
    g1 = TangentialBoundaryData(grid, {"bottom": np.cos(np.pi * s)})
    psi = lift_stream(g1)
    assert np.abs(psi[0, :]).max() == 0.0
    assert np.abs(psi[-1, :]).max() == 0.0
    assert np.abs(psi[:, 0]).max() == 0.0
    assert np.abs(psi[:, -1]).max() == 0.0
    v = lift_tangential(g1)
    assert np.abs(v.u1[0, :]).max() == 0.0
    assert np.abs(v.u1[-1, :]).max() == 0.0
    assert np.abs(v.u2[:, 0]).max() == 0.0
    assert np.abs(v.u2[:, -1]).max() == 0.0


def test_probe_set_covers_all_sides():
    grid = build_grid(16)
    probes = probe_set(grid)
    labels = [pid for pid, _, _ in probes]
    assert len(labels) == 20
    assert len(set(labels)) == 20
    for side in SIDES:
        assert sum(pid.startswith(side + ":") for pid in labels) == 5


def test_tangential_data_shape_check():
    grid = build_grid(16)
    with pytest.raises(ValueError):
        TangentialBoundaryData(grid, {"bottom": np.zeros(7)})


def test_tangential_data_profiles_are_read_only():
    # the pairing weights are built from the profiles once, at construction
    grid = build_grid(8)
    g1 = TangentialBoundaryData(grid, {"top": np.ones(8)})
    with pytest.raises(TypeError):
        g1.profiles["top"] = np.zeros(8)
    with pytest.raises(AttributeError):
        g1.profiles = {}
    with pytest.raises(ValueError):
        g1.profiles["top"][0] = 0.0


def test_probe_integrals_match_a_midpoint_sum():
    # each probe's closed-form integral against the midpoint rule on its
    # untapered profile, which the cell centres sample
    grid = build_grid(4096)
    for pid, g1, integral in probe_set(grid):
        side = pid.split(":")[0]
        assert grid.h * g1.profiles[side].sum() == pytest.approx(integral, abs=1e-7), pid


def test_pairing_of_zero_probe_is_zero():
    grid = build_grid(16)
    u = solve_boundary(grid, rotation_data(grid)).velocity
    empty = TangentialBoundaryData(grid, {})
    assert pairing_L(u, empty) == 0.0


def test_tangential_data_rejects_non_finite():
    grid = build_grid(16)
    for bad in (np.nan, np.inf, -np.inf):
        prof = np.ones(16)
        prof[5] = bad
        with pytest.raises(ValueError,
                           match="side 'left': non-finite boundary values"):
            TangentialBoundaryData(grid, {"left": prof})


def _oracle(u, g1):
    return pairing_with_field(u, lift_tangential(g1))


def _test_probes(grid):
    # the 20 single-side probes, a four-sided probe, a seeded random profile
    s = grid.x_centers()
    rng = np.random.default_rng(0)
    return [g1 for _, g1, _ in probe_set(grid)] + [
        TangentialBoundaryData(grid, {sd: np.sin(np.pi * s) + 0.3
                                      for sd in SIDES}),
        TangentialBoundaryData(grid, {sd: rng.standard_normal(grid.n)
                                      for sd in SIDES}),
    ]


# n = 33 and 256 put the strip windows' ends mid-grid, at odd and large n
@pytest.mark.parametrize("n", [4, 8, 32, 33, 64, 128, 256])
@pytest.mark.parametrize("data", [cavity_g, rotation_data])
def test_closed_form_pairing_matches_lift(n, data):
    grid = build_grid(n)
    u = solve_boundary(grid, data(grid)).velocity
    probes = _test_probes(grid)
    ref = np.array([_oracle(u, g1) for g1 in probes])
    val = np.array([pairing_L(u, g1) for g1 in probes])
    # relative to the largest pairing of the field: for the lid, the probes
    # on the three resting walls pair to rounding-level values
    assert np.abs(val - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [4, 8, 32, 33, 64, 256])
def test_closed_form_mass_pairing_matches_lift(n):
    # <u, R g1>_h against the built lift over the interior faces, for a
    # random field, which is no Stokes flow and fills the domain; the
    # Laplacian pairing of the same call against its oracle too
    grid = build_grid(n)
    rng = np.random.default_rng(n)
    u = VelocityField(grid, rng.standard_normal((n + 1, n)),
                      rng.standard_normal((n, n + 1)))
    ref, val = [], []
    for g1 in _test_probes(grid):
        lift = lift_tangential(g1)
        mass = sum(float(np.sum(a * b)) for a, b in zip(u.interior(), lift.interior()))
        ref.append((grid.h ** 2 * mass, pairing_with_field(u, lift)))
        val.append(traces._lift_pairings(u, g1))
    ref, val = np.array(ref), np.array(val)
    assert np.all(np.abs(val - ref) <= 1e-12 * np.abs(ref).max(axis=0))


def test_closed_form_pairing_builds_no_lift(monkeypatch):
    grid = build_grid(256)
    u = solve_boundary(grid, rotation_data(grid)).velocity
    g1 = _test_probes(grid)[-2]     # the four-sided probe
    ref = _oracle(u, g1)

    refuse(monkeypatch, traces, ("stream_curl", "apply_velocity_laplacian"),
           "pairing_L built a lift")
    assert pairing_L(u, g1) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("side", SIDES)
def test_pairing_reads_the_lift_strip_only(side):
    # a NaN on the first interior line along the probe's wall reaches the
    # pairing; one half the grid away from it lies outside the lift's strip
    grid = build_grid(32)
    u = solve_boundary(grid, rotation_data(grid)).velocity
    g1 = TangentialBoundaryData(grid, {side: np.ones(32)})
    for depth, nan_out in ((1, True), (16, False)):
        faces = [u.u1.copy(), u.u2.copy()]
        for k in range(2):
            wall(faces[k], side, depth)[16] = np.nan
        val = pairing_L(VelocityField(grid, *faces), g1)
        assert np.isnan(val) == nan_out
        if not nan_out:
            assert val == pytest.approx(pairing_L(u, g1), rel=1e-12)


def _random_data(grid, rng, scale=1.0):
    # compatible data with normal and tangential parts, and a tangential probe
    g = project_compatible(BoundaryData(
        grid, {sd: scale * rng.standard_normal((grid.n, 2)) for sd in SIDES}))
    return g, TangentialBoundaryData(grid, {sd: rng.standard_normal(grid.n)
                                            for sd in SIDES})


@pytest.mark.parametrize("n", [4, 8, 33, 256])
def test_boundary_pairing_is_the_tangential_load_against_the_lift(n):
    grid = build_grid(n)
    g, _ = _random_data(grid, np.random.default_rng(n))
    g_tau = BoundaryData(grid, {sd: np.outer(g.tangential_part(sd), TANGENTS[sd])
                                for sd in SIDES})
    load = laplacian_load(grid, g_tau)
    for g1 in _test_probes(grid):
        lift = lift_tangential(g1).interior()
        ref = -grid.h ** 2 * sum(float(np.sum(b * v)) for b, v in zip(load, lift))
        assert boundary_pairing(g, g1) == pytest.approx(ref, rel=1e-12, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([8, 17, 64]),
       log_scale=st.floats(min_value=-9.0, max_value=9.0))
def test_pairing_of_a_solution_is_its_boundary_sum(seed, n, log_scale):
    # the discrete Green's formula: pairing_L(solve_boundary(g), g1) equals
    # B(g, g1) for any compatible g and tangential g1, to rounding relative
    # to |g|_Gamma |g1|_Gamma, which bounds B (random data can cancel B
    # itself); without the wall term it misses by the normal part's share
    grid = build_grid(n)
    g, g1 = _random_data(grid, np.random.default_rng(seed), 10.0 ** log_scale)
    u = solve_boundary(grid, g).velocity
    g1_norm = np.sqrt(grid.h * sum(float(np.sum(p ** 2)) for p in g1.profiles.values()))
    assert abs(pairing_L(u, g1) - boundary_pairing(g, g1)) <= (
        1e-12 * l2_norm_gamma(g) * g1_norm)


@functools.cache
def _rotation_field(n):
    grid = build_grid(n)
    return grid, solve_boundary(grid, rotation_data(grid)).velocity


def _positive_profiles(n, seed, mask):
    # unit mean plus noise: each side pairs to about 1/2 with the rotation
    # field, so sums never cancel and relative bounds stay meaningful
    rng = np.random.default_rng(seed)
    return {sd: 1.0 + 0.5 * rng.standard_normal(n)
            for k, sd in enumerate(SIDES) if mask >> k & 1}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 15), st.integers(1, 15),
       st.floats(min_value=-6.0, max_value=6.0),
       st.floats(min_value=-6.0, max_value=6.0))
def test_pairing_is_bilinear(seed1, seed2, mask1, mask2, log_alpha, log_beta):
    grid, u = _rotation_field(32)
    p1 = _positive_profiles(grid.n, seed1, mask1)
    p2 = _positive_profiles(grid.n, seed2, mask2)
    g1, g2 = TangentialBoundaryData(grid, p1), TangentialBoundaryData(grid, p2)
    base1, base2 = pairing_L(u, g1), pairing_L(u, g2)
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta

    assert pairing_L(u * alpha, g1) == pytest.approx(alpha * base1, rel=1e-12)
    scaled = TangentialBoundaryData(grid, {sd: beta * p for sd, p in p1.items()})
    assert pairing_L(u, scaled) == pytest.approx(beta * base1, rel=1e-12)
    both = TangentialBoundaryData(
        grid, {sd: p1.get(sd, 0.0) + p2.get(sd, 0.0) for sd in p1.keys() | p2.keys()})
    assert abs(pairing_L(u, both) - base1 - base2) <= 1e-12 * (
        abs(base1) + abs(base2))
