"""A quarter turn of the square commutes with every per-side stencil.

The turn maps (x, y) to (1 - y, x) and a vector (a, b) to (-b, a): a cell or
node array turns by np.rot90, a face field (u1, u2) to (-rot90(u2),
rot90(u1)), and the samples of one side go to the next side counterclockwise,
reversed when they leave the left or the right side.  Every per-side stencil
of the package places its side through one layout map, so a side read at the
wrong depth or in the wrong order breaks one of these identities.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from vws.biharmonic import solve_biharmonic
from vws.boundary import SIDES, TANGENTS, BoundaryData, project_compatible
from vws.grid import PressureField, VelocityField, build_grid
from vws.operators import apply_velocity_laplacian
from vws.stokes import solve_boundary
from vws.traces import TangentialBoundaryData, lift_tangential, pairing_L
from vws.transposition import boundary_pressure, normal_derivative_on_gamma

REL = 1e-12
_CASES = dict(n=st.sampled_from([4, 8, 16]), seed=st.integers(0, 2 ** 32 - 1))
_NEXT = {side: SIDES[(k + 1) % 4] for k, side in enumerate(SIDES)}


def _turn_samples(per_side: dict) -> dict:
    return {_NEXT[side]: a[::-1] if side in ("left", "right") else a
            for side, a in per_side.items()}


def _turn_data(g: BoundaryData) -> BoundaryData:
    q = {side: np.stack([-a[:, 1], a[:, 0]], axis=1)
         for side, a in g.samples.items()}
    return BoundaryData(g.grid, _turn_samples(q))


def _turn_field(v: VelocityField) -> VelocityField:
    return VelocityField(v.grid, -np.rot90(v.u2), np.rot90(v.u1))


def _close(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= REL * max(np.abs(a).max(), np.abs(b).max())


def _random_field(grid, rng) -> VelocityField:
    n = grid.n
    return VelocityField(grid, rng.standard_normal((n + 1, n)),
                         rng.standard_normal((n, n + 1)))


@settings(max_examples=20, deadline=None)
@given(**_CASES)
def test_boundary_solve_commutes_with_the_turn(n, seed):
    grid = build_grid(n)
    rng = np.random.default_rng(seed)
    g = project_compatible(BoundaryData(
        grid, {side: rng.standard_normal((n, 2)) for side in SIDES}))
    sol, turned = solve_boundary(grid, g), solve_boundary(grid, _turn_data(g))
    v = _turn_field(sol.velocity)
    assert _close(turned.velocity.u1, v.u1)
    assert _close(turned.velocity.u2, v.u2)
    assert _close(turned.pressure.p, np.rot90(sol.pressure.p))


@settings(max_examples=20, deadline=None)
@given(**_CASES)
def test_boundary_derivative_and_pressure_commute_with_the_turn(n, seed):
    grid = build_grid(n)
    rng = np.random.default_rng(seed)
    v = _random_field(grid, rng)
    dvdn = _turn_data(normal_derivative_on_gamma(v))
    turned = normal_derivative_on_gamma(_turn_field(v))
    p = rng.standard_normal((n, n))
    q_b = _turn_samples(boundary_pressure(PressureField(grid, p)))
    turned_q = boundary_pressure(PressureField(grid, np.rot90(p)))
    for side in SIDES:
        assert _close(turned.samples[side], dvdn.samples[side])
        assert _close(turned_q[side], q_b[side])


@settings(max_examples=20, deadline=None)
@given(**_CASES)
def test_stream_function_turns_with_tangential_data(n, seed):
    grid = build_grid(n)
    rng = np.random.default_rng(seed)
    g = BoundaryData(grid, {side: np.outer(rng.standard_normal(n), TANGENTS[side])
                            for side in SIDES})
    psi = solve_biharmonic(grid, g).psi
    turned = solve_biharmonic(grid, _turn_data(g)).psi
    assert _close(turned, np.rot90(psi))


def _pairing_size(u: VelocityField, g1: TangentialBoundaryData) -> float:
    """h^2 sum |u| |Laplace(R g1)| over the interior faces: the size of the
    terms pairing_L sums, which on a random u cancel to a far smaller value."""
    grid = u.grid
    lift = lift_tangential(g1)
    lap = apply_velocity_laplacian(grid, *lift.interior())
    return grid.h ** 2 * sum(float(np.sum(np.abs(a) * np.abs(b)))
                             for a, b in zip(u.interior(), lap))


def _turned_pairings(n, seed, turn_samples=_turn_samples):
    """pairing_L of a random field and profiles, of their turn, and the size
    of the pairing's terms."""
    grid = build_grid(n)
    rng = np.random.default_rng(seed)
    u = _random_field(grid, rng)
    g1 = TangentialBoundaryData(grid, {side: rng.standard_normal(n) for side in SIDES})
    turned = pairing_L(_turn_field(u),
                       TangentialBoundaryData(grid, turn_samples(g1.profiles)))
    return pairing_L(u, g1), turned, _pairing_size(u, g1)


# at n = 4 the corner taper zeroes every lift, and the pairing with it.  The
# tolerance is REL of the size of the pairing's terms, not of its value:
# n = 16, seed = 1025 cancels to 1.3e-3 from terms of size 31, and its turn
# differed by 1.05e-12 of that value on rounding alone
@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 16]), seed=_CASES["seed"])
@example(n=16, seed=1025)
def test_weak_pairing_is_invariant_under_the_turn(n, seed):
    value, turned, size = _turned_pairings(n, seed)
    assert abs(turned - value) <= REL * size


def test_weak_pairing_tolerance_still_catches_a_wrong_turn():
    # profiles moved to the next side but not reversed off the left and
    # right sides: a turn that gets the sample order wrong
    def unreversed(per_side):
        return {_NEXT[side]: a for side, a in per_side.items()}

    for n, seed in ((8, 0), (16, 1025), (16, 7)):
        value, turned, size = _turned_pairings(n, seed, unreversed)
        assert abs(turned - value) > 1e3 * REL * size
