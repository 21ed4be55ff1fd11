import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vws.grid import (
    PressureField,
    VelocityField,
    build_grid,
    l2_norm_omega,
)


def test_geometry_n4():
    grid = build_grid(4)
    assert grid.h == 0.25
    assert np.array_equal(grid.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(grid.x_centers(), [0.125, 0.375, 0.625, 0.875])
    # the faces sit at the nodes' coordinates along the axis they are normal to
    u = VelocityField.from_functions(grid, lambda x, y: x + 10 * y,
                                     lambda x, y: x + 10 * y)
    assert np.array_equal(u.u1[:, 0], grid.nodes() + 10 * 0.125)
    assert np.array_equal(u.u2[0, :], 0.125 + 10 * grid.nodes())


def test_build_grid_rejects_tiny():
    with pytest.raises(ValueError):
        build_grid(1)


def test_field_shape_validation():
    grid = build_grid(8)
    with pytest.raises(ValueError):
        VelocityField(grid, np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(ValueError):
        PressureField(grid, np.zeros((8, 9)))


def test_fields_are_read_only():
    grid = build_grid(8)
    u = VelocityField.zeros(grid)
    with pytest.raises(ValueError):
        u.u1[0, 0] = 1.0


def test_interior_views_and_round_trip():
    n = 8
    grid = build_grid(n)
    rng = np.random.default_rng(1)
    u1_int = rng.standard_normal((n - 1, n))
    u2_int = rng.standard_normal((n, n - 1))
    u = VelocityField.from_interior(grid, u1_int, u2_int)
    assert not u.u1[[0, n], :].any() and not u.u2[:, [0, n]].any()
    v1, v2 = u.interior()
    assert np.array_equal(v1, u1_int) and np.array_equal(v2, u2_int)
    # views into the field, not copies, and read-only like the field
    assert np.shares_memory(v1, u.u1) and np.shares_memory(v2, u.u2)
    for v in (v1, v2):
        with pytest.raises(ValueError):
            v[0, 0] = 1.0
    w = VelocityField.from_interior(grid, *u.interior())
    assert np.array_equal(w.u1, u.u1) and np.array_equal(w.u2, u.u2)


def test_norm_of_constant_field():
    # face weights integrate constants exactly: |(1,1)| = sqrt(2)
    grid = build_grid(16)
    ones = VelocityField(grid, np.ones((17, 16)), np.ones((16, 17)))
    assert abs(l2_norm_omega(ones) - np.sqrt(2.0)) <= 1e-13
    p = PressureField(grid, np.ones((16, 16)))
    assert abs(l2_norm_omega(p) - 1.0) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([4, 7, 64]), st.integers(0, 2 ** 32 - 1))
def test_norm_equals_the_owned_volume_weighted_sum(n, seed):
    # the closed form h^2 (sum u^2 - 1/2 sum wall faces^2) against explicit
    # weights: an h x h box per face, half of one for wall faces
    rng = np.random.default_rng(seed)
    grid = build_grid(n)
    v = VelocityField(grid, rng.standard_normal((n + 1, n)),
                      rng.standard_normal((n, n + 1)))
    w1 = np.full((n + 1, n), grid.h ** 2)
    w1[[0, -1], :] *= 0.5
    w2 = np.full((n, n + 1), grid.h ** 2)
    w2[:, [0, -1]] *= 0.5
    want = np.sqrt(np.sum(w1 * v.u1 ** 2) + np.sum(w2 * v.u2 ** 2))
    assert abs(l2_norm_omega(v) - want) <= 1e-14 * want


def test_norm_approximates_integral():
    # int sin^2(pi x) sin^2(pi y) = 1/4 per component
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    grid = build_grid(64)
    v = VelocityField.from_functions(grid, f, f)
    assert abs(l2_norm_omega(v) - np.sqrt(0.5)) <= 1e-3


def test_field_arithmetic():
    grid = build_grid(8)
    f = lambda x, y: x + 2.0 * y
    g = lambda x, y: x * y
    a = VelocityField.from_functions(grid, f, g)
    b = 2.0 * a
    c = b - a
    assert np.allclose(c.u1, a.u1, atol=1e-15)
    assert np.allclose((a + a).u2, b.u2, atol=1e-15)


def test_only_solved_velocities_keep_modes():
    # modes are set by the solver alone; every other field, and every
    # result of arithmetic on a solved one, has none
    from vws.boundary import rotation_data
    from vws.stokes import solve_boundary

    grid = build_grid(8)
    rng = np.random.default_rng(3)
    hand = VelocityField(grid, rng.standard_normal((9, 8)),
                         rng.standard_normal((8, 9)))
    u = solve_boundary(grid, rotation_data(grid)).velocity
    assert u.modes is not None and u.modes.shape == (2 * 7 * 8,)
    for v in (hand, VelocityField.zeros(grid),
              VelocityField.from_interior(grid, *hand.interior()),
              VelocityField(grid, u.u1, u.u2), u + u, u - hand, 2.0 * u, u * 1.0):
        assert v.modes is None
    with pytest.raises(TypeError):
        VelocityField(grid, u.u1, u.u2, u.modes)


def test_pressure_zero_mean():
    grid = build_grid(8)
    p = PressureField.from_function(grid, lambda x, y: x).zero_mean()
    assert abs(p.mean()) <= 1e-15
