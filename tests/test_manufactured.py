"""Cross-check the closed-form forcings against high-order finite differences."""

import numpy as np
import pytest

from vws.manufactured import (
    biharmonic_source,
    biharmonic_stream,
    stationary_forcing,
    stationary_solution,
    time_dependent_forcing,
    time_dependent_solution,
)

PTS = [(0.3, 0.4), (0.62, 0.18), (0.5, 0.5), (0.15, 0.85)]


def _lap_fd(f, x, y, h=1e-4):
    return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
            - 4.0 * f(x, y)) / h ** 2


def _dx_fd(f, x, y, h=1e-5):
    return (f(x + h, y) - f(x - h, y)) / (2.0 * h)


def _dy_fd(f, x, y, h=1e-5):
    return (f(x, y + h) - f(x, y - h)) / (2.0 * h)


def test_stationary_solution_is_divergence_free_and_clamped():
    u1, u2, _ = stationary_solution()
    for x, y in PTS:
        div = _dx_fd(u1, x, y) + _dy_fd(u2, x, y)
        assert abs(div) <= 1e-8
    s = np.linspace(0.0, 1.0, 33)
    for f in (u1, u2):
        assert np.abs(f(s, 0.0 * s)).max() <= 1e-14
        assert np.abs(f(s, 1.0 + 0.0 * s)).max() <= 1e-14
        assert np.abs(f(0.0 * s, s)).max() <= 1e-14


def test_stationary_forcing_matches_fd():
    u1, u2, p = stationary_solution()
    f1, f2 = stationary_forcing()
    for x, y in PTS:
        r1 = -_lap_fd(u1, x, y) + _dx_fd(p, x, y)
        r2 = -_lap_fd(u2, x, y) + _dy_fd(p, x, y)
        assert abs(f1(x, y) - r1) <= 1e-5
        assert abs(f2(x, y) - r2) <= 1e-5


def test_time_dependent_starts_at_rest():
    u1, u2, _ = time_dependent_solution()
    s = np.linspace(0.0, 1.0, 17)
    xx, yy = np.meshgrid(s, s)
    assert np.abs(u1(0.0, xx, yy)).max() <= 1e-14
    assert np.abs(u2(0.0, xx, yy)).max() <= 1e-14


def test_time_dependent_forcing_matches_fd():
    u1, u2, p = time_dependent_solution()
    f1, f2 = time_dependent_forcing()
    t = 0.37
    dt = 1e-5
    for x, y in PTS:
        du1 = (u1(t + dt, x, y) - u1(t - dt, x, y)) / (2.0 * dt)
        du2 = (u2(t + dt, x, y) - u2(t - dt, x, y)) / (2.0 * dt)
        r1 = du1 - _lap_fd(lambda a, b: u1(t, a, b), x, y) \
            + _dx_fd(lambda a, b: p(t, a, b), x, y)
        r2 = du2 - _lap_fd(lambda a, b: u2(t, a, b), x, y) \
            + _dy_fd(lambda a, b: p(t, a, b), x, y)
        assert abs(f1(t, x, y) - r1) <= 1e-4
        assert abs(f2(t, x, y) - r2) <= 1e-4


def test_biharmonic_stream_formula():
    # the callable may group the polynomial differently, so rounding can
    # differ from this factored form at machine precision
    psi = biharmonic_stream()
    for x, y in PTS:
        assert psi(x, y) == pytest.approx((x * (1 - x) * y * (1 - y)) ** 2,
                                          rel=1e-12)


def test_biharmonic_source_matches_fd():
    psi = biharmonic_stream()
    src = biharmonic_source()
    h = 1e-2
    for x, y in PTS:
        lap = lambda a, b: _lap_fd(psi, a, b, h=h)
        val = _lap_fd(lap, x, y, h=h)
        assert abs(src(x, y) - val) <= 5e-3 * max(1.0, abs(val))
