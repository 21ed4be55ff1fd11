"""Manufactured solutions with closed-form forcings.

The stationary velocity is the curl of the potential sin^2(pi x) sin^2(pi y),
so it is exactly divergence free and vanishes on the boundary together with
the potential's gradient; the pressure is cos(pi x) cos(pi y) (zero mean).
The time-dependent pair modulates them by sin(2t) and sin(t).  Forcings are
written out by hand; tests cross-check them against high-order finite
differences.
"""

from __future__ import annotations

import numpy as np

from .grid import PressureField, StaggeredGrid, VelocityField

__all__ = [
    "stationary_solution",
    "stationary_forcing",
    "stationary_fields",
    "time_dependent_solution",
    "time_dependent_forcing",
    "biharmonic_stream",
    "biharmonic_source",
]

_PI = np.pi


def _u1(x, y):
    return _PI * np.sin(_PI * x) ** 2 * np.sin(2 * _PI * y)


def _u2(x, y):
    return -_PI * np.sin(2 * _PI * x) * np.sin(_PI * y) ** 2


def _p(x, y):
    return np.cos(_PI * x) * np.cos(_PI * y)


def _dp_dx(x, y):
    return -_PI * np.sin(_PI * x) * np.cos(_PI * y)


def _dp_dy(x, y):
    return -_PI * np.cos(_PI * x) * np.sin(_PI * y)


def _mlap_u1(x, y):  # -Laplace(u1)
    return -2 * _PI ** 3 * np.sin(2 * _PI * y) * (2 * np.cos(2 * _PI * x) - 1)


def _mlap_u2(x, y):  # -Laplace(u2)
    return 2 * _PI ** 3 * np.sin(2 * _PI * x) * (2 * np.cos(2 * _PI * y) - 1)


def _f1(x, y):
    return _mlap_u1(x, y) + _dp_dx(x, y)


def _f2(x, y):
    return _mlap_u2(x, y) + _dp_dy(x, y)


def stationary_solution():
    """(u1, u2, p) callables of (x, y)."""
    return _u1, _u2, _p


def stationary_forcing():
    """(f1, f2) callables of (x, y) with f = -Laplace(u) + grad(p)."""
    return _f1, _f2


def stationary_fields(grid: StaggeredGrid):
    """Exact solution and forcing sampled on the grid."""
    u = VelocityField.from_functions(grid, _u1, _u2)
    f = VelocityField.from_functions(grid, _f1, _f2)
    pr = PressureField.from_function(grid, _p).zero_mean()
    return u, f, pr


# u(t) = sin(2t) u_s and p(t) = sin(t) p_s; sin(0) = 0 so the plain evolution
# path (zero initial state) applies, and
# f = du/dt - Laplace(u) + grad(p) = 2 cos(2t) u_s + sin(2t) (-Laplace(u_s))
#                                    + sin(t) grad(p_s).


def _ut1(t, x, y):
    return np.sin(2 * t) * _u1(x, y)


def _ut2(t, x, y):
    return np.sin(2 * t) * _u2(x, y)


def _pt(t, x, y):
    return np.sin(t) * _p(x, y)


def _ft1(t, x, y):
    return (2 * np.cos(2 * t) * _u1(x, y)
            + np.sin(2 * t) * _mlap_u1(x, y)
            + np.sin(t) * _dp_dx(x, y))


def _ft2(t, x, y):
    return (2 * np.cos(2 * t) * _u2(x, y)
            + np.sin(2 * t) * _mlap_u2(x, y)
            + np.sin(t) * _dp_dy(x, y))


def time_dependent_solution():
    """(u1, u2, p) callables of (t, x, y); the velocity vanishes at t = 0."""
    return _ut1, _ut2, _pt


def time_dependent_forcing():
    """(f1, f2) callables of (t, x, y) with f = du/dt - Laplace(u) + grad(p)."""
    return _ft1, _ft2


def _psi(x, y):
    return (x * (1 - x) * y * (1 - y)) ** 2


def _bilaplace_psi(x, y):
    # with X = x(1-x), Y = y(1-y): d4/dx4 X^2 = 24, d2/dx2 X^2 = 2 - 12 X
    X, Y = x * (1 - x), y * (1 - y)
    return 24 * (X ** 2 + Y ** 2) + 2 * (2 - 12 * X) * (2 - 12 * Y)


def biharmonic_stream():
    """Clamped test stream x^2 (1-x)^2 y^2 (1-y)^2 as a callable of (x, y)."""
    return _psi


def biharmonic_source():
    """Biharmonic of the test stream (polynomial), callable of (x, y)."""
    return _bilaplace_psi
