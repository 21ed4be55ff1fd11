"""Staggered (MAC) grid and fields on the unit square.

Layout, with n cells per direction and h = 1/n:

    pressure   p[i, j]    at cell centers ((i+1/2) h, (j+1/2) h),  shape (n, n)
    velocity   u1[i, j]   at x-normal faces (i h, (j+1/2) h),      shape (n+1, n)
    velocity   u2[i, j]   at y-normal faces ((i+1/2) h, j h),      shape (n, n+1)
    nodes      psi[i, j]  at corners (i h, j h),                   shape (n+1, n+1)

The first index is always x, the second y.  Faces with i = 0 or i = n (for u1)
and j = 0 or j = n (for u2) lie on the boundary; they store prescribed normal
velocities.  The interior unknowns are u1[1:n, :] and u2[:, 1:n];
VelocityField.interior and VelocityField.from_interior convert between the
interior-shaped arrays and the full face field.  A velocity that a saddle
solve returns also keeps the interior modes it was solved in
(VelocityField.modes), which SaddleInverse.forcing_modes hands to a solve
it forces with no forward transform; every other field has modes None.

Discrete integrals over the square use the owned-volume measure: every face
owns an h x h box, halved for boundary faces (which own half a box).  With
that choice a component identically equal to one has L2 norm exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StaggeredGrid",
    "VelocityField",
    "PressureField",
    "build_grid",
    "require_same_grid",
    "l2_norm_omega",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class StaggeredGrid:
    """Uniform MAC grid on (0,1)^2 with n x n cells."""

    n: int

    @property
    def h(self) -> float:
        return 1.0 / self.n

    # --- coordinate arrays, the same along either axis ----------------------
    def nodes(self) -> np.ndarray:
        """Node coordinates i h, i = 0..n: also those of the faces normal
        to the axis."""
        return np.arange(self.n + 1) * self.h

    def x_centers(self) -> np.ndarray:
        """Cell-center coordinates (j+1/2) h, j = 0..n-1, along either axis."""
        return (np.arange(self.n) + 0.5) * self.h


def build_grid(n: int) -> StaggeredGrid:
    """Validate n and build the grid.  Grids coarser than 4 cells are refused."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"cell count must be an integer, got {n!r}")
    if n < 4:
        raise ValueError(f"cell count must be at least 4, got {n}")
    return StaggeredGrid(int(n))


def require_same_grid(grid: StaggeredGrid, *items) -> None:
    """Raise ValueError unless every item (a field or data) or None is on grid."""
    for item in items:
        if item is not None and item.grid.n != grid.n:
            raise ValueError(f"{type(item).__name__} on an n={item.grid.n} grid "
                             f"passed with an n={grid.n} grid")


@dataclass(frozen=True)
class VelocityField:
    """Face-valued velocity (u1, u2), boundary faces included.

    modes, read-only, holds the interior modes
    (:meth:`vws.operators.SaddleInverse.to_modes`) of a velocity a saddle
    solve returned: one block of 2 (n-1) n floats, u1's (n-1, n) and then
    u2's (n, n-1), each laid out as its faces
    (:meth:`vws.operators.SaddleInverse.components`).  It is None for every
    other field: hand-built ones, zeros, from_interior and the results of
    +, - and *.
    """

    grid: StaggeredGrid
    u1: np.ndarray  # (n+1, n)
    u2: np.ndarray  # (n, n+1)
    modes: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        n = self.grid.n
        if self.u1.shape != (n + 1, n) or self.u2.shape != (n, n + 1):
            raise ValueError(
                f"field shapes {self.u1.shape}, {self.u2.shape} do not match n={n}"
            )
        object.__setattr__(self, "u1", _freeze(self.u1))
        object.__setattr__(self, "u2", _freeze(self.u2))

    @classmethod
    def _solved(cls, grid, u1, u2, modes: np.ndarray) -> "VelocityField":
        """A solver's velocity with the interior modes it was solved in,
        made read-only like the faces."""
        u = cls(grid, u1, u2)
        modes.flags.writeable = False
        object.__setattr__(u, "modes", modes)
        return u

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "VelocityField":
        return cls(grid, np.zeros((grid.n + 1, grid.n)), np.zeros((grid.n, grid.n + 1)))

    @classmethod
    def from_functions(cls, grid, f1, f2) -> "VelocityField":
        """Sample callables f(x, y) at the respective face positions."""
        z, c = grid.nodes(), grid.x_centers()
        x1, y1 = np.meshgrid(z, c, indexing="ij")
        x2, y2 = np.meshgrid(c, z, indexing="ij")
        return cls(grid, np.asarray(f1(x1, y1), dtype=float),
                   np.asarray(f2(x2, y2), dtype=float))

    @classmethod
    def from_interior(cls, grid, u1_int, u2_int) -> "VelocityField":
        """Field with the given interior faces and zero wall faces."""
        n = grid.n
        u1 = np.zeros((n + 1, n))
        u2 = np.zeros((n, n + 1))
        u1[1:n, :] = u1_int
        u2[:, 1:n] = u2_int
        return cls(grid, u1, u2)

    def interior(self):
        """Read-only views of the interior faces, shapes (n-1, n) and (n, n-1)."""
        n = self.grid.n
        return self.u1[1:n, :], self.u2[:, 1:n]

    def __add__(self, other: "VelocityField") -> "VelocityField":
        return VelocityField(self.grid, self.u1 + other.u1, self.u2 + other.u2)

    def __sub__(self, other: "VelocityField") -> "VelocityField":
        return VelocityField(self.grid, self.u1 - other.u1, self.u2 - other.u2)

    def __mul__(self, a: float) -> "VelocityField":
        return VelocityField(self.grid, a * self.u1, a * self.u2)

    __rmul__ = __mul__


@dataclass(frozen=True)
class PressureField:
    """Cell-centered scalar field."""

    grid: StaggeredGrid
    p: np.ndarray  # (n, n)

    def __post_init__(self):
        n = self.grid.n
        if self.p.shape != (n, n):
            raise ValueError(f"field shape {self.p.shape} does not match n={n}")
        object.__setattr__(self, "p", _freeze(self.p))

    @classmethod
    def from_function(cls, grid, f) -> "PressureField":
        c = grid.x_centers()
        x, y = np.meshgrid(c, c, indexing="ij")
        return cls(grid, np.asarray(f(x, y), dtype=float))

    def mean(self) -> float:
        return float(self.p.mean())

    def zero_mean(self) -> "PressureField":
        return PressureField(self.grid, self.p - self.p.mean())

    def __sub__(self, other: "PressureField") -> "PressureField":
        return PressureField(self.grid, self.p - other.p)


def l2_norm_omega(field) -> float:
    """Discrete L2(Omega) norm under the owned-volume measure.

    Velocity: sqrt(sum w |u1|^2 + sum w |u2|^2) with boundary faces owning
    half a cell.  Pressure: all cells own a full h^2 box.
    """
    if isinstance(field, VelocityField):
        # here, not at the top: vws.boundary imports this module
        from .boundary import AXIS, SIDES, wall
        u1, u2 = field.u1, field.u2
        walls = [wall((u1, u2)[AXIS[side]], side)
                 for side in sorted(SIDES, key=AXIS.get)]
        s = np.vdot(u1, u1) + np.vdot(u2, u2)
        s -= 0.5 * sum(np.vdot(w, w) for w in walls)
        return float(np.sqrt(field.grid.h ** 2 * s))
    if isinstance(field, PressureField):
        return float(np.sqrt(field.grid.h ** 2 * np.vdot(field.p, field.p)))
    raise TypeError(f"cannot take an Omega norm of {type(field).__name__}")
