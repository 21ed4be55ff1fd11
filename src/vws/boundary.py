"""Boundary velocity data on the four sides of the unit square.

Data is stored as one (n, 2) array of (g1, g2) samples per side, taken at the
boundary face midpoints: x = (i+1/2) h on bottom/top, y = (j+1/2) h on
left/right.  Sides are oriented counterclockwise; outward normals and CCW
tangents are fixed per side.  Corner points never carry samples, so corner
values never enter any quadrature.

Where a side sits on the grid arrays is read, by every per-side stencil of
the package, from ``AXIS`` (the coordinate normal to it) and :func:`wall`.

The discrete boundary measure is h per sample (composite midpoint rule on the
perimeter of length 4).

BoundaryData and vws.traces.TangentialBoundaryData copy and freeze each side's
array when built; the fields of vws.grid take their arrays as given.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import UnderResolvedWarning
from .grid import StaggeredGrid

__all__ = [
    "SIDES",
    "NORMALS",
    "TANGENTS",
    "AXIS",
    "wall",
    "BoundaryData",
    "sigma",
    "smoothstep",
    "cavity_eps_profile",
    "cavity_g",
    "cavity_g_eps",
    "corner_variant",
    "outward_normal_data",
    "compatibility_defect",
    "project_compatible",
    "l2_norm_gamma",
]

SIDES = ("bottom", "right", "top", "left")
NORMALS = {
    "bottom": np.array([0.0, -1.0]),
    "right": np.array([1.0, 0.0]),
    "top": np.array([0.0, 1.0]),
    "left": np.array([-1.0, 0.0]),
}
TANGENTS = {
    "bottom": np.array([1.0, 0.0]),
    "right": np.array([0.0, 1.0]),
    "top": np.array([-1.0, 0.0]),
    "left": np.array([0.0, -1.0]),
}
# the coordinate normal to each side: 0 for the u1 faces, 1 for the u2 faces
AXIS = {"bottom": 1, "right": 0, "top": 1, "left": 0}
PERIMETER = 4.0


def wall(a: np.ndarray, side: str, depth: int = 0) -> np.ndarray:
    """The view of a face, cell, node or interior-shaped array, or of each of
    a stack, ``depth`` lines in from ``side`` (counted along AXIS[side] from
    the first entry on bottom/left, from the last on right/top), ordered as
    the samples are."""
    axis = AXIS[side]
    k = depth if NORMALS[side][axis] < 0.0 else -1 - depth
    return a[..., k, :] if axis == 0 else a[..., k]


def _pair_sum(a: np.ndarray) -> np.ndarray:
    """a[:-1] + a[1:]: twice the mean of each pair of neighbours, which takes
    values at the midpoints along a side to the nodes between them and back."""
    return a[:-1] + a[1:]


def _frozen_sides(per_side: dict, shape: tuple, missing_ok: bool) -> dict:
    """A read-only copy of each side's array, zero for a side without one if
    missing_ok; ValueError naming a key that is not a side, any other missing
    side, or an array of another shape or with non-finite values."""
    unknown = sorted(map(str, set(per_side) - set(SIDES)))
    missing = [] if missing_ok else [s for s in SIDES if s not in per_side]
    if unknown or missing:
        raise ValueError(f"sides must be {SIDES}; unknown {unknown}, missing {missing}")
    frozen = {}
    for side in SIDES:
        a = np.array(per_side[side] if side in per_side else np.zeros(shape),
                     dtype=float, order="C")
        if a.shape != shape:
            raise ValueError(f"side {side!r}: expected shape {shape}, got {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"side {side!r}: non-finite boundary values")
        a.flags.writeable = False
        frozen[side] = a
    return frozen


@dataclass(frozen=True)
class BoundaryData:
    """Velocity samples (g1, g2) at boundary face midpoints, one array per side."""

    grid: StaggeredGrid
    samples: dict  # side -> (n, 2) ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen_sides(
            self.samples, (self.grid.n, 2), missing_ok=False))

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "BoundaryData":
        return cls(grid, {s: np.zeros((grid.n, 2)) for s in SIDES})

    def normal_part(self, side: str) -> np.ndarray:
        return self.samples[side] @ NORMALS[side]

    def tangential_part(self, side: str) -> np.ndarray:
        return self.samples[side] @ TANGENTS[side]

    def __add__(self, other: "BoundaryData") -> "BoundaryData":
        return BoundaryData(
            self.grid, {s: self.samples[s] + other.samples[s] for s in SIDES}
        )

    def __sub__(self, other: "BoundaryData") -> "BoundaryData":
        return BoundaryData(
            self.grid, {s: self.samples[s] - other.samples[s] for s in SIDES}
        )

    def __mul__(self, a: float) -> "BoundaryData":
        return BoundaryData(self.grid, {s: a * self.samples[s] for s in SIDES})

    __rmul__ = __mul__


def smoothstep(s):
    """Quintic smoothstep: 0 for s <= 0, 1 for s >= 1, C2 across the joins."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def sigma(x):
    """C2 cutoff: 1 on [0, 1/2], quintic descent on [1/2, 3/4], 0 on [3/4, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("sigma is defined on [0, 1]")
    return 1.0 - smoothstep((x - 0.5) / 0.25)


def cavity_eps_profile(x, eps: float):
    """Regularized lid profile 1 - sigma(x) e^{-x/eps} - sigma(1-x) e^{-(1-x)/eps}.

    Vanishes at both ends of the lid and rises to ~1 over a layer of width eps,
    which must be finite and positive, else ValueError.
    """
    if not 0.0 < eps < math.inf:       # NaN fails it too
        raise ValueError(f"eps must be finite and positive, got {eps}")
    x = np.asarray(x, dtype=float)
    return 1.0 - sigma(x) * np.exp(-x / eps) - sigma(1.0 - x) * np.exp(-(1.0 - x) / eps)


def resolved_n(eps: float) -> int:
    """The coarsest grid that resolves a layer of width eps: n >= 8/eps, up to
    rounding (8/(1/3) reads 24.000000000000004 and needs 24)."""
    return math.ceil(8.0 / eps - 1e-9)


def _warn_if_underresolved(eps: float, grid: StaggeredGrid) -> None:
    if grid.n < (need := resolved_n(eps)):
        warnings.warn(
            f"layer width eps={eps:g} needs n >= {need}, got n={grid.n}; "
            "the boundary layer is under-resolved",
            UnderResolvedWarning,
            stacklevel=3,
        )


def cavity_g(grid: StaggeredGrid) -> BoundaryData:
    """Driven-lid data: (1, 0) on the top side, zero elsewhere.  Tangential."""
    g = {s: np.zeros((grid.n, 2)) for s in SIDES}
    g["top"][:, 0] = 1.0
    return BoundaryData(grid, g)


def cavity_g_eps(grid: StaggeredGrid, eps: float) -> BoundaryData:
    """Lid data with the corner singularities smoothed over a layer of width eps."""
    g = {s: np.zeros((grid.n, 2)) for s in SIDES}
    g["top"][:, 0] = cavity_eps_profile(grid.x_centers(), eps)
    _warn_if_underresolved(eps, grid)
    return BoundaryData(grid, g)


def corner_variant(grid: StaggeredGrid, which: str, eps: float = 0.0) -> BoundaryData:
    """Lid data driving only one corner singularity, projected compatible.

    corner_01: first component equals y on the right side; for eps > 0 the lid
    profile decays near x = 0 only (1 - sigma(x) e^{-x/eps}), leaving the
    corner at (1,1) matched by the ramp.  corner_11 is its mirror in x = 1/2:
    the profile reads s = 1 - x for x, and the ramp is on the left side.  The
    ramp has net outflow, so the result is projected back onto compatible
    data.  eps = 0 gives the unregularised lid; a negative or non-finite eps
    raises ValueError.
    """
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and zero or positive, got {eps}")
    if which not in ("corner_01", "corner_11"):
        raise ValueError(f"unknown corner variant {which!r}")
    g = {s: np.zeros((grid.n, 2)) for s in SIDES}
    x = grid.x_centers()
    ramp, s = ("right", x) if which == "corner_01" else ("left", 1.0 - x)
    if eps > 0.0:
        _warn_if_underresolved(eps, grid)
        g["top"][:, 0] = 1.0 - sigma(s) * np.exp(-s / eps)
    else:
        g["top"][:, 0] = 1.0
    g[ramp][:, 0] = x
    return project_compatible(BoundaryData(grid, g))


def outward_normal_data(grid: StaggeredGrid) -> BoundaryData:
    """g = n on every side (maximally incompatible test data)."""
    return BoundaryData(
        grid, {s: np.tile(NORMALS[s], (grid.n, 1)) for s in SIDES}
    )


def rotation_data(grid: StaggeredGrid) -> BoundaryData:
    """Trace of the rigid rotation (-(y-1/2), x-1/2).

    Smooth, compatible, and with constant tangential part g . tau = 1/2, so
    tangential-trace recoveries have a closed-form reference.
    """
    samples = {}
    a = grid.x_centers()
    zero, one = np.zeros_like(a), np.ones_like(a)
    coords = {
        "bottom": (a, zero), "top": (a, one),
        "left": (zero, a), "right": (one, a),
    }
    for side, (x, y) in coords.items():
        samples[side] = np.stack([-(y - 0.5), x - 0.5], axis=1)
    return BoundaryData(grid, samples)


def compatibility_defect(g: BoundaryData) -> float:
    """Net boundary flux: sum over all samples of h * (g . n)."""
    h = g.grid.h
    return float(sum(h * g.normal_part(s).sum() for s in SIDES))


def project_compatible(g: BoundaryData) -> BoundaryData:
    """Remove the flux defect uniformly from the normal component.

    Subtracts (defect / 4) n pointwise; tangential parts are untouched and the
    projection is idempotent.
    """
    d = compatibility_defect(g) / PERIMETER
    samples = {s: g.samples[s] - d * NORMALS[s][None, :] for s in SIDES}
    return BoundaryData(g.grid, samples)


def l2_norm_gamma(g: BoundaryData) -> float:
    """Discrete L2(Gamma) norm: sqrt(sum over samples of h |g|^2)."""
    h = g.grid.h
    s = sum(float(np.sum(g.samples[side] ** 2)) for side in SIDES)
    return float(np.sqrt(h * s))
