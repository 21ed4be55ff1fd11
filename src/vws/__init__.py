"""Numerical laboratory for very weak solutions of the Stokes problem.

The package realizes, on the MAC-staggered unit square, the transposition
(duality) framework for Stokes flows driven by boundary data that is merely
square integrable: rough-data solves, the adjoint-based identity tying the
interior norm to boundary integrals, boundary-trace recovery by pairing with
liftings, a stream-function/biharmonic cross-check, and the time-dependent
analogues.  See README.md for the module map and the experiment CLI.
"""

from .boundary import (
    BoundaryData,
    cavity_g,
    cavity_g_eps,
    compatibility_defect,
    corner_variant,
    l2_norm_gamma,
    project_compatible,
    rotation_data,
)
from .errors import (
    IncompatibleBoundaryData,
    NonConvergence,
    NonTangentialData,
    RecipeMismatch,
    UnderResolvedWarning,
    ZeroBoundaryData,
)
from .grid import (
    PressureField,
    StaggeredGrid,
    VelocityField,
    build_grid,
    l2_norm_omega,
)
from .stokes import (
    StokesSolution,
    solve_boundary,
    solve_homogeneous,
)

__version__ = "0.1.0"
