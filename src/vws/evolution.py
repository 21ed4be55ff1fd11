"""Time-dependent Stokes flows with rough boundary data, and their duals.

Forward problem on Q_T = Omega x (0, T):

    du/dt - Laplace(u) + grad(p) = f,  div u = 0,  u = g(t) on the wall,
    u(0) = u0   (zero data: f = 0, u0 = 0).

Each implicit step is one direct shifted Stokes saddle solve
(:func:`vws.stokes.solve_saddle`, two velocity Poisson solves), so the
stationary kernel does all the work: implicit Euler uses shift 1/dt with
slice-(k+1) boundary data; Crank-Nicolson uses shift 2/dt plus the explicit
discrete Laplacian of the previous step (algebraically the trapezoidal rule,
with each boundary slice entering at weight 1/2).

The backward adjoint problem

    -dv/dt - Laplace(v) + grad(q) = u,  v(T) = 0,  v = 0 on the wall

is the same step loop marched under time reversal: the forcing trajectory
is read backwards and the boundary values are zero.  ``evolve_lifted`` and
``solve_adjoint_backward`` are thin wrappers over that one loop, which
carries no state between steps but the velocity.

On top of these sit the space-time energy-estimate ratio
|u|_{Q_T} / |g|_{Gamma_T} and the space-time tangential pairing

    L_u(g1) = -integral over Q_T of u . (dv/dt + Laplace(v)),

with v a time-modulated tangential lift vanishing at t = T; for u driven by
boundary data g it equals minus the Gamma_T integral of (g.tau)(g1.tau)
(integrate by parts in t and x; u(0) = 0 and v(T) = 0 kill the endpoints),
and its value does not depend on which lift was used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boundary import (SIDES, BoundaryData, l2_norm_gamma, require_compatible,
                       smoothstep)
from .errors import NonConvergence, ZeroBoundaryData
from .grid import PressureField, StaggeredGrid, VelocityField, l2_norm_omega
from .operators import DirichletBC, apply_velocity_laplacian
from .stokes import solve_saddle
from .traces import TangentialBoundaryData, lift_tangential, perturbation_field

__all__ = [
    "TimeBoundaryData",
    "Trajectory",
    "smooth_ramp",
    "bump_ramp",
    "hard_start",
    "evolve",
    "evolve_lifted",
    "solve_adjoint_backward",
    "trapezoid_weights",
    "spacetime_velocity_norm",
    "spacetime_boundary_norm",
    "spacetime_estimate_ratio",
    "spacetime_pairing",
    "spacetime_pairing_reference",
    "spacetime_independence_gap",
    "final_zero_modulation",
]


# --- time profiles ----------------------------------------------------------

def smooth_ramp(t0: float):
    """C2 ramp from 0 at t=0 to 1 at t=t0, constant afterwards."""
    return lambda t: smoothstep(np.asarray(t, dtype=float) / t0)


def bump_ramp(t0: float, t1: float):
    """C2 profile rising on [0, t0], flat at 1, descending to 0 on [t1-t0, t1]."""
    def r(t):
        t = np.asarray(t, dtype=float)
        return smoothstep(t / t0) * smoothstep((t1 - t) / t0)
    return r


def hard_start():
    """Profile identically 1; the data jumps on at t=0 (stress-test mode)."""
    return lambda t: np.ones_like(np.asarray(t, dtype=float))


class TimeBoundaryData:
    """Boundary data on Gamma x [0, T]: ramp(t) times a spatial profile,
    or an explicit list of per-step slices."""

    def __init__(self, grid: StaggeredGrid, spatial: BoundaryData | None = None,
                 ramp=None, slices: list | None = None):
        if (spatial is None) == (slices is None):
            raise ValueError("give either spatial (+ramp) or explicit slices")
        self.grid = grid
        self.spatial = spatial
        self.ramp = ramp if ramp is not None else (lambda t: 1.0)
        self.slices = slices

    @classmethod
    def constant(cls, spatial: BoundaryData) -> "TimeBoundaryData":
        return cls(spatial.grid, spatial=spatial)

    @classmethod
    def ramped(cls, spatial: BoundaryData, ramp) -> "TimeBoundaryData":
        return cls(spatial.grid, spatial=spatial, ramp=ramp)

    @classmethod
    def from_slices(cls, grid: StaggeredGrid, slices: list) -> "TimeBoundaryData":
        return cls(grid, slices=list(slices))

    def at(self, k: int, dt: float) -> BoundaryData:
        """Boundary slice at time node t_k = k dt."""
        if self.slices is not None:
            return self.slices[k]
        return self.spatial * float(self.ramp(k * dt))


# --- trajectories -----------------------------------------------------------

@dataclass
class Trajectory:
    """Per-step fields of one evolution run; step 0 is the initial state."""

    grid: StaggeredGrid
    scheme: str
    dt: float
    times: np.ndarray
    velocities: list
    pressures: list
    diagnostics: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def final(self) -> VelocityField:
        return self.velocities[-1]

    def norms(self) -> np.ndarray:
        return np.array([l2_norm_omega(u) for u in self.velocities])


def _check_steps(T: float, dt: float) -> int:
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("T and dt must be positive")
    m = round(T / dt)
    if m < 1 or abs(m * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integral number of steps of dt={dt}")
    return m


def _slice_bc(g: TimeBoundaryData, k: int, dt: float) -> DirichletBC:
    gk = g.at(k, dt)
    require_compatible(gk, f"boundary slice at step {k}")
    return DirichletBC.from_boundary_data(gk)


def _march(grid: StaggeredGrid, scheme: str, dt: float, times: np.ndarray,
           u0: VelocityField, force, slice_bc, backward: bool) -> Trajectory:
    """The implicit step loop shared by both time directions.

    Node j of the march is time index j forward and m - j backward.
    force(j) -> (f1, f2) interior forcing at node j, or force=None;
    slice_bc(j) -> DirichletBC at node j.  The trajectory comes back in
    forward time order either way.
    """
    if scheme not in ("euler", "cn"):
        raise ValueError(f"unknown scheme {scheme!r}; use 'euler' or 'cn'")
    m = len(times) - 1
    shift = (1.0 if scheme == "euler" else 2.0) / dt
    u = u0
    bc_prev = slice_bc(0)
    velocities = [u]
    pressures = [None]
    diags = []
    for j in range(m):
        k = m - 1 - j if backward else j + 1     # time index being produced
        u1i, u2i = u.interior()
        if scheme == "euler":
            f1 = u1i / dt
            f2 = u2i / dt
            if force is not None:
                e1, e2 = force(j + 1)
                f1 = f1 + e1
                f2 = f2 + e2
        else:
            a1, a2 = apply_velocity_laplacian(grid, u.u1, u.u2, bc_prev)
            f1 = (2.0 / dt) * u1i - a1
            f2 = (2.0 / dt) * u2i - a2
            if force is not None:
                e1a, e2a = force(j)
                e1b, e2b = force(j + 1)
                f1 = f1 + e1a + e1b
                f2 = f2 + e2a + e2b
        bc_next = slice_bc(j + 1)
        try:
            u1, u2, p, diag = solve_saddle(grid, bc_next, f1, f2, None,
                                           shift=shift)
        except NonConvergence as exc:
            direction = "backward" if backward else "forward"
            raise NonConvergence(
                f"{direction} step {j + 1}/{m} (t={times[k]:.6g}): {exc}",
                best_x=exc.best_x, residual=exc.residual,
                iterations=exc.iterations) from exc
        u = VelocityField(grid, u1, u2)
        velocities.append(u)
        pressures.append(PressureField(grid, p if scheme == "euler" else 0.5 * p))
        diag["step"] = k
        diags.append(diag)
        bc_prev = bc_next
    if backward:
        velocities.reverse()
        pressures.reverse()
        diags.reverse()
    return Trajectory(grid, scheme, dt, times, velocities, pressures, diags)


def evolve_lifted(grid: StaggeredGrid, g: TimeBoundaryData, T: float, dt: float,
                  scheme: str = "euler", force=None,
                  u0: VelocityField | None = None) -> Trajectory:
    """March the forced problem: force(t) -> (f1, f2) interior arrays, u(0) = u0.

    The zero-data problem (evolve) is the force=None, u0=None case.
    """
    m = _check_steps(T, dt)
    times = np.arange(m + 1) * dt
    march_force = None if force is None else (lambda j: force(times[j]))
    return _march(grid, scheme, dt, times,
                  u0 if u0 is not None else VelocityField.zeros(grid),
                  march_force, lambda j: _slice_bc(g, j, dt), False)


def evolve(grid: StaggeredGrid, g: TimeBoundaryData, T: float, dt: float,
           scheme: str = "euler") -> Trajectory:
    """Zero-forced, zero-initial-state evolution driven by boundary data."""
    return evolve_lifted(grid, g, T, dt, scheme=scheme)


def solve_adjoint_backward(grid: StaggeredGrid, u_traj: Trajectory,
                           scheme: str | None = None) -> Trajectory:
    """Backward dual march: -dv/dt - Laplace(v) + grad(q) = u, v(T) = 0.

    Reversing time turns this into the forward step loop with the forcing
    trajectory read backwards and homogeneous boundary values; the result is
    returned in forward time order (entry k is v(t_k), entry -1 is zero).
    """
    m = u_traj.steps
    bc0 = DirichletBC.zero(grid)
    return _march(grid, scheme or u_traj.scheme, u_traj.dt, u_traj.times.copy(),
                  VelocityField.zeros(grid),
                  lambda j: u_traj.velocities[m - j].interior(),
                  lambda j: bc0, True)


# --- space-time functionals --------------------------------------------------

def trapezoid_weights(m: int, dt: float) -> np.ndarray:
    w = np.full(m + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def spacetime_velocity_norm(traj: Trajectory) -> float:
    w = trapezoid_weights(traj.steps, traj.dt)
    return float(np.sqrt(np.sum(w * traj.norms() ** 2)))


def spacetime_boundary_norm(g: TimeBoundaryData, T: float, dt: float) -> float:
    m = _check_steps(T, dt)
    w = trapezoid_weights(m, dt)
    vals = np.array([l2_norm_gamma(g.at(k, dt)) for k in range(m + 1)])
    return float(np.sqrt(np.sum(w * vals ** 2)))


def spacetime_estimate_ratio(grid: StaggeredGrid, g: TimeBoundaryData,
                             T: float, dt: float, scheme: str = "euler",
                             traj: Trajectory | None = None) -> float:
    """|u|_{L2(Q_T)} / |g|_{L2(0,T; L2(Gamma))} for the zero-data evolution."""
    g_norm = spacetime_boundary_norm(g, T, dt)
    if g_norm == 0.0:
        raise ZeroBoundaryData("space-time ratio undefined for zero data")
    if traj is None:
        traj = evolve(grid, g, T, dt, scheme=scheme)
    return spacetime_velocity_norm(traj) / g_norm


def final_zero_modulation(T: float):
    """Linear modulation 1 - t/T: value 1 at t=0, 0 at t=T."""
    return lambda t: 1.0 - t / T


def _modulation_samples(modulation, times: np.ndarray):
    mvals = np.array([float(modulation(t)) for t in times])
    dt = times[1] - times[0]
    dm = np.empty_like(mvals)
    dm[1:-1] = (mvals[2:] - mvals[:-2]) / (2.0 * dt)
    dm[0] = (-3.0 * mvals[0] + 4.0 * mvals[1] - mvals[2]) / (2.0 * dt)
    dm[-1] = (3.0 * mvals[-1] - 4.0 * mvals[-2] + mvals[-3]) / (2.0 * dt)
    return mvals, dm


def _volume_pairings(traj: Trajectory, w_field: VelocityField):
    """<u^k, w> and <u^k, Laplace_h w> for all steps, interior h^2 weights."""
    grid = traj.grid
    n, h = grid.n, grid.h
    a1, a2 = apply_velocity_laplacian(grid, w_field.u1, w_field.u2,
                                      DirichletBC.zero(grid))
    w1, w2 = w_field.interior()
    uw = np.empty(traj.steps + 1)
    ulw = np.empty(traj.steps + 1)
    for k, u in enumerate(traj.velocities):
        u1i, u2i = u.interior()
        uw[k] = h * h * (float(np.sum(u1i * w1)) + float(np.sum(u2i * w2)))
        ulw[k] = -h * h * (float(np.sum(u1i * a1)) + float(np.sum(u2i * a2)))
    return uw, ulw


def spacetime_pairing(traj: Trajectory, g1: TangentialBoundaryData,
                      modulation) -> float:
    """Discrete L_u(g1) = -sum_k w_k <u^k, (dv/dt + Laplace v)^k>.

    v^k = modulation(t_k) * lift(g1); the time derivative uses centered
    differences (one-sided second order at the ends), the Laplacian the
    zero-boundary discrete operator.  modulation must vanish at t = T.
    """
    lift = lift_tangential(g1)
    mvals, dm = _modulation_samples(modulation, traj.times)
    uw, ulw = _volume_pairings(traj, lift)
    w = trapezoid_weights(traj.steps, traj.dt)
    return -float(np.sum(w * (dm * uw + mvals * ulw)))


def spacetime_pairing_reference(g: TimeBoundaryData, g1: TangentialBoundaryData,
                                modulation, T: float, dt: float) -> float:
    """Boundary quadrature of -(g.tau)(g1.tau) m(t) over Gamma x [0,T].

    The continuum value of spacetime_pairing for u driven by g.
    """
    grid = g.grid
    m = _check_steps(T, dt)
    w = trapezoid_weights(m, dt)
    h = grid.h
    total = 0.0
    for k in range(m + 1):
        gk = g.at(k, dt)
        mv = float(modulation(k * dt))
        ring = sum(
            float(np.sum(gk.tangential_part(s) * g1.profiles[s]))
            for s in SIDES
        )
        total += w[k] * mv * h * ring
    return -total


def spacetime_independence_gap(traj: Trajectory, modulation,
                               seed: int = 0) -> float:
    """Pairing difference when the lift is perturbed by a time-modulated
    random solenoidal field with zero boundary values and normal derivative.

    Zero in the continuum for velocity trajectories solving the zero-forced
    problem; the discrete value measures the scheme's integration-by-parts
    defect.  Fields that do not solve the problem leave an O(1) residue.
    """
    w_field = perturbation_field(traj.grid, seed=seed)
    mvals, dm = _modulation_samples(modulation, traj.times)
    uw, ulw = _volume_pairings(traj, w_field)
    w = trapezoid_weights(traj.steps, traj.dt)
    return abs(float(np.sum(w * (dm * uw + mvals * ulw))))
