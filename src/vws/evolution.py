"""Time-dependent Stokes flows with rough boundary data, and their duals.

Forward problem on Q_T = Omega x (0, T):

    du/dt - Laplace(u) + grad(p) = f,  div u = 0,  u = g(t) on the wall,
    u(0) = 0   (zero data: f = 0).

Each implicit step is one shifted saddle solve by the cached
:class:`vws.operators.SaddleInverse`: at shift s = c/dt it solves
(A + s) z + G P = c s u^k + load(g) + f, with g and f at t_{k+1} for implicit
Euler (c = 1, u^{k+1} = z) and summed over t_k, t_{k+1} for Crank-Nicolson
(c = 2).  That is the implicit midpoint rule, algebraically the trapezoidal
rule: z = u^k + u^{k+1} is twice the midpoint velocity, u^{k+1} = z - u^k,
and P/2 is the half-step pressure.  No step applies a Laplacian, and none
brings its pressure back to the cells: the paper's evolution result bounds
the velocity, and a very weak solution's pressure is only a distribution in
time, so a trajectory keeps velocities alone.

The march runs in the solver's modes.  Boundary data are a ramp r(t) times
one spatial profile g, so the modes of load(g) and of its wall fluxes are
built and checked by the first step that loads g, and a step scales them by
its ramp sum; the velocity's interior modes are carried from step to step,
so a step's only transform is that of its new forcing node, by
:meth:`vws.operators.SaddleInverse.forcing_modes`.  The march steps in modes,
then brings every velocity back to the cells, and checks every defect, in
one cell stage: one stacked inverse transform for the whole march.  A
forward march's velocities keep their interior modes
(:attr:`vws.grid.VelocityField.modes`), as every solved velocity does.

A march makes one allocation for its working set: the trajectory's cells,
its kept modes and the step scratch it writes are views of one block
(2.26 MB for 16 Crank-Nicolson steps at n = 64).  glibc serves the first
block that large from mmap and, freeing it, lifts its trim threshold to
twice its size, above the heap top a march and its backward march leave
free; the heap is then no longer handed back between marches, so the next
one does not fault it in again.  The block holds only what the march
writes, so a trajectory keeps its fields, its modes and one step's scratch.

The backward adjoint problem

    -dv/dt - Laplace(v) + grad(q) = u,  v(T) = 0,  v = 0 on the wall

is the same step loop marched under time reversal, with the forcing
trajectory read backwards and zero boundary values.  Its forcing is the
modes the forward velocities keep, so it takes no transform and stays the
exact discrete adjoint of the forward steps; a velocity without modes (a
hand-built trajectory) is transformed once.  Its own velocities keep none;
``evolve_lifted`` and ``solve_adjoint_backward`` wrap that one loop.

On top of these sit the space-time energy-estimate ratio
|u|_{Q_T} / |g|_{Gamma_T} and the space-time tangential pairing

    L_u(g1) = -integral over Q_T of u . (dv/dt + Laplace(v)),

with v = m(t) R g1 a time-modulated tangential lift vanishing at t = T; for
u driven by boundary data g it equals minus the Gamma_T integral of
(g.tau)(g1.tau) (integrate by parts in t and x; u(0) = 0 and v(T) = 0 kill
the endpoints), and its value does not depend on which lift was used.  The
test function is separable and the trapezoid rule linear, so with the time
sums U_m = sum_k w_k m(t_k) u^k and U_d = sum_k w_k m'(t_k) u^k

    L_u(g1) = -(<U_d, R g1>_h + integral of U_m . Laplace(R g1)),

two stationary pairings that vws.traces evaluates from the lift factors
without building R g1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .boundary import SIDES, TANGENTS, BoundaryData, l2_norm_gamma, smoothstep
from .errors import NonConvergence, ZeroBoundaryData
from .grid import (StaggeredGrid, VelocityField, l2_norm_omega,
                   require_same_grid)
from .operators import defect_miss, saddle_inverses
from .traces import (TangentialBoundaryData, _lift_pairings, pairing_with_field,
                     perturbation_field)

__all__ = [
    "TimeBoundaryData",
    "Trajectory",
    "smooth_ramp",
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
    """C2 ramp from 0 at t=0 to 1 at t=t0, constant afterwards; a t0 that is
    not finite and positive raises ValueError."""
    if not 0.0 < t0 < np.inf:       # NaN fails it too
        raise ValueError(f"t0 must be finite and positive, got {t0}")
    return lambda t: smoothstep(np.asarray(t, dtype=float) / t0)


class TimeBoundaryData:
    """Boundary data on Gamma x [0, T]: ramp(t) times a spatial profile."""

    def __init__(self, spatial: BoundaryData, ramp=None):
        self.grid = spatial.grid
        self.spatial = spatial
        self.ramp = ramp if ramp is not None else (lambda t: 1.0)

    @classmethod
    def constant(cls, spatial: BoundaryData) -> "TimeBoundaryData":
        return cls(spatial)

    @classmethod
    def ramped(cls, spatial: BoundaryData, ramp) -> "TimeBoundaryData":
        return cls(spatial, ramp)

    def _ramp_at(self, k: int, dt: float) -> float:
        r = float(self.ramp(k * dt))
        if not np.isfinite(r):
            raise ValueError(f"ramp is {r} at t={k * dt:g}")
        return r

    def at(self, k: int, dt: float) -> BoundaryData:
        """Boundary slice at time node t_k = k dt; a non-finite ramp value
        raises ValueError."""
        return self.spatial * self._ramp_at(k, dt)

    def ramp_samples(self, m: int, dt: float) -> np.ndarray:
        """The ramp at the time nodes k dt, k = 0..m; the slice at node k is
        that value times the spatial profile.  A non-finite value raises
        ValueError."""
        return np.array([self._ramp_at(k, dt) for k in range(m + 1)])


# --- trajectories -----------------------------------------------------------

def _check_scheme(scheme: str) -> None:
    if scheme not in ("euler", "cn"):
        raise ValueError(f"unknown scheme {scheme!r}; use 'euler' or 'cn'")


@dataclass
class Trajectory:
    """Per-step fields of one evolution run: velocities[k] at time k dt, step
    0 the initial state.  A scheme other than 'euler' or 'cn', a dt that is
    not finite and positive, or no velocity, raises ValueError.

    A forward march's velocities keep their interior modes, which the
    backward march reads as its forcing.  A marched velocity's faces and
    modes are views of its march's one block, so any one velocity kept
    keeps the whole block alive.
    """

    grid: StaggeredGrid
    scheme: str
    dt: float
    velocities: list
    diagnostics: list = field(default_factory=list)

    def __post_init__(self):
        _check_scheme(self.scheme)
        # NaN fails the comparison
        if not (0.0 < self.dt < np.inf and self.velocities):
            raise ValueError(f"a trajectory needs a finite dt > 0 and a velocity, "
                             f"got dt={self.dt} and {len(self.velocities)}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.velocities)) * self.dt

    @property
    def pressures(self) -> list:
        """One None per step: a march keeps no pressures."""
        return [None] * len(self.velocities)

    @property
    def steps(self) -> int:
        return len(self.velocities) - 1

    def final(self) -> VelocityField:
        return self.velocities[-1]

    def norms(self) -> np.ndarray:
        return np.array([l2_norm_omega(u) for u in self.velocities])


# a march keeps every step, so longer ones are rejected
_MAX_STEPS = 10 ** 6


def _check_steps(T: float, dt: float) -> int:
    # NaN fails every comparison; the last one catches an overflowing ratio
    if not (0.0 < T < np.inf and 0.0 < dt < np.inf and T / dt < np.inf):
        raise ValueError(f"T and dt must be finite and positive, got T={T}, dt={dt}")
    m = round(T / dt)
    if m > _MAX_STEPS:
        raise ValueError(f"T={T} and dt={dt} make {T / dt:.3g} steps, "
                         f"more than {_MAX_STEPS}")
    if m < 1 or abs(m * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"T={T} is not an integral number of steps of dt={dt}")
    return m


def _march(grid: StaggeredGrid, scheme: str, dt: float, m: int,
           force, g: BoundaryData | None, ramp, backward: bool) -> Trajectory:
    """The implicit step loop shared by both time directions, from zero.

    Node j of the march is time index j forward and m - j backward.
    force(j) -> the forcing at node j, as SaddleInverse.forcing_modes reads
    it (kept modes read, never written), or force=None; the boundary
    values at node j are ramp[j] g, or zero for g=None.  The trajectory
    comes back in forward time order either way; a forward
    march's velocities keep their interior modes, a backward one's none.

    A step's right side, in modes, is c s u^k + rho_j (load of g) + the
    forcing, with rho_j = r_{j+1} for Euler and r_j + r_{j+1} for
    Crank-Nicolson; the zero start's wall faces hold no normal values, so
    the first Crank-Nicolson step takes rho = r_1 and loads the tangential
    part of g(0) apart.  SaddleInverse.right_side builds each right side of
    g in the first step that loads it, so data whose net flux the solver
    refuses raise, as any bad data do, with the step's place in time.  The
    cell stage (module docstring) follows the last step; the first defect
    miss raises NonConvergence carrying the defect and the step's faces (z1,
    z2), and a non-finite data scale ends the march at its step.  A step's
    ``wall_time`` is its modal time plus 1/m of the cell stage.

    The march allocates once, which keeps the heap resident between marches
    (module docstring); the comment on the block gives its layout.
    """
    _check_scheme(scheme)
    c = 1 if scheme == "euler" else 2
    inv = saddle_inverses(grid, c / dt)
    n = grid.n
    # the march's one block: the trajectory's cells, a velocity a row (a
    # step's row first holds z's modes; only the zero start's is zeroed, the
    # cell stage writes the others in full); the z modes, u1's and u2's each
    # laid out as its faces (SaddleInverse.components), step j's in stack
    # j % kept, every step's forward and two alternating backward; a forward
    # forcing's modes at two nodes, node j in slot j % 2 (a backward one's
    # are read in place, and a velocity without them is transformed into its
    # own stack); the scaled boundary modes when g is given; c_hat, the modes
    # of the continuity right side, refilled every step
    cells, kept = 2 * n * (n + 1), 2 if backward else m
    stacks = kept + 2 * (force is not None and not backward) + (g is not None)
    block = np.empty((m + 1) * cells + stacks * 2 * (n - 1) * n + n * n)
    u12 = block[:(m + 1) * cells].reshape(m + 1, cells)
    u12[0] = 0.0
    zs = list(block[(m + 1) * cells:-n * n].reshape(stacks, 2 * (n - 1) * n))
    c_hat = block[-n * n:].reshape(n, n)
    scratch = zs.pop() if g is not None else None
    f_buf = zs[kept:] or [None, None]
    f_hat = [None, None]
    b_g = None
    x, u1, u2 = inv.cell_views(u12)
    # the zero start's modes, which take no memory
    u_hat = np.broadcast_to(0.0, 2 * (n - 1) * n)
    modes, rhos, solves = [u_hat], np.zeros(m), []
    index = (lambda j: m - 1 - j) if backward else (lambda j: j + 1)  # time index
    direction = "backward" if backward else "forward"
    where = lambda j: f"{direction} step {j + 1}/{m} (t={index(j) * dt:.6g})"
    for j in range(m):
        t0 = time.perf_counter()
        # the modes of the step's right side, which the solve turns into
        # those of its solution z, kept by a forward march
        z_hat = zs[j % kept]
        try:
            # c s u = u / (dt / c^2): u/dt for Euler, 4 u/dt for Crank-Nicolson
            np.divide(u_hat, dt / c ** 2, out=z_hat)
            if force is not None:
                for node in range(j + 2 - c, j + 2):
                    slot = node % 2
                    if node == j + 1 or j == 0:
                        f_hat[slot] = inv.forcing_modes(force(node), f_buf[slot])
                    z_hat += f_hat[slot]
            c_max = 0.0
            c_hat.fill(0.0)
            if g is not None:
                rho = ramp[j + 1] + (ramp[j] if c == 2 and j else 0.0)
                if c == 2 and j == 0 and ramp[0]:
                    tangential = {s: g.samples[s] * np.abs(TANGENTS[s])
                                  for s in SIDES}
                    z_hat += ramp[0] * inv.right_side(
                        BoundaryData(grid, tangential), out=scratch)[0]
                if rho:
                    if b_g is None:
                        b_g, c_g, c_max_g = inv.right_side(g)
                    z_hat += np.multiply(b_g, rho, out=scratch)
                    rhos[j] = rho
                    if c_max_g:
                        np.multiply(c_g, rho, out=c_hat)
                        c_max = abs(rho) * c_max_g
            _, scale, steps = inv.solve_modes(z_hat, c_hat, c_max, u12[j + 1])
        except ValueError as exc:
            raise type(exc)(f"{where(j)}: {exc}") from exc
        x[j + 1] = z_hat
        if c == 2:
            z_hat -= u_hat
        modes.append(None if backward else z_hat)
        u_hat = z_hat
        solves.append((scale, steps, time.perf_counter() - t0))
        if not np.isfinite(scale):
            break   # this step misses: no later one is solved

    # the cell stage of every step solved, wall faces rho_j times g's normals
    t0 = time.perf_counter()
    k = len(solves)
    defects = inv.to_cells(u12[1:k + 1], g, rhos[:k])
    share = (time.perf_counter() - t0) / m
    diags = []
    for j, (div_max, (scale, steps, wall_time)) in enumerate(zip(defects, solves)):
        if why := defect_miss(div_max, scale):
            raise NonConvergence(f"{where(j)}: {why}", residual=div_max,
                                 best_x=(u1[j + 1].copy(), u2[j + 1].copy()),
                                 iterations=steps)
        diags.append({"outer_iterations": steps, "div_max": float(div_max),
                      "wall_time": wall_time + share, "step": index(j)})
    if c == 2:
        for j in range(m):   # u^{k+1} = z - u^k, in step order
            u12[j + 1] -= u12[j]
    velocities = [VelocityField(grid, a, b) if backward else
                  VelocityField._solved(grid, a, b, z)
                  for a, b, z in zip(u1, u2, modes)]
    if backward:
        velocities.reverse()
        diags.reverse()
    return Trajectory(grid, scheme, dt, velocities, diags)


def evolve_lifted(grid: StaggeredGrid, g: TimeBoundaryData, T: float, dt: float,
                  scheme: str = "euler", force=None) -> Trajectory:
    """March the forced problem: force(t) -> the interior forcing, u(0) = 0.

    force(t) is a pair (f1, f2) or a velocity, as solve_saddle takes it;
    force=None is the zero-data problem (evolve).  Bad T, dt, ramp values
    or forcing, more than 10**6 steps, or g or a forcing on another grid,
    raise ValueError.
    """
    require_same_grid(grid, g)
    m = _check_steps(T, dt)
    march_force = None if force is None else (lambda j: force(j * dt))
    return _march(grid, scheme, dt, m, march_force, g.spatial,
                  g.ramp_samples(m, dt), False)


def evolve(grid: StaggeredGrid, g: TimeBoundaryData, T: float, dt: float,
           scheme: str = "euler") -> Trajectory:
    """Zero-forced, zero-initial-state evolution driven by boundary data."""
    return evolve_lifted(grid, g, T, dt, scheme=scheme)


def solve_adjoint_backward(grid: StaggeredGrid,
                           u_traj: Trajectory) -> Trajectory:
    """Backward dual march: -dv/dt - Laplace(v) + grad(q) = u, v(T) = 0.

    Reversing time turns this into the forward step loop, in the scheme of
    u_traj, with the forcing trajectory read backwards and homogeneous
    boundary values; the result is returned in forward time order (entry k
    is v(t_k), entry -1 is zero).  Each velocity of u_traj forces through
    the modes it keeps, read in place, and one without them through its
    transform; a non-finite one raises ValueError, as does u_traj or one
    of its velocities on another grid.
    """
    require_same_grid(grid, u_traj)
    m = u_traj.steps
    return _march(grid, u_traj.scheme, u_traj.dt, m,
                  lambda j: u_traj.velocities[m - j], None, None, True)


# --- space-time functionals --------------------------------------------------

def trapezoid_weights(m: int, dt: float) -> np.ndarray:
    w = np.full(m + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def spacetime_velocity_norm(traj: Trajectory) -> float:
    w = trapezoid_weights(traj.steps, traj.dt)
    return float(np.sqrt(np.sum(w * traj.norms() ** 2)))


def spacetime_boundary_norm(g: TimeBoundaryData, T: float, dt: float) -> float:
    """sqrt(sum_k w_k |g(t_k)|_Gamma^2) = |g|_Gamma sqrt(sum_k w_k r_k^2)
    over the ramp samples r_k."""
    m = _check_steps(T, dt)
    r = g.ramp_samples(m, dt)
    w = trapezoid_weights(m, dt)
    return l2_norm_gamma(g.spatial) * float(np.sqrt(np.sum(w * r ** 2)))


def spacetime_estimate_ratio(grid: StaggeredGrid, g: TimeBoundaryData,
                             T: float, dt: float, traj: Trajectory) -> float:
    """|u|_{L2(Q_T)} / |g|_{L2(0,T; L2(Gamma))} for the zero-data evolution
    traj driven by g; its step count and dt must be those of T and dt, else
    ValueError.
    """
    require_same_grid(grid, g, traj)
    if (traj.steps, traj.dt) != (_check_steps(T, dt), dt):
        raise ValueError(f"trajectory has T={traj.times[-1]}, dt={traj.dt}, "
                         f"not T={T}, dt={dt}")
    g_norm = spacetime_boundary_norm(g, T, dt)
    if g_norm == 0.0:
        raise ZeroBoundaryData("space-time ratio undefined for zero data")
    return spacetime_velocity_norm(traj) / g_norm


def final_zero_modulation(T: float):
    """Linear modulation 1 - t/T: value 1 at t=0, 0 at t=T; a T that is not
    finite and positive raises ValueError."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    return lambda t: 1.0 - t / T


def _modulation_samples(modulation, times: np.ndarray):
    """m(t_k) and its second-order differences m'(t_k); needs two steps and
    |m(T)| at most 1e-9 of max_k |m(t_k)|."""
    if len(times) < 3:
        raise ValueError(f"a space-time functional needs at least two steps, "
                         f"got {len(times) - 1}")
    mvals = np.array([float(modulation(t)) for t in times])
    if not np.isfinite(mvals).all():
        raise ValueError("modulation has non-finite values")
    if abs(mvals[-1]) > 1e-9 * np.abs(mvals).max():
        raise ValueError(f"modulation must vanish at t = T, got "
                         f"m({times[-1]:g}) = {mvals[-1]:g}")
    dt = times[1] - times[0]
    dm = np.empty_like(mvals)
    dm[1:-1] = (mvals[2:] - mvals[:-2]) / (2.0 * dt)
    dm[0] = (-3.0 * mvals[0] + 4.0 * mvals[1] - mvals[2]) / (2.0 * dt)
    dm[-1] = (3.0 * mvals[-1] - 4.0 * mvals[-2] + mvals[-3]) / (2.0 * dt)
    return mvals, dm


def _time_sums(traj: Trajectory, modulation):
    """(sum_k w_k m(t_k) u^k, sum_k w_k m'(t_k) u^k) over the trapezoid
    weights w_k, as fields; wall faces are summed like any other face."""
    mvals, dm = _modulation_samples(modulation, traj.times)
    w = trapezoid_weights(traj.steps, traj.dt)
    u0 = traj.velocities[0]
    m1, m2 = np.zeros_like(u0.u1), np.zeros_like(u0.u2)
    d1, d2 = np.zeros_like(u0.u1), np.zeros_like(u0.u2)
    for wk, mk, dk, u in zip(w, mvals, dm, traj.velocities):
        m1 += (wk * mk) * u.u1
        m2 += (wk * mk) * u.u2
        d1 += (wk * dk) * u.u1
        d2 += (wk * dk) * u.u2
    return VelocityField(traj.grid, m1, m2), VelocityField(traj.grid, d1, d2)


def spacetime_pairing(traj: Trajectory, g1: TangentialBoundaryData,
                      modulation) -> float:
    """Discrete L_u(g1) = -sum_k w_k <u^k, (dv/dt + Laplace v)^k>.

    v^k = modulation(t_k) * lift(g1); the time derivative uses centered
    differences (one-sided second order at the ends), the Laplacian the
    zero-boundary discrete operator.  modulation must vanish at t = T.
    Evaluated as -(<U_d, R g1>_h + L_{U_m}(g1)) on the time sums (see the
    module docstring), so no lift is built.  A trajectory of fewer than two
    steps, a non-finite modulation or one that does not vanish at T, or g1
    on another grid raises ValueError.
    """
    require_same_grid(traj.grid, g1)
    u_m, u_d = _time_sums(traj, modulation)
    return -(_lift_pairings(u_d, g1)[0] + _lift_pairings(u_m, g1)[1])


def spacetime_pairing_reference(g: TimeBoundaryData, g1: TangentialBoundaryData,
                                modulation, T: float, dt: float) -> float:
    """Boundary quadrature of -(g.tau)(g1.tau) m(t) over Gamma x [0,T].

    The continuum value of spacetime_pairing for u driven by g; it takes
    the same checks.
    """
    grid = g.grid
    require_same_grid(grid, g1)
    m = _check_steps(T, dt)
    w = trapezoid_weights(m, dt)
    mvals, _ = _modulation_samples(modulation, np.arange(m + 1) * dt)
    r = g.ramp_samples(m, dt)
    # the slice at t_k is r_k g, so each ring sum is r_k times that of g
    ring = sum(float(np.sum(g.spatial.tangential_part(s) * g1.profiles[s]))
               for s in SIDES)
    return -grid.h * ring * float(np.sum(w * mvals * r))


def spacetime_independence_gap(traj: Trajectory, modulation,
                               seed: int = 0) -> float:
    """Pairing difference when the lift is perturbed by a time-modulated
    random solenoidal field with zero boundary values and normal derivative.

    Zero in the continuum for velocity trajectories solving the zero-forced
    problem; the discrete value measures the scheme's integration-by-parts
    defect.  Fields that do not solve the problem leave an O(1) residue.
    Fewer than two steps, or a non-finite modulation or one that does not
    vanish at T, raise ValueError.
    """
    w_field = perturbation_field(traj.grid, seed=seed)
    u_m, u_d = _time_sums(traj, modulation)
    (d1, d2), (w1, w2) = u_d.interior(), w_field.interior()
    mass = traj.grid.h ** 2 * float(np.vdot(d1, w1) + np.vdot(d2, w2))
    return abs(mass + pairing_with_field(u_m, w_field))
