"""The three benchmark workloads: seeded inputs, one op each, and its oracle.

Every op calls the package through module attributes (``stokes.solve_boundary``
rather than a name imported once), so the traced run sees the wrapped entry
points that ``tracer.py`` installs.  The oracle never trusts a solver's own
report: it compares against unit-amplitude references solved in set-up and
recomputes divergences from the returned fields.
"""

from __future__ import annotations

import numpy as np

from vws import biharmonic, boundary, evolution, stokes, traces, transposition
from vws.grid import VelocityField, build_grid, l2_norm_omega
from vws.operators import divergence
from vws.stokes import SolverOptions

# log10 range of the data amplitude a.  Uzawa outer iterations grow with a
# (the stopping rule is an absolute divergence tolerance), so every workload
# spans six decades of data scale.
AMPLITUDE_LOG10 = (-3.0, 3.0)
LINEARITY_TOL = 1e-6
REL_GAP_TOL = 0.05
CROSS_GAP_TOL = 1e-6
DIV_TOL = SolverOptions().div_tol


def input_schedule(seed: int, choices: tuple, blocks: int) -> list:
    """Seeded op inputs: `blocks` blocks, each a list of (choice, amplitude).

    Each discrete choice appears once per block, in a seeded random order.
    For each choice, the range of log10 a is cut into `blocks` equal strata,
    and every stratum centre is used once, dealt to the blocks in a seeded
    random order.  Every seed thus runs the same ops in its own order: the
    mix of cheap and costly inputs, and of inputs on either side of any
    accuracy threshold, does not depend on the seed, so the run-to-run spread
    of the metrics, and of the failure count, reflects the host, never the
    luck of the draw.
    """
    rng = np.random.default_rng(seed)
    lo, hi = AMPLITUDE_LOG10
    strata = [rng.permutation(blocks) for _ in choices]
    schedule = []
    for b in range(blocks):
        block = []
        for j in rng.permutation(len(choices)):
            u = (strata[j][b] + 0.5) / blocks
            block.append((choices[j], float(10.0 ** (lo + (hi - lo) * u))))
        schedule.append(block)
    return schedule


def _rel(diff: float, ref: float) -> float:
    return diff / ref if ref > 0.0 else diff


def _traj_rel_diff(traj, ref, a: float) -> float:
    """Space-time relative L2 distance between traj and a * ref."""
    num = sum(l2_norm_omega(u - v * a) ** 2
              for u, v in zip(traj.velocities, ref.velocities))
    den = sum(l2_norm_omega(v * a) ** 2 for v in ref.velocities)
    return _rel(float(np.sqrt(num)), float(np.sqrt(den)))


def _max_div(fields) -> float:
    return max(float(np.abs(divergence(u).p).max()) for u in fields)


def _order(errs) -> float:
    return float(np.log2(errs[0] / errs[1]))


class Workload:
    """Interface: set-up (references + manufactured check), op, oracle, counts."""

    name = ""
    choices: tuple = ()
    # Mean op time on the reference machine; it sizes the schedule to
    # --seconds and never changes with the code under test.
    op_s_nominal = 0.0

    def derive(self) -> None:
        """Derive this workload's manufactured solution (sympy, once per process)."""

    def manufactured_check(self) -> dict:
        """Name -> (observed order, minimum order) on a grid pair 16, 32."""
        raise NotImplementedError

    def setup(self) -> None:
        self.refs = {c: self.op(c, 1.0) for c in self.choices}

    def op(self, choice, a: float) -> dict:
        raise NotImplementedError

    def check(self, out: dict, choice, a: float) -> dict:
        """Name -> (value, bound) for every oracle check of one op; the op
        passes a check when value <= bound (NaN never passes)."""
        raise NotImplementedError

    def counts(self, out: dict) -> dict:
        """Exact per-op work counts read from the returned diagnostics."""
        raise NotImplementedError


class SteadyDuality(Workload):
    """Rough-data solve, adjoint duality, estimate ratio and 20 trace pairings."""

    name = "steady-duality"
    choices = (0.2, 0.1, 0.05)
    op_s_nominal = 0.22
    n = 256

    def __init__(self):
        self.grid = build_grid(self.n)
        self.probes = [data for _, data, _ in traces.probe_set(self.grid)]

    def derive(self):
        from vws import manufactured
        manufactured.stationary_fields(build_grid(16))

    def manufactured_check(self):
        from vws import manufactured
        errs = []
        for n in (16, 32):
            grid = build_grid(n)
            u_ex, f, _ = manufactured.stationary_fields(grid)
            sol = stokes.solve_homogeneous(grid, f=f)
            errs.append(l2_norm_omega(sol.velocity - u_ex))
        return {"stationary_mms_order": (_order(errs), 1.8)}

    def op(self, eps, a):
        g = boundary.cavity_g_eps(self.grid, eps) * a
        sol = stokes.solve_boundary(self.grid, g)
        ident = transposition.transposition_identity(self.grid, g, u=sol.velocity)
        ratio = transposition.estimate_ratio(self.grid, g, sol=sol)
        pairs = np.array([traces.pairing_L(sol.velocity, p) for p in self.probes])
        return {"g": g, "sol": sol, "identity": ident, "ratio": ratio,
                "pairs": pairs}

    def check(self, out, eps, a):
        ref = self.refs[eps]
        u, u_ref = out["sol"].velocity, ref["sol"].velocity * a
        report = stokes.residual_report(out["sol"], g=out["g"])
        pairs_ref = a * ref["pairs"]
        return {
            "linearity_u": (_rel(l2_norm_omega(u - u_ref), l2_norm_omega(u_ref)),
                            LINEARITY_TOL),
            "div_max": (report["div_max"], DIV_TOL),
            "rel_gap": (out["identity"]["rel_gap"], REL_GAP_TOL),
            "ratio_scale": (_rel(abs(out["ratio"] - ref["ratio"]), ref["ratio"]),
                            LINEARITY_TOL),
            "linearity_pairs": (_rel(float(np.linalg.norm(out["pairs"] - pairs_ref)),
                                     float(np.linalg.norm(pairs_ref))),
                                LINEARITY_TOL),
        }

    def counts(self, out):
        return {"outer_iterations": out["sol"].diagnostics["outer_iterations"]}


class PlateCrosscheck(Workload):
    """Clamped-plate stream solve against the MAC saddle solve of the same lid."""

    name = "plate-crosscheck"
    choices = (0.25, 0.125)
    op_s_nominal = 0.2
    n = 64

    def __init__(self):
        self.grid = build_grid(self.n)

    def derive(self):
        from vws import manufactured
        manufactured.biharmonic_stream()
        manufactured.biharmonic_source()

    def manufactured_check(self):
        from vws import manufactured
        errs = []
        for n in (16, 32):
            grid = build_grid(n)
            z = grid.nodes()
            psi_ex = manufactured.biharmonic_stream()(z[:, None], z[None, :])
            src = manufactured.biharmonic_source()(z[:, None], z[None, :])
            st = biharmonic.solve_biharmonic(grid, boundary.BoundaryData.zeros(grid),
                                             f_nodes=src)
            errs.append(grid.h * float(np.sqrt(((st.psi - psi_ex) ** 2).sum())))
        return {"plate_mms_order": (_order(errs), 1.5)}

    def op(self, eps, a):
        g = boundary.cavity_g_eps(self.grid, eps) * a
        stream = biharmonic.solve_biharmonic(self.grid, g)
        u_bi = biharmonic.velocity_from_stream(stream)
        sol = stokes.solve_boundary(self.grid, g)
        gap = l2_norm_omega(u_bi - sol.velocity)
        return {"g": g, "stream": stream, "u_bi": u_bi, "sol": sol, "gap": gap}

    def check(self, out, eps, a):
        ref = self.refs[eps]
        u_mac, mac_ref = out["sol"].velocity, ref["sol"].velocity * a
        u_bi, bi_ref = out["u_bi"], ref["u_bi"] * a
        report = stokes.residual_report(out["sol"], g=out["g"])
        return {
            "linearity_u": (_rel(l2_norm_omega(u_mac - mac_ref),
                                 l2_norm_omega(mac_ref)), LINEARITY_TOL),
            "linearity_u_plate": (_rel(l2_norm_omega(u_bi - bi_ref),
                                       l2_norm_omega(bi_ref)), LINEARITY_TOL),
            "div_max": (report["div_max"], DIV_TOL),
            "div_max_plate": (_max_div([u_bi]), DIV_TOL),
            "cross_gap_rel": (_rel(out["gap"], l2_norm_omega(u_mac)),
                              CROSS_GAP_TOL),
        }

    def counts(self, out):
        return {"outer_iterations": out["sol"].diagnostics["outer_iterations"],
                "plate_cg_iterations": out["stream"].diagnostics["iterations"]}


class UnsteadyAdjoint(Workload):
    """Crank-Nicolson march, backward adjoint march and space-time functionals."""

    name = "unsteady-adjoint"
    choices = (1 / 32, 1 / 128, 1 / 512, 1 / 2048)
    op_s_nominal = 0.3
    n = 64
    steps = 16

    def __init__(self):
        self.grid = build_grid(self.n)
        s = self.grid.x_centers()
        self.probe = traces.TangentialBoundaryData(
            self.grid, {side: np.sin(np.pi * s) for side in boundary.SIDES})

    def derive(self):
        from vws import manufactured
        manufactured.time_dependent_forcing()
        manufactured.time_dependent_solution()

    def manufactured_check(self):
        from vws import manufactured
        f1f, f2f = manufactured.time_dependent_forcing()
        u1f, u2f, _ = manufactured.time_dependent_solution()
        errs = []
        for n in (16, 32):
            grid = build_grid(n)

            def force(t, grid=grid):
                f = VelocityField.from_functions(
                    grid, lambda x, y: f1f(t, x, y), lambda x, y: f2f(t, x, y))
                return f.u1[1:grid.n, :].copy(), f.u2[:, 1:grid.n].copy()

            zero = evolution.TimeBoundaryData.constant(boundary.BoundaryData.zeros(grid))
            traj = evolution.evolve_lifted(grid, zero, 1.0, 1.0 / n, scheme="cn",
                                           force=force)
            exact = VelocityField.from_functions(
                grid, lambda x, y: u1f(1.0, x, y), lambda x, y: u2f(1.0, x, y))
            errs.append(l2_norm_omega(traj.final() - exact))
        return {"forced_march_order": (_order(errs), 1.8)}

    def op(self, dt, a):
        T = self.steps * dt
        tb = evolution.TimeBoundaryData.ramped(boundary.rotation_data(self.grid) * a,
                                               evolution.smooth_ramp(T / 2))
        traj = evolution.evolve(self.grid, tb, T, dt, scheme="cn")
        adj = evolution.solve_adjoint_backward(self.grid, traj)
        pairing = evolution.spacetime_pairing(traj, self.probe,
                                              evolution.final_zero_modulation(T))
        ratio = evolution.spacetime_estimate_ratio(self.grid, tb, T, dt, traj=traj)
        return {"traj": traj, "adj": adj, "pairing": pairing, "ratio": ratio}

    def check(self, out, dt, a):
        ref = self.refs[dt]
        return {
            "linearity_u": (_traj_rel_diff(out["traj"], ref["traj"], a),
                            LINEARITY_TOL),
            "linearity_v": (_traj_rel_diff(out["adj"], ref["adj"], a),
                            LINEARITY_TOL),
            "div_max": (_max_div(out["traj"].velocities), DIV_TOL),
            "div_max_adjoint": (_max_div(out["adj"].velocities), DIV_TOL),
            "linearity_pairing": (_rel(abs(out["pairing"] - a * ref["pairing"]),
                                       abs(a * ref["pairing"])), LINEARITY_TOL),
            "ratio_scale": (_rel(abs(out["ratio"] - ref["ratio"]), ref["ratio"]),
                            LINEARITY_TOL),
        }

    def counts(self, out):
        diags = out["traj"].diagnostics + out["adj"].diagnostics
        return {"outer_iterations": sum(d["outer_iterations"] for d in diags),
                "steps": out["traj"].steps + out["adj"].steps}


WORKLOADS = {w.name: w for w in (SteadyDuality, PlateCrosscheck, UnsteadyAdjoint)}
