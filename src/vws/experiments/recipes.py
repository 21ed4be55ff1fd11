"""Experiment recipes: each one reproduces a claim as pass/fail assertions.

A recipe is one entry of RECIPES: a body(cfg, ns, rep) that fills the report
run_recipe hands it, and the rules its run meets.  Recipes never stop
at the first failure; every assertion is evaluated and recorded so a single
run documents the full state of the claim it checks.  Each recipe solves its
cases in order in one process, collects one ladder per quantity, and hands
each ladder to the RecipeReport verdict API (check_le, check_ge, check_order,
check_decreasing), which reduces it with NaN-propagating reductions: a NaN at
any rung fails the assertion.  All randomness is seeded from the
configuration.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from ..boundary import (
    BoundaryData,
    SIDES,
    cavity_g,
    cavity_g_eps,
    compatibility_defect,
    corner_variant,
    l2_norm_gamma,
    outward_normal_data,
    project_compatible,
    resolved_n,
    rotation_data,
)
from ..biharmonic import solve_biharmonic, velocity_from_stream
from ..errors import UnderResolvedWarning
from ..evolution import (
    TimeBoundaryData,
    Trajectory,
    evolve,
    evolve_lifted,
    final_zero_modulation,
    smooth_ramp,
    solve_adjoint_backward,
    spacetime_estimate_ratio,
    spacetime_independence_gap,
    spacetime_pairing,
    spacetime_pairing_reference,
)
from ..grid import PressureField, VelocityField, build_grid, l2_norm_omega
from ..manufactured import (
    biharmonic_source,
    biharmonic_stream,
    stationary_fields,
    time_dependent_forcing,
)
from ..operators import (
    apply_velocity_laplacian,
    divergence,
    gradient,
    saddle_inverses,
    stream_curl,
)
from ..stokes import solve_boundary, solve_homogeneous
from ..traces import (
    TangentialBoundaryData,
    lift_tangential,
    lifting_independence_gap,
    line_integral,
    pairing_L,
    perturbation_field,
    probe_set,
)
from ..transposition import (
    adjoint_gradient_pairing,
    estimate_ratio,
    normal_derivative_on_gamma,
    solve_adjoint,
    transposition_identity,
)
from .config import ExperimentConfig, check_resolution
from .report import RecipeReport, orders, rungs


class Recipe(NamedTuple):
    """One recipe: its body, which records every assertion in the report it
    is handed, and the rules its run meets before anything is solved.  It
    reads ns only with a ladder, eps_list only with widths and seed only when
    seeded; run_recipe refuses any other set, and "all" passes only these."""
    body: Callable[[ExperimentConfig, tuple, RecipeReport], None]
    ladder: tuple = ()          # the default grid ladder
    need: int = 0               # rungs of the assertion that needs the most,
    name: str = "grid ladder"   # and its name
    resolve: bool = False       # the finest rung resolves the first width
    widths: int = 0             # the layer widths it needs
    seeded: bool = False

    def unread(self) -> dict:
        """The run fields it does not read, at their defaults."""
        reads = {"ns": self.ladder, "eps_list": self.widths, "seed": self.seeded}
        return {f: getattr(ExperimentConfig(""), f) for f, r in reads.items() if not r}


def _ns(cfg: ExperimentConfig) -> tuple:
    """The grid ladder, once the configuration meets its recipe's rules; a
    field it does not read set, a ladder or width list shorter than the named
    assertion needs, a trend's ladder that does not halve h at each rung, or
    a finest rung that does not resolve the first width raises ValueError."""
    r = RECIPES[cfg.recipe]
    if given := [f for f, v in r.unread().items() if getattr(cfg, f) != v]:
        raise ValueError(f"{cfg.recipe} does not read {', '.join(given)}")
    ns = r.ladder if cfg.ns is None else tuple(cfg.ns)
    rungs(ns, r.need, r.name)
    if r.need >= 2 and any(b != 2 * a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"{r.name} needs a ladder of at least {r.need} rungs, "
                         f"each twice the one before, got {ns}")
    rungs(cfg.eps_list, r.widths, f"{r.name} (layer widths)")
    if r.resolve:
        check_resolution(cfg.eps_list[0], max(ns))
    return ns


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        yield


# ---------------------------------------------------------------- uniqueness

def run_uniqueness(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Zero data must produce the zero solution, stationary and evolving."""
    rows = []
    for n in ns:
        grid = build_grid(n)
        sol = solve_boundary(grid, BoundaryData.zeros(grid))
        # tangential data: no boundary flux term in the summation by parts
        echo = adjoint_gradient_pairing(
            grid, solve_boundary(grid, cavity_g(grid)).velocity)
        rows.append((n, l2_norm_omega(sol.velocity), abs(echo)))
    rep.table("stationary", ["n", "u_l2", "gradient_echo"], rows)
    rep.check_le("stationary_zero", [r[1] for r in rows], 1e-12,
                 f"max |u| over n={list(ns)}")
    rep.check_le("gradient_echo", [r[2] for r in rows], 1e-10,
                 "adjoint velocity vs pressure gradient orthogonality")

    grid = build_grid(ns[0])
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    traj = evolve(grid, tb, 0.25, 1.0 / 16)
    rep.check_le("evolution_zero", traj.norms(), 1e-12,
                 f"n={ns[0]}, 4 steps of dt=1/16")
    rep.metric("ns", list(ns))


# ------------------------------------------------------------ mms-stationary

def run_mms_stationary(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Manufactured stationary solution: second-order recovery in L2."""
    rows = []
    for n in ns:
        grid = build_grid(n)
        u_ex, f, p_ex = stationary_fields(grid)
        sol = solve_homogeneous(grid, f=f)
        p = sol.pressure.zero_mean()
        rows.append((n, grid.h, l2_norm_omega(sol.velocity - u_ex),
                     l2_norm_omega(p - p_ex)))
    rep.table("errors", ["n", "h", "err_u", "err_p"], rows)
    err_u = [r[2] for r in rows]
    err_p = [r[3] for r in rows]
    rep.metric("err_u", err_u)
    rep.metric("err_p", err_p)
    rep.check_order("velocity_order", err_u, 1.8, metric="orders_u")
    rep.check_order("pressure_order", err_p, 1.8, metric="orders_p")


# ----------------------------------------------------------- operator-algebra

def _dense_velocity_laplacian(grid) -> np.ndarray:
    """-Laplacian on the interior faces (u1, then u2), column by column."""
    n = grid.n
    cut = (n - 1) * n
    cols = []
    for e in np.eye(2 * cut):
        r1, r2 = apply_velocity_laplacian(grid, e[:cut].reshape(n - 1, n),
                                          e[cut:].reshape(n, n - 1))
        cols.append(np.concatenate([r1.ravel(), r2.ravel()]))
    return np.column_stack(cols)


def run_operator_algebra(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Discrete identities: self-adjointness, duality, the exact velocity inverse."""
    # two fixed grids: the dense Laplacian holds (2 n (n - 1))^2 floats,
    # 1.8 MB at n = 16 and 520 MB at n = 64
    ns = (8, 16)
    rng = np.random.default_rng(cfg.seed)

    adj, dual, curl_div, dst_dense = [], [], [], []
    for n in ns:
        grid = build_grid(n)
        u1, u2, v1, v2 = (rng.standard_normal(shape) for shape in
                          [(n - 1, n), (n, n - 1)] * 2)
        Au1, Au2 = apply_velocity_laplacian(grid, u1, u2)
        Av1, Av2 = apply_velocity_laplacian(grid, v1, v2)
        lhs = float((Au1 * v1).sum() + (Au2 * v2).sum())
        rhs = float((u1 * Av1).sum() + (u2 * Av2).sum())
        adj.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))

        # <div u, p> = -<u, grad p> for velocities with zero boundary faces
        p = PressureField(grid, rng.standard_normal((n, n))).zero_mean()
        g1, g2 = gradient(p).interior()
        u = VelocityField.from_interior(grid, u1, u2)
        a = float((divergence(u).p * p.p).sum()) * grid.h ** 2
        b = -float((u1 * g1).sum() + (u2 * g2).sum()) * grid.h ** 2
        dual.append(abs(a - b) / max(abs(a), 1e-300))

        psi = rng.standard_normal((n + 1, n + 1))
        dmax = float(np.abs(divergence(stream_curl(grid, psi)).p).max())
        curl_div.append(dmax)

        # the saddle solves' velocity inverse against the dense operator,
        # which shares no code with it
        f1 = rng.standard_normal((n - 1, n))
        f2 = rng.standard_normal((n, n - 1))
        inv = saddle_inverses(grid, 0.0)
        w1, w2 = inv.from_modes(inv.velocity_solve(inv.forcing_modes((f1, f2))))
        w = np.concatenate([w1.ravel(), w2.ravel()])
        ref = np.linalg.solve(_dense_velocity_laplacian(grid),
                              np.concatenate([f1.ravel(), f2.ravel()]))
        dst_dense.append(float(np.linalg.norm(w - ref) / np.linalg.norm(ref)))

    rep.table("identities", ["n", "adjointness", "div_grad_duality",
                             "curl_div_max", "dst_vs_dense"],
              list(zip(ns, adj, dual, curl_div, dst_dense)))
    rep.check_le("adjointness", adj, 1e-12)
    rep.check_le("div_grad_duality", dual, 1e-12)
    rep.check_le("curl_divergence", curl_div, 1e-12)
    rep.check_le("dst_vs_dense", dst_dense, 1e-12)


# -------------------------------------------------------------- compatibility

def run_compatibility(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Net-flux arithmetic on n = 64: families compatible, projection works."""
    n = 64
    grid = build_grid(n)
    with _quiet():
        cases = [("lid", cavity_g(grid)), ("rotation", rotation_data(grid))]
        for eps in cfg.eps_list:
            cases.append((f"lid_eps_{eps:g}", cavity_g_eps(grid, eps)))
        for which in ("corner_01", "corner_11"):
            cases.append((which, corner_variant(grid, which, eps=0.05)))
    rows = [(label, n, abs(compatibility_defect(g))) for label, g in cases]
    rep.table("defects", ["case", "n", "net_flux"], rows)
    rep.check_le("family_defects", [r[2] for r in rows], 1e-13)

    bad = outward_normal_data(grid)
    raw = compatibility_defect(bad)
    rep.check_le("detector_calibration", abs(raw - 4.0), 1e-12,
                 "outward normal data has net flux = perimeter")
    fixed = project_compatible(bad)
    rep.check_le("projection", abs(compatibility_defect(fixed)), 1e-13)
    twice = project_compatible(fixed)
    rep.check_le("projection_idempotent",
                 [np.abs(twice.samples[s] - fixed.samples[s]) for s in SIDES],
                 1e-15)


# ------------------------------------------------------------------ eps-sweep

def _sweep_case(eps: float, n: int):
    grid = build_grid(n)
    g = cavity_g_eps(grid, eps)
    return g, solve_boundary(grid, g)


def run_eps_sweep(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Uniform estimate across shrinking corner layers.

    Solves each layer width on its grid resolved_n(eps), and both widths of
    each consecutive pair on the narrower one's, so every grid resolves what
    it solves; then checks that (a) the norm ratio stays within twice its
    first value, (b) one constant covers all difference quotients, (c) the
    Cauchy differences decrease.
    """
    eps_list = sorted(cfg.eps_list, reverse=True)
    jobs = [(eps, resolved_n(eps)) for eps in eps_list]
    for a, b in zip(eps_list, eps_list[1:]):
        jobs.append((a, resolved_n(b)))
    results = {(eps, n): _sweep_case(eps, n) for eps, n in jobs}

    ratio_rows = []
    for eps in eps_list:
        n = resolved_n(eps)
        g, sol = results[(eps, n)]
        u_l2, g_l2 = l2_norm_omega(sol.velocity), l2_norm_gamma(g)
        ratio_rows.append((eps, n, u_l2, g_l2, u_l2 / g_l2,
                           sol.diagnostics.get("outer_iterations"),
                           sol.diagnostics.get("div_max")))
    rep.table("ratios", ["eps", "n", "u_l2", "g_l2", "ratio", "iters",
                         "div_max"], ratio_rows)
    ratios = [row[4] for row in ratio_rows]
    rep.metric("ratios", ratios)
    rep.check_le("ratio_bounded", ratios, 2.0 * ratios[0],
                 f"ratios {[f'{r:.4f}' for r in ratios]}")

    pair_rows = []
    for a, b in zip(eps_list, eps_list[1:]):
        n = resolved_n(b)
        (ga, sa), (gb, sb) = results[(a, n)], results[(b, n)]
        diff = l2_norm_omega(sa.velocity - sb.velocity)
        g_diff = l2_norm_gamma(ga - gb)
        pair_rows.append((a, b, n, diff, g_diff, diff / g_diff))
    rep.table("pairs", ["eps_a", "eps_b", "n", "u_diff", "g_diff", "quotient"],
              pair_rows)
    quotients = [row[5] for row in pair_rows]
    diffs = [row[3] for row in pair_rows]
    rep.metric("difference_quotients", quotients)
    rep.metric("cauchy_differences", diffs)
    rep.check_le("single_constant", quotients, 2.0 * quotients[0],
                 f"quotients {[f'{q:.4f}' for q in quotients]}")
    steps = np.diff(rungs(diffs, 2, "cauchy_decreasing"))
    rep.check("cauchy_decreasing", np.all(steps < 0.0), steps.max(), 0.0,
              f"differences {[f'{d:.4e}' for d in diffs]}")


# -------------------------------------------------------------- transposition

def _identity_case(case: str, n: int, eps: float):
    grid = build_grid(n)
    if case == "rotation":
        g = rotation_data(grid)
    else:
        with _quiet():
            g = cavity_g_eps(grid, eps)
    sol = solve_boundary(grid, g)
    r = transposition_identity(grid, g, u=sol.velocity)
    ratio = estimate_ratio(grid, g, sol=sol)
    return (n, case, r["lhs"], r["rhs"], r["rel_gap"], ratio)


def run_transposition(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Interior norm vs boundary integrals through the adjoint problem."""
    eps = cfg.eps_list[0]
    rows = [_identity_case(case, n, eps)
            for case in ("rotation", "lid") for n in ns]
    rep.table("identity_log", ["n", "case", "lhs", "rhs", "rel_gap", "ratio"],
              rows)

    for case in ("rotation", "lid"):
        gaps = [r[4] for r in rows if r[1] == case]
        rep.metric(f"gaps_{case}", gaps)
        rep.check_decreasing(f"{case}_gap_decreasing", gaps)
    rot_gaps = [r[4] for r in rows if r[1] == "rotation"]
    rep.check_order("rotation_gap_order", rot_gaps, 0.9,
                    metric="rotation_gap_orders")
    lid_rows = [r for r in rows if r[1] == "lid"]
    finest = lid_rows[-1]
    if finest[0] >= 128:
        rep.check_le("lid_gap_fine", finest[4], 0.05,
                     f"relative gap at n={finest[0]}, eps={eps:g}")
    rep.metric("lid_ratio_finest", finest[5])


# --------------------------------------------------------------------- traces

def _traces_case(n: int, seed: int):
    grid = build_grid(n)
    s = grid.x_centers()
    u = solve_boundary(grid, rotation_data(grid)).velocity

    probe_rows = []
    for pid, g1, fn in probe_set(grid):
        val = pairing_L(u, g1)
        ref = 0.5 * line_integral(fn)
        probe_rows.append((n, pid, val, ref, abs(val - ref)))

    g1 = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s) + 0.3
                                       for sd in SIDES})
    lift = lift_tangential(g1)
    dvdn = normal_derivative_on_gamma(lift)
    # compare away from the corner tapers; keep the window nonempty on
    # coarse grids
    margin = min(8.0 / n, 0.375)
    mask = (s > margin) & (s < 1.0 - margin)
    rt_errs = [np.abs(dvdn.tangential_part(sd) - g1.profiles[sd])[mask]
               for sd in SIDES]
    rt_errs += [np.abs(dvdn.normal_part(sd))[mask] for sd in SIDES]
    div_lift = float(np.abs(divergence(lift).p).max())

    gap = lifting_independence_gap(u, seed=seed)
    ctrl = lifting_independence_gap(perturbation_field(grid, seed=seed),
                                    seed=seed)
    return {"n": n, "worst_gap": float(np.max([r[4] for r in probe_rows])),
            "roundtrip": float(np.max(rt_errs)), "div_lift": div_lift,
            "indep_stokes": gap, "indep_control": ctrl,
            "probe_rows": probe_rows}


def run_traces(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Tangential boundary values recovered by pairing with liftings."""
    cases = [_traces_case(n, cfg.seed + 7) for n in ns]

    rep.table("probes", ["n", "probe", "pairing", "reference", "gap"],
              cases[-1]["probe_rows"])
    rep.table("convergence",
              ["n", "worst_probe_gap", "lift_roundtrip", "lift_div_max",
               "indep_stokes", "indep_control"],
              [(c["n"], c["worst_gap"], c["roundtrip"], c["div_lift"],
                c["indep_stokes"], c["indep_control"]) for c in cases])

    gaps = [c["worst_gap"] for c in cases]
    rep.metric("probe_gaps", gaps)
    rep.check_order("probe_gap_order", gaps, 0.85, metric="probe_gap_orders")

    rts = [c["roundtrip"] for c in cases]
    rep.metric("roundtrip_errors", rts)
    rep.check_order("lift_roundtrip_order", rts, 1.9)
    rep.check_le("lift_divergence", [c["div_lift"] for c in cases], 1e-12)

    stokes = [c["indep_stokes"] for c in cases]
    ctrl = [c["indep_control"] for c in cases]
    rep.metric("indep_stokes", stokes)
    rep.metric("indep_control", ctrl)
    rep.check_decreasing("independence_decays", stokes)
    rep.check_ge("control_floor", ctrl, 2.0 * math.pi ** 2,
                 "energy of the control field stays above the "
                 "Dirichlet-eigenvalue bound")
    rep.check_le("separation", np.max(stokes) / np.min(ctrl), 0.25,
                 "independence gap separates solutions from non-solutions")


# ----------------------------------------------------------------- biharmonic

def _biharmonic_case(n: int, eps: float):
    grid = build_grid(n)
    z = grid.nodes()
    psi_ex = biharmonic_stream()(z[:, None], z[None, :])
    src = biharmonic_source()(z[:, None], z[None, :])
    stream = solve_biharmonic(grid, BoundaryData.zeros(grid), f_nodes=src)
    err = grid.h * float(np.sqrt(((stream.psi - psi_ex) ** 2).sum()))

    with _quiet():
        g = cavity_g_eps(grid, eps)
    st = solve_biharmonic(grid, g)
    u_bi = velocity_from_stream(st)
    u_mac = solve_boundary(grid, g).velocity
    gap = l2_norm_omega(u_bi - u_mac)
    div_max = float(np.abs(divergence(u_bi).p).max())
    x0, y0, val = st.extremum()
    return (n, err, gap, div_max, x0, y0, val)


def run_biharmonic(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Stream-function route: fourth-order problem cross-checks the mixed one."""
    eps = cfg.eps_list[0]
    rows = [_biharmonic_case(n, eps) for n in ns]
    rep.table("results", ["n", "mms_err", "cross_gap", "div_max",
                          "ext_x", "ext_y", "ext_value"], rows)

    errs = [r[1] for r in rows]
    rep.metric("mms_errors", errs)
    rep.check_order("mms_order", errs, 1.9, metric="mms_orders")
    rep.check_le("cross_gap", [r[2] for r in rows], 1e-10,
                 "curl of the clamped stream matches the mixed solve")
    rep.check_le("curl_divergence", [r[3] for r in rows], 1e-13)

    n, _, _, _, x0, y0, val = rows[-1]
    rep.metric("extremum", [x0, y0, val])
    rep.check_ge("vortex_above_midheight", y0, 0.5,
                 f"stream extremum at ({x0:.3f}, {y0:.3f}), value {val:.4f}")


# ----------------------------------------------------------- evolution-orders

# the final time and the time step of the evolution recipes
T, DT = 1.0, 1.0 / 32


def _manufactured_force(grid):
    f1f, f2f = time_dependent_forcing()

    def force(t):
        f = VelocityField.from_functions(
            grid, lambda x, y: f1f(t, x, y), lambda x, y: f2f(t, x, y))
        return f.interior()

    return force


def run_evolution_orders(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Temporal accuracy of both stepping schemes on a forced problem, n = 32."""
    grid = build_grid(32)
    force = _manufactured_force(grid)
    zero_tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    ms = [8, 16, 32, 64]

    rows = []
    windows = {"euler": (0.7, 1.3), "cn": (1.7, 2.3)}
    for scheme in ("euler", "cn"):
        finals = {}
        for m in ms:
            traj = evolve_lifted(grid, zero_tb, T, T / m, scheme=scheme,
                                 force=force)
            finals[m] = traj.final()
        diffs = [l2_norm_omega(finals[m] - finals[2 * m]) for m in ms[:-1]]
        ords = orders(diffs, f"{scheme}_order")
        for m, d, o in zip(ms[:-1], diffs, ords + [float("nan")]):
            rows.append((scheme, m, T / m, d, o))
        rep.metric(f"{scheme}_diffs", diffs)
        rep.metric(f"{scheme}_orders", ords)
        lo, hi = windows[scheme]
        rep.check(f"{scheme}_order",
                  all(lo <= o <= hi for o in ords),
                  float(np.mean(ords)), hi,
                  f"window [{lo}, {hi}], orders "
                  f"{[f'{o:.3f}' for o in ords]}")
    rep.table("self_differences", ["scheme", "m", "dt", "final_diff", "order"],
              rows)


# --------------------------------------------------------- evolution-estimate

def _pairing_case(n: int, m: int, seed: int):
    grid = build_grid(n)
    tb = TimeBoundaryData.ramped(rotation_data(grid), smooth_ramp(0.5))
    traj = evolve(grid, tb, T, T / m, scheme="cn")
    s = grid.x_centers()
    probe = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s)
                                          for sd in SIDES})
    mod = final_zero_modulation(T)
    val = spacetime_pairing(traj, probe, mod)
    ref = spacetime_pairing_reference(tb, probe, mod, T, T / m)
    indep = spacetime_independence_gap(traj, mod, seed=seed)
    return (n, m, val, ref, abs(val - ref), indep)


def run_evolution_estimate(cfg: ExperimentConfig, ns: tuple, rep: RecipeReport):
    """Space-time analogues: estimate, relaxation, duality, trace pairing;
    the first three solve the first layer width on resolved_n(eps), whatever
    the ladder, which carries the pairing alone."""
    eps = cfg.eps_list[0]
    grid = build_grid(resolved_n(eps))
    g_sp = cavity_g_eps(grid, eps)

    # bounded space-time ratio, invariant under data scaling
    ratio, ratio3 = (
        spacetime_estimate_ratio(grid, tb, T, DT,
                                 traj=evolve(grid, tb, T, DT, scheme="cn"))
        for tb in (TimeBoundaryData.ramped(g, smooth_ramp(0.5))
                   for g in (g_sp, g_sp * 3.0)))
    sol_sp = solve_boundary(grid, g_sp)
    stat = sol_sp.velocity
    stat_ratio = estimate_ratio(grid, g_sp, sol=sol_sp)
    rep.metric("spacetime_ratio", ratio)
    rep.metric("stationary_ratio", stat_ratio)
    rep.check_le("ratio_bounded", ratio, 2.0 * stat_ratio,
                 "space-time ratio vs twice the stationary one")
    rep.check_le("ratio_scale_invariant", abs(ratio3 - ratio), 1e-8,
                 "tripling the data leaves the ratio unchanged")

    # relaxation toward the stationary solution under constant data
    traj = evolve(grid, TimeBoundaryData.constant(g_sp), T, 1.0 / 64,
                  scheme="euler")
    errs = np.array([l2_norm_omega(u - stat) for u in traj.velocities[1:]])
    rep.table("relaxation", ["step", "error"],
              list(zip(range(1, len(errs) + 1), errs)))
    rep.check_le("relaxation_monotone", np.diff(errs), 1e-11,
                 "error never grows beyond solver-floor creep")
    rel_final = float(errs[-1] / l2_norm_omega(stat))
    rep.check_le("relaxation_final", rel_final, 0.05)

    # backward march with constant forcing reproduces the stationary adjoint
    m_back = int(round(2.0 / DT))
    traj_c = Trajectory(grid, "euler", 2.0 / m_back, [stat] * (m_back + 1))
    back = solve_adjoint_backward(grid, traj_c)
    v_stat = solve_adjoint(grid, stat).velocity
    back_gap = (l2_norm_omega(back.velocities[0] - v_stat)
                / l2_norm_omega(v_stat))
    rep.check_le("backward_consistency", back_gap, 0.05,
                 "initial slice of the backward march vs stationary adjoint")

    # space-time trace pairing under joint refinement
    rows = [_pairing_case(n, n, cfg.seed + 5) for n in ns]
    rep.table("pairing", ["n", "m", "pairing", "reference", "gap",
                          "independence"], rows)
    gaps = [r[4] for r in rows]
    rep.metric("pairing_gaps", gaps)
    rep.check_order("pairing_order", gaps, 0.8, metric="pairing_orders")
    indep = [r[5] for r in rows]
    rep.metric("independence", indep)
    rep.check_decreasing("independence_decays", indep)


# ------------------------------------------------------------------ dispatch

RECIPES = {
    "uniqueness": Recipe(run_uniqueness, (16, 32, 64), 1),
    "mms-stationary": Recipe(run_mms_stationary, (16, 32, 64), 2, "velocity_order"),
    "operator-algebra": Recipe(run_operator_algebra, seeded=True),
    "compatibility": Recipe(run_compatibility, widths=1),
    "eps-sweep": Recipe(run_eps_sweep, name="cauchy_decreasing", widths=3),
    "transposition": Recipe(run_transposition, (32, 64, 128, 256, 512), 2,
                            "rotation_gap_decreasing", resolve=True, widths=1),
    "traces": Recipe(run_traces, (32, 64, 128, 256, 512), 2, "probe_gap_order",
                     seeded=True),
    "biharmonic": Recipe(run_biharmonic, (32, 64, 128, 256), 2, "mms_order",
                         resolve=True, widths=1),
    "evolution-orders": Recipe(run_evolution_orders),
    "evolution-estimate": Recipe(run_evolution_estimate, (16, 32, 64), 2,
                                 "pairing_order", widths=1, seeded=True),
}


def run_recipe(cfg: ExperimentConfig) -> RecipeReport:
    """Run a recipe, or every recipe for "all", and write its report.  Every
    rule is checked before the first solve, so a refused run writes nothing;
    under "all" each recipe writes its tables to its own directory and the
    merged report holds only the summaries."""
    if cfg.recipe != "all" and cfg.recipe not in RECIPES:
        raise KeyError(f"unknown recipe {cfg.recipe!r}; "
                       f"choose from {[*RECIPES, 'all']}")
    subs = ([replace(cfg, recipe=name, **r.unread()) for name, r in RECIPES.items()]
            if cfg.recipe == "all" else [cfg])
    ladders = [_ns(sub) for sub in subs]
    top = RecipeReport(cfg.recipe)
    for sub, ns in zip(subs, ladders):
        rep = RecipeReport(sub.recipe)
        RECIPES[sub.recipe].body(sub, ns, rep)
        rep.write(sub.out_dir())
        top.merge(rep)
    if cfg.recipe != "all":
        return rep
    top.write(cfg.out_dir())
    return top
