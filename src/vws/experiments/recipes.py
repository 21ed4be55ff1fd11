"""Experiment recipes: each one reproduces a claim as pass/fail assertions.

A recipe is a function ExperimentConfig -> RecipeReport.  Recipes never stop
at the first failure; every assertion is evaluated and recorded so a single
run documents the full state of the claim it checks.  All randomness is
seeded from the configuration, and the cases of a recipe run in order in one
process.
"""

from __future__ import annotations

import contextlib
import math
import time
import warnings

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
    DirichletBC,
    VelocityPoisson,
    apply_velocity_laplacian,
    cg_solve,
    divergence,
    gradient,
    stream_curl,
)
from ..stokes import solve_boundary, solve_homogeneous
from ..traces import (
    TangentialBoundaryData,
    lift_tangential,
    lifting_independence_gap,
    line_integral,
    negative_control_field,
    pairing_L,
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
from .report import RecipeReport
from .svg import line_plot

SOFT_BUDGET_SECONDS = 1800.0

# per-recipe grid defaults, applied when the configuration leaves ns unset
RECIPE_NS = {
    "uniqueness": (16, 32, 64),
    "mms-stationary": (16, 32, 64),
    "operator-algebra": (8, 16),
    "compatibility": (64,),
    "eps-sweep": (),
    "transposition": (32, 64, 128, 256, 512),
    "traces": (32, 64, 128, 256, 512),
    "biharmonic": (32, 64, 128, 256),
    "evolution-orders": (32,),
    "evolution-estimate": (16, 32, 64),
}


def _ns(cfg: ExperimentConfig) -> tuple:
    if cfg.ns:
        return tuple(cfg.ns)
    return RECIPE_NS.get(cfg.recipe, (16, 32, 64))


def _orders(values) -> list:
    v = np.asarray(values, dtype=float)
    return [float(np.log2(v[k] / v[k + 1])) for k in range(len(v) - 1)]


@contextlib.contextmanager
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnderResolvedWarning)
        yield


# ---------------------------------------------------------------- uniqueness

def run_uniqueness(cfg: ExperimentConfig) -> RecipeReport:
    """Zero data must produce the zero solution, stationary and evolving."""
    rep = RecipeReport("uniqueness")
    ns = _ns(cfg)
    rows = []
    for n in ns:
        grid = build_grid(n)
        sol = solve_boundary(grid, BoundaryData.zeros(grid))
        # tangential data: no boundary flux term in the summation by parts
        echo = adjoint_gradient_pairing(grid, cavity_g(grid))
        rows.append((n, l2_norm_omega(sol.velocity), abs(echo)))
    rep.table("stationary", ["n", "u_l2", "gradient_echo"], rows)
    rep.check_le("stationary_zero", max(r[1] for r in rows), 1e-12,
                 f"max |u| over n={list(ns)}")
    rep.check_le("gradient_echo", max(r[2] for r in rows), 1e-10,
                 "adjoint velocity vs pressure gradient orthogonality")

    grid = build_grid(ns[0])
    tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    traj = evolve(grid, tb, 0.25, 1.0 / 16)
    rep.check_le("evolution_zero", float(max(traj.norms())), 1e-12,
                 f"n={ns[0]}, 4 steps of dt=1/16")
    rep.metric("ns", list(ns))
    return rep


# ------------------------------------------------------------ mms-stationary

def run_mms_stationary(cfg: ExperimentConfig) -> RecipeReport:
    """Manufactured stationary solution: second-order recovery in L2."""
    rep = RecipeReport("mms-stationary")
    rows = []
    for n in _ns(cfg):
        grid = build_grid(n)
        u_ex, f, p_ex = stationary_fields(grid)
        sol = solve_homogeneous(grid, f=f)
        p = sol.pressure.zero_mean()
        rows.append((n, grid.h, l2_norm_omega(sol.velocity - u_ex),
                     l2_norm_omega(p - p_ex)))
    rep.table("errors", ["n", "h", "err_u", "err_p"], rows)
    err_u = [r[2] for r in rows]
    err_p = [r[3] for r in rows]
    ord_u = _orders(err_u)
    ord_p = _orders(err_p)
    rep.metric("orders_u", ord_u)
    rep.metric("orders_p", ord_p)
    rep.metric("err_u", err_u)
    rep.metric("err_p", err_p)
    rep.check_ge("velocity_order", min(ord_u), 1.8,
                 f"pairwise orders {[f'{o:.3f}' for o in ord_u]}")
    rep.check_ge("pressure_order", min(ord_p), 1.8,
                 f"pairwise orders {[f'{o:.3f}' for o in ord_p]}")
    hs = [r[1] for r in rows]
    plot = cfg.out_dir() / "mms_convergence.svg"
    plot.parent.mkdir(parents=True, exist_ok=True)
    line_plot(plot, [("velocity", hs, err_u), ("pressure", hs, err_p),
                     ("h^2", hs, [err_u[0] * (h / hs[0]) ** 2 for h in hs])],
              title="manufactured solution errors", xlabel="h",
              ylabel="L2 error", logx=True, logy=True)
    return rep


# ----------------------------------------------------------- operator-algebra

def _dense_velocity_laplacian(grid) -> np.ndarray:
    """-Laplacian on the interior faces (u1, then u2), column by column."""
    n = grid.n
    bc = DirichletBC.zero(grid)
    cut = (n - 1) * n
    cols = []
    for e in np.eye(2 * cut):
        u = VelocityField.from_interior(grid, e[:cut].reshape(n - 1, n),
                                        e[cut:].reshape(n, n - 1))
        r1, r2 = apply_velocity_laplacian(grid, u.u1, u.u2, bc)
        cols.append(np.concatenate([r1.ravel(), r2.ravel()]))
    return np.column_stack(cols)


def run_operator_algebra(cfg: ExperimentConfig) -> RecipeReport:
    """Discrete identities: self-adjointness, duality, exact solver checks."""
    rep = RecipeReport("operator-algebra")
    rng = np.random.default_rng(cfg.seed)
    ns = _ns(cfg)

    adj = []
    dual = []
    curl_div = []
    dst_dense = []
    for n in ns:
        grid = build_grid(n)
        bc = DirichletBC.zero(grid)
        u = VelocityField.from_interior(grid, rng.standard_normal((n - 1, n)),
                                        rng.standard_normal((n, n - 1)))
        v = VelocityField.from_interior(grid, rng.standard_normal((n - 1, n)),
                                        rng.standard_normal((n, n - 1)))
        (u1, u2), (v1, v2) = u.interior(), v.interior()
        Au1, Au2 = apply_velocity_laplacian(grid, u.u1, u.u2, bc)
        Av1, Av2 = apply_velocity_laplacian(grid, v.u1, v.u2, bc)
        lhs = float((Au1 * v1).sum() + (Au2 * v2).sum())
        rhs = float((u1 * Av1).sum() + (u2 * Av2).sum())
        adj.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))

        # <div u, p> = -<u, grad p> for velocities with zero boundary faces
        p = PressureField(grid, rng.standard_normal((n, n))).zero_mean()
        g1, g2 = gradient(p).interior()
        a = float((divergence(u).p * p.p).sum()) * grid.h ** 2
        b = -float((u1 * g1).sum() + (u2 * g2).sum()) * grid.h ** 2
        dual.append(abs(a - b) / max(abs(a), 1e-300))

        psi = rng.standard_normal((n + 1, n + 1))
        dmax = float(np.abs(divergence(stream_curl(grid, psi)).p).max())
        curl_div.append(dmax)

        # the transform solve against the dense operator, which shares no
        # code with it
        f1 = rng.standard_normal((n - 1, n))
        f2 = rng.standard_normal((n, n - 1))
        w = np.concatenate([x.ravel() for x in VelocityPoisson(grid).solve(f1, f2)])
        ref = np.linalg.solve(_dense_velocity_laplacian(grid),
                              np.concatenate([f1.ravel(), f2.ravel()]))
        dst_dense.append(float(np.linalg.norm(w - ref) / np.linalg.norm(ref)))

    rep.table("identities", ["n", "adjointness", "div_grad_duality",
                             "curl_div_max", "dst_vs_dense"],
              list(zip(ns, adj, dual, curl_div, dst_dense)))
    rep.check_le("adjointness", max(adj), 1e-12)
    rep.check_le("div_grad_duality", max(dual), 1e-12)
    rep.check_le("curl_divergence", max(curl_div), 1e-12)
    rep.check_le("dst_vs_dense", max(dst_dense), 1e-12)

    # small SPD system with a closed-form solution
    A = np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]])
    b = np.array([1.0, 2.0, 3.0])
    res = cg_solve(lambda x: A @ x, b, rel_tol=1e-14)
    exact = np.array([5.0 / 28.0, 2.0 / 7.0, 19.0 / 28.0])
    rep.check_le("cg_closed_form", float(np.abs(res.x - exact).max()), 1e-12)

    M = rng.standard_normal((12, 12))
    S = M @ M.T + 12.0 * np.eye(12)
    rhs12 = rng.standard_normal(12)
    res12 = cg_solve(lambda x: S @ x, rhs12, rel_tol=1e-14)
    ref12 = np.linalg.solve(S, rhs12)
    rel = float(np.abs(res12.x - ref12).max() / np.abs(ref12).max())
    rep.check_le("cg_vs_dense", rel, 1e-10)
    return rep


# -------------------------------------------------------------- compatibility

def run_compatibility(cfg: ExperimentConfig) -> RecipeReport:
    """Net-flux arithmetic: data families are compatible, projection works."""
    rep = RecipeReport("compatibility")
    n = max(_ns(cfg))
    grid = build_grid(n)
    rows = []
    worst = 0.0
    with _quiet():
        cases = [("lid", cavity_g(grid)), ("rotation", rotation_data(grid))]
        for eps in cfg.eps_list:
            cases.append((f"lid_eps_{eps:g}", cavity_g_eps(grid, eps)))
        for which in ("corner_01", "corner_11"):
            cases.append((which, corner_variant(grid, which, eps=0.05)))
    for label, g in cases:
        d = abs(compatibility_defect(g))
        rows.append((label, n, d))
        worst = max(worst, d)
    rep.table("defects", ["case", "n", "net_flux"], rows)
    rep.check_le("family_defects", worst, 1e-13)

    bad = outward_normal_data(grid)
    raw = compatibility_defect(bad)
    rep.check_le("detector_calibration", abs(raw - 4.0), 1e-12,
                 "outward normal data has net flux = perimeter")
    fixed = project_compatible(bad)
    rep.check_le("projection", abs(compatibility_defect(fixed)), 1e-13)
    twice = project_compatible(fixed)
    delta = max(float(np.abs(twice.samples[s] - fixed.samples[s]).max())
                for s in SIDES)
    rep.check_le("projection_idempotent", delta, 1e-15)
    return rep


# ------------------------------------------------------------------ eps-sweep

def _resolved_n(eps: float) -> int:
    return int(math.ceil(8.0 / eps))


def _sweep_case(eps: float, n: int):
    grid = build_grid(n)
    with _quiet():
        g = cavity_g_eps(grid, eps)
    sol = solve_boundary(grid, g)
    return {
        "eps": eps,
        "n": n,
        "u1": sol.velocity.u1,
        "u2": sol.velocity.u2,
        "g_l2": l2_norm_gamma(g),
        "iters": sol.diagnostics.get("outer_iterations"),
        "div_max": sol.diagnostics.get("div_max"),
    }


def run_eps_sweep(cfg: ExperimentConfig) -> RecipeReport:
    """Uniform estimate across shrinking corner layers.

    Solves each layer width on a grid fine enough to resolve it, plus both
    widths of each consecutive pair on the finer common grid, then checks
    that (a) the norm ratio stays within twice its first value, (b) one
    constant covers all difference quotients, (c) the Cauchy differences
    decrease.
    """
    rep = RecipeReport("eps-sweep")
    eps_list = sorted(cfg.eps_list, reverse=True)
    if len(eps_list) < 2:
        raise ValueError("eps sweep needs at least two layer widths")
    for eps in eps_list:
        check_resolution(cfg, eps, _resolved_n(eps))

    jobs = [(eps, _resolved_n(eps)) for eps in eps_list]
    for a, b in zip(eps_list, eps_list[1:]):
        jobs.append((a, _resolved_n(b)))
    results = {(eps, n): _sweep_case(eps, n) for eps, n in jobs}

    ratio_rows = []
    for eps in eps_list:
        r = results[(eps, _resolved_n(eps))]
        u_l2 = _vel_norm(r)
        ratio_rows.append((eps, r["n"], u_l2, r["g_l2"], u_l2 / r["g_l2"],
                           r["iters"], r["div_max"]))
    rep.table("ratios", ["eps", "n", "u_l2", "g_l2", "ratio", "iters",
                         "div_max"], ratio_rows)
    ratios = [row[4] for row in ratio_rows]
    rep.metric("ratios", ratios)
    rep.check_le("ratio_bounded", max(ratios), 2.0 * ratios[0],
                 f"ratios {[f'{r:.4f}' for r in ratios]}")

    pair_rows = []
    for a, b in zip(eps_list, eps_list[1:]):
        n = _resolved_n(b)
        ra, rb = results[(a, n)], results[(b, n)]
        diff = _vel_diff_norm(ra, rb)
        grid = build_grid(n)
        with _quiet():
            g_diff = l2_norm_gamma(cavity_g_eps(grid, a) - cavity_g_eps(grid, b))
        pair_rows.append((a, b, n, diff, g_diff, diff / g_diff))
    rep.table("pairs", ["eps_a", "eps_b", "n", "u_diff", "g_diff", "quotient"],
              pair_rows)
    quotients = [row[5] for row in pair_rows]
    diffs = [row[3] for row in pair_rows]
    rep.metric("difference_quotients", quotients)
    rep.metric("cauchy_differences", diffs)
    rep.check_le("single_constant", max(quotients), 2.0 * quotients[0],
                 f"quotients {[f'{q:.4f}' for q in quotients]}")
    dec = all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    rep.check("cauchy_decreasing", dec, float(max(np.diff(diffs))), 0.0,
              f"differences {[f'{d:.4e}' for d in diffs]}")

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    line_plot(out / "ratio_vs_eps.svg",
              [("|u|/|g|", eps_list, ratios)],
              title="estimate ratio across layer widths", xlabel="eps",
              ylabel="ratio", logx=True)
    line_plot(out / "cauchy_vs_eps.svg",
              [("|u_a - u_b|", [row[1] for row in pair_rows], diffs)],
              title="Cauchy differences", xlabel="eps_b", ylabel="L2 diff",
              logx=True, logy=True)
    return rep


def _vel_norm(r) -> float:
    grid = build_grid(r["n"])
    return l2_norm_omega(VelocityField(grid, r["u1"], r["u2"]))


def _vel_diff_norm(ra, rb) -> float:
    grid = build_grid(ra["n"])
    return l2_norm_omega(VelocityField(grid, ra["u1"] - rb["u1"],
                                       ra["u2"] - rb["u2"]))


# -------------------------------------------------------------- transposition

def _identity_case(case: str, n: int, eps: float):
    grid = build_grid(n)
    if case == "rotation":
        g = rotation_data(grid)
    else:
        with _quiet():
            g = cavity_g_eps(grid, eps)
    r = transposition_identity(grid, g)
    ratio = estimate_ratio(grid, g)
    return (n, case, r["lhs"], r["rhs"], r["rel_gap"], ratio)


def run_transposition(cfg: ExperimentConfig) -> RecipeReport:
    """Interior norm vs boundary integrals through the adjoint problem."""
    rep = RecipeReport("transposition")
    ns = _ns(cfg)
    eps = cfg.eps_list[0] if cfg.eps_list else 0.1
    if cfg.ns:
        # the finest grid of a user-chosen ladder must resolve the layer
        check_resolution(cfg, eps, max(ns))
    rows = [_identity_case(case, n, eps)
            for case in ("rotation", "lid") for n in ns]
    rep.table("identity_log", ["n", "case", "lhs", "rhs", "rel_gap", "ratio"],
              rows)

    for case in ("rotation", "lid"):
        gaps = [r[4] for r in rows if r[1] == case]
        rep.metric(f"gaps_{case}", gaps)
        dec = all(b < a for a, b in zip(gaps, gaps[1:]))
        rep.check(f"{case}_gap_decreasing", dec, gaps[-1], gaps[0],
                  f"gaps {[f'{g:.4e}' for g in gaps]}")
    rot_gaps = [r[4] for r in rows if r[1] == "rotation"]
    orders = _orders(rot_gaps)
    rep.metric("rotation_gap_orders", orders)
    rep.check_ge("rotation_gap_order", min(orders), 0.9,
                 f"orders {[f'{o:.3f}' for o in orders]}")
    lid_rows = [r for r in rows if r[1] == "lid"]
    finest = lid_rows[-1]
    if finest[0] >= 128:
        rep.check_le("lid_gap_fine", finest[4], 0.05,
                     f"relative gap at n={finest[0]}, eps={eps:g}")
    rep.metric("lid_ratio_finest", finest[5])

    grid = build_grid(ns[0])
    echo = abs(adjoint_gradient_pairing(grid, cavity_g(grid)))
    rep.check_le("gradient_echo", echo, 1e-10)

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    hs = [1.0 / n for n in ns]
    line_plot(out / "identity_gap.svg",
              [("rotation", hs, rot_gaps),
               ("lid", hs, [r[4] for r in lid_rows])],
              title="transposition identity relative gap", xlabel="h",
              ylabel="|lhs-rhs|/lhs", logx=True, logy=True)
    return rep


# --------------------------------------------------------------------- traces

def _traces_case(n: int, seed: int):
    grid = build_grid(n)
    s = grid.x_centers()
    u = solve_boundary(grid, rotation_data(grid)).velocity

    worst = 0.0
    probe_rows = []
    for pid, g1, fn in probe_set(grid):
        val = pairing_L(u, g1)
        ref = 0.5 * line_integral(fn)
        probe_rows.append((n, pid, val, ref, abs(val - ref)))
        worst = max(worst, abs(val - ref))

    g1 = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s) + 0.3
                                       for sd in SIDES})
    lift = lift_tangential(g1)
    dvdn = normal_derivative_on_gamma(lift)
    # compare away from the corner tapers; keep the window nonempty on
    # coarse grids
    margin = min(8.0 / n, 0.375)
    mask = (s > margin) & (s < 1.0 - margin)
    rt = 0.0
    for sd in SIDES:
        t_err = np.abs(dvdn.tangential_part(sd) - g1.profiles[sd])[mask]
        n_err = np.abs(dvdn.normal_part(sd))[mask]
        rt = max(rt, float(t_err.max()), float(n_err.max()))
    div_lift = float(np.abs(divergence(lift).p).max())

    probe = TangentialBoundaryData(grid, {sd: np.sin(np.pi * s) for sd in SIDES})
    gap = lifting_independence_gap(u, probe, seed=seed)
    ctrl = lifting_independence_gap(negative_control_field(grid, seed=seed),
                                    probe, seed=seed)
    return {"n": n, "worst_gap": worst, "roundtrip": rt, "div_lift": div_lift,
            "indep_stokes": gap, "indep_control": ctrl,
            "probe_rows": probe_rows}


def run_traces(cfg: ExperimentConfig) -> RecipeReport:
    """Tangential boundary values recovered by pairing with liftings."""
    rep = RecipeReport("traces")
    ns = _ns(cfg)
    cases = [_traces_case(n, cfg.seed + 7) for n in ns]

    rep.table("probes", ["n", "probe", "pairing", "reference", "gap"],
              cases[-1]["probe_rows"])
    rep.table("convergence",
              ["n", "worst_probe_gap", "lift_roundtrip", "lift_div_max",
               "indep_stokes", "indep_control"],
              [(c["n"], c["worst_gap"], c["roundtrip"], c["div_lift"],
                c["indep_stokes"], c["indep_control"]) for c in cases])

    gaps = [c["worst_gap"] for c in cases]
    orders = _orders(gaps)
    rep.metric("probe_gaps", gaps)
    rep.metric("probe_gap_orders", orders)
    rep.check_ge("probe_gap_order", min(orders), 0.85,
                 f"orders {[f'{o:.3f}' for o in orders]}")

    rts = [c["roundtrip"] for c in cases]
    rt_orders = _orders(rts)
    rep.metric("roundtrip_errors", rts)
    rep.check_ge("lift_roundtrip_order", min(rt_orders), 1.9,
                 f"orders {[f'{o:.3f}' for o in rt_orders]}")
    rep.check_le("lift_divergence", max(c["div_lift"] for c in cases), 1e-12)

    stokes = [c["indep_stokes"] for c in cases]
    ctrl = [c["indep_control"] for c in cases]
    rep.metric("indep_stokes", stokes)
    rep.metric("indep_control", ctrl)
    dec = all(b < a for a, b in zip(stokes, stokes[1:]))
    rep.check("independence_decays", dec, stokes[-1], stokes[0],
              f"stokes gaps {[f'{g:.4f}' for g in stokes]}")
    floor = 2.0 * math.pi ** 2
    rep.check_ge("control_floor", min(ctrl), floor,
                 "energy of the control field stays above the "
                 "Dirichlet-eigenvalue bound")
    rep.check_le("separation", max(stokes) / min(ctrl), 0.25,
                 "independence gap separates solutions from non-solutions")

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    hs = [1.0 / c["n"] for c in cases]
    line_plot(out / "trace_recovery.svg",
              [("worst probe gap", hs, gaps), ("lift round-trip", hs, rts),
               ("independence (solution)", hs, stokes)],
              title="trace recovery diagnostics", xlabel="h", ylabel="error",
              logx=True, logy=True)
    return rep


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


def run_biharmonic(cfg: ExperimentConfig) -> RecipeReport:
    """Stream-function route: fourth-order problem cross-checks the mixed one."""
    rep = RecipeReport("biharmonic")
    ns = _ns(cfg)
    eps = cfg.eps_list[0] if cfg.eps_list else 0.1
    if cfg.ns:
        check_resolution(cfg, eps, max(ns))
    rows = [_biharmonic_case(n, eps) for n in ns]
    rep.table("results", ["n", "mms_err", "cross_gap", "div_max",
                          "ext_x", "ext_y", "ext_value"], rows)

    errs = [r[1] for r in rows]
    orders = _orders(errs)
    rep.metric("mms_errors", errs)
    rep.metric("mms_orders", orders)
    rep.check_ge("mms_order", min(orders), 1.9,
                 f"orders {[f'{o:.3f}' for o in orders]}")
    rep.check_le("cross_gap", max(r[2] for r in rows), 1e-10,
                 "curl of the clamped stream matches the mixed solve")
    rep.check_le("curl_divergence", max(r[3] for r in rows), 1e-13)

    n, _, _, _, x0, y0, val = rows[-1]
    rep.metric("extremum", [x0, y0, val])
    rep.check_ge("vortex_above_midheight", y0, 0.5,
                 f"stream extremum at ({x0:.3f}, {y0:.3f}), value {val:.4f}")

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    hs = [1.0 / r[0] for r in rows]
    line_plot(out / "biharmonic.svg",
              [("clamped-plate error", hs, errs),
               ("cross-check gap", hs, [max(r[2], 1e-16) for r in rows])],
              title="stream-function diagnostics", xlabel="h", ylabel="error",
              logx=True, logy=True)
    return rep


# ----------------------------------------------------------- evolution-orders

def _manufactured_force(grid):
    f1f, f2f = time_dependent_forcing()

    def force(t):
        f = VelocityField.from_functions(
            grid, lambda x, y: f1f(t, x, y), lambda x, y: f2f(t, x, y))
        return f.interior()

    return force


def run_evolution_orders(cfg: ExperimentConfig) -> RecipeReport:
    """Temporal accuracy of both stepping schemes on a forced problem."""
    rep = RecipeReport("evolution-orders")
    n = _ns(cfg)[0]
    T = cfg.T
    grid = build_grid(n)
    force = _manufactured_force(grid)
    zero_tb = TimeBoundaryData.constant(BoundaryData.zeros(grid))
    base = max(4, int(round(T / cfg.dt)) // 4)
    ms = [base, 2 * base, 4 * base, 8 * base]

    rows = []
    windows = {"euler": (0.7, 1.3), "cn": (1.7, 2.3)}
    for scheme in ("euler", "cn"):
        finals = {}
        for m in ms:
            traj = evolve_lifted(grid, zero_tb, T, T / m, scheme=scheme,
                                 force=force)
            finals[m] = traj.final()
        diffs = [l2_norm_omega(finals[m] - finals[2 * m]) for m in ms[:-1]]
        orders = _orders(diffs)
        for m, d, o in zip(ms[:-1], diffs, orders + [float("nan")]):
            rows.append((scheme, m, T / m, d, o))
        rep.metric(f"{scheme}_diffs", diffs)
        rep.metric(f"{scheme}_orders", orders)
        lo, hi = windows[scheme]
        rep.check(f"{scheme}_order",
                  all(lo <= o <= hi for o in orders),
                  float(np.mean(orders)), hi,
                  f"window [{lo}, {hi}], orders "
                  f"{[f'{o:.3f}' for o in orders]}")
    rep.table("self_differences", ["scheme", "m", "dt", "final_diff", "order"],
              rows)

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    dts = [T / m for m in ms[:-1]]
    series = []
    for scheme in ("euler", "cn"):
        series.append((scheme, dts, rep.metrics[f"{scheme}_diffs"]))
    line_plot(out / "temporal_orders.svg", series,
              title="final-slice self differences", xlabel="dt",
              ylabel="L2 difference", logx=True, logy=True)
    return rep


# --------------------------------------------------------- evolution-estimate

def _pairing_case(n: int, m: int, T: float, seed: int):
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


def run_evolution_estimate(cfg: ExperimentConfig) -> RecipeReport:
    """Space-time analogues: estimate, relaxation, duality, trace pairing."""
    rep = RecipeReport("evolution-estimate")
    ns = _ns(cfg)
    T, dt = cfg.T, cfg.dt
    eps = cfg.eps_list[0] if cfg.eps_list else 0.1
    if cfg.ns:
        check_resolution(cfg, eps, max(ns))
    n0 = 32 if 32 in ns else ns[len(ns) // 2]
    grid = build_grid(n0)
    with _quiet():
        g_sp = cavity_g_eps(grid, eps)

    # bounded space-time ratio, invariant under data scaling
    tb = TimeBoundaryData.ramped(g_sp, smooth_ramp(0.5))
    ratio = spacetime_estimate_ratio(grid, tb, T, dt, scheme=cfg.scheme)
    tb3 = TimeBoundaryData.ramped(g_sp * 3.0, smooth_ramp(0.5))
    ratio3 = spacetime_estimate_ratio(grid, tb3, T, dt, scheme=cfg.scheme)
    stat_ratio = estimate_ratio(grid, g_sp)
    rep.metric("spacetime_ratio", ratio)
    rep.metric("stationary_ratio", stat_ratio)
    rep.check_le("ratio_bounded", ratio, 2.0 * stat_ratio,
                 "space-time ratio vs twice the stationary one")
    rep.check_le("ratio_scale_invariant", abs(ratio3 - ratio), 1e-8,
                 "tripling the data leaves the ratio unchanged")

    # relaxation toward the stationary solution under constant data
    stat = solve_boundary(grid, g_sp).velocity
    traj = evolve(grid, TimeBoundaryData.constant(g_sp), T, 1.0 / 64,
                  scheme="euler")
    errs = np.array([l2_norm_omega(u - stat) for u in traj.velocities[1:]])
    creep = float(np.diff(errs).max())
    rep.table("relaxation", ["step", "error"],
              list(zip(range(1, len(errs) + 1), errs)))
    rep.check_le("relaxation_monotone", creep, 1e-11,
                 "error never grows beyond solver-floor creep")
    rel_final = float(errs[-1] / l2_norm_omega(stat))
    rep.check_le("relaxation_final", rel_final, 0.05)

    # backward march with constant forcing reproduces the stationary adjoint
    u_rhs = solve_boundary(grid, g_sp).velocity
    m_back = int(round(2.0 / dt))
    vels = [u_rhs for _ in range(m_back + 1)]
    traj_c = Trajectory(grid, "euler", 2.0 / m_back,
                        np.arange(m_back + 1) * (2.0 / m_back), vels,
                        [None] * (m_back + 1))
    back = solve_adjoint_backward(grid, traj_c, scheme="euler")
    v_stat = solve_adjoint(grid, u_rhs).velocity
    back_gap = (l2_norm_omega(back.velocities[0] - v_stat)
                / l2_norm_omega(v_stat))
    rep.check_le("backward_consistency", back_gap, 0.05,
                 "initial slice of the backward march vs stationary adjoint")

    # space-time trace pairing under joint refinement
    rows = [_pairing_case(n, n, T, cfg.seed + 5) for n in ns]
    rep.table("pairing", ["n", "m", "pairing", "reference", "gap",
                          "independence"], rows)
    gaps = [r[4] for r in rows]
    orders = _orders(gaps)
    rep.metric("pairing_gaps", gaps)
    rep.metric("pairing_orders", orders)
    rep.check_ge("pairing_order", min(orders), 0.8,
                 f"orders {[f'{o:.3f}' for o in orders]}")
    indep = [r[5] for r in rows]
    rep.metric("independence", indep)
    dec = all(b < a for a, b in zip(indep, indep[1:]))
    rep.check("independence_decays", dec, indep[-1], indep[0],
              f"gaps {[f'{g:.4f}' for g in indep]}")

    out = cfg.out_dir()
    out.mkdir(parents=True, exist_ok=True)
    line_plot(out / "relaxation.svg",
              [("|u(t) - u_stat|", list(range(1, len(errs) + 1)),
                np.maximum(errs, 1e-16))],
              title="relaxation under constant data", xlabel="step",
              ylabel="L2 error", logy=True)
    line_plot(out / "spacetime_pairing.svg",
              [("pairing gap", [1.0 / r[0] for r in rows],
                [max(g, 1e-16) for g in gaps])],
              title="space-time trace pairing", xlabel="h", ylabel="gap",
              logx=True, logy=True)
    return rep


# ------------------------------------------------------------------ dispatch

RECIPES = {
    "uniqueness": run_uniqueness,
    "mms-stationary": run_mms_stationary,
    "operator-algebra": run_operator_algebra,
    "compatibility": run_compatibility,
    "eps-sweep": run_eps_sweep,
    "transposition": run_transposition,
    "traces": run_traces,
    "biharmonic": run_biharmonic,
    "evolution-orders": run_evolution_orders,
    "evolution-estimate": run_evolution_estimate,
}

RECIPE_ORDER = list(RECIPES)


def run_all(cfg: ExperimentConfig) -> RecipeReport:
    """Every recipe in sequence; sub-reports land in their own directories."""
    rep = RecipeReport("all")
    from dataclasses import replace

    for name in RECIPE_ORDER:
        sub_cfg = replace(cfg, recipe=name)
        sub = RECIPES[name](sub_cfg)
        sub.write(sub_cfg.out_dir())
        rep.merge(sub)
    return rep


def run_recipe(cfg: ExperimentConfig) -> RecipeReport:
    """Dispatch a recipe by name, write its report, warn past the budget."""
    t0 = time.perf_counter()
    if cfg.recipe == "all":
        rep = run_all(cfg)
    elif cfg.recipe in RECIPES:
        rep = RECIPES[cfg.recipe](cfg)
    else:
        raise KeyError(f"unknown recipe {cfg.recipe!r}; "
                       f"choose from {RECIPE_ORDER + ['all']}")
    elapsed = time.perf_counter() - t0
    if elapsed > SOFT_BUDGET_SECONDS:
        warnings.warn(
            f"recipe {cfg.recipe} took {elapsed:.0f}s, past the "
            f"{SOFT_BUDGET_SECONDS:.0f}s soft budget", RuntimeWarning,
            stacklevel=2)
        rep.metric("budget_exceeded", True)
    rep.write(cfg.out_dir())
    return rep
