"""End-to-end acceptance gate.

Each test distills one headline property of the solver suite from the recipe
reports produced once per session (see the recipe_runs fixture) and prints a
single PASS/FAIL line so the gate can be read off the terminal.
"""

import math

from support import find_assertion


def _emit(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_01_stationary_manufactured_convergence(recipe_runs, capsys):
    rep, elapsed = recipe_runs["mms-stationary"]
    orders = rep.metrics["orders_u"]
    ok = min(orders) >= 1.8 and elapsed < 120.0
    _emit(capsys, "stationary convergence",
          ok, f"velocity orders {[f'{o:.2f}' for o in orders]} "
              f"(need >= 1.8), {elapsed:.1f}s (budget 120s)")


def test_02_zero_data_uniqueness(recipe_runs, capsys):
    rep, _ = recipe_runs["uniqueness"]
    mom_tol = 1e-8
    stat = find_assertion(rep, "stationary_zero").value
    evo = find_assertion(rep, "evolution_zero").value
    ok = stat <= 10.0 * mom_tol and evo <= 10.0 * mom_tol * math.sqrt(0.25)
    _emit(capsys, "zero-data uniqueness",
          ok, f"stationary |u|={stat:.2e} (<= 1e-07), "
              f"evolution sup|u|={evo:.2e} (<= 5e-08)")


def test_03_compatibility_machinery(recipe_runs, capsys):
    rep, _ = recipe_runs["compatibility"]
    fam = find_assertion(rep, "family_defects").value
    proj = find_assertion(rep, "projection").value
    idem = find_assertion(rep, "projection_idempotent").value
    ok = fam <= 1e-14 and proj <= 1e-14 and idem <= 1e-14
    _emit(capsys, "flux compatibility",
          ok, f"family defect {fam:.2e}, projection {proj:.2e}, "
              f"idempotency {idem:.2e} (all <= 1e-14)")


def test_04_apriori_estimate_bounded(recipe_runs, capsys):
    rep, elapsed = recipe_runs["eps-sweep"]
    ratios = rep.metrics["ratios"]
    quots = rep.metrics["difference_quotients"]
    ok = (max(ratios) <= 2.0 * ratios[0]
          and max(quots) <= 2.0 * quots[0]
          and elapsed < 600.0)
    _emit(capsys, "a priori estimate",
          ok, f"ratios {[f'{r:.3f}' for r in ratios]} (max <= 2x first), "
              f"difference quotients bounded by one constant, "
              f"{elapsed:.1f}s (budget 600s)")


def test_05_duality_identity(recipe_runs, capsys):
    rep, _ = recipe_runs["transposition"]
    order = find_assertion(rep, "rotation_gap_order").value
    fine = find_assertion(rep, "lid_gap_fine").value
    ok = order >= 0.9 and fine <= 0.05
    _emit(capsys, "duality identity",
          ok, f"smooth-data gap order {order:.2f} (>= 0.9), "
              f"layered lid gap on the finest grid is {fine:.3f} (<= 0.05)")


def test_06_cavity_cauchy_sequence(recipe_runs, capsys):
    rep, _ = recipe_runs["eps-sweep"]
    a = find_assertion(rep, "cauchy_decreasing")
    diffs = rep.metrics["cauchy_differences"]
    _emit(capsys, "regularized-cavity Cauchy sequence",
          a.passed, f"successive differences {[f'{d:.3e}' for d in diffs]} "
                    f"strictly decreasing")


def test_07_tangential_trace_recovery(recipe_runs, capsys):
    rep, _ = recipe_runs["traces"]
    order = find_assertion(rep, "probe_gap_order").value
    decays = find_assertion(rep, "independence_decays").passed
    floor = find_assertion(rep, "control_floor")
    ok = order >= 0.85 and decays and floor.passed
    _emit(capsys, "trace recovery",
          ok, f"probe gap order {order:.2f} (>= 0.85), lift independence "
              f"decays for solutions, control stays >= {floor.threshold:.1f} "
              f"(measured {floor.value:.1f})")


def test_08_stream_function_crosscheck(recipe_runs, capsys):
    # the clamped-plate and saddle-point discretizations coincide
    # algebraically for tangential data, so the velocity gap sits at the
    # solver floor on every grid; an absolute bound is the sharp statement
    # (a fitted decay order over floor-level noise would be meaningless)
    rep, _ = recipe_runs["biharmonic"]
    gap = find_assertion(rep, "cross_gap").value
    div = find_assertion(rep, "curl_divergence").value
    ok = gap <= 1e-10 and div <= 1e-13
    _emit(capsys, "stream-function cross-check",
          ok, f"velocity gap {gap:.2e} (<= 1e-10), "
              f"curl divergence {div:.2e} (<= 1e-13)")


def test_09_evolution_suite(recipe_runs, capsys):
    orders_rep, _ = recipe_runs["evolution-orders"]
    est_rep, _ = recipe_runs["evolution-estimate"]
    euler = find_assertion(orders_rep, "euler_order")
    cn = find_assertion(orders_rep, "cn_order")
    bounded = find_assertion(est_rep, "ratio_bounded")
    pairing = find_assertion(est_rep, "pairing_order").value
    relax = find_assertion(est_rep, "relaxation_final").value
    ok = (euler.passed and cn.passed and bounded.passed
          and pairing >= 0.8 and relax <= 0.05)
    _emit(capsys, "evolution suite",
          ok, f"temporal orders {euler.value:.2f}/{cn.value:.2f} "
              f"(1 and 2 within 0.3), space-time ratio bounded, "
              f"pairing gap order {pairing:.2f} (>= 0.8), "
              f"relaxation within {relax:.2e} (<= 0.05)")


def test_10_operator_algebra(recipe_runs, capsys):
    rep, _ = recipe_runs["operator-algebra"]
    adj, dual, curl_div, dense = (find_assertion(rep, name).value for name in (
        "adjointness", "div_grad_duality", "curl_divergence", "dst_vs_dense"))
    ok = max(adj, dual, curl_div, dense) <= 1e-12
    _emit(capsys, "operator algebra",
          ok, f"Laplacian adjointness {adj:.2e}, div/grad duality {dual:.2e}, "
              f"div curl {curl_div:.2e}, velocity inverse vs dense "
              f"{dense:.2e} (all <= 1e-12)")


def test_all_recipes_internally_green(recipe_runs, capsys):
    failing = {
        name: [a.name for a in rep.assertions if not a.passed]
        for name, (rep, _) in recipe_runs.items()
        if not rep.passed
    }
    _emit(capsys, "recipe self-checks",
          not failing, "every recipe assertion holds" if not failing
          else f"failures: {failing}")
