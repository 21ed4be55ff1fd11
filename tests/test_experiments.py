import argparse
import csv
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import vws
from vws import operators
from vws.errors import RecipeMismatch, UnderResolvedWarning
from vws.experiments import cli, recipes
from vws.experiments.cli import main as cli_main
from vws.experiments.compare import compare_runs, format_comparison
from vws.experiments.config import ExperimentConfig, check_resolution, resolved_n
from vws.experiments.recipes import RECIPES, Recipe, run_recipe
from vws.experiments.report import Assertion, RecipeReport, load_summary, orders

from support import count_saddle_solves, modules_binding, refuse

NAN, INF = float("nan"), float("inf")


_FLAGS = [
    (["--n", "8, 16"], "ns", (8, 16)),
    (["--eps", "0.1,0.05"], "eps_list", (0.1, 0.05)),
    (["--out", "elsewhere"], "out", Path("elsewhere")),
    (["--seed", "9"], "seed", 9),
]


@pytest.mark.parametrize("flag, field, value", _FLAGS,
                         ids=[flag[0] for flag, _, _ in _FLAGS])
def test_cli_flag_sets_its_config_field(monkeypatch, flag, field, value):
    seen = []
    monkeypatch.setattr(cli, "run_recipe",
                        lambda cfg: seen.append(cfg) or RecipeReport(cfg.recipe))
    assert cli_main(["evolution-estimate", *flag]) == 0
    default = vars(ExperimentConfig(recipe="evolution-estimate"))
    assert default[field] != value
    # the flag reaches its field, and every flag not given leaves its default
    assert vars(seen[0]) == {**default, field: value}


def _subparser_flags(name):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[name]._actions
            for opt in action.option_strings} - {"-h", "--help"}


def test_readme_recipe_table_names_each_recipes_flags():
    # the README's recipe table lists the run flags each subcommand takes
    # besides --out, so the docs cannot drift from RECIPES; "all" takes all
    # four
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^Recipes:\n\n(.*?)\n\n", readme, re.MULTILINE | re.DOTALL)
    rows = dict(re.findall(r"^\| `([\w-]+)` *\|([^|]*)\|", table.group(1),
                           re.MULTILINE))
    assert set(rows) == set(RECIPES)
    for name in RECIPES:
        documented = set(re.findall(r"--\w+", rows[name])) | {"--out"}
        assert _subparser_flags(name) == documented, name
    assert _subparser_flags("all") == {"--n", "--eps", "--out", "--seed"}


_UNREAD = [(name, flag) for name, r in RECIPES.items()
           for flag, reads in (("--n", bool(r.ladder)), ("--eps", r.widths > 0),
                               ("--seed", r.seeded)) if not reads]


@pytest.mark.parametrize("recipe, flag", _UNREAD,
                         ids=[f"{r}{f}" for r, f in _UNREAD])
def test_cli_flag_a_recipe_does_not_read_exits_2(tmp_path, capsys, monkeypatch,
                                                  recipe, flag):
    # "eps-sweep --n 16,32", "uniqueness --eps 0.3" and the like exited 0,
    # ignoring the flag; "compatibility --n 16,128" checked n = 128 only
    calls = count_saddle_solves(monkeypatch)
    value = {"--n": "16,32", "--eps": "0.3", "--seed": "3"}[flag]
    with pytest.raises(SystemExit) as exc:
        cli_main([recipe, flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_solve_exits_1_with_one_error_line(tmp_path, capsys,
                                                      monkeypatch):
    # a NonConvergence raised by a recipe escaped main as a traceback; 2
    # stays the exit code of usage errors
    from vws import evolution, operators

    def miss(div_max, scale):
        return "saddle solve: every defect misses"

    monkeypatch.setattr(operators, "defect_miss", miss)
    monkeypatch.setattr(evolution, "defect_miss", miss)
    assert cli_main(["uniqueness", "--n", "8,16", "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "every defect misses" in err and "Traceback" not in err + out


def test_cli_refuses_a_config_file(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["uniqueness", "--config", "x.ini"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config x.ini" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--n", "8,x"], ["--eps", "0.1,wide"],
                                  ["--seed", "1.5"]],
                         ids=lambda f: f[0])
def test_cli_malformed_flag_value_exits_2(capsys, monkeypatch, flag):
    calls = count_saddle_solves(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli_main(["evolution-estimate", *flag])
    assert exc.value.code == 2
    assert f"argument {flag[0]}: invalid" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag, bad", [("--n", "x"), ("--eps", "wide")])
def test_cli_malformed_list_names_the_bad_element(capsys, flag, bad):
    # the message names the element that failed, not a private parser
    with pytest.raises(SystemExit) as exc:
        cli_main(["evolution-estimate", flag, f"8, {bad}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and repr(bad) in err
    assert "_parse" not in err and "parse" not in err


@pytest.mark.parametrize("recipe, flag", [("compatibility", "--eps"),
                                          ("transposition", "--n")])
def test_cli_empty_list_exits_2(capsys, monkeypatch, recipe, flag):
    # "--eps ," used to check no lid_eps case and "--n ," to run the default
    # ladder, both exiting 0
    calls = count_saddle_solves(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli_main([recipe, flag, ","])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid list ','" in capsys.readouterr().err
    assert calls == []


def test_config_refuses_empty_lists(tmp_path):
    # no hidden fallback width, and no default ladder for an empty one
    with pytest.raises(ValueError, match="one or more"):
        ExperimentConfig(recipe="transposition", eps_list=())
    cfg = ExperimentConfig(recipe="uniqueness", ns=(), out=tmp_path)
    with pytest.raises(ValueError, match="needs a ladder of at least 1 rung"):
        run_recipe(cfg)


@pytest.mark.parametrize("recipe, field, value, message", [
    # n = 8.5 made two solves, then failed in build_grid
    ("uniqueness", "ns", (16, 8.5), "n must be an integer, got 8.5"),
    # seed = 1.5 ran past the first solves, then failed in numpy's
    # "SeedSequence expects int"
    ("traces", "seed", 1.5, "seed must be an integer, got 1.5"),
    ("evolution-estimate", "seed", 1.5, "seed must be an integer, got 1.5"),
])
def test_config_refuses_a_size_or_seed_that_is_not_an_integer(
        tmp_path, monkeypatch, recipe, field, value, message):
    calls = count_saddle_solves(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_recipe(ExperimentConfig(recipe=recipe, out=tmp_path, **{field: value}))
    assert calls == []
    # a numpy integer is an integer
    ExperimentConfig(recipe=recipe, ns=(np.int64(16),), seed=np.int64(3))


@pytest.mark.parametrize("recipe, eps", [("eps-sweep", "0.01,0.005,0.001"),
                                         ("evolution-estimate", "0.001"),
                                         ("transposition", "0.001")])
def test_cli_width_beyond_the_finest_grid_exits_2(tmp_path, capsys,
                                                  monkeypatch, recipe, eps):
    # eps = 0.001 would ask for n = 8000, about 1.5 GB for the saddle
    # inverse alone: refused before any grid is built
    built = []
    monkeypatch.setattr(recipes, "build_grid", lambda n: built.append(n))
    assert cli_main([recipe, "--eps", eps, "--out", str(tmp_path)]) == 2
    assert "eps=0.001 needs a grid n=8000, above the finest, n=2048" in (
        capsys.readouterr().err)
    assert built == []
    assert resolved_n(8 / 2048) == 2048


def _record_grids(monkeypatch):
    built = []
    build_grid = recipes.build_grid
    monkeypatch.setattr(recipes, "build_grid",
                        lambda n: built.append(n) or build_grid(n))
    return built


def test_cli_operator_algebra_takes_no_grid_ladder(tmp_path, capsys,
                                                   monkeypatch):
    # it runs on its two fixed grids, n = 8 and 16, so no --n can ask its
    # dense Laplacian for 7.9 GiB at n = 128: the flag is unrecognized, and
    # nothing is built, solved or written
    built = _record_grids(monkeypatch)
    calls = count_saddle_solves(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli_main(["operator-algebra", "--n", "8,16", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 8,16" in capsys.readouterr().err
    assert built == calls == []
    assert list(tmp_path.iterdir()) == []


def test_cli_all_past_n64_runs_operator_algebra_on_its_two_grids(tmp_path,
                                                                 monkeypatch):
    # "all --n 32,64,128" exited 2 while operator-algebra took the ladder;
    # now its real body builds n = 8 and 16 alone, and every other recipe
    # that reads a ladder gets the one given
    seen = {}

    def stub(cfg, ns, rep):
        seen[cfg.recipe] = ns

    monkeypatch.setattr(recipes, "RECIPES", {
        name: r if name == "operator-algebra" else r._replace(body=stub)
        for name, r in RECIPES.items()})
    built = _record_grids(monkeypatch)
    assert cli_main(["all", "--n", "32,64,128", "--out", str(tmp_path)]) == 0
    assert built == [8, 16]
    assert seen == {name: (32, 64, 128) if r.ladder else ()
                    for name, r in RECIPES.items() if name != "operator-algebra"}
    summary = load_summary(tmp_path / "operator-algebra")
    assert summary["passed"] and len(summary["assertions"]) == 4


def test_operator_algebra_checks_the_saddle_inverse_without_cg_or_poisson(
        tmp_path, monkeypatch):
    # the recipe certifies the velocity inverse the saddle solves run, not
    # the CG solver or the Poisson wrapper, which only perfbench/ still names
    refuse(monkeypatch, operators, "cg_solve", "operator-algebra called cg_solve")
    refuse(monkeypatch, operators.VelocityPoisson, "solve",
           "operator-algebra called VelocityPoisson.solve")
    rep = run_recipe(ExperimentConfig("operator-algebra", out=tmp_path))
    assert rep.passed
    assert [a.name for a in rep.assertions] == [
        "adjointness", "div_grad_duality", "curl_divergence", "dst_vs_dense"]


def test_no_module_but_operators_binds_cg_or_poisson_and_vws_no_options():
    # no new caller before the names can go; SolverOptions stays importable
    # from vws.stokes, which no solve reads
    assert modules_binding(("cg_solve", "CGResult", "VelocityPoisson")) == [
        "vws.operators"]
    assert not hasattr(vws, "SolverOptions")
    from vws.stokes import SolverOptions
    assert SolverOptions().div_tol == operators.DIV_TOL


def test_run_recipe_refuses_a_ladder_for_operator_algebra(tmp_path, monkeypatch):
    # a library caller meets the command line's rule: refused before any
    # grid is built or anything is written
    built = _record_grids(monkeypatch)
    with pytest.raises(ValueError, match="operator-algebra does not read ns$"):
        run_recipe(ExperimentConfig("operator-algebra", ns=(8, 16), out=tmp_path))
    assert built == []
    assert list(tmp_path.iterdir()) == []


def test_config_defaults():
    cfg = ExperimentConfig(recipe="transposition")
    assert cfg.ns is None
    assert cfg.eps_list == (0.1, 0.05, 0.025, 0.0125)
    # one field per run flag, and the recipe: no field that no flag sets
    assert list(vars(cfg)) == ["recipe", "ns", "eps_list", "out", "seed"]
    assert cfg.out_dir().name == "transposition"


def test_resolution_guard():
    with pytest.raises(ValueError, match="cannot resolve eps=0.1"):
        check_resolution(0.1, 32)
    check_resolution(0.1, 80)     # boundary case passes
    # resolved_n is the guard's boundary, 8/eps up to rounding: 8/(1/3)
    # rounds to 24.000000000000004, and still needs 24
    expected = {0.1: 80, 0.05: 160, 0.025: 320, 0.0125: 640, 0.3: 27,
                0.07: 115, 1 / 3: 24}
    for eps, n in expected.items():
        assert resolved_n(eps) == n
        check_resolution(eps, n)
        with pytest.raises(ValueError, match=f"need n >= {n}\\)"):
            check_resolution(eps, n - 1)


def test_run_recipe_writes_summary(tmp_path):
    cfg = ExperimentConfig(recipe="uniqueness", ns=(8, 16), out=tmp_path)
    rep = run_recipe(cfg)
    assert rep.passed
    outdir = tmp_path / "uniqueness"
    assert {p.name for p in outdir.iterdir()} == {
        "stationary.csv", "summary.json", "summary.txt"}
    loaded = load_summary(outdir)
    assert loaded["recipe"] == "uniqueness"
    assert loaded["passed"] is True
    assert "elapsed_seconds" in loaded
    text = (outdir / "summary.txt").read_text()
    assert "ALL ASSERTIONS PASSED" in text


def test_run_recipe_unknown_name(tmp_path):
    with pytest.raises(KeyError):
        run_recipe(ExperimentConfig(recipe="sideways", out=tmp_path))


def _stub_recipe(value, passed=True):
    def body(cfg, ns, rep):
        rep.check_le("bound", 0.5 if passed else 2.0, 1.0)
        rep.metric("value", value)
        rep.table("rows", ["a"], [(value,)])
    return Recipe(body)


def test_cli_all_runs_each_recipe_into_its_own_directory(tmp_path, monkeypatch):
    monkeypatch.setattr(recipes, "RECIPES", {"one": _stub_recipe(1.0),
                                             "two": _stub_recipe(2.0)})
    assert cli_main(["all", "--out", str(tmp_path)]) == 0
    for name, value in (("one", 1.0), ("two", 2.0)):
        assert {p.name for p in (tmp_path / name).iterdir()} == {
            "rows.csv", "summary.json", "summary.txt"}
        assert load_summary(tmp_path / name)["metrics"] == {"value": value}
    merged = load_summary(tmp_path / "all")
    assert [a["name"] for a in merged["assertions"]] == ["one/bound", "two/bound"]
    assert merged["metrics"] == {"one/value": 1.0, "two/value": 2.0}
    assert {p.name for p in (tmp_path / "all").iterdir()} == {
        "summary.json", "summary.txt"}

    monkeypatch.setitem(recipes.RECIPES, "two", _stub_recipe(2.0, passed=False))
    assert cli_main(["all", "--out", str(tmp_path / "failing")]) == 1
    assert load_summary(tmp_path / "failing" / "all")["passed"] is False


@pytest.mark.parametrize("recipe", ["short", "all"])
def test_a_ladder_too_short_is_refused_before_any_body_runs(tmp_path,
                                                            monkeypatch, recipe):
    # the harness checks every rule, each recipe's under "all", and only
    # then runs the first body
    calls = []

    def body(cfg, ns, rep):
        calls.append(cfg.recipe)

    monkeypatch.setattr(recipes, "RECIPES", {
        "good": Recipe(body),
        "short": Recipe(body, ladder=(16,), need=2, name="stub_order")})
    with pytest.raises(ValueError, match="stub_order needs a ladder of at least 2"):
        run_recipe(ExperimentConfig(recipe=recipe, out=tmp_path))
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("recipe, field, value", [
    # passed on n = 64 and wrote defects.csv with n = 64
    ("compatibility", "ns", (16, 128)),
    ("uniqueness", "eps_list", (0.3,)),
    ("mms-stationary", "seed", 3),
], ids=["ns", "eps_list", "seed"])
def test_run_recipe_refuses_a_field_its_recipe_does_not_read(
        tmp_path, monkeypatch, recipe, field, value):
    # a library caller meets the rule the command line keeps by leaving the
    # flag out: refused before anything is solved or written
    calls = count_saddle_solves(monkeypatch)
    with pytest.raises(ValueError, match=f"{recipe} does not read {field}$"):
        run_recipe(ExperimentConfig(recipe=recipe, out=tmp_path, **{field: value}))
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_all_hands_each_recipe_only_the_fields_it_reads(tmp_path, monkeypatch):
    seen = {}

    def body(cfg, ns, rep):
        seen[cfg.recipe] = (ns, cfg.eps_list, cfg.seed)

    monkeypatch.setattr(recipes, "RECIPES", {
        "plain": Recipe(body),
        "full": Recipe(body, (4,), widths=1, seeded=True)})
    run_recipe(ExperimentConfig(recipe="all", ns=(8, 16), eps_list=(0.5,),
                                seed=4, out=tmp_path))
    default = ExperimentConfig(recipe="plain")
    assert seen == {"plain": ((), default.eps_list, default.seed),
                    "full": ((8, 16), (0.5,), 4)}


def test_recipe_registry():
    assert len(RECIPES) == 10
    for r in RECIPES.values():
        assert isinstance(r, Recipe) and callable(r.body)
    # 24 run flags over the ten recipe subcommands, --out in each; the 16
    # recipe/flag pairs left out are refused
    assert sum(len(_subparser_flags(name)) for name in RECIPES) == 24
    assert len(_UNREAD) == 16


def test_cli_run_and_exit_codes(tmp_path):
    out = tmp_path / "runs"
    assert cli_main(["uniqueness", "--n", "8", "--out", str(out)]) == 0
    assert (out / "uniqueness" / "summary.json").exists()

    # explicit grids too coarse for the default eps ladder: refuse
    assert cli_main(["transposition", "--n", "16",
                     "--out", str(out)]) == 2

    # compare against a missing directory: usage error
    assert cli_main(["compare", str(out / "uniqueness"),
                     str(out / "nowhere")]) == 2


def test_cli_compare_identical_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli_main(["uniqueness", "--n", "8", "--out", str(out)]) == 0
    code = cli_main(["compare", str(a / "uniqueness"),
                     str(b / "uniqueness")])
    assert code == 0
    assert "MATCH" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_cli_compare_refuses_a_tolerance_outside_0_inf(tmp_path, capsys, tol):
    out = tmp_path / "runs"
    assert cli_main(["uniqueness", "--n", "8", "--out", str(out)]) == 0
    run = str(out / "uniqueness")
    capsys.readouterr()
    assert cli_main(["compare", run, run, "--tol", tol]) == 2
    assert "error: tolerance must be finite and >= 0" in capsys.readouterr().err
    assert cli_main(["compare", run, run, "--tol", "0"]) == 0
    assert capsys.readouterr().out.endswith("MATCH\n")


def test_determinism_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        cfg = ExperimentConfig(recipe="traces", ns=(8, 16), out=out)
        run_recipe(cfg)
    result = compare_runs(a / "traces", b / "traces")
    assert result["max_rel_diff"] == 0.0
    assert result["match"]


def test_seed_moves_only_independence_metrics(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_recipe(ExperimentConfig(recipe="traces", ns=(8, 16), out=a, seed=0))
    run_recipe(ExperimentConfig(recipe="traces", ns=(8, 16), out=b, seed=1))
    result = compare_runs(a / "traces", b / "traces")
    assert result["exceeds"]
    assert all(k.startswith("indep") for k in result["exceeds"])


def _hand_written_summary(path, metrics):
    path.mkdir()
    (path / "summary.json").write_text(json.dumps(
        {"recipe": "demo", "passed": True, "assertions": [], "metrics": metrics}))
    return path


def test_compare_reads_hand_written_summaries(tmp_path):
    a = _hand_written_summary(tmp_path / "a", {
        "scalar": 2.0, "flag": True, "ladder": [1.0, 0.5], "only_a": 1.0,
        "same": [1, 2]})
    b = _hand_written_summary(tmp_path / "b", {
        "scalar": 2.5, "flag": False, "ladder": [1.0, 0.5, 0.25], "only_b": 3.0,
        "same": [1, 2]})
    result = compare_runs(a, b)
    # a boolean is skipped; a metric on one side only, or ladders of
    # different lengths, differ by inf
    assert result["metric_diffs"] == {
        "scalar": pytest.approx(0.2), "ladder": INF, "only_a": INF,
        "only_b": INF, "same": 0.0}
    assert result["exceeds"] == ["ladder", "only_a", "only_b", "scalar"]
    assert not result["match"]


def test_compare_prints_both_values_of_a_metric_beyond_tol(tmp_path):
    # a metric beyond tol is printed with its two values beside the relative
    # difference, so that two values at the rounding floor read as such: a
    # scalar's two values, a ladder's worst pair and its entry, and whole
    # values when a ladder changed length or a metric is on one side only
    a = _hand_written_summary(tmp_path / "a", {
        "cross_gap": 2.4e-14, "gaps": [1.0, 0.5, 0.25], "ladder": [1.0, 0.5],
        "only_a": 1.0, "same": 3.0})
    b = _hand_written_summary(tmp_path / "b", {
        "cross_gap": 3.2e-14, "gaps": [1.0, 0.75, 0.25], "ladder": [1.0, 0.5, 0.25],
        "same": 3.0})
    result = compare_runs(a, b, tol=1e-9)
    assert result["exceeding_values"] == {
        "cross_gap": [None, 2.4e-14, 3.2e-14], "gaps": [1, 0.5, 0.75],
        "ladder": [None, [1.0, 0.5], [1.0, 0.5, 0.25]], "only_a": [None, [1.0], None]}
    lines = format_comparison(result).splitlines()
    assert "> cross_gap: rel diff 2.500e-01  (2.4e-14 vs 3.2e-14)" in lines
    assert "> gaps: rel diff 3.333e-01  (entry 1: 0.5 vs 0.75)" in lines
    assert "> ladder: rel diff inf  ([1, 0.5] vs [1, 0.5, 0.25])" in lines
    assert "> only_a: rel diff inf  ([1] vs absent)" in lines
    assert "  same: rel diff 0.000e+00" in lines
    assert lines[-1] == "DIFFERS"
    # the verdict does not change: within tol, no values are printed
    loose = compare_runs(a, a, tol=1e-9)
    assert loose["match"] and loose["exceeding_values"] == {}


def test_compare_rejects_recipe_mismatch(tmp_path):
    ra = RecipeReport("traces")
    rb = RecipeReport("uniqueness")
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    with pytest.raises(RecipeMismatch):
        compare_runs(tmp_path / "a", tmp_path / "b")


@pytest.mark.parametrize("gap_b", [[1.0, NAN], [1.0, INF], [1.0, 0.75]],
                         ids=["nan", "inf", "drift"])
def test_compare_detects_drift_and_flips(tmp_path, gap_b):
    ra = RecipeReport("traces")
    ra.metric("gap", [1.0, 0.5])
    ra.check_le("bound", 0.5, 1.0)
    rb = RecipeReport("traces")
    rb.metric("gap", gap_b)
    rb.check_le("bound", 2.0, 1.0)
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    result = compare_runs(tmp_path / "a", tmp_path / "b")
    assert result["exceeds"] == ["gap"]
    assert result["assertion_flips"] == ["bound"]
    assert not result["match"]
    text = format_comparison(result)
    assert "DIFFERS" in text and "> gap" in text


def test_compare_names_one_sided_assertions_apart_from_flips(tmp_path):
    # an assertion in one run only was listed as a flip; it is named by its
    # side, and still makes the runs differ
    ra = RecipeReport("traces")
    ra.check_le("bound", 0.5, 1.0)
    ra.check_le("retired", 0.5, 1.0)
    ra.check_le("turned", 0.5, 1.0)
    rb = RecipeReport("traces")
    rb.check_le("bound", 0.5, 1.0)
    rb.check_le("added", 2.0, 1.0)
    rb.check_le("turned", 2.0, 1.0)
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    result = compare_runs(tmp_path / "a", tmp_path / "b")
    assert result["assertions_only_in"] == {"A": ["retired"], "B": ["added"]}
    assert result["assertion_flips"] == ["turned"]
    assert not result["match"]
    lines = format_comparison(result).splitlines()
    assert "only in A: retired" in lines and "only in B: added" in lines
    assert "assertion flips: turned" in lines and lines[-1] == "DIFFERS"
    same = compare_runs(tmp_path / "a", tmp_path / "a")
    assert same["assertions_only_in"] == {"A": [], "B": []} and same["match"]
    # a retired assertion alone makes the runs differ, and is no flip
    ra.assertions = [x for x in ra.assertions if x.name != "retired"]
    ra.write(tmp_path / "c")
    result = compare_runs(tmp_path / "a", tmp_path / "c")
    assert result["assertions_only_in"] == {"A": ["retired"], "B": []}
    assert not result["assertion_flips"] and not result["match"]


def test_compare_reads_equal_non_finite_values_as_match(tmp_path):
    for out in ("a", "b"):
        rep = RecipeReport("traces")
        rep.metric("gap", [NAN, INF])
        rep.check_le("bound", 0.5, NAN)
        rep.write(tmp_path / out)
    result = compare_runs(tmp_path / "a", tmp_path / "b")
    assert result["max_rel_diff"] == 0.0 and result["match"]
    assert format_comparison(result).endswith("MATCH")


def test_compare_lists_threshold_changes(tmp_path):
    ra = RecipeReport("traces")
    rb = RecipeReport("traces")
    for rep, bound in ((ra, 0.8), (rb, 0.85)):
        rep.metric("gap", [1.0, 0.5])
        rep.check_ge("order", 1.0, bound)
        rep.check_le("divergence", 1e-14, 1e-12)
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    result = compare_runs(tmp_path / "a", tmp_path / "b")
    assert result["max_rel_diff"] == 0.0 and not result["assertion_flips"]
    assert result["threshold_changes"] == {"order": [0.8, 0.85]}
    assert not result["match"]
    text = format_comparison(result)
    assert "threshold changed: order: 0.8 -> 0.85" in text
    assert "DIFFERS" in text


def test_compare_takes_rounding_level_threshold_changes_as_match(tmp_path):
    # some thresholds are measured values (independence_decays is checked
    # against the first gap), so they move at rounding level with the code
    ra = RecipeReport("traces")
    rb = RecipeReport("traces")
    for rep, bound in ((ra, 0.82807), (rb, 0.82807 + 1e-15)):
        rep.metric("gap", [0.8, 0.4])
        rep.check_le("independence_decays", 0.4, bound)
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    result = compare_runs(tmp_path / "a", tmp_path / "b", tol=1e-8)
    assert result["threshold_changes"] == {}
    assert result["match"]
    assert format_comparison(result).endswith("MATCH")


def test_report_round_trip(tmp_path):
    rep = RecipeReport("demo")
    rep.metric("values", [1.5, 2.5])
    rep.metric("scalar", 3.25)
    rep.check_le("small", 0.1, 1.0, "detail text")
    rep.check_ge("large", 0.1, 1.0)
    rep.table("rows", ["a", "b"], [(1, 2.0), (3, 4.0)])
    assert not rep.passed
    rep.write(tmp_path)
    assert (tmp_path / "rows.csv").read_text().splitlines()[0] == "a,b"
    loaded = load_summary(tmp_path)
    assert loaded["metrics"]["values"] == [1.5, 2.5]
    assert loaded["metrics"]["scalar"] == 3.25
    names = [a["name"] for a in loaded["assertions"]]
    assert names == ["small", "large"]
    assert loaded["passed"] is False


def test_load_summary_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_summary(tmp_path)


@pytest.mark.parametrize("check, ladder, worst, passed", [
    ("check_le", [0.1, NAN, 0.2], NAN, False),
    ("check_le", [0.1, 0.3, 0.2], 0.3, True),
    ("check_ge", [2.0, NAN], NAN, False),
    ("check_ge", [2.0, 0.5, 3.0], 0.5, False),
])
def test_checks_record_the_worst_rung_and_fail_on_nan(check, ladder, worst,
                                                      passed):
    # the builtin min([2.0, nan]) is 2.0: a NaN after the first rung must
    # still fail
    rep = RecipeReport("demo")
    getattr(rep, check)("x", ladder, 1.0)
    a = rep.assertions[0]
    assert a.passed is passed
    assert a.value == pytest.approx(worst, nan_ok=True)
    assert a.threshold == 1.0


def test_check_order_records_orders_and_fails_on_nan():
    rep = RecipeReport("demo")
    rep.check_order("fine", [1.0, 0.25, 0.0625], 1.9, metric="fine_orders")
    rep.check_order("broken", [1.0, 0.25, NAN], 1.9)
    fine, broken = rep.assertions
    assert rep.metrics == {"fine_orders": [2.0, 2.0]}
    assert fine.passed and fine.value == 2.0 and fine.threshold == 1.9
    assert fine.detail == "orders ['2.000', '2.000']"
    assert not broken.passed
    assert broken.value == pytest.approx(NAN, nan_ok=True)


@pytest.mark.parametrize("ladder, passed", [
    ([0.8, 0.4, 0.2], True),
    ([0.8, 0.4, 0.4], False),
    ([0.8, 0.9, 0.2], False),
    ([0.8, NAN, 0.2], False),
])
def test_check_decreasing(ladder, passed):
    rep = RecipeReport("demo")
    rep.check_decreasing("falls", ladder)
    a = rep.assertions[0]
    assert a.passed is passed
    assert (a.value, a.threshold) == (ladder[-1], ladder[0])


@pytest.mark.parametrize("call", [
    lambda rep: rep.check_le("bound", [], 1.0),
    lambda rep: rep.check_ge("bound", [], 1.0),
    lambda rep: rep.check_order("bound", [0.5], 1.9),
    lambda rep: rep.check_decreasing("bound", [0.5]),
])
def test_short_ladders_raise_naming_the_assertion(call):
    # an empty bound ladder, or a single rung for an order or a fall, used to
    # pass vacuously or die in a numpy reduction
    with pytest.raises(ValueError, match=r"^bound needs a ladder of at least"):
        call(RecipeReport("demo"))


def test_orders_need_two_rungs():
    with pytest.raises(ValueError, match="at least 2 rungs, got 1"):
        orders([0.5])
    assert orders([1.0, 0.25]) == [2.0]


@pytest.mark.parametrize("argv, assertion", [
    (["eps-sweep", "--eps", "0.1,0.05"], "cauchy_decreasing"),
    (["mms-stationary", "--n", "16"], "velocity_order"),
    (["transposition", "--n", "16", "--eps", "0.5"], "gap_decreasing"),
    (["traces", "--n", "32"], "probe_gap_order"),
    (["biharmonic", "--n", "256"], "mms_order"),
    (["evolution-estimate", "--n", "128"], "pairing_order"),
    # an order of a ladder that does not halve h read 4.01 at (16, 64)
    (["mms-stationary", "--n", "16,64"], "velocity_order"),
    (["traces", "--n", "32,48"], "probe_gap_order"),
])
def test_cli_short_ladders_exit_2_naming_the_assertion(tmp_path, capsys,
                                                        monkeypatch, argv,
                                                        assertion):
    # the ladder is refused before the first solve, not after the last
    calls = count_saddle_solves(monkeypatch)
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert assertion in err and "needs a ladder of at least" in err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    # a zero or repeated width divided by zero, and a negative width asked
    # for a negative cell count
    (["eps-sweep", "--eps", "0,0.1,0.05"], "eps must be finite and positive, got 0.0"),
    (["eps-sweep", "--eps", "0.1,0.05,0.05"], "eps values must be distinct"),
    (["eps-sweep", "--eps=-0.1,0.1,0.05"], "eps must be finite and positive, got -0.1"),
    # "all --n 16,32" wrote five recipes before transposition refused n = 32
    (["all", "--n", "16,32"], "grid n=32 cannot resolve eps=0.1 (need n >= 80)"),
    # "--n 16,2" solved n = 16, then build_grid refused n = 2
    (["uniqueness", "--n", "16,2"], "n must be in [4, 2048], got 2"),
    # "all --seed -1" solved two recipes, then exited in numpy's "expected
    # non-negative integer", naming no flag
    (["all", "--seed", "-1"], "seed must be non-negative, got -1"),
    # n = 4096 would hold about 400 MB in one saddle inverse
    (["uniqueness", "--n", "8,4096"], "n must be in [4, 2048], got 4096"),
])
def test_cli_bad_config_values_exit_2_naming_the_key(tmp_path, capsys, monkeypatch,
                                                      argv, message):
    calls = count_saddle_solves(monkeypatch)
    assert cli_main(argv + ["--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("recipe, finest", [("transposition", 512),
                                            ("biharmonic", 256)])
def test_cli_layer_beyond_the_finest_default_rung_exits_2(tmp_path, capsys,
                                                          monkeypatch, recipe,
                                                          finest):
    # the default ladder's finest rung is checked as an explicit one's is
    calls = count_saddle_solves(monkeypatch)
    assert cli_main([recipe, "--eps", "0.01", "--out", str(tmp_path)]) == 2
    assert f"grid n={finest} cannot resolve eps=0.01 (need n >= 800)" in (
        capsys.readouterr().err)
    assert calls == []


def test_evolution_estimate_solves_its_layer_on_the_resolved_grid(tmp_path,
                                                                  monkeypatch):
    # the eps case is built on resolved_n(0.1) = 80 whatever the ladder, so
    # the ladder that the default one spells out runs too
    built = _record_grids(monkeypatch)
    assert cli_main(["evolution-estimate", "--n", "16,32,64",
                     "--out", str(tmp_path)]) == 0
    assert built == [80, 16, 32, 64]


@pytest.mark.parametrize("recipe, eps_list", [
    ("evolution-estimate", (0.1, 0.05, 0.025, 0.0125)),
    ("eps-sweep", (0.2, 0.1, 0.05)),
])
def test_recipes_solve_no_underresolved_layer(tmp_path, recipe, eps_list):
    # every grid these recipes build for a layer resolves it: no
    # UnderResolvedWarning is raised, and none is silenced
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnderResolvedWarning)
        rep = run_recipe(ExperimentConfig(recipe=recipe, eps_list=eps_list,
                                          out=tmp_path))
    assert rep.passed


def test_transposition_solves_each_case_once(tmp_path, monkeypatch):
    # a rough-data and an adjoint saddle solve for each of 2 cases x 2 grids:
    # 8 saddle solves; n = 32 resolves eps = 0.25
    calls = count_saddle_solves(monkeypatch)
    cfg = ExperimentConfig(recipe="transposition", ns=(16, 32), out=tmp_path,
                           eps_list=(0.25,))
    run_recipe(cfg)
    assert len(calls) == 8


def test_assertion_line_format():
    a = Assertion("gap", True, 0.125, 1.0, "why")
    assert a.line() == "PASS  gap: value=0.125 threshold=1  (why)"
    b = Assertion("gap", False, 2.0, 1.0)
    assert b.line().startswith("FAIL  gap:")


def test_merge_prefixes_names():
    parent = RecipeReport("all")
    child = RecipeReport("traces")
    child.check_le("gap", 0.1, 1.0)
    child.metric("m", 1.0)
    child.table("probes", ["n", "gap"], [(8, 0.1)])
    parent.merge(child)
    assert parent.assertions[0].name == "traces/gap"
    assert parent.metrics == {"traces/m": 1.0}
    # the child writes its own tables; the merged report keeps none
    assert parent.tables == {}



# every series the recipes once drew as a plot, as (recipe, table, column,
# summary metric or None, (column, value) selecting the rows or None)
PLOTTED_SERIES = [
    ("mms-stationary", "errors", "h", None, None),
    ("mms-stationary", "errors", "err_u", "err_u", None),
    ("mms-stationary", "errors", "err_p", "err_p", None),
    ("eps-sweep", "ratios", "ratio", "ratios", None),
    ("eps-sweep", "pairs", "u_diff", "cauchy_differences", None),
    ("transposition", "identity_log", "rel_gap", "gaps_rotation",
     ("case", "rotation")),
    ("transposition", "identity_log", "rel_gap", "gaps_lid", ("case", "lid")),
    ("traces", "convergence", "worst_probe_gap", "probe_gaps", None),
    ("traces", "convergence", "lift_roundtrip", "roundtrip_errors", None),
    ("traces", "convergence", "indep_stokes", "indep_stokes", None),
    ("biharmonic", "results", "mms_err", "mms_errors", None),
    ("biharmonic", "results", "cross_gap", None, None),
    ("evolution-orders", "self_differences", "final_diff", "euler_diffs",
     ("scheme", "euler")),
    ("evolution-orders", "self_differences", "final_diff", "cn_diffs",
     ("scheme", "cn")),
    ("evolution-estimate", "relaxation", "error", None, None),
    ("evolution-estimate", "pairing", "gap", "pairing_gaps", None),
]


@pytest.mark.parametrize("recipe, table, column, metric, where", PLOTTED_SERIES,
                         ids=[f"{r[0]}-{r[2]}-{r[3]}" for r in PLOTTED_SERIES])
def test_plotted_series_are_table_columns(recipe_runs, recipe_out, recipe,
                                          table, column, metric, where):
    with open(recipe_out / recipe / f"{table}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and column in rows[0]
    if where:
        rows = [r for r in rows if r[where[0]] == where[1]]
    values = [float(r[column]) for r in rows]
    if metric:
        # CSV cells carry 12 significant digits
        expected = load_summary(recipe_out / recipe)["metrics"][metric]
        np.testing.assert_allclose(values, expected, rtol=1e-11, atol=0.0)


def test_recipe_directories_hold_only_tables_and_summaries(recipe_runs,
                                                           recipe_out):
    for name, (rep, _) in recipe_runs.items():
        files = {p.name for p in (recipe_out / name).iterdir()}
        assert files == {f"{t}.csv" for t in rep.tables} | {
            "summary.json", "summary.txt"}, name
