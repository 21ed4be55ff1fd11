import json

import pytest

from vws.errors import RecipeMismatch
from vws.experiments.cli import main as cli_main
from vws.experiments.compare import compare_runs, format_comparison
from vws.experiments.config import (
    ExperimentConfig,
    check_resolution,
    resolve_config,
)
from vws.experiments.recipes import RECIPE_ORDER, RECIPES, run_recipe
from vws.experiments.report import Assertion, RecipeReport, load_summary
from vws.experiments.svg import line_plot


CONFIG_TEXT = """\
[vws]
seed = 3
scheme = euler

[uniqueness]
seed = 5
n = 8, 16
"""


def _config_file(tmp_path):
    path = tmp_path / "vws.ini"
    path.write_text(CONFIG_TEXT)
    return path


def test_config_precedence(tmp_path):
    path = _config_file(tmp_path)
    cfg = resolve_config("uniqueness", config_path=path)
    assert cfg.seed == 5               # recipe section beats [vws]
    assert cfg.ns == (8, 16)
    assert cfg.scheme == "euler"

    other = resolve_config("traces", config_path=path)
    assert other.seed == 3             # [vws] applies to every recipe
    assert other.ns is None

    flag = resolve_config("uniqueness", config_path=path,
                          overrides={"seed": "9", "n": None})
    assert flag.seed == 9              # flags beat both sections
    assert flag.ns == (8, 16)          # None overrides are skipped


def test_config_defaults():
    cfg = resolve_config("transposition")
    assert cfg.ns is None
    assert cfg.eps_list == (0.1, 0.05, 0.025, 0.0125)
    assert cfg.scheme == "cn"
    assert not cfg.allow_underresolved
    assert cfg.out_dir().name == "transposition"


def test_unknown_config_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[vws]\nresolution = 64\n")
    with pytest.raises(KeyError):
        resolve_config("uniqueness", config_path=path)


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    # recipes run in one process; a file that still sets workers is a usage
    # error (exit 2), not a traceback
    path = tmp_path / "old.ini"
    path.write_text("[vws]\nworkers = 4\n")
    assert cli_main(["uniqueness", "--config", str(path),
                     "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == \
        "error: unknown configuration key 'workers'\n"


def test_resolution_guard():
    cfg = ExperimentConfig(recipe="transposition")
    with pytest.raises(ValueError, match="allow-underresolved"):
        check_resolution(cfg, 0.1, 32)
    check_resolution(cfg, 0.1, 80)     # boundary case passes
    waived = ExperimentConfig(recipe="transposition",
                              allow_underresolved=True)
    check_resolution(waived, 0.1, 8)


def test_run_recipe_writes_summary(tmp_path):
    cfg = ExperimentConfig(recipe="uniqueness", ns=(8, 16), out=tmp_path)
    rep = run_recipe(cfg)
    assert rep.passed
    outdir = tmp_path / "uniqueness"
    assert (outdir / "summary.json").exists()
    assert (outdir / "summary.txt").exists()
    loaded = load_summary(outdir)
    assert loaded["recipe"] == "uniqueness"
    assert loaded["passed"] is True
    assert "elapsed_seconds" in loaded
    text = (outdir / "summary.txt").read_text()
    assert "ALL ASSERTIONS PASSED" in text


def test_run_recipe_unknown_name(tmp_path):
    with pytest.raises(KeyError):
        run_recipe(ExperimentConfig(recipe="sideways", out=tmp_path))


def test_recipe_registry():
    assert len(RECIPE_ORDER) == 10
    assert set(RECIPE_ORDER) == set(RECIPES)
    for fn in RECIPES.values():
        assert callable(fn)


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


def test_compare_rejects_recipe_mismatch(tmp_path):
    ra = RecipeReport("traces")
    rb = RecipeReport("uniqueness")
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    with pytest.raises(RecipeMismatch):
        compare_runs(tmp_path / "a", tmp_path / "b")


def test_compare_detects_drift_and_flips(tmp_path):
    ra = RecipeReport("traces")
    ra.metric("gap", [1.0, 0.5])
    ra.check_le("bound", 0.5, 1.0)
    rb = RecipeReport("traces")
    rb.metric("gap", [1.0, 0.75])
    rb.check_le("bound", 2.0, 1.0)
    ra.write(tmp_path / "a")
    rb.write(tmp_path / "b")
    result = compare_runs(tmp_path / "a", tmp_path / "b")
    assert result["exceeds"] == ["gap"]
    assert result["assertion_flips"] == ["bound"]
    assert not result["match"]
    text = format_comparison(result)
    assert "DIFFERS" in text and "> gap" in text


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
    parent.merge(child)
    assert parent.assertions[0].name == "traces/gap"
    assert parent.metrics == {"traces/m": 1.0}


def test_svg_line_plot(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot(path,
              [("a", [1.0, 0.5, 0.25], [1e-1, 1e-2, 1e-3]),
               ("b", [1.0, 0.5, 0.25], [2e-1, 0.0, 4e-3])],
              title="demo", xlabel="h", ylabel="err", logx=True, logy=True)
    text = path.read_text()
    assert text.startswith("<svg") or "<svg" in text
    assert "polyline" in text
    assert "demo" in text

    linear = tmp_path / "linear.svg"
    line_plot(linear, [("c", [0.0, 1.0, 2.0], [3.0, 1.0, 2.0])],
              title="lin", xlabel="x", ylabel="y")
    assert "polyline" in linear.read_text()
