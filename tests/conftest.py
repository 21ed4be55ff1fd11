import time

import pytest

from vws.experiments.config import ExperimentConfig
from vws.experiments.recipes import RECIPES, run_recipe


@pytest.fixture(scope="session")
def recipe_out(tmp_path_factory):
    """The root that recipe_runs writes under, one directory per recipe."""
    return tmp_path_factory.mktemp("recipe_runs")


@pytest.fixture(scope="session")
def recipe_runs(recipe_out):
    """Run every recipe once; acceptance tests share the results."""
    runs = {}
    for name in RECIPES:
        cfg = ExperimentConfig(recipe=name, out=recipe_out)
        t0 = time.perf_counter()
        rep = run_recipe(cfg)
        elapsed = time.perf_counter() - t0
        runs[name] = (rep, elapsed)
    return runs
