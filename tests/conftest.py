import time

import pytest

from vws.experiments.config import ExperimentConfig
from vws.experiments.recipes import RECIPES


@pytest.fixture(scope="session")
def recipe_runs(tmp_path_factory):
    """Run every recipe once; acceptance tests share the results."""
    out = tmp_path_factory.mktemp("recipe_runs")
    runs = {}
    for name in RECIPES:
        cfg = ExperimentConfig(recipe=name, out=out)
        t0 = time.perf_counter()
        rep = RECIPES[name](cfg)
        elapsed = time.perf_counter() - t0
        rep.write(cfg.out_dir())
        runs[name] = (rep, elapsed)
    return runs
