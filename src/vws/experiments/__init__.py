"""Reproducible experiment recipes with CSV and JSON reports, and a CLI."""

from .compare import compare_runs
from .config import ExperimentConfig, resolve_config
from .recipes import RECIPES, run_recipe
from .report import RecipeReport, load_summary

__all__ = [
    "ExperimentConfig",
    "RECIPES",
    "RecipeReport",
    "compare_runs",
    "load_summary",
    "resolve_config",
    "run_recipe",
]
