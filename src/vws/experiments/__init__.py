"""Reproducible experiment recipes with CSV and JSON reports, and a CLI."""

from .compare import compare_runs
from .config import ExperimentConfig
from .recipes import RECIPES, run_recipe
from .report import RecipeReport, load_summary

__all__ = [
    "ExperimentConfig",
    "RECIPES",
    "RecipeReport",
    "compare_runs",
    "load_summary",
    "run_recipe",
]
