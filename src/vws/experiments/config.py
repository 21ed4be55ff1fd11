"""Experiment configuration: one recipe run, set by the command-line flags."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_EPS = (0.1, 0.05, 0.025, 0.0125)
# the finest grid a run or a layer width may ask for: its saddle inverse
# holds about 3 n^2 floats, 100 MB at n = 2048
MAX_N = 2048


@dataclass
class ExperimentConfig:
    recipe: str
    ns: tuple | None = None    # None: the recipe picks its own grid ladder
    eps_list: tuple = DEFAULT_EPS
    out: Path = Path("runs")
    seed: int = 0

    def __post_init__(self):
        for eps in self.eps_list:
            if not 0.0 < eps < math.inf:       # NaN fails it too
                raise ValueError(f"eps must be finite and positive, got {eps}")
            resolved_n(eps)     # a width no grid up to MAX_N resolves
        for n in self.ns or ():
            if not 4 <= n <= MAX_N:
                raise ValueError(f"n must be in [4, {MAX_N}], got {n}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 < len(set(self.eps_list)) == len(self.eps_list):
            raise ValueError(f"eps values must be distinct, one or more: {self.eps_list}")

    def out_dir(self) -> Path:
        return Path(self.out) / self.recipe


def resolved_n(eps: float) -> int:
    """The coarsest grid that resolves a layer of width eps: n >= 8/eps.
    A width that needs one finer than MAX_N raises ValueError."""
    if (n := math.ceil(8.0 / eps - 1e-9)) > MAX_N:
        raise ValueError(f"eps={eps} needs a grid n={n}, above the finest, n={MAX_N}")
    return n


def check_resolution(eps: float, n: int) -> None:
    """Boundary-layer resolution guard: n >= resolved_n(eps)."""
    if n < (need := resolved_n(eps)):
        raise ValueError(f"grid n={n} cannot resolve eps={eps} (need n >= {need})")
