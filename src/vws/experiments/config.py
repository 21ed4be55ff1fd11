"""Experiment configuration: one recipe run, set by the command-line flags."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

from ..boundary import resolved_n

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

    def __post_init__(self):
        for eps in self.eps_list:
            if not 0.0 < eps < math.inf:       # NaN fails it too
                raise ValueError(f"eps must be finite and positive, got {eps}")
            if (n := resolved_n(eps)) > MAX_N:
                raise ValueError(f"eps={eps} needs a grid n={n}, above the "
                                 f"finest, n={MAX_N}")
        for n in self.ns or ():
            if not isinstance(n, Integral):
                raise ValueError(f"n must be an integer, got {n!r}")
            if not 4 <= n <= MAX_N:
                raise ValueError(f"n must be in [4, {MAX_N}], got {n}")
        if not 0 < len(set(self.eps_list)) == len(self.eps_list):
            raise ValueError(f"eps values must be distinct, one or more: {self.eps_list}")

    def out_dir(self) -> Path:
        return Path(self.out) / self.recipe


def check_resolution(eps: float, n: int) -> None:
    """Boundary-layer resolution guard: n >= resolved_n(eps)."""
    if n < (need := resolved_n(eps)):
        raise ValueError(f"grid n={n} cannot resolve eps={eps} (need n >= {need})")
