"""Experiment configuration: INI file sections overridden by CLI flags."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_EPS = (0.1, 0.05, 0.025, 0.0125)


@dataclass
class ExperimentConfig:
    recipe: str
    ns: tuple | None = None    # None: the recipe picks its own grid ladder
    eps_list: tuple = DEFAULT_EPS
    T: float = 1.0
    dt: float = 1.0 / 32
    scheme: str = "cn"
    out: Path = Path("runs")
    seed: int = 0
    allow_underresolved: bool = False

    def out_dir(self) -> Path:
        return Path(self.out) / self.recipe


def _parse_ints(s: str) -> tuple:
    return tuple(int(v) for v in str(s).replace(" ", "").split(",") if v)


def _parse_floats(s: str) -> tuple:
    return tuple(float(v) for v in str(s).replace(" ", "").split(",") if v)


def load_config_file(path) -> dict:
    """Flat key/value sections; [vws] applies to every recipe, [<recipe>]
    sections override it."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return {name: dict(cp[name]) for name in cp.sections()}


_KEY_PARSERS = {
    "n": ("ns", _parse_ints),
    "eps": ("eps_list", _parse_floats),
    "t": ("T", float),
    "dt": ("dt", float),
    "scheme": ("scheme", str),
    "out": ("out", Path),
    "seed": ("seed", int),
    "allow_underresolved": ("allow_underresolved",
                            lambda v: str(v).lower() in ("1", "true", "yes")),
}


def _apply(cfg: ExperimentConfig, mapping: dict) -> ExperimentConfig:
    updates = {}
    for key, raw in mapping.items():
        k = key.lower().replace("-", "_")
        if k not in _KEY_PARSERS:
            raise KeyError(f"unknown configuration key {key!r}")
        attr, parse = _KEY_PARSERS[k]
        updates[attr] = parse(raw)
    return replace(cfg, **updates)


def resolve_config(recipe: str, config_path=None, overrides: dict | None = None
                   ) -> ExperimentConfig:
    """Defaults < [vws] section < [<recipe>] section < CLI flags."""
    cfg = ExperimentConfig(recipe=recipe)
    if config_path is not None:
        sections = load_config_file(config_path)
        if "vws" in sections:
            cfg = _apply(cfg, sections["vws"])
        if recipe in sections:
            cfg = _apply(cfg, sections[recipe])
    if overrides:
        cfg = _apply(cfg, {k: v for k, v in overrides.items() if v is not None})
    return cfg


def check_resolution(cfg: ExperimentConfig, eps: float, n: int) -> None:
    """Boundary-layer resolution guard: require n >= 8/eps unless waived."""
    if cfg.allow_underresolved:
        return
    need = 8.0 / eps
    if n < need - 1e-9:
        raise ValueError(
            f"grid n={n} cannot resolve eps={eps} (need n >= {need:.0f}); "
            f"pass --allow-underresolved to proceed")
