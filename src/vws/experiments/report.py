"""Recipe reports: CSV tables, a structured JSON summary, and a text digest.

Every recipe produces one RecipeReport.  Assertions carry the measured value
and the threshold it was checked against so a failure is machine readable.

The verdict API turns a number or a ladder (one value per grid or step size)
into one assertion: check_le / check_ge record the worst entry, check_order
the smallest pairwise observed order, check_decreasing a strict fall.  The
reductions propagate NaN, so a NaN anywhere in a ladder fails its assertion.
A ladder too short for its assertion (no rung for a bound, one rung for an
order or a fall) raises ValueError naming the assertion and the rungs it
needs.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


def rungs(values, need: int, name: str) -> np.ndarray:
    """values as a float array; ValueError naming the assertion ``name``
    when the ladder has fewer than ``need`` rungs."""
    v = np.asarray(values, dtype=float)
    if v.size < need:
        raise ValueError(f"{name} needs a ladder of at least {need} "
                         f"rung{'s' if need > 1 else ''}, got {v.size}")
    return v


def orders(values, name: str = "an observed order") -> list:
    """Observed orders log2(v[k] / v[k+1]) of a ladder halving h each rung."""
    v = rungs(values, 2, name)
    return [float(o) for o in np.log2(v[:-1] / v[1:])]


@dataclass
class Assertion:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def as_dict(self) -> dict:
        return asdict(self)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        s = f"{tag}  {self.name}: value={self.value:.6g} threshold={self.threshold:.6g}"
        if self.detail:
            s += f"  ({self.detail})"
        return s


@dataclass
class RecipeReport:
    recipe: str
    assertions: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    started: float = field(default_factory=time.time)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, passed: bool, value: float, threshold: float,
              detail: str = "") -> None:
        # record, never raise: a recipe reports every failure it finds
        self.assertions.append(
            Assertion(name, bool(passed), float(value), float(threshold), detail))

    def check_le(self, name, values, threshold, detail=""):
        """Every entry of a number or ladder is <= threshold; records the max."""
        worst = float(np.max(rungs(values, 1, name)))
        self.check(name, worst <= threshold, worst, threshold, detail)

    def check_ge(self, name, values, threshold, detail=""):
        """Every entry of a number or ladder is >= threshold; records the min."""
        worst = float(np.min(rungs(values, 1, name)))
        self.check(name, worst >= threshold, worst, threshold, detail)

    def check_order(self, name, values, minimum, metric=None):
        """Every pairwise observed order of a ladder is >= minimum; the orders
        are recorded under metric when one is named."""
        ords = orders(values, name)
        if metric:
            self.metric(metric, ords)
        self.check_ge(name, ords, minimum,
                      f"orders {[f'{o:.3f}' for o in ords]}")

    def check_decreasing(self, name, values):
        """The ladder falls strictly; records value = last, threshold = first."""
        v = rungs(values, 2, name)
        self.check(name, np.all(v[1:] < v[:-1]), v[-1], v[0],
                   f"ladder {[f'{x:.4g}' for x in v]}")

    def metric(self, name: str, value) -> None:
        self.metrics[name] = value

    def table(self, name: str, header, rows) -> None:
        self.tables[name] = (list(header), [list(r) for r in rows])

    def merge(self, other: "RecipeReport") -> None:
        """Take other's assertions and metrics under its recipe's prefix;
        its tables stay with the report that wrote them."""
        prefix = other.recipe
        for a in other.assertions:
            self.assertions.append(
                Assertion(f"{prefix}/{a.name}", a.passed, a.value, a.threshold,
                          a.detail))
        for k, v in other.metrics.items():
            self.metrics[f"{prefix}/{k}"] = v

    def summary_dict(self) -> dict:
        return {
            "recipe": self.recipe,
            "passed": self.passed,
            "assertions": [a.as_dict() for a in self.assertions],
            "metrics": {k: _jsonable(v) for k, v in self.metrics.items()},
            "elapsed_seconds": round(time.time() - self.started, 3),
        }

    def lines(self) -> list:
        out = [f"recipe: {self.recipe}"]
        out += [a.line() for a in self.assertions]
        status = "ALL ASSERTIONS PASSED" if self.passed else "FAILURES PRESENT"
        out.append(status)
        return out

    def write(self, outdir) -> Path:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in self.tables.items():
            write_csv(outdir / f"{name}.csv", header, rows)
        summary = outdir / "summary.json"
        with open(summary, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(outdir / "summary.txt", "w") as fh:
            fh.write("\n".join(self.lines()) + "\n")
        return summary


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if hasattr(v, "item"):
        return v.item()
    return v


def write_csv(path, header, rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(c) for c in row])


def _fmt(c):
    if isinstance(c, float):
        return f"{c:.12g}"
    if hasattr(c, "item"):
        return f"{float(c):.12g}"
    return c


def load_summary(outdir) -> dict:
    path = Path(outdir) / "summary.json"
    if not path.exists():
        raise FileNotFoundError(f"no summary.json under {outdir}")
    with open(path) as fh:
        return json.load(fh)
