"""Compare two recipe runs by their structured summaries."""

from __future__ import annotations

import math

from ..errors import RecipeMismatch
from .report import load_summary


def _numeric_items(metrics: dict):
    for key, value in sorted(metrics.items()):
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            yield key, [float(value)]
        elif isinstance(value, list) and value and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in value):
            yield key, [float(v) for v in value]


def _worst_pair(a: list | None, b: list | None):
    """Worst relative difference of two value lists, and the index of the
    pair that makes it; equal values (inf with inf, NaN with NaN) differ by
    0, any other pair with a non-finite entry by inf, and lists of different
    lengths, or a missing one (None), by inf at no index."""
    if a is None or b is None or len(a) != len(b):
        return float("inf"), None
    worst, at = 0.0, None
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return float("inf"), i
        d = abs(x - y) / max(abs(x), abs(y), 1e-300)
        if d > worst:
            worst, at = d, i
    return worst, at


def compare_runs(dir_a, dir_b, tol: float = 1e-8) -> dict:
    """Per-metric relative differences between two runs of the same recipe.

    Raises ValueError unless 0 <= tol < inf, so that a NaN or infinite
    tolerance cannot pass every difference, and RecipeMismatch (a ValueError)
    if the directories hold different recipes.  Returns a dict with the
    diffs, the metrics beyond tol with the two values that differ most (as
    name -> [entry, value_a, value_b]: a ladder's worst pair and its entry,
    a scalar's two values and None, or None and both whole ladders when
    their lengths differ, None for a missing one), the assertions present in
    one run only (as "A" and "B" -> names), and, among those present in both,
    the ones whose pass/fail state flipped and the ones whose threshold
    differs by more than tol, relative (as name -> [threshold_a,
    threshold_b]); some thresholds are measured values.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    sa = load_summary(dir_a)
    sb = load_summary(dir_b)
    if sa["recipe"] != sb["recipe"]:
        raise RecipeMismatch(
            f"cannot compare recipe {sa['recipe']!r} ({dir_a}) with "
            f"{sb['recipe']!r} ({dir_b})")

    ma = dict(_numeric_items(sa.get("metrics", {})))
    mb = dict(_numeric_items(sb.get("metrics", {})))
    diffs, values = {}, {}
    for key in sorted(set(ma) | set(mb)):
        a, b = ma.get(key), mb.get(key)
        diffs[key], at = _worst_pair(a, b)
        if diffs[key] > tol:
            values[key] = ([None, a, b] if at is None else
                           [at if len(a) > 1 else None, a[at], b[at]])

    aa = {x["name"]: x for x in sa.get("assertions", [])}
    ab = {x["name"]: x for x in sb.get("assertions", [])}
    both = sorted(set(aa) & set(ab))
    only = {"A": sorted(set(aa) - set(ab)), "B": sorted(set(ab) - set(aa))}
    flips = [name for name in both if aa[name]["passed"] != ab[name]["passed"]]
    thresholds = {name: [aa[name]["threshold"], ab[name]["threshold"]]
                  for name in both
                  if _worst_pair([aa[name]["threshold"]],
                                 [ab[name]["threshold"]])[0] > tol}

    exceeds = sorted(k for k, d in diffs.items() if d > tol)
    return {
        "recipe": sa["recipe"],
        "tol": tol,
        "metric_diffs": diffs,
        "max_rel_diff": max(diffs.values()) if diffs else 0.0,
        "exceeds": exceeds,
        "exceeding_values": values,
        "assertions_only_in": only,
        "assertion_flips": flips,
        "threshold_changes": thresholds,
        "match": not (exceeds or flips or thresholds or only["A"] or only["B"]),
    }


def _shown(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, list):
        return "[" + ", ".join(f"{v:.9g}" for v in value) + "]"
    return f"{value:.9g}"


def format_comparison(result: dict) -> str:
    """The comparison as text: every metric's relative difference, and for
    one beyond tol its two values beside it, so that a difference between
    values at the rounding floor reads as one."""
    lines = [f"recipe: {result['recipe']}  (tol={result['tol']:g})"]
    for key, d in sorted(result["metric_diffs"].items()):
        if d <= result["tol"]:
            lines.append(f"  {key}: rel diff {d:.3e}")
            continue
        at, a, b = result["exceeding_values"][key]
        entry = "" if at is None else f"entry {at}: "
        lines.append(f"> {key}: rel diff {d:.3e}  ({entry}{_shown(a)} vs {_shown(b)})")
    for side, names in result["assertions_only_in"].items():
        if names:
            lines.append(f"only in {side}: " + ", ".join(names))
    if result["assertion_flips"]:
        lines.append("assertion flips: " + ", ".join(result["assertion_flips"]))
    for name, (ta, tb) in result["threshold_changes"].items():
        lines.append(f"threshold changed: {name}: {ta:g} -> {tb:g}")
    lines.append("MATCH" if result["match"] else "DIFFERS")
    return "\n".join(lines)
