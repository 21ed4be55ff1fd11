"""One benchmark process: set up a workload, then replay or time its ops.

Started by ``run.py``, never by hand.  It prints ``READY`` once set-up is done
(the launcher times set-up up to that line, interpreter start included) and,
as its last line, one JSON object with the per-op records.

Modes:
  probe  set up, then replay the first block of inputs untimed; the launcher
         compares their counts with the timed process (exact-count gate).
  run    set up, then time every op of the seed's schedule, which holds
         as many blocks as take about --seconds on the reference machine.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import vws  # noqa: E402
from vws.errors import UnderResolvedWarning  # noqa: E402

if Path(vws.__file__).resolve().parent != SRC / "vws":
    sys.exit(f"vws imported from {vws.__file__}, not from {SRC}")

from tracer import Tracer, layer_table, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, input_schedule  # noqa: E402


_REF_RNG = np.random.default_rng(0)
REF_GRID = _REF_RNG.random((63, 64))
REF_PLATE = _REF_RNG.random((67, 67))


def _failed_checks(checks: dict) -> list:
    return [name for name, (value, bound) in checks.items() if not value <= bound]


def reference_s() -> float:
    """Wall time of one fixed numpy/scipy kernel that runs no vws code: 50
    DST-I pairs on a 63 x 64 array and 75 sweeps of a 7-point stencil over a
    67 x 67 array, the kinds of work the workloads do (about 9 ms on a
    2-vCPU Xeon VM).  Timed right after each op, it measures how fast the
    host runs at that moment."""
    t0 = time.perf_counter()
    for _ in range(50):
        y = scipy.fft.dst(scipy.fft.dst(REF_GRID, type=1, axis=0), type=1, axis=1)
        y *= 0.5
    p = REF_PLATE
    for _ in range(75):
        c = p[2:-2, 2:-2]
        y = 20 * c - 8 * (p[1:-3, 2:-2] + p[3:-1, 2:-2] + p[2:-2, 1:-3] + p[2:-2, 3:-1]) \
            + p[:-4, 2:-2] + p[4:, 2:-2]
        float((y * c).sum())
    return time.perf_counter() - t0


def run_input(w, index, choice, a, tracer=None) -> dict:
    """One op on one input: timed call, then the untimed reference kernel and
    oracle."""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(index)
        first_span = len(tracer.spans)
    error = None
    t0 = time.perf_counter()
    try:
        out = w.op(choice, a)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out = None
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
        tracer.uninstall()
    c0 = time.perf_counter()
    rec = {"i": index, "choice": choice, "a": a, "time": elapsed,
           "ref_s": reference_s(), "traced": tracer is not None, "error": error}
    if out is not None:
        try:
            checks = w.check(out, choice, a)
            rec["failed_checks"] = _failed_checks(checks)
            rec["checks"] = {k: v for k, (v, _) in checks.items()}
            rec["counts"] = w.counts(out)
        except Exception as exc:
            rec["error"] = f"check raised {type(exc).__name__}: {exc}"
    if tracer is not None:
        calls = Counter(s[0] for s in tracer.spans[first_span:])
        rec["counts"] = dict(rec.get("counts", {}),
                             poisson_solves=calls["operators.poisson"],
                             stokes_solves=calls["stokes.solve_saddle"],
                             laplacian_applies=calls["operators.laplacian_apply"],
                             plate_applies=calls["biharmonic.apply"],
                             **{k: int(v) for k, v in tracer.counts[index].items()
                                if not k.endswith("_bytes")})
    rec["ok"] = rec["error"] is None and not rec.get("failed_checks")
    rec["untimed_s"] = time.perf_counter() - c0
    return rec


def run_pair(w, index, choice, a, tracer, records) -> None:
    """Trace mode: the same input untraced and traced, alternating the order."""
    modes = (None, tracer) if index % 2 == 0 else (tracer, None)
    for mode in modes:
        records.append(run_input(w, index, choice, a, mode))


def setup(w) -> dict:
    t0 = time.perf_counter()
    import sympy
    w.derive()
    derive_s = time.perf_counter() - t0
    checks = w.manufactured_check()
    w.setup()
    warm = run_input(w, -1, w.choices[0], 1.0)
    failed = [k for k, (value, minimum) in checks.items() if not value >= minimum]
    if not warm["ok"]:
        failed.append("warm_up_op")
    return {"derive_s": derive_s, "manufactured": {k: v for k, (v, _) in checks.items()},
            "setup_failed": failed,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__, "sympy": sympy.__version__}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="wall seconds after which no new block starts")
    ap.add_argument("--spans", help="file the traced run's spans are written to")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    warnings.simplefilter("error", UnderResolvedWarning)

    w = WORKLOADS[args.workload]()
    result = setup(w)
    print("READY", flush=True)

    tracer = Tracer() if args.trace else None
    # The schedule depends on --seed and --seconds only, so the same seed
    # attempts the same ops on every run, however fast the host is.
    blocks = max(1, round(args.seconds / (len(w.choices) * w.op_s_nominal)))
    schedule = input_schedule(args.seed, w.choices, blocks)
    if args.mode == "probe":
        schedule = schedule[:1]
    records: list = []
    index = 0
    t_phase = time.perf_counter()
    for block in schedule:
        for choice, a in block:
            if tracer is None:
                records.append(run_input(w, index, choice, a))
            else:
                run_pair(w, index, choice, a, tracer, records)
            index += 1
        if time.perf_counter() - start >= args.budget:
            break
    phase = time.perf_counter() - t_phase - sum(r["untimed_s"] for r in records)
    result.update(records=records, phase_s=phase,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    if tracer is not None and args.mode == "run":
        traced = [r for r in records if r["traced"]]
        plain = [r for r in records if not r["traced"]]
        table = layer_table(tracer.spans, tracer.counts, len(traced))
        result["layers"] = table
        result["per_layer"] = per_layer_metrics(table)
        result["trace"] = {
            "op_s_p50_traced": statistics.median(r["time"] for r in traced),
            "op_s_p50_untraced": statistics.median(r["time"] for r in plain),
            "spans_per_op": len(tracer.spans) / len(traced),
        }
        if args.spans:
            path = Path(args.spans)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                        "spans": tracer.spans}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
