"""Benchmark of the vws solvers: three seeded workloads, checked op by op.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload steady-duality --seed 1 --seconds 25 --trace 0

The launcher starts worker processes one after another, never two at once,
each with BLAS/OpenMP pinned to one thread:

  * two set-up probes, which set up in a fresh interpreter and replay the
    first block of ops untimed;
  * the timed process, which sets up the same way and then times ops.

Every process runs the same schedule of ops, fixed by ``--seed`` and
``--seconds``.  After each op the worker times a fixed reference kernel that
runs no vws code; ``op_ref_mean`` is the total op time over the total
reference time, so a busy host, which slows both, cancels out.

``setup_s`` is the median of the three set-up times, measured from process
start to the worker's READY line.  The counts of the first block must agree
exactly between all three processes (exact-count gate).  With ``--trace 1``
the timed process runs every input twice, untraced and traced, and reports
per-layer metrics plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
# The names of workloads.WORKLOADS; the launcher imports nothing from the
# package, so it starts fast and fails cleanly where src/ is missing.
WORKLOAD_NAMES = ("steady-duality", "plate-crosscheck", "unsteady-adjoint")
PROBES = 2
DEADLINE_S = 170.0      # the whole run must end within 180 s
TEARDOWN_S = 20.0       # reserve for the last block, output and exit
# Printed and written to the results file, but not in the JSON result line:
# ops_failed_frac is 0 on two workloads (its complement ops_ok_frac is
# reported), and the raw wall-clock figures follow the load of a shared host
# by more than any bound allows (op_ref_mean divides that load out).
PRINTED_ONLY = ("ops_failed_frac", "op_s_p50", "op_s_p90", "ops_per_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _reader(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def run_worker(args, mode: str, deadline: float) -> tuple:
    """Start one worker, time its set-up, and return (setup_s, result dict)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode,
           "--budget", str(max(0.0, deadline - TEARDOWN_S - time.monotonic()))]
    if args.trace and mode == "run":
        cmd += ["--spans", str(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")]
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_reader, args=(proc.stdout, lines), daemon=True)
    reader.start()
    setup_s, last = None, None
    try:
        while True:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
            if line is None:
                break
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except (queue.Empty, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    finally:
        reader.join(timeout=5)
        proc.stdout.close()
    if code != 0 or setup_s is None or last is None:
        raise WorkerFailed(f"{mode} worker exited with code {code}")
    return setup_s, json.loads(last)


def cache_sizes() -> dict:
    """Cache sizes of CPU 0 as the kernel reports them; empty where unreadable."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def fingerprint(versions: dict) -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "caches": cache_sizes(),
            "threads": {k: "1" for k in THREAD_VARS}, **versions}


def percentile(values: list, q: int) -> float:
    """q-th percentile, q in 1..99, by linear interpolation between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def count_gate(runs: list) -> list:
    """Per-op count mismatches: between the same-seed processes (over the first
    block, which all of them ran) and, in a traced run, between the untraced
    and the traced execution of each input."""
    keyed = [{(r["i"], r["traced"]): r.get("counts") for r in run["records"]}
             for run in runs]
    timed = keyed[-1]
    bad = []
    for p, probe in enumerate(keyed[:-1]):
        for key, counts in probe.items():
            if key not in timed or timed[key] != counts:
                bad.append(f"probe {p} op {key}: {counts} != {timed.get(key)}")
    for run in keyed:
        for (i, traced), counts in run.items():
            plain = run.get((i, False))
            if traced and plain is not None and counts is not None and \
                    {k: counts.get(k) for k in plain} != plain:
                bad.append(f"op {i}: traced {counts} != untraced {plain}")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "vws" / "__init__.py").is_file():
        print(f"no vws package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        probes = [run_worker(args, "probe", deadline) for _ in range(PROBES)]
        timed = run_worker(args, "run", deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = [r for _, r in probes] + [timed[1]]
    setups = [s for s, _ in probes] + [timed[0]]
    res = timed[1]
    # An op is one input of the seed's schedule; in a traced run it failed if
    # either of its two executions raised or missed a check.
    attempted = len({r["i"] for r in res["records"]})
    failed = len({r["i"] for r in res["records"] if not r["ok"]})
    setup_failed = sorted({f for r in runs for f in r["setup_failed"]})
    gate = count_gate(runs)
    # An op that misses its oracle is counted in `failed` (and in ops_ok_frac);
    # the run itself is invalid when set-up checks or the count gate fail.
    correct = not setup_failed and not gate

    env = fingerprint(res["versions"])
    print(f"vws benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"manufactured checks: {json.dumps(res['manufactured'])}")
    for r in res["records"]:
        if not r["ok"]:
            print(f"missed op {r['i']}{' (traced)' if r['traced'] else ''}: "
                  f"choice {r['choice']:g}, a={r['a']:.4g}: "
                  f"{r['error'] or r['failed_checks']}")
    for f in setup_failed:
        print(f"FAILED set-up check: {f}")
    for g in gate:
        print(f"FAILED exact-count gate: {g}")
    plain = [r for r in res["records"] if not r["traced"]]
    print(f"  counts/op: {json.dumps(mean_counts(plain))}")

    printed = {"ops_failed_frac": (failed / attempted, "1",
                                   f"{failed}/{attempted} ops attempted")}
    printed.update(trace_metrics(res, runs) if args.trace
                   else end_to_end(res, setups, attempted, failed))
    for name, (value, unit, note) in printed.items():
        print(f"  {name:<34} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in printed.items()
               if name not in PRINTED_ONLY}

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "setups_s": setups, "correct": correct,
                    "gate": gate, "setup_failed": setup_failed,
                    "metrics": {k: v[0] for k, v in printed.items()},
                    "layers": res.get("layers"), "records": res["records"]},
                   indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def end_to_end(res: dict, setups: list, attempted: int, failed: int) -> dict:
    """name -> (value, unit, note) for the untraced run."""
    recs = res["records"]
    times = [r["time"] for r in recs]
    passed = sum(r["ok"] for r in recs)
    p90 = percentile(times, 90)
    ref = [r["ref_s"] for r in recs]
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        "op_ref_mean": (sum(times) / sum(ref), "ref",
                        f"{len(recs)} ops over the reference kernel timed after each "
                        f"(median {statistics.median(ref):.6g} s)"),
        "op_s_p50": (statistics.median(times), "s", f"{len(times)} ops"),
        "op_s_p90": (p90, "s",
                     f"{len(times)} ops, {sum(t > p90 for t in times)} beyond"),
        "ops_per_s": (passed / res["phase_s"], "1/s",
                      f"{passed} passed ops in {res['phase_s']:.2f} s of op time"),
        "ops_ok_frac": ((attempted - failed) / attempted, "1",
                        f"{attempted - failed}/{attempted} ops"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "timed process"),
    }


def trace_metrics(res: dict, runs: list) -> dict:
    """name -> (value, unit, note) for the traced run: per-layer metrics per
    traced op, derivation time, and the tracing overhead on op_s_p50."""
    tr = res["trace"]
    out = {name: (v, u, "") for name, (v, u) in res["per_layer"].items()}
    out["manufactured.derive_s"] = (
        statistics.median(r["derive_s"] for r in runs), "s",
        f"sympy import + derivation, median of {len(runs)} processes")
    out["trace.overhead_s"] = (
        tr["op_s_p50_traced"] - tr["op_s_p50_untraced"], "s",
        f"traced p50 {tr['op_s_p50_traced']:.6g} s - untraced p50 "
        f"{tr['op_s_p50_untraced']:.6g} s, {tr['spans_per_op']:.0f} spans/op")
    return out


def mean_counts(records: list) -> dict:
    totals: dict = {}
    for r in records:
        for k, v in (r.get("counts") or {}).items():
            totals[k] = totals.get(k, 0) + v
    return {k: v / len(records) for k, v in totals.items()}


if __name__ == "__main__":
    sys.exit(main())
