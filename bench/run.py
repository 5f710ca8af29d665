#!/usr/bin/env python3
"""Benchmark for cremeq.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the workload's inputs from the
seed, then runs operations in a closed loop (one process, one caller, one
thread) in whole passes over the input pool, up to the pass boundary nearest
--seconds, and checks every answer.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json.  With --trace 1 the run measures half its time untraced and
half with a span around every call into a cremeq layer; the metrics are the
per-layer ones, and the difference between the halves is the tracing
overhead.  Earlier lines give the environment and the details behind each
number; the same record, and the spans, go to .bench_out/ in the checkout.
bench/DESIGN.md says why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import tracer as tracing
from workloads import BOUNDS, RANKS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Timings are taken per window of whole passes and reported as the median
# over windows.  A window is one pass, or, for a pool too small to hold a
# tail, enough passes for WINDOW_OPS operations: a few seconds, so that a
# window spans several of the shared machine's fast and slow spells.
WINDOW_OPS = 500
SMALL_POOL = 50


def import_cremeq() -> SimpleNamespace:
    """Import cremeq afresh from this checkout's src/ and return its layers."""
    for name in [n for n in sys.modules if n == "cremeq" or n.startswith("cremeq.")]:
        del sys.modules[name]
    pkg = importlib.import_module("cremeq")
    if Path(pkg.__file__).resolve().parent != SRC / "cremeq":
        raise ImportError(f"cremeq came from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"cremeq.{layer}") for layer in tracing.LAYERS}
    )


def set_up(workload, seed: int):
    """Import plus input generation, repeated; the last repetition is kept.

    The first import also loads the standard-library modules cremeq needs;
    later ones re-execute only cremeq's own modules.  An untraced run calls
    this again after measuring, so that the median spans the whole run.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter_ns()
        lib = import_cremeq()
        pool = workload.build(lib, random.Random(seed))
        times.append((perf_counter_ns() - start) / 1e9)
    return lib, pool, times


def attempt(workload, lib, item, trace):
    """Run and check one operation: (duration ns, ok, decided, error text)."""
    span = trace.span if trace else (lambda name: contextlib.nullcontext())
    root = trace.span(tracing.ROOT, workload.tag(item)) if trace else contextlib.nullcontext()
    start = perf_counter_ns()
    try:
        with root:
            result = workload.run(lib, item, span)
    except Exception:
        return perf_counter_ns() - start, False, False, traceback.format_exc()
    duration = perf_counter_ns() - start
    try:
        ok, decided = workload.check(item, result)
    except Exception:
        return duration, False, False, traceback.format_exc()
    return duration, ok, decided, None if ok else f"output check failed: {item!r:.500}"


def measure(workload, lib, pool, seconds: float, trace=None) -> dict:
    """Whole passes over the pool, stopping at the pass boundary nearest `seconds`."""
    gc.collect()
    passes, errors = [], []
    decided = 0
    start = perf_counter_ns()
    while True:
        pass_start = perf_counter_ns()
        durations = []
        for item in pool:
            ns, ok, dec, error = attempt(workload, lib, item, trace)
            durations.append(ns)
            if not passes:
                decided += dec
            if error:
                errors.append(error)
        now = perf_counter_ns()
        passes.append((durations, now - pass_start))
        if now - start + (now - pass_start) / 2 >= seconds * 1e9:
            break
    return {
        "passes": passes,
        "errors": errors,
        "decided": decided,
        "pool": len(pool),
        "elapsed_s": (perf_counter_ns() - start) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ops(run: dict) -> int:
    return sum(len(ds) for ds, _ in run["passes"])


def mean_op_ns(run: dict) -> float:
    return sum(sum(ds) for ds, _ in run["passes"]) / ops(run)


def windows(run: dict) -> list[tuple[list[int], int]]:
    """Group whole passes into windows of (durations, wall ns)."""
    pool = run["pool"]
    k = 1 if pool >= SMALL_POOL else -(-WINDOW_OPS // pool)
    groups = [run["passes"][i:i + k] for i in range(0, len(run["passes"]), k)]
    if len(groups) > 1 and len(groups[-1]) < k:
        groups.pop()  # an incomplete last window would hold a different mix
    return [([d for ds, _ in g for d in ds], sum(ns for _, ns in g)) for g in groups]


def end_to_end(run: dict, setup_times: list[float]) -> tuple[dict, str]:
    wins = windows(run)
    size = len(wins[0][0])
    at = max(size - TAIL_BEYOND - 1, 0)
    n = ops(run)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": statistics.median(statistics.median(ds) for ds, _ in wins) / 1e6,
        "op_tail_ms": statistics.median(sorted(ds)[at] for ds, _ in wins) / 1e6,
        "ops_per_s": statistics.median(len(ds) / ns for ds, ns in wins) * 1e9,
        "ok_share": (n - len(run["errors"])) / n,
        "decided_share": run["decided"] / run["pool"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    note = (f"timings are medians over {len(wins)} windows of {size} operations; "
            f"op_tail_ms is p{100 * (at + 1) / size:.2f} ({size - at - 1} samples "
            f"beyond it); {n} operations, {len(run['passes'])} passes in "
            f"{run['elapsed_s']:.2f} s")
    return metrics, note


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata in this checkout)"


def environment() -> dict:
    return {
        "git_revision": git_revision(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load": "one process, one caller, one thread, closed loop",
        "note": "the machine is shared with other tenants; timings include their load",
    }


def emit(kind: str, values: dict) -> dict:
    """Match computed metrics to BENCHMARK.json's list, adding units."""
    spec = json.loads(SPEC.read_text())[kind]
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cremeq" / "__init__.py").is_file():
        print(f"error: no cremeq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    lib, pool, setup_times = set_up(workload, args.seed)

    record = {"args": vars(args), "environment": environment()}
    mix = Counter(workload.tag(item) for item in pool)
    kinds = Counter(item.kind for item in pool if hasattr(item, "kind"))
    print(f"# cremeq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(record["environment"]))
    print(f"# pool: {len(pool)} operations per pass; sizes {dict(mix)}; kinds {dict(kinds)}")
    OUT.mkdir(exist_ok=True)

    if args.trace:
        half = args.seconds / 2
        plain = measure(workload, lib, pool, half)
        trace = tracing.Tracer()
        wrapped = tracing.install(trace)
        traced = measure(workload, lib, pool, half, trace)
        plain_e2e, _ = end_to_end(plain, setup_times)
        traced_e2e, note = end_to_end(traced, setup_times)
        values = tracing.layer_metrics(trace, RANKS, BOUNDS)
        values["trace.overhead_ms"] = (mean_op_ns(traced) - mean_op_ns(plain)) / 1e6
        print(f"# tracing: {wrapped} functions wrapped, {len(trace.spans)} spans; {note}")
        for name in ("op_p50_ms", "op_tail_ms", "ops_per_s"):
            print(f"# overhead {name}: traced {traced_e2e[name]:.6g} - untraced "
                  f"{plain_e2e[name]:.6g} = {traced_e2e[name] - plain_e2e[name]:.6g}")
        metrics = emit("per_layer", values)
        errors = plain["errors"] + traced["errors"]
        attempted = ops(plain) + ops(traced)
        trace.write(OUT / f"spans-{args.workload}.jsonl.gz")
    else:
        run = measure(workload, lib, pool, args.seconds)
        setup_times += set_up(workload, args.seed)[2]
        print("# set-up times (s): " + ", ".join(f"{t:.6f}" for t in setup_times))
        values, note = end_to_end(run, setup_times)
        print(f"# {note}")
        metrics = emit("end_to_end", values)
        errors = run["errors"]
        attempted = ops(run)

    for name, m in metrics.items():
        print(f"{name:52s} {m['value']:>16.6f} {m['unit']}")
    for error in errors[:3]:
        print(error, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    record["result"] = result
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
