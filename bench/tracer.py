"""Spans around calls into cremeq's public functions, installed from outside.

The library binds names with `from .x import y`, so `install` wraps a public
function at every module that holds it (and in module-level dicts such as
`scenarios.SURFACE_BUILDERS`), not only where it is defined.  Only the traced
part of a `--trace 1` run installs the wrappers.

A span is (id, parent id, operation id, name, start ns, end ns, outcome,
chain lines).  Spans stay in memory until `write` puts them, gzipped JSON
lines, to a file at the end of the run.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import sys
import types
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "linalg", "lattice", "surfaces", "projection", "threefold", "log_kodaira",
    "feasibility", "family_checks", "scenarios", "cli",
)
ROOT = "bench.op"
RENAMES = {
    "cli.main": "cli.check_all",
    "scenarios.builtin_scenario": "scenarios.load",
    "surfaces.make_f0_sextic": "surfaces.build",
    "surfaces.make_bordiga": "surfaces.build",
    "surfaces.make_dp6": "surfaces.build",
    "surfaces.make_blowup_plane": "surfaces.build",
    "surfaces.make_sz": "surfaces.build",
}
# pair runs rank^2 times per basis change: a span for each would swamp the
# trace, so it is only counted and its time stays in the caller's self time
COUNT_ONLY = {"lattice.pair"}
SIZED = ("linalg.solve_exact", "linalg.determinant", "linalg.invert_unimodular",
         "linalg.echelon_with_transform", "lattice.change_basis")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_tags: dict[int, str | None] = {}
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op: int | None = None

    @contextlib.contextmanager
    def span(self, name, tag=None):
        """A span; the caller may set the yielded [outcome, chain lines].

        A span without a parent is the root of one operation: its id is the
        operation id, and `tag` labels the operation's size for breakdowns.
        """
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._op = sid
            self.op_tags[sid] = tag
        self._stack.append(sid)
        info = [None, 0]
        start = perf_counter_ns()
        try:
            yield info
        except BaseException:
            info[0] = "raised"
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self._op, name, start, end, *info))

    def call(self, name, fn, args, kwargs):
        with self.span(name) as info:
            result = fn(*args, **kwargs)
            status = getattr(result, "status", None)
            info[:] = [status if isinstance(status, str) else None,
                       len(getattr(result, "chain", ()))]
        return result

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "outcome", "chain_lines")
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _wrapper(tracer: Tracer, name: str, fn):
    if name in COUNT_ONLY:
        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return functools.update_wrapper(counted, fn)

    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return functools.update_wrapper(traced, fn)


def install(tracer: Tracer) -> int:
    """Wrap every public function of every layer module; returns how many."""
    mods = [m for n, m in list(sys.modules.items())
            if n == "cremeq" or n.startswith("cremeq.")]
    wrappers = {}
    for m in mods:
        layer = m.__name__.rpartition(".")[2]
        if layer not in LAYERS:
            continue
        for attr, val in vars(m).items():
            if inspect.isfunction(val) and val.__module__ == m.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrappers[val] = _wrapper(tracer, RENAMES.get(name, name), val)
    for m in mods:
        for attr, val in list(vars(m).items()):
            if isinstance(val, types.FunctionType) and val in wrappers:
                setattr(m, attr, wrappers[val])
            elif isinstance(val, dict):
                for key, v in list(val.items()):
                    if isinstance(v, types.FunctionType) and v in wrappers:
                        val[key] = wrappers[v]
    return len(wrappers)


def layer_metrics(tracer: Tracer, ranks, bounds) -> dict[str, float]:
    """Per-operation layer metrics; busy is inclusive, self excludes children."""
    name_of = {s[0]: s[3] for s in tracer.spans}
    child_ns: Counter = Counter()
    for sid, parent, _op, _name, start, end, _out, _lines in tracer.spans:
        if parent is not None:
            child_ns[parent] += end - start
    busy: Counter = Counter()
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    layer_busy: Counter = Counter()
    failed: Counter = Counter()
    status_calls: Counter = Counter()
    status_ns: Counter = Counter()
    by_tag: Counter = Counter()
    sn = "feasibility.solve_nonneg"
    chain_lines = 0
    for sid, parent, op, name, start, end, outcome, lines in tracer.spans:
        dur = end - start
        busy[name] += dur
        self_ns[name] += dur - child_ns[sid]
        calls[name] += 1
        layer = name.partition(".")[0]
        if parent is None or name_of[parent].partition(".")[0] != layer:
            layer_busy[layer] += dur
        if outcome == "raised":
            failed[name] += 1
        elif outcome is not None:
            status_calls[name, outcome] += 1
            status_ns[name, outcome] += dur
        by_tag[name, tracer.op_tags.get(op)] += dur
        if name == sn:
            chain_lines += lines
    ops = calls[ROOT]
    ops_by_tag = Counter(tracer.op_tags.values())
    ms = 1e-6 / ops
    m = {
        "linalg.solve_exact.calls": calls["linalg.solve_exact"] / ops,
        "linalg.solve_exact.busy_ms": busy["linalg.solve_exact"] * ms,
        "linalg.determinant.busy_ms": busy["linalg.determinant"] * ms,
        "linalg.invert_unimodular.busy_ms": busy["linalg.invert_unimodular"] * ms,
        "linalg.invert_unimodular.self_ms": self_ns["linalg.invert_unimodular"] * ms,
        "linalg.echelon_with_transform.calls": calls["linalg.echelon_with_transform"] / ops,
        "linalg.echelon_with_transform.busy_ms": busy["linalg.echelon_with_transform"] * ms,
        "lattice.change_basis.busy_ms": busy["lattice.change_basis"] * ms,
        "lattice.change_basis.self_ms": self_ns["lattice.change_basis"] * ms,
        "lattice.pair.calls": tracer.counts["lattice.pair"] / ops,
        "surfaces.build.busy_ms": busy["surfaces.build"] * ms,
        "projection.project_to_p3.busy_ms": busy["projection.project_to_p3"] * ms,
        "projection.project_to_p3.self_ms": self_ns["projection.project_to_p3"] * ms,
        "projection.project_to_p3.failed": failed["projection.project_to_p3"] / ops,
        "threefold.busy_ms": layer_busy["threefold"] * ms,
        "log_kodaira.busy_ms": layer_busy["log_kodaira"] * ms,
        "family_checks.busy_ms": layer_busy["family_checks"] * ms,
        f"{sn}.calls": calls[sn] / ops,
        f"{sn}.busy_ms": busy[sn] * ms,
        f"{sn}.self_ms": self_ns[sn] * ms,
        "feasibility.decided_ratio": (
            (status_calls[sn, "FEASIBLE"] + status_calls[sn, "INFEASIBLE"]) / calls[sn]
            if calls[sn] else 0.0
        ),
        "feasibility.chain_lines": chain_lines / ops,
        "feasibility.replay_chain.busy_ms": busy["feasibility.replay_chain"] * ms,
        "scenarios.load.busy_ms": busy["scenarios.load"] * ms,
        "scenarios.run_scenario.busy_ms": busy["scenarios.run_scenario"] * ms,
        "scenarios.run_scenario.self_ms": self_ns["scenarios.run_scenario"] * ms,
        "cli.check_all.busy_ms": busy["cli.check_all"] * ms,
        "cli.check_all.self_ms": self_ns["cli.check_all"] * ms,
    }
    for status in ("FEASIBLE", "INFEASIBLE", "UNKNOWN_UP_TO_BOUND"):
        m[f"{sn}.busy_ms.{status}"] = status_ns[sn, status] * ms
    for rank in ranks:
        n = ops_by_tag[f"r{rank}"]
        for base in SIZED:
            m[f"{base}.busy_ms.r{rank}"] = by_tag[base, f"r{rank}"] * 1e-6 / n if n else 0.0
    for bound in bounds:
        n = ops_by_tag[f"b{bound}"]
        m[f"{sn}.busy_ms.b{bound}"] = by_tag[sn, f"b{bound}"] * 1e-6 / n if n else 0.0
    layers_self = sum(self_ns[name] for name in self_ns if name != ROOT)
    m["trace.op_ms"] = busy[ROOT] * ms
    m["trace.layers_self_ms"] = layers_self * ms
    m["trace.attributed_share"] = layers_self / busy[ROOT]
    return m
