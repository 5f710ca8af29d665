"""The benchmark's own answer checks, on a small slice of each workload.

`bench/workloads.py` checks every answer against facts it knows without the
library.  A library change that makes one of those checks fail would lower
the benchmark's ok_share; this runs the same checks in well under a second.
"""

import contextlib
import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("cli", "lattice", "surfaces", "projection", "threefold", "log_kodaira", "feasibility")
SEED = 1


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()
LIB = SimpleNamespace(**{layer: importlib.import_module(f"cremeq.{layer}") for layer in LAYERS})


def no_span(name):
    return contextlib.nullcontext()


def pick(name):
    w = WORKLOADS[name]
    pool = w.build(LIB, random.Random(SEED))
    if name == "dense-rank":
        return [next(c for c in pool if c.rank == rank) for rank in (11, 23)]
    if name == "witness-search":
        # parity systems search the whole box, which is the slow part
        return [c for c in pool if c.kind != "parity"][:24]
    return pool


@pytest.mark.parametrize("name", ["builtins", "dense-rank", "witness-search"])
def test_workload_answers_pass_their_checks(name):
    w = WORKLOADS[name]
    for item in pick(name):
        ok, _ = w.check(item, w.run(LIB, item, no_span))
        assert ok, (name, w.tag(item), item)
