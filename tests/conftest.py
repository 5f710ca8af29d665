import contextlib
import functools
import importlib
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, settings

from cremeq.feasibility import ChainLine, FeasibilitySystem
from cremeq.surfaces import make_bordiga, make_dp6, make_f0_sextic, make_sz

# keep the whole suite inside the runtime budget; the heavyweight randomized
# coverage lives in test_acceptance.py with its own seeded loops
settings.register_profile(
    "fast",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture
def f0():
    return make_f0_sextic()


@pytest.fixture
def bordiga():
    return make_bordiga()


@pytest.fixture
def dp6():
    return make_dp6()


@pytest.fixture
def sz():
    return make_sz()


@pytest.fixture
def rng():
    return random.Random(991)


def random_symmetric_gram(rng: random.Random, n: int, span: int = 4):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(-span, span)
    return tuple(tuple(row) for row in g)


def random_unimodular(rng: random.Random, n: int):
    """Row-shuffled product of unit lower and unit upper triangular matrices."""
    def unit_triangular(below):
        return sympy.Matrix(
            n, n, lambda i, j: 1 if i == j else rng.randint(-2, 2) if (j < i) == below else 0
        )

    rows = (unit_triangular(True) * unit_triangular(False)).tolist()
    rng.shuffle(rows)
    return [[int(v) for v in row] for row in rows]


def box_has_solution(system: FeasibilitySystem, bound: int) -> bool:
    """Brute-force oracle: enumerate the whole box with numpy, no pruning.

    Deliberately shares no code with the solver's interval-pruned search.
    """
    n = len(system.unknowns)
    if n == 0:
        return all(eq.rhs == 0 for eq in system.equations)
    grids = np.indices((bound + 1,) * n).reshape(n, -1).astype(np.int64)
    ok = np.ones(grids.shape[1], dtype=bool)
    for eq in system.equations:
        lhs = np.zeros(grids.shape[1], dtype=np.int64)
        for coeff, row in zip(eq.coeffs, grids):
            lhs += coeff * row
        ok &= lhs == eq.rhs
    return bool(ok.any())


def rebuild_chain(d: dict) -> tuple[FeasibilitySystem, tuple[ChainLine, ...]]:
    """The system and chain of a certificate's JSON form, ready to replay."""
    system = FeasibilitySystem.from_json_dict(d["system"])
    chain = tuple(
        ChainLine(
            line_id=e["id"],
            coeffs=tuple(e["coeffs"]),
            rhs=e["rhs"],
            combination=tuple((r, m) for r, m in e.get("combination", [])),
            source=e.get("source"),
            variable=e.get("variable"),
        )
        for e in d["chain"]
    )
    return system, chain


ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
BENCH_LAYERS = (
    "cli", "lattice", "surfaces", "projection", "threefold", "log_kodaira", "feasibility",
)
BENCH_SEED = 1


@functools.cache
def load_workloads():
    """The benchmark's workloads, from `bench/workloads.py`, loaded once."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


# the library as a workload sees it: one attribute per layer module
BENCH_LIB = SimpleNamespace(
    **{layer: importlib.import_module(f"cremeq.{layer}") for layer in BENCH_LAYERS}
)


def no_span(name):
    return contextlib.nullcontext()


def pick(name):
    """A small slice of one workload's seeded pool, built from scratch."""
    pool = load_workloads()[name].build(BENCH_LIB, random.Random(BENCH_SEED))
    if name == "dense-rank":
        return [next(c for c in pool if c.rank == rank) for rank in (11, 23)]
    if name == "witness-search":
        # parity systems search the whole box, which is the slow part
        return [c for c in pool if c.kind != "parity"][:24]
    return pool


def load_script(name):
    """A script under `scripts/`, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
