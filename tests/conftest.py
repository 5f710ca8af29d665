import random

import pytest
import sympy
from hypothesis import HealthCheck, settings

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
