import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_unimodular
from cremeq.linalg import eliminate, invert_unimodular, mat_mul, mat_vec, solve_exact


def with_identity(rows):
    m = len(rows)
    return [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]


def rational_forward(rows, ncols):
    """Forward Gaussian elimination over Fractions, pivots in the first ncols."""
    work = [[Fraction(v) for v in row] for row in rows]
    k = 0
    for col in range(ncols):
        pr = next((r for r in range(k, len(work)) if work[r][col] != 0), None)
        if pr is None:
            continue
        work[k], work[pr] = work[pr], work[k]
        for r in range(k + 1, len(work)):
            f = work[r][col] / work[k][col]
            work[r] = [a - f * b for a, b in zip(work[r], work[k])]
        k += 1
    return work


def test_echelon_transform_reproduces_rows():
    rows = [[2, 1, 3], [4, 2, 7], [0, 1, 1]]
    ech, _, _ = eliminate(with_identity(rows), ncols=3)
    for i in range(3):
        T = ech[i][3:]
        recon = [sum(T[j] * rows[j][k] for j in range(3)) for k in range(3)]
        assert recon == ech[i][:3]


def test_echelon_is_forward_only():
    # the second row keeps its dependence on the first: no back-substitution
    rows = [[1, 1, 0], [0, 1, 5]]
    ech, pivots, scales = eliminate(with_identity(rows), ncols=3)
    assert ech[0][:3] == [1, 1, 0]
    assert ech[1][:3] == [0, 1, 5]
    assert ech[0][3:] == [1, 0]
    assert (pivots, scales) == ([0, 1], [1, 1])


def test_echelon_empty():
    assert eliminate([]) == ([], [], [])


@example([[1, 0, 0], [1, 0, 0], [1, 0, 0]])
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_echelon_transform_invariant(rows):
    m = len(rows)
    ech, pivots, scales = eliminate(with_identity(rows), ncols=3)
    for i in range(m):
        T = ech[i][3:]
        recon = [sum(T[j] * rows[j][k] for j in range(m)) for k in range(3)]
        assert recon == ech[i][:3]
    # leading entries move strictly right among the nonzero rows
    leads = []
    for row in ech:
        lead = next((j for j, v in enumerate(row[:3]) if v != 0), None)
        if lead is not None:
            leads.append(lead)
    assert leads == sorted(leads) and len(set(leads)) == len(leads)
    assert leads == pivots
    # each integer row is its rational counterpart times the recorded scale
    for row, rat, scale in zip(ech, rational_forward(with_identity(rows), 3), scales):
        assert row == [scale * v for v in rat]


def test_solve_exact_unique():
    status, xs = solve_exact([[2, 0], [0, 3]], [4, 9])
    assert status == "unique"
    assert xs == [Fraction(2), Fraction(3)]


def test_solve_exact_overdetermined_consistent_is_unique():
    status, xs = solve_exact([[1, 0], [0, 1], [1, 1]], [1, 2, 3])
    assert status == "unique"
    assert xs == [Fraction(1), Fraction(2)]


def test_solve_exact_inconsistent():
    status, xs = solve_exact([[1, 1], [2, 2]], [1, 3])
    assert status == "inconsistent" and xs is None


def test_solve_exact_underdetermined():
    status, xs = solve_exact([[1, 1]], [1])
    assert status == "underdetermined" and xs is None


def test_solve_exact_fractional_solution():
    status, xs = solve_exact([[2]], [1])
    assert status == "unique" and xs == [Fraction(1, 2)]


def test_invert_unimodular():
    inv = invert_unimodular([[1, 1], [0, 1]])
    assert inv == [[1, -1], [0, 1]]


def test_invert_unimodular_rejects_det_2():
    with pytest.raises(ValueError, match="unimodular"):
        invert_unimodular([[2, 0], [0, 1]])


@pytest.mark.parametrize("n", range(1, 13))
def test_determinant_and_inverse_match_sympy(n):
    rng = random.Random(1000 + n)
    for _ in range(3):
        a = random_unimodular(rng, n)
        oracle = sympy.Matrix(a)
        assert sympy.Matrix(invert_unimodular(a)) == oracle.inv()
        b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        det = sympy.Matrix(b).det()
        if abs(det) == 1:
            assert sympy.Matrix(invert_unimodular(b)) == sympy.Matrix(b).inv()
        else:
            with pytest.raises(ValueError, match=rf"\(\|det\| = {abs(det)}\)"):
                invert_unimodular(b)
        assert sympy.Matrix(mat_mul(a, b)) == oracle * sympy.Matrix(b)
        wide = [row + [rng.randint(-4, 4)] for row in b]
        assert sympy.Matrix(mat_mul(a, wide)) == oracle * sympy.Matrix(wide)
        assert sympy.Matrix(mat_vec(a, b[0])) == oracle * sympy.Matrix(b[0])
