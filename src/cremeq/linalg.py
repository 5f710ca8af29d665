"""Exact linear algebra over the integers.

Everything in this package that solves a linear system does it here, with
one forward pass of Bareiss fraction-free elimination on Python ints
(E. H. Bareiss, Math. Comp. 22, 1968).  Integer matrix products live here
too: gram matrices A^T G A, pullbacks and basis changes are all one
`mat_mul` or `mat_vec`.  No floats anywhere: the certificates downstream are
only worth something if every intermediate value is exact.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul


def mat_vec(a, v) -> tuple[int, ...]:
    """a @ v, for a matrix given as a sequence of rows."""
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """a @ b, for matrices given as sequences of rows.

    Tuples of tuples, so a product can serve directly as the gram matrix of a
    frozen lattice.
    """
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def eliminate(
    rows: list[list[int]], ncols: int | None = None
) -> tuple[list[list[int]], list[int], list[int]]:
    """Bareiss forward elimination, pivoting only in the first ncols columns.

    There is no back-substitution: derived rows stay close to simple pairwise
    differences of the input rows, which keeps infeasibility chains readable.

    Returns (ech, pivots, scales).  ech is in echelon form in its first
    ncols columns and every row is an integer combination of the input rows;
    the columns after ncols (an identity block, say) ride along.  pivots are
    the pivot columns, and row i of ech holds pivots[i] for i < len(pivots).
    ech[i] == scales[i] * (row i of forward rational Gaussian elimination with
    the same pivots).  The division by the previous pivot is exact by
    Sylvester's identity: every entry is a minor of the input.
    """
    work = [list(r) for r in rows]
    m = len(work)
    if ncols is None:
        ncols = len(work[0]) if m else 0
    pivots: list[int] = []
    scales: list[int] = []
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == m:
            break
        pr = next((r for r in range(k, m) if work[r][col] != 0), None)
        if pr is None:
            continue
        work[k], work[pr] = work[pr], work[k]
        top = work[k]
        piv = top[col]
        for r in range(k + 1, m):
            f = work[r][col]
            work[r] = [(piv * a - f * b) // prev for a, b in zip(work[r], top)]
        pivots.append(col)
        scales.append(prev)
        prev = piv
    scales += [prev] * (m - len(pivots))
    return work, pivots, scales


def _last_pivot(ech: list[list[int]], pivots: list[int]) -> int:
    return ech[len(pivots) - 1][pivots[-1]] if pivots else 1


def _back_substitute(ech: list[list[int]], n: int, d: int) -> list[list[int]]:
    """Rows of d * X for U X = B, U the full-rank leading n x n block of ech
    and B the columns after it.  The divisions are exact when d * X is
    integral, which Cramer's rule gives for d the last pivot (+-det).
    """
    xs: list[list[int]] = [[] for _ in range(n)]
    for i in reversed(range(n)):
        row = ech[i]
        acc = [d * b for b in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [a - row[j] * x for a, x in zip(acc, xs[j])]
        xs[i] = [a // row[i] for a in acc]
    return xs


def solve_exact(
    matrix: list[list[int]], rhs: list[int]
) -> tuple[str, list[Fraction] | None]:
    """Solve matrix @ x = rhs exactly.

    Returns ("unique", xs), ("inconsistent", None) or ("underdetermined", None).
    Overdetermined but consistent systems come back "unique".
    """
    n = len(matrix[0]) if matrix else 0
    ech, pivots, _ = eliminate([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == n:
        return "inconsistent", None
    if len(pivots) < n:
        return "underdetermined", None
    d = _last_pivot(ech, pivots)
    return "unique", [Fraction(row[0], d) for row in _back_substitute(ech, n, d)]


def invert_unimodular(matrix: list[list[int]]) -> list[list[int]]:
    """Invert an integer matrix with determinant +-1.

    Raises ValueError otherwise; the inverse of a unimodular matrix is again
    integral, which is exactly what a lattice basis change needs.
    """
    n = len(matrix)
    augmented = [
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)
    ]
    ech, pivots, _ = eliminate(augmented, ncols=n)
    # the last Bareiss pivot is +-det, and 0 below full rank
    d = _last_pivot(ech, pivots) if len(pivots) == n else 0
    if d not in (1, -1):
        raise ValueError(f"matrix is not unimodular (|det| = {abs(d)})")
    # the last pivot d is +-1, so d * A^-1 is integral and A^-1 = d * (d * A^-1)
    return [[d * x for x in row] for row in _back_substitute(ech, n, d)]
