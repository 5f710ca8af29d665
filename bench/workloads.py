"""Seeded workloads for the cremeq benchmark.

A workload builds its whole input pool from the seed during set-up
(`build`), runs one operation per pool item (`run`, the timed part) and checks
every answer (`check`, untimed) against facts the benchmark knows without the
library: the pinned PASS lines, a closed-form double point class, a planted
witness.  `check` returns (ok, decided); decided is False for an answer of
UNKNOWN_UP_TO_BOUND or INCONCLUSIVE.

Library functions are always looked up on their module at call time
(`lib.lattice.change_basis`), so the tracer's wrappers apply once installed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

BUILTIN_NAMES = ("sextic-ruled", "bordiga", "dp6", "family-open", "family-closed")


class Builtins:
    """One operation is one in-process `cremeq check-all` pass."""

    name = "builtins"

    def build(self, lib, rng: random.Random) -> list:
        return [None]

    def tag(self, item) -> None:
        return None

    def run(self, lib, item, span):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lib.cli.main(["check-all"])
        return rc, out.getvalue()

    def check(self, item, result) -> tuple[bool, bool]:
        rc, text = result
        ok = rc == 0 and sorted(text.splitlines()) == sorted(
            f"{name}: PASS" for name in BUILTIN_NAMES
        )
        # every built-in pins a decisive verdict, so a PASS line is a decided one
        return ok, ok


# Bl_n P^2 with polarization (d, -1, ..., -1) has rank n + 1.  The largest
# rank appears RANK_BLOCKS >= 11 times in the pool, so that op_tail_ms (the
# 11th slowest operation) stays inside the largest-rank group.
RANKS = (11, 14, 17, 20, 23)
# One degree for every case: mixing degrees spreads the cost of cases of one
# rank, and op_p50_ms sits in the middle rank group.  Every rank here has a
# positive, integral double point class at d = 7.
DEGREE = 7
RANK_BLOCKS = 12  # distinct random bases per rank in the pool


@dataclass(frozen=True)
class RankCase:
    rank: int
    d: int
    surface: object  # PolarizedSurface in the standard basis
    new_basis: tuple[tuple[int, ...], ...]  # columns of a unimodular matrix
    exceptionals: tuple  # E_1..E_n in the standard basis
    gamma_w: tuple[int, ...]  # closed-form double point class, standard basis
    st: int
    kt: int
    deg_s: int
    deg_gamma: int


def _unimodular(rng: random.Random, m: int) -> list[list[int]]:
    """Row-permuted product of unit lower and unit upper triangular matrices."""
    lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(m)]
             for i in range(m)]
    upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(m)]
             for i in range(m)]
    a = [[sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m)]
         for i in range(m)]
    rng.shuffle(a)
    return a


def _rank_case(lib, rng: random.Random, rank: int, d: int) -> RankCase:
    n = rank - 1
    surface = lib.surfaces.make_blowup_plane(n, (d,) + (-1,) * n)
    a = _unimodular(rng, rank)
    # closed forms: E_i is a line with k = d^2 - n - 3 double points, and
    # pairing the class with H and every E_i pins it down
    deg_s = d * d - n
    deg_gamma = (deg_s - 1) * (deg_s - 2) // 2 - (d - 1) * (d - 2) // 2
    k = d * d - n - 3
    head, rem = divmod(2 * deg_gamma + n * k, d)
    if deg_gamma <= 0 or rem:
        raise ValueError(f"(n={n}, d={d}) has no integral positive double curve")
    return RankCase(
        rank=rank,
        d=d,
        surface=surface,
        new_basis=tuple(tuple(row[j] for row in a) for j in range(rank)),
        exceptionals=tuple(
            surface.lattice(tuple(int(i == j) for i in range(rank)))
            for j in range(1, rank)
        ),
        gamma_w=(head,) + (-k,) * n,
        st=deg_s - 2 * k,
        kt=-4 + k,
        deg_s=deg_s,
        deg_gamma=deg_gamma,
    )


class DenseRank:
    """One operation: re-present Bl_n P^2 in a random basis and project it."""

    name = "dense-rank"

    def build(self, lib, rng: random.Random) -> list:
        pool = [
            _rank_case(lib, rng, rank, DEGREE)
            for _ in range(RANK_BLOCKS)
            for rank in RANKS
        ]
        rng.shuffle(pool)
        return pool

    def tag(self, case: RankCase) -> str:
        return f"r{case.rank}"

    def run(self, lib, case: RankCase, span):
        labels = tuple(f"B{j}" for j in range(case.rank))
        bc = lib.lattice.change_basis(case.surface.lattice, list(case.new_basis), labels)
        with span("surfaces.build"):
            surface = lib.surfaces.PolarizedSurface(
                lattice=bc.new,
                polarization=bc.to_new(case.surface.polarization),
                name=f"rebased_rank_{case.rank}",
            )
        lines = [bc.to_new(e) for e in case.exceptionals]
        model = lib.projection.project_to_p3(surface, lines)
        t = lib.threefold.BlowupThreefold(model)
        st = {lib.threefold.st_dot(t, c) for c in lines}
        kt = {lib.threefold.kt_dot(t, c) for c in lines}
        nef = lib.threefold.is_nef_on(t, lines)
        cert = lib.log_kodaira.negativity_certificate(model.deg_s, model.deg_gamma)
        return bc.to_old(model.gamma_w).coeffs, st, kt, nef, model, cert

    def check(self, case: RankCase, result) -> tuple[bool, bool]:
        gamma_old, st, kt, nef, model, cert = result
        verdict = "NEGATIVE_CERTIFIED" if case.deg_s < case.deg_gamma else "INCONCLUSIVE"
        ok = (
            gamma_old == case.gamma_w
            and (model.deg_s, model.deg_gamma) == (case.deg_s, case.deg_gamma)
            and st == {case.st}
            and kt == {case.kt}
            and nef == (case.st >= 0)
            and cert.verdict == verdict
        )
        return ok, cert.verdict == "NEGATIVE_CERTIFIED"


# Systems of each kind per bound in one block.  Parity systems take nearly
# all the time; keeping them to 1/6 of the pool puts the median operation
# inside the dense lower half of the cheap kinds' cost distribution, where
# it is steady from seed to seed.
KINDS = {"planted": 5, "parity": 2, "random_rhs": 5}
BOUNDS = (5, 6, 7)
WITNESS_BLOCKS = 32
UNKNOWNS = tuple(f"x{i}" for i in range(1, 7))


@dataclass(frozen=True)
class WitnessCase:
    kind: str
    bound: int
    system: object  # FeasibilitySystem


def _mixed_row(rng: random.Random) -> list[int]:
    while True:
        row = [rng.randint(-3, 3) for _ in UNKNOWNS]
        if min(row) < 0 < max(row):
            return row


def _witness_rows(rng: random.Random, kind: str, bound: int):
    if kind == "planted":
        rows = [_mixed_row(rng), _mixed_row(rng)]
        w = [rng.randint(0, bound) for _ in UNKNOWNS]
        return rows, [sum(c * x for c, x in zip(row, w)) for row in rows]
    if kind == "random_rhs":
        return [_mixed_row(rng), _mixed_row(rng)], [
            rng.randint(-2 * bound, 2 * bound) for _ in range(2)
        ]
    # parity: row 1 is even with an odd right side.  Both rows hold at
    # x = u / 2 with every u_i in [bound - 1, bound + 1], a point in the
    # interior of the box, so no sign argument can refute the system and the
    # solver has to search the whole box.  Fixed coefficient magnitudes and a
    # central rational point keep the search cost alike from system to system.
    while True:
        even = [rng.choice((-2, 2)) for _ in UNKNOWNS]
        mags = [1, 1, 2, 2, 3, 3]
        rng.shuffle(mags)
        other = [m * rng.choice((-1, 1)) for m in mags]
        if not (min(even) < 0 < max(even) and min(other) < 0 < max(other)):
            continue
        u = [rng.randint(bound - 1, bound + 1) for _ in UNKNOWNS]
        s_even = sum(c * x for c, x in zip(even, u))
        s_other = sum(c * x for c, x in zip(other, u))
        if (s_even // 2) % 2 == 1 and s_other % 2 == 0:
            return [even, other], [s_even // 2, s_other // 2]


class WitnessSearch:
    """One operation: one solve_nonneg call, plus replay_chain on INFEASIBLE."""

    name = "witness-search"

    def build(self, lib, rng: random.Random) -> list:
        f = lib.feasibility
        pool = []
        for _ in range(WITNESS_BLOCKS):
            for kind, count in KINDS.items():
                for bound in BOUNDS:
                    for _ in range(count):
                        rows, rhs = _witness_rows(rng, kind, bound)
                        system = f.FeasibilitySystem(
                            unknowns=UNKNOWNS,
                            equations=tuple(
                                f.LinearEquation(tuple(r), b) for r, b in zip(rows, rhs)
                            ),
                        )
                        pool.append(WitnessCase(kind, bound, system))
        rng.shuffle(pool)
        return pool

    def tag(self, case: WitnessCase) -> str:
        return f"b{case.bound}"

    def run(self, lib, case: WitnessCase, span):
        cert = lib.feasibility.solve_nonneg(case.system, bound=case.bound)
        if cert.status == "INFEASIBLE":
            lib.feasibility.replay_chain(case.system, cert.chain)
        return cert

    def check(self, case: WitnessCase, cert) -> tuple[bool, bool]:
        ok = cert.status in ("FEASIBLE", "INFEASIBLE", "UNKNOWN_UP_TO_BOUND")
        if cert.status == "FEASIBLE":
            w = cert.witness
            ok = (
                len(w) == len(UNKNOWNS)
                and all(0 <= x <= case.bound for x in w)
                and all(
                    sum(c * x for c, x in zip(eq.coeffs, w)) == eq.rhs
                    for eq in case.system.equations
                )
            )
        elif cert.status == "UNKNOWN_UP_TO_BOUND":
            ok = cert.bound == case.bound
        if case.kind == "planted":
            ok = ok and cert.status == "FEASIBLE"
        if case.kind == "parity":
            ok = ok and cert.status != "FEASIBLE"
        return ok, cert.status in ("FEASIBLE", "INFEASIBLE")


WORKLOADS = {w.name: w for w in (Builtins(), DenseRank(), WitnessSearch())}
