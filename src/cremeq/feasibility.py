"""Nonnegative-integer linear feasibility with replayable certificates.

The question is always the same shape: does an integer linear system
A x = b admit a solution with every unknown >= 0?  The solver answers with a
certificate rather than a bare verdict:

* INFEASIBLE comes with a derivation chain.  Every chain line is either an
  integer combination of earlier lines (originals included) or a forced
  vanishing x = 0, justified by an earlier line whose left side has only
  nonnegative coefficients and whose right side is zero.  The last line has
  nonnegative coefficients and a negative right side, which no nonnegative
  assignment can satisfy.  replay_chain re-checks all of this mechanically.
* FEASIBLE comes with a witness, re-verified on construction.
* UNKNOWN_UP_TO_BOUND records that sign analysis concluded nothing and no
  witness exists with entries up to the bound.  Deciding beyond that honestly
  would need integer-programming machinery this package deliberately avoids.

Sign analysis keeps one store of lines, the originals first, each with the
integer combination of earlier lines it equals.  A round substitutes the
forced zeros into every line once, and orients each line whose coefficients
share a sign so that they read nonnegative.  The first line that then equates
them to a negative constant ends the chain.  Failing that, the first that
equates them to zero forces its unknowns to vanish, and the next round
substitutes them.  Failing both, Bareiss integer elimination of the
substituted lines (forward only, each derived row divided down to the
primitive multiple of its rational echelon row) adds its new rows to the
store.  That is enough for the rank-3 systems in six unknowns this package
cares about, and for plenty more.

build_obstruction_system encodes the restriction bookkeeping that obstructs
moving a sextic ruled surface to a plane: on the two-blowdown lattice of
make_sz() the hyperplane pullbacks from the surface side and from the plane
side decompose against the same restriction class, and eliminating it leaves
three equations in six nonnegative multiplicities.  The left side is read off
the two blow-downs once, at import; the builder takes only the projection
model of the quadric.
"""

from __future__ import annotations

from math import gcd
from operator import index

from ._record import Record, set_field
from .lattice import LatticeMismatchError
from .linalg import eliminate, invert_unimodular, mat_mul, mat_vec
from .projection import DOUBLE_LOCUS_MULTIPLICITY, ProjectionModel
from .surfaces import make_sz


def _render_terms(pairs: list[tuple[str, int]]) -> str:
    if not pairs:
        return "0"
    out = ""
    for i, (name, c) in enumerate(pairs):
        mag = abs(c)
        term = name if mag == 1 else f"{mag}*{name}"
        if i == 0:
            out = term if c > 0 else f"-{term}"
        else:
            out += f" + {term}" if c > 0 else f" - {term}"
    return out


class LinearEquation(Record):
    def __init__(self, coeffs: tuple[int, ...], rhs: int) -> None:
        set_field(self, "coeffs", coeffs)
        set_field(self, "rhs", rhs)

    def render(self, names: tuple[str, ...]) -> str:
        pairs = [(n, c) for n, c in zip(names, self.coeffs) if c != 0]
        return f"{_render_terms(pairs)} = {self.rhs}"


class FeasibilitySystem(Record):
    def __init__(
        self, unknowns: tuple[str, ...], equations: tuple[LinearEquation, ...]
    ) -> None:
        if len(set(unknowns)) != len(unknowns):
            raise ValueError("unknown names must be distinct")
        for eq in equations:
            if len(eq.coeffs) != len(unknowns):
                raise ValueError("equation width does not match unknown count")
        set_field(self, "unknowns", unknowns)
        set_field(self, "equations", equations)

    def to_json_dict(self) -> dict:
        return {
            "unknowns": list(self.unknowns),
            "equations": [
                {"coeffs": list(eq.coeffs), "rhs": eq.rhs} for eq in self.equations
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "FeasibilitySystem":
        return FeasibilitySystem(
            unknowns=tuple(d["unknowns"]),
            equations=tuple(
                LinearEquation(tuple(map(index, e["coeffs"])), index(e["rhs"]))
                for e in d["equations"]
            ),
        )


# (combination given, source given, variable given) -> the rule a line follows
_RULE_KINDS = {(True, False, False): "combination", (False, True, True): "nonneg_zero"}


class ChainLine(Record):
    """One line of a chain, derived by exactly one rule: a nonempty
    combination of earlier lines, or a variable forced to zero by a source
    line.  kind is derived from which of the two is given."""

    def __init__(
        self,
        line_id: str,
        coeffs: tuple[int, ...],
        rhs: int,
        combination: tuple[tuple[str, int], ...] = (),
        source: str | None = None,
        variable: str | None = None,
    ) -> None:
        kind = _RULE_KINDS.get((bool(combination), source is not None, variable is not None))
        if kind is None:
            raise ValueError(
                f"{line_id}: give a nonempty combination, or a source and a "
                "variable, but not both"
            )
        set_field(self, "line_id", line_id)
        set_field(self, "coeffs", coeffs)
        set_field(self, "rhs", rhs)
        set_field(self, "combination", combination)
        set_field(self, "source", source)
        set_field(self, "variable", variable)
        set_field(self, "kind", kind)

    def render(self, names: tuple[str, ...]) -> str:
        eq = LinearEquation(self.coeffs, self.rhs).render(names)
        if self.kind == "combination":
            just = _render_terms(list(self.combination))
            return f"[{self.line_id}] {eq}   (= {just})"
        return (
            f"[{self.line_id}] {eq}   "
            f"(forced: {self.source} has nonnegative terms summing to 0)"
        )

    def to_json_dict(self) -> dict:
        d: dict = {
            "id": self.line_id,
            "coeffs": list(self.coeffs),
            "rhs": self.rhs,
            "kind": self.kind,
        }
        if self.kind == "combination":
            d["combination"] = [[ref, mult] for ref, mult in self.combination]
        else:
            d["source"] = self.source
            d["variable"] = self.variable
        return d


def replay_chain(system: FeasibilitySystem, chain: tuple[ChainLine, ...]) -> None:
    """Re-check an INFEASIBLE chain from scratch; raises ValueError if broken."""
    if not chain:
        raise ValueError("empty chain proves nothing")
    n = len(system.unknowns)
    by_id: dict[str, tuple[tuple[int, ...], int]] = {}
    for i, eq in enumerate(system.equations, 1):
        by_id[f"eq{i}"] = (eq.coeffs, eq.rhs)
    for line in chain:
        if line.line_id in by_id:
            raise ValueError(f"duplicate line id {line.line_id!r}")
        if line.kind == "combination":
            acc = [0] * n
            rhs = 0
            for ref, mult in line.combination:
                if ref not in by_id:
                    raise ValueError(f"{line.line_id}: unknown reference {ref!r}")
                c, r = by_id[ref]
                acc = [a + mult * v for a, v in zip(acc, c)]
                rhs += mult * r
            if tuple(acc) != line.coeffs or rhs != line.rhs:
                raise ValueError(f"{line.line_id}: combination does not reproduce line")
        else:
            if line.source not in by_id:
                raise ValueError(f"{line.line_id}: unknown source {line.source!r}")
            sc, sr = by_id[line.source]
            if sr != 0 or any(v < 0 for v in sc):
                raise ValueError(
                    f"{line.line_id}: source is not a nonnegative combination "
                    "equal to zero"
                )
            if line.variable not in system.unknowns:
                raise ValueError(f"{line.line_id}: unknown variable {line.variable!r}")
            v = system.unknowns.index(line.variable)
            if sc[v] <= 0:
                raise ValueError(
                    f"{line.line_id}: variable {line.variable!r} absent from source"
                )
            unit = tuple(int(i == v) for i in range(n))
            if line.coeffs != unit or line.rhs != 0:
                raise ValueError(f"{line.line_id}: forced line must read x = 0")
        by_id[line.line_id] = (line.coeffs, line.rhs)
    last = chain[-1]
    if any(v < 0 for v in last.coeffs) or last.rhs >= 0:
        raise ValueError(
            "final line must equate a nonnegative combination to a negative integer"
        )


def _solved_form(names: tuple[str, ...], coeffs: tuple[int, ...], rhs: int) -> str | None:
    """Render 'e = -2 - b2' style when some unknown appears with coefficient 1."""
    idx = next((i for i, c in enumerate(coeffs) if c == 1), None)
    if idx is None:
        return None
    moved = [(n, -c) for j, (n, c) in enumerate(zip(names, coeffs)) if j != idx and c]
    return f"{names[idx]} = " + _render_terms([(str(rhs), 1), *moved])


class FeasibilityCertificate(Record):
    """A system with its evidence; the status is read off the evidence.

    A witness makes it FEASIBLE, a chain INFEASIBLE, neither
    UNKNOWN_UP_TO_BOUND, which needs the bound that was searched.
    """

    def __init__(
        self,
        system: FeasibilitySystem,
        witness: tuple[int, ...] | None = None,
        chain: tuple[ChainLine, ...] = (),
        bound: int | None = None,
    ) -> None:
        if witness is not None:
            if chain:
                raise ValueError("a witness and a refutation chain contradict each other")
            if len(witness) != len(system.unknowns):
                raise ValueError("witness has wrong length")
            if any(index(w) < 0 for w in witness):
                raise ValueError("witness must be nonnegative")
            for eq in system.equations:
                if sum(c * w for c, w in zip(eq.coeffs, witness)) != eq.rhs:
                    raise ValueError("witness fails an equation")
            status = "FEASIBLE"
        elif chain:
            replay_chain(system, chain)
            status = "INFEASIBLE"
        elif bound is None:
            raise ValueError("UNKNOWN_UP_TO_BOUND must record the bound")
        else:
            status = "UNKNOWN_UP_TO_BOUND"
        set_field(self, "system", system)
        set_field(self, "witness", witness)
        set_field(self, "chain", chain)
        set_field(self, "bound", bound)
        set_field(self, "status", status)

    @property
    def final_line_solved(self) -> str | None:
        if not self.chain:
            return None
        last = self.chain[-1]
        return _solved_form(self.system.unknowns, last.coeffs, last.rhs)

    def transcript(self) -> str:
        names = self.system.unknowns
        out = [f"system over nonnegative integers ({', '.join(names)}):"]
        for i, eq in enumerate(self.system.equations, 1):
            out.append(f"  [eq{i}] {eq.render(names)}")
        if self.status == "INFEASIBLE":
            out.append("derivation:")
            for line in self.chain:
                out.append(f"  {line.render(names)}")
            solved = self.final_line_solved
            if solved is not None:
                out.append(f"  i.e. {solved}")
            out.append(
                "  a nonnegative combination of the unknowns equals a negative "
                "integer: no solution exists."
            )
        elif self.status == "FEASIBLE":
            assert self.witness is not None
            pairs = ", ".join(f"{n} = {w}" for n, w in zip(names, self.witness))
            out.append(f"feasible; witness: {pairs}")
        else:
            out.append(
                f"sign analysis inconclusive; no witness with all unknowns "
                f"<= {self.bound}."
            )
        return "\n".join(out)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "bound": self.bound,
            "final_line_solved": self.final_line_solved,
            "system": self.system.to_json_dict(),
            "chain": [line.to_json_dict() for line in self.chain],
        }


def _search_witness(system: FeasibilitySystem, bound: int) -> tuple[int, ...] | None:
    """Exhaustive search of the box [0, bound]^n, depth first.

    Pruning is sound (intervals): a partial assignment is abandoned only when
    some equation provably cannot be met by any completion inside the box,
    so a None return really means the box holds no witness.
    """
    n = len(system.unknowns)
    eqs = [(eq.coeffs, eq.rhs) for eq in system.equations]
    lo_suffix = []
    hi_suffix = []
    for coeffs, _ in eqs:
        lo = [0] * (n + 1)
        hi = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            lo[i] = lo[i + 1] + min(coeffs[i], 0) * bound
            hi[i] = hi[i + 1] + max(coeffs[i], 0) * bound
        lo_suffix.append(lo)
        hi_suffix.append(hi)
    assignment = [0] * n

    def rec(i: int) -> tuple[int, ...] | None:
        for (coeffs, rhs), lo, hi in zip(eqs, lo_suffix, hi_suffix):
            fixed = sum(coeffs[j] * assignment[j] for j in range(i))
            if not (fixed + lo[i] <= rhs <= fixed + hi[i]):
                return None
        if i == n:
            return tuple(assignment)
        for v in range(bound + 1):
            assignment[i] = v
            found = rec(i + 1)
            if found is not None:
                return found
        assignment[i] = 0
        return None

    return rec(0)


def _ref_sort_key(ref: str) -> tuple[int, int]:
    # store terms reference only the eq lines and the z lines
    if ref.startswith("eq"):
        return (0, int(ref[2:]))
    return (1, int(ref[1:]))


def _sign_analysis(system: FeasibilitySystem) -> tuple[ChainLine, ...] | None:
    """An INFEASIBLE chain found by sign analysis, or None if signs decide nothing.

    Rounds run as the module docstring says.  A store line is (coeffs, rhs,
    terms), terms the combination of eq and z lines that it equals.  Scanning
    the originals first keeps the shipped chains like the hand derivation.
    """
    names = system.unknowns
    n = len(names)
    lines = [
        (eq.coeffs, eq.rhs, ((f"eq{i}", 1),))
        for i, eq in enumerate(system.equations, 1)
    ]
    seen = {line[:2] for line in lines}
    chain: list[ChainLine] = []
    zeros: dict[int, str] = {}  # unknown index -> id of its nonneg_zero line
    for _ in range(2 * n + 4):
        subs = [
            (
                tuple(0 if v in zeros else c for v, c in enumerate(coeffs)),
                rhs,
                terms
                + tuple((zeros[v], -coeffs[v]) for v in sorted(zeros) if coeffs[v]),
            )
            for coeffs, rhs, terms in lines
        ]
        oriented = []
        for coeffs, rhs, terms in subs:
            # an all-zero row `0 = c` is oriented so that a nonzero c reads negative
            if all(v >= 0 for v in coeffs) and (any(coeffs) or rhs <= 0):
                oriented.append((coeffs, rhs, terms))
            elif all(v <= 0 for v in coeffs):
                negated = tuple((ref, -m) for ref, m in terms)
                oriented.append((tuple(-v for v in coeffs), -rhs, negated))
        decisive = next((line for line in oriented if line[1] < 0), None) or next(
            (line for line in oriented if line[1] == 0 and any(line[0])), None
        )
        if decisive is not None:
            coeffs, rhs, terms = decisive
            src = terms[0][0]
            # an original equation that forces as it stands (its terms are
            # ((eqi, 1),)) is its own source; any other line enters the chain
            if rhs < 0 or terms != ((src, 1),):
                src = f"d{len(chain) - len(zeros) + 1}"
                ordered = tuple(sorted(terms, key=lambda t: _ref_sort_key(t[0])))
                chain.append(
                    ChainLine(src, coeffs, rhs, combination=ordered)
                )
            if rhs < 0:
                return tuple(chain)
            for v in [v for v, c in enumerate(coeffs) if c > 0]:
                zeros[v] = z = f"z{len(zeros) + 1}"
                unit = tuple(int(i == v) for i in range(n))
                chain.append(
                    ChainLine(z, unit, 0, source=src, variable=names[v])
                )
            continue
        # [rows | I]: the identity block records each echelon row as an
        # integer combination of the substituted lines
        rows = [[*c, r] for c, r, _ in subs]
        k = len(rows)
        ech, _, scales = eliminate(
            [row + [int(i == j) for j in range(k)] for i, row in enumerate(rows)],
            ncols=n + 1,
        )
        grew = False
        for row, scale in zip(ech, scales):
            # row / scale is the rational echelon row; clear its denominators
            g = gcd(*row, scale) if scale > 0 else -gcd(*row, scale)
            row = [v // g for v in row]
            coeffs, rhs = tuple(row[:n]), row[n]
            if not any(row[: n + 1]) or (coeffs, rhs) in seen:
                continue
            acc: dict[str, int] = {}
            for mult, (_, _, terms) in zip(row[n + 1 :], subs):
                for ref, q in terms:
                    acc[ref] = acc.get(ref, 0) + mult * q
            terms = tuple(
                (ref, q)
                for ref, q in sorted(acc.items(), key=lambda t: _ref_sort_key(t[0]))
                if q
            )
            if terms:
                lines.append((coeffs, rhs, terms))
                seen.add((coeffs, rhs))
                grew = True
        if not grew:
            break
    return None


def solve_nonneg(system: FeasibilitySystem, bound: int = 20) -> FeasibilityCertificate:
    """Decide nonnegative-integer feasibility, certificate included.

    Sign analysis first (_sign_analysis).  If signs decide nothing, search
    the box [0, bound]^n for a witness; failing that, answer
    UNKNOWN_UP_TO_BOUND.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    chain = _sign_analysis(system)
    if chain is not None:
        return FeasibilityCertificate(system=system, chain=chain)
    witness = _search_witness(system, bound)
    return FeasibilityCertificate(system=system, witness=witness, bound=bound)


OBSTRUCTION_UNKNOWNS = ("e", "s1", "s2", "a", "b1", "b2")
# Everything the restriction system knows of the surface side and the plane
# side is read off the SZ model's two blow-downs.  Row i of A holds the i-th
# coefficient of its columns P(L), -P(f1), -P(f2), -M, F1 and F2, one for
# each unknown; a blow-down's matrix has its pullbacks as columns.
_SZ = make_sz()
(_M,), (_F1, _F2) = _SZ.from_f0.exceptional_classes, _SZ.from_plane.exceptional_classes
_OBSTRUCTION_LHS = tuple(
    (*p, *(-v for v in q), -m, f1, f2)
    for p, q, m, f1, f2 in zip(
        _SZ.from_plane.matrix, _SZ.from_f0.matrix, _M.coeffs, _F1.coeffs, _F2.coeffs
    )
)
# the right side's part that is the same for every surface: P(L) - F1 - F2 + M
_CONSTANT = _SZ.from_plane.pullback(_SZ.plane((1,))) - _F1 - _F2 + _M
# the rows of M^-1 (M here the e, s1, s2 columns of A, not the class M), in
# the order their signs are checked; the closed form below rests on M^-1 A >= 0
_OBSTRUCTION_INVERSE = tuple(map(tuple, invert_unimodular([row[:3] for row in _OBSTRUCTION_LHS])))
_REDUCED_LHS = mat_mul(_OBSTRUCTION_INVERSE, _OBSTRUCTION_LHS)
if any(v < 0 for row in _REDUCED_LHS for v in row):
    raise ValueError("M^-1 A has a negative entry: the closed form does not hold")


def build_obstruction_system(model: ProjectionModel) -> FeasibilitySystem:
    """Restriction bookkeeping on the two-blowdown lattice, as equations.

    Suppose some composite of blow-ups resolves a birational map carrying the
    projected quadric model to a plane, and restrict everything to the SZ
    lattice.  The surface-side hyperplane pullback decomposes as the common
    restriction class plus m = DOUBLE_LOCUS_MULTIPLICITY copies of P(Gamma_W)
    (the projection is double along its curve) plus a vertical part
    s1 P(f1) + s2 P(f2) plus the exceptional M of the blow-down to the
    quadric, a + 1 times; the plane-side pullback P(L) of a line decomposes as
    the same restriction class plus e P(L) plus b1 + 1 and b2 + 1 times the
    exceptionals F1 and F2 of the blow-down to the plane.  The "+1" offsets
    are fixed: each blowdown direction is hit at least once.  Subtracting the
    two decompositions eliminates the restriction class and leaves

        e P(L) - s1 P(f1) - s2 P(f2) - a M + b1 F1 + b2 F2
            = P(L) - deg_s P(H) + m P(Gamma_W) - F1 - F2 + M,

    three equations (one per basis class of SZ) in six multiplicities, all of
    which must be nonnegative integers if the resolving surface exists.
    Infeasibility is therefore an obstruction.  But it need not read the
    surface: the e row of M^-1 r (below) is -2 for every quadric model, so a
    refutation by that row alone says nothing about S.

    The left side A is fixed, so the system has a closed form.  With M the
    e, s1, s2 columns of A, M is unimodular and M^-1 A = [[1,0,0,1,1,1],
    [0,1,0,1,0,1], [0,0,1,1,1,0]] >= 0, both checked at import.  So a
    nonnegative solution exists iff M^-1 r >= 0, and then (M^-1 r, 0, 0, 0)
    is one; otherwise the row of M^-1 that goes negative is a one-line
    refutation (decide_obstruction_system).

    A model whose surface is not the quadric raises LatticeMismatchError.
    """
    if model.surface.lattice != _SZ.f0:
        raise LatticeMismatchError(
            "obstruction bookkeeping is defined for the quadric "
            f"model, not {model.surface.lattice.name!r}"
        )
    up = _SZ.from_f0.pullback
    r = (
        _CONSTANT
        - model.deg_s * up(model.surface.polarization)
        + DOUBLE_LOCUS_MULTIPLICITY * up(model.gamma_w)
    )
    return FeasibilitySystem(
        unknowns=OBSTRUCTION_UNKNOWNS,
        equations=tuple(map(LinearEquation, _OBSTRUCTION_LHS, r.coeffs)),
    )


def decide_obstruction_system(system: FeasibilitySystem) -> FeasibilityCertificate:
    """Decide a system from build_obstruction_system exactly, with no search:
    sign analysis's chain when it decides, else the closed form given there."""
    if tuple(eq.coeffs for eq in system.equations) != _OBSTRUCTION_LHS:
        raise ValueError("left side is not the restriction system's")
    chain = _sign_analysis(system)
    if chain is None:
        r = [eq.rhs for eq in system.equations]
        x = mat_vec(_OBSTRUCTION_INVERSE, r)
        for y, coeffs, v in zip(_OBSTRUCTION_INVERSE, _REDUCED_LHS, x):
            if v < 0:
                terms = tuple((f"eq{i}", c) for i, c in enumerate(y, 1) if c)
                chain = (ChainLine("d1", coeffs, v, combination=terms),)
                break
        else:
            return FeasibilityCertificate(system, witness=(*x, 0, 0, 0))
    return FeasibilityCertificate(system, chain=chain)
