import hashlib
import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import box_has_solution
from cremeq import feasibility
from cremeq.feasibility import (
    OBSTRUCTION_UNKNOWNS,
    ChainLine,
    FeasibilityCertificate,
    FeasibilitySystem,
    LinearEquation,
    build_obstruction_system,
    decide_obstruction_system,
    replay_chain,
    solve_nonneg,
)
from cremeq.lattice import LatticeMismatchError, pair
from cremeq.projection import ProjectionModel
from cremeq.surfaces import PolarizedSurface
from cremeq.threefold import BlowupThreefold, st_dot


def S(unknowns, *eqs):
    return FeasibilitySystem(
        unknowns=tuple(unknowns),
        equations=tuple(LinearEquation(tuple(c), r) for c, r in eqs),
    )


@pytest.fixture
def sextic_system(f0):
    return build_obstruction_system(ProjectionModel(f0, f0.lattice((4, 8))))


def test_obstruction_system_rows(sextic_system):
    assert sextic_system.unknowns == OBSTRUCTION_UNKNOWNS
    eqs = sextic_system.equations
    assert eqs[0] == LinearEquation((1, -1, 0, 0, 1, 0), 2)
    assert eqs[1] == LinearEquation((1, 0, -1, 0, 0, 1), -2)
    assert eqs[2] == LinearEquation((1, -1, -1, -1, 0, 0), 2)
    assert eqs[0].render(sextic_system.unknowns) == "e - s1 + b1 = 2"


def test_obstruction_input_validation(dp6):
    model = ProjectionModel(dp6, dp6.lattice((9, -3, -3, -3)))
    with pytest.raises(LatticeMismatchError, match="quadric model, not 'Bl3P2'"):
        build_obstruction_system(model)


def test_sextic_system_infeasible_with_hand_chain(sextic_system):
    cert = solve_nonneg(sextic_system)
    assert cert.status == "INFEASIBLE"
    ids = [line.line_id for line in cert.chain]
    assert ids == ["d1", "z1", "z2", "z3", "d2"]
    d1 = cert.chain[0]
    assert d1.coeffs == (0, 0, 1, 1, 1, 0) and d1.rhs == 0
    assert dict(d1.combination) == {"eq1": 1, "eq3": -1}
    d2 = cert.chain[-1]
    assert d2.coeffs == (1, 0, 0, 0, 0, 1) and d2.rhs == -2
    assert cert.final_line_solved == "e = -2 - b2"
    replay_chain(sextic_system, cert.chain)  # independent re-check
    assert "no solution exists" in cert.transcript()


def test_certificate_survives_json_roundtrip(sextic_system):
    cert = solve_nonneg(sextic_system)
    d = cert.to_json_dict()
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
    assert system == sextic_system
    replay_chain(system, chain)
    # rebuilding the certificate re-validates everything
    FeasibilityCertificate(system=system, chain=chain)


def test_tampered_chain_is_rejected(sextic_system):
    cert = solve_nonneg(sextic_system)
    bad_last = ChainLine(
        line_id="d2",
        coeffs=cert.chain[-1].coeffs,
        rhs=-3,  # doctored constant
        combination=cert.chain[-1].combination,
    )
    with pytest.raises(ValueError, match="does not reproduce"):
        replay_chain(sextic_system, cert.chain[:-1] + (bad_last,))


def test_replay_rejects_empty_chain():
    sys1 = S(("x",), ((1,), -1))
    with pytest.raises(ValueError, match="empty chain"):
        replay_chain(sys1, ())


def test_replay_rejects_duplicate_ids():
    sys1 = S(("x",), ((1,), -1))
    line = ChainLine("eq1", (1,), -1, combination=(("eq1", 1),))
    with pytest.raises(ValueError, match="duplicate"):
        replay_chain(sys1, (line,))


def test_replay_rejects_unknown_reference():
    sys1 = S(("x",), ((1,), -1))
    line = ChainLine("d1", (1,), -1, combination=(("eq9", 1),))
    with pytest.raises(ValueError, match="unknown reference"):
        replay_chain(sys1, (line,))


def test_replay_rejects_indecisive_final_line():
    sys1 = S(("x", "y"), ((1, 1), 0))
    line = ChainLine("d1", (1, 1), 0, combination=(("eq1", 1),))
    with pytest.raises(ValueError, match="negative integer"):
        replay_chain(sys1, (line,))
    sys2 = S(("x", "y"), ((1, -1), -1))
    mixed = ChainLine("d1", (1, -1), -1, combination=(("eq1", 1),))
    with pytest.raises(ValueError, match="negative integer"):
        replay_chain(sys2, (mixed,))


def test_replay_nonneg_zero_rules():
    sys1 = S(("x", "y"), ((1, 1), 0), ((1, 0), -1))
    z_ok = ChainLine("z1", (1, 0), 0, source="eq1", variable="x")
    final = ChainLine("d1", (0, 0), -1, combination=(("eq2", 1), ("z1", -1)))
    replay_chain(sys1, (z_ok, final))

    z_bad_src = ChainLine("z1", (1, 0), 0, source="eq2", variable="x")
    with pytest.raises(ValueError, match="nonnegative combination"):
        replay_chain(sys1, (z_bad_src, final))

    z_bad_var = ChainLine("z1", (1, 0), 0, source="eq1", variable="q")
    with pytest.raises(ValueError, match="unknown variable"):
        replay_chain(sys1, (z_bad_var, final))

    z_not_unit = ChainLine("z1", (1, 1), 0, source="eq1", variable="x")
    with pytest.raises(ValueError, match="x = 0"):
        replay_chain(sys1, (z_not_unit, final))

    z_missing = ChainLine(
        "z1", (1, 0), 0, source="eq3", variable="x"
    )
    sys_zero_coeff = S(("x", "y"), ((1, 1), 0), ((1, 0), -1), ((0, 1), 0))
    z_absent = ChainLine(
        "z1", (1, 0), 0, source="eq3", variable="x"
    )
    with pytest.raises(ValueError, match="absent"):
        replay_chain(sys_zero_coeff, (z_absent, final))
    with pytest.raises(ValueError, match="unknown source"):
        replay_chain(sys1, (z_missing, final))


def test_chain_line_follows_exactly_one_rule():
    # the rule kind is derived from which justification is given
    assert ChainLine("d1", (1,), -1, combination=(("eq1", 1),)).kind == "combination"
    assert ChainLine("z1", (1,), 0, source="eq1", variable="x").kind == "nonneg_zero"
    for refused in (
        dict(),  # neither
        dict(combination=()),  # an empty combination justifies nothing
        dict(source="eq1"),  # a source without the variable it forces
        dict(variable="x"),
        dict(combination=(("eq1", 1),), source="eq1", variable="x"),  # both
        dict(combination=(("eq1", 1),), source="eq1"),
    ):
        with pytest.raises(ValueError, match="d1: give a nonempty combination"):
            ChainLine("d1", (1,), -1, **refused)


def test_feasible_returns_smallest_witness():
    cert = solve_nonneg(S(("x", "y"), ((1, 1), 3)), bound=5)
    assert cert.status == "FEASIBLE"
    assert cert.witness == (0, 3)


def test_infeasible_by_direct_sign():
    cert = solve_nonneg(S(("x", "y"), ((1, 2), -4)))
    assert cert.status == "INFEASIBLE"
    assert len(cert.chain) == 1
    assert cert.chain[0].combination == (("eq1", 1),)


def test_infeasible_by_negated_row():
    cert = solve_nonneg(S(("x", "y"), ((-1, -2), 4)))
    assert cert.status == "INFEASIBLE"
    assert cert.chain[0].coeffs == (1, 2) and cert.chain[0].rhs == -4


@pytest.mark.parametrize(
    "system",
    [
        S(("a", "b"), ((-1, 3), -4), ((0, 0), 2)),
        S(("a", "b"), ((2, 2), 2), ((3, 3), 6), ((0, -3), -6)),
        S(("a",), ((0,), 2)),
    ],
)
def test_zero_row_with_nonzero_right_side_is_infeasible(system):
    cert = solve_nonneg(system)
    assert cert.status == "INFEASIBLE"
    final = cert.chain[-1]
    assert all(c == 0 for c in final.coeffs) and final.rhs < 0
    replay_chain(system, cert.chain)


def test_unknown_up_to_bound():
    cert = solve_nonneg(S(("x", "y"), ((1, -1), 25)), bound=20)
    assert cert.status == "UNKNOWN_UP_TO_BOUND"
    assert cert.bound == 20
    assert "inconclusive" in cert.transcript()
    bigger = solve_nonneg(S(("x", "y"), ((1, -1), 25)), bound=25)
    assert bigger.status == "FEASIBLE" and bigger.witness == (25, 0)


def test_zero_unknown_systems():
    feas = solve_nonneg(S((), ((), 0)))
    assert feas.status == "FEASIBLE" and feas.witness == ()
    infeas = solve_nonneg(S((), ((), -5)))
    assert infeas.status == "INFEASIBLE"


def test_system_validation():
    with pytest.raises(ValueError, match="distinct"):
        S(("x", "x"), ((1, 1), 0))
    with pytest.raises(ValueError, match="width"):
        S(("x", "y"), ((1,), 0))


def test_certificate_validation_rejects_bad_witness(sextic_system):
    simple = S(("x",), ((1,), 2))
    with pytest.raises(ValueError, match="fails an equation"):
        FeasibilityCertificate(system=simple, witness=(1,))
    with pytest.raises(ValueError, match="nonnegative"):
        FeasibilityCertificate(system=simple, witness=(-2,))
    with pytest.raises(ValueError, match="bound"):
        FeasibilityCertificate(system=simple)
    # a witness claims FEASIBLE and a chain INFEASIBLE: both at once is refused
    chain = solve_nonneg(sextic_system).chain
    with pytest.raises(ValueError, match="contradict"):
        FeasibilityCertificate(sextic_system, witness=(0,) * 6, chain=chain)


def test_feasible_certificate_refuses_non_integer_witness():
    # 2x = 1 holds at x = 0.5, but a FEASIBLE certificate claims an integer point
    half = S(("x",), ((2,), 1))
    for w in (0.5, "1", None):
        with pytest.raises(TypeError):
            FeasibilityCertificate(system=half, witness=(w,))
    ok = FeasibilityCertificate(system=S(("x",), ((2,), 2)), witness=(1,))
    assert ok.witness == (1,)


def test_system_json_roundtrip(sextic_system):
    assert FeasibilitySystem.from_json_dict(sextic_system.to_json_dict()) == sextic_system


@pytest.mark.parametrize(
    "field, value",
    [("coeffs", [1.9, 0]), ("coeffs", "13"), ("rhs", 1.9), ("rhs", "13")],
)
def test_system_from_json_refuses_non_integers(field, value):
    # int() would truncate 1.9 to 1 and read "13" as 13 or as (1, 3)
    d = S(("x", "y"), ((1, 0), 3)).to_json_dict()
    d["equations"][0][field] = value
    with pytest.raises(TypeError):
        FeasibilitySystem.from_json_dict(d)


def test_solver_agrees_with_box_oracle_random():
    rng = random.Random(427)
    statuses = set()
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        eqs = [
            (
                tuple(rng.randint(-3, 3) for _ in range(n)),
                rng.randint(-10, 10),
            )
            for _ in range(m)
        ]
        system = S(tuple(f"x{i}" for i in range(n)), *eqs)
        bound = 5
        cert = solve_nonneg(system, bound=bound)
        statuses.add(cert.status)
        has = box_has_solution(system, bound)
        if cert.status == "FEASIBLE":
            assert has
        elif cert.status == "INFEASIBLE":
            assert not has
            replay_chain(system, cert.chain)
        else:
            assert not has
    # the generator is tuned to exercise every branch
    assert statuses == {"FEASIBLE", "INFEASIBLE", "UNKNOWN_UP_TO_BOUND"}


def test_sextic_system_has_no_witness_up_to_50(sextic_system):
    # (a, b1, b2) are forced affinely by (e, s1, s2), so sweeping the free
    # triple over [0, 50]^3 and testing the forced values for nonnegativity
    # covers every candidate whose free coordinates lie in the box; in
    # particular it subsumes the full box [0, 50]^6.
    r1 = sextic_system.equations[0].rhs
    r2 = sextic_system.equations[1].rhs
    r3 = sextic_system.equations[2].rhs
    e, s1, s2 = np.indices((51, 51, 51), dtype=np.int64)
    b1 = r1 - e + s1
    b2 = r2 - e + s2
    a = e - s1 - s2 - r3
    any_witness = bool(((b1 >= 0) & (b2 >= 0) & (a >= 0)).any())
    assert not any_witness
    assert solve_nonneg(sextic_system, bound=50).status == "INFEASIBLE"


def test_obstruction_closed_form(sextic_system):
    # the proof: M = the e, s1, s2 columns of A is unimodular and M^-1 A >= 0,
    # and the refutation rows in the code are the rows of M^-1
    A = sympy.Matrix([eq.coeffs for eq in sextic_system.equations])
    M = A[:, :3]
    assert M.det() == -1
    assert M.inv() * A == sympy.Matrix(
        [[1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 1, 0]]
    )
    assert feasibility._OBSTRUCTION_INVERSE == tuple(map(tuple, M.inv().tolist()))

    # the check: every right side in [-8, 8]^3 against the image of A on [0, 4]^6
    grid = np.indices((5,) * 6).reshape(6, -1)
    image = set(map(tuple, (np.array(A.tolist(), dtype=np.int64) @ grid).T.tolist()))
    statuses = set()
    for r in np.ndindex(17, 17, 17):
        r = tuple(v - 8 for v in r)
        system = FeasibilitySystem(
            OBSTRUCTION_UNKNOWNS,
            tuple(LinearEquation(eq.coeffs, v) for eq, v in zip(sextic_system.equations, r)),
        )
        cert = decide_obstruction_system(system)
        statuses.add(cert.status)
        if r in image:
            assert cert.status == "FEASIBLE", r
        if cert.status == "FEASIBLE":
            assert max(cert.witness) > 4 or r in image, r
        else:
            assert cert.status == "INFEASIBLE", r
            replay_chain(system, cert.chain)
    assert statuses == {"FEASIBLE", "INFEASIBLE"}

    rows = [(eq.coeffs, eq.rhs) for eq in sextic_system.equations]
    other = S(OBSTRUCTION_UNKNOWNS, *rows[:2], ((1, -1, -1, -1, 0, 1), 0))
    with pytest.raises(ValueError, match="left side"):
        decide_obstruction_system(other)


def test_obstruction_closed_form_keeps_the_sign_analysis_chain(sextic_system):
    assert decide_obstruction_system(sextic_system) == solve_nonneg(sextic_system)


def test_every_refutation_ends_in_a_solved_line():
    # A closed-form refutation is a row of M^-1 A, which has an identity
    # block, so its line has coefficient 1 on e, s1 or s2; on this range
    # sign analysis's chains end in such a line as well.  The scenario
    # runner reports that line and has no other rendering to fall back on.
    statuses = Counter()
    for r in itertools.product(range(-6, 7), repeat=3):
        system = FeasibilitySystem(
            OBSTRUCTION_UNKNOWNS, tuple(map(LinearEquation, feasibility._OBSTRUCTION_LHS, r))
        )
        cert = decide_obstruction_system(system)
        statuses[cert.status] += 1
        if cert.status == "INFEASIBLE":
            assert cert.final_line_solved is not None, r
    assert statuses == {"INFEASIBLE": 1434, "FEASIBLE": 2197 - 1434}


def test_surface_free_systems_are_refuted(f0):
    # This pins a known limitation of the encoding, not a wanted result: the
    # e row of M^-1 r is h1 + h2 - h3 - 3 = -2 for every quadric-side input,
    # so with h the pullback of a line the restriction system is refuted even
    # with no surface in it, and on the smooth quadric, which is Cremona
    # equivalent to a plane.  A change to the encoding must edit this test.
    zero = f0.lattice((0, 0))
    for h, final in (((0, 0), "s2 = -2 - a - b1"), ((1, 1), "e = -2 - b2")):
        surface = PolarizedSurface(f0.lattice, f0.lattice(h), "surface-free")
        system = build_obstruction_system(ProjectionModel(surface, zero))
        cert = decide_obstruction_system(system)
        assert cert.status == "INFEASIBLE"
        assert cert.final_line_solved == final


def test_m_inverse_r_reads_the_rulings(f0):
    # Over random F0 models (H, Gamma_W), Gamma_W.H even and >= 0, M^-1 r is
    # (-2, st_dot(f2) - 2, st_dot(f1) - 2): the e row never reads the surface,
    # the s rows read its degree on the rulings.  M, the e, s1, s2 columns of
    # the left side, is inverted by sympy.
    lat = f0.lattice
    f1, f2 = lat((1, 0)), lat((0, 1))
    m_inv = None
    rng = random.Random(28)
    drawn = 0
    for _ in range(1000):
        h = lat((rng.randint(-6, 6), rng.randint(-6, 6)))
        gamma_w = lat((rng.randint(-12, 24), rng.randint(-12, 24)))
        if pair(h, gamma_w) % 2 or pair(h, gamma_w) < 0:
            continue
        model = ProjectionModel(PolarizedSurface(lat, h, "drawn"), gamma_w)
        system = build_obstruction_system(model)
        if m_inv is None:
            m_inv = sympy.Matrix([eq.coeffs[:3] for eq in system.equations]).inv()
        x = m_inv * sympy.Matrix([eq.rhs for eq in system.equations])
        t = BlowupThreefold(model)
        assert list(x) == [-2, st_dot(t, f2) - 2, st_dot(t, f1) - 2], (h, gamma_w)
        drawn += 1
    assert drawn > 300


def test_sign_analysis_chains_are_pinned():
    # Every chain byte for byte on a seeded corpus: random systems, then the
    # restriction system's left side with every right side in [-8, 8]^3.
    # Deciders added after sign analysis do not change what it returns.
    rng = random.Random(19)
    systems = []
    for _ in range(1100):
        n = rng.randint(1, 5)
        eqs = [
            (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-6, 6))
            for _ in range(rng.randint(1, 4))
        ]
        systems.append(S(tuple(f"x{i}" for i in range(n)), *eqs))
    for r in itertools.product(range(-8, 9), repeat=3):
        equations = tuple(map(LinearEquation, feasibility._OBSTRUCTION_LHS, r))
        systems.append(FeasibilitySystem(OBSTRUCTION_UNKNOWNS, equations))
    lengths = Counter()
    digests = []
    for start in range(0, len(systems), 1000):
        h = hashlib.sha256()
        for system in systems[start : start + 1000]:
            chain = feasibility._sign_analysis(system)
            lengths[None if chain is None else len(chain)] += 1
            lines = None if chain is None else [line.to_json_dict() for line in chain]
            h.update(json.dumps(lines, sort_keys=True).encode() + b"\n")
        digests.append(h.hexdigest())
    assert lengths == {None: 2915, 1: 2892, 2: 4, 3: 14, 4: 9, 5: 176, 6: 1, 7: 2}
    assert digests == [
        "5da96e88ef986742c20fa9b72075a9aeaa863f13b02fd2f6eeea67928c4ce4e7",
        "be649a02c15227e6e040c12435c445a966bd74661ff03471c00d65fa74718d19",
        "c8adb0ce001468c9b45ac49826d41615ba8d8cba09a6a911bba07a782421c013",
        "1f437b36cc847bc236eda9a9ab8be60e420d61db76bdc79c3472b020c4628e4f",
        "7c0894947230519625ba56f12af64b75a9d3941066c8d9b5e3fae2f8313d9ece",
        "b65a130f09fc3e0c362c0100fe2cc5713ab465b8b9e84947fe94dbd21df48df6",
        "127e7bd00605056e3b5943182d5a1ca13c0145f922998af5de126ec4350be407",
    ]


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    st.integers(-8, 8),
                ),
                min_size=1,
                max_size=3,
            ),
            st.permutations(range(n)),
        )
    )
)
def test_verdicts_never_contradict_under_variable_permutation(data):
    # Renaming unknowns permutes witnesses bijectively inside the same box, so
    # FEASIBLE must survive a permutation exactly.  INFEASIBLE rests on the
    # forward-only elimination, which is order-sensitive; a permuted run may
    # honestly answer UNKNOWN_UP_TO_BOUND instead, but never FEASIBLE.
    n, eqs, perm = data
    names = tuple(f"x{i}" for i in range(n))
    base = S(names, *[(tuple(c), r) for c, r in eqs])
    shuffled = S(names, *[(tuple(c[perm[i]] for i in range(n)), r) for c, r in eqs])
    a = solve_nonneg(base, bound=4).status
    b = solve_nonneg(shuffled, bound=4).status
    if "FEASIBLE" in (a, b):
        assert a == b
    else:
        assert {a, b} <= {"INFEASIBLE", "UNKNOWN_UP_TO_BOUND"}


@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=2),
    st.integers(-6, 6),
    st.integers(1, 4),
)
def test_status_invariant_under_positive_scaling(coeffs, rhs, k):
    base = S(("x", "y"), (tuple(coeffs), rhs))
    scaled = S(("x", "y"), (tuple(k * c for c in coeffs), k * rhs))
    assert solve_nonneg(base, bound=6).status == solve_nonneg(scaled, bound=6).status
