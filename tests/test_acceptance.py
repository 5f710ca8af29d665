"""Acceptance gate: one test per headline criterion, one printed line each.

Every test recomputes its numbers from scratch through the public API,
collects any discrepancies, prints

    ACCEPTANCE <n> <label>: PASS|FAIL

on the unfiltered stdout (so the verdict lines are visible even under
pytest's capture), and only then asserts.  Criterion 5 runs the seeded
randomized suites, at least 1000 cases each, all exact.
"""

import random

import numpy as np

from conftest import box_has_solution, random_symmetric_gram, rebuild_chain
from cremeq.family_checks import dominance_count, grassmannian_dim, monoid_ce_predicate
from cremeq.feasibility import (
    FeasibilitySystem,
    LinearEquation,
    build_obstruction_system,
    replay_chain,
    solve_nonneg,
)
from cremeq.lattice import (
    AdjunctionParityError,
    IntersectionLattice,
    blow_up_point,
    genus,
    pair,
)
from cremeq.log_kodaira import negativity_certificate
from cremeq.projection import (
    IncidenceContradictionError,
    ProjectionModel,
    plane_image_incidence,
    project_to_p3,
)
from cremeq.scenarios import builtin_scenario, run_scenario
from cremeq.surfaces import (
    dp6_line_classes,
    make_bordiga,
    make_dp6,
    make_f0_sextic,
    make_sz,
)
from cremeq.threefold import (
    BlowupThreefold,
    RayKind,
    classify_second_ray,
    fano_check,
    is_nef_on,
    kt_dot,
    st_dot,
    steepest_ray,
)

SEED = 20260816


def _verdict(num: int, label: str, problems: list, capfd) -> None:
    ok = not problems
    with capfd.disabled():
        print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, problems


def test_acceptance_1_sextic_ruled(capfd):
    problems = []

    def check(label, ok):
        if not ok:
            problems.append(label)

    f0 = make_f0_sextic()
    line = f0.lattice((0, 1))
    cubic = f0.lattice((1, 0))
    model = project_to_p3(f0, [line])
    t = BlowupThreefold(model)
    check("degree 6", f0.degree == 6)
    check("sectional genus 0", f0.sectional_genus == 0)
    check("double curve degree 10", model.deg_gamma == 10)
    check("double point class (4,8)", model.gamma_w.coeffs == (4, 8))
    check("surface degree 2 on cubic ruling", st_dot(t, cubic) == 2)
    check("surface degree -2 on line ruling", st_dot(t, line) == -2)
    check("canonical degree 0 on line ruling", kt_dot(t, line) == 0)
    neg = negativity_certificate(model.deg_s, model.deg_gamma)
    check("negativity 6 < 10", neg.verdict == "NEGATIVE_CERTIFIED" and neg.inequality == "6 < 10")

    system = build_obstruction_system(model)
    cert = solve_nonneg(system)
    check("restriction system infeasible", cert.status == "INFEASIBLE")
    check("chain ends in e = -2 - b2", cert.final_line_solved == "e = -2 - b2")
    try:
        replay_chain(*rebuild_chain(cert.to_json_dict()))
    except ValueError as exc:
        check(f"chain replays ({exc})", False)

    report = run_scenario(builtin_scenario("sextic-ruled"))
    check(
        "verdict NOT_CREMONA_EQUIVALENT_TO_PLANE",
        report.computed.get("final_verdict") == "NOT_CREMONA_EQUIVALENT_TO_PLANE",
    )
    check("scenario PASS", report.overall == "PASS")
    _verdict(1, "sextic-ruled worked example", problems, capfd)


def test_acceptance_2_bordiga(capfd):
    problems = []

    def check(label, ok):
        if not ok:
            problems.append(label)

    bord = make_bordiga()
    lat = bord.lattice
    ms = [lat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    c = lat((1, -1, -1) + (0,) * 8)
    model = project_to_p3(bord, ms + [c])
    t = BlowupThreefold(model)
    check("sectional genus 3", bord.sectional_genus == 3)
    check("double curve degree 7", model.deg_gamma == 7)
    check("incidence 3 on every exceptional", all(plane_image_incidence(model, m) == 3 for m in ms))
    check("incidence 5 on the conic", plane_image_incidence(model, c) == 5)
    check("surface degree 0 on exceptionals", all(st_dot(t, m) == 0 for m in ms))
    check("canonical degree -1 on exceptionals", all(kt_dot(t, m) == -1 for m in ms))
    check("surface degree 2 on conic", st_dot(t, c) == 2)
    check("canonical degree -3 on conic", kt_dot(t, c) == -3)
    check("nef", is_nef_on(t, ms + [c]))
    check("fano", fano_check(t, steepest_ray(t, ms + [c])))
    report = run_scenario(builtin_scenario("bordiga"))
    check(
        "verdict CE_TO_PLANE_VIA_GOOD_MODEL",
        report.computed.get("final_verdict") == "CE_TO_PLANE_VIA_GOOD_MODEL",
    )
    check("scenario PASS", report.overall == "PASS")
    _verdict(2, "bordiga good model", problems, capfd)


def test_acceptance_3_dp6(capfd):
    problems = []

    def check(label, ok):
        if not ok:
            problems.append(label)

    dp6 = make_dp6()
    lines = list(dp6_line_classes(dp6.lattice))
    model = project_to_p3(dp6, lines[:4])
    t = BlowupThreefold(model)
    check("sectional genus 1", dp6.sectional_genus == 1)
    check("double curve degree 9", model.deg_gamma == 9)
    check("line incidence 3", all(plane_image_incidence(model, ell) == 3 for ell in lines))
    check("surface degree 0 on lines", all(st_dot(t, ell) == 0 for ell in lines))
    v = classify_second_ray(t, lines[3], cone=lines)
    check("ray classified FIBRATION", v.kind is RayKind.FIBRATION)
    check("numerology 36 = 6^2 = 9*4", model.deg_s**2 == 36 == 4 * model.deg_gamma)
    report = run_scenario(builtin_scenario("dp6"))
    check("scenario PASS", report.overall == "PASS")
    _verdict(3, "dp6 fibration", problems, capfd)


def test_acceptance_4_families(capfd):
    problems = []

    def check(label, ok):
        if not ok:
            problems.append(label)

    check("monoid predicate (6,5)", monoid_ce_predicate(6, 5) is True)
    check("monoid predicate rejects (6,4)", monoid_ce_predicate(6, 4) is False)
    count = dominance_count([6, 6, 4], 3, 7)
    check("dimension count 6+6+4 = 16", count.lhs == 16)
    check("dim G(3,7) = 16", count.rhs == 16 == grassmannian_dim(3, 7))
    check("dominance possible", count.dominant_possible)
    open_report = run_scenario(builtin_scenario("family-open"))
    check(
        "boundary member CE via monoid",
        open_report.computed.get("boundary_verdict") == "CE_TO_PLANE_VIA_MONOID",
    )
    check(
        "family verdict NOT_OPEN",
        open_report.computed.get("family_verdict") == "CE_TO_PLANE_NOT_OPEN",
    )
    closed_report = run_scenario(builtin_scenario("family-closed"))
    check(
        "family verdict NOT_CLOSED",
        closed_report.computed.get("family_verdict") == "CE_TO_PLANE_NOT_CLOSED",
    )
    check("both family scenarios PASS", open_report.overall == closed_report.overall == "PASS")
    _verdict(4, "family behavior", problems, capfd)


# --- criterion 5: seeded randomized suites, >= 1000 cases each ---------------


def _suite_bilinearity(rng, check):
    for _ in range(1000):
        n = rng.randint(1, 4)
        lat = IntersectionLattice(
            name="rnd",
            basis=tuple(f"b{i}" for i in range(n)),
            gram=random_symmetric_gram(rng, n),
            canonical_coeffs=(0,) * n,
        )
        u = lat(tuple(rng.randint(-6, 6) for _ in range(n)))
        v = lat(tuple(rng.randint(-6, 6) for _ in range(n)))
        w = lat(tuple(rng.randint(-6, 6) for _ in range(n)))
        k = rng.randint(-4, 4)
        ok = (
            pair(u, v) == pair(v, u)
            and pair(u + v, w) == pair(u, w) + pair(v, w)
            and pair(k * u, v) == k * pair(u, v)
        )
        check("pairing bilinearity/symmetry", ok)


def _suite_blowup(rng, check):
    bases = (make_f0_sextic().lattice, make_dp6().lattice)
    for _ in range(1000):
        lat = bases[rng.randrange(2)]
        lat2, bl = blow_up_point(lat)
        u = lat(tuple(rng.randint(-5, 5) for _ in range(lat.dim)))
        v = lat(tuple(rng.randint(-5, 5) for _ in range(lat.dim)))
        e = bl.exceptional_classes[0]
        ok = (
            pair(bl.pullback(u), bl.pullback(v)) == pair(u, v)
            and pair(bl.pullback(u), e) == 0
            and pair(e, e) == -1
            and lat2.canonical == bl.pullback(lat.canonical) + e
        )
        check("blow-up isometry and canonical transform", ok)


def _suite_adjunction(rng, check):
    lats = (make_f0_sextic().lattice, make_dp6().lattice, make_bordiga().lattice)
    for _ in range(1000):
        lat = lats[rng.randrange(3)]
        c = lat(tuple(rng.randint(-5, 5) for _ in range(lat.dim)))
        try:
            genus(c)
            ok = True
        except AdjunctionParityError:
            ok = False  # K is characteristic on these lattices; must not happen
        check("adjunction parity acceptance", ok)


def _suite_sz_pullback(rng, check):
    sz = make_sz()
    for _ in range(1000):
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        c = sz.f0((a, b))
        up = sz.from_f0.pullback(c)
        ok = (
            up.coeffs == (a, b, a + b)
            and pair(up, up) == pair(c, c)
            and pair(up, sz.from_f0.exceptional_classes[0]) == 0
        )
        check("from_f0 isometry onto a+b=c", ok)


def _suite_degree_consistency(rng, check):
    f0 = make_f0_sextic()
    bord = make_bordiga()
    dp6 = make_dp6()
    blat = bord.lattice
    ms = [blat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    setups = [
        (f0, [f0.lattice((0, 1))]),
        (bord, ms + [blat((1, -1, -1) + (0,) * 8)]),
        (dp6, list(dp6_line_classes(dp6.lattice))[:4]),
    ]
    # the canonical double-curve degrees first, then random overrides
    for surf, incs in setups:
        model = project_to_p3(surf, incs)
        check("canonical degree consistency", pair(model.gamma_w, surf.polarization) == 2 * model.deg_gamma)
    solved = 0
    for i in range(1002):
        surf, incs = setups[i % 3]
        dg = rng.randint(1, 60)
        try:
            model = project_to_p3(surf, incs, deg_gamma=dg)
        except IncidenceContradictionError:
            continue  # that dg admits no integral class; nothing to check
        solved += 1
        check("degree consistency", pair(model.gamma_w, surf.polarization) == 2 * dg)
    check("degree consistency suite nontrivial", solved >= 300)


def _suite_solver_vs_oracle(rng, check):
    statuses = set()
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        system = FeasibilitySystem(
            unknowns=tuple(f"x{i}" for i in range(n)),
            equations=tuple(
                LinearEquation(
                    tuple(rng.randint(-3, 3) for _ in range(n)),
                    rng.randint(-30, 30),
                )
                for _ in range(m)
            ),
        )
        bound = 5
        cert = solve_nonneg(system, bound=bound)
        statuses.add(cert.status)
        has = box_has_solution(system, bound)
        if cert.status == "FEASIBLE":
            check("oracle agrees (feasible)", has)
        elif cert.status == "INFEASIBLE":
            check("oracle agrees (infeasible)", not has)
        else:
            check("oracle agrees (unknown up to bound)", not has)
    # wider systems, smaller box: up to 6 unknowns
    for _ in range(60):
        n = rng.randint(5, 6)
        system = FeasibilitySystem(
            unknowns=tuple(f"x{i}" for i in range(n)),
            equations=tuple(
                LinearEquation(
                    tuple(rng.randint(-2, 2) for _ in range(n)),
                    rng.randint(-30, 30),
                )
                for _ in range(rng.randint(1, 2))
            ),
        )
        cert = solve_nonneg(system, bound=3)
        has = box_has_solution(system, 3)
        check("oracle agrees (wide)", (cert.status == "FEASIBLE") == has)
    check("all three statuses exercised", {"FEASIBLE", "INFEASIBLE", "UNKNOWN_UP_TO_BOUND"} <= statuses)

    # the worked system, enumerated to bound 50: (a, b1, b2) are affine in
    # (e, s1, s2), so sweeping the free triple over [0,50]^3 and testing the
    # forced values for nonnegativity covers every witness candidate whose
    # free coordinates lie in the box, which subsumes [0,50]^6
    f0 = make_f0_sextic()
    system = build_obstruction_system(ProjectionModel(f0, f0.lattice((4, 8))))
    r1, r2, r3 = (eq.rhs for eq in system.equations)
    e, s1, s2 = np.indices((51, 51, 51), dtype=np.int64)
    b1 = r1 - e + s1
    b2 = r2 - e + s2
    a = e - s1 - s2 - r3
    check(
        "worked system: no witness up to 50",
        not bool(((b1 >= 0) & (b2 >= 0) & (a >= 0)).any()),
    )
    check(
        "worked system: solver says infeasible",
        solve_nonneg(system, bound=50).status == "INFEASIBLE",
    )


def test_acceptance_5_property_suites(capfd):
    rng = random.Random(SEED)
    problems = []
    seen = set()

    def check(label, ok):
        if not ok and label not in seen:
            seen.add(label)
            problems.append(label)

    _suite_bilinearity(rng, check)
    _suite_blowup(rng, check)
    _suite_adjunction(rng, check)
    _suite_sz_pullback(rng, check)
    _suite_degree_consistency(rng, check)
    _suite_solver_vs_oracle(rng, check)
    _verdict(5, "randomized property suites", problems, capfd)
