import random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_unimodular
from cremeq.lattice import (
    AdjunctionParityError,
    BlowupMap,
    IntersectionLattice,
    LatticeMismatchError,
    blow_up_point,
    change_basis,
    genus,
    pair,
)
from cremeq.surfaces import make_blowup_plane

PLANE = IntersectionLattice(
    name="P2",
    basis=("L",),
    gram=((1,),),
    canonical_coeffs=(-3,),
)

QUADRIC = IntersectionLattice(
    name="F0",
    basis=("f1", "f2"),
    gram=((0, 1), (1, 0)),
    canonical_coeffs=(-2, -2),
)


def test_pairing_on_hyperbolic_form():
    a = QUADRIC((1, 3))
    assert pair(a, a) == 6
    assert pair(a, QUADRIC((1, 0))) == 3
    assert pair(a, QUADRIC((0, 1))) == 1


def test_pair_rejects_mixed_lattices():
    with pytest.raises(LatticeMismatchError):
        pair(PLANE((1,)), QUADRIC((1, 0)))


def test_arithmetic_and_scalars():
    a = QUADRIC((1, 2))
    b = QUADRIC((0, 1))
    assert (a + b).coeffs == (1, 3)
    assert (a - b).coeffs == (1, 1)
    assert (-a).coeffs == (-1, -2)
    assert (3 * a).coeffs == (3, 6)
    assert (a * 3).coeffs == (3, 6)


def test_genus_plane_curves():
    # smooth plane curve of degree d has genus (d-1)(d-2)/2
    for d, g in [(1, 0), (2, 0), (3, 1), (4, 3), (5, 6), (6, 10)]:
        assert genus(PLANE((d,))) == g


def test_genus_quadric_divisors():
    assert genus(QUADRIC((1, 3))) == 0
    assert genus(QUADRIC((2, 3))) == 2


def test_genus_parity_error():
    odd = IntersectionLattice(
        name="odd",
        basis=("x",),
        gram=((1,),),
        canonical_coeffs=(0,),
    )
    with pytest.raises(AdjunctionParityError):
        genus(odd((1,)))


def test_lattice_validation():
    with pytest.raises(ValueError, match="symmetric"):
        IntersectionLattice("bad", ("a", "b"), ((0, 1), (2, 0)), (0, 0))
    with pytest.raises(ValueError, match="2x2"):
        IntersectionLattice("bad", ("a", "b"), ((0,),), (0, 0))
    with pytest.raises(ValueError, match="wrong length"):
        IntersectionLattice("bad", ("a",), ((1,),), (1, 2))


def test_divisor_class_wrong_length():
    with pytest.raises(ValueError):
        QUADRIC((1, 2, 3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: QUADRIC((1.9, 3)),
        lambda: QUADRIC("13"),
        lambda: QUADRIC(("1", 3)),
        lambda: IntersectionLattice.from_json_dict(
            {**QUADRIC.to_json_dict(), "gram": [[0, 1.5], [1.5, 0]]}
        ),
        lambda: IntersectionLattice.from_json_dict(
            {**QUADRIC.to_json_dict(), "canonical": [-2.0, "-2"]}
        ),
    ],
)
def test_non_integer_entries_are_refused(build):
    # int() would truncate 1.9 to 1 and read "13" as (1, 3)
    with pytest.raises(TypeError):
        build()


def test_blow_up_point_structure():
    lat2, bl = blow_up_point(PLANE)
    assert lat2.basis == ("L", "E1")
    e = bl.exceptional_classes[0]
    assert pair(e, e) == -1
    assert pair(bl.pullback(PLANE((1,))), e) == 0
    assert lat2.canonical.coeffs == (-3, 1)
    assert genus(e) == 0


def test_blow_up_point_label_collision():
    lat2, _ = blow_up_point(PLANE, label="E1")
    with pytest.raises(ValueError, match="already in use"):
        blow_up_point(lat2, label="E1")


def test_blowup_map_rejects_broken_canonical():
    # same pullback matrix but a wrong canonical class downstairs
    target = IntersectionLattice(
        name="badP2+E",
        basis=("L", "E"),
        gram=((1, 0), (0, -1)),
        canonical_coeffs=(-3, 0),  # should be (-3, 1)
    )
    with pytest.raises(ValueError, match="K'"):
        BlowupMap(
            source=PLANE,
            target=target,
            matrix=((1,), (0,)),
            exceptional_classes=(target((0, 1)),),
        )


def test_blowup_map_rejects_non_isometry():
    target = IntersectionLattice(
        name="skew",
        basis=("L", "E"),
        gram=((2, 0), (0, -1)),
        canonical_coeffs=(-3, 1),
    )
    with pytest.raises(ValueError, match="isometry"):
        BlowupMap(
            source=PLANE,
            target=target,
            matrix=((1,), (0,)),
            exceptional_classes=(target((0, 1)),),
        )


@pytest.mark.parametrize(
    "exceptional, message",
    [((0, 1, 1), "self-intersection -1"), ((1, 1, 1), "orthogonal to pullbacks")],
)
def test_blowup_map_rejects_bad_exceptional_class(exceptional, message):
    target = IntersectionLattice(
        name="P2+E1+E2",
        basis=("L", "E1", "E2"),
        gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)),
        canonical_coeffs=(-3, 1, 1),
    )
    with pytest.raises(ValueError, match=message):
        BlowupMap(
            source=PLANE,
            target=target,
            matrix=((1,), (0,), (0,)),
            exceptional_classes=(target(exceptional),),
        )


def test_change_basis_roundtrip_preserves_pairing():
    lat2, _ = blow_up_point(PLANE)
    ch = change_basis(
        lat2,
        [(1, -1), (0, 1)],
        ("H", "E"),
        name="rebased",
    )
    a = lat2((3, -1))
    b = lat2((1, 0))
    assert pair(ch.to_new(a), ch.to_new(b)) == pair(a, b)
    assert ch.to_old(ch.to_new(a)) == a
    # canonical transported consistently: K = -3L + E = -3(H+E) + ... check via pairing
    assert genus(ch.to_new(a)) == genus(a)


def test_change_basis_rejects_non_unimodular():
    with pytest.raises(ValueError, match="unimodular"):
        change_basis(QUADRIC, [(2, 0), (0, 1)], ("a", "b"))


@pytest.mark.parametrize(
    "new_basis, message",
    [
        ([(1, 0), (1,)], "basis vector 1 has 1 coordinates"),
        ([(1, 0, 5), (0, 1)], "basis vector 0 has 3 coordinates"),
    ],
)
def test_change_basis_rejects_basis_vector_of_wrong_length(new_basis, message):
    with pytest.raises(ValueError, match=message):
        change_basis(QUADRIC, new_basis, ("a", "b"))


NONZERO = (-3, -2, -1, 1, 2, 3)


@pytest.mark.parametrize("rank", range(1, 13))
def test_change_basis_matches_pairwise_gram(rank):
    # the A^T G A product against one pair call per entry, and pair itself
    # against sympy's u^T G v on sparse and dense classes of both lattices
    rng = random.Random(2000 + rank)
    L = make_blowup_plane(rank - 1, (7,) + (-1,) * (rank - 1)).lattice
    for _ in range(2):
        a = random_unimodular(rng, rank)
        new_basis = [tuple(row[j] for row in a) for j in range(rank)]
        bc = change_basis(L, new_basis, tuple(f"B{j}" for j in range(rank)))
        olds = [L(b) for b in new_basis]
        assert bc.new.gram == tuple(tuple(pair(u, v) for v in olds) for u in olds)
        news = [bc.new(tuple(int(i == j) for i in range(rank))) for j in range(rank)]
        assert [pair(bc.new.canonical, x) for x in news] == [
            pair(L.canonical, u) for u in olds
        ]
        sparse = [0] * rank
        sparse[rng.randrange(rank)] = rng.choice(NONZERO)
        dense = [rng.choice(NONZERO) for _ in range(rank)]
        vectors = [sparse, dense, list(L.canonical_coeffs), *(list(b) for b in new_basis)]
        m = sympy.Matrix(vectors)
        for lat in (L, bc.new):
            oracle = m * sympy.Matrix(lat.gram) * m.T
            assert [[pair(lat(u), lat(v)) for v in vectors] for u in vectors] == oracle.tolist()


def test_lattice_json_roundtrip():
    d = QUADRIC.to_json_dict()
    back = IntersectionLattice.from_json_dict(d)
    assert back == QUADRIC


# --- randomized properties ------------------------------------------------

coeffs2 = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


@given(coeffs2, coeffs2, coeffs2, st.integers(-5, 5))
def test_pairing_bilinear_symmetric(u, v, w, k):
    a, b, c = QUADRIC(u), QUADRIC(v), QUADRIC(w)
    assert pair(a, b) == pair(b, a)
    assert pair(a + b, c) == pair(a, c) + pair(b, c)
    assert pair(k * a, b) == k * pair(a, b)


@given(coeffs2, coeffs2)
def test_blow_up_pullback_is_isometry(u, v):
    lat2, bl = blow_up_point(QUADRIC)
    a, b = QUADRIC(u), QUADRIC(v)
    assert pair(bl.pullback(a), bl.pullback(b)) == pair(a, b)
    assert pair(bl.pullback(a), bl.exceptional_classes[0]) == 0


@given(coeffs2)
def test_adjunction_parity_on_standard_lattices(u):
    # K is characteristic on these lattices, so genus never hits the parity error
    lat2, bl = blow_up_point(QUADRIC)
    genus(QUADRIC(u))
    genus(bl.pullback(QUADRIC(u)) + lat2((0, 0, 1)))
