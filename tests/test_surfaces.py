import pytest
from hypothesis import given
from hypothesis import strategies as st

from cremeq.lattice import LatticeMismatchError, blow_up_point, genus, pair
from cremeq.surfaces import (
    PolarizedSurface,
    SZModel,
    dp6_line_classes,
    make_blowup_plane,
    make_sz,
)


def test_f0_sextic_numerology(f0):
    assert f0.degree == 6
    assert f0.sectional_genus == 0
    k = f0.lattice.canonical
    assert pair(k, k) == 8
    assert f0.lattice.dim == 2
    # the two rulings: a line ruling and a cubic ruling
    h = f0.polarization
    assert pair(h, f0.lattice((0, 1))) == 1
    assert pair(h, f0.lattice((1, 0))) == 3


def test_bordiga_numerology(bordiga):
    assert bordiga.degree == 6
    assert bordiga.sectional_genus == 3
    assert bordiga.lattice.dim == 11
    k = bordiga.lattice.canonical
    assert pair(k, k) == 9 - 10
    h = bordiga.polarization
    assert genus(h) == 3
    # the plane cubics through the ten points cut the hyperplane sections
    assert h.coeffs == (4,) + (-1,) * 10


def test_dp6_numerology(dp6):
    assert dp6.degree == 6
    assert dp6.sectional_genus == 1
    assert dp6.polarization == -dp6.lattice.canonical
    lines = dp6_line_classes(dp6.lattice)
    assert len(lines) == 6
    for ell in lines:
        assert pair(ell, ell) == -1
        assert pair(ell, dp6.polarization) == 1
        assert genus(ell) == 0


def test_make_blowup_plane():
    s = make_blowup_plane(2, (3, -1, -1))
    assert s.degree == 9 - 2
    assert s.sectional_genus == 1


def test_make_blowup_plane_validation():
    with pytest.raises(ValueError):
        make_blowup_plane(-1, (1,))
    with pytest.raises(ValueError):
        make_blowup_plane(2, (3, -1))  # wrong length


def test_surface_json_roundtrip(bordiga):
    back = PolarizedSurface.from_json_dict(bordiga.to_json_dict())
    assert back == bordiga


def test_sz_model_shape(sz):
    assert sz.lattice.dim == 3
    assert sz.lattice.canonical.coeffs == (-2, -2, -3)
    k = sz.lattice.canonical
    assert pair(k, k) == 7  # rank-3 lattice: 8 - 1 from one side, 9 - 2 from the other
    assert sz.from_f0.source == sz.f0
    assert sz.from_plane.source == sz.plane


def test_sz_blowdown_to_quadric(sz):
    q = sz.f0
    h = q((1, 3))
    up = sz.from_f0.pullback(h)
    assert up.coeffs == (1, 3, 4)
    # orthogonal to the quadric side's exceptional, not to the plane side's
    assert [pair(up, e) for e in sz.from_f0.exceptional_classes] == [0]
    assert [pair(up, e) for e in sz.from_plane.exceptional_classes] == [3, 1]
    assert pair(up, up) == pair(h, h) == 6


def test_sz_blowdown_to_plane(sz):
    p = sz.plane
    ell = p((1,))
    up = sz.from_plane.pullback(ell)
    assert up.coeffs == (1, 1, 1)
    assert [pair(up, e) for e in sz.from_plane.exceptional_classes] == [0, 0]
    assert pair(up, up) == 1


def test_sz_rulings(sz):
    # strict transforms of the two rulings of the quadric
    r2, r1 = (sz.from_f0.pullback(sz.f0(c)) for c in ((1, 0), (0, 1)))
    assert r1.coeffs == (0, 1, 1)
    assert r2.coeffs == (1, 0, 1)
    assert pair(r1, r1) == 0 and pair(r2, r2) == 0
    assert pair(r1, r2) == 1
    # both are orthogonal to M, the quadric side's exceptional
    (m,) = sz.from_f0.exceptional_classes
    assert pair(r1, m) == pair(r2, m) == 0


def test_sz_exceptional_classes(sz):
    (m,) = sz.from_f0.exceptional_classes
    assert m.coeffs == (0, 0, 1)
    f1, f2 = sz.from_plane.exceptional_classes
    assert {f1.coeffs, f2.coeffs} == {(1, 0, 0), (0, 1, 0)}


def test_sz_pullback_rejects_wrong_lattice(sz, f0):
    with pytest.raises(LatticeMismatchError):
        sz.from_plane.pullback(f0.polarization)


def test_sz_lattice_is_the_shared_target(sz):
    assert SZModel(sz.from_f0, sz.from_plane).lattice is sz.from_f0.target
    # the plane blown up in one point is another lattice than SZ
    _, one_point = blow_up_point(sz.plane)
    with pytest.raises(LatticeMismatchError, match="different lattices"):
        SZModel(sz.from_f0, one_point)


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_sz_from_f0_isometry_onto_predicate(a, b):
    sz = make_sz()
    c = sz.f0((a, b))
    up = sz.from_f0.pullback(c)
    assert up.coeffs == (a, b, a + b)
    assert pair(up, up) == pair(c, c)
    assert pair(up, sz.from_f0.exceptional_classes[0]) == 0
