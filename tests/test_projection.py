import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_unimodular
from cremeq.lattice import LatticeMismatchError, change_basis, pair
from cremeq.projection import (
    IncidenceContradictionError,
    IncidenceRankError,
    NotPlanarError,
    ProjectionModel,
    double_curve_degree,
    plane_image_incidence,
    project_to_p3,
)
from cremeq.surfaces import PolarizedSurface, dp6_line_classes, make_blowup_plane


def test_double_curve_degree_table():
    assert double_curve_degree(6, 0) == 10
    assert double_curve_degree(6, 3) == 7
    assert double_curve_degree(6, 1) == 9
    assert double_curve_degree(3, 0) == 1
    assert double_curve_degree(1, 0) == 0


def test_double_curve_degree_validation():
    with pytest.raises(ValueError, match="degree"):
        double_curve_degree(0, 0)
    with pytest.raises(ValueError, match="genus"):
        double_curve_degree(6, -1)
    with pytest.raises(ValueError, match="bound"):
        double_curve_degree(3, 2)  # a cubic surface section has genus <= 1


def test_sextic_projection(f0):
    line = f0.lattice((0, 1))
    model = project_to_p3(f0, [line])
    assert model.deg_s == 6
    assert model.deg_gamma == 10
    assert model.gamma_w.coeffs == (4, 8)
    assert plane_image_incidence(model, line) == 4
    assert pair(model.gamma_w, f0.polarization) == 20


def test_sextic_projection_rejects_cubic_ruling_incidence(f0):
    model = project_to_p3(f0, [f0.lattice((0, 1))])
    with pytest.raises(NotPlanarError, match="degree 3"):
        plane_image_incidence(model, f0.lattice((1, 0)))


def test_bordiga_projection(bordiga):
    lat = bordiga.lattice
    ms = [lat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    c = lat((1, -1, -1) + (0,) * 8)
    model = project_to_p3(bordiga, ms + [c])
    assert model.deg_gamma == 7
    assert model.gamma_w.coeffs == (11,) + (-3,) * 10
    assert plane_image_incidence(model, ms[0]) == 3
    assert plane_image_incidence(model, c) == 5


def test_dp6_projection(dp6):
    lines = list(dp6_line_classes(dp6.lattice))
    model = project_to_p3(dp6, lines[:4])
    assert model.deg_gamma == 9
    assert model.gamma_w.coeffs == (9, -3, -3, -3)
    for ell in lines:
        assert plane_image_incidence(model, ell) == 3


def test_deg_gamma_override_changes_the_class(f0):
    model = project_to_p3(f0, [f0.lattice((0, 1))], deg_gamma=11)
    assert model.deg_gamma == 11
    assert model.gamma_w.coeffs == (4, 10)


def test_double_point_class_underdetermined(f0):
    with pytest.raises(IncidenceRankError):
        # the degree row alone cannot pin both coordinates
        project_to_p3(f0, [])


def test_double_point_class_contradiction(bordiga):
    lat = bordiga.lattice
    ms = [lat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    c = lat((1, -1, -1) + (0,) * 8)
    # the exceptionals force x_i = -3 and the conic then x0 = 11, so the
    # degree row reads 44 - 30 = 14, not 2*8
    with pytest.raises(IncidenceContradictionError, match="no common class"):
        project_to_p3(bordiga, ms + [c], deg_gamma=8)


def test_double_point_class_fractional(dp6):
    lines = dp6_line_classes(dp6.lattice)
    # degree row becomes 3*x0 - 9 = 2*8: solvable only with x0 = 25/3
    with pytest.raises(IncidenceContradictionError, match="fractional"):
        project_to_p3(dp6, list(lines[:3]), deg_gamma=8)


def test_double_point_class_wrong_lattice(f0, dp6):
    with pytest.raises(LatticeMismatchError, match="lattice"):
        project_to_p3(f0, [dp6.polarization])


def test_projection_model_validates_degree_pairing(f0):
    with pytest.raises(IncidenceContradictionError, match="degree"):
        # pairs to 21 with H: no double curve has degree 21 / 2
        ProjectionModel(surface=f0, gamma_w=f0.lattice((4, 9)))
    with pytest.raises(IncidenceContradictionError, match="pairing with H is -20"):
        ProjectionModel(surface=f0, gamma_w=f0.lattice((-4, -8)))
    # degree 0 stays legal, for the zero class and for (3, -9).(3, 1) = 0
    for coeffs in ((0, 0), (3, -9)):
        assert ProjectionModel(surface=f0, gamma_w=f0.lattice(coeffs)).deg_gamma == 0


def test_projection_model_degrees_come_from_the_surface(f0):
    gamma_w = f0.lattice((4, 8))
    for derived in ({"deg_s": 3}, {"deg_gamma": 10}):
        with pytest.raises(TypeError):
            ProjectionModel(surface=f0, gamma_w=gamma_w, **derived)
    with pytest.raises(TypeError):
        PolarizedSurface(lattice=f0.lattice, polarization=f0.polarization, name="x", gh=(1, 1))
    model = ProjectionModel(surface=f0, gamma_w=gamma_w)
    assert (model.deg_s, model.deg_gamma, f0.gh) == (6, 10, (3, 1))
    with pytest.raises(AttributeError):
        model.deg_s = 2


@pytest.mark.parametrize("rank", range(11, 24))
def test_projection_of_dense_rebased_blowups_matches_closed_forms(rank):
    # Bl_n P^2 with H = 7L - E_1 - ... - E_n: each E_i is a line with k
    # double points, and H and the E_i pin Gamma_W = (head, -k, ..., -k)
    rng = random.Random(4000 + rank)
    n = rank - 1
    standard = make_blowup_plane(n, (7,) + (-1,) * n)
    a = random_unimodular(rng, rank)
    bc = change_basis(
        standard.lattice,
        [tuple(row[j] for row in a) for j in range(rank)],
        tuple(f"B{j}" for j in range(rank)),
    )
    h = bc.to_new(standard.polarization)
    surface = PolarizedSurface(lattice=bc.new, polarization=h, name="dense")
    lines = [bc.to_new(standard.lattice(tuple(int(i == j) for i in range(rank))))
             for j in range(1, rank)]
    model = project_to_p3(surface, lines)
    deg_s = 49 - n
    deg_gamma = (deg_s - 1) * (deg_s - 2) // 2 - 15
    k = deg_s - 3
    assert (surface.degree, model.deg_s, model.deg_gamma) == (pair(h, h), deg_s, deg_gamma)
    assert bc.to_old(model.gamma_w).coeffs == ((2 * deg_gamma + n * k) // 7,) + (-k,) * n
    for c in lines:
        delta = pair(c, h)
        count = delta * (deg_s - delta - 1) + pair(c, c)
        assert plane_image_incidence(model, c) == count == pair(model.gamma_w, c) == k


@given(st.integers(1, 40))
def test_double_curve_degree_decreases_in_genus(d):
    # fixing the degree, each unit of genus removes one double-curve degree
    gmax = (d - 1) * (d - 2) // 2
    vals = [double_curve_degree(d, g) for g in range(min(gmax, 6) + 1)]
    assert vals == sorted(vals, reverse=True)
    assert all(a - b == 1 for a, b in zip(vals, vals[1:]))


@given(st.integers(1, 30), st.integers(0, 20))
def test_double_curve_degree_formula(d, g):
    if (d - 1) * (d - 2) // 2 - g < 0:
        with pytest.raises(ValueError):
            double_curve_degree(d, g)
    else:
        assert 2 * double_curve_degree(d, g) == (d - 1) * (d - 2) - 2 * g
