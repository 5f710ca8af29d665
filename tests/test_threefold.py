import random

import pytest

from conftest import random_unimodular
from cremeq.lattice import LatticeMismatchError, change_basis, pair
from cremeq.projection import ProjectionModel, project_to_p3
from cremeq.surfaces import PolarizedSurface, dp6_line_classes, make_blowup_plane
from cremeq.threefold import (
    BlowupThreefold,
    RayKind,
    classify_second_ray,
    divisor_dot,
    fano_check,
    is_nef_on,
    kt_dot,
    st_dot,
    steepest_ray,
)


@pytest.fixture
def t_sextic(f0):
    return BlowupThreefold(project_to_p3(f0, [f0.lattice((0, 1))]))


@pytest.fixture
def t_bordiga(bordiga):
    lat = bordiga.lattice
    ms = [lat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    c = lat((1, -1, -1) + (0,) * 8)
    return BlowupThreefold(project_to_p3(bordiga, ms + [c]))


@pytest.fixture
def t_dp6(dp6):
    lines = list(dp6_line_classes(dp6.lattice))
    return BlowupThreefold(project_to_p3(dp6, lines[:4]))


def test_sextic_ray_numbers(t_sextic, f0):
    f1 = f0.lattice((1, 0))
    f2 = f0.lattice((0, 1))
    assert st_dot(t_sextic, f1) == 2
    assert st_dot(t_sextic, f2) == -2
    assert kt_dot(t_sextic, f1) == -4
    assert kt_dot(t_sextic, f2) == 0


def test_sextic_flop_wall(t_sextic, f0):
    v = classify_second_ray(t_sextic, f0.lattice((0, 1)))
    assert v.kind is RayKind.FLOP_WALL_CANONICAL_FANO
    assert (v.s_dot, v.k_dot) == (-2, 0)
    assert v.assumption is None


def test_sextic_not_nef_not_fano(t_sextic, f0):
    rays = [f0.lattice((1, 0)), f0.lattice((0, 1))]
    assert not is_nef_on(t_sextic, rays)
    # the line ruling, at (1, 4), is steeper than the cubic ruling at (3, 8)
    assert steepest_ray(t_sextic, rays) is rays[1]
    assert not fano_check(t_sextic, rays[1])


def test_bordiga_ray_numbers(t_bordiga, bordiga):
    lat = bordiga.lattice
    m1 = lat((0, 1) + (0,) * 9)
    c = lat((1, -1, -1) + (0,) * 8)
    assert (st_dot(t_bordiga, m1), kt_dot(t_bordiga, m1)) == (0, -1)
    assert (st_dot(t_bordiga, c), kt_dot(t_bordiga, c)) == (2, -3)
    assert divisor_dot(t_bordiga, (2, -1), m1) == -1


def test_bordiga_birational_contraction(t_bordiga, bordiga):
    lat = bordiga.lattice
    m1 = lat((0, 1) + (0,) * 9)
    v = classify_second_ray(t_bordiga, m1, contracting_divisor=(2, -1))
    assert v.kind is RayKind.BIRATIONAL_CONTRACTION_FANO
    assert v.contracting_divisor == (2, -1)
    assert "assumed" in v.assumption
    d = v.to_json_dict()
    assert d["kind"] == "BIRATIONAL_CONTRACTION_FANO"
    assert d["contracting_divisor"] == [2, -1]


def test_bordiga_without_declared_divisor_is_unclassified(t_bordiga, bordiga):
    # s=0, k<0 but no divisor declared and the fibration numerology fails:
    # 36 != 4*7, so nothing in the catalogue applies
    lat = bordiga.lattice
    m1 = lat((0, 1) + (0,) * 9)
    ms = [lat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    v = classify_second_ray(t_bordiga, m1, cone=ms)
    assert v.kind is RayKind.UNCLASSIFIED


def test_bordiga_wrong_sign_divisor_is_unclassified(t_bordiga, bordiga):
    lat = bordiga.lattice
    m1 = lat((0, 1) + (0,) * 9)
    v = classify_second_ray(t_bordiga, m1, contracting_divisor=(2, 1))
    assert v.kind is RayKind.UNCLASSIFIED


def test_bordiga_nef_and_fano(t_bordiga, bordiga):
    lat = bordiga.lattice
    ms = [lat(tuple(1 if j == i else 0 for j in range(11))) for i in range(1, 11)]
    c = lat((1, -1, -1) + (0,) * 8)
    assert is_nef_on(t_bordiga, ms + [c])
    # the exceptionals, at (1, 3), tie and are steeper than the conic at (2, 5)
    assert steepest_ray(t_bordiga, [c] + ms) is ms[0]
    assert fano_check(t_bordiga, ms[0])


def test_dp6_fibration(t_dp6, dp6):
    # the six lines all sit at (1, 3): they tie as the steepest, and each
    # classifies as the same ray
    lines = list(dp6_line_classes(dp6.lattice))
    assert steepest_ray(t_dp6, lines) is lines[0]
    assert steepest_ray(t_dp6, lines[::-1]) is lines[-1]
    for line in lines:
        v = classify_second_ray(t_dp6, line, cone=lines)
        assert (v.s_dot, v.k_dot, v.kind) == (0, -1, RayKind.FIBRATION)
        assert fano_check(t_dp6, line)
    assert t_dp6.projection.deg_s ** 2 == 4 * t_dp6.projection.deg_gamma


def test_dp6_fibration_needs_cone(t_dp6, dp6):
    lines = list(dp6_line_classes(dp6.lattice))
    v = classify_second_ray(t_dp6, lines[3])
    assert v.kind is RayKind.UNCLASSIFIED


def test_empty_lists_refused(t_sextic):
    with pytest.raises(ValueError, match="nonempty"):
        is_nef_on(t_sextic, [])
    with pytest.raises(ValueError, match="nonempty"):
        steepest_ray(t_sextic, [])


def test_generator_without_slope_refused(t_sextic, f0):
    # C.H <= 0: the zero class and a class of negative degree have no slope
    for coeffs, h in (((0, 0), 0), ((1, -4), -1)):
        with pytest.raises(ValueError, match=rf"\[{coeffs[0]}, {coeffs[1]}\] has C.H = {h}"):
            steepest_ray(t_sextic, [f0.lattice((0, 1)), f0.lattice(coeffs)])


def test_steepest_ray_compares_slopes_exactly(t_sextic, f0):
    # (5, 16) has slope 16/5 and (6, 20) slope 10/3; (12, 40) ties with
    # (6, 20), and the first listed of tied generators wins
    mid, steep, tied = (f0.lattice(c) for c in ((1, 2), (1, 3), (2, 6)))
    points = [[divisor_dot(t_sextic, he, c) for he in ((1, 0), (0, 1))]
              for c in (mid, steep, tied)]
    assert points == [[5, 16], [6, 20], [12, 40]]
    assert steepest_ray(t_sextic, [mid, steep]) is steep
    assert steepest_ray(t_sextic, [steep, mid]) is steep
    assert steepest_ray(t_sextic, [tied, steep, mid]) is tied
    assert steepest_ray(t_sextic, [mid, steep, tied]) is steep


def test_wrong_lattice_refused(t_sextic, dp6):
    with pytest.raises(LatticeMismatchError):
        st_dot(t_sextic, dp6.polarization)


@pytest.mark.parametrize("rank", range(1, 13))
def test_ray_numbers_are_pairings_on_dense_lattices(rank):
    # a*pair(c, H) + b*pair(c, Gamma_W), after a basis change leaves no zeros
    rng = random.Random(3000 + rank)
    n = rank - 1
    standard = make_blowup_plane(n, (7,) + (-1,) * n)
    a = random_unimodular(rng, rank)
    bc = change_basis(
        standard.lattice,
        [tuple(row[j] for row in a) for j in range(rank)],
        tuple(f"B{j}" for j in range(rank)),
    )
    surface = PolarizedSurface(
        lattice=bc.new, polarization=bc.to_new(standard.polarization), name="dense"
    )

    def random_class():
        return bc.new(tuple(rng.randint(-5, 5) for _ in range(rank)))

    # any even class of H-degree >= 0 meets the degree constraint with
    # deg_gamma = half.H; the checks below are bilinear, so a negated half
    # loses no case
    half = random_class()
    if pair(half, surface.polarization) < 0:
        half = -half
    model = ProjectionModel(surface=surface, gamma_w=2 * half)
    assert model.deg_gamma == pair(half, surface.polarization)
    t = BlowupThreefold(model)
    for _ in range(4):
        c = random_class()
        ch, cg = pair(c, surface.polarization), pair(c, model.gamma_w)
        he = (rng.randint(-5, 5), rng.randint(-5, 5))
        assert divisor_dot(t, he, c) == he[0] * ch + he[1] * cg
        assert st_dot(t, c) == model.deg_s * ch - 2 * cg
        assert kt_dot(t, c) == -4 * ch + cg
    # the same surface in its standard basis is another lattice
    with pytest.raises(LatticeMismatchError):
        divisor_dot(t, (1, 0), standard.polarization)


# The boundaries of classify_second_ray's sign patterns, each one step from a
# branch it must not take.
def test_zero_class_is_unclassified(t_sextic, t_dp6, f0, dp6):
    # s = 0 and k = 0: neither a flop wall (needs s < 0) nor a contraction
    # (needs k < 0), even where the fibration numerology holds
    v = classify_second_ray(t_sextic, f0.lattice((0, 0)))
    assert (v.s_dot, v.k_dot, v.kind) == (0, 0, RayKind.UNCLASSIFIED)
    lines = list(dp6_line_classes(dp6.lattice))
    v = classify_second_ray(t_dp6, dp6.lattice((0, 0, 0, 0)), cone=lines)
    assert (v.s_dot, v.k_dot, v.kind) == (0, 0, RayKind.UNCLASSIFIED)


def test_canonically_positive_ray_is_unclassified(t_sextic, f0):
    # s = 0 and k = 4 > 0, with a divisor that is negative on the ray
    ray = f0.lattice((-1, -1))
    assert divisor_dot(t_sextic, (1, 0), ray) == -4
    v = classify_second_ray(t_sextic, ray, contracting_divisor=(1, 0))
    assert (v.s_dot, v.k_dot, v.kind) == (0, 4, RayKind.UNCLASSIFIED)


def test_divisor_trivial_on_the_ray_is_unclassified(t_bordiga, bordiga):
    # s = 0 and k < 0, but the declared divisor has degree 0 on the ray
    m1 = bordiga.lattice((0, 1) + (0,) * 9)
    assert divisor_dot(t_bordiga, (3, -1), m1) == 0
    v = classify_second_ray(t_bordiga, m1, contracting_divisor=(3, -1))
    assert v.kind is RayKind.UNCLASSIFIED


def test_rays_with_both_numbers_nonzero_are_unclassified(t_sextic, f0):
    # neither sign pattern applies, whatever divisor is declared
    for coeffs, s, k in (((1, 0), 2, -4), ((1, 2), -2, -4), ((-1, 0), -2, 4)):
        v = classify_second_ray(t_sextic, f0.lattice(coeffs), contracting_divisor=(-1, 0))
        assert (v.s_dot, v.k_dot, v.kind) == (s, k, RayKind.UNCLASSIFIED)
    assert divisor_dot(t_sextic, (-1, 0), f0.lattice((1, 0))) == -3


def test_flop_wall_at_surface_degree_minus_one():
    # a degree-7 surface makes s odd: E1 has s = 7 - 2*4 = -1 and k = -4 + 4 = 0;
    # Gamma_W is what project_to_p3 solves from E1 and E2, of degree 14
    s7 = make_blowup_plane(2, (3, -1, -1))
    t = BlowupThreefold(ProjectionModel(s7, s7.lattice((12, -4, -4))))
    assert t.projection.deg_gamma == 14
    v = classify_second_ray(t, s7.lattice((0, 1, 0)))
    assert (v.s_dot, v.k_dot, v.kind) == (-1, 0, RayKind.FLOP_WALL_CANONICAL_FANO)

