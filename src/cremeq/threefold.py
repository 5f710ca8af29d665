"""Rank-2 intersection arithmetic on the blow-up of 3-space along a curve.

Blowing up P^3 along the double curve of a generic projection gives a
threefold T whose divisor lattice has rank 2, spanned by the hyperplane
pullback H and the exceptional E.  The strict transform of the surface is
S_T = deg_s * H - 2 E (the projection is double along the curve), and
K_T = -4 H + E.  Restricted to the normalized surface these give two linear
functionals on curve classes:

    st_dot(C) = deg_s * C.H - 2 * C.Gamma_W
    kt_dot(C) = -4 * C.H + C.Gamma_W

where Gamma_W is the double point class.  Both are dot products: with G the
gram matrix of the surface lattice, C.H = C . (G H) and C.Gamma_W =
C . (G Gamma_W).  The surface holds the row G H, and the threefold computes
G Gamma_W once, at construction.

T has Picard rank 2, so N_1(T) is a plane.  A curve C on S sits there at
(C.H, C.Gamma_W), and a fibre of E over the blown-up curve at (0, -1).  The
second extremal ray R of the two-ray game is taken to be spanned by a curve on
S (an assumption, not derived), so it is the steepest curve-cone generator:
the one with the largest C.Gamma_W / C.H.  The second contraction is
classified by the signs of the two numbers on R, and -K_T is ample exactly
when it is positive on R, since the E-fibre has -K_T degree 1 (Kleiman).
"""

from __future__ import annotations

import enum

from ._record import Record, set_field
from .lattice import DivisorClass
from .linalg import mat_vec
from .projection import DOUBLE_LOCUS_MULTIPLICITY, ProjectionModel

# K of P^3 is -4H
AMBIENT_CANONICAL_DEGREE = -4


class BlowupThreefold(Record):
    """T over one projection model, with the row G.Gamma_W.

    The row is derived from the model at construction and cannot be set; G.H
    is the surface's.
    """

    def __init__(self, projection: ProjectionModel) -> None:
        row = mat_vec(projection.surface.lattice.gram, projection.gamma_w.coeffs)
        set_field(self, "projection", projection)
        set_field(self, "g_gamma_w", row)


class RayKind(enum.Enum):
    FIBRATION = "FIBRATION"
    BIRATIONAL_CONTRACTION_FANO = "BIRATIONAL_CONTRACTION_FANO"
    FLOP_WALL_CANONICAL_FANO = "FLOP_WALL_CANONICAL_FANO"
    UNCLASSIFIED = "UNCLASSIFIED"


# what a verdict that rests on a declared contracting divisor takes on trust
_DIVISOR_ASSUMPTION = (
    "effectivity of the declared contracting divisor is assumed, not derived"
)


class RayVerdict(Record):
    """A classified ray; assumption is derived, and set exactly when the
    verdict rests on a declared contracting divisor.  A birational contraction
    needs that divisor and no other kind takes one."""

    def __init__(
        self,
        ray: DivisorClass,
        s_dot: int,
        k_dot: int,
        kind: RayKind,
        contracting_divisor: tuple[int, int] | None = None,
    ) -> None:
        needs = kind is RayKind.BIRATIONAL_CONTRACTION_FANO
        if needs != (contracting_divisor is not None):
            taken = "needs a" if needs else "takes no"
            raise ValueError(f"a {kind.value} verdict {taken} contracting divisor")
        set_field(self, "ray", ray)
        set_field(self, "s_dot", s_dot)
        set_field(self, "k_dot", k_dot)
        set_field(self, "kind", kind)
        set_field(self, "contracting_divisor", contracting_divisor)
        assumption = None if contracting_divisor is None else _DIVISOR_ASSUMPTION
        set_field(self, "assumption", assumption)

    def to_json_dict(self) -> dict:
        d: dict = {
            "ray": list(self.ray.coeffs),
            "s_dot": self.s_dot,
            "k_dot": self.k_dot,
            "kind": self.kind.value,
        }
        if self.contracting_divisor is not None:
            d["contracting_divisor"] = list(self.contracting_divisor)
            d["assumption"] = self.assumption
        return d


def divisor_dot(t: BlowupThreefold, he: tuple[int, int], c: DivisorClass) -> int:
    """Pair the rank-2 divisor class a*H + b*E of T with a curve class on S.

    H restricts to the polarization and E to the double point class, so this
    is a * c.(G H) + b * c.(G Gamma_W); a class on another lattice raises
    LatticeMismatchError.
    """
    a, b = he
    c_h, c_gamma_w = _curve_point(t, c)
    return a * c_h + b * c_gamma_w


def _curve_point(t: BlowupThreefold, c: DivisorClass) -> list[int]:
    """(C.H, C.Gamma_W): where the curve class c sits in N_1(T)."""
    c._check_same(t.projection.surface.polarization)
    return mat_vec((t.projection.surface.gh, t.g_gamma_w), c.coeffs)


def st_dot(t: BlowupThreefold, c: DivisorClass) -> int:
    """Degree of the strict transform of the surface on the curve class c."""
    return divisor_dot(t, (t.projection.deg_s, -DOUBLE_LOCUS_MULTIPLICITY), c)


def kt_dot(t: BlowupThreefold, c: DivisorClass) -> int:
    """Degree of the canonical class of T on the curve class c."""
    return divisor_dot(t, (AMBIENT_CANONICAL_DEGREE, 1), c)


def is_nef_on(t: BlowupThreefold, generators: list[DivisorClass]) -> bool:
    """Whether the surface class is nef against the declared curve cone.

    Nefness is only ever asserted against an explicit generator list; an
    empty list would make the claim vacuous and is refused.
    """
    if not generators:
        raise ValueError("nefness needs a nonempty list of cone generators")
    return all(st_dot(t, c) >= 0 for c in generators)


def steepest_ray(t: BlowupThreefold, cone: list[DivisorClass]) -> DivisorClass:
    """The cone generator of largest slope C.Gamma_W / C.H, the first in list
    order among ties: the second ray R, assumed spanned by a curve on S.

    Slopes are compared by cross-multiplying, in integers.  A generator with
    C.H <= 0 has no slope and is refused, as is an empty cone.
    """
    if not cone:
        raise ValueError("the second ray needs a nonempty list of cone generators")
    best, best_h, best_g = None, 1, 0
    for c in cone:
        h, g = _curve_point(t, c)
        if h <= 0:
            raise ValueError(
                f"cone generator {list(c.coeffs)} has C.H = {h} <= 0, so no slope"
            )
        if best is None or g * best_h > best_g * h:
            best, best_h, best_g = c, h, g
    return best


def classify_second_ray(
    t: BlowupThreefold,
    ray: DivisorClass,
    cone: list[DivisorClass] | None = None,
    contracting_divisor: tuple[int, int] | None = None,
) -> RayVerdict:
    """Classify the contraction of the second extremal ray, spanned by the
    curve class ray (steepest_ray finds it on a cone; that R is spanned by a
    curve on S is assumed).

    Sign patterns (s = st_dot, k = kt_dot on the ray):

    * s < 0, k = 0: the surface is negative on a canonically trivial ray, a
      flop wall; past it the threefold is Fano (FLOP_WALL_CANONICAL_FANO).
    * s = 0, k < 0 with a declared divisor pairing negatively against the
      ray: a birational contraction (BIRATIONAL_CONTRACTION_FANO).  The
      divisor's effectivity is the caller's assumption and is recorded on the
      verdict, not derived.
    * s = 0, k < 0, the surface nef on the declared cone, and the exact
      numerology deg_s^2 = 4 * deg_gamma: the surface class is pulled back
      from a fibration (FIBRATION).

    Anything else is UNCLASSIFIED, a value rather than an exception: the
    caller may well probe rays outside the catalogue.
    """
    s = st_dot(t, ray)
    k = kt_dot(t, ray)
    if s < 0 and k == 0:
        return RayVerdict(ray=ray, s_dot=s, k_dot=k, kind=RayKind.FLOP_WALL_CANONICAL_FANO)
    if s == 0 and k < 0:
        if contracting_divisor is not None:
            if divisor_dot(t, contracting_divisor, ray) < 0:
                return RayVerdict(
                    ray=ray,
                    s_dot=s,
                    k_dot=k,
                    kind=RayKind.BIRATIONAL_CONTRACTION_FANO,
                    contracting_divisor=contracting_divisor,
                )
            return RayVerdict(ray=ray, s_dot=s, k_dot=k, kind=RayKind.UNCLASSIFIED)
        if cone:
            p = t.projection
            if is_nef_on(t, cone) and p.deg_s**2 == 4 * p.deg_gamma:
                return RayVerdict(ray=ray, s_dot=s, k_dot=k, kind=RayKind.FIBRATION)
    return RayVerdict(ray=ray, s_dot=s, k_dot=k, kind=RayKind.UNCLASSIFIED)


def fano_check(t: BlowupThreefold, ray: DivisorClass) -> bool:
    """Whether -K_T is ample: positive on the second ray, spanned by the curve
    class ray (assumed to be a curve on S; steepest_ray finds it).

    T has Picard rank 2, so by Kleiman -K_T is ample exactly when it is
    positive on both extremal rays.  The fibres of the exceptional divisor over
    the blown-up curve span the other ray and always have -K_T degree 1 > 0.
    """
    return -kt_dot(t, ray) > 0
