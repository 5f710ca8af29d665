"""Generic projections to 3-space and their double-curve bookkeeping.

A smooth surface of degree d and sectional genus g, projected generically to
3-space, acquires an ordinary double curve of degree (d-1)(d-2)/2 - g.  On
the normalization the preimage of that curve is a divisor class, the double
point class, which is pinned down by exact linear algebra: its pairing with
the hyperplane class is twice the double-curve degree, and its pairing with
any curve whose image is a line or conic is the count of double points on the
image, recoverable from a residual plane-curve intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import DivisorClass, LatticeMismatchError, pair
from .linalg import mat_vec, solve_exact
from .surfaces import PolarizedSurface


class NotPlanarError(ValueError):
    """Incidence count requested for a curve whose image is not plane."""


class IncidenceContradictionError(ValueError):
    """The declared incidences admit no integral double point class."""


class IncidenceRankError(ValueError):
    """The declared incidences do not determine the double point class."""


def double_curve_degree(d: int, g: int) -> int:
    """Degree of the double curve of a generic projection: (d-1)(d-2)/2 - g."""
    if d < 1:
        raise ValueError("surface degree must be >= 1")
    if g < 0:
        raise ValueError("sectional genus must be >= 0")
    delta = (d - 1) * (d - 2) // 2 - g
    if delta < 0:
        raise ValueError(
            f"sectional genus {g} exceeds the plane-curve bound for degree {d}"
        )
    return delta


def _incidence(deg_s: int, h: DivisorClass, c: DivisorClass) -> int:
    """Double points on the image of c, counted through a residual plane curve.

    delta = c.H is the degree of the image.  For delta in {1, 2} the image is
    a plane curve; a general plane through it cuts the surface in the image
    plus a residual curve of degree deg_s - delta, and chasing the two ways of
    counting the residual intersection gives

        delta * (deg_s - delta - 1) + c^2.

    The count is only available for plane images.  Already at delta = 3 the
    formula stops agreeing with the set-theoretic count (a twisted cubic image
    spans 3-space and meets the double curve in fewer points than the class
    arithmetic suggests), so larger delta is refused rather than answered.
    """
    delta = pair(c, h)
    if delta not in (1, 2):
        raise NotPlanarError(
            f"image of class {c.coeffs} has degree {delta}; "
            "incidence count needs a line or conic image"
        )
    return delta * (deg_s - delta - 1) + pair(c, c)


def plane_image_incidence(model: "ProjectionModel", c: DivisorClass) -> int:
    """Number of double points of the projection lying on the image of c."""
    return _incidence(model.deg_s, model.surface.polarization, c)


def double_point_class(
    surface: PolarizedSurface,
    deg_gamma: int,
    incidences: list[tuple[DivisorClass, int]],
) -> DivisorClass:
    """Solve for the double point class from declared incidence counts.

    Unknown: a class X with pair(X, C) = k for every declared (C, k) and
    pair(X, H) = 2 * deg_gamma (each double point has two preimages).  The
    solve is exact; an inconsistent system raises
    IncidenceContradictionError, an underdetermined one IncidenceRankError.
    """
    lat = surface.lattice
    if any(c.lattice != lat for c, _ in incidences):
        raise LatticeMismatchError("incidence class on the wrong lattice")
    # pair(X, C) = (G C) . X, since the gram matrix G is symmetric
    constraints = [*incidences, (surface.polarization, 2 * deg_gamma)]
    status, xs = solve_exact(
        [mat_vec(lat.gram, c.coeffs) for c, _ in constraints],
        [k for _, k in constraints],
    )
    if status == "inconsistent":
        raise IncidenceContradictionError(
            "incidence counts and double-curve degree admit no common class"
        )
    if status == "underdetermined":
        raise IncidenceRankError(
            "incidence classes do not span; double point class undetermined"
        )
    assert xs is not None
    if any(x.denominator != 1 for x in xs):
        raise IncidenceContradictionError(
            "incidence system solves only with fractional coefficients"
        )
    return lat(tuple(int(x) for x in xs))


@dataclass(frozen=True)
class ProjectionModel:
    """A surface together with the arithmetic of one generic projection."""

    surface: PolarizedSurface
    deg_s: int
    sect_genus: int
    deg_gamma: int
    gamma_w: DivisorClass

    def __post_init__(self) -> None:
        if self.gamma_w.lattice != self.surface.lattice:
            raise LatticeMismatchError("double point class on the wrong lattice")
        if pair(self.gamma_w, self.surface.polarization) != 2 * self.deg_gamma:
            raise IncidenceContradictionError(
                "double point class violates the degree constraint"
            )

    def to_json_dict(self) -> dict:
        return {
            "surface": self.surface.to_json_dict(),
            "deg_s": self.deg_s,
            "sect_genus": self.sect_genus,
            "deg_gamma": self.deg_gamma,
            "gamma_w": list(self.gamma_w.coeffs),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ProjectionModel":
        surf = PolarizedSurface.from_json_dict(d["surface"])
        return ProjectionModel(
            surface=surf,
            deg_s=d["deg_s"],
            sect_genus=d["sect_genus"],
            deg_gamma=d["deg_gamma"],
            gamma_w=surf.lattice(d["gamma_w"]),
        )


def project_to_p3(
    surface: PolarizedSurface,
    incidence_classes: list[DivisorClass],
    deg_gamma: int | None = None,
) -> ProjectionModel:
    """Assemble the projection model of a polarized surface.

    deg_s and the sectional genus come from the polarization; the double-curve
    degree from the projection formula unless overridden; the double point
    class from the incidence counts of the supplied line/conic classes.
    """
    deg_s = surface.degree
    sect_genus = surface.sectional_genus
    if deg_gamma is None:
        deg_gamma = double_curve_degree(deg_s, sect_genus)
    h = surface.polarization
    incidences = [
        (c, _incidence(deg_s, h, c)) for c in incidence_classes
    ]
    gw = double_point_class(surface, deg_gamma, incidences)
    return ProjectionModel(
        surface=surface,
        deg_s=deg_s,
        sect_genus=sect_genus,
        deg_gamma=deg_gamma,
        gamma_w=gw,
    )
