"""Generic projections to 3-space and their double-curve bookkeeping.

A smooth surface of degree d and sectional genus g, projected generically to
3-space, acquires an ordinary double curve of degree (d-1)(d-2)/2 - g.  On
the normalization the preimage of that curve is a divisor class, the double
point class, which is pinned down by exact linear algebra: its pairing with
the hyperplane class is twice the double-curve degree, and its pairing with
any curve whose image is a line or conic is the count of double points on the
image, recoverable from a residual plane-curve intersection.

Every number here is a dot product with a precomputed row.  With G the gram
matrix, the surface holds G.H; project_to_p3 builds one row G.C per incidence
class C, which gives both the count on C (C^2 = C . G C) and C's equation in
the solve (X.C = X . G C, as G is symmetric).
"""

from __future__ import annotations

from operator import mul

from ._record import Record, set_field
from .lattice import DivisorClass, LatticeMismatchError
from .linalg import mat_vec, solve_exact
from .surfaces import PolarizedSurface

# a generic projection is double along its double curve
DOUBLE_LOCUS_MULTIPLICITY = 2


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


def _incidence(surface: PolarizedSurface, c: DivisorClass, row: tuple[int, ...]) -> int:
    """Double points on the image of c, counted through a residual plane curve.

    row is G c.  delta = c.H is the degree of the image.  For delta in {1, 2}
    the image is a plane curve; a general plane through it cuts the surface in
    the image plus a residual curve of degree deg_s - delta, and chasing the
    two ways of counting the residual intersection gives

        delta * (deg_s - delta - 1) + c^2.

    The count is only available for plane images.  Already at delta = 3 the
    formula stops agreeing with the set-theoretic count (a twisted cubic image
    spans 3-space and meets the double curve in fewer points than the class
    arithmetic suggests), so larger delta is refused rather than answered.
    """
    delta = sum(map(mul, c.coeffs, surface.gh))
    if delta not in (1, 2):
        raise NotPlanarError(
            f"image of class {c.coeffs} has degree {delta}; "
            "incidence count needs a line or conic image"
        )
    return delta * (surface.degree - delta - 1) + sum(map(mul, row, c.coeffs))


def plane_image_incidence(model: "ProjectionModel", c: DivisorClass) -> int:
    """Number of double points of the projection lying on the image of c."""
    surface = model.surface
    c._check_same(surface.polarization)
    return _incidence(surface, c, mat_vec(surface.lattice.gram, c.coeffs))


class ProjectionModel(Record):
    """A surface with the double point class of one generic projection.

    The double curve degree is derived: each double point has two preimages,
    so deg_gamma = (G.H).Gamma_W / 2, and an odd or negative pairing admits
    none (degree 0 is a projection without double curve).
    """

    def __init__(self, surface: PolarizedSurface, gamma_w: DivisorClass) -> None:
        if gamma_w.lattice != surface.lattice:
            raise LatticeMismatchError("double point class on the wrong lattice")
        pairing = sum(map(mul, surface.gh, gamma_w.coeffs))
        if pairing % 2 or pairing < 0:
            raise IncidenceContradictionError(
                "double point class violates the degree constraint: its pairing "
                f"with H is {pairing}, not twice a degree >= 0"
            )
        set_field(self, "surface", surface)
        set_field(self, "gamma_w", gamma_w)
        set_field(self, "deg_gamma", pairing // 2)

    @property
    def deg_s(self) -> int:
        return self.surface.degree


def project_to_p3(
    surface: PolarizedSurface,
    incidence_classes: list[DivisorClass],
    deg_gamma: int | None = None,
) -> ProjectionModel:
    """Assemble the projection model of a polarized surface.

    The double-curve degree comes from the projection formula unless
    overridden.  The double point class X is solved for exactly: X.C is the
    incidence count of each supplied line/conic class C, and X.H = 2 * deg_gamma
    (each double point has two preimages).  An inconsistent system, or one that
    solves only with fractional coefficients, raises
    IncidenceContradictionError; an underdetermined one IncidenceRankError.
    """
    lat = surface.lattice
    if any(c.lattice != lat for c in incidence_classes):
        raise LatticeMismatchError("incidence class on the wrong lattice")
    if deg_gamma is None:
        deg_gamma = double_curve_degree(surface.degree, surface.sectional_genus)
    rows = [mat_vec(lat.gram, c.coeffs) for c in incidence_classes]
    counts = [_incidence(surface, c, row) for c, row in zip(incidence_classes, rows)]
    status, xs = solve_exact([*rows, surface.gh], [*counts, 2 * deg_gamma])
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
    return ProjectionModel(surface, lat(tuple(int(x) for x in xs)))
