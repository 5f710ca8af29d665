"""Named surface models used by the built-in scenarios.

Each model is a PolarizedSurface: a divisor-class lattice together with the
hyperplane class of a degree-6 embedding-then-projection to 3-space.  Three
classical degree-6 surfaces are shipped:

* the quadric with the (1,3) polarization (a rational ruled sextic of
  sectional genus 0),
* the Bordiga surface (plane blown up in 10 points, quartics through them,
  sectional genus 3),
* the generic projection of the del Pezzo sextic (plane blown up in 3 points,
  anticanonical, sectional genus 1).

The SZModel is the rank-3 lattice of the plane blown up in two points,
presented in the basis of its three (-1)-classes.  It admits two blow-downs,
one to the quadric and one to the plane; the restriction system of the
obstruction is read off them, and make_sz is the only place that writes them
down.
"""

from __future__ import annotations

from operator import mul

from ._record import Record, set_field
from .lattice import (
    BlowupMap,
    DivisorClass,
    IntersectionLattice,
    LatticeMismatchError,
    genus,
)
from .linalg import mat_vec


class PolarizedSurface(Record):
    """A lattice with a hyperplane class H; G.H is computed once and cannot be set."""

    def __init__(
        self, lattice: IntersectionLattice, polarization: DivisorClass, name: str
    ) -> None:
        if polarization.lattice != lattice:
            raise LatticeMismatchError(
                f"polarization of {name!r} lives on the wrong lattice"
            )
        set_field(self, "lattice", lattice)
        set_field(self, "polarization", polarization)
        set_field(self, "name", name)
        set_field(self, "gh", mat_vec(lattice.gram, polarization.coeffs))

    @property
    def degree(self) -> int:
        return sum(map(mul, self.polarization.coeffs, self.gh))

    @property
    def sectional_genus(self) -> int:
        return genus(self.polarization)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "lattice": self.lattice.to_json_dict(),
            "polarization": list(self.polarization.coeffs),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PolarizedSurface":
        lat = IntersectionLattice.from_json_dict(d["lattice"])
        return PolarizedSurface(
            lattice=lat, polarization=lat(d["polarization"]), name=d["name"]
        )


def _f0_lattice() -> IntersectionLattice:
    # hyperbolic plane: the two rulings of a smooth quadric
    return IntersectionLattice(
        name="F0",
        basis=("f1", "f2"),
        gram=((0, 1), (1, 0)),
        canonical_coeffs=(-2, -2),
    )


def _plane_lattice() -> IntersectionLattice:
    return IntersectionLattice(
        name="P2",
        basis=("L",),
        gram=((1,),),
        canonical_coeffs=(-3,),
    )


def make_f0_sextic() -> PolarizedSurface:
    """The quadric embedded by the (1,3) system, then generically projected.

    Degree 2*1*3 = 6, sectional genus 0.  The f2 ruling maps to the lines of
    the image, the f1 ruling to twisted cubics.
    """
    lat = _f0_lattice()
    return PolarizedSurface(lattice=lat, polarization=lat((1, 3)), name="f0_sextic")


def make_bordiga() -> PolarizedSurface:
    """Bordiga surface: Bl_10 P^2 embedded by quartics through the points.

    Degree 16 - 10 = 6, sectional genus 3.
    """
    return make_blowup_plane(10, (4,) + (-1,) * 10, "bordiga")


def make_dp6() -> PolarizedSurface:
    """Del Pezzo sextic: Bl_3 P^2, anticanonically embedded, then projected.

    Degree 9 - 3 = 6, sectional genus 1.  The six lines are passed around
    explicitly where a curve cone is required.
    """
    return make_blowup_plane(3, (3, -1, -1, -1), "dp6")


def dp6_line_classes(lat: IntersectionLattice) -> tuple[DivisorClass, ...]:
    """The six (-1)-lines of the del Pezzo sextic: E_i and L - E_i - E_j."""
    es = [lat((0, 1, 0, 0)), lat((0, 0, 1, 0)), lat((0, 0, 0, 1))]
    ls = [
        lat((1, -1, -1, 0)),
        lat((1, -1, 0, -1)),
        lat((1, 0, -1, -1)),
    ]
    return tuple(es + ls)


def make_blowup_plane(
    n_points: int, polarization: tuple[int, ...], name: str | None = None
) -> PolarizedSurface:
    """The plane blown up in n_points, with a chosen polarization.

    The lattice Bl{n}P2 is in the standard presentation (L, E1, ..., En) with
    gram diag(1, -1, ..., -1) and K = -3L + E1 + ... + En; name names the
    surface.
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    rank = n_points + 1
    lat = IntersectionLattice(
        name=f"Bl{n_points}P2",
        basis=("L",) + tuple(f"E{i}" for i in range(1, rank)),
        gram=tuple(
            tuple((1 if i == j == 0 else -1 if i == j else 0) for j in range(rank))
            for i in range(rank)
        ),
        canonical_coeffs=(-3,) + (1,) * n_points,
    )
    return PolarizedSurface(
        lattice=lat,
        polarization=lat(polarization),
        name=name or f"blowup_plane_{n_points}",
    )


class SZModel(Record):
    """Plane blown up in two points, in the basis of its three (-1)-classes.

    Basis (F1, F2, M): the two point exceptionals and the strict transform of
    the line joining the points.  Contracting M is the blow-down to the
    quadric; contracting F1 and F2 is the blow-down to the plane.  Both
    blow-downs are carried as validated BlowupMap values, and a class is
    pulled back from one side exactly when it is orthogonal to that side's
    exceptionals.  The lattice is the blow-downs' shared target, derived
    from them.
    """

    def __init__(self, from_f0: BlowupMap, from_plane: BlowupMap) -> None:
        if from_f0.target != from_plane.target:
            raise LatticeMismatchError("the two pullbacks land on different lattices")
        set_field(self, "from_f0", from_f0)
        set_field(self, "from_plane", from_plane)
        set_field(self, "lattice", from_f0.target)

    @property
    def f0(self) -> IntersectionLattice:
        return self.from_f0.source

    @property
    def plane(self) -> IntersectionLattice:
        return self.from_plane.source


def make_sz() -> SZModel:
    lat = IntersectionLattice(
        name="SZ",
        basis=("F1", "F2", "M"),
        gram=((-1, 0, 1), (0, -1, 1), (1, 1, -1)),
        canonical_coeffs=(-2, -2, -3),
    )
    from_f0 = BlowupMap(
        source=_f0_lattice(),
        target=lat,
        matrix=((1, 0), (0, 1), (1, 1)),
        exceptional_classes=(lat((0, 0, 1)),),
    )
    from_plane = BlowupMap(
        source=_plane_lattice(),
        target=lat,
        matrix=((1,), (1,), (1,)),
        exceptional_classes=(lat((1, 0, 0)), lat((0, 1, 0))),
    )
    return SZModel(from_f0=from_f0, from_plane=from_plane)
