"""Dimension counts and degeneration predicates for families of projections.

Two small exact checks back the family scenarios: the dimension count that
makes a parameterization of projection centers dominant onto a Grassmannian,
and the monoid criterion (a degree-d surface with a point of multiplicity
d - 1 projects birationally from that point, hence is equivalent to a plane).
"""

from __future__ import annotations

from ._record import Record, set_field


def grassmannian_dim(k: int, n: int) -> int:
    """Dimension of the Grassmannian of k-planes in projective n-space."""
    if not (0 <= k < n):
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    return (k + 1) * (n - k)


class DimensionCount(Record):
    """A parameter space against G(k, n); lhs, rhs and the verdict are derived.

    dominant_possible records lhs >= rhs; it is a necessary condition for the
    parameterization to dominate, nothing more.
    """

    def __init__(
        self, grassmannian: tuple[int, int], param_space_dims: tuple[int, ...]
    ) -> None:
        if any(d < 0 for d in param_space_dims):
            raise ValueError("component dimensions must be nonnegative")
        lhs = sum(param_space_dims)
        rhs = grassmannian_dim(*grassmannian)
        set_field(self, "grassmannian", grassmannian)
        set_field(self, "param_space_dims", param_space_dims)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "dominant_possible", lhs >= rhs)

    def to_json_dict(self) -> dict:
        return {
            "grassmannian": list(self.grassmannian),
            "param_space_dims": list(self.param_space_dims),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "dominant_possible": self.dominant_possible,
        }


def dominance_count(dims: list[int], k: int, n: int) -> DimensionCount:
    """Compare a parameter space dimension with dim G(k, n)."""
    return DimensionCount((k, n), tuple(dims))


def monoid_ce_predicate(degree: int, multiplicity: int) -> bool:
    """Whether a degree-d point of multiplicity m makes the surface a monoid.

    True exactly when m = d - 1: projecting from such a point is birational
    onto the plane.  A multiplicity above the degree is impossible for an
    irreducible surface and is rejected.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if multiplicity < 0:
        raise ValueError("multiplicity must be >= 0")
    if multiplicity > degree:
        raise ValueError(
            f"multiplicity {multiplicity} exceeds degree {degree}"
        )
    return multiplicity == degree - 1
