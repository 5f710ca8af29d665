"""Degree test certifying negative log Kodaira dimension of a complement.

For a surface S of degree deg_s in 3-space whose non-normal locus is a curve
of degree deg_gamma, any member of a pluri-log-canonical system of the
complement cuts out, on a general plane, a curve of degree n * deg_s with
multiplicity at least n along the plane trace of the double curve (the
multiplicity 2 along the curve is fixed by the generic projection).  Bezout
on the plane then forces

    n * deg_s >= n * deg_gamma,

so deg_s < deg_gamma makes every such system empty: the log Kodaira dimension
is negative, certified by a single integer inequality.  deg_s >= deg_gamma
proves nothing either way; the certificate says INCONCLUSIVE.
"""

from __future__ import annotations

from ._record import Record, set_field
from .projection import DOUBLE_LOCUS_MULTIPLICITY


class NegativityCertificate(Record):
    """The degree test on (deg_s, deg_gamma); the verdict is derived from them."""

    multiplicity = DOUBLE_LOCUS_MULTIPLICITY

    def __init__(self, deg_s: int, deg_gamma: int) -> None:
        if deg_s <= 0:
            raise ValueError("surface degree must be positive")
        if deg_gamma <= 0:
            raise ValueError("double curve degree must be positive")
        verdict = "NEGATIVE_CERTIFIED" if deg_s < deg_gamma else "INCONCLUSIVE"
        set_field(self, "deg_s", deg_s)
        set_field(self, "deg_gamma", deg_gamma)
        set_field(self, "verdict", verdict)

    @property
    def inequality(self) -> str:
        op = "<" if self.verdict == "NEGATIVE_CERTIFIED" else ">="
        return f"{self.deg_s} {op} {self.deg_gamma}"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "inequality": self.inequality,
            "deg_s": self.deg_s,
            "deg_gamma": self.deg_gamma,
            "multiplicity": self.multiplicity,
        }


def negativity_certificate(deg_s: int, deg_gamma: int) -> NegativityCertificate:
    """Certify negativity when deg_s < deg_gamma; otherwise INCONCLUSIVE."""
    return NegativityCertificate(deg_s, deg_gamma)
