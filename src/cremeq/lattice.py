"""Divisor class lattices with exact integer intersection pairing.

A lattice here is a free Z-module with a named basis, a symmetric integer
gram matrix, and a distinguished canonical class.  Classes are coefficient
vectors against that basis; the pairing of two classes is u^T gram v and is
always an exact Python int.

Lattice identity is nominal: classes living on lattices with different names
(or different structure) never combine, even if the gram matrices happen to
agree.  This is deliberate.  Mixing coefficients of a quadric's class group
with a blown-up plane's is the kind of silent bug this package exists to rule
out.
"""

from __future__ import annotations

from operator import index, mul, ne

from ._record import Record, set_field
from .linalg import invert_unimodular, mat_mul, mat_vec


class LatticeMismatchError(ValueError):
    """Arithmetic attempted between classes of different lattices."""


class AdjunctionParityError(ValueError):
    """C.(C+K) came out odd, so the genus formula does not apply."""


class IntersectionLattice(Record):
    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        gram: tuple[tuple[int, ...], ...],
        canonical_coeffs: tuple[int, ...],
    ) -> None:
        n = len(basis)
        if len(gram) != n or any(len(row) != n for row in gram):
            raise ValueError(f"gram matrix must be {n}x{n} for basis {basis}")
        # row i against column i
        if any(map(ne, map(tuple, gram), zip(*gram))):
            raise ValueError("gram matrix must be symmetric")
        if len(canonical_coeffs) != n:
            raise ValueError("canonical class has wrong length")
        set_field(self, "name", name)
        set_field(self, "basis", basis)
        set_field(self, "gram", gram)
        set_field(self, "canonical_coeffs", canonical_coeffs)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __call__(self, coeffs) -> "DivisorClass":
        return DivisorClass(self, tuple(map(index, coeffs)))

    @property
    def canonical(self) -> "DivisorClass":
        return self(self.canonical_coeffs)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "basis": list(self.basis),
            "gram": [list(row) for row in self.gram],
            "canonical": list(self.canonical_coeffs),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "IntersectionLattice":
        return IntersectionLattice(
            name=d["name"],
            basis=tuple(d["basis"]),
            gram=tuple(tuple(index(v) for v in row) for row in d["gram"]),
            canonical_coeffs=tuple(index(v) for v in d["canonical"]),
        )


class DivisorClass(Record):
    def __init__(self, lattice: IntersectionLattice, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != lattice.dim:
            raise ValueError(
                f"class has {len(coeffs)} coefficients on a "
                f"{lattice.dim}-dimensional lattice"
            )
        set_field(self, "lattice", lattice)
        set_field(self, "coeffs", coeffs)

    def _check_same(self, other: "DivisorClass") -> None:
        if not isinstance(other, DivisorClass):
            raise TypeError("expected a DivisorClass")
        if self.lattice != other.lattice:
            raise LatticeMismatchError(
                f"classes live on different lattices: "
                f"{self.lattice.name!r} vs {other.lattice.name!r}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same(other)
        return self.lattice(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same(other)
        return self.lattice(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return self.lattice(tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "DivisorClass":
        if not isinstance(k, int):
            return NotImplemented
        return self.lattice(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

def pair(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number a.b, an exact integer."""
    a._check_same(b)
    gram = a.lattice.gram
    v = b.coeffs
    return sum(u * sum(map(mul, gram[i], v)) for i, u in enumerate(a.coeffs) if u)


def genus(c: DivisorClass) -> int:
    """Arithmetic genus from adjunction: C.(C+K)/2 + 1.

    Raises AdjunctionParityError when C.(C+K) is odd, which cannot happen on a
    surface lattice with integral canonical class but can on an arbitrary
    user-supplied gram matrix.
    """
    t = pair(c, c + c.lattice.canonical)
    if t % 2 != 0:
        raise AdjunctionParityError(f"C.(C+K) = {t} is odd; genus undefined")
    return t // 2 + 1


class BlowupMap(Record):
    """Pullback along a point blow-up (or a composite of them).

    target coefficients of a pulled-back class are matrix @ source
    coefficients.  Construction checks the three identities that make the map
    a blow-up on class groups: the pullback is an isometry, each exceptional
    is a (-1)-class orthogonal to every pullback, and the canonical classes
    satisfy K_target = pullback(K_source) + sum of exceptionals.
    """

    def __init__(
        self,
        source: IntersectionLattice,
        target: IntersectionLattice,
        matrix: tuple[tuple[int, ...], ...],  # shape target.dim x source.dim
        exceptional_classes: tuple[DivisorClass, ...],
    ) -> None:
        nt, ns = target.dim, source.dim
        if len(matrix) != nt or any(len(r) != ns for r in matrix):
            raise ValueError("pullback matrix has wrong shape")
        # row i of P^T G_target pairs column i of P (a pullback) with a class
        pt_g = mat_mul(tuple(zip(*matrix)), target.gram)
        if mat_mul(pt_g, matrix) != source.gram:
            raise ValueError("pullback is not an isometry")
        for e in exceptional_classes:
            if e.lattice != target:
                raise LatticeMismatchError("exceptional class on wrong lattice")
            if pair(e, e) != -1:
                raise ValueError("exceptional class must have self-intersection -1")
            if any(mat_vec(pt_g, e.coeffs)):
                raise ValueError("exceptional class must be orthogonal to pullbacks")
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "matrix", matrix)
        set_field(self, "exceptional_classes", exceptional_classes)
        k = self.pullback(source.canonical)
        for e in exceptional_classes:
            k = k + e
        if k.coeffs != target.canonical_coeffs:
            raise ValueError("canonical classes violate K' = p*K + sum(E)")

    def pullback(self, c: DivisorClass) -> DivisorClass:
        if c.lattice != self.source:
            raise LatticeMismatchError(
                f"pullback expects a class on {self.source.name!r}"
            )
        return self.target(mat_vec(self.matrix, c.coeffs))


def blow_up_point(L: IntersectionLattice, label: str | None = None):
    """Blow up a point: extend by an orthogonal (-1)-class E, K += E.

    Returns (new_lattice, BlowupMap).  The new basis label defaults to the
    first unused E1, E2, ...
    """
    if label is None:
        taken = set(L.basis)
        k = 1
        while f"E{k}" in taken:
            k += 1
        label = f"E{k}"
    if label in L.basis:
        raise ValueError(f"basis label {label!r} already in use")
    n = L.dim
    gram = tuple(
        tuple(list(row) + [0]) for row in L.gram
    ) + ((tuple([0] * n + [-1])),)
    L2 = IntersectionLattice(
        name=f"{L.name}+{label}",
        basis=L.basis + (label,),
        gram=gram,
        canonical_coeffs=L.canonical_coeffs + (1,),
    )
    matrix = tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n)
    ) + (tuple([0] * n),)
    e = L2(tuple([0] * n + [1]))
    return L2, BlowupMap(source=L, target=L2, matrix=matrix, exceptional_classes=(e,))


class BasisChange(Record):
    """Unimodular change of presentation of one lattice.

    The columns of matrix A are the new basis vectors in old coordinates;
    labels and name are the new presentation's.  The new lattice (gram
    A^T G A, canonical class A^-1 K) and the inverse A^-1 are derived from
    them at construction.  to_new/to_old convert classes.
    """

    def __init__(
        self,
        old: IntersectionLattice,
        matrix: tuple[tuple[int, ...], ...],
        labels: tuple[str, ...],
        name: str,
    ) -> None:
        inverse = tuple(map(tuple, invert_unimodular(matrix)))
        new = IntersectionLattice(
            name=name,
            basis=labels,
            gram=mat_mul(mat_mul(tuple(zip(*matrix)), old.gram), matrix),
            canonical_coeffs=mat_vec(inverse, old.canonical_coeffs),
        )
        set_field(self, "old", old)
        set_field(self, "matrix", matrix)
        set_field(self, "labels", labels)
        set_field(self, "name", name)
        set_field(self, "new", new)
        set_field(self, "inverse", inverse)

    def to_new(self, c: DivisorClass) -> DivisorClass:
        if c.lattice != self.old:
            raise LatticeMismatchError("class not on the source presentation")
        return self.new(mat_vec(self.inverse, c.coeffs))

    def to_old(self, c: DivisorClass) -> DivisorClass:
        if c.lattice != self.new:
            raise LatticeMismatchError("class not on the target presentation")
        return self.old(mat_vec(self.matrix, c.coeffs))


def change_basis(
    L: IntersectionLattice,
    new_basis: list[tuple[int, ...]],
    labels: tuple[str, ...],
    name: str | None = None,
) -> BasisChange:
    """Re-present L in the basis given by new_basis (vectors in old coords).

    The matrix must be unimodular; gram transforms as A^T G A and the
    canonical class by A^{-1}.
    """
    n = L.dim
    if len(new_basis) != n or len(labels) != n:
        raise ValueError("need exactly dim basis vectors and labels")
    for j, v in enumerate(new_basis):
        if len(v) != n:
            raise ValueError(f"basis vector {j} has {len(v)} coordinates, need {n}")
    # columns = new basis vectors
    return BasisChange(L, tuple(zip(*new_basis)), labels, name or f"{L.name}#rebased")
