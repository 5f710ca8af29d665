"""The value behaviour of every public record class, pinned.

A record is a frozen value: built positionally or by keyword from the
parameters of its constructor, compared and hashed by those fields alone,
printed as `Name(field=value, ...)`, and never changed after construction.
Values derived at construction (`PolarizedSurface.gh`,
`BlowupThreefold.g_gamma_w`) take no part in equality, hashing or the repr;
`BasisChange.inverse` is compared but not printed.
"""

import copy
import enum
import inspect
import pickle

import pytest

import cremeq
from cremeq.family_checks import DimensionCount, dominance_count
from cremeq.feasibility import (
    ChainLine,
    FeasibilityCertificate,
    FeasibilitySystem,
    LinearEquation,
    solve_nonneg,
)
from cremeq.lattice import (
    BasisChange,
    BlowupMap,
    DivisorClass,
    IntersectionLattice,
    change_basis,
)
from cremeq.log_kodaira import NegativityCertificate, negativity_certificate
from cremeq.projection import ProjectionModel
from cremeq.scenarios import Scenario, ScenarioReport, builtin_scenario, run_scenario
from cremeq.surfaces import PolarizedSurface, SZModel, make_dp6, make_f0_sextic, make_sz
from cremeq.threefold import BlowupThreefold, RayKind, RayVerdict


def _models():
    f0 = make_f0_sextic()
    # G.H = (3, 1): Gamma_W.H = 20 = 2 * 10 and 22 = 2 * 11
    return (ProjectionModel(f0, 10, f0.lattice((4, 8))),
            ProjectionModel(f0, 11, f0.lattice((4, 10))))


def _systems():
    return (FeasibilitySystem(("x", "y"), (LinearEquation((1, 1), 2),)),
            FeasibilitySystem(("x", "y"), (LinearEquation((1, 1), -1),)))


def _sz_swapped():
    sz = make_sz()
    return SZModel(sz.lattice, sz.from_plane, sz.from_f0)


# class -> two unequal instances, made the way the library makes them
CASES = {
    IntersectionLattice: lambda: (make_f0_sextic().lattice, make_dp6().lattice),
    DivisorClass: lambda: (make_f0_sextic().polarization,
                           make_f0_sextic().lattice((1, 2))),
    BlowupMap: lambda: (make_sz().from_f0, make_sz().from_plane),
    BasisChange: lambda: tuple(
        change_basis(make_f0_sextic().lattice, basis, ("u", "v"))
        for basis in ([(1, 0), (1, 1)], [(1, 1), (0, 1)])
    ),
    PolarizedSurface: lambda: (make_f0_sextic(), make_dp6()),
    SZModel: lambda: (make_sz(), _sz_swapped()),
    ProjectionModel: _models,
    BlowupThreefold: lambda: tuple(map(BlowupThreefold, _models())),
    RayVerdict: lambda: (
        RayVerdict(make_f0_sextic().lattice((0, 1)), 0, -2, RayKind.FIBRATION),
        RayVerdict(make_f0_sextic().lattice((0, 1)), 0, -2,
                   RayKind.BIRATIONAL_CONTRACTION_FANO, (1, -1), "assumed"),
    ),
    NegativityCertificate: lambda: (negativity_certificate(6, 10),
                                    negativity_certificate(6, 5)),
    LinearEquation: lambda: (LinearEquation((1, -2), 3), LinearEquation((1, -2), 4)),
    FeasibilitySystem: _systems,
    ChainLine: lambda: (
        ChainLine("d1", (1, 1), -1, "combination", combination=(("eq1", 1),)),
        ChainLine("z1", (1, 0), 0, "nonneg_zero", source="eq1", variable="x"),
    ),
    FeasibilityCertificate: lambda: tuple(map(solve_nonneg, _systems())),
    DimensionCount: lambda: (dominance_count([1, 2], 1, 3), dominance_count([5], 1, 3)),
    Scenario: lambda: (builtin_scenario("dp6"), builtin_scenario("bordiga")),
    ScenarioReport: lambda: (run_scenario(builtin_scenario("dp6")),
                             run_scenario(builtin_scenario("family-open"))),
}

_IDS = [cls.__name__ for cls in CASES]


def _fields(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


def _kwargs(obj) -> dict:
    return {name: getattr(obj, name) for name in _fields(type(obj))}


def _hashable(obj) -> bool:
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def test_every_public_record_class_is_covered():
    public = {
        obj for obj in map(cremeq.__dict__.get, cremeq.__all__)
        if isinstance(obj, type) and not issubclass(obj, (Exception, enum.Enum))
    }
    assert public == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=_IDS)
def test_positional_and_keyword_construction_agree(cls):
    made, _ = CASES[cls]()
    kwargs = _kwargs(made)
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert type(by_keyword) is type(by_position) is cls
    assert by_keyword == by_position == made


@pytest.mark.parametrize("cls", CASES, ids=_IDS)
def test_missing_or_unknown_argument_is_a_type_error(cls):
    kwargs = _kwargs(CASES[cls]()[0])
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{k: v for k, v in kwargs.items() if k != first})
    with pytest.raises(TypeError):
        cls(**kwargs, not_a_field=1)


@pytest.mark.parametrize("cls", CASES, ids=_IDS)
def test_equality_and_hash_follow_the_fields(cls):
    a, other = CASES[cls]()
    b = cls(**_kwargs(a))
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and not a == object()
    assert a.__eq__(object()) is NotImplemented
    # hashable exactly when its fields are: a dict field makes it unhashable
    assert _hashable(a) == _hashable(tuple(_kwargs(a).values()))
    if _hashable(a):
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, derived", [
    (PolarizedSurface, "gh"),
    (BlowupThreefold, "g_gamma_w"),
])
def test_derived_rows_take_no_part_in_equality(cls, derived):
    a, _ = CASES[cls]()
    b = cls(**_kwargs(a))
    object.__setattr__(b, derived, (0,) * len(getattr(a, derived)))
    assert getattr(a, derived) != getattr(b, derived)
    assert a == b and hash(a) == hash(b)
    assert derived not in repr(a) and derived not in _fields(cls)


@pytest.mark.parametrize("cls", CASES, ids=_IDS)
def test_fields_cannot_be_set_or_deleted(cls):
    obj, _ = CASES[cls]()
    name = _fields(cls)[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'new_name'"):
        obj.new_name = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    assert obj == CASES[cls]()[0]


@pytest.mark.parametrize("cls", CASES, ids=_IDS)
def test_copies_and_pickles_are_equal(cls):
    obj, _ = CASES[cls]()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert twin == obj


_F0 = (
    "IntersectionLattice(name='F0', basis=('f1', 'f2'), gram=((0, 1), (1, 0)), "
    "canonical_coeffs=(-2, -2))"
)


def test_repr_names_each_shown_field():
    f0 = make_f0_sextic()
    assert repr(f0.polarization) == f"DivisorClass(lattice={_F0}, coeffs=(1, 3))"
    assert repr(f0) == (
        f"PolarizedSurface(lattice={_F0}, polarization=DivisorClass(lattice={_F0}, "
        "coeffs=(1, 3)), name='f0_sextic')"
    )
    bc = change_basis(f0.lattice, [(1, 0), (1, 1)], ("u", "v"), name="F0b")
    assert repr(bc) == (
        f"BasisChange(old={_F0}, new=IntersectionLattice(name='F0b', "
        "basis=('u', 'v'), gram=((0, 1), (1, 2)), canonical_coeffs=(0, -2)), "
        "matrix=((1, 1), (0, 1)))"
    )
