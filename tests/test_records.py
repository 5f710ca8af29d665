"""The value behaviour of every public record class, pinned.

A record is a frozen value: built positionally or by keyword from the
parameters of its constructor, compared and hashed by those fields alone,
printed as `Name(field=value, ...)`, and never changed after construction.
Its fields are its inputs.  Values derived from them at construction (a
verdict, a count, a target lattice, an inverse matrix) are no parameter, so
they cannot be passed in to contradict the inputs, and they take no part in
equality, hashing or the repr.
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
    return (ProjectionModel(f0, f0.lattice((4, 8))),
            ProjectionModel(f0, f0.lattice((4, 10))))


def _systems():
    return (FeasibilitySystem(("x", "y"), (LinearEquation((1, 1), 2),)),
            FeasibilitySystem(("x", "y"), (LinearEquation((1, 1), -1),)))


def _sz_swapped():
    sz = make_sz()
    return SZModel(sz.from_plane, sz.from_f0)


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
                   RayKind.BIRATIONAL_CONTRACTION_FANO, (1, -1)),
    ),
    NegativityCertificate: lambda: (negativity_certificate(6, 10),
                                    negativity_certificate(6, 5)),
    LinearEquation: lambda: (LinearEquation((1, -2), 3), LinearEquation((1, -2), 4)),
    FeasibilitySystem: _systems,
    ChainLine: lambda: (
        ChainLine("d1", (1, 1), -1, combination=(("eq1", 1),)),
        ChainLine("z1", (1, 0), 0, source="eq1", variable="x"),
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
    (NegativityCertificate, "verdict"),
    (DimensionCount, "lhs"),
    (DimensionCount, "rhs"),
    (DimensionCount, "dominant_possible"),
    (FeasibilityCertificate, "status"),
    (RayVerdict, "assumption"),
    (ChainLine, "kind"),
    (ProjectionModel, "deg_gamma"),
    (SZModel, "lattice"),
    (BasisChange, "new"),
    (BasisChange, "inverse"),
    (Scenario, "name"),
    (Scenario, "kind"),
    (ScenarioReport, "verdicts"),
    (ScenarioReport, "overall"),
])
def test_derived_rows_take_no_part_in_equality(cls, derived):
    a, _ = CASES[cls]()
    b = cls(**_kwargs(a))
    object.__setattr__(b, derived, object())
    assert getattr(a, derived) != getattr(b, derived)
    assert a == b and repr(a) == repr(b)
    if _hashable(a):
        assert hash(a) == hash(b)
    assert derived not in _fields(cls)


def test_a_record_cannot_be_built_to_contradict_itself():
    """Each call once built a record whose stored verdict, count, status,
    lattice or name disagreed with the inputs beside it.  Those values are
    derived now, so the calls are type errors, and the inputs alone give the
    consistent record."""
    sz = make_sz()
    x = FeasibilitySystem(("x",), (LinearEquation((1,), 1),))
    dp6 = builtin_scenario("dp6").config
    for contradiction in (
        lambda: NegativityCertificate("NEGATIVE_CERTIFIED", 10, 6),
        lambda: DimensionCount((1, 3), (1, 2), 99, 0, True),
        lambda: FeasibilityCertificate(x, "UNKNOWN_UP_TO_BOUND", witness=(1,), bound=0),
        lambda: SZModel(sz.f0, sz.from_f0, sz.from_plane),
        lambda: Scenario("renamed", "projection", dp6),
    ):
        with pytest.raises(TypeError):
            contradiction()
    assert NegativityCertificate(10, 6).inequality == "10 >= 6"
    assert DimensionCount((1, 3), (1, 2)).to_json_dict()["lhs"] == 3
    assert FeasibilityCertificate(x, witness=(1,), bound=0).status == "FEASIBLE"
    assert SZModel(sz.from_f0, sz.from_plane).lattice.name == "SZ"
    assert run_scenario(Scenario(dp6)).name == dp6["name"]


def test_a_contracting_divisor_goes_with_a_birational_contraction_only():
    """A verdict of another kind once carried a divisor and its effectivity
    assumption, and a birational contraction could come without one."""
    ray = make_f0_sextic().lattice((0, 1))
    for kind in set(RayKind) - {RayKind.BIRATIONAL_CONTRACTION_FANO}:
        with pytest.raises(ValueError, match=f"a {kind.value} verdict takes no contracting"):
            RayVerdict(ray, 0, -2, kind, (1, -1))
    with pytest.raises(ValueError, match="BIRATIONAL_CONTRACTION_FANO verdict needs a"):
        RayVerdict(ray, 0, -2, RayKind.BIRATIONAL_CONTRACTION_FANO)


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
        f"BasisChange(old={_F0}, matrix=((1, 1), (0, 1)), labels=('u', 'v'), "
        "name='F0b')"
    )
    assert repr(bc.new) == (
        "IntersectionLattice(name='F0b', basis=('u', 'v'), gram=((0, 1), (1, 2)), "
        "canonical_coeffs=(0, -2))"
    )
