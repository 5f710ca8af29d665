import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cremeq.family_checks import dominance_count, grassmannian_dim, monoid_ce_predicate
from cremeq.scenarios import builtin_scenario, load_scenario


def test_grassmannian_dims():
    assert grassmannian_dim(3, 7) == 16
    assert grassmannian_dim(0, 2) == 2   # lines... points of P2: dim 2
    assert grassmannian_dim(1, 3) == 4   # lines in P3


def test_grassmannian_validation():
    with pytest.raises(ValueError):
        grassmannian_dim(3, 3)
    with pytest.raises(ValueError):
        grassmannian_dim(-1, 3)


def test_dominance_count_worked_family():
    count = dominance_count([6, 6, 4], 3, 7)
    assert count.lhs == 16
    assert count.rhs == 16
    assert count.dominant_possible
    d = count.to_json_dict()
    assert d["lhs"] == d["rhs"] == 16


def test_dominance_count_short_family():
    count = dominance_count([6, 6], 3, 7)
    assert count.lhs == 12 and not count.dominant_possible
    count = dominance_count([0, 0], 0, 1)  # dimension 0 is allowed
    assert count.lhs == 0 and count.rhs == 1 and not count.dominant_possible


def test_dominance_count_validation():
    with pytest.raises(ValueError):
        dominance_count([6, -1], 3, 7)


def test_monoid_predicate():
    assert monoid_ce_predicate(6, 5)
    assert monoid_ce_predicate(2, 1)
    assert not monoid_ce_predicate(6, 4)
    assert not monoid_ce_predicate(6, 0)
    assert monoid_ce_predicate(1, 0)  # a plane: degree 1 is allowed
    assert monoid_ce_predicate(3, 3) is False  # a cone: m = d is allowed


def test_monoid_predicate_validation():
    with pytest.raises(ValueError):
        monoid_ce_predicate(0, 0)
    with pytest.raises(ValueError):
        monoid_ce_predicate(6, -1)
    with pytest.raises(ValueError, match="exceed"):
        monoid_ce_predicate(6, 7)


@given(st.integers(0, 30), st.integers(1, 30))
def test_grassmannian_dim_formula(k, extra):
    n = k + extra
    assert grassmannian_dim(k, n) == (k + 1) * (n - k)


def test_family_config_at_degree_one_loads(tmp_path):
    # the library owns the bound degree >= 1; config loading defers to it
    cfg = json.loads(json.dumps(builtin_scenario("family-open").config))
    cfg["monoid"] = {"degree": 1, "point_multiplicity": 0}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(cfg))
    assert load_scenario(path).config["monoid"] == {"degree": 1, "point_multiplicity": 0}
