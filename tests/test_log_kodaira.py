import pytest
from hypothesis import given
from hypothesis import strategies as st

from cremeq.log_kodaira import negativity_certificate
from cremeq.projection import DOUBLE_LOCUS_MULTIPLICITY


def test_sextic_certified():
    cert = negativity_certificate(6, 10)
    assert cert.verdict == "NEGATIVE_CERTIFIED"
    assert cert.inequality == "6 < 10"
    assert cert.multiplicity == DOUBLE_LOCUS_MULTIPLICITY == 2


def test_bordiga_and_dp6_certified():
    assert negativity_certificate(6, 7).verdict == "NEGATIVE_CERTIFIED"
    assert negativity_certificate(6, 9).verdict == "NEGATIVE_CERTIFIED"


def test_inconclusive_when_degree_reaches_curve():
    cert = negativity_certificate(10, 10)
    assert cert.verdict == "INCONCLUSIVE"
    assert cert.inequality == "10 >= 10"
    assert negativity_certificate(12, 3).verdict == "INCONCLUSIVE"


def test_validation():
    with pytest.raises(ValueError):
        negativity_certificate(0, 10)
    with pytest.raises(ValueError):
        negativity_certificate(6, 0)
    with pytest.raises(ValueError):
        negativity_certificate(-6, -10)


def test_json_shape():
    d = negativity_certificate(6, 10).to_json_dict()
    assert d == {
        "verdict": "NEGATIVE_CERTIFIED",
        "inequality": "6 < 10",
        "deg_s": 6,
        "deg_gamma": 10,
        "multiplicity": 2,
    }


@given(st.integers(1, 200), st.integers(1, 200))
def test_verdict_matches_strict_inequality(a, b):
    cert = negativity_certificate(a, b)
    assert (cert.verdict == "NEGATIVE_CERTIFIED") == (a < b)
