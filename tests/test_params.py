import json
import pickle
from fractions import Fraction as F

import pytest

from liquidbin.params import Params, ParamsError, format_number, parse_number


def test_validation():
    with pytest.raises(ParamsError):
        Params((), ())
    with pytest.raises(ParamsError):
        Params((F(1), F(1)), (F(1), F(1)))  # not strictly increasing
    with pytest.raises(ParamsError):
        Params((F(2), F(1)), (F(1), F(1)))
    with pytest.raises(ParamsError):
        Params((F(1),), (F(0),))
    with pytest.raises(ParamsError):
        Params((F(1), F(2)), (F(1),))


def test_derived_quantities():
    p = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
    assert p.n == 2
    assert p.d == (F(3, 2), F(1))
    assert p.q == (0, F(1, 2), F(2))
    assert p.is_exact
    assert not p.as_float().is_exact


def test_parse_number():
    assert parse_number("9/8", exact=True) == F(9, 8)
    assert parse_number("1.5", exact=True) == F(3, 2)
    assert parse_number("1.5", exact=False) == 1.5
    assert parse_number("9/8", exact=False) == 1.125
    with pytest.raises(ParamsError):
        parse_number("grape", exact=False)
    with pytest.raises(ParamsError):
        parse_number("1/0", exact=True)


def test_format_number():
    assert format_number(F(9, 8)) == "9/8"
    assert format_number(F(4, 2)) == "2"
    assert format_number(1.25) == 1.25


def test_json_roundtrip_exact():
    p = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
    blob = json.dumps(p.to_json_dict())
    assert Params.from_json_dict(json.loads(blob)) == p


def test_json_roundtrip_float():
    p = Params((1.5, 2.5), (0.1 + 0.2, 1.5))
    blob = json.dumps(p.to_json_dict())
    again = Params.from_json_dict(json.loads(blob), exact=False)
    assert again == p  # repr-faithful floats survive the trip exactly


def test_normalized_rates():
    p = Params((F(3, 2), F(5, 2)), (F(1, 2), F(3, 2)))
    norm = p.normalized_rates()
    assert sum(norm.p) == 1
    assert norm.p == (F(1, 4), F(3, 4))
    assert norm.a == p.a


def test_as_exact_and_back():
    p = Params((1.5, 2.5), (0.5, 1.5))
    exact = p.as_exact()
    assert exact.is_exact
    assert exact.as_float() == p


def test_derived_values_cached_outside_equality_and_pickling():
    p = Params((1.5, 2.5), (0.5, 1.5))
    twin = Params((1.5, 2.5), (0.5, 1.5))
    before = (repr(p), hash(p))
    assert p.q is p.q and p.d is p.d  # computed once
    assert p.is_exact is False
    assert (repr(p), hash(p)) == before and p == twin  # twin has cached nothing
    assert repr(p) == "Params(a=(1.5, 2.5), p=(0.5, 1.5))"
    for obj in (p, twin):
        again = pickle.loads(pickle.dumps(obj))
        assert again == p and hash(again) == hash(p) and repr(again) == repr(p)
        assert again.q == (0.0, 0.5, 2.0) and again.d == (1.5, 1.0) and not again.is_exact
    with pytest.raises(AttributeError):
        p.a = (1.0, 2.0)  # still frozen


def test_cumulative_rate_overflow_rejected():
    with pytest.raises(ParamsError, match="overflows"):
        Params((1.0, 2.0, 3.0), (1e308, 1e308, 1.0))
    big = Params((1.0, 2.0), (1e308, 7e307))  # q_N = 1.7e308 is still finite
    assert big.q[-1] == 1.7e308
    exact = Params((1, 2), (10**400, 10**400))  # exact rates never overflow
    assert exact.q[-1] == 2 * 10**400
