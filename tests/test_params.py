import dataclasses
import json
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from liquidbin.params import Params, ParamsError, format_number, is_exact_scalar, parse_number


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
    twin = Params([1.5, 2.5], (x for x in (0.5, 1.5)))
    before = (repr(p), hash(p))
    assert p.q is p.q and p.d is p.d  # computed once
    assert p.is_exact is False
    assert (repr(p), hash(p)) == before and p == twin  # twin's d and q were never read
    assert repr(p) == "Params(a=(1.5, 2.5), p=(0.5, 1.5))"
    assert hash(p) == hash(((1.5, 2.5), (0.5, 1.5)))
    assert [f.name for f in dataclasses.fields(p)] == ["a", "p"]
    exact = Params((3, 5), (F(1, 2), 1))
    assert repr(exact) == "Params(a=(Fraction(3, 1), Fraction(5, 1)), p=(Fraction(1, 2), Fraction(1, 1)))"
    assert exact == Params((F(3), F(5)), (F(1, 2), F(1))) and hash(exact) == hash((exact.a, exact.p))
    for obj in (p, twin, exact):
        again = pickle.loads(pickle.dumps(obj))
        assert again == obj and hash(again) == hash(obj) and repr(again) == repr(obj)
        assert vars(again) == vars(obj) and {"d", "q", "is_exact"} <= vars(again).keys()
    assert again.q == (0, F(1, 2), F(3, 2)) and again.d == (F(3), F(2)) and again.is_exact
    moved = dataclasses.replace(p, a=(0.5, 3.0))
    assert (moved.d, moved.q, moved.is_exact) == ((0.5, 2.5), (0.0, 0.5, 2.0), False)
    mixed = dataclasses.replace(p, p=(F(1, 2), 1))
    assert (mixed.q, mixed.is_exact) == ((0, F(1, 2), F(3, 2)), False)
    assert dataclasses.replace(exact, a=(F(1), F(2))).d == (F(1), F(1))
    with pytest.raises(AttributeError):
        p.a = (1.0, 2.0)  # still frozen


def test_cumulative_rate_overflow_rejected():
    with pytest.raises(ParamsError, match="overflows"):
        Params((1.0, 2.0, 3.0), (1e308, 1e308, 1.0))
    big = Params((1.0, 2.0), (1e308, 7e307))  # q_N = 1.7e308 is still finite
    assert big.q[-1] == 1.7e308
    exact = Params((1, 2), (10**400, 10**400))  # exact rates never overflow
    assert exact.q[-1] == 2 * 10**400


def reference_derived(params: Params) -> tuple:
    """d, q and is_exact by the formulas of the properties that computed
    them on first use, before Params derived them at construction."""
    n = len(params.a)
    d = tuple(params.a[i] - (params.a[i - 1] if i else 0) for i in range(n))
    q = [0 * params.p[0]]
    for pi in params.p:
        q.append(q[-1] + pi)
    return d, tuple(q), all(is_exact_scalar(x) for x in params.a + params.p)


def typed(values) -> list:
    """repr and type of each value: 1 == 1.0 == F(1), but they are not the same result."""
    if isinstance(values, tuple):
        return [typed(v) for v in values]
    return [repr(values), type(values)]


f64 = np.float64
DERIVED_INPUTS = [
    ((1, 3, 4), (2, 1, 5)),
    ((F(1, 3), F(1, 2), F(7, 3)), (F(1, 7), F(2, 7), F(4, 7))),
    ((0.1, 0.30000000000000004, 2.5), (0.1, 0.2, 0.7)),
    ((f64(0.1), f64(0.3), f64(2.5)), (f64(0.1), f64(0.2), f64(0.7))),
    ((1, F(3, 2), 2.5), (0.5, F(1, 3), 2)),
    ((0.5, f64(1.5), 2.0), (f64(1e-2), 3.0, 1e2)),
    ((F(1, 2), 1.5), (1, F(1, 2))),
]


@pytest.mark.parametrize("a, p", DERIVED_INPUTS)
@pytest.mark.parametrize("wrap", [tuple, list, lambda xs: (x for x in xs)])
def test_derived_values_follow_the_reference_formulas(a, p, wrap):
    params = Params(wrap(a), wrap(p))
    assert params == Params(tuple(a), tuple(p)) and type(params.a) is type(params.p) is tuple
    derived = (params.d, params.q, params.is_exact)
    assert typed(derived) == typed(reference_derived(params))
    assert {"d", "q", "is_exact"} <= vars(params).keys()  # computed at construction


nan, inf = float("nan"), float("inf")
SIZES = "need N >= 1 thresholds and as many rates, got {} and {}"
ORDER = "thresholds must be positive and strictly increasing: a[{}] = {}"
RATE = "rates must be positive: p[{}] = {}"
OVERFLOW = "cumulative rate p_1 + ... + p_N must be finite, overflows to inf"


# messages recorded from the element-by-element validation
@pytest.mark.parametrize("a, p, message", [
    ((), (), SIZES.format(0, 0)),
    ((), (1.0,), SIZES.format(0, 1)),
    ((1.0, 2.0), (1.0,), SIZES.format(2, 1)),
    ((1.0,), (1.0, 2.0), SIZES.format(1, 2)),
    ((1.0, nan), (1.0, 1.0), "parameters must be finite, got nan"),
    ((1.0, 2.0), (inf, 1.0), "parameters must be finite, got inf"),
    ((1.0, 2.0), (1.0, -inf), "parameters must be finite, got -inf"),
    ((1.0, inf), (1.0, 1.0), "parameters must be finite, got inf"),
    ((1.0, f64("nan")), (1.0, 1.0), "parameters must be finite, got nan"),
    ((1.0, 1.0), (1.0, 1.0), ORDER.format(1, "1.0")),
    ((2.0, 1.0), (1.0, 1.0), ORDER.format(1, "1.0")),
    ((F(1), F(1)), (F(1), F(1)), ORDER.format(1, "1")),
    ((0.0, 1.0), (1.0, 1.0), ORDER.format(0, "0.0")),
    ((-0.0, 1.0), (1.0, 1.0), ORDER.format(0, "-0.0")),
    ((-1.0, 1.0), (1.0, 1.0), ORDER.format(0, "-1.0")),
    ((0, 1), (1, 1), ORDER.format(0, "0")),
    ((1.0, 2.0), (1.0, 0.0), RATE.format(1, "0.0")),
    ((1.0, 2.0), (1.0, -0.0), RATE.format(1, "-0.0")),
    ((1.0, 2.0), (-1.0, 1.0), RATE.format(0, "-1.0")),
    ((1.0, 2.0), (f64(-1.0), 1.0), RATE.format(0, "-1.0")),
    ((1, 2), (F(1), 0), RATE.format(1, "0")),
    ((1.0, 2.0, 3.0), (1e308, 1e308, 1.0), OVERFLOW),
    ((1, 2.0), (1e308, 1e308), OVERFLOW),
    ((f64(1.0), f64(2.0)), (f64(1e308), f64(1e308)), OVERFLOW),
])
def test_bad_inputs_keep_their_errors(a, p, message):
    with np.errstate(over="ignore"), pytest.raises(ParamsError) as err:
        Params(a, p)
    assert type(err.value) is ParamsError and str(err.value) == message
