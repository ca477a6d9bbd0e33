"""Model parameters: thresholds a_1 < ... < a_N and pour rates p_1, ..., p_N.

All numeric code in this package is generic over the scalar type: feed
`fractions.Fraction` values for exact arithmetic, floats otherwise.  The
derived quantities are the gaps d_i = a_i - a_{i-1} (a_0 = 0) and the
cumulative rates q_i = p_1 + ... + p_i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import sub
from typing import Sequence


Number = Fraction | float | int


class ParamsError(ValueError):
    """Raised when a parameter vector violates the model constraints."""


def parse_number(token: str, exact: bool) -> Number:
    """Parse a CLI/JSON scalar: "9/8" or a decimal literal.

    In exact mode decimals are read as exact decimal fractions
    (so "1.5" becomes 3/2, not the nearest binary float).
    """
    token = token.strip()
    try:
        if exact:
            return Fraction(token)
        if "/" in token:
            num, den = token.split("/", 1)
            return float(num) / float(den)
        return float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParamsError(f"malformed number {token!r}") from exc


def format_number(x: Number) -> str | float | int:
    """Render a scalar for JSON output: Fractions as "num/den" strings."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def is_exact_scalar(x: Number) -> bool:
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def _ints_as_fractions(xs: Sequence[Number]) -> tuple[Number, ...]:
    return tuple(Fraction(x) if isinstance(x, int) and not isinstance(x, bool) else x for x in xs)


def _validate(a: tuple[Number, ...], p: tuple[Number, ...]) -> None:
    if len(a) == 0 or len(a) != len(p):
        raise ParamsError(f"need N >= 1 thresholds and as many rates, got {len(a)} and {len(p)}")
    for x in a + p:
        if isinstance(x, float) and not math.isfinite(x):
            raise ParamsError(f"parameters must be finite, got {x}")
    prev = 0
    for i, ai in enumerate(a):
        if not ai > prev:
            raise ParamsError(f"thresholds must be positive and strictly increasing: a[{i}] = {ai}")
        prev = ai
    for i, pi in enumerate(p):
        if not pi > 0:
            raise ParamsError(f"rates must be positive: p[{i}] = {pi}")


@dataclass(frozen=True)
class Params:
    """Validated parameter vector (a, p) with derived gaps and rates.

    Every input takes one path: ints become Fractions, `_validate`
    checks the vectors, d and q are derived, and a q_N that overflows is
    rejected.  d, q and is_exact are computed at construction and stored
    on the instance outside the dataclass fields, so equality, hashing
    and repr are those of (a, p) alone; a pickled instance carries them,
    and `dataclasses.replace` computes them anew.
    """

    a: tuple[Number, ...]
    p: tuple[Number, ...]

    def __post_init__(self) -> None:
        # ints count as exact, so they are stored as Fractions: `/` on
        # them would compute in float
        a, p = _ints_as_fractions(self.a), _ints_as_fractions(self.p)
        _validate(a, p)
        # gaps d_i = a_i - a_{i-1}, 1-based content (length N), and
        # cumulative rates with sentinel: q[0] = 0, q[i] = p_1 + ... + p_i
        d = (a[0] - 0,) + tuple(map(sub, a[1:], a))
        q = tuple(accumulate(p, initial=0 * p[0]))
        # an infinite q_N makes the exact-zero edge weights inf - inf
        if isinstance(q[-1], float) and not math.isfinite(q[-1]):
            raise ParamsError(
                f"cumulative rate p_1 + ... + p_N must be finite, overflows to {q[-1]}"
            )
        # the instance is frozen: its dict is written directly
        vars(self).update(a=a, p=p, d=d, q=q, is_exact=all(map(is_exact_scalar, a + p)))

    @property
    def n(self) -> int:
        return len(self.a)

    def as_float(self) -> "Params":
        return Params(tuple(float(x) for x in self.a), tuple(float(x) for x in self.p))

    def as_exact(self) -> "Params":
        """Exact view; floats convert via Fraction(float), i.e. the binary value."""
        return Params(
            tuple(x if is_exact_scalar(x) else Fraction(x) for x in self.a),
            tuple(x if is_exact_scalar(x) else Fraction(x) for x in self.p),
        )

    def normalized_rates(self) -> "Params":
        """Same thresholds, rates rescaled to sum to 1: each divided by q_N."""
        total = self.q[-1]
        return Params(self.a, tuple(pi / total for pi in self.p))

    def to_json_dict(self) -> dict:
        return {"a": [format_number(x) for x in self.a], "p": [format_number(x) for x in self.p]}

    @classmethod
    def from_json_dict(cls, obj: dict, exact: bool | None = None) -> "Params":
        def read(v) -> Number:
            if isinstance(v, bool):  # JSON true/false: an int to Python, not a number here
                raise TypeError("parameter values must be numbers")
            if isinstance(v, str):
                return parse_number(v, exact is not False)
            if exact:
                return Fraction(v) if isinstance(v, int) else Fraction(str(v))
            return v
        try:
            a, p = obj["a"], obj["p"]
            if not (isinstance(a, list) and isinstance(p, list)):
                raise TypeError("a and p must be lists")
            return cls(tuple(read(v) for v in a), tuple(read(v) for v in p))
        except (KeyError, TypeError) as exc:
            raise ParamsError(f"bad params object: {obj!r}") from exc

    @classmethod
    def parse(cls, a_tokens: Sequence[str], p_tokens: Sequence[str], exact: bool) -> "Params":
        return cls(
            tuple(parse_number(t, exact) for t in a_tokens),
            tuple(parse_number(t, exact) for t in p_tokens),
        )
