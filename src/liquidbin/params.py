"""Model parameters: thresholds a_1 < ... < a_N and pour rates p_1, ..., p_N.

All numeric code in this package is generic over the scalar type: feed
`fractions.Fraction` values for exact arithmetic, floats otherwise.  The
derived quantities are the gaps d_i = a_i - a_{i-1} (a_0 = 0) and the
cumulative rates q_i = p_1 + ... + p_i.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class Params:
    """Validated parameter vector (a, p) with derived gaps and rates."""

    a: tuple[Number, ...]
    p: tuple[Number, ...]

    def __post_init__(self) -> None:
        # ints count as exact, so they are stored as Fractions: `/` on them
        # would compute in float
        object.__setattr__(self, "a", _ints_as_fractions(self.a))
        object.__setattr__(self, "p", _ints_as_fractions(self.p))
        if len(self.a) == 0 or len(self.a) != len(self.p):
            raise ParamsError(
                f"need N >= 1 thresholds and as many rates, got {len(self.a)} and {len(self.p)}"
            )
        prev = 0
        for i, ai in enumerate(self.a):
            if not ai > prev:
                raise ParamsError(f"thresholds must be positive and strictly increasing: a[{i}] = {ai}")
            prev = ai
        for i, pi in enumerate(self.p):
            if not pi > 0:
                raise ParamsError(f"rates must be positive: p[{i}] = {pi}")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def d(self) -> tuple[Number, ...]:
        """Gaps d_i = a_i - a_{i-1}, 1-based content (length N)."""
        return tuple(self.a[i] - (self.a[i - 1] if i else 0) for i in range(self.n))

    @property
    def q(self) -> tuple[Number, ...]:
        """Cumulative rates with sentinel: q[0] = 0, q[i] = p_1 + ... + p_i."""
        out = [0 * self.p[0]]
        for pi in self.p:
            out.append(out[-1] + pi)
        return tuple(out)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_scalar(x) for x in self.a + self.p)

    def as_float(self) -> "Params":
        return Params(tuple(float(x) for x in self.a), tuple(float(x) for x in self.p))

    def as_exact(self) -> "Params":
        """Exact view; floats convert via Fraction(float), i.e. the binary value."""
        return Params(
            tuple(x if is_exact_scalar(x) else Fraction(x) for x in self.a),
            tuple(x if is_exact_scalar(x) else Fraction(x) for x in self.p),
        )

    def normalized_rates(self) -> "Params":
        """Same thresholds, rates rescaled to sum to 1."""
        total = sum(self.p)
        return Params(self.a, tuple(pi / total for pi in self.p))

    def to_json_dict(self) -> dict:
        return {"a": [format_number(x) for x in self.a], "p": [format_number(x) for x in self.p]}

    @classmethod
    def from_json_dict(cls, obj: dict, exact: bool | None = None) -> "Params":
        def read(v) -> Number:
            if isinstance(v, str):
                return parse_number(v, exact is not False)
            if exact:
                return Fraction(v) if isinstance(v, int) else Fraction(str(v))
            return v
        try:
            return cls(tuple(read(v) for v in obj["a"]), tuple(read(v) for v in obj["p"]))
        except (KeyError, TypeError) as exc:
            raise ParamsError(f"bad params object: {obj!r}") from exc

    @classmethod
    def parse(cls, a_tokens: Sequence[str], p_tokens: Sequence[str], exact: bool) -> "Params":
        return cls(
            tuple(parse_number(t, exact) for t in a_tokens),
            tuple(parse_number(t, exact) for t in p_tokens),
        )
