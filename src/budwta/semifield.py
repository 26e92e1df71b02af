"""Exact arithmetic over the supported commutative semifields.

Four weight structures are available, selected by a runtime tag:

* ``rational``  -- (Q, +, *, 0, 1), actually a field
* ``boolean``   -- ({0,1}, or, and, 0, 1)
* ``maxtimes``  -- (Q>=0, max, *, 0, 1)
* ``tropical``  -- (Q + {inf}, min, +, inf, 0)

All values are exact: rationals are `fractions.Fraction`, the tropical
infinity is a distinguished value, and equality is decidable everywhere.
No floats appear anywhere in this package.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RATIONAL = "rational"
BOOLEAN = "boolean"
MAXTIMES = "maxtimes"
TROPICAL = "tropical"

KINDS = (RATIONAL, BOOLEAN, MAXTIMES, TROPICAL)


class SemifieldError(ValueError):
    """Misuse of semifield arithmetic: mixed kinds or inverse of zero."""


class WeightSyntaxError(ValueError):
    """The given text does not denote a weight of the requested semifield."""


# Internal value domains per kind:
#   rational  Fraction
#   boolean   bool
#   maxtimes  Fraction >= 0
#   tropical  Fraction, or None standing for +infinity (the semifield zero)
_Value = Union[Fraction, bool, None]


@dataclass(frozen=True)
class Weight:
    kind: str
    value: _Value

    def is_zero(self) -> bool:
        if self.kind == BOOLEAN:
            return self.value is False
        if self.kind == TROPICAL:
            return self.value is None
        return self.value == 0

    def is_one(self) -> bool:
        if self.kind == BOOLEAN:
            return self.value is True
        if self.kind == TROPICAL:
            return self.value == 0
        return self.value == 1

    def plus(self, other: "Weight") -> "Weight":
        _same_kind(self, other)
        k = self.kind
        if k == RATIONAL:
            return Weight(k, self.value + other.value)
        if k == BOOLEAN:
            return Weight(k, self.value or other.value)
        if k == MAXTIMES:
            return Weight(k, max(self.value, other.value))
        # tropical: min, with None = +inf as the neutral element
        if self.value is None:
            return other
        if other.value is None:
            return self
        return Weight(k, min(self.value, other.value))

    def times(self, other: "Weight") -> "Weight":
        _same_kind(self, other)
        k = self.kind
        if k == BOOLEAN:
            return Weight(k, self.value and other.value)
        if k == TROPICAL:
            if self.value is None or other.value is None:
                return Weight(k, None)
            return Weight(k, self.value + other.value)
        return Weight(k, self.value * other.value)

    def reciprocal(self) -> "Weight":
        if self.is_zero():
            raise SemifieldError("zero has no multiplicative inverse")
        k = self.kind
        if k == BOOLEAN:
            return self
        if k == TROPICAL:
            return Weight(k, -self.value)
        return Weight(k, 1 / Fraction(self.value))

    def __str__(self) -> str:
        return format_weight(self)


def _same_kind(a: Weight, b: Weight) -> None:
    if a.kind != b.kind:
        raise SemifieldError(f"mixed semifield kinds: {a.kind} vs {b.kind}")


def zero(kind: str) -> Weight:
    _check_kind(kind)
    if kind == BOOLEAN:
        return Weight(kind, False)
    if kind == TROPICAL:
        return Weight(kind, None)
    return Weight(kind, Fraction(0))


def one(kind: str) -> Weight:
    _check_kind(kind)
    if kind == BOOLEAN:
        return Weight(kind, True)
    if kind == TROPICAL:
        return Weight(kind, Fraction(0))
    return Weight(kind, Fraction(1))


def from_fraction(kind: str, x: Union[int, Fraction]) -> Weight:
    """Build a weight from an exact number (boolean takes 0/1)."""
    _check_kind(kind)
    x = Fraction(x)
    if kind == BOOLEAN:
        if x == 0:
            return Weight(kind, False)
        if x == 1:
            return Weight(kind, True)
        raise WeightSyntaxError(
            f"boolean weight must be 0 or 1, got {_number_text(x)}"
        )
    if kind == MAXTIMES and x < 0:
        raise WeightSyntaxError(
            f"maxtimes weight must be non-negative, got {_number_text(x)}"
        )
    return Weight(kind, x)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise WeightSyntaxError(f"unknown semifield kind: {kind!r}")


# Weight text grammar: integers, "p/q" with q > 0, "inf" (tropical only),
# "0"/"1" for booleans.  Used verbatim by the .wta format and the CLI.
_NUM_RE = re.compile(r"^-?\d+(/\d+)?$")

# int <-> str conversions refuse more than 4300 digits (sys.int_info);
# Decimal converts exactly at any length, so weight text goes through it.


def _number_text(x: Fraction) -> str:
    num = str(decimal.Decimal(x.numerator))
    if x.denominator == 1:
        return num
    return f"{num}/{decimal.Decimal(x.denominator)}"


def parse_weight(text: str, kind: str) -> Weight:
    _check_kind(kind)
    text = text.strip()
    if text == "inf":
        if kind != TROPICAL:
            raise WeightSyntaxError('"inf" is only a tropical weight')
        return zero(TROPICAL)
    if not _NUM_RE.match(text):
        raise WeightSyntaxError(f"malformed weight: {text!r}")
    num, _, den = text.partition("/")
    try:
        x = Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1")))
    except ZeroDivisionError:
        raise WeightSyntaxError(f"zero denominator in weight: {text!r}") from None
    return from_fraction(kind, x)


def format_weight(w: Weight) -> str:
    if w.kind == BOOLEAN:
        return "1" if w.value else "0"
    if w.kind == TROPICAL and w.value is None:
        return "inf"
    return _number_text(w.value)
