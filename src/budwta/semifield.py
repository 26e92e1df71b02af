"""Exact arithmetic over the supported commutative semifields.

Four weight structures are available, one `Semifield` object each:

* ``RATIONAL``  -- (Q, +, *, 0, 1), actually a field
* ``BOOLEAN``   -- ({0,1}, or, and, 0, 1)
* ``MAXTIMES``  -- (Q>=0, max, *, 0, 1)
* ``TROPICAL``  -- (Q + {inf}, min, +, inf, 0)

Weights are raw values: rationals are `fractions.Fraction`, booleans are
`bool`, and the tropical infinity is `None`.  A value does not know its
semifield; the object that operates on it does, and membership is checked
where weights enter an automaton.  Equality is decidable everywhere and no
floats appear anywhere in this package.
"""

from __future__ import annotations

import decimal
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

Value = Union[Fraction, bool, None]


class SemifieldError(ValueError):
    """Misuse of semifield arithmetic: a foreign weight or inverse of zero."""


class WeightSyntaxError(ValueError):
    """The given text does not denote a weight of the requested semifield."""


@dataclass(frozen=True, eq=False)
class Semifield:
    """A commutative semifield over raw values; ``str()`` is its name."""

    name: str
    zero: Value
    one: Value
    plus: Callable[[Value, Value], Value]
    times: Callable[[Value, Value], Value]
    _inverse: Callable[[Value], Value]
    contains: Callable[[object], bool]  # is the value a weight of this semifield
    from_fraction: Callable[[Union[int, Fraction]], Value]

    def inv(self, x: Value) -> Value:
        if x == self.zero:
            raise SemifieldError("zero has no multiplicative inverse")
        return self._inverse(x)

    def parse(self, text: str) -> Value:
        """Weight text: an integer, ``p/q`` with q > 0, or ``inf`` (tropical)."""
        text = text.strip()
        if text == "inf":
            if not self.contains(None):
                raise WeightSyntaxError('"inf" is only a tropical weight')
            return None
        if not _NUM_RE.match(text):
            raise WeightSyntaxError(f"malformed weight: {text[:60]!r}")
        num, _, den = text.partition("/")
        if not den:
            return self.from_fraction(_int(num))
        d = _int(den)
        if not d:  # before Fraction, whose error text prints the numerator
            raise WeightSyntaxError(f"zero denominator in weight: {text[:60]!r}")
        return self.from_fraction(Fraction(_int(num), d))

    def __str__(self) -> str:
        return self.name


def _zero_or_one(x: Union[int, Fraction]) -> bool:
    if x == 0 or x == 1:
        return x == 1
    raise WeightSyntaxError(
        f"boolean weight must be 0 or 1, got {_number_text(Fraction(x))[:60]}"
    )


def _non_negative(x: Union[int, Fraction]) -> Fraction:
    x = Fraction(x)
    if x < 0:
        raise WeightSyntaxError(
            f"maxtimes weight must be non-negative, got {_number_text(x)[:60]}"
        )
    return x


def _min_plus(x: Value, y: Value) -> Value:  # None is +inf, the neutral element
    if x is None:
        return y
    if y is None:
        return x
    return min(x, y)


def _add_finite(x: Value, y: Value) -> Value:  # inf absorbs
    if x is None or y is None:
        return None
    return x + y


RATIONAL = Semifield(
    "rational", Fraction(0), Fraction(1), operator.add, operator.mul,
    lambda x: 1 / x, lambda x: x.__class__ is Fraction, Fraction,
)
BOOLEAN = Semifield(
    "boolean", False, True, operator.or_, operator.and_,
    lambda x: x, lambda x: x.__class__ is bool, _zero_or_one,
)
MAXTIMES = Semifield(
    "maxtimes", Fraction(0), Fraction(1), max, operator.mul,
    lambda x: 1 / x, lambda x: x.__class__ is Fraction and x >= 0, _non_negative,
)
TROPICAL = Semifield(
    "tropical", None, Fraction(0), _min_plus, _add_finite,
    operator.neg, lambda x: x is None or x.__class__ is Fraction, Fraction,
)

KINDS = (RATIONAL, BOOLEAN, MAXTIMES, TROPICAL)
_BY_NAME = {k.name: k for k in KINDS}


def get(name: str) -> Semifield:
    """The semifield called ``name`` in weight text and ``.wta`` files."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise WeightSyntaxError(f"unknown semifield kind: {name[:60]!r}") from None


# Weight text grammar: integers, "p/q" with q > 0, "inf" (tropical only),
# "0"/"1" for booleans, in ASCII digits.  Used verbatim by the .wta format
# and the CLI.
_NUM_RE = re.compile(r"^-?\d+(/\d+)?$", re.ASCII)

# int <-> str conversions refuse more than sys.get_int_max_str_digits()
# digits, 4300 by default, and a program may lower that limit to 640, the
# least it accepts.  Weight text of up to 640 digits converts directly;
# longer text is converted by halves, which keeps every piece within the
# limit and costs a few multiplications of the full size (subquadratic)
# instead of the quadratic digit-by-digit conversion.
_DIGITS = 640
_BITS = 2000  # 2^2000 has 603 decimal digits


def _int(text: str) -> int:
    """The integer of digit text with an optional minus sign, of any length."""
    if len(text) <= _DIGITS:
        return int(text)
    if text[0] == "-":
        return -_int(text[1:])
    h = len(text) // 2
    return _int(text[:-h]) * 10**h + _int(text[-h:])


def _digits(n: int) -> str:
    """The decimal text of an integer, of any length.

    A long integer is split by bits, which is cheap, and the halves are
    joined in `decimal` arithmetic, which multiplies large numbers in
    near-linear time and prints them in linear time.
    """
    if n.bit_length() <= _BITS:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    with decimal.localcontext() as ctx:  # exact: no rounding at any length
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(_decimal(n, n.bit_length()))


def _decimal(n: int, bits: int) -> decimal.Decimal:
    """``n``, of at most ``bits`` bits, as a Decimal (in an exact context)."""
    if bits <= _BITS:
        return decimal.Decimal(n)
    h = bits // 2
    hi, lo = _decimal(n >> h, bits - h), _decimal(n & ((1 << h) - 1), h)
    return hi * decimal.Decimal(2) ** h + lo


def _number_text(x: Fraction) -> str:
    if x.denominator == 1:
        return _digits(x.numerator)
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def format_weight(w: Value) -> str:
    if w is None:
        return "inf"
    if w.__class__ is bool:
        return "1" if w else "0"
    return _number_text(w)
