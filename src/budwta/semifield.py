"""Exact arithmetic over the supported commutative semifields.

Four weight structures are available, one `Semifield` object each:

* ``RATIONAL``  -- (Q, +, *, 0, 1), actually a field
* ``BOOLEAN``   -- ({0,1}, or, and, 0, 1)
* ``MAXTIMES``  -- (Q>=0, max, *, 0, 1)
* ``TROPICAL``  -- (Q + {inf}, min, +, inf, 0)

Weights are raw values: rationals are `fractions.Fraction`, booleans are
`bool`, and the tropical infinity is `None`.  A value does not know its
semifield; the object that operates on it does, and membership is checked
where weights enter an automaton.  No floats appear in this package.

Arithmetic, order, equality and weight text read each `Fraction`'s two
integer parts, without `Fraction`'s numeric-tower dispatch (Knuth, TAOCP
vol. 2, §4.5.1): ⊗, inverse and rational ⊕ build the reduced result once,
from coprime parts; max-times and tropical ⊕ compare n1*d2 with n2*d1 and
keep the first value on a tie, as ``max`` and ``min`` do.  Every result is
an exact `Fraction` whose denominator is positive and coprime to its
numerator; zero is ``0/1``.  So `eq`, the one equality of weights, compares
two values of one semifield by their parts (`True`, `False` and `None` by
identity); a value that broke these rules would differ from an equal one,
in `eq` and ``hash``, without any error.  `Semifield.product` multiplies
many weights: the rational kinds multiply all the parts and reduce once,
and tropical adds them over one common denominator and reduces once.
`Semifield.power_product` multiplies weights each raised to a count, the
weight of a run folded per distinct weight: the rational kinds raise the
parts apart, and tropical scales each weight by its count, before the one
reduction.
"""

from __future__ import annotations

import decimal
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

Value = Union[Fraction, bool, None]


class SemifieldError(ValueError):
    """Misuse of semifield arithmetic: a foreign weight or inverse of zero."""


class WeightSyntaxError(ValueError):
    """The given text does not denote a weight of the requested semifield."""


@dataclass(frozen=True, eq=False)
class Semifield:
    """A commutative semifield over raw values; ``str()`` is its name.

    ``product`` is the ⊗ of many weights, and ``power_product`` the ⊗ of
    each weight of (weight, count) pairs raised to its count, a count of 0
    giving `one`; each gives the value that folding ``times`` over the same
    factors gives, built with one reduction."""

    name: str
    zero: Value
    one: Value
    plus: Callable[[Value, Value], Value]
    times: Callable[[Value, Value], Value]
    _inverse: Callable[[Value], Value]
    contains: Callable[[object], bool]  # is the value a weight of this semifield
    from_fraction: Callable[[Union[int, Fraction]], Value]
    product: Callable[[Iterable[Value]], Value]  # ⊗ of all the weights; `one` if none
    power_product: Callable[[Iterable[Sequence]], Value]  # ⊗ of w^c over the (w, c) pairs

    def inv(self, x: Value) -> Value:
        if eq(x, self.zero):
            raise SemifieldError("zero has no multiplicative inverse")
        return self._inverse(x)

    def parse(self, text: str) -> Value:
        """Weight text: an integer, ``p/q`` with q > 0, or ``inf`` (tropical)."""
        text = text.strip()
        match = _NUM_RE.fullmatch(text)
        if match is None:
            if text != "inf":
                raise WeightSyntaxError(f"malformed weight: {text[:60]!r}")
            if not self.contains(None):
                raise WeightSyntaxError('"inf" is only a tropical weight')
            return None
        num, den = match.groups()
        if den is None:
            return self.from_fraction(_int(num))
        d = _int(den)
        if not d:
            raise WeightSyntaxError(f"zero denominator in weight: {text[:60]!r}")
        n = _int(num)
        g = _gcd(n, d)
        return self.from_fraction(_fraction(n // g, d // g))

    def __str__(self) -> str:
        return self.name


_new = object.__new__
_gcd = math.gcd


def _fraction(n: int, d: int) -> Fraction:
    """The `Fraction` n/d of coprime ``n`` and ``d`` > 0, built as is.

    This is what `Fraction`'s own arithmetic does when it knows its result
    is reduced: the two slots are set and no gcd is taken.
    """
    x = _new(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _exact(x: Union[int, Fraction]) -> Fraction:
    """An int as a `Fraction`, built as is; a `Fraction` passes through.
    Any other class, a `bool` say, goes through `Fraction` itself."""
    cls = x.__class__
    if cls is Fraction:
        return x
    return _fraction(x, 1) if cls is int else Fraction(x)


def _mul(x: Fraction, y: Fraction) -> Fraction:
    """x * y: each numerator reduced against the other denominator."""
    na, da = x._numerator, x._denominator
    nb, db = y._numerator, y._denominator
    g = _gcd(na, db)
    if g > 1:
        na //= g
        db //= g
    g = _gcd(nb, da)
    if g > 1:
        nb //= g
        da //= g
    return _fraction(na * nb, da * db)


def _add(x: Fraction, y: Fraction) -> Fraction:
    """x + y over the lcm of the denominators, reduced by its one common
    factor with the numerator's sum."""
    na, da = x._numerator, x._denominator
    nb, db = y._numerator, y._denominator
    g = _gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


def _reciprocal(x: Fraction) -> Fraction:  # x is not zero
    n, d = x._numerator, x._denominator
    return _fraction(d, n) if n > 0 else _fraction(-d, -n)


def _negative(x: Fraction) -> Fraction:
    return _fraction(-x._numerator, x._denominator)


def _product(xs: Iterable[Fraction]) -> Fraction:
    """The product of all the numerators over that of all the
    denominators, reduced once."""
    n = d = 1
    for x in xs:
        n *= x._numerator
        d *= x._denominator
    g = _gcd(n, d)
    return _fraction(n // g, d // g)


def _power_product(pairs: Iterable[Sequence]) -> Fraction:
    """The product of each numerator raised to its count over that of each
    denominator raised to its count, reduced once.  The parts of each
    weight are coprime, so a prime that divides both products divides the
    product of the numerators and that of the denominators of the weights
    themselves; when these two small products are coprime, the powers are,
    and the gcd of the large ones is not taken."""
    n = d = base_n = base_d = 1
    for x, c in pairs:
        xn, xd = x._numerator, x._denominator
        n *= xn**c
        d *= xd**c
        base_n *= xn
        base_d *= xd
    if _gcd(base_n, base_d) == 1:
        return _fraction(n, d)
    g = _gcd(n, d)
    return _fraction(n // g, d // g)


def _scaled_sum(pairs: Iterable[Sequence]) -> Value:
    """The tropical power product, the sum of each weight times its count:
    all of them over the product of their denominators, reduced once; inf
    with a nonzero count absorbs."""
    n, d = 0, 1
    for x, c in pairs:
        if x is None:
            if c:
                return None
            continue
        xd = x._denominator
        n = n * xd + c * x._numerator * d
        d *= xd
    g = _gcd(n, d)
    return _fraction(n // g, d // g)


def _all_raised(pairs: Iterable[Sequence]) -> bool:
    """The boolean power product: false when a false weight has a nonzero
    count."""
    return all(x or not c for x, c in pairs)


def _sum(xs: Iterable[Value]) -> Value:
    """The tropical product of many weights, their sum: all the fractions
    over the product of their denominators, reduced once; inf absorbs."""
    n, d = 0, 1
    for x in xs:
        if x is None:
            return None
        xd = x._denominator
        n = n * xd + x._numerator * d
        d *= xd
    g = _gcd(n, d)
    return _fraction(n // g, d // g)


def _zero_or_one(x: Union[int, Fraction]) -> bool:
    n, d = (x._numerator, x._denominator) if x.__class__ is Fraction else (x, 1)
    if d == 1 and (n == 0 or n == 1):
        return n == 1
    raise WeightSyntaxError(
        f"boolean weight must be 0 or 1, got {_number_text(Fraction(x))[:60]}"
    )


def _non_negative(x: Union[int, Fraction]) -> Fraction:
    x = _exact(x)
    if x._numerator < 0:
        raise WeightSyntaxError(
            f"maxtimes weight must be non-negative, got {_number_text(x)[:60]}"
        )
    return x


def eq(x: Value, y: Value) -> bool:
    """Equality of two values of one semifield: `Fraction`s by their parts,
    anything else by identity."""
    if x.__class__ is Fraction and y.__class__ is Fraction:
        return x._numerator == y._numerator and x._denominator == y._denominator
    return x is y


def parts(x: Value) -> tuple:
    """A key that equal values of one semifield share, as `eq` reads them:
    a `Fraction`'s two integer parts, any other value itself.  Hashing it
    takes no modular inverse, as ``hash`` of a `Fraction` does."""
    if x.__class__ is Fraction:
        return (x._numerator, x._denominator)
    return (x,)


def _max(x: Fraction, y: Fraction) -> Fraction:
    return y if y._numerator * x._denominator > x._numerator * y._denominator else x


def _min_plus(x: Value, y: Value) -> Value:  # None is +inf, the neutral element
    if x is None:
        return y
    if y is None:
        return x
    return y if y._numerator * x._denominator < x._numerator * y._denominator else x


def _add_finite(x: Value, y: Value) -> Value:  # inf absorbs
    if x is None or y is None:
        return None
    return _add(x, y)


RATIONAL = Semifield(
    "rational", Fraction(0), Fraction(1), _add, _mul, _reciprocal,
    lambda x: x.__class__ is Fraction, _exact, _product, _power_product,
)
BOOLEAN = Semifield(
    "boolean", False, True, operator.or_, operator.and_, lambda x: x,
    lambda x: x.__class__ is bool, _zero_or_one, all, _all_raised,
)
MAXTIMES = Semifield(
    "maxtimes", Fraction(0), Fraction(1), _max, _mul, _reciprocal,
    lambda x: x.__class__ is Fraction and x._numerator >= 0, _non_negative, _product,
    _power_product,
)
TROPICAL = Semifield(
    "tropical", None, Fraction(0), _min_plus, _add_finite, _negative,
    lambda x: x is None or x.__class__ is Fraction, _exact, _sum, _scaled_sum,
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
_NUM_RE = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)  # numerator, denominator

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
