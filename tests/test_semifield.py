import functools
import operator
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from budwta import semifield as sf
from budwta.automaton import Wta, WtaError
from budwta.congruence import build_syntactic_quotient, class_of
from budwta.scalar import Monomial
from budwta.semifield import (
    KINDS,
    SemifieldError,
    WeightSyntaxError,
    format_weight,
)
from budwta.terms import Tree


def w(kind, x):
    return kind.from_fraction(Fraction(x))


def test_plus_examples():
    R, B, M, T = sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL
    assert R.plus(w(R, 2), w(R, 3)) == w(R, 5)
    assert B.plus(B.one, B.one) == B.one
    assert M.plus(w(M, 2), w(M, 3)) == w(M, 3)
    assert T.plus(w(T, 2), w(T, 3)) == w(T, 2)


def test_times_examples():
    R, T = sf.RATIONAL, sf.TROPICAL
    assert R.times(w(R, 2), w(R, 2)) == w(R, 4)
    assert T.times(w(T, 2), w(T, 3)) == w(T, 5)
    for kind in KINDS:
        b = kind.one
        assert kind.times(kind.zero, b) == kind.zero


def test_reciprocal_examples():
    R, B, T = sf.RATIONAL, sf.BOOLEAN, sf.TROPICAL
    assert R.inv(w(R, 2)) == w(R, Fraction(1, 2))
    assert B.inv(B.one) == B.one
    assert T.inv(w(T, 3)) == w(T, -3)
    for kind in KINDS:
        with pytest.raises(SemifieldError):
            kind.inv(kind.zero)


def test_kind_mixing_is_an_error(even_odd):
    # a weight of another semifield is rejected where it enters: when an
    # automaton is built, and when a monomial meets an automaton
    with pytest.raises(WtaError):
        Wta(even_odd.alphabet, ("p",), sf.RATIONAL, {((), "alpha", "p"): True}, {})
    with pytest.raises(WtaError):
        Wta(even_odd.alphabet, ("p",), sf.MAXTIMES, {}, {"p": sf.TROPICAL.zero})
    qt = build_syntactic_quotient(even_odd)
    with pytest.raises(SemifieldError):
        class_of(qt, Monomial(sf.BOOLEAN.one, Tree("alpha")))


def test_parse_weight_examples():
    R, B, M, T = sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL
    assert R.parse("3/6") == w(R, Fraction(1, 2))
    assert T.parse("inf") == T.zero
    assert M.parse("2") == w(M, 2)
    assert B.parse("1") == B.one
    assert B.parse("0") == B.zero


def test_parse_weight_errors():
    with pytest.raises(WeightSyntaxError):
        sf.MAXTIMES.parse("-2")
    with pytest.raises(WeightSyntaxError):
        sf.get("unknown-kind")
    with pytest.raises(WeightSyntaxError):
        sf.RATIONAL.parse("inf")
    with pytest.raises(WeightSyntaxError):
        sf.RATIONAL.parse("1/0")
    with pytest.raises(WeightSyntaxError):
        sf.RATIONAL.parse("1.5")
    with pytest.raises(WeightSyntaxError):
        sf.BOOLEAN.parse("2")


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_weight_digits_are_ascii(kind):
    for text in ("\u0663", "1/\u0662", "-\u0661"):
        with pytest.raises(WeightSyntaxError, match="^malformed weight: "):
            kind.parse(text)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_zero_denominator_after_a_long_numerator(kind):
    # more numerator digits than int() converts to text
    with pytest.raises(WeightSyntaxError, match=f"^zero denominator in weight: '{'4' * 60}'$"):
        kind.parse("4" * 4400 + "/0")


def _outcome(f, *args):
    """The value and its type, or the error text, of ``f(*args)``."""
    try:
        v = f(*args)
    except WeightSyntaxError as e:
        return str(e)
    return v, type(v)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_parse_agrees_with_from_fraction(kind):
    """Integer text reaches ``from_fraction`` as an int, without a Fraction
    on the way: the value, its type and the error text are the same."""
    big = "7" + "0" * 4998 + "3"  # 5 000 digits: past int()'s default text limit
    cases = {"0": 0, "-0": 0, "1": 1, "-1": -1, "2": 2, "3/2": Fraction(3, 2),
             big: 7 * 10**4999 + 3, "-" + big: -(7 * 10**4999 + 3)}
    for text, x in cases.items():
        assert _outcome(kind.parse, text) == _outcome(kind.from_fraction, Fraction(x))
    if kind is sf.TROPICAL:
        assert _outcome(kind.parse, "inf") == (None, type(None))
    else:
        assert _outcome(kind.parse, "inf") == '"inf" is only a tropical weight'


def _random_weights(kind, rng, n):
    out = []
    for _ in range(n):
        if kind is sf.BOOLEAN:
            out.append(rng.choice([kind.zero, kind.one]))
        else:
            num = rng.randint(-12, 12)
            den = rng.randint(1, 9)
            x = Fraction(num, den)
            if kind is sf.MAXTIMES:
                x = abs(x)
            out.append(kind.from_fraction(x))
    return out


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_axioms_random(kind):
    rng = random.Random(20240817)
    zero = kind.zero
    one = kind.one
    plus, times = kind.plus, kind.times
    for _ in range(500):
        a, b, c = _random_weights(kind, rng, 3)
        assert plus(a, b) == plus(b, a)
        assert times(a, b) == times(b, a)
        assert plus(a, plus(b, c)) == plus(plus(a, b), c)
        assert times(a, times(b, c)) == times(times(a, b), c)
        assert times(a, plus(b, c)) == plus(times(a, b), times(a, c))
        assert plus(a, zero) == a
        assert times(a, one) == a
        assert times(a, zero) == zero
        if a != zero:
            assert times(a, kind.inv(a)) == one
        # zero-divisor freeness
        if times(a, b) == zero:
            assert a == zero or b == zero


@given(
    st.sampled_from(KINDS),
    st.integers(-50, 50),
    st.integers(1, 20),
)
def test_parse_format_roundtrip(kind, num, den):
    x = Fraction(num, den)
    if kind is sf.BOOLEAN and x not in (0, 1):
        return
    if kind is sf.MAXTIMES:
        x = abs(x)
    weight = kind.from_fraction(x)
    assert kind.parse(format_weight(weight)) == weight


def test_tropical_infinity_roundtrip():
    assert format_weight(sf.TROPICAL.zero) == "inf"
    assert sf.TROPICAL.parse("inf") == sf.TROPICAL.zero


@pytest.mark.parametrize("digits", [1, 639, 640, 641, 1281, 4300, 4301, 9000])
def test_weight_text_round_trip_at_any_length(digits):
    rng = random.Random(digits)
    text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(digits - 1))
    for weight in (text, f"-{text}", f"-1/{text}0"):
        assert format_weight(sf.RATIONAL.parse(weight)) == weight


def test_number_text_across_the_split_point():
    with localcontext() as ctx:
        ctx.prec = 10000
        for bits in (1999, 2000, 2001, 4001, 8191):
            for n in (2**bits - 1, 2**bits, 2**bits + 1):
                assert format_weight(Fraction(n)) == str(Decimal(n))
                assert format_weight(Fraction(-1, n)) == f"-1/{Decimal(n)}"


# --- ⊗, ⊕, inverse and weight text against Fraction's own operators --------

F = Fraction
BIG = 10**6  # decimal digits of the longest parts below


def test_fraction_keeps_its_parts_in_two_slots():
    """The semifields build each rational result by setting these slots."""
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def _same(got, want):
    """The same exact Fraction: value, parts, type and hash."""
    assert type(got) is Fraction
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want)


@pytest.fixture(scope="module")
def big():
    """Integers of 10^6 digits: n is odd and 2 mod 3, m is 4 mod 5, so each
    is coprime to the small parts it meets below."""
    p = 10 ** (BIG - 1)
    return p + 7, 2 * p + 9


# zero, units, integers, negative rationals, and parts with common factors
SMALL = [F(0), F(1), F(-1), F(2), F(-7), F(12), F(1, 2), F(-3, 4), F(6, 35),
         F(-14, 9), F(10, 21), F(-25, 6), F(49, 10)]

REFERENCE = {  # ⊗, ⊕ and inverse of each rational semifield, on Fractions
    "rational": (operator.mul, operator.add, lambda x: 1 / x),
    "maxtimes": (operator.mul, max, lambda x: 1 / x),
    "tropical": (operator.add, min, operator.neg),
}


def _carrier(kind, xs):
    return [abs(x) for x in xs] if kind is sf.MAXTIMES else xs


@pytest.mark.parametrize("kind", [sf.RATIONAL, sf.MAXTIMES, sf.TROPICAL], ids=str)
def test_arithmetic_agrees_with_fraction(kind, big):
    n, m = big
    large = _carrier(kind, [F(n, 3), F(-5, m), F(7 * n, 6)])
    small = _carrier(kind, SMALL)
    times, plus, inverse = REFERENCE[kind.name]
    # long parts meet small ones, and one long numerator another, so that
    # every gcd has a small operand: a gcd of two long ones is quadratic
    pairs = [(x, y) for x in small + large for y in small]
    pairs += [(y, x) for x, y in pairs] + [(large[0], large[2])]
    for x, y in pairs:
        _same(kind.times(x, y), times(x, y))
        _same(kind.plus(x, y), plus(x, y))
    for x in small + large:
        if x != kind.zero:
            _same(kind.inv(x), inverse(x))
    rng = random.Random(2101)
    for _ in range(500):
        x, y = (F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)) for _ in "xy")
        x, y = _carrier(kind, [x, y])
        _same(kind.times(x, y), times(x, y))
        _same(kind.plus(x, y), plus(x, y))
        if x:
            _same(kind.inv(x), inverse(x))


@pytest.mark.parametrize("kind", [sf.RATIONAL, sf.MAXTIMES, sf.TROPICAL], ids=str)
def test_parse_agrees_with_fraction(kind, big):
    n, _ = big
    long_den = 10**4999 + 3  # past int()'s default text limit
    cases = {"0": (0, 1), "-0": (0, 1), "0/5": (0, 5), "-0/7": (0, 7), "1": (1, 1),
             "-1": (-1, 1), "-7": (-7, 1), "1" + "0" * (BIG - 2) + "7": (n, 1), "12/1": (12, 1), "6/4": (6, 4), "-12/18": (-12, 18),
             "35/14": (35, 14), "-9/3": (-9, 3), "100/250": (100, 250),
             "3" + "0" * (BIG - 3) + "21/6": (3 * n, 6),
             "-5/1" + "0" * 4998 + "3": (-5, long_den), "5/1" + "0" * 4998 + "3": (5, long_den)}
    for text, (num, den) in cases.items():
        want = F(num, den)
        if kind is sf.MAXTIMES and want < 0:
            with pytest.raises(WeightSyntaxError, match="^maxtimes weight must be non-negative"):
                kind.parse(text)
        else:
            _same(kind.parse(text), want)
    # an int is built from its parts; a bool goes through Fraction
    for x in (0, 7, n, True, False):
        _same(kind.from_fraction(x), F(x))


PRODUCT_POOLS = {
    "rational": SMALL,
    "boolean": [False, True],
    "maxtimes": [abs(x) for x in SMALL],
    "tropical": SMALL + [None],
}


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_product_is_the_fold_of_times(kind, big):
    n, m = big
    pool = PRODUCT_POOLS[kind.name]
    rng = random.Random(2102)
    cases = [[], [kind.one], [kind.one] * 3] + [[x] for x in pool]
    cases += [[rng.choice(pool) for _ in range(rng.randint(2, 7))] for _ in range(300)]
    if kind is not sf.BOOLEAN:
        cases += [_carrier(kind, xs) for xs in ([F(n, 3)], [F(-5, m)], [F(n, 3), F(9, 7), F(-14, 3)])]
    if kind in (sf.RATIONAL, sf.MAXTIMES):  # m/1 cancels the long denominator m
        cases.append(_carrier(kind, [F(-5, m), F(-2), F(m)]))
    for xs in cases:
        got, want = kind.product(iter(xs)), functools.reduce(kind.times, xs, kind.one)
        if want.__class__ is Fraction:
            _same(got, want)
        else:
            assert got is want


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_power_product_is_the_fold_of_times(kind):
    """Each weight raised to its count, a count of 0 giving `one`, as the
    fold of ``times`` over the repeated weights gives it: in lowest terms,
    whether or not the weights' parts share a prime (2 and 1/2, 6/35 and
    49/10), zero and inf included."""
    pool = PRODUCT_POOLS[kind.name]
    rng = random.Random(2103)
    cases = [[], [(kind.one, 0)], [(kind.zero, 0)], [(kind.zero, 3)]]
    cases += [[(x, c)] for x in pool for c in (0, 1, 2, 5)]
    cases += [[(rng.choice(pool), rng.randint(0, 9)) for _ in range(rng.randint(2, 5))]
              for _ in range(300)]
    for pairs in cases:
        repeated = [x for x, c in pairs for _ in range(c)]
        got = kind.power_product([list(pair) for pair in pairs])  # lists, as the fold passes them
        want = functools.reduce(kind.times, repeated, kind.one)
        if want.__class__ is Fraction:
            _same(got, want)
        else:
            assert got is want, pairs


def test_power_product_of_large_counts():
    """A count is a plain exponent, however large: the answer of a spine of
    10^5 nodes, and tropical counts past 2^64."""
    x, y = F(2, 3), F(5, 7)
    got = sf.RATIONAL.power_product([(x, 10**5), (y, 3)])
    _same(got, F(2**10**5 * 5**3, 3**10**5 * 7**3))
    _same(sf.MAXTIMES.power_product([(F(3, 2), 10**4), (F(2), 10**4)]), F(3**10**4))
    _same(sf.TROPICAL.power_product([(F(-1, 2), 2**70), (F(1, 3), 3)]), F(-(2**69) + 1))
    assert sf.TROPICAL.power_product([(F(1), 2**70), (None, 1)]) is None


# --- equality and order by parts ----------------------------------------

# zeros, units and equal values spelt apart; a text a semifield refuses is
# left out of its values
EQ_TEXTS = ["0", "-0", "0/5", "1", "-1", "2/2", "1/2", "2/4", "-3/6", "6/4", "3/2", "inf"]


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_eq_agrees_with_fraction_equality(kind, big):
    """`eq` answers as ``==`` does on two values of one semifield: `eq`'s
    contract does not cover values of two (``Fraction(0) == False``)."""
    n, m = big
    values = [kind.zero, kind.one]
    for text in EQ_TEXTS:  # each parsed twice: equal values, two objects
        try:
            values += [kind.parse(text), kind.parse(text)]
        except WeightSyntaxError:
            pass
    if kind is not sf.BOOLEAN:
        large = _carrier(kind, [F(n, 3), F(-5, m), F(7 * n, 6), F(n + 3, 3)])
        values += large + [F(x.numerator, x.denominator) for x in large]
    assert {type(x) for x in values} == {type(kind.zero), type(kind.one)}
    pairs = [(x, y) for x in values for y in values]
    rng = random.Random(2301)
    pairs += [tuple(_random_weights(kind, rng, 2)) for _ in range(300)]
    apart = sum(x is not y and x == y for x, y in pairs)  # True and False are one each
    assert apart > 20 or kind is sf.BOOLEAN
    for x, y in pairs:
        assert sf.eq(x, y) is (x == y), (x, y)


@pytest.mark.parametrize("kind", [sf.MAXTIMES, sf.TROPICAL], ids=str)
def test_plus_keeps_the_first_of_two_equal_values(kind):
    """Max-times and tropical ⊕ return the first argument on a tie, as
    ``max`` and ``min`` do."""
    for text in ("0", "1", "2/4", "3"):
        x, y = kind.parse(text), kind.parse(text)
        assert x is not y and kind.plus(x, y) is x and kind.plus(y, x) is y
