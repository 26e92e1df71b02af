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
