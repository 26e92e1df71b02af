import random
from fractions import Fraction

import pytest

from budwta import semifield as sf, terms
from budwta.automaton import Wta
from budwta.congruence import (
    BoundedContextOracle,
    build_syntactic_quotient,
    class_of,
    congruent,
)
from budwta.minimize import scalar_basis
from budwta.scalar import Monomial, format_monomial, parse_monomial
from budwta.terms import RankedAlphabet, Tree

from corpus import candidate_set, random_slim_budet

SIG = RankedAlphabet([("alpha", 0), ("sigma", 2)])


def rat(x):
    return sf.RATIONAL.from_fraction(Fraction(x))


def test_zero_monomials_are_equal(even_odd):
    # all zero monomials denote the zero element: the class of the zero
    # language, whatever the tree
    qt = build_syntactic_quotient(even_odd)
    a = Monomial(sf.RATIONAL.zero, Tree("alpha"))
    b = Monomial(sf.RATIONAL.zero, terms.parse_tree("sigma(alpha,alpha)", SIG))
    assert class_of(qt, a) is None and class_of(qt, b) is None
    assert congruent(qt, a, b)
    with pytest.raises(sf.SemifieldError):
        class_of(qt, Monomial(sf.BOOLEAN.zero, Tree("alpha")))
    assert not congruent(qt, a, Monomial(rat(1), Tree("alpha")))


def _by_class_of(a):
    qt = build_syntactic_quotient(a)
    return lambda m1, m2: class_of(qt, m1) == class_of(qt, m2)


def _by_oracle(a):
    return BoundedContextOracle(a, 2).congruent


@pytest.mark.parametrize("decider", [_by_class_of, _by_oracle], ids=["class_of", "oracle"])
def test_monomial_weight_is_read_before_its_tree(even_odd, decider):
    # the weight is checked first, and a zero weight is the zero class
    # whatever its tree, which is never looked at: beta is no symbol here
    decide = decider(even_odd)
    zero, one = sf.RATIONAL.zero, rat(1)
    stray = Tree("beta")
    assert decide(Monomial(zero, stray), Monomial(zero, Tree("alpha")))
    assert not decide(Monomial(zero, stray), Monomial(one, Tree("alpha")))
    assert not decide(Monomial(one, Tree("alpha")), Monomial(zero, stray))
    with pytest.raises(sf.SemifieldError):
        decide(Monomial(sf.BOOLEAN.one, stray), Monomial(zero, stray))
    with pytest.raises(sf.SemifieldError):
        decide(Monomial(zero, stray), Monomial(sf.BOOLEAN.zero, stray))
    # m1 is read whole before m2
    with pytest.raises(terms.TermError):
        decide(Monomial(one, stray), Monomial(sf.BOOLEAN.one, stray))


def test_parse_format_monomial():
    m = parse_monomial("1/2.sigma(alpha,alpha)", SIG, sf.RATIONAL)
    assert m.weight == rat(Fraction(1, 2))
    assert m.tree is terms.parse_tree("sigma(alpha,alpha)", SIG)
    assert format_monomial(m) == "1/2.sigma(alpha,alpha)"
    with pytest.raises(terms.TermError):
        parse_monomial("sigma(alpha,alpha)", SIG, sf.RATIONAL)


def test_parse_memo_keys_the_text_and_the_semifield():
    alphabet = RankedAlphabet([("alpha", 0), ("sigma", 2)])
    m = parse_monomial("2.sigma(alpha,alpha)", alphabet, sf.RATIONAL)
    assert parse_monomial("2.sigma(alpha,alpha)", alphabet, sf.RATIONAL) is m
    assert m.tree is terms.parse_tree("sigma(alpha,alpha)", alphabet)
    assert parse_monomial("2.sigma(alpha,alpha)", SIG, sf.RATIONAL) is not m
    # the same text in another semifield is its own entry: 2 is no boolean
    errors = []
    for _ in range(2):
        with pytest.raises(sf.WeightSyntaxError) as error:
            parse_monomial("2.sigma(alpha,alpha)", alphabet, sf.BOOLEAN)
        errors.append(str(error.value))
    assert errors[0] == errors[1]
    one = parse_monomial("2.sigma(alpha,alpha)", alphabet, sf.MAXTIMES)
    assert one == m and one is not m and one.tree is m.tree
    assert list(alphabet._monomials) == [("2.sigma(alpha,alpha)", sf.RATIONAL),
                                         ("2.sigma(alpha,alpha)", sf.MAXTIMES)]


def test_equal_cardinality_of_reduced_generating_sets():
    # the basis has one element per live block, whichever generating set
    # it is read from: reversing the state order reverses the candidates
    rng = random.Random(41)
    for i in range(48):
        kind = sf.KINDS[i % 4]
        binary = i % 6 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        qt = build_syntactic_quotient(a)
        basis = scalar_basis(a, qt)
        assert len(basis) == len(qt.blocks)
        for _, cls in candidate_set(a, qt):
            assert sum(b[0] == cls[0] for _, b in basis) == 1
        rev = Wta(a.alphabet, a.states[::-1], a.kind, a.delta, a.final)
        assert len(scalar_basis(rev, build_syntactic_quotient(rev))) == len(basis)
