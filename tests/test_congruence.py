import random
from collections import Counter
from fractions import Fraction

import pytest

from budwta import automaton, semifield as sf, terms
from budwta.automaton import PreconditionError, Wta, slim
from budwta.congruence import (
    BoundedContextOracle,
    brute_force_congruent,
    build_syntactic_quotient,
    class_of,
    congruent,
)
from budwta.minimize import equivalent, minimize
from budwta.scalar import Monomial, parse_monomial
from budwta.terms import Tree

from corpus import (
    chain,
    count_symbol,
    decompose_elementary,
    enumerate_trees,
    layered,
    random_monomial,
    random_slim_budet,
    reference_quotient,
    small_corpus,
    split_states,
    substitute,
    unary_chain,
)


def rat(x):
    return sf.RATIONAL.from_fraction(Fraction(x))


def t(text, a):
    return terms.parse_tree(text, a.alphabet)


def mono(w, text, a):
    return Monomial(rat(w), t(text, a))


# --- building the quotient ------------------------------------------------


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_proportional_copies_share_a_block(kind):
    """A split automaton has the original's language, hence as many live
    blocks (its degree): anchoring must not separate a state from its
    rescaled copy."""
    rng = random.Random(f"copies:{kind}")
    for a in small_corpus(kind, 1000, seed=1):
        b = split_states(rng, a)
        assert len(build_syntactic_quotient(b).blocks) == len(
            build_syntactic_quotient(a).blocks
        ), automaton.format_wta(b)


def _differential_inputs(kind):
    rng = random.Random(f"reference:{kind}")
    for a in small_corpus(kind, 150, seed=3):
        yield a
        yield split_states(rng, a)
    yield layered(rng, kind, 30, 5)
    yield chain(rng, kind, 10)
    yield unary_chain(rng, kind, 50)


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_quotient_matches_reference_refinement(kind):
    """Normalized refinement against the re-anchored one it replaced:
    the same blocks as sets, the same lam and the same dead states; the
    blocks come ordered by the declaration rank of their first state."""
    for a in _differential_inputs(kind):
        qt = build_syntactic_quotient(a)
        ref = reference_quotient(a)
        text = automaton.format_wta(a)
        assert set(map(frozenset, qt.blocks)) == set(map(frozenset, ref.blocks)), text
        assert qt.lam == ref.lam, text
        assert qt.dead == ref.dead, text
        rank = {q: i for i, q in enumerate(a.states)}
        firsts = [rank[b[0]] for b in qt.blocks]
        assert firsts == sorted(firsts), text
        assert all([rank[q] for q in b] == sorted(rank[q] for q in b) for b in qt.blocks)


def test_refinement_rounds_hash_no_weight(monkeypatch):
    """Weights are coded by their integer parts when the moves are built:
    no `Fraction` is hashed, then or in the chain's 40 Moore rounds."""
    hashed = []
    fraction_hash = Fraction.__hash__
    for kind in sf.KINDS:
        a = unary_chain(random.Random(5), kind, 40)
        monkeypatch.setattr(Fraction, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
        qt = build_syntactic_quotient(a)
        monkeypatch.undo()
        assert len(qt.blocks) == 40
        assert hashed == [], kind


def test_quotient_gamma3(gamma3):
    qt = build_syntactic_quotient(gamma3)
    assert qt.blocks == (("q1", "q3"), ("q2",))
    assert qt.dead == frozenset()
    one = sf.RATIONAL.one
    assert qt.lam == {"q1": one, "q2": one, "q3": one}


def test_quotient_two_leaf(two_leaf):
    qt = build_syntactic_quotient(two_leaf)
    assert qt.blocks == (("q0", "q1"),)
    assert qt.lam["q0"] == sf.RATIONAL.one
    assert qt.lam["q1"] == rat(Fraction(1, 2))


def test_quotient_even_odd(even_odd):
    qt = build_syntactic_quotient(even_odd)
    assert qt.blocks == (("o",), ("e",))
    assert qt.dead == frozenset()


def test_quotient_preconditions(non_slim):
    with pytest.raises(PreconditionError, match="slim"):
        build_syntactic_quotient(non_slim)


def test_quotient_dead_block():
    a = automaton.parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> p @ 1\ntrans beta() -> d @ 1\nfinal p @ 1\n"
    )
    qt = build_syntactic_quotient(a)
    assert qt.dead == frozenset({"d"})
    assert qt.blocks == (("p",),)


# --- classes and congruence ----------------------------------------------


def test_class_of_zero_weight(even_odd):
    qt = build_syntactic_quotient(even_odd)
    m = Monomial(sf.RATIONAL.zero, t("alpha", even_odd))
    assert class_of(qt, m) is None


def test_class_of_sink(non_slim):
    s = slim(non_slim)
    qt = build_syntactic_quotient(s)
    assert class_of(qt, mono(5, "beta", s)) is None


def test_class_of_even_odd(even_odd):
    qt = build_syntactic_quotient(even_odd)
    big = mono(1, "sigma(sigma(alpha,alpha),alpha)", even_odd)
    assert class_of(qt, big) == class_of(qt, mono(4, "alpha", even_odd))
    assert congruent(qt, big, mono(4, "alpha", even_odd))


def test_congruent_parity_rule(even_odd):
    qt = build_syntactic_quotient(even_odd)
    # b1 * 2^#alpha(t1) = b2 * 2^#alpha(t2) and equal parity
    trees = list(enumerate_trees(even_odd.alphabet, 3))
    rng = random.Random(3)
    for _ in range(300):
        t1, t2 = rng.choice(trees), rng.choice(trees)
        b1 = rat(rng.choice([1, 2, 4, Fraction(1, 2)]))
        b2 = rat(rng.choice([1, 2, 4, Fraction(1, 2)]))
        n1 = count_symbol(t1, "alpha")
        n2 = count_symbol(t2, "alpha")
        expected = (n1 % 2 == n2 % 2) and (
            b1 * 2**n1 == b2 * 2**n2
        )
        assert congruent(qt, Monomial(b1, t1), Monomial(b2, t2)) == expected


def test_congruent_reflexive(gamma3):
    qt = build_syntactic_quotient(gamma3)
    m = mono(7, "gamma(alpha)", gamma3)
    assert congruent(qt, m, m)


def test_congruent_gamma_shift(gamma3):
    qt = build_syntactic_quotient(gamma3)
    assert not congruent(qt, mono(1, "alpha", gamma3), mono(1, "gamma(alpha)", gamma3))
    assert congruent(
        qt, mono(1, "alpha", gamma3), mono(1, "gamma(gamma(alpha))", gamma3)
    )


# --- brute-force oracle ---------------------------------------------------


def test_brute_force_depth_zero(even_odd):
    # only c = z: compares the two evaluations
    m1 = mono(1, "sigma(alpha,alpha)", even_odd)  # evaluates to 8
    m2 = mono(4, "alpha", even_odd)  # 4 * 6 = 24
    m3 = mono(3, "alpha", even_odd)  # 3 * 6 = 18... use 8/6 for equality
    assert not brute_force_congruent(even_odd, m1, m2, 0)
    m4 = Monomial(rat(Fraction(8, 6)), t("alpha", even_odd))
    assert brute_force_congruent(even_odd, m1, m4, 0)
    # deeper contexts separate m1 and m4 (parities differ)
    assert not brute_force_congruent(even_odd, m1, m4, 2)
    assert not brute_force_congruent(even_odd, m1, m3, 0)


def test_brute_force_two_leaf(two_leaf):
    m1 = mono(1, "alpha", two_leaf)
    m2 = mono(2, "beta", two_leaf)
    for depth in range(3):
        assert brute_force_congruent(two_leaf, m1, m2, depth)


def test_brute_force_zero_sides(two_leaf):
    z1 = Monomial(sf.RATIONAL.zero, t("alpha", two_leaf))
    z2 = Monomial(sf.RATIONAL.zero, t("beta", two_leaf))
    assert brute_force_congruent(two_leaf, z1, z2, 2)
    assert not brute_force_congruent(two_leaf, z1, mono(1, "beta", two_leaf), 2)


# --- congruence laws ------------------------------------------------------


def test_congruence_respects_scaling(even_odd):
    qt = build_syntactic_quotient(even_odd)
    rng = random.Random(23)
    trees = list(enumerate_trees(even_odd.alphabet, 3))
    for _ in range(200):
        m1 = random_monomial(rng, sf.RATIONAL, trees)
        m2 = random_monomial(rng, sf.RATIONAL, trees)
        if congruent(qt, m1, m2):
            b = rat(rng.choice([2, 3, Fraction(1, 2)]))
            times = sf.RATIONAL.times
            assert congruent(
                qt,
                Monomial(times(b, m1.weight), m1.tree),
                Monomial(times(b, m2.weight), m2.tree),
            )


def test_congruence_respects_top_concatenation(even_odd):
    # plugging congruent monomials into the same elementary context keeps
    # them congruent; checked against the bounded oracle as well
    qt = build_syntactic_quotient(even_odd)
    rng = random.Random(29)
    trees = list(enumerate_trees(even_odd.alphabet, 2))
    ctxs = [
        c
        for c in terms.enumerate_contexts(even_odd.alphabet, 2)
        if c != terms.Z and not decompose_elementary(c)[1:]
    ]
    oracle = BoundedContextOracle(even_odd, 3)
    checked = 0
    for _ in range(400):
        m1 = random_monomial(rng, sf.RATIONAL, trees)
        m2 = random_monomial(rng, sf.RATIONAL, trees)
        if not congruent(qt, m1, m2):
            continue
        e = rng.choice(ctxs)
        p1 = Monomial(m1.weight, substitute(e, m1.tree))
        p2 = Monomial(m2.weight, substitute(e, m2.tree))
        assert congruent(qt, p1, p2)
        assert oracle.congruent(p1, p2)
        checked += 1
    assert checked > 20


def test_kernel_equality_implies_congruent(even_odd):
    # equal scaled h_det values always land in the same congruence class
    qt = build_syntactic_quotient(even_odd)
    rng = random.Random(41)
    trees = list(enumerate_trees(even_odd.alphabet, 3))
    for _ in range(300):
        m1 = random_monomial(rng, sf.RATIONAL, trees)
        m2 = random_monomial(rng, sf.RATIONAL, trees)
        v1 = automaton.h_det(even_odd, m1.tree)
        v2 = automaton.h_det(even_odd, m2.tree)
        k = sf.RATIONAL
        s1 = None if v1 is None else (v1[0], k.times(m1.weight, v1[1]))
        s2 = None if v2 is None else (v2[0], k.times(m2.weight, v2[1]))
        z1 = m1.weight == k.zero or s1 is None or s1[1] == k.zero
        z2 = m2.weight == k.zero or s2 is None or s2[1] == k.zero
        if (z1 and z2) or (not z1 and not z2 and s1 == s2):
            assert congruent(qt, m1, m2)


def test_cancellativity_on_classes(two_leaf):
    qt = build_syntactic_quotient(two_leaf)
    cls = class_of(qt, mono(1, "alpha", two_leaf))
    block, scal = cls
    b1, b2 = rat(3), rat(5)
    times = sf.RATIONAL.times
    assert (block, times(b1, scal)) != (block, times(b2, scal))


# --- refinement vs oracle on random automata ------------------------------


@pytest.mark.parametrize("kind", [sf.RATIONAL, sf.BOOLEAN], ids=str)
def test_refinement_matches_oracle_small_corpus(kind):
    rng = random.Random(hash(kind.name) & 0xFFFF)
    for i in range(25):
        binary = i % 3 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        qt = build_syntactic_quotient(a)
        oracle = BoundedContextOracle(a, 2 * len(a.states))
        trees = list(enumerate_trees(a.alphabet, 3))
        for _ in range(150):
            m1 = random_monomial(rng, kind, trees)
            m2 = random_monomial(rng, kind, trees)
            assert congruent(qt, m1, m2) == oracle.congruent(m1, m2), (
                automaton.format_wta(a),
                m1,
                m2,
            )


def test_refinement_matches_oracle_tropical():
    rng = random.Random(555)
    for _ in range(10):
        a = random_slim_budet(rng, sf.TROPICAL, rng.randint(1, 3))
        qt = build_syntactic_quotient(a)
        oracle = BoundedContextOracle(a, 2 * len(a.states))
        trees = list(enumerate_trees(a.alphabet, 3))
        for _ in range(100):
            m1 = random_monomial(rng, sf.TROPICAL, trees)
            m2 = random_monomial(rng, sf.TROPICAL, trees)
            assert congruent(qt, m1, m2) == oracle.congruent(m1, m2)


# --- weights are compared by their parts ----------------------------------

# weight texts of each semifield: zeros and equal values spelt apart
QUERY_WEIGHTS = {
    "rational": ["0", "-0", "0/5", "1", "-1", "2", "1/2", "2/4", "-3/2", "6/4", "2/3"],
    "boolean": ["0", "-0", "0/5", "1", "2/2"],
    "maxtimes": ["0", "-0", "0/5", "1", "2", "1/2", "2/4", "3/2", "6/4", "2/3"],
    "tropical": ["inf", "0", "-0", "1", "-1", "1/2", "-2/4", "2", "-3/2"],
}
FRACTION_COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__")


def _count_fraction_comparisons(monkeypatch) -> Counter:
    """From now on, count every call of a comparison operator of `Fraction`."""
    calls: Counter = Counter()
    for name in FRACTION_COMPARISONS:
        def counted(*args, _name=name, _operator=getattr(Fraction, name)):
            calls[_name] += 1
            return _operator(*args)
        monkeypatch.setattr(Fraction, name, counted)
    return calls


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_queries_compare_no_fraction(kind, monkeypatch):
    """Once the quotients, oracles and minimal automata are built, neither a
    congruence query from monomial text nor an equivalence check calls any
    comparison operator of `Fraction`: weights are compared by `sf.eq`."""
    rng = random.Random(f"compare-by-parts:{kind}")
    automata = list(small_corpus(kind, 4, seed=23))
    built = [(a, build_syntactic_quotient(a), BoundedContextOracle(a, 2 * len(a.states)))
             for a in automata]
    minimal = [minimize(a) for a in automata]
    # each automaton with the final weight of one state dropped, or added
    changed = [Wta(a.alphabet, a.states, kind, a.delta, dict(list(a.final.items())[1:])
                   if a.final else {a.states[0]: kind.one}) for a in automata]
    calls = _count_fraction_comparisons(monkeypatch)
    answers = Counter()
    for a, qt, oracle in built:
        trees = [terms.format_tree(x) for x in enumerate_trees(a.alphabet, 3)]
        for p in range(50):
            t1, t2 = (f"{rng.choice(QUERY_WEIGHTS[kind.name])}.{rng.choice(trees)}" for _ in "12")
            m1 = parse_monomial(t1, a.alphabet, kind)
            m2 = m1 if p % 10 == 0 else parse_monomial(t2, a.alphabet, kind)
            answer = congruent(qt, m1, m2)
            assert oracle.congruent(m1, m2) is answer, (automaton.format_wta(a), t1, t2)
            answers[answer] += 1
    for a, b, c in zip(automata, minimal, changed):
        assert equivalent(a, b) and equivalent(b, a)
        assert not equivalent(a, c) and not equivalent(c, b)
    monkeypatch.undo()
    assert not calls, calls
    assert answers[True] > 20 and answers[False] > 20, answers
