"""Both congruence deciders keep each monomial's canonical form, its class
over the quotient's or the bounded-context oracle's partition, in
``_classes``.  The kept answers are checked against the deciders without
their memos, `corpus.reference_congruent` and `corpus.folded_congruent`."""

import itertools
import random
from fractions import Fraction

import pytest

from budwta import automaton, congruence, scalar, semifield as sf, terms
from budwta.congruence import BoundedContextOracle, build_syntactic_quotient, congruent
from budwta.scalar import Monomial
from budwta.semifield import SemifieldError
from budwta.terms import Tree

from conftest import EVEN_ODD
from corpus import (
    enumerate_trees,
    folded_congruent,
    observation_pairs,
    random_monomial,
    reference_congruent,
    rescale_pad_shuffle,
    small_corpus,
    split_states,
)


def _apart(m: Monomial) -> Monomial:
    """A monomial equal to ``m``, built apart: a new weight and new nodes."""
    w = m.weight
    if w.__class__ is Fraction:
        w = Fraction(w.numerator, w.denominator)

    def rebuild(t: Tree) -> Tree:
        return Tree(t.symbol, tuple(rebuild(c) for c in t.children))

    return Monomial(w, rebuild(m.tree))


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_kept_answers_match_the_deciders_without_memos(kind):
    """Over the small corpus, its split copies and padded copies (an
    unreachable and a dead state: the oracle alone, as the quotient needs a
    slim automaton), oracles of height 0-3, and monomials that are zero,
    run into the sink or reach an all-zero column, each asked three times,
    and ten of them again as equal monomials built apart."""
    rng = random.Random(f"memo:{kind}")
    seen = {"zero": 0, "sink": 0, "zero column": 0, "nonzero row": 0}
    for a in small_corpus(kind, 24, seed=7):
        for b in (a, split_states(rng, a), rescale_pad_shuffle(rng, a)[0]):
            height = rng.randrange(4)
            oracle, obs = BoundedContextOracle(b, height), observation_pairs(b, height)
            qt = build_syntactic_quotient(b) if automaton.is_slim(b) else None
            trees = list(enumerate_trees(b.alphabet, 3))
            ms = [random_monomial(rng, kind, trees, zero_prob=0.15) for _ in range(30)]
            twins = [_apart(m) for m in ms[:10]]
            for m in ms:
                v = congruence._monomial_run(b, m)
                if sf.eq(m.weight, kind.zero):
                    seen["zero"] += 1
                elif v is None:
                    seen["sink"] += 1
                else:
                    seen["zero column" if v[0] in oracle.dead else "nonzero row"] += 1
            pairs = list(itertools.product(ms + twins, repeat=2))
            for _ in range(3):  # later rounds read the memos more
                for m1, m2 in rng.sample(pairs, 200):
                    assert oracle.congruent(m1, m2) == folded_congruent(b, obs, m1, m2)
                    if qt is not None:
                        assert congruent(qt, m1, m2) == reference_congruent(qt, m1, m2)
            for m, twin in zip(ms, twins):
                assert m is not twin and m.tree is not twin.tree
                assert oracle.congruent(m, twin) and oracle.congruent(twin, m)
                assert qt is None or congruent(qt, m, twin) and congruent(qt, twin, m)
    assert min(seen.values()) > 50, seen


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_a_repeated_query_runs_no_tree(kind, monkeypatch):
    a = next(small_corpus(kind, 1, seed=8))
    qt, oracle = build_syntactic_quotient(a), BoundedContextOracle(a, 2 * len(a.states))
    trees = list(enumerate_trees(a.alphabet, 2))
    m1, m2 = (Monomial(kind.one, t) for t in trees[:2])
    runs = []
    run = automaton._run
    monkeypatch.setattr(automaton, "_run", lambda *args: runs.append(args) or run(*args))
    first = congruent(qt, m1, m2), oracle.congruent(m1, m2)
    assert len(runs) == 4
    for _ in range(3):
        assert (congruent(qt, m1, m2), oracle.congruent(m1, m2)) == first
        assert (congruent(qt, m2, m1), oracle.congruent(m2, m1)) == first
    assert len(runs) == 4


@pytest.mark.parametrize(
    "kind, foreign",
    [(sf.BOOLEAN, Fraction(1)), (sf.RATIONAL, True), (sf.MAXTIMES, Fraction(-1)),
     (sf.TROPICAL, False)],
    ids=str,
)
def test_a_foreign_weight_raises_on_every_call(kind, foreign):
    a = automaton.parse_wta(EVEN_ODD.replace("rational", str(kind)).replace("@ 2", "@ 1")
                            .replace("@ 3", "@ 1"))
    qt, oracle = build_syntactic_quotient(a), BoundedContextOracle(a, 2)
    good = Monomial(kind.one, terms.parse_tree("alpha", a.alphabet))
    bad = Monomial(foreign, good.tree)
    for _ in range(3):
        with pytest.raises(SemifieldError):
            congruent(qt, good, bad)
        with pytest.raises(SemifieldError):
            oracle.congruent(bad, good)
    # the quotient kept the monomial it ran before the foreign one
    assert list(qt._classes) == [id(good)] and oracle._classes == {}


def test_distinct_monomials_leave_each_memo_at_its_cap():
    a = automaton.parse_wta(EVEN_ODD)
    qt, oracle = build_syntactic_quotient(a), BoundedContextOracle(a, 2)
    k = a.kind
    alpha = terms.parse_tree("alpha", a.alphabet)
    kept = []
    for i in range(10**4):  # 2 * 10^4 distinct monomials, congruent when i % 97 == i % 89
        m1 = Monomial(k.from_fraction(i % 97 + 1), alpha)
        m2 = Monomial(k.from_fraction(i % 89 + 1), alpha)
        # a monomial dies when its entry is dropped, so its id can come back
        assert congruent(qt, m1, m2) == oracle.congruent(m1, m2) == (i % 97 == i % 89)
        if i >= 10**4 - terms.MEMO_CAP // 2:
            kept += [m1, m2]
    assert 1000 <= terms.MEMO_CAP <= 10**4
    for memo in (qt._classes, oracle._classes):
        assert len(memo) == terms.MEMO_CAP
        assert [m for m, _form in memo.values()] == kept  # the newest, in order


def test_every_capped_memo_keeps_the_one_cap(monkeypatch):
    """The two parse memos and the two decider memos all stop at
    `terms.MEMO_CAP`, each keeping its newest entries in order."""
    monkeypatch.setattr(terms, "MEMO_CAP", 5)
    a = automaton.parse_wta(EVEN_ODD)
    qt, oracle = build_syntactic_quotient(a), BoundedContextOracle(a, 2)
    texts = [terms.format_tree(t) for t in enumerate_trees(a.alphabet, 3)][:12]
    assert len(texts) == 12
    monomials = []
    for i, text in enumerate(texts):
        terms.parse_tree(text, a.alphabet)
        m = scalar.parse_monomial(f"{i + 1}.{text}", a.alphabet, a.kind)
        monomials.append(m)
        congruent(qt, m, m)
        oracle.congruent(m, m)
    assert list(a.alphabet._parsed) == texts[-5:]
    keys = [(f"{i + 1}.{text}", a.kind) for i, text in enumerate(texts)]
    assert list(a.alphabet._monomials) == keys[-5:]
    for memo in (qt._classes, oracle._classes):
        assert [m for m, _form in memo.values()] == monomials[-5:]
