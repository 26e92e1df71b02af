"""The bounded-context oracle's context tables, against a run per context."""

import random

import pytest

from budwta import automaton, congruence, scalar, semifield as sf, terms
from budwta.congruence import (
    BoundedContextOracle,
    build_syntactic_quotient,
    congruent,
    context_tables,
)

from corpus import ObserveOracle, enumerate_trees, random_monomial, small_corpus


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_tables_match_context_transform_on_small_corpus(kind):
    for a in small_corpus(kind, 24):
        contexts = 0
        for c, table in context_tables(a, 2):
            contexts += 1
            assert table == tuple(
                automaton.context_transform(a, c, (q, kind.one)) for q in a.states
            ), (automaton.format_wta(a), c)
            assert tuple(congruence._read_out(a, v) for v in table) == tuple(
                congruence._observe(a, q, c) for q in a.states
            ), (automaton.format_wta(a), c)
        assert contexts == len(list(terms.enumerate_contexts(a.alphabet, 2)))


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_oracle_matches_per_context_oracle(kind):
    rng = random.Random(f"oracle:{kind}")
    for a in small_corpus(kind, 12, seed=1):
        height = 2 * len(a.states)
        new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
        assert new.col_nonzero == old.col_nonzero
        assert {p: set(obs) for p, obs in new.pair_obs.items()} == old.pair_obs
        trees = list(enumerate_trees(a.alphabet, 3))
        for _ in range(200):
            m1 = random_monomial(rng, kind, trees)
            m2 = random_monomial(rng, kind, trees)
            assert new.congruent(m1, m2) == old.congruent(m1, m2)


def test_tables_of_a_context_killed_by_a_side_tree():
    # beta has no transition: every context with a beta side tree has no run
    a = automaton.parse_wta(
        "semifield rational\nrank sigma 2\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> q @ 2\ntrans sigma(q,q) -> q @ 3\nfinal q @ 1\n"
    )
    tables = dict(context_tables(a, 2))
    ctx = terms.parse_context
    assert tables[ctx("sigma(z,beta)", a.alphabet)] == (None,)
    assert tables[ctx("sigma(sigma(z,alpha),beta)", a.alphabet)] == (None,)
    assert tables[ctx("sigma(alpha,sigma(z,alpha))", a.alphabet)] == (
        ("q", sf.RATIONAL.from_fraction(36)),
    )


def test_monomial_tree_walked_once_per_decision(even_odd, monkeypatch):
    """A parsed monomial is compared with its memo key once, not once by
    the quotient and again by the oracle."""
    a = even_odd
    qt = build_syntactic_quotient(a)
    oracle = BoundedContextOracle(a, 2)
    texts = ("sigma(alpha,sigma(alpha,alpha))", "sigma(sigma(alpha,alpha),alpha)")
    for text in texts:  # in the memo, under other objects than the monomials'
        automaton.h_det(a, terms.parse_tree(text, a.alphabet))
    m1, m2 = (scalar.parse_monomial(f"2.{text}", a.alphabet, a.kind) for text in texts)
    walks = []
    eq = terms.Tree.__eq__

    def counted(x, y):
        walks.append((x, y))
        return eq(x, y)

    monkeypatch.setattr(terms.Tree, "__eq__", counted)
    assert congruent(qt, m1, m2) == oracle.congruent(m1, m2)
    assert len(walks) == 2
