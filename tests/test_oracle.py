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

from conftest import EVEN_ODD
from corpus import (
    ObserveOracle,
    context_transform,
    enumerate_trees,
    equal_alphabet,
    observe,
    parse_context,
    random_monomial,
    small_corpus,
    split_states,
)


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_tables_match_context_transform_on_small_corpus(kind):
    for a in small_corpus(kind, 24):
        contexts = 0
        for c, table in context_tables(a, 2):
            contexts += 1
            assert table == tuple(
                context_transform(a, c, (q, kind.one)) for q in a.states
            ), (automaton.format_wta(a), c)
            assert tuple(automaton._read_out(a, v) for v in table) == tuple(
                observe(a, q, c) for q in a.states
            ), (automaton.format_wta(a), c)
        assert contexts == len(list(terms.enumerate_contexts(a.alphabet, 2)))


def _check_lam_rows(a, qt) -> int:
    """Assert row[q] = lam[q] * row[rep] on every row of the context tables
    of height 2*|Q|, rep being q's block representative, and row[q] = 0 for
    a dead q; return the number of rows."""
    zero, times = a.kind.zero, a.kind.times
    index = {q: i for i, q in enumerate(a.states)}
    rows = 0
    for c, table in context_tables(a, 2 * len(a.states)):
        rows += 1
        row = [automaton._read_out(a, v) for v in table]
        for q in a.states:
            if q in qt.dead:
                expected = zero
            else:
                rep = qt.blocks[qt.block_of[q]][0]
                expected = times(qt.lam[q], row[index[rep]])
            assert row[index[q]] == expected, (automaton.format_wta(a), c, q)
    return rows


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_lam_scales_every_literal_context(kind):
    """The quotient anchors each block on its representative's abstract
    observation path; its lam must be the scaling witness on every literal
    context.  Corpus automata have few proportional states, so the small
    ones are also split into rescaled copies."""
    rng = random.Random(f"split:{kind}")
    rows = 0
    for a in small_corpus(kind, 60):
        rows += _check_lam_rows(a, build_syntactic_quotient(a))
        # small enough to enumerate: unary up to 2 states, binary 1 state
        if len(a.states) <= (1 if "s" in a.alphabet else 2):
            b = split_states(rng, a)
            rows += _check_lam_rows(b, build_syntactic_quotient(b))
    assert rows > 50_000


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


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_oracle_matches_per_context_oracle_with_unused_symbols(kind):
    # g/1 labels no transition: every context through it has an all-zero row
    text = (
        f"semifield {kind}\nrank sigma 2\nrank g 1\nrank alpha 0\n"
        "trans alpha() -> p @ 1\ntrans sigma(p,p) -> q @ 1\ntrans sigma(q,p) -> p @ 1\n"
        "final q @ 1\n"
    )
    automata = [automaton.parse_wta(text)]
    for a in small_corpus(kind, 60):
        labels = {sym for _ws, sym, _q in a.delta}
        if any(k and s not in labels for s, k in a.alphabet._arity.items()):
            automata.append(a)
    assert len(automata) > 1
    for a in automata:
        for height in range(4):
            new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
            assert new.col_nonzero == old.col_nonzero
            assert {p: set(obs) for p, obs in new.pair_obs.items()} == old.pair_obs


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_oracle_matches_per_context_oracle_with_unused_leaves(kind):
    # u/0 labels no transition: a context with a u side tree has an
    # all-zero row, and a unary alphabet has no such context
    automata = []
    for a in small_corpus(kind, 24, seed=2):
        alphabet = terms.RankedAlphabet([*a.alphabet._arity.items(), ("u", 0)])
        automata.append(automaton.Wta(alphabet, a.states, kind, a.delta, a.final))
    # no leaf labels a transition, so the first one is kept; with and
    # without a symbol that could hold one as a side tree
    for wide in ("", "rank s 2\n"):
        automata.append(automaton.parse_wta(
            f"semifield {kind}\nrank g 1\nrank b 0\nrank a 0\n{wide}"
            "trans g(p) -> q @ 1\ntrans g(q) -> p @ 1\nfinal p @ 1\n"
        ))
    for a in automata:
        for height in range(3 if "s" in a.alphabet else 4):  # s/2, a, u: 4 637 contexts of height 3
            new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
            assert new.col_nonzero == old.col_nonzero
            assert {p: set(obs) for p, obs in new.pair_obs.items()} == old.pair_obs


def test_tables_of_a_context_killed_by_a_side_tree():
    # beta has no transition: every context with a beta side tree has no run
    a = automaton.parse_wta(
        "semifield rational\nrank sigma 2\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> q @ 2\ntrans sigma(q,q) -> q @ 3\nfinal q @ 1\n"
    )
    tables = dict(context_tables(a, 2))
    ctx = parse_context
    assert tables[ctx("sigma(z,beta)", a.alphabet)] == (None,)
    assert tables[ctx("sigma(sigma(z,alpha),beta)", a.alphabet)] == (None,)
    assert tables[ctx("sigma(alpha,sigma(z,alpha))", a.alphabet)] == (
        ("q", sf.RATIONAL.from_fraction(36)),
    )


def test_monomial_tree_walked_once_per_decision(monkeypatch):
    """A parsed monomial is compared with its memo key once, not once by
    the quotient and again by the oracle; not at all when the key is the
    same text parsed against the same alphabet, which is the same object."""
    texts = ("sigma(alpha,sigma(alpha,alpha))", "sigma(sigma(alpha,alpha),alpha)")
    walks = []
    eq = terms.Tree.__eq__

    def counted(x, y):
        walks.append((x, y))
        return eq(x, y)

    for same_alphabet, expected in ((False, 2), (True, 0)):
        a = automaton.parse_wta(EVEN_ODD)
        qt = build_syntactic_quotient(a)
        oracle = BoundedContextOracle(a, 2)
        keys = a.alphabet if same_alphabet else equal_alphabet(a.alphabet)
        for text in texts:  # in the memo before the monomials are parsed
            automaton.h_det(a, terms.parse_tree(text, keys))
        m1, m2 = (scalar.parse_monomial(f"2.{text}", a.alphabet, a.kind) for text in texts)
        walks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(terms.Tree, "__eq__", counted)
            assert congruent(qt, m1, m2) == oracle.congruent(m1, m2)
        assert len(walks) == expected
