"""The bounded-context oracle's context tables, against a run per context."""

import itertools
import random
from collections import Counter

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
    folded_congruent,
    observation_pairs,
    observe,
    parse_context,
    random_monomial,
    random_slim_budet,
    small_corpus,
    split_states,
    unary_chain,
)


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_tables_match_context_transform_on_small_corpus(kind):
    for a in small_corpus(kind, 24):
        contexts = 0
        for c, table in context_tables(a, 2, a.alphabet):
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
    for c, table in context_tables(a, 2 * len(a.states), a.alphabet):
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


def _assert_same_partition(new, old):
    """``new``'s partition against the per-context reference's
    observations: q is dead exactly when every observation at q is zero;
    lam[q] is an observation at q; q1 and q2 share a block exactly when
    lam[q2] * obs(q1, c) = lam[q1] * obs(q2, c) on every context c."""
    times = old.wta.kind.times
    assert new.dead == {q for q, nonzero in old.col_nonzero.items() if not nonzero}
    live = [q for q in old.wta.states if q not in new.dead]
    assert list(new.lam) == list(new.block_of) == live
    for q in live:
        assert any(sf.eq(o, new.lam[q]) for o, _ in old.pair_obs[(q, q)]), q
    for q1, q2 in itertools.product(live, repeat=2):
        l1, l2 = new.lam[q1], new.lam[q2]
        proportional = all(
            sf.eq(times(l2, o1), times(l1, o2)) for o1, o2 in old.pair_obs[(q1, q2)]
        )
        assert (new.block_of[q1] == new.block_of[q2]) == proportional, (q1, q2)


def _assert_same_answers(rng, new, old, trees, answers):
    """Both oracles agree on 50 random monomial pairs, every other one
    with both weights equal; each answer is counted in ``answers``."""
    for i in range(50):
        m1 = random_monomial(rng, old.wta.kind, trees)
        m2 = random_monomial(rng, old.wta.kind, trees)
        if i % 2:
            m2 = m2._replace(weight=m1.weight)
        answer = old.congruent(m1, m2)
        assert new.congruent(m1, m2) == answer, (automaton.format_wta(old.wta), m1, m2)
        answers[answer] += 1


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_oracle_matches_per_context_oracle(kind):
    rng = random.Random(f"oracle:{kind}")
    for a in small_corpus(kind, 12, seed=1):
        height = 2 * len(a.states)
        new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
        _assert_same_partition(new, old)
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
    rng, answers = random.Random(f"unused-symbols:{kind}"), Counter()
    for a in automata:
        trees = list(enumerate_trees(a.alphabet, 2))
        for height in range(4):
            new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
            _assert_same_partition(new, old)
            _assert_same_answers(rng, new, old, trees, answers)
    assert min(answers[True], answers[False]) > 100, answers


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
    rng, answers = random.Random(f"unused-leaves:{kind}"), Counter()
    for a in automata:
        trees = list(enumerate_trees(a.alphabet, 2))
        for height in range(3 if "s" in a.alphabet else 4):  # s/2, a, u: 4 637 contexts of height 3
            new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
            _assert_same_partition(new, old)
            _assert_same_answers(rng, new, old, trees, answers)
    assert min(answers[True], answers[False]) > 100, answers


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_oracle_over_unused_symbols_builds_no_automaton(kind, monkeypatch):
    """u/0 and w/3 label no transition: the oracle counts and enumerates
    over the symbols it uses and runs its contexts on the automaton itself,
    with no `Wta` built.  Its partition is the one of an oracle over an
    automaton whose alphabet has the used symbols alone, and matches the
    per-context reference over the whole alphabet."""
    built = []
    post_init = automaton.Wta.__post_init__

    def spied(self):
        built.append(self)
        post_init(self)

    for a in small_corpus(kind, 12, seed=6):
        alphabet = terms.RankedAlphabet([*a.alphabet._arity.items(), ("u", 0), ("w", 3)])
        a = automaton.Wta(alphabet, a.states, kind, a.delta, a.final)
        used = terms.RankedAlphabet(congruence._enumerated_symbols(a))
        assert "u" not in used and "w" not in used
        alone = automaton.Wta(used, a.states, kind, a.delta, a.final)
        for height in range(2 * len(a.states) + 1):
            with monkeypatch.context() as patch:
                patch.setattr(automaton.Wta, "__post_init__", spied)
                new = BoundedContextOracle(a, height)
                assert built == []
                automaton.Wta(used, a.states, kind, a.delta, a.final)  # the spy sees a build
                assert len(built) == 1
            built.clear()
            assert new.wta is a
            ref = BoundedContextOracle(alone, height)
            assert (new.dead, new.lam, new.block_of) == (ref.dead, ref.lam, ref.block_of)
            if height < 2:  # with w/3, up to about 10^5 contexts of height 2
                _assert_same_partition(new, ObserveOracle(a, height))


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_a_query_folds_only_the_pair_it_asks(kind):
    # a query folds the weight of each monomial of its pair into that
    # monomial's class, once; g^n(a) reaches q_n of the chain, and at
    # depth 3 only q6..q9 observe a nonzero weight
    a = unary_chain(random.Random(1), kind, 10)
    oracle = BoundedContextOracle(a, 3)
    assert oracle._classes == {}
    assert oracle.dead == {f"q{i}" for i in range(6)}
    assert sorted(oracle.lam) == sorted(oracle.block_of) == ["q6", "q7", "q8", "q9"]
    m3, m7, m9 = (scalar.parse_monomial("1." + "g(" * n + "a" + ")" * n, a.alphabet, kind)
                  for n in (3, 7, 9))
    oracle.congruent(m7, m9)
    assert [m for m, _key in oracle._classes.values()] == [m7, m9]
    asked = dict(oracle._classes)
    for m, q in ((m7, "q7"), (m9, "q9")):  # the block and the scaled lam
        x = automaton.h_det(a, m.tree)[1]
        factor = kind.product((m.weight, x, oracle.lam[q]))
        assert asked[id(m)][1] == (oracle.block_of[q], *sf.parts(factor))
    # a zero monomial and a dead state are kept with the key None
    zero = m7._replace(weight=kind.zero)
    assert not oracle.congruent(zero, m9)
    assert oracle.congruent(zero, m3)
    assert list(oracle._classes) == [id(m7), id(m9), id(zero), id(m3)]
    assert oracle._classes[id(zero)][1] is None and oracle._classes[id(m3)][1] is None
    oracle.congruent(m7, m9)
    oracle.congruent(m9, m7)
    assert len(oracle._classes) == 4
    assert all(oracle._classes[key] is entry for key, entry in asked.items())
    obs = observation_pairs(a, 3)
    for m1, m2 in itertools.product((m3, m7, m9, zero), repeat=2):
        assert oracle.congruent(m1, m2) == folded_congruent(a, obs, m1, m2)


def test_a_depth_past_the_last_context_is_cut(monkeypatch):
    # only leaves label a transition, so z is the only context: the counts
    # stop after height 0, and a depth past sys.maxsize enumerates height 0
    a = automaton.parse_wta(
        "semifield rational\nrank a 0\nrank b 0\n"
        "trans a() -> p @ 1\ntrans b() -> q @ 1\nfinal p @ 1\n"
    )
    heights = []
    enumerate_contexts = terms.enumerate_contexts
    monkeypatch.setattr(
        terms, "enumerate_contexts", lambda al, h: heights.append(h) or enumerate_contexts(al, h)
    )
    oracle = BoundedContextOracle(a, 10**20)
    assert heights == [0]
    assert oracle.dead == {"q"} and oracle.lam == {"p": sf.RATIONAL.one}
    ma, mb = (scalar.parse_monomial(f"1.{s}", a.alphabet, a.kind) for s in "ab")
    assert oracle.congruent(ma, ma) and not oracle.congruent(ma, mb)
    assert oracle.congruent(mb, mb._replace(weight=sf.RATIONAL.zero))


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_context_counts_match_the_oracles_enumeration(kind, monkeypatch):
    # the small corpus, and automata whose alphabets have unused symbols
    automata = list(small_corpus(kind, 12, seed=3))
    for ranks in ("rank g 1\nrank f 3\n", "rank s 2\nrank b 0\n"):
        automata.append(automaton.parse_wta(
            f"semifield {kind}\nrank g2 1\nrank a 0\n{ranks}"
            "trans a() -> p @ 1\ntrans g2(p) -> q @ 1\nfinal q @ 1\n"
        ))
    enumerated = []
    enumerate_contexts = terms.enumerate_contexts

    def counted(alphabet, height):
        for c in enumerate_contexts(alphabet, height):
            enumerated.append(c)
            yield c

    monkeypatch.setattr(terms, "enumerate_contexts", counted)
    for a in automata:
        sigma = terms.RankedAlphabet(congruence._enumerated_symbols(a))
        counts = list(itertools.islice(terms.context_counts(sigma), 4))
        for height in range(4):
            enumerated.clear()
            BoundedContextOracle(a, height)
            assert len(enumerated) == counts[min(height, len(counts) - 1)]


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_tables_kept_at_the_edges_of_the_keep_rule(kind, monkeypatch):
    # only leaves label a transition: over the leaves alone, and as the
    # oracle's symbols beside an unused g/1, the counts stop after z
    leaves = "trans a() -> p @ 1\ntrans b() -> q @ 1\nfinal p @ 1\n"
    automata = [
        automaton.parse_wta(f"semifield {kind}\nrank a 0\nrank b 0\n{leaves}"),
        automaton.parse_wta(f"semifield {kind}\nrank g 1\nrank a 0\nrank b 0\n{leaves}"),
        *small_corpus(kind, 9, seed=4),
    ]
    assert list(terms.context_counts(automata[0].alphabet)) == [1]
    kept = []  # the map of kept tables that context_tables passes on
    step_table = congruence._step_table

    def spied(a, c, below, runs):
        kept.append(below)
        return step_table(a, c, below, runs)

    monkeypatch.setattr(congruence, "_step_table", spied)
    rng = random.Random(f"edges:{kind}")
    for a in automata:
        trees = list(enumerate_trees(a.alphabet, 2))
        for height in (0, 1, 2):
            kept.clear()
            tables = list(context_tables(a, height, a.alphabet))
            assert [c for c, _ in tables] == list(terms.enumerate_contexts(a.alphabet, height))
            for c, table in tables:
                assert table == tuple(context_transform(a, c, (q, kind.one)) for q in a.states)
            if kept:  # z alone builds no step
                assert list(kept[-1].values()) == [
                    (c, table) for c, table in tables if terms.height(c) < height
                ]
                assert list(kept[-1]) == [id(c) for c, _table in kept[-1].values()]
            new, old = BoundedContextOracle(a, height), ObserveOracle(a, height)
            _assert_same_partition(new, old)
            for _ in range(50):
                m1 = random_monomial(rng, kind, trees)
                m2 = random_monomial(rng, kind, trees)
                assert new.congruent(m1, m2) == old.congruent(m1, m2)


def test_tables_past_sys_maxsize_stay_lazy():
    a = automaton.parse_wta(
        "semifield rational\nrank g 1\nrank a 0\n"
        "trans a() -> q @ 1\ntrans g(q) -> q @ 2\nfinal q @ 1\n"
    )
    first = list(itertools.islice(context_tables(a, 10**20, a.alphabet), 50))
    assert first == list(context_tables(a, 49, a.alphabet))
    # over leaves alone z is the only context, at any height
    leaves = automaton.parse_wta(
        "semifield rational\nrank a 0\nrank b 0\ntrans a() -> p @ 1\nfinal p @ 1\n"
    )
    assert [c for c, _table in context_tables(leaves, 10**20, leaves.alphabet)] == [terms.Z]


def test_tables_of_a_context_killed_by_a_side_tree():
    # beta has no transition: every context with a beta side tree has no run
    a = automaton.parse_wta(
        "semifield rational\nrank sigma 2\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> q @ 2\ntrans sigma(q,q) -> q @ 3\nfinal q @ 1\n"
    )
    tables = dict(context_tables(a, 2, a.alphabet))
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


def test_a_negative_height_is_refused_before_any_count(monkeypatch):
    # two unary states: counting up to the cap would take 50 001 heights
    a = automaton.parse_wta(
        "semifield rational\nrank g 1\nrank a 0\n"
        "trans a() -> p @ 1\ntrans g(p) -> q @ 1\ntrans g(q) -> p @ 1\nfinal q @ 1\n"
    )
    m = scalar.parse_monomial("1.a", a.alphabet, a.kind)

    def refused(_alphabet):  # context_tables may make the generator, not walk it
        raise AssertionError("counted")
        yield

    monkeypatch.setattr(terms, "context_counts", refused)
    for height in (-1, -2, -(10**20)):
        with pytest.raises(ValueError, match=f"got {height}$") as refusal:
            BoundedContextOracle(a, height)
        assert refusal.type is ValueError
        with pytest.raises(ValueError, match=f"got {height}$") as refusal:
            congruence.brute_force_congruent(a, m, m, height)
        assert refusal.type is ValueError
        assert list(context_tables(a, height, a.alphabet)) == []
        assert list(terms.enumerate_contexts(a.alphabet, height)) == []
    monkeypatch.undo()  # height 0 walks the counts
    assert [c for c, _table in context_tables(a, 0, a.alphabet)] == [terms.Z]


def _partial_binary(kind, count):
    """``count`` 2-state automata over s/2 and a/0, the bench's binary
    shape, each with at least one s entry missing: a -> q0 and
    s(q0,q0) -> q1 reach both states, and each other s entry is there with
    probability 0.6."""
    rng = random.Random(f"partial-binary:{kind}")
    automata = []
    while len(automata) < count:
        a = random_slim_budet(rng, kind, 2, binary=True)
        if len(a.delta) < 5:
            automata.append(a)
    return automata


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_tables_and_partition_on_partial_binary_automata(kind):
    """Side trees and hole tables die on a partial delta, where the tables
    take their all-None shortcuts: every table at depth 3, and every 41st
    one at depth 4, against `context_transform`; the partition and 50
    answers at depth 3 against `ObserveOracle`."""
    rng, answers = random.Random(f"partial-binary-answers:{kind}"), Counter()
    dead_side = dead_hole = 0  # all-None tables by the shortcut that gives them
    for a in _partial_binary(kind, 4):
        tables = dict(context_tables(a, 3, a.alphabet))
        sample = itertools.islice(context_tables(a, 4, a.alphabet), 0, None, 41)
        for c, table in [*tables.items(), *sample]:
            assert table == tuple(
                context_transform(a, c, (q, kind.one)) for q in a.states
            ), (automaton.format_wta(a), c)
        for c, table in tables.items():
            if c.children and not any(table):
                (hole,) = (kid for kid in c.children if kid in tables)
                if not any(tables[hole]):
                    dead_hole += 1
                elif any(automaton.h_det(a, t) is None for t in c.children if t is not hole):
                    dead_side += 1
        new, old = BoundedContextOracle(a, 3), ObserveOracle(a, 3)
        _assert_same_partition(new, old)
        _assert_same_answers(rng, new, old, list(enumerate_trees(a.alphabet, 2)), answers)
    assert dead_side and dead_hole
    assert min(answers[True], answers[False]) > 20, answers
