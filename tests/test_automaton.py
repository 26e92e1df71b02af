import collections
import dataclasses
import gc
import itertools
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from budwta import automaton, semifield as sf, terms
from budwta.automaton import (
    PreconditionError,
    Wta,
    WtaError,
    dead_states,
    evaluate,
    format_wta,
    h_det,
    h_general,
    is_bu_deterministic,
    is_slim,
    is_total,
    parse_wta,
    reachable_states,
    representative_trees,
    slim,
    state_of,
)
from budwta.minimize import minimality
from budwta.scalar import format_monomial, parse_monomial
from budwta.terms import RankedAlphabet, Tree

from conftest import EVEN_ODD, GAMMA3, NON_SLIM, TWO_LEAF, WIDE_NONDET, WIDE_NONDET_TREE
from corpus import (
    chain,
    context_transform,
    count_symbol,
    enumerate_trees,
    equal_alphabet,
    first_trees,
    layered,
    parse_context,
    postorder,
    random_monomial,
    random_slim_budet,
    reference_h_general,
    reference_is_total,
    reference_inverse,
    reference_parse_wta,
    reference_run,
    small_corpus,
    sparse_binary,
    split_states,
    substitute,
    targets,
)


def t(text, a):
    return terms.parse_tree(text, a.alphabet)


def c(text, a):
    return parse_context(text, a.alphabet)


def rat(x):
    return sf.RATIONAL.from_fraction(Fraction(x))


# --- flags ---------------------------------------------------------------


def test_even_odd_flags(even_odd):
    assert is_bu_deterministic(even_odd)
    assert is_total(even_odd)
    assert is_slim(even_odd)


def test_nondeterministic_flag():
    a = parse_wta(
        "semifield rational\nrank alpha 0\n"
        "trans alpha() -> p @ 1\ntrans alpha() -> q @ 1\nfinal p @ 1\n"
    )
    assert not is_bu_deterministic(a)


def test_non_total_flag(non_slim):
    assert not is_total(non_slim)  # beta has no nonzero target


def test_maps_are_read_only(even_odd):
    with pytest.raises(TypeError):
        even_odd.delta[((), "alpha", "e")] = sf.RATIONAL.one
    with pytest.raises(TypeError):
        even_odd.final["o"] = sf.RATIONAL.one
    delta = {((), "alpha", "p"): sf.RATIONAL.one}
    a = Wta(even_odd.alphabet, ("p", "q"), sf.RATIONAL, delta, {})
    delta[((), "alpha", "q")] = sf.RATIONAL.one
    assert is_bu_deterministic(a) and len(a.delta) == 1
    states = ["p"]
    a = Wta(even_odd.alphabet, states, sf.RATIONAL, {}, {"p": sf.RATIONAL.one})
    states[:] = ["q", "r"]
    assert a.states == ("p",)
    assert Wta(even_odd.alphabet, a.states, sf.RATIONAL, {}, {}).states is a.states


# --- semantics -----------------------------------------------------------


def test_h_general_even_odd(even_odd):
    v = h_general(even_odd, t("alpha", even_odd))
    assert v == {"o": rat(2), "e": rat(0)}
    v2 = h_general(even_odd, t("sigma(alpha,alpha)", even_odd))
    assert v2 == {"o": rat(0), "e": rat(4)}


def test_h_general_nullary_is_delta_row(even_odd):
    v = h_general(even_odd, t("alpha", even_odd))
    assert v["o"] == even_odd.delta[((), "alpha", "o")]


def test_state_of_examples(even_odd, gamma3, non_slim):
    assert state_of(non_slim, t("alpha", non_slim)) == "p1"
    assert state_of(non_slim, t("beta", non_slim)) is None
    assert state_of(gamma3, t("alpha", gamma3)) == "q1"
    assert state_of(gamma3, t("gamma(alpha)", gamma3)) == "q2"
    assert state_of(gamma3, t("gamma(gamma(alpha))", gamma3)) == "q3"
    assert state_of(even_odd, t("sigma(alpha,alpha)", even_odd)) == "e"


def _shared_variants(a, x):
    """``x``, each binary-or-more symbol over copies of the one object
    ``x`` (a shared DAG), and ``x`` parsed against an equal but separate
    alphabet."""
    out = [x]
    for sym in a.alphabet.symbols():
        if a.alphabet.arity(sym) >= 2:
            out.append(Tree(sym, (x,) * a.alphabet.arity(sym)))
    out.append(terms.parse_tree(terms.format_tree(x), equal_alphabet(a.alphabet)))
    return out


def _copy(a, kind=None):
    return Wta(a.alphabet, a.states, kind or a.kind, a.delta, a.final)


def test_state_of_matches_h_det_on_corpus():
    sinks = 0
    for kind in sf.KINDS:
        automata = list(small_corpus(kind, 12, seed=1500))
        automata.append(chain(random.Random(1500), kind, 12))
        for a in automata:
            # copies with their own memos, so that each side runs apart
            b = _copy(a)
            trees = list(enumerate_trees(a.alphabet, 3))
            trees += representative_trees(_copy(a)).values()
            for x in trees:
                for y in _shared_variants(a, x):
                    v = h_det(b, y)
                    want = None if v is None else v[0]
                    sinks += want is None
                    assert state_of(a, y) == want
                    assert state_of(b, y) == want  # in b._runs, not b._states: a walk of its own
    assert sinks > 0


def _no_times(x, y=None):
    raise AssertionError("a states-only run multiplied two weights")


def test_state_of_and_witness_trees_multiply_no_weights():
    # a weighted run multiplies through power_product, so both refuse
    kind = dataclasses.replace(
        sf.RATIONAL, name="no-times", times=_no_times, power_product=_no_times
    )
    for a in (chain(random.Random(1501), sf.RATIONAL, 40), parse_wta(EVEN_ODD), parse_wta(GAMMA3)):
        b = _copy(a, kind)
        reps = representative_trees(b)
        assert list(reps) == list(b.states)
        assert all(state_of(b, reps[q]) == q for q in b.states)
        for x in itertools.islice(enumerate_trees(b.alphabet, 4), 200):
            assert state_of(b, x) == state_of(a, x)
        assert not b._runs
        with pytest.raises(AssertionError, match="multiplied"):
            h_det(b, reps[b.states[-1]])


def test_h_det_examples(even_odd, non_slim):
    assert h_det(even_odd, t("alpha", even_odd)) == ("o", rat(2))
    assert h_det(non_slim, t("beta", non_slim)) is None
    assert h_det(even_odd, t("sigma(sigma(alpha,alpha),alpha)", even_odd)) == (
        "o",
        rat(8),
    )


def test_evaluate_examples(even_odd, gamma3):
    assert evaluate(even_odd, t("alpha", even_odd)) == rat(6)
    assert evaluate(even_odd, t("sigma(alpha,alpha)", even_odd)) == rat(8)
    tree = t("alpha", gamma3)
    for n in range(7):
        expected = rat(2) if n % 2 == 0 else rat(3)
        assert evaluate(gamma3, tree) == expected
        tree = Tree("gamma", (tree,))


def test_evaluate_closed_form_even_odd(even_odd):
    # weight 2*2^n for an even number n of alpha leaves, 3*2^n for odd
    for tree in enumerate_trees(even_odd.alphabet, 3):
        n = count_symbol(tree, "alpha")
        base = 2 if n % 2 == 0 else 3
        assert evaluate(even_odd, tree) == rat(base * 2**n)


def test_evaluate_works_for_nondeterministic():
    a = parse_wta(
        "semifield rational\nrank alpha 0\n"
        "trans alpha() -> p @ 1\ntrans alpha() -> q @ 2\n"
        "final p @ 1\nfinal q @ 10\n"
    )
    assert evaluate(a, t("alpha", a)) == rat(21)


def test_h_det_matches_h_general_on_corpus():
    rng = random.Random(99)
    for i in range(30):
        kind = [sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL][i % 4]
        binary = i % 3 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        for tree in enumerate_trees(a.alphabet, 3):
            vec = h_general(a, tree)
            v = h_det(a, tree)
            if v is None:
                assert all(w == kind.zero for w in vec.values())
            else:
                q, w = v
                assert vec[q] == w
                assert all(vec[p] == kind.zero for p in a.states if p != q)


# weights with negatives, so rational sums can cancel to zero
NONDET_POOLS = {
    sf.RATIONAL: [1, -1, 2, -2, Fraction(1, 2)],
    sf.BOOLEAN: [1],
    sf.MAXTIMES: [1, 2, Fraction(1, 2), 3],
    sf.TROPICAL: [0, 1, -1, 2],
}


def test_h_general_matches_the_tuple_sweep():
    rng = random.Random(2201)
    alphabet = RankedAlphabet([("s", 2), ("g", 1), ("a", 0), ("b", 0)])
    trees = list(enumerate_trees(alphabet, 2))
    met = {"two targets": 0, "repeated child": 0, "zero child": 0, "cancelled": 0}
    for trial in range(160):
        kind = sf.KINDS[trial % 4]
        states = [f"q{i}" for i in range(rng.randint(1, 3))]
        delta = {}
        for sym, k in (("s", 2), ("g", 1), ("a", 0), ("b", 0)):
            for ws in itertools.product(states, repeat=k):
                if rng.random() < 0.5:
                    for q in rng.sample(states, min(len(states), rng.randint(1, 2))):
                        delta[(ws, sym, q)] = kind.from_fraction(rng.choice(NONDET_POOLS[kind]))
        final = {q: kind.one for q in states if rng.random() < 0.6}
        a = Wta(alphabet, tuple(states), kind, delta, final)
        met["two targets"] += not a.budet
        met["repeated child"] += any(len(set(ws)) < len(ws) for ws, _, _ in delta)
        want = {}
        for tree in trees:
            want[tree] = vec = reference_h_general(a, tree)
            assert h_general(a, tree) == vec
            assert list(vec) == states
            summed = dict.fromkeys(states, 0)  # nonzero terms summed into each state
            for ws, sym, q in delta:
                if sym == tree.symbol:
                    zero_child = kind.zero in [want[c][p] for c, p in zip(tree.children, ws)]
                    met["zero child"] += zero_child
                    summed[q] += not zero_child
            met["cancelled"] += any(n > 1 and vec[q] == kind.zero for q, n in summed.items())
    assert min(met.values()) >= 10, met


@pytest.mark.parametrize("arity", [1, 2, 6, 30])
def test_h_general_of_a_wide_non_bu_det_entry(arity):
    text = WIDE_NONDET.replace("rank f 30", f"rank f {arity}")
    text = text.replace("p," * 29, "p," * (arity - 1))
    a = parse_wta(text)
    assert not a.budet
    tree = t("f(" + ",".join(["alpha"] * arity) + ")", a)
    want = {"p": Fraction(3 * 2 ** (arity - 1), 5), "q": 0}
    assert h_general(a, tree) == want
    if arity < 30:  # the sweep meets 2^arity state tuples
        assert reference_h_general(a, tree) == want
    else:
        assert terms.format_tree(tree) == WIDE_NONDET_TREE
        assert evaluate(a, tree) == Fraction(1610612736, 5)


# --- context transformation ----------------------------------------------


def test_context_transform_examples(even_odd):
    v = ("o", sf.RATIONAL.one)
    assert context_transform(even_odd, terms.Z, v) == v
    assert context_transform(even_odd, c("sigma(z,alpha)", even_odd), None) is None
    assert context_transform(even_odd, c("sigma(z,alpha)", even_odd), v) == (
        "e",
        rat(2),
    )


def test_context_transform_factorization_on_corpus():
    rng = random.Random(5)
    for i in range(20):
        kind = [sf.RATIONAL, sf.BOOLEAN, sf.TROPICAL][i % 3]
        a = random_slim_budet(rng, kind, rng.randint(1, 3))
        ctxs = list(terms.enumerate_contexts(a.alphabet, 3))
        trees = list(enumerate_trees(a.alphabet, 2))
        for _ in range(40):
            ctx = rng.choice(ctxs)
            tree = rng.choice(trees)
            lhs = h_det(a, substitute(ctx, tree))
            rhs = context_transform(a, ctx, h_det(a, tree))
            assert lhs == rhs


def test_context_transform_scalar_compatibility(even_odd):
    ctx = c("sigma(sigma(z,alpha),alpha)", even_odd)
    v = ("o", rat(1))
    scaled = ("o", rat(5))
    out = context_transform(even_odd, ctx, v)
    out_scaled = context_transform(even_odd, ctx, scaled)
    assert out_scaled == (out[0], sf.RATIONAL.times(rat(5), out[1]))


# --- slimming -------------------------------------------------------------


def test_slim_examples(even_odd, non_slim):
    s = slim(non_slim)
    assert s.states == ("p1",)
    assert s.delta == {((), "alpha", "p1"): rat(1)}
    assert is_slim(s)
    assert slim(s) is s  # a slim input is returned itself
    s2 = slim(even_odd)
    assert s2 is even_odd


def test_slim_zero_branch():
    a = parse_wta(
        "semifield rational\nrank alpha 0\nrank gamma 1\n"
        "trans gamma(p) -> p @ 1\nfinal p @ 1\n"
    )
    assert reachable_states(a) == frozenset()
    s = slim(a)
    assert len(s.states) == 1
    assert s.final == {}
    assert is_total(s)
    for tree in enumerate_trees(a.alphabet, 3):
        assert evaluate(s, tree) == sf.RATIONAL.zero
        assert evaluate(a, tree) == sf.RATIONAL.zero


def test_slim_preserves_semantics_on_corpus():
    rng = random.Random(31)
    for i in range(20):
        kind = [sf.RATIONAL, sf.MAXTIMES][i % 2]
        a = random_slim_budet(rng, kind, rng.randint(1, 4))
        # knock out a transition to possibly create unreachable states
        if len(a.delta) > 1:
            key = sorted(a.delta)[rng.randrange(len(a.delta))]
            delta = dict(a.delta)
            del delta[key]
            a = Wta(a.alphabet, a.states, a.kind, delta, a.final)
        s = slim(a)
        assert is_slim(s)
        assert (s is a) == is_slim(a)
        assert slim(s) is s
        assert len(s.states) <= len(a.states)
        for tree in enumerate_trees(a.alphabet, 4):
            assert evaluate(s, tree) == evaluate(a, tree)


def test_dead_states(even_odd, gamma3):
    assert dead_states(even_odd) == frozenset()
    assert dead_states(gamma3) == frozenset()
    a = parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> p @ 1\ntrans beta() -> d @ 1\nfinal p @ 1\n"
    )
    assert dead_states(a) == frozenset({"d"})


def test_live_states_are_slims_states_not_dead():
    rng = random.Random(354)
    alphabet = RankedAlphabet([("t", 3), ("s", 2), ("g", 1), ("a", 0), ("b", 0)])
    automata = [parse_wta(text) for text in (EVEN_ODD, GAMMA3, NON_SLIM, TWO_LEAF)]
    for _ in range(300):
        states = tuple(f"r{i}" for i in range(rng.randint(1, 5)))
        delta = {
            (ws, sym, rng.choice(states)): sf.RATIONAL.one
            for sym, k in alphabet._arity.items()
            for ws in itertools.product(states, repeat=k)
            if rng.random() < 0.3 / (k + 1)
        }
        final = {q: sf.RATIONAL.one for q in states if rng.random() < 0.3}
        automata.append(Wta(alphabet, states, sf.RATIONAL, delta, final))
    kinds = set()
    for a in automata:
        s = slim(a)
        live = automaton._live(a)
        assert live == set(s.states) - dead_states(s), format_wta(a)
        kinds.add((s is a, len(live) == len(s.states), bool(live)))
    assert len(kinds) == 6  # slim or not; all live, some dead, or a zero language


def test_representative_trees_examples(even_odd, gamma3, non_slim):
    assert representative_trees(gamma3) == {
        "q1": t("alpha", gamma3),
        "q2": t("gamma(alpha)", gamma3),
        "q3": t("gamma(gamma(alpha))", gamma3),
    }
    assert representative_trees(even_odd) == {
        "o": t("alpha", even_odd),
        "e": t("sigma(alpha,alpha)", even_odd),
    }
    single = slim(non_slim)
    assert representative_trees(single) == {"p1": t("alpha", non_slim)}
    with pytest.raises(PreconditionError):
        representative_trees(non_slim)


def _same_first_trees(a):
    derived = representative_trees(a)
    assert list(derived.items()) == list(first_trees(a).items())
    return derived


def test_representative_trees_match_enumeration_on_corpus():
    rng = random.Random(606)
    for i in range(240):
        kind = sf.KINDS[i % 4]
        binary = i % 3 == 0
        a = random_slim_budet(rng, kind, rng.randint(1, 2 if binary else 4), binary)
        _same_first_trees(a)


def test_representative_trees_match_enumeration_on_high_witnesses():
    rng = random.Random(607)
    for height in range(1, 7):
        for kind in sf.KINDS:
            a = layered(rng, kind, rng.randint(height + 1, 3 * height), height)
            reps = _same_first_trees(a)
            assert max(map(terms.height, reps.values())) == height
    for n in range(1, 6):
        reps = _same_first_trees(chain(rng, sf.KINDS[n % 4], n))
        assert [terms.height(reps[f"q{i}"]) for i in range(n)] == list(range(n))


def test_representative_trees_are_shared():
    # the tree of q63 has 2^64 - 1 nodes and 64 distinct ones
    reps = representative_trees(chain(random.Random(608), sf.BOOLEAN, 64))
    top = reps["q63"]
    assert terms.height(top) == 63
    assert len(postorder(top)) == 64
    assert top.children[0] is top.children[1] is reps["q62"]


def _swept_reachable(a):
    reached = set()
    while True:
        new = {q for (ws, _sym, q) in a.delta if reached.issuperset(ws)} - reached
        if not new:
            return reached
        reached |= new


def _swept_dead(a):
    observable = set(a.final)
    while True:
        new = {p for (ws, _sym, q) in a.delta if q in observable for p in ws} - observable
        if not new:
            return set(a.states) - observable
        observable |= new


def test_reachable_and_dead_states_match_sweeps():
    rng = random.Random(609)
    alphabet = RankedAlphabet([("s", 2), ("g", 1), ("a", 0), ("b", 0)])
    two_targets = 0  # non-bu-det automata met with a key of two targets
    for trial in range(600):
        budet = trial % 2 == 0
        n = rng.randint(1, 6)
        states = [f"q{i}" for i in range(n)]
        delta = {}
        for sym, k in (("s", 2), ("g", 1), ("a", 0), ("b", 0)):
            for ws in itertools.product(states, repeat=k):
                if rng.random() < 0.3:
                    for q in rng.sample(states, 1 if budet else min(n, rng.randint(1, 2))):
                        delta[(ws, sym, q)] = sf.BOOLEAN.one
        final = {q: sf.BOOLEAN.one for q in states if rng.random() < 0.3}
        a = Wta(alphabet, tuple(states), sf.BOOLEAN, delta, final)
        swept = _swept_reachable(a)
        assert reachable_states(a) == swept
        assert slim(a).states == (tuple(q for q in states if q in swept) or (states[0],))
        if budet:
            assert dead_states(a) == _swept_dead(a)
        else:
            two_targets += not a.budet
    assert two_targets > 100


def test_an_entry_waits_on_each_child_position():
    # finding p counts down both of t(p,q,p)'s p positions; q stays missing
    a = parse_wta(
        "semifield boolean\nrank a 0\nrank t 3\ntrans a() -> p @ 1\n"
        "trans t(p,q,p) -> r @ 1\ntrans t(p,p,p) -> s @ 1\nfinal r @ 1\n"
    )
    assert reachable_states(a) == {"p", "s"}
    assert slim(a).states == ("p", "s")
    assert dead_states(slim(a)) == {"p", "s"}


def test_inverse_view_numbers_the_entries_in_delta_order():
    rng = random.Random(611)
    automata = [a for kind in sf.KINDS for a in small_corpus(kind, 12, seed=611)]
    automata += [split_states(rng, a) for a in automata]
    automata.append(sparse_binary(random.Random(1), sf.RATIONAL, 2000))
    for a in automata:
        entries, into, uses = automaton._inverse(a)
        assert (entries, into, uses) == reference_inverse(a)
        # every (entry, position) is used once
        met = sorted(use for q in a.states for use in uses[q])
        assert met == [(e, i) for e, (ws, _, _) in enumerate(a.delta) for i in range(len(ws))]
        assert all(entries[e][0][0][i] == p for p in a.states for e, i in uses[p])


def _corpus_variants(seed):
    """Each small-corpus automaton in all four semifields, then copies of
    it: made total, total less one entry, and total with a second target
    on one key, after its first entry, before it, or a new state."""
    rng = random.Random(seed)
    for kind in sf.KINDS:
        for a in small_corpus(kind, 12, seed=seed):
            full = dict(a.delta)
            for sym in a.alphabet.symbols():
                for ws in itertools.product(a.states, repeat=a.alphabet.arity(sym)):
                    if not targets(a, ws, sym):
                        full[(ws, sym, rng.choice(a.states))] = kind.one
            keys = list(full)
            drop = rng.choice(keys)
            ws, sym, q = rng.choice(keys)
            other = next((p for p in a.states if p != q), q)
            variants = [
                (a.states, a.delta),
                (a.states, full),
                (a.states, {key: w for key, w in full.items() if key != drop}),
                (a.states, {**full, (ws, sym, other): kind.one}),
                (a.states, {(ws, sym, other): kind.one, **full}),
                (a.states + ("extra",), {**full, (ws, sym, "extra"): kind.one}),
            ]
            for states, delta in variants:
                yield Wta(a.alphabet, states, kind, delta, a.final)


def test_is_total_matches_enumeration_on_corpus():
    seen = set()  # (total, bu-det) pairs met
    for b in _corpus_variants(610):
        assert is_total(b) == reference_is_total(b)
        seen.add((is_total(b), b.budet))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


def test_step_map_is_the_first_entry_of_each_key():
    second_first = 0  # keys whose step is not their last entry
    for b in _corpus_variants(610):
        keys = [(ws, sym) for ws, sym, _ in b.delta]
        assert b._succ.keys() == set(keys)
        for key, step in b._succ.items():
            entries = targets(b, *key)
            assert step == entries[0]
            second_first += step != entries[-1]
        assert b.budet == (len(set(keys)) == len(keys))
    assert second_first > 20


# --- addition irrelevance -------------------------------------------------


def test_addition_irrelevance_invariant():
    # same (delta, F) under (Q>=0, max, *) and (Q>=0, +, *): equal values
    rng = random.Random(77)
    for _ in range(10):
        a = random_slim_budet(rng, sf.MAXTIMES, rng.randint(1, 3))
        as_rational = Wta(a.alphabet, a.states, sf.RATIONAL, a.delta, a.final)
        for tree in enumerate_trees(a.alphabet, 4):
            assert evaluate(a, tree) == evaluate(as_rational, tree)


# --- .wta format ----------------------------------------------------------


def test_parse_format_roundtrip(even_odd):
    text = format_wta(even_odd)
    again = parse_wta(text)
    assert again.states == even_odd.states
    assert again.delta == even_odd.delta
    assert again.final == even_odd.final
    assert format_wta(again) == text


def test_parse_errors():
    with pytest.raises(WtaError):
        parse_wta("rank alpha 0\ntrans alpha() -> p @ 1\n")  # no semifield
    with pytest.raises(WtaError):
        # a digit that is not a decimal digit
        parse_wta("semifield rational\nrank alpha \u00b2\ntrans alpha() -> p @ 1\n")
    with pytest.raises(WtaError):
        parse_wta(
            "semifield rational\nrank alpha 0\n"
            "trans alpha() -> p @ 1\ntrans alpha() -> p @ 2\n"  # duplicate key
        )
    with pytest.raises(WtaError):
        parse_wta(
            "semifield rational\nrank alpha 0\n"
            "final p @ 1\nfinal p @ 2\n"  # duplicate final
        )
    with pytest.raises(WtaError):
        parse_wta(
            "semifield rational\nrank alpha 0\nrank alpha 0\n"
            "trans alpha() -> p @ 1\n"  # duplicate rank
        )
    with pytest.raises(WtaError):
        parse_wta("semifield rational\ntrans alpha() -> p @ 1\n")  # undeclared
    with pytest.raises(WtaError):
        parse_wta("semifield whatever\nrank alpha 0\ntrans alpha() -> p @ 1\n")
    with pytest.raises(WtaError):
        parse_wta(
            "semifield rational\nrank alpha 0\n"
            "trans alpha() -> alpha @ 1\n"  # state/symbol collision
        )


def test_state_names_that_do_not_parse_back_are_refused():
    alphabet = RankedAlphabet([("alpha", 0)])
    one = sf.RATIONAL.one
    for name in ("a b", "z", "1q", "q,r", "q)", "alpha", "q\n", 7):
        with pytest.raises(WtaError, match="state name"):
            Wta(alphabet, (name,), sf.RATIONAL, {((), "alpha", name): one}, {})
    for name in ("1q", "z", "alpha"):
        with pytest.raises(WtaError, match="^line 3: .*state name"):
            parse_wta(f"semifield rational\nrank alpha 0\ntrans alpha() -> {name} @ 1\n")
    names = ("q", "Q_1", "_p", "c0__alpha", "zz")
    a = Wta(alphabet, names, sf.RATIONAL, {((), "alpha", q): one for q in names}, {"q": one})
    text = format_wta(a)
    again = parse_wta(text)
    assert again.states == names
    assert format_wta(again) == text


def test_zero_weights_normalized_away():
    a = parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> p @ 1\ntrans beta() -> p @ 0\nfinal p @ 1\n"
    )
    assert ((), "beta", "p") not in a.delta
    # a key read with a zero weight is still read
    with pytest.raises(WtaError, match=r"^line 5: duplicate transition for beta\(\)$"):
        parse_wta(
            "semifield rational\nrank alpha 0\nrank beta 0\n"
            "trans beta() -> p @ 0\ntrans beta() -> p @ 1\n"
        )


def test_comments_and_blank_lines():
    a = parse_wta(
        "# header\nsemifield rational\n\nrank alpha 0  # the leaf\n"
        "trans alpha() -> p @ 2\nfinal p @ 1 # done\n"
    )
    assert evaluate(a, Tree("alpha")) == rat(2)


def test_lines_end_only_at_universal_newlines():
    head = "semifield rational\nrank a 0\n"
    # a comment runs to the end of its line, past a form feed
    a = parse_wta(head + "# note\x0ctrans a() -> q @ 1\ntrans a() -> p @ 1\n")
    assert a.states == ("p",)
    body = "trans a() -> p @ 1\nfinal p @ 1\nfinal p @ 2\n"
    for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(WtaError, match="^line 6: duplicate final line for p$"):
            parse_wta(head + f"# note{sep}# more\n" + body)
        assert parse_wta(head + f"# note{sep}more\ntrans a() -> p @ 1\n").states == ("p",)
    for newline in ("\r\n", "\r"):
        with pytest.raises(WtaError, match="^line 6: duplicate final line for p$"):
            parse_wta((head + "# note\n" + body).replace("\n", newline))


@pytest.mark.parametrize("line, message", [
    # the only "->" after the last "@"
    ("trans a() @ 1 -> q", r"expected 'trans SYM\(\.\.\.\) -> q @ w'"),
    ("trans f @ 1 -> q", r"expected 'trans SYM\(\.\.\.\) -> q @ w'"),
    # digits are ASCII, and an arity no longer than int() converts
    ("rank b \u0661", "bad arity '\u0661'"),
    ("trans a() -> q @ \u0662", "malformed weight: '\u0662'"),
    ("rank b " + "1" * 5000, f"bad arity '{'1' * 60}'"),
    # more numerator digits than int() converts to text
    ("trans a() -> q @ " + "4" * 4400 + "/0", f"zero denominator in weight: '{'4' * 60}'"),
], ids=["misordered", "misordered-bare", "unicode-arity", "unicode-weight", "long-arity",
        "zero-denominator"])
def test_malformed_line_is_named(line, message):
    with pytest.raises(WtaError, match=f"^line 4: {message}$"):
        parse_wta(f"semifield rational\nrank a 0\nrank f 1\n{line}\ntrans a() -> p @ 1\n")


def test_bad_transition_entries_are_wta_errors():
    alphabet = RankedAlphabet([("f", 1), ("alpha", 0)])
    one = sf.RATIONAL.one
    good = {((), "alpha", "q"): one, (("q",), "f", "q"): one}
    cases = [
        ({((), "zz", "q"): one}, "unknown symbol in transition: 'zz'"),
        ({((), "f", "q"): one}, "transition arity mismatch for f"),
        ({(("r",), "f", "q"): one}, "unknown state in transition: r"),
        ({(("q",), "f", "r"): one}, "unknown state in transition: r"),
        # the first bad entry in the order of delta is named
        ({(("s",), "f", "q"): one, ((), "zz", "q"): one}, "unknown state in transition: s"),
        ({((), "zz", "q"): one, (("s",), "f", "q"): one}, "unknown symbol in transition: 'zz'"),
    ]
    for bad, message in cases:
        with pytest.raises(WtaError, match=f"^{message}$"):
            Wta(alphabet, ("q",), sf.RATIONAL, {**good, **bad}, {})
    with pytest.raises(WtaError, match="^unknown state in final map: r$"):
        Wta(alphabet, ("q",), sf.RATIONAL, good, {"q": one, "r": one})


def test_bad_fields_are_wta_errors():
    alphabet = RankedAlphabet([("alpha", 0)])
    one, zero = sf.RATIONAL.one, sf.RATIONAL.zero
    fields = {"states": ("q",), "kind": sf.RATIONAL, "delta": {((), "alpha", "q"): one},
              "final": {"q": one}}
    cases = [
        ({"kind": "rational"}, "kind must be a semifield object, got 'rational'"),
        ({"states": ()}, "automaton needs at least one state"),
        ({"states": ("q", "q")}, "duplicate state names"),
        ({"delta": {((), "alpha", "q"): zero}}, "zero weights must not be stored"),
        ({"final": {"q": zero}}, "zero weights must not be stored"),
    ]
    for bad, message in cases:
        with pytest.raises(WtaError, match=f"^{message}$"):
            Wta(alphabet, **{**fields, **bad})
    with pytest.raises(WtaError, match=r"^automaton declares no states \(no trans/final lines\)$"):
        parse_wta("semifield rational\nrank alpha 0\n")


def _corpus_texts():
    """The `format_wta` text of corpus automata in all four semifields."""
    rng = random.Random(1701)
    texts = [format_wta(parse_wta(text)) for text in (EVEN_ODD, GAMMA3, NON_SLIM, TWO_LEAF)]
    for kind in sf.KINDS:
        automata = list(small_corpus(kind, 9, seed=1701))
        automata += [chain(rng, kind, 5), layered(rng, kind, 7, 3), sparse_binary(rng, kind, 12)]
        texts += [format_wta(a) for a in automata]
    return texts


_RESPELLINGS = [
    ("(", (" (", "( ", "\t(")),
    (",", (" ,", ", ", "\t,")),
    (" -> ", ("->", "  ->\t")),
    (" @ ", ("@", " @\t")),
]


def _respell(rng, text):
    """``text`` with the same meaning, spelled with the freedom the format
    gives: spaces and tabs, comments, CRLF or CR line ends, bare nullary
    symbols."""
    lines = []
    for line in text.splitlines():
        for old, new in _RESPELLINGS:
            if rng.random() < 0.2:
                line = line.replace(old, rng.choice(new))
        if rng.random() < 0.3:
            line = line.replace("() ", " ", 1)
        if rng.random() < 0.2:
            line = rng.choice((" ", "\t", "  ")) + line + rng.choice((" ", "\t", ""))
        if rng.random() < 0.2:
            line += rng.choice((" # note", "#", "\t# trans a() -> q @ 1"))
        lines.append(line)
        if rng.random() < 0.1:
            lines.append(rng.choice(("", "# comment", "   ")))
    return rng.choice(("\n", "\r\n", "\r")).join(lines) + "\n"


def _outcome(reader, text):
    try:
        a = reader(text)
    except WtaError as exc:
        return ("error", str(exc))
    return (a.states, format_wta(a))


def test_parse_wta_matches_the_reference_reader():
    rng = random.Random(1702)
    texts = _corpus_texts()
    for text in texts:
        read = _outcome(reference_parse_wta, text)
        assert read[0] != "error"
        assert _outcome(parse_wta, text) == read
        for _ in range(3):
            respelled = _respell(rng, text)
            assert _outcome(parse_wta, respelled) == read
            assert _outcome(reference_parse_wta, respelled) == read
    errors = 0
    for _ in range(3000):
        text = rng.choice(texts)
        i = rng.randrange(len(text))
        char = rng.choice("(),#@->z0123456789 \t\r")
        text = text[:i] + rng.choice(("", char, char + text[i])) + text[i + 1 :]
        got = _outcome(parse_wta, text)
        assert got == _outcome(reference_parse_wta, text), repr(text)
        errors += got[0] == "error"
    assert min(errors, 3000 - errors) > 300  # the mutations reach both outcomes
    # the arrow after the last '@': both readers refuse the line
    for line in ("trans a() @ 1 -> q", "trans f @ 1 -> q"):
        text = f"semifield rational\nrank a 0\nrank f 0\n{line}\nfinal q @ 1\n"
        assert _outcome(parse_wta, text) == _outcome(reference_parse_wta, text) == (
            "error", "line 4: expected 'trans SYM(...) -> q @ w'")


_BLOCK_TEXT = (
    "semifield rational\nrank a 0\nrank g 1\nrank f 2\n"
    "trans a() -> p @ 1\ntrans g(p) -> q @ 2\ntrans f(p,q) -> q @ 1/2\ntrans f(q,q) -> p @ 3\n"
    "final p @ 1\nfinal q @ 2\n"
)
_BLOCK_LINES = _BLOCK_TEXT.splitlines(keepends=True)


def _with_line(n, text):
    """`_BLOCK_TEXT` with ``text`` in place of its line ``n``."""
    return "".join(_BLOCK_LINES[: n - 1]) + text + "".join(_BLOCK_LINES[n:])


# (name, text, the reader that answers, the error or None)
_BLOCK_CASES = [
    ("blank-line-in-block", _with_line(6, "trans g(p) -> q @ 2\n\n"), "block", None),
    ("comment-line-in-block", _with_line(6, "trans g(p) -> q @ 2\n# note\n"), "block", None),
    ("indented-trans-comment", _with_line(6, "trans g(p) -> q @ 2\n  # trans a() -> q @ 1\n"),
     "block", None),
    ("trans-comment-after-a-trans-line", _with_line(6, "trans g(p) -> q @ 2 # trans a() -> q @ 1\n"),
     "lines", None),
    ("crlf", _BLOCK_TEXT.replace("\n", "\r\n"), "block", None),
    ("cr", _BLOCK_TEXT.replace("\n", "\r"), "block", None),
    ("spaced-trans-line", _with_line(7, "trans f( p , q ) -> q @ 1/2\n"), "lines", None),
    ("nullary-without-parens", _with_line(5, "trans a -> p @ 1\n"), "lines", None),
    ("duplicate-trans-line", _with_line(8, "trans f(q,q) -> p @ 3\ntrans g(p) -> q @ 2\n"), "lines",
     "line 9: duplicate transition for g('p',)"),
    ("undeclared-symbol", _with_line(6, "trans h(p) -> q @ 2\n"), "lines",
     "line 6: undeclared symbol 'h'"),
    ("arity-mismatch", _with_line(7, "trans f(p) -> q @ 1/2\n"), "lines",
     "line 7: f has arity 2, got 1 arguments"),
    ("empty-argument", _with_line(7, "trans f(,q) -> q @ 1/2\n"), "lines",
     "line 7: malformed transition 'f(,q) -> q @ 1/2'"),
    ("state-z", _with_line(6, "trans g(p) -> z @ 2\n"), "lines", "line 6: bad state name 'z'"),
    ("state-symbol", _with_line(6, "trans g(p) -> g @ 2\n"), "lines",
     "line 6: state name collides with symbol 'g'"),
    ("state-digit-first", _with_line(6, "trans g(p) -> 0q @ 2\n"), "lines",
     "line 6: bad state name '0q'"),
    # a bad name comes first, though the reader finds the duplicate first
    ("bad-name-before-duplicate", _with_line(8, "trans g(z) -> p @ 3\ntrans g(p) -> q @ 2\n"),
     "lines", "line 8: bad state name 'z'"),
    ("bad-name-on-a-final-line", _BLOCK_TEXT + "final 0r @ 1\n", "lines",
     "line 11: bad state name '0r'"),
    ("zero-trans-weight", _with_line(8, "trans f(q,q) -> p @ 0\n"), "lines", None),
    ("zero-final-weight", _with_line(10, "final q @ 0\n"), "lines", None),
    ("tropical-inf", _with_line(10, "final q @ inf\n").replace("rational", "tropical")
     .replace("-> p @ 3", "-> p @ inf"), "lines", None),
    ("rank-line-after-block", _with_line(8, "trans f(q,q) -> p @ 3\nrank g 1\n").replace(
        "rank g 1\n", "", 1), "block", None),
    ("trans-line-after-final", _BLOCK_TEXT.replace(_BLOCK_LINES[7], "") + _BLOCK_LINES[7],
     "block", None),
    ("second-semifield-line", _with_line(9, "semifield rational\nfinal p @ 1\n"), "lines",
     "line 9: duplicate semifield line"),
    ("canonical-final-lines", _BLOCK_TEXT, "block", None),
    ("final-lines-before-trans", "".join(_BLOCK_LINES[:4] + _BLOCK_LINES[8:] + _BLOCK_LINES[4:8]),
     "block", None),
    ("final-comment-line", _with_line(10, "final q @ 2\n# final q @ 2\n"), "block", None),
    ("spaced-final-line", _with_line(10, "final  q @ 2\n"), "lines", None),
    ("spaced-final-weight", _with_line(10, "final q @2\n"), "lines", None),
    ("indented-final-line", _with_line(10, " final q @ 2\n"), "lines", None),
    ("final-comment", _with_line(10, "final q @ 2 # note\n"), "lines", None),
    ("duplicate-final-line", _with_line(10, "final q @ 2\nfinal p @ 3\n"), "lines",
     "line 11: duplicate final line for p"),
    ("duplicate-final-line-spelled-apart", _with_line(10, "final q @ 2\nfinal p @3\n"), "lines",
     "line 11: duplicate final line for p"),
    ("zero-final-weight-first", _with_line(9, "final p @ 0\n"), "lines", None),
]


@pytest.mark.parametrize("text, reader, error", [case[1:] for case in _BLOCK_CASES],
                         ids=[case[0] for case in _BLOCK_CASES])
def test_block_reader_and_its_fallback(monkeypatch, text, reader, error):
    assert format_wta(parse_wta(_BLOCK_TEXT)) == _BLOCK_TEXT
    fallbacks = []
    line_reader = automaton._read_lines

    def counted(text):
        fallbacks.append(text)
        return line_reader(text)

    monkeypatch.setattr(automaton, "_read_lines", counted)
    got = _outcome(parse_wta, text)
    assert got == _outcome(reference_parse_wta, text)
    assert got[0] == ("error" if error else ("p", "q"))
    if error:
        assert got[1] == error
    assert len(fallbacks) == (reader == "lines")


def test_block_reader_splits_canonical_final_lines(monkeypatch):
    """The block reader hands `_read_directives` no final line in
    `format_wta`'s spelling: the second split reads them all."""
    read = []
    directives = automaton._read_directives

    def recording(text):
        read.append(text)
        return directives(text)

    monkeypatch.setattr(automaton, "_read_directives", recording)
    assert format_wta(parse_wta(_BLOCK_TEXT)) == _BLOCK_TEXT
    assert read == ["semifield rational\nrank a 0\nrank g 1\nrank f 2\n"]


_PIECES = ("@ 1 ->", "-> q @", "/0", "4" * 5000, "\u0661", "@", "->", "(", ")", ",", ".", "#")


def _mangle(rng, text):
    """``text`` with one to three edits: one or two pieces in place of up
    to three characters, or a segment of up to 30 characters moved."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        if rng.random() < 0.6:
            pieces = "".join(rng.choices(_PIECES, k=rng.randint(1, 2)))
            text = text[:i] + pieces + text[i + rng.randrange(4) :]
        else:
            j = i + rng.randrange(1, 31)
            segment, rest = text[i:j], text[:i] + text[j:]
            k = rng.randrange(len(rest) + 1)
            text = rest[:k] + segment + rest[k:]
    return text


_INPUT_ERRORS = (WtaError, terms.TermError, sf.WeightSyntaxError, sf.SemifieldError)


def test_mangled_text_raises_only_input_errors():
    rng = random.Random(1801)
    texts = _corpus_texts()
    read = 0
    for _ in range(12000):
        try:
            parse_wta(_mangle(rng, rng.choice(texts)))
            read += 1
        except WtaError:
            pass
    assert read > 50  # some mangled texts still read
    monomials = []
    for text in texts[::4]:
        a = parse_wta(text)
        trees = list(itertools.islice(enumerate_trees(a.alphabet, 3), 20))
        for _ in range(5):
            m = format_monomial(random_monomial(rng, a.kind, trees))
            monomials.append((m, a.alphabet, a.kind))
    for _ in range(12000):
        m, alphabet, kind = rng.choice(monomials)
        weight, _, tree = m.partition(".")
        # the weight, the tree or the whole text
        m = rng.choice((
            f"{_mangle(rng, weight)}.{tree}", f"{weight}.{_mangle(rng, tree)}", _mangle(rng, m)
        ))
        try:
            parse_monomial(m, alphabet, kind)
        except _INPUT_ERRORS:
            pass
        try:
            terms.parse_tree(m.partition(".")[2], alphabet)
        except _INPUT_ERRORS:
            pass


def test_format_wta_text_takes_the_one_match_path(monkeypatch):
    calls = []
    general = automaton._parse_trans

    def counted(*args):
        calls.append(args)
        return general(*args)

    monkeypatch.setattr(automaton, "_parse_trans", counted)
    texts = _corpus_texts()
    for text in texts:
        parse_wta(text)
    assert not calls
    parse_wta(texts[0].replace(" -> ", "  -> "))  # another spelling takes the general path
    assert calls


def test_a_canonical_parse_checks_each_state_name_once(monkeypatch):
    checked = collections.Counter()
    is_identifier = terms._is_identifier

    def counted(name):
        checked[name] += 1
        return is_identifier(name)

    monkeypatch.setattr(terms, "_is_identifier", counted)
    for text in _corpus_texts():
        checked.clear()
        a = parse_wta(text)
        assert [checked[q] for q in a.states] == [1] * len(a.states)


def spine(a, depth, leaf="alpha"):
    return t("gamma(" * depth + leaf + ")" * depth, a)


def test_wta_is_frozen(even_odd):
    fields = ("alphabet", "states", "kind", "delta", "final", "budet")
    for name in fields + ("_succ", "_runs", "_states", "_derived"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(even_odd, name, getattr(even_odd, name))


def test_deep_spine_eval_and_state(gamma3):
    # gamma^n(alpha) reaches q2 for odd n and q3 for even n >= 2
    depth = 10**5
    first = spine(gamma3, depth)
    second = terms.parse_tree(terms.format_tree(first), equal_alphabet(gamma3.alphabet))
    assert first is not second
    assert state_of(gamma3, first) == "q3"
    assert evaluate(gamma3, first) == rat(2)
    runs = len(gamma3._runs)
    assert evaluate(gamma3, second) == rat(2)  # a hit on the first copy's run
    assert state_of(gamma3, second) == "q3"
    assert len(gamma3._runs) == runs
    assert state_of(gamma3, spine(gamma3, 1001)) == "q2"


def test_run_memo_keeps_only_the_root():
    a = parse_wta(GAMMA3)
    evaluate(a, spine(a, 10**5))
    assert len(a._runs) <= 1
    b = parse_wta(GAMMA3)
    assert state_of(b, spine(b, 10**5)) == "q3"
    assert len(b._states) <= 1 and not b._runs


def _walked(monkeypatch):
    """The node lists `terms.validate_tree` returns from now on."""
    walked = []
    validate = terms.validate_tree

    def recording(*args, **kwargs):
        walked.append(validate(*args, **kwargs))
        return walked[-1]

    monkeypatch.setattr(terms, "validate_tree", recording)
    return walked


class _CountingSucc(dict):
    """A `Wta._succ` that counts the keys looked up with ``get``."""

    def __init__(self, succ):
        super().__init__(succ)
        self.looked_up = collections.Counter()

    def get(self, key, default=None):
        self.looked_up[key] += 1
        return super().get(key, default)


def _counting_succ(a):
    succ = _CountingSucc(a._succ)
    object.__setattr__(a, "_succ", succ)
    return succ


def test_witness_checks_validate_each_node_once(monkeypatch):
    # each derived witness tree has earlier roots as children, so its
    # check is one step and validates no node: one transition lookup per
    # witness root, O(n) in all, not the n^2 / 2 of whole trees
    walked = _walked(monkeypatch)
    for n in (100, 400):
        walked.clear()
        a = chain(random.Random(1502), sf.RATIONAL, n)
        succ = _counting_succ(a)
        assert minimality(a) == (True, True, n)
        assert sum(map(len, walked)) <= 2 * n
        keys = automaton._derivation(a, automaton._least_keys).values()
        assert len(keys) == n and succ.looked_up == collections.Counter(keys)


def test_bad_node_over_or_beside_a_memo_root_is_refused(even_odd):
    x = t("sigma(alpha,sigma(alpha,alpha))", even_odd)
    assert h_det(even_odd, x)[0] == "o" and state_of(even_odd, x) == "o"
    runs, states = dict(even_odd._runs), dict(even_odd._states)
    over = Tree("sigma", (x,))
    beside = Tree("sigma", (x, Tree("alpha", (x,))))
    context = Tree("sigma", (x, terms.Z))
    for bad, message in ((over, "arity"), (beside, "arity"), (context, "not allowed")):
        for run in (h_det, state_of, evaluate):
            with pytest.raises(terms.TermError, match=message):
                run(even_odd, bad)
            assert even_odd._runs == runs and even_odd._states == states


def test_subtree_equal_to_a_memo_root_ends_the_walk(gamma3, monkeypatch):
    x = spine(gamma3, 1000)
    apart = terms.parse_tree(terms.format_tree(x), equal_alphabet(gamma3.alphabet))
    assert apart is not x and apart == x
    top = Tree("gamma", (apart,))
    fresh = parse_wta(GAMMA3)
    want = h_det(fresh, top), state_of(fresh, top)
    h_det(gamma3, x)
    state_of(gamma3, x)
    walked = _walked(monkeypatch)
    assert (h_det(gamma3, top), state_of(gamma3, top)) == want
    assert walked == []  # one step over the memo root: no walk at all


def test_h_general_matches_h_det_on_deep_spine(gamma3):
    tree = spine(gamma3, 10**4)
    q, w = h_det(gamma3, tree)
    vec = h_general(gamma3, tree)
    assert vec[q] == w
    assert all(v == sf.RATIONAL.zero for p, v in vec.items() if p != q)


def _random_dag(rng, alphabet, n):
    """A tree of n + 1 built nodes or fewer: each new node takes its
    children from all the nodes built so far, so subtrees are shared."""
    pool = [Tree(s) for s in alphabet.nullary_symbols()]
    inner = [s for s in alphabet.symbols() if alphabet.arity(s)]
    for _ in range(n if inner else 0):
        s = rng.choice(inner)
        pool.append(Tree(s, tuple(rng.choice(pool) for _ in range(alphabet.arity(s)))))
    return pool[-1]


def _shapes(rng, alphabet):
    """Random DAGs, a spine and balanced DAGs over the first symbol of
    arity >= 1, the leaf at the bottom of each place: a balanced DAG of
    height h reaches its leaf by k^h paths."""
    leaf = Tree(alphabet.nullary_symbols()[0])
    f = next((s for s in alphabet.symbols() if alphabet.arity(s)), None)
    shapes = [_random_dag(rng, alphabet, n) for n in (1, 4, 12, 40)]
    if f is not None:
        k = alphabet.arity(f)
        x = y = leaf
        for depth in range(300):
            x = Tree(f, (x,) + (leaf,) * (k - 1))
            if depth < 10:
                y = Tree(f, (y,) * k)
                shapes.append(y)
        shapes.append(x)
    return shapes


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_fold_matches_the_per_node_run(kind):
    """The weighted run, folded per distinct weight, against
    `corpus.reference_run`'s product per node: on trees built by ``Tree``
    (walked) and on their parses (the parse's node list), each on a copy
    with an empty memo, and on the same trees over memo roots."""
    rng = random.Random(3801)
    automata = list(small_corpus(kind, 12, seed=3801)) + [chain(rng, kind, 6)]
    weighed = 0
    for a in automata:
        for x in _shapes(rng, a.alphabet):
            want = reference_run(a, x)
            parsed = terms.parse_tree(terms.format_tree(x), a.alphabet)
            assert terms.validate_tree(parsed, a.alphabet) is a.alphabet._nodes[id(parsed)]
            for tree in (x, parsed):
                got = h_det(_copy(a), tree)
                assert got == want and (got is None or sf.eq(got[1], want[1]))
            weighed += want is not None
            # the same tree over earlier roots: some of its nodes run first
            b = _copy(a)
            nodes = postorder(x)
            for node in rng.sample(nodes, len(nodes) // 3):
                assert h_det(b, node) == reference_run(a, node)
            got = h_det(b, x)
            assert got == want and (got is None or sf.eq(got[1], want[1]))
    assert weighed >= 50


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_fold_counts_a_memo_root_once_per_path(kind):
    """A memo root under k paths is k factors of its stored weight, the
    root of the run included once: s(x, x) over a run x, and a balanced
    DAG whose middle level is a memo root."""
    for a in small_corpus(kind, 12, seed=3802):
        binary = [s for s in a.alphabet.symbols() if a.alphabet.arity(s) == 2]
        f = (binary or [s for s in a.alphabet.symbols() if a.alphabet.arity(s)])[0]
        k = a.alphabet.arity(f)
        x = Tree(a.alphabet.nullary_symbols()[0])
        for _ in range(4):
            x = Tree(f, (x,) * k)
        b = _copy(a)
        mid = x.children[0].children[0]
        assert h_det(b, mid) == reference_run(a, mid)
        for tree in (x, Tree(f, (x,) * k), Tree(f, (mid,) * k)):
            got, want = h_det(b, tree), reference_run(a, tree)
            assert got == want and (got is None or sf.eq(got[1], want[1]))
            assert evaluate(b, tree) == evaluate(_copy(a), tree)


def _apart(x):
    """A tree equal to ``x`` whose nodes are all new objects, shared as
    in ``x``."""
    new = {}
    for node in postorder(x):
        new[id(node)] = Tree(node.symbol, tuple(new[id(c)] for c in node.children))
    return new[id(x)]


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_one_step_over_memo_roots(kind, monkeypatch):
    """A node of its symbol's arity whose children the memo holds is one
    step, with no walk: random DAGs, spines and balanced DAGs whose
    children are run first, some children rebuilt apart, against
    `corpus.reference_run` and against a fresh automaton, which walks."""
    rng = random.Random(3901)
    automata = list(small_corpus(kind, 12, seed=3901)) + [chain(rng, kind, 6)]
    walked = _walked(monkeypatch)
    steps = sinks = weighed = 0
    for a in automata:
        for x in _shapes(rng, a.alphabet):
            want = reference_run(a, x)
            b = _copy(a)
            for c in x.children:
                assert h_det(b, c) == reference_run(a, c)
                state_of(b, c)
            top = Tree(x.symbol, tuple(_apart(c) if rng.random() < 0.5 else c for c in x.children))
            fresh = _copy(a)
            walked.clear()
            got = h_det(b, top)
            assert got == want and (got is None or sf.eq(got[1], want[1]))
            assert state_of(b, top) == (want and want[0])
            assert walked == []
            assert evaluate(b, top) == evaluate(fresh, top)
            assert (h_det(fresh, top), state_of(fresh, top)) == (got, want and want[0])
            assert b._runs[top] == got and b._states[top] == (want and want[0])
            steps += 1
            sinks += any(b._runs[c] is None for c in x.children)
            weighed += want is not None
    assert steps >= 100 and sinks >= 5 and weighed >= 50


def test_a_rational_spine_folds_each_distinct_weight_once():
    """Counted, not timed: a 10^4-node spine, parsed or built by ``Tree``,
    costs one `power_product` over its two distinct weights and one
    ``times`` for the final weight, not a product per node."""
    calls = collections.Counter()

    def counting(name, op):
        def counted(*args):
            calls[name] += 1
            if name == "power_product":
                args = (list(args[0]),)
                calls["factors"] += len(args[0])
            return op(*args)
        return counted

    k = sf.RATIONAL
    kind = dataclasses.replace(k, name="counted", times=counting("times", k.times),
                               product=counting("product", k.product),
                               power_product=counting("power_product", k.power_product))
    text = "semifield rational\nrank a 0\nrank g 1\ntrans a() -> q @ 5/7\ntrans g(q) -> q @ 2/3\nfinal q @ 3\n"
    n = 10**4
    for parsed in (True, False):
        a = _copy(parse_wta(text), kind)
        tree = t("g(" * n + "a" + ")" * n, a) if parsed else Tree("a")
        for _ in range(0 if parsed else n):
            tree = Tree("g", (tree,))
        calls.clear()
        assert evaluate(a, tree) == Fraction(2, 3) ** n * Fraction(15, 7)
        assert calls == {"times": 1, "power_product": 1, "factors": 2}


def test_h_general_frees_each_vector_after_its_last_parent():
    """`h_general` keeps a child's vector only until its last parent is
    done, and no count for a node with one parent place: on a 10^5-node
    spine of a 16-state automaton, one vector per node would hold over
    60 MB and one count per node 10 MB; a DAG of shared nodes gives the
    tuple sweep's answer."""
    states = [f"q{i}" for i in range(16)]
    text = "semifield boolean\nrank a 0\nrank g 1\nrank s 2\n"
    text += "trans a() -> q0 @ 1\ntrans a() -> q1 @ 1\ntrans g(q0) -> q0 @ 1\ntrans g(q1) -> q1 @ 1\n"
    text += "trans s(q0,q1) -> q0 @ 1\ntrans s(q1,q1) -> q1 @ 1\n"
    text += "".join(f"final {q} @ 1\n" for q in states)
    a = parse_wta(text)
    assert not a.budet and len(a.states) == 16
    n = 10**5
    tree = terms.parse_tree("g(" * n + "a" + ")" * n, a.alphabet)
    tracemalloc.start()
    try:
        vec = h_general(a, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec == {q: q in ("q0", "q1") for q in states}
    assert peak < 2**20, peak
    x = Tree("a")
    for _ in range(6):
        x = Tree("s", (x, Tree("g", (x,))))
    for tree in (x, terms.parse_tree(terms.format_tree(x), a.alphabet)):
        assert h_general(a, tree) == reference_h_general(a, tree)


def test_h_general_counts_only_shared_nodes():
    """`h_general` keeps a parent count only for a node with two or more
    parent places: on a binary spine whose leaf is shared by every level,
    it holds one count and O(1) vectors, where a count per node would
    hold about 3 MB."""
    text = "semifield boolean\nrank a 0\nrank s 2\n"
    text += "trans a() -> p @ 1\ntrans a() -> q @ 1\n"
    text += "trans s(p,q) -> p @ 1\ntrans s(q,q) -> q @ 1\nfinal p @ 1\n"
    a = parse_wta(text)
    assert not a.budet
    n = 3 * 10**4
    tree = terms.parse_tree("s(" * n + "a" + ",a)" * n, a.alphabet)
    tracemalloc.start()
    try:
        vec = h_general(a, tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec == {"p": True, "q": True}
    assert peak < 2**18, peak


def test_run_cache_dies_with_the_automaton():
    a = parse_wta(GAMMA3)
    evaluate(a, spine(a, 100))
    h_det(a, spine(a, 3))
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
