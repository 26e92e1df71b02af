import importlib
import itertools
import random
from fractions import Fraction

import pytest

from budwta import automaton, congruence, semifield as sf, terms
from budwta.automaton import (
    PreconditionError,
    Wta,
    evaluate,
    format_wta,
    is_bu_deterministic,
    is_slim,
    parse_wta,
    slim,
)
from budwta.congruence import build_syntactic_quotient, class_of
from budwta.minimize import (
    NAME_TEXT_CAP,
    _state_names,
    build_wta_from_basis,
    equivalent,
    is_minimal,
    minimality,
    minimize,
    scalar_basis,
)
from budwta.scalar import Monomial

from conftest import SYMBOL_C0__A
from corpus import (
    candidate_set,
    chain,
    enumerate_trees,
    layered,
    random_slim_budet,
    random_weight,
    reference_build,
    reference_equivalent,
    reference_state_name,
    rescale_pad_shuffle,
    scaling_isomorphism,
    small_corpus,
    sparse_binary,
    split_states,
    unary_chain,
)

_MINIMIZE = importlib.import_module("budwta.minimize")


def rat(x):
    return sf.RATIONAL.from_fraction(Fraction(x))


def t(text, a):
    return terms.parse_tree(text, a.alphabet)


# --- candidate sets and bases ---------------------------------------------


def test_candidate_set_even_odd(even_odd):
    qt = build_syntactic_quotient(even_odd)
    cands = candidate_set(even_odd, qt)
    assert [tree for tree, _ in cands] == [
        t("alpha", even_odd),
        t("sigma(alpha,alpha)", even_odd),
    ]
    basis = scalar_basis(even_odd, qt)
    assert basis == cands  # already independent
    assert len(basis) == 2


def test_candidate_set_two_leaf(two_leaf):
    qt = build_syntactic_quotient(two_leaf)
    cands = candidate_set(two_leaf, qt)
    assert [tree for tree, _ in cands] == [t("alpha", two_leaf), t("beta", two_leaf)]
    basis = scalar_basis(two_leaf, qt)
    assert [tree for tree, _ in basis] == [t("alpha", two_leaf)]


def test_candidate_set_gamma3(gamma3):
    qt = build_syntactic_quotient(gamma3)
    cands = candidate_set(gamma3, qt)
    # the class of gamma^2(alpha) duplicates the class of alpha
    assert [tree for tree, _ in cands] == [
        t("alpha", gamma3),
        t("gamma(alpha)", gamma3),
    ]
    basis = scalar_basis(gamma3, qt)
    assert basis == cands


def test_candidate_set_singleton(non_slim):
    s = slim(non_slim)
    qt = build_syntactic_quotient(s)
    assert len(candidate_set(s, qt)) == 1


def test_decomposition_gamma_powers(gamma3):
    qt = build_syntactic_quotient(gamma3)
    one = sf.RATIONAL.one
    tree = t("alpha", gamma3)
    basis = scalar_basis(gamma3, qt)
    classes = [cls for _, cls in basis]
    for n in range(5):
        cls = class_of(qt, Monomial(one, tree))
        assert cls == classes[n % 2]
        assert cls[1] == one
        tree = terms.Tree("gamma", (tree,))


def test_decomposition_even_odd_scaling(even_odd):
    qt = build_syntactic_quotient(even_odd)
    cls = class_of(qt, Monomial(sf.RATIONAL.one, t("sigma(sigma(alpha,alpha),alpha)", even_odd)))
    alpha_cls = class_of(qt, Monomial(sf.RATIONAL.one, t("alpha", even_odd)))
    assert cls[0] == alpha_cls[0]
    assert sf.RATIONAL.times(cls[1], sf.RATIONAL.inv(alpha_cls[1])) == rat(4)


# --- the reconstruction ---------------------------------------------------

EXPECTED_EVEN_ODD_MIN = """\
semifield rational
rank alpha 0
rank sigma 2
trans alpha() -> c0__alpha @ 1
trans sigma(c0__alpha,c0__alpha) -> c1__sigma_alpha_alpha @ 1
trans sigma(c0__alpha,c1__sigma_alpha_alpha) -> c0__alpha @ 4
trans sigma(c1__sigma_alpha_alpha,c0__alpha) -> c0__alpha @ 4
trans sigma(c1__sigma_alpha_alpha,c1__sigma_alpha_alpha) -> c1__sigma_alpha_alpha @ 4
final c0__alpha @ 6
final c1__sigma_alpha_alpha @ 8
"""


def test_build_even_odd_reconstruction(even_odd):
    m = minimize(even_odd)
    assert format_wta(m) == EXPECTED_EVEN_ODD_MIN


def test_build_gamma3(gamma3):
    m = minimize(gamma3)
    assert len(m.states) == 2
    assert all(w == sf.RATIONAL.one for w in m.delta.values())
    assert sorted(m.final.values()) == [2, 3]
    assert equivalent(gamma3, m)


def test_build_zero_language():
    a = parse_wta(
        "semifield rational\nrank alpha 0\ntrans alpha() -> p @ 1\n"
    )  # no final weights: the zero language
    m = minimize(a)
    assert m.states == ("c0__alpha",)
    assert m.final == {}
    for tree in enumerate_trees(a.alphabet, 3):
        assert evaluate(m, tree) == sf.RATIONAL.zero


def test_basis_state_names_are_not_symbols():
    # a name that is a symbol gets "_" appended until it is not
    a = parse_wta(SYMBOL_C0__A)
    assert is_minimal(a)
    m = minimize(a)
    assert m.states == ("c0__a_", "c1__c0_a_a")
    assert equivalent(a, m)
    zero = parse_wta(
        "semifield rational\nrank a 0\nrank c0__a 0\nrank c0__a_ 1\n"
        "trans a() -> p @ 1\n"
    )  # no final weights: the zero language
    assert minimize(zero).states == ("c0__a__",)


def _uncapped_name(index, tree):
    flat = terms.format_tree(tree)
    for ch in "(),":
        flat = flat.replace(ch, "_")
    flat = flat.strip("_")
    while "__" in flat:
        flat = flat.replace("__", "_")
    return f"c{index}__{flat}"


def test_basis_state_names_are_capped():
    alphabet = terms.RankedAlphabet([("sigma", 2), ("g_", 1), ("_al", 0), ("beta", 0)])
    trees = list(enumerate_trees(alphabet, 3))
    lengths = set()
    for i, (tree, name) in enumerate(zip(trees, _state_names(alphabet, trees))):
        full = _uncapped_name(i, tree)
        lengths.add(len(full) - len(f"c{i}__"))
        assert name == full[: len(f"c{i}__") + NAME_TEXT_CAP]
    assert {NAME_TEXT_CAP, NAME_TEXT_CAP + 1} < lengths


def _assert_names_match_reference(alphabet, trees):
    names = _state_names(alphabet, trees)
    assert names == [reference_state_name(alphabet, i, t) for i, t in enumerate(trees)]
    return names


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_state_names_match_reference_on_corpus(kind):
    rng = random.Random(f"names:{kind}")
    automata = list(small_corpus(kind, 24, seed=12))
    automata += [split_states(rng, a) for a in automata]
    for a in automata:
        s = slim(a)
        qt = build_syntactic_quotient(s)
        _assert_names_match_reference(s.alphabet, [t for t, _ in scalar_basis(s, qt)])
        _assert_names_match_reference(s.alphabet, list(qt.rep_tree.values()))
        leaf = terms.Tree(s.alphabet.nullary_symbols()[0])
        _assert_names_match_reference(s.alphabet, [leaf])


@pytest.mark.parametrize(
    "make",
    [
        lambda: sparse_binary(random.Random(1), sf.RATIONAL, 2000),
        lambda: unary_chain(random.Random(1), sf.RATIONAL, 1600),
        lambda: chain(random.Random(1), sf.BOOLEAN, 64),
    ],
    ids=["sparse_binary_2000", "unary_chain_1600", "boolean_chain_64"],
)
def test_state_names_match_reference_on_large_witnesses(make):
    # every witness tree, a superset of any basis; the chain's last tree
    # has 2^64 - 1 nodes and 64 distinct ones
    a = make()
    names = _assert_names_match_reference(a.alphabet, list(automaton.representative_trees(a).values()))
    assert max(map(len, names)) <= len(f"c{len(names) - 1}__") + NAME_TEXT_CAP


def test_state_names_match_reference_on_underscored_symbols():
    alphabet = terms.RankedAlphabet([("x__y_", 2), ("g_", 1), ("_al", 0), ("__", 0)])
    trees = list(enumerate_trees(alphabet, 3))
    assert len(trees) == 5552
    names = _assert_names_match_reference(alphabet, trees)
    assert names[:2] == ["c0__al", "c1__"]  # the text of "__" is empty
    for t in trees[::50]:  # a tree alone, with no texts from the others
        assert _state_names(alphabet, [t]) == [reference_state_name(alphabet, 0, t)]
    clash = terms.RankedAlphabet([("g_", 1), ("_al", 0), ("c0__al", 0), ("c0__al_", 0)])
    names = _assert_names_match_reference(clash, list(enumerate_trees(clash, 1)))
    assert names[0] == "c0__al__"  # "_" appended while the name is a symbol


def _texts_cut_inside_a_child(tree):
    """Whether the cap falls strictly inside a child's text, and whether a
    child's own text passes the cap."""
    before = len("_".join(w for w in tree.symbol.split("_") if w))
    inside = cut_child = False
    for kid in tree.children:
        text = _uncapped_name(0, kid)[len("c0__"):]
        if not text:
            continue
        start = before + 1 if before else 0
        inside |= start < NAME_TEXT_CAP < start + len(text)
        cut_child |= len(text) > NAME_TEXT_CAP
        before = start + len(text)
    return inside, cut_child


def test_state_names_match_reference_when_the_cap_falls_in_a_child():
    alphabet = terms.RankedAlphabet(
        [("f_", 2), ("g" * 10, 1), ("_h_i_", 1), ("bb_", 0), ("_" + "c" * 13, 0), ("a", 0)]
    )
    trees = list(enumerate_trees(alphabet, 2))
    rng = random.Random(614)
    pool = list(trees)  # children: shared subtrees with texts under 150 characters
    for _ in range(600):
        sym = rng.choice(["f_", "g" * 10, "_h_i_"])
        trees.append(terms.Tree(sym, tuple(rng.choices(pool, k=alphabet.arity(sym)))))
        if len(terms.format_tree(trees[-1])) < 150:
            pool.append(trees[-1])
    _assert_names_match_reference(alphabet, trees)
    cuts = [_texts_cut_inside_a_child(t) for t in trees]
    assert sum(inside for inside, _ in cuts) > 50
    assert sum(cut_child for _, cut_child in cuts) > 20


def test_minimize_formats_no_tree(monkeypatch):
    a = sparse_binary(random.Random(1), sf.RATIONAL, 200)
    calls = []
    real = terms.format_tree

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(terms, "format_tree", counted)
    m = minimize(a)
    assert len(m.states) > 1
    assert calls == []


@pytest.mark.parametrize("kind", [sf.BOOLEAN, sf.TROPICAL], ids=str)
def test_minimize_64_state_chain(kind):
    # the tree of the last state has 2^64 - 1 nodes; over rational or
    # max-times its weight w^(2^63) cannot be written down at all
    a = chain(random.Random(610), kind, 64)
    m = minimize(a)
    assert len(m.states) == 64
    assert max(map(len, m.states)) <= len("c63__") + NAME_TEXT_CAP
    assert equivalent(a, parse_wta(format_wta(m)))


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_minimize_unary_witness_height_12(kind):
    a = layered(random.Random(611), kind, 200, 12)
    assert max(map(terms.height, automaton.representative_trees(a).values())) == 12
    m = minimize(a)
    assert len(m.states) == 200
    assert equivalent(a, m)


def test_minimize_two_leaf(two_leaf):
    m = minimize(two_leaf)
    assert len(m.states) == 1
    assert evaluate(m, t("alpha", two_leaf)) == rat(2)
    assert evaluate(m, t("beta", two_leaf)) == rat(1)
    # the derived delta entry for beta
    state = m.states[0]
    assert m.delta[((), "beta", state)] == rat(Fraction(1, 2))


def test_minimize_idempotent(even_odd, gamma3, two_leaf):
    for a in (even_odd, gamma3, two_leaf):
        m = minimize(a)
        m2 = minimize(m)
        assert len(m2.states) == len(m.states)
        assert equivalent(m, m2)


# The minimal automaton is unique up to renaming and rescaling its states,
# and minimize picks names and weights from data the language fixes: the
# witness trees, whose order depends on neither the order of delta nor the
# states' scales, and the classes over the basis.  Only the block order
# follows the declaration order, which these changes keep.


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_minimize_is_fixed_under_rescale_pad_and_shuffle(kind):
    rng = random.Random(f"fixed:{kind}")
    automata = list(small_corpus(kind, 60))
    realized = 0
    for a in automata:
        b, dead_realized = rescale_pad_shuffle(rng, a)
        realized += dead_realized
        assert not is_slim(b)
        assert format_wta(minimize(b)) == format_wta(minimize(a)), format_wta(a)
    assert realized > len(automata) // 2


@pytest.mark.parametrize(
    "make, n",
    [(sparse_binary, 2000), (unary_chain, 400), (chain, 16)],
    ids=["sparse_binary_2000", "unary_chain_400", "weighted_chain_16"],
)
def test_minimize_is_fixed_under_rescale_pad_and_shuffle_at_scale(make, n):
    a = make(random.Random(1), sf.RATIONAL, n)
    b, dead_realized = rescale_pad_shuffle(random.Random(f"fixed:{n}"), a)
    assert dead_realized and not is_slim(b)
    assert format_wta(minimize(b)) == format_wta(minimize(a))


def _permuted(rng, a):
    """``a`` with its states declared and its entries listed in a random
    order."""
    states, entries = list(a.states), list(a.delta.items())
    rng.shuffle(states)
    rng.shuffle(entries)
    return Wta(a.alphabet, tuple(states), a.kind, dict(entries), a.final)


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_scaling_isomorphism_finds_the_rescaling_and_refuses_a_change(kind):
    # each state q rescaled by lam(q): a run reaching q with weight x
    # reaches it with lam(q) * x, and the checker finds s(q) = lam(q)
    rng = random.Random(f"isomorphism:{kind}")
    k, changed = kind, 0
    for a in small_corpus(kind, 60):
        lam = {q: random_weight(rng, k) for q in a.states}
        delta = {(ws, sym, q): k.product([lam[q], w, *(k.inv(lam[p]) for p in ws)])
                 for (ws, sym, q), w in a.delta.items()}
        final = {q: k.times(f, k.inv(lam[q])) for q, f in a.final.items()}
        b = _permuted(rng, Wta(a.alphabet, a.states, k, delta, final))
        to = scaling_isomorphism(a, b)
        assert all(q2 == q and sf.eq(s, lam[q]) for q, (q2, s) in to.items())
        for q in a.final:  # one final weight dropped, or doubled
            changed_final = dict(final)
            if k is sf.BOOLEAN:
                del changed_final[q]
            else:
                changed_final[q] = k.times(final[q], k.from_fraction(2))
            with pytest.raises(AssertionError):
                scaling_isomorphism(a, Wta(b.alphabet, b.states, k, b.delta, changed_final))
            changed += 1
    assert changed > 30


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_minimize_is_unique_up_to_scaling(kind):
    """minimize of a permuted copy, of a copy with split states and of the
    minimum itself is the minimum up to renaming and rescaling states."""
    rng = random.Random(f"unique:{kind}")
    for a in small_corpus(kind, 60):
        m = minimize(a)
        for b in (_permuted(rng, a), split_states(rng, a), m):
            scaling_isomorphism(minimize(b), m)


def test_minimize_is_unique_up_to_scaling_at_scale():
    a = sparse_binary(random.Random(1), sf.RATIONAL, 2000)
    rng = random.Random("unique:sparse_binary_2000")
    m = minimize(a)
    for b in (_permuted(rng, a), split_states(rng, a), m):
        scaling_isomorphism(minimize(b), m)


def test_minimize_requires_budet():
    a = parse_wta(
        "semifield rational\nrank alpha 0\n"
        "trans alpha() -> p @ 1\ntrans alpha() -> q @ 1\nfinal p @ 1\n"
    )
    with pytest.raises(PreconditionError):
        minimize(a)


# --- minimality -----------------------------------------------------------


def test_is_minimal_examples(gamma3, non_slim):
    assert not is_minimal(gamma3)  # 3 states but degree 2
    assert is_minimal(minimize(gamma3))
    assert not is_minimal(non_slim)


def test_degree_examples(even_odd, gamma3, non_slim):
    assert minimality(even_odd) == (True, True, 2)
    assert minimality(gamma3) == (True, False, 2)
    assert minimality(non_slim) == (False, False, 1)
    assert minimality(slim(non_slim)) == (True, True, 1)


def test_minimality_bound_via_redundant_states(gamma3):
    # pad the minimal automaton with an unreachable state: still equivalent,
    # strictly larger
    m = minimize(gamma3)
    padded = Wta(
        m.alphabet,
        m.states + ("spare",),
        m.kind,
        dict(m.delta),
        dict(m.final),
    )
    assert equivalent(m, padded)
    assert not is_minimal(padded)
    assert len(minimize(padded).states) <= len(padded.states) - 1


# --- equivalence ----------------------------------------------------------


def test_equivalent_examples(even_odd, gamma3):
    assert equivalent(even_odd, minimize(even_odd))
    assert equivalent(gamma3, minimize(gamma3))


def test_equivalent_detects_final_change(even_odd):
    other = Wta(
        even_odd.alphabet,
        even_odd.states,
        even_odd.kind,
        dict(even_odd.delta),
        {**even_odd.final, "o": rat(4)},
    )
    assert not equivalent(even_odd, other)


def test_equivalent_mismatch_errors(even_odd, gamma3):
    with pytest.raises(PreconditionError):
        equivalent(even_odd, gamma3)
    bool_version = parse_wta(
        "semifield boolean\nrank alpha 0\nrank sigma 2\n"
        "trans alpha() -> o @ 1\nfinal o @ 1\n"
    )
    with pytest.raises(PreconditionError):
        equivalent(even_odd, bool_version)


def test_equivalent_ignores_dead_differences():
    a = parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> p @ 1\ntrans beta() -> d @ 7\nfinal p @ 1\n"
    )
    b = parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\n"
        "trans alpha() -> p @ 1\nfinal p @ 1\n"
    )
    assert equivalent(a, b)


def test_equivalent_live_against_dead_is_a_difference():
    # alpha reaches p, live in `a` through gamma, and dead in `b`
    a = parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\nrank gamma 1\n"
        "trans alpha() -> p @ 1\ntrans gamma(p) -> r @ 1\n"
        "trans beta() -> s @ 1\nfinal r @ 1\nfinal s @ 1\n"
    )
    b = parse_wta(
        "semifield rational\nrank alpha 0\nrank beta 0\nrank gamma 1\n"
        "trans alpha() -> p @ 1\ntrans gamma(p) -> r @ 1\n"
        "trans beta() -> s @ 1\nfinal s @ 1\n"
    )
    assert not equivalent(a, b)
    assert not equivalent(b, a)


DEAD_UNDER_SIGMA = (
    "semifield rational\nrank alpha 0\nrank sigma 2\n"
    "trans alpha() -> p @ 1\nfinal p @ 3\n"
)


@pytest.mark.parametrize(
    "extra",
    ["", "trans sigma(p,p) -> e @ 5\ntrans sigma(e,e) -> e @ 2\n"],
    ids=["missing", "dead"],
)
def test_equivalent_ignores_dead_pairs_under_a_binary_symbol(extra):
    # sigma(alpha, alpha) reaches the dead d in `a`, and e or nothing in
    # `b`: the pair is met only after the first step, and never observed
    a = parse_wta(DEAD_UNDER_SIGMA + "trans sigma(p,p) -> d @ 2\ntrans sigma(p,d) -> d @ 7\n")
    b = parse_wta(DEAD_UNDER_SIGMA + extra)
    assert automaton.dead_states(a) == {"d"}
    assert equivalent(a, b) and equivalent(b, a)
    assert reference_equivalent(a, b) and reference_equivalent(b, a)


def _both_ways(a, b, expected):
    for x, y in ((a, b), (b, a)):
        assert equivalent(x, y) is expected
        assert reference_equivalent(x, y) is expected


# alpha and beta reach p in `b`, and the proportional p0 and p1 in `a`
SPLIT_LEAVES = (
    "semifield rational\nrank alpha 0\nrank beta 0\nrank sigma 2\nrank tau 3\n"
)


@pytest.mark.parametrize("sym, arity", [("sigma", 2), ("tau", 3)])
def test_equivalent_counts_the_tuples_only_b_has_an_entry_for(sym, arity):
    # b's one entry sym(p, ..., p) stands for 2^arity tuples of found pairs;
    # `a` has an entry for each but sym(p1, ..., p1), which only that whole
    # tuple reaches: the join over a's entries never meets it
    b = parse_wta(
        SPLIT_LEAVES + "trans alpha() -> p @ 1\ntrans beta() -> p @ 2\n"
        f"trans {sym}({','.join(['p'] * arity)}) -> p @ 3\nfinal p @ 1\n"
    )
    lines = ["trans alpha() -> p0 @ 1", "trans beta() -> p1 @ 1", "final p0 @ 1", "final p1 @ 2"]
    for ws in itertools.product(("p0", "p1"), repeat=arity):
        if ws != ("p1",) * arity:
            w = Fraction(3 * 2 ** ws.count("p1"))
            lines.append(f"trans {sym}({','.join(ws)}) -> p0 @ {w}")
    a = parse_wta(SPLIT_LEAVES + "\n".join(lines) + "\n")
    _both_ways(a, b, False)
    full = lines + [f"trans {sym}({','.join(['p1'] * arity)}) -> p0 @ {3 * 2 ** arity}"]
    _both_ways(parse_wta(SPLIT_LEAVES + "\n".join(full) + "\n"), b, True)
    # the same entry into a dead state of b is never observed
    b_dead = parse_wta(format_wta(b).replace("-> p @ 3", "-> d @ 3"))
    _both_ways(a, b_dead, False)  # a's other sym entries are live
    _both_ways(parse_wta(SPLIT_LEAVES + "\n".join(lines[:4]) + "\n"), b_dead, True)


def test_equivalent_on_unreachable_and_dead_states_on_both_sides():
    head = "semifield rational\nrank alpha 0\nrank gamma 1\nrank sigma 2\n"
    # u and v are never reached; d and e are reached and never observed
    a = parse_wta(
        head + "trans alpha() -> p @ 2\ntrans gamma(p) -> q @ 3\nfinal q @ 1\n"
        "trans gamma(u) -> q @ 5\ntrans sigma(u,p) -> u @ 1\nfinal u @ 1\n"
        "trans sigma(p,q) -> d @ 7\ntrans gamma(d) -> d @ 1\n"
    )
    b = parse_wta(
        head + "trans alpha() -> r @ 1\ntrans gamma(r) -> s @ 6\nfinal s @ 1\n"
        "trans gamma(v) -> s @ 9\ntrans sigma(v,v) -> v @ 1\nfinal v @ 4\n"
        "trans sigma(s,r) -> e @ 1\ntrans gamma(e) -> e @ 2\n"
    )
    assert automaton.reachable_states(a) == {"p", "q", "d"}
    assert automaton.reachable_states(b) == {"r", "s", "e"}
    assert automaton.dead_states(slim(a)) == {"d"} and automaton.dead_states(slim(b)) == {"e"}
    _both_ways(a, b, True)
    # observing d or e is a difference
    _both_ways(parse_wta(format_wta(a) + "final d @ 1\n"), b, False)
    _both_ways(a, parse_wta(format_wta(b) + "final e @ 1\n"), False)


@pytest.mark.parametrize("other", ["", "trans beta() -> d @ 1\n"])
def test_equivalent_one_sided_live_leaf(other):
    # beta reaches the live q in `a`, and nothing or the dead d in `b`
    head = "semifield rational\nrank alpha 0\nrank beta 0\nrank gamma 1\n"
    a = parse_wta(head + "trans alpha() -> p @ 1\ntrans beta() -> q @ 1\nfinal p @ 1\nfinal q @ 2\n")
    b = parse_wta(head + "trans alpha() -> p @ 1\nfinal p @ 1\n" + other)
    _both_ways(a, b, False)


def test_equivalent_joins_each_entry_once_on_sparse_binary(monkeypatch):
    a = sparse_binary(random.Random(1), sf.RATIONAL, 500)
    b = parse_wta(format_wta(minimize(a)))
    a = parse_wta(format_wta(a))
    joined = _MINIMIZE._joined
    met = []

    def counting(*args):
        for item in joined(*args):
            met.append(item)
            yield item

    monkeypatch.setattr(_MINIMIZE, "_joined", counting)
    assert equivalent(a, b)
    assert len(met) <= len(a.delta)


TERNARY = terms.RankedAlphabet([("t", 3), ("g", 1), ("a", 0), ("b", 0)])


def _random_over(rng, kind, alphabet, n):
    """A random bu-det automaton over ``alphabet``, not necessarily slim."""
    states = tuple(f"r{i}" for i in range(n))
    delta = {}
    for sym in alphabet.symbols():
        for ws in itertools.product(states, repeat=alphabet.arity(sym)):
            if rng.random() < 0.6:
                delta[(ws, sym, rng.choice(states))] = random_weight(rng, kind)
    final = {q: random_weight(rng, kind) for q in states if rng.random() < 0.6}
    return Wta(alphabet, states, kind, delta, final)


def _perturbed(rng, a, part):
    """``a`` with one final weight (part "final") or one transition weight
    (part "delta") set to another value or dropped."""
    delta, final = dict(a.delta), dict(a.final)
    if part == "final":
        table, key = final, rng.choice(a.states)
    else:
        table, key = delta, rng.choice(sorted(delta))
    w = random_weight(rng, a.kind)
    if table.get(key) == w:
        del table[key]
    else:
        table[key] = w
    return Wta(a.alphabet, a.states, a.kind, delta, final)


def _partners(rng, a):
    yield minimize(a)
    yield split_states(rng, a)
    yield _perturbed(rng, a, "final")
    yield _perturbed(rng, a, "delta")
    yield _random_over(rng, a.kind, a.alphabet, rng.randint(1, 3))


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_equivalent_matches_reference(kind):
    rng = random.Random(f"equivalent:{kind}")
    automata = list(small_corpus(kind, 24, seed=10))
    automata += [layered(rng, kind, 12, 4), chain(rng, kind, 6)]
    automata += [_random_over(rng, kind, TERNARY, rng.randint(2, 3)) for _ in range(12)]
    answers = []
    for a in automata:
        for b in _partners(rng, a):
            for x, y in ((a, b), (b, a)):
                answer = equivalent(x, y)
                assert answer == reference_equivalent(x, y), (format_wta(x), format_wta(y))
                answers.append(answer)
    assert True in answers and False in answers


def _bounded_equivalence(a, b, max_height):
    return all(
        evaluate(a, tree) == evaluate(b, tree)
        for tree in enumerate_trees(a.alphabet, max_height)
    )


def test_equivalent_matches_bounded_enumeration_corpus():
    rng = random.Random(613)
    for i in range(40):
        kind = [sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL][i % 4]
        n = rng.randint(1, 3)
        a = random_slim_budet(rng, kind, n)
        if rng.random() < 0.5:
            b = minimize(a)
        else:
            b = random_slim_budet(rng, kind, rng.randint(1, 3))
            if a.alphabet != b.alphabet:
                continue
        exact = equivalent(a, b)
        bounded = _bounded_equivalence(a, b, 2 * (len(a.states) + len(b.states)))
        assert exact == bounded, (format_wta(a), format_wta(b))


# --- the pass over delta against the basis-tuple builder --------------------


def _builds(a):
    """Both builds of slim(a) on scalar_basis, and on a basis that takes each
    block's last state's witness tree, blocks in reverse order."""
    s = slim(a)
    qt = build_syntactic_quotient(s)
    last = [Monomial(s.kind.one, qt.rep_tree[block[-1]]) for block in reversed(qt.blocks)]
    for basis in (scalar_basis(s, qt), [(m.tree, class_of(qt, m)) for m in last]):
        yield build_wta_from_basis(s, qt, basis), reference_build(s, qt, basis)


@pytest.mark.parametrize("kind", sf.KINDS, ids=str)
def test_build_matches_reference(kind):
    rng = random.Random(f"build:{kind}")
    automata = list(small_corpus(kind, 24, seed=11))
    automata += [split_states(rng, a) for a in automata]
    automata += [layered(rng, kind, 12, 4), chain(rng, kind, 6)]
    automata += [_random_over(rng, kind, TERNARY, rng.randint(2, 3)) for _ in range(12)]
    no_final = automata[0]  # the zero language
    automata.append(Wta(no_final.alphabet, no_final.states, kind, no_final.delta, {}))
    for a in automata:
        for built, reference in _builds(a):
            assert format_wta(built) == format_wta(reference), format_wta(a)


def test_minimize_runs_class_of_once_per_block(monkeypatch):
    a = sparse_binary(random.Random(60), sf.BOOLEAN, 60)
    blocks = build_syntactic_quotient(a).blocks
    calls = []
    real = congruence.class_of

    def counted(qt, m):
        calls.append(m)
        return real(qt, m)

    monkeypatch.setattr(congruence, "class_of", counted)
    minimize(a)
    assert 0 < len(calls) <= len(blocks)


# --- corpus invariants ----------------------------------------------------


def test_minimize_corpus_invariants():
    rng = random.Random(1009)
    for i in range(40):
        kind = [sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL][i % 4]
        binary = i % 5 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        m = minimize(a)
        assert is_bu_deterministic(m)
        assert is_slim(m)
        assert len(m.states) <= len(a.states)
        for tree in enumerate_trees(a.alphabet, 4):
            assert evaluate(m, tree) == evaluate(a, tree)
        assert is_minimal(m)
        qt = build_syntactic_quotient(slim(a))
        assert len(scalar_basis(slim(a), qt)) <= len(candidate_set(slim(a), qt)) <= len(a.states)
