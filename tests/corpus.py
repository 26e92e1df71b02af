"""Tree enumeration and random automata and monomials for the test suite.

`enumerate_trees` lists every tree, height by height; it is the reference
that `automaton.representative_trees` is checked against.
`ObserveOracle` is the bounded-context oracle that runs every context on
every state through `automaton.context_transform`; it is the reference
that `congruence.BoundedContextOracle` and its context tables are checked
against.

Automata from `random_slim_budet` are slim and bu-deterministic by
construction: a spanning set of transitions realizes every state, and
transitions are keyed uniquely per (state tuple, symbol).  Automata with
three or more states use unary-spine alphabets so that literal context
enumeration at height 2*|Q| stays small; binary-symbol automata are capped
at two states.  `layered` and `chain` build minimal automata whose states
need high trees.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

from budwta import automaton, congruence, semifield as sf, terms
from budwta.automaton import TransKey, Wta
from budwta.scalar import Monomial
from budwta.semifield import Semifield, Value
from budwta.terms import RankedAlphabet, Tree


def enumerate_trees(
    alphabet: RankedAlphabet, max_height: Optional[int] = None
) -> Iterator[Tree]:
    """All trees in height-then-declaration-lexicographic order.

    With ``max_height=None`` the generator is unbounded.
    """
    seen: List[Tree] = []  # cumulative, in enumeration order
    h = 0
    while max_height is None or h <= max_height:
        level = list(terms._trees_of_exact_height(alphabet, h, seen))
        if not level:
            return
        yield from level
        seen.extend(level)
        h += 1


class ObserveOracle:
    """`congruence.BoundedContextOracle` as it was before context tables:
    one `congruence._observe` call, and so one full run of the context,
    per context and state."""

    def __init__(self, a: Wta, ctx_height: int):
        self.wta = a
        contexts = list(terms.enumerate_contexts(a.alphabet, ctx_height))
        rows = [{q: congruence._observe(a, q, c) for q in a.states} for c in contexts]
        self.col_nonzero: Dict[str, bool] = {
            q: any(row[q] != a.kind.zero for row in rows) for q in a.states
        }
        self.pair_obs: Dict[Tuple[str, str], Set[Tuple[Value, Value]]] = {
            (q1, q2): {(row[q1], row[q2]) for row in rows}
            for q1 in a.states
            for q2 in a.states
        }

    def _coefficient(self, m: Monomial) -> Tuple[Optional[str], Value]:
        k = self.wta.kind
        if m.weight == k.zero:
            return (None, None)
        v = automaton.h_det(self.wta, m.tree)
        if v is None:
            return (None, None)
        return (v[0], k.times(m.weight, v[1]))

    def congruent(self, m1: Monomial, m2: Monomial) -> bool:
        q1, c1 = self._coefficient(m1)
        q2, c2 = self._coefficient(m2)
        if q1 is None and q2 is None:
            return True
        if q1 is None:
            return not self.col_nonzero[q2]
        if q2 is None:
            return not self.col_nonzero[q1]
        times = self.wta.kind.times
        return all(times(c1, o1) == times(c2, o2) for o1, o2 in self.pair_obs[(q1, q2)])


def first_trees(a: Wta) -> Dict[str, Tree]:
    """The first enumerated tree reaching each state of a slim automaton,
    in the order found."""
    reps: Dict[str, Tree] = {}
    for t in enumerate_trees(a.alphabet):
        q = automaton.state_of(a, t)
        if q is not None and q not in reps:
            reps[q] = t
            if len(reps) == len(a.states):
                return reps


RAT_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
TROP_POOL = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]


def random_weight(rng: random.Random, kind: Semifield) -> Value:
    if kind is sf.BOOLEAN:
        return kind.one
    if kind is sf.TROPICAL:
        return kind.from_fraction(rng.choice(TROP_POOL))
    return kind.from_fraction(rng.choice(RAT_POOL))


def random_slim_budet(
    rng: random.Random, kind: Semifield, n_states: int, binary: bool = False
) -> Wta:
    if binary and n_states > 2:
        raise ValueError("binary corpus automata are capped at 2 states")
    states = tuple(f"q{i}" for i in range(n_states))
    if binary:
        # a single nullary symbol keeps context enumeration at height
        # 2*|Q| feasible for the brute-force oracle
        symbols: List[Tuple[str, int]] = [("s", 2), ("a", 0)]
    else:
        symbols = [("g", 1), ("a", 0)]
        if rng.random() < 0.4:
            symbols.append(("b", 0))
        if rng.random() < 0.3:
            symbols.append(("g2", 1))
    alphabet = RankedAlphabet(symbols)

    delta: Dict[TransKey, Value] = {}
    used: set = set()

    def add(ws: Tuple[str, ...], sym: str, q: str) -> None:
        key = (ws, sym)
        if key in used:
            return
        used.add(key)
        delta[(ws, sym, q)] = random_weight(rng, kind)

    # spanning transitions make every state the run state of some tree;
    # stepping from the previous state keeps the keys distinct
    add((), "a", states[0])
    for i in range(1, n_states):
        prev = states[i - 1]
        if binary:
            add((prev, prev), "s", states[i])
        else:
            add((prev,), "g", states[i])

    # random extra transitions, bu-det by unique keys
    for sym, k in symbols:
        for ws in itertools.product(states, repeat=k):
            if (ws, sym) in used:
                continue
            if rng.random() < 0.6:
                add(ws, sym, rng.choice(states))

    final: Dict[str, Value] = {}
    for q in states:
        if rng.random() < 0.6:
            final[q] = random_weight(rng, kind)

    return Wta(alphabet, states, kind, delta, final)


def small_corpus(kind: Semifield, count: int, seed: int = 0) -> Iterator[Wta]:
    """``count`` random slim bu-det automata: every third one binary with
    1-2 states, the others unary with 1-4 states."""
    rng = random.Random(f"{kind}:{seed}")
    for i in range(count):
        binary = i % 3 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        yield random_slim_budet(rng, kind, n, binary=binary)


def random_monomial(
    rng: random.Random, kind: Semifield, trees: List[Tree], zero_prob: float = 0.1
) -> Monomial:
    t = rng.choice(trees)
    if rng.random() < zero_prob:
        return Monomial(kind.zero, t)
    return Monomial(random_weight(rng, kind), t)


def layered(rng: random.Random, kind: Semifield, n: int, height: int) -> Wta:
    """A minimal unary automaton whose deepest state needs a tree of ``height``.

    Symbols c/1, g/1, h/1, a/0, b/0.  States q0..q(n-1) are numbered by
    layer: layer d holds the states whose least tree has height d.  Both
    leaves lead to q0, each state of layer d >= 1 has a g or h transition
    from layer d-1, no transition leads more than one layer up, and c runs
    the cycle q0 -> q1 -> ... -> q(n-1) -> q0.  State q_i observes a
    nonzero weight in context c^j iff q_(i+j mod n) has a final weight, and
    that support has no rotation symmetry, so no two states are
    proportional: the automaton is minimal.
    """
    assert height < n < 2 ** (height + 1)
    sizes = [1] * (height + 1)  # a layer holds at most twice the layer below
    while sum(sizes) < n:
        d = rng.randrange(1, height + 1)
        if sizes[d] < 2 * sizes[d - 1]:
            sizes[d] += 1
    states = [f"q{i}" for i in range(n)]
    layer = [d for d, size in enumerate(sizes) for _ in range(size)]
    delta: Dict[TransKey, Value] = {
        ((), "a", "q0"): random_weight(rng, kind),
        ((), "b", "q0"): random_weight(rng, kind),
    }
    for i, q in enumerate(states):
        delta[((q,), "c", states[(i + 1) % n])] = random_weight(rng, kind)
    free = set(itertools.product(("g", "h"), range(n)))  # (symbol, source index)
    for i in range(1, n):
        below = sorted(s for s in free if layer[s[1]] == layer[i] - 1)
        sym, j = rng.choice(below)
        free.discard((sym, j))
        delta[((states[j],), sym, states[i])] = random_weight(rng, kind)
    for sym, j in sorted(free):
        if rng.random() < 0.85:
            top = [q for q, d in zip(states, layer) if d <= layer[j] + 1]
            delta[((states[j],), sym, rng.choice(top))] = random_weight(rng, kind)
    while True:
        support = [i == 0 or rng.random() < 0.5 for i in range(n)]
        if all(support[d:] + support[:d] != support for d in range(1, n)):
            break
    final = {q: random_weight(rng, kind) for q, s in zip(states, support) if s}
    alphabet = RankedAlphabet([("c", 1), ("g", 1), ("h", 1), ("a", 0), ("b", 0)])
    return Wta(alphabet, tuple(states), kind, delta, final)


def chain(rng: random.Random, kind: Semifield, n: int) -> Wta:
    """The binary chain a -> q0, s(q_i, q_i) -> q_(i+1), every state final.

    State q_i needs a tree of height i, with 2^(i+1) - 1 nodes.  Minimal:
    the context s(z, t_i), with t_i reaching q_i, observes q_i and gives
    every other state the weight zero.
    """
    states = tuple(f"q{i}" for i in range(n))
    delta: Dict[TransKey, Value] = {((), "a", "q0"): random_weight(rng, kind)}
    for p, q in zip(states, states[1:]):
        delta[((p, p), "s", q)] = random_weight(rng, kind)
    final = {q: random_weight(rng, kind) for q in states}
    return Wta(RankedAlphabet([("s", 2), ("a", 0)]), states, kind, delta, final)
