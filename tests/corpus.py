"""Random automaton and monomial generation for the test suite.

Generated automata are slim and bu-deterministic by construction: a
spanning set of transitions realizes every state, and transitions are
keyed uniquely per (state tuple, symbol).  Automata with three or more
states use unary-spine alphabets so that literal context enumeration at
height 2*|Q| stays small; binary-symbol automata are capped at two
states.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from budwta import semifield as sf
from budwta.automaton import TransKey, Wta
from budwta.scalar import Monomial
from budwta.semifield import Semifield, Value
from budwta.terms import RankedAlphabet, Tree

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
        import itertools

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


def random_monomial(
    rng: random.Random, kind: Semifield, trees: List[Tree], zero_prob: float = 0.1
) -> Monomial:
    t = rng.choice(trees)
    if rng.random() < zero_prob:
        return Monomial(kind.zero, t)
    return Monomial(random_weight(rng, kind), t)
