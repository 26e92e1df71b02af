"""Shape gates: a phase that is linear in its input stays linear.

Each row of `ROWS` runs one phase on one input family at sizes n and 4n
and counts the ``call`` and ``c_call`` events that a `sys.setprofile`
hook sees while the phase runs.  The count does not depend on the
machine or on the hash seed, so the gate is exact where a timing is not:
a linear phase reads about 4x, and a quadratic one 16x.  The count
misses work done inside one C call (big-integer arithmetic, a regular
expression), the collector and memory.

The input of each size is built before the hook is set, so only the
phase is counted: `parse_wta` gets the text, `minimize` and `equivalent`
automata freshly parsed from their `format_wta` text, so no derivation is
warm, and the tree rows a fresh automaton, so no parse is remembered, and
a tree text to parse and run.  A balanced tree's size is its height: at
height h + 2 it has 4x the nodes of height h.
"""

import random
import sys

import pytest

from budwta import RATIONAL, format_wta, h_det, parse_tree, parse_wta, state_of
from budwta.minimize import equivalent, minimize
from corpus import sparse_binary

# a total two-state automaton over g/1 and a/0 with two distinct weights
SPINE_WTA = (
    "semifield rational\nrank a 0\nrank g 1\n"
    "trans a() -> p @ 2/3\ntrans g(p) -> q @ 5/7\ntrans g(q) -> p @ 2/3\n"
    "final p @ 1\nfinal q @ 3\n"
)

# a total two-state automaton over f/2 and a/0
BALANCED_WTA = (
    "semifield rational\nrank a 0\nrank f 2\ntrans a() -> p @ 2/3\n"
    "trans f(p,p) -> q @ 5/7\ntrans f(p,q) -> p @ 1\ntrans f(q,p) -> q @ 1\n"
    "trans f(q,q) -> p @ 2/3\nfinal p @ 1\nfinal q @ 3\n"
)


def _sparse_binary(n):
    return format_wta(sparse_binary(random.Random(1), RATIONAL, n))


def _balanced(height):
    text = "a"
    for _ in range(height):
        text = f"f({text},{text})"
    return parse_wta(BALANCED_WTA), text


# family -> the input of size n
FAMILIES = {
    "sparse binary": _sparse_binary,
    # every trans line in another spelling, read one by one
    "respelled sparse binary": lambda n: _sparse_binary(n).replace(" -> ", "  ->  "),
    "rational spine": lambda n: (parse_wta(SPINE_WTA), "g(" * n + "a" + ")" * n),
    "balanced": _balanced,
}


def _against_the_minimum(text):
    return parse_wta(text), parse_wta(format_wta(minimize(parse_wta(text))))


def _parse_and_run(pair):
    a, text = pair
    return h_det(a, parse_tree(text, a.alphabet))


def _parse_and_state(pair):
    a, text = pair
    return state_of(a, parse_tree(text, a.alphabet))


def _as_is(x):
    return x


# phase -> (what it is handed, built from the input before counting; the phase)
PHASES = {
    "parse_wta": (_as_is, parse_wta),
    "minimize": (parse_wta, minimize),
    "equiv against the minimum": (_against_the_minimum, lambda pair: equivalent(*pair)),
    "parse_tree + h_det": (_as_is, _parse_and_run),
    "parse_tree + state_of": (_as_is, _parse_and_state),
    "parse_tree": (_as_is, lambda pair: parse_tree(pair[1], pair[0].alphabet)),
}

# (phase, family, n, 4n, the largest ratio of the two call counts)
ROWS = [
    ("parse_wta", "sparse binary", 250, 1000, 4.6),
    ("parse_wta", "respelled sparse binary", 250, 1000, 4.6),
    ("minimize", "sparse binary", 250, 1000, 4.6),
    ("equiv against the minimum", "sparse binary", 250, 1000, 4.6),
    ("parse_tree + h_det", "rational spine", 2500, 10000, 4.6),
    ("parse_tree + state_of", "balanced", 9, 11, 4.6),
    ("parse_tree", "rational spine", 2500, 10000, 4.6),
]


def call_count(phase, arg):
    """The number of ``call`` and ``c_call`` events of ``phase(arg)``."""
    count = 0

    def hook(frame, event, _):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(hook)
    try:
        phase(arg)
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("phase, family, n, m, bound", ROWS,
                         ids=[f"{p}:{f}".replace(" ", "-") for p, f, *_ in ROWS])
def test_call_count_grows_within_its_bound(phase, family, n, m, bound):
    prepare, run = PHASES[phase]
    small, large = (call_count(run, prepare(FAMILIES[family](size))) for size in (n, m))
    assert small < large <= bound * small, (small, large, round(large / small, 2))
