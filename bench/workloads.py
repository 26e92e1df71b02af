"""The three benchmark workloads.

A workload builds rounds of ops.  A round has a fixed composition: the
seed decides the automata, trees and monomials, never how many ops of
each family a round holds, so the share of known-defect ops is the same
for every seed.  An op calls into budwta only through module attributes
(`cli.main`, `automaton.parse_wta`, ...), so that the traced run's
wrappers see every call, and returns what its check needs.  Checks
compare with answers the generator knows (see gen.py).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import gen

# budwta is importable once run.py has put the checkout's src/ on sys.path
from budwta import automaton, cli, congruence, scalar

# Known defects at the seed commit; an op labelled with one is expected to
# fail there and is left out of the warm-up.
DEEP_TREE = "RecursionError on trees deeper than about 600"
HUGE_ANSWER = "int -> str limit of 4300 digits when printing an answer"
DEEP_WITNESS = "representative_trees is exponential in witness height"


@dataclass
class Op:
    family: str
    run: Callable[[], object]
    expected: object
    defect: Optional[str] = None

    def check(self, result: object) -> bool:
        return result == self.expected


def cli_call(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(family: str, argv: List[str], expected: Tuple[int, str], defect=None) -> Op:
    return Op(family, lambda: cli_call(argv), expected, defect)


# --- eval-trees --------------------------------------------------------------

# The composition of a round puts each latency percentile inside one
# class of similar ops, so that it does not jump between classes from
# seed to seed.  Per round, fastest first:
#   small:  8 ops, trees of 10^2-10^3 nodes on 4-16 states;
#   parse:  4 ops, trees of 10^3 nodes on 64 states, mostly parsing;
#   large: 14 ops, trees of ~10^4 nodes on 64 states (holds the median);
#   huge:   5 ops, trees of ~3*10^4 nodes on 64 states (holds the tail
#          rank, the 11th slowest op of a run);
#   top:    2 ops in each of the first TOP_ROUNDS rounds only, so that
#          a run always has 2 * TOP_ROUNDS of them: a 10^5-node tree and an
#          op that fails at the seed (a spine of depth 10^3 or 10^5, or a
#          huge answer).
TOP_ROUNDS = 3
SMALL = ((4, "rational"), (8, "boolean"), (16, "maxtimes"), (16, "tropical"))
LARGE = tuple((64, kind) for kind in gen.KINDS)


def eval_trees(seed: str, r: int, workdir: Path) -> List[Op]:
    rng = random.Random(f"eval-trees:{seed}:{r}")
    models = [gen.random_total(rng, kind, n) for n, kind in SMALL + LARGE]
    paths = []
    for i, m in enumerate(models):
        paths.append(workdir / f"eval-{r}-{i}.wta")
        paths[-1].write_text(m.text())
    small, large = range(0, 4), range(4, 8)

    def shape(size):
        return f"random-{size}", gen.random_shape(rng, size), size

    def perfect(height):
        return f"balanced-{height}", gen.balanced(height), 2 ** (height + 1) - 1

    queries = []  # (family, tree, nodes, automaton)
    for i in small:
        queries += [shape((100, 1000)[i % 2]) + (i,), perfect((4, 7, 10, 10)[i]) + (i,)]
    for i in large:
        queries += [shape(1000) + (i,), shape(10**4) + (i,), shape(10**4) + (i,), perfect(13) + (i,)]
    queries += [shape(10**4) + (i,) for i in large[:2]]
    queries += [shape(3 * 10**4) + (large[j % 4],) for j in range(5)]
    if r < TOP_ROUNDS:
        queries.append(shape(10**5) + (large[1 + 2 * (r % 2)],))  # boolean or tropical

    ops = []
    for k, (family, tree, nodes, i) in enumerate(queries):
        m = models[i]
        # a product of more than ~5000 weights over Q may print with over
        # 4300 digits (HUGE_ANSWER); ask for the state, which still
        # computes the product
        big_rational = m.kind in ("rational", "maxtimes") and nodes > 5000
        command = "state" if big_rational or k % 2 else "eval"
        ops.append(_eval_op(family, m, paths[i], tree, command))
    if r < TOP_ROUNDS and r % 2 == 0:
        depth = 10 ** (3 + r)
        i = large[1 + r % 4]  # boolean or tropical: only the depth can fail
        ops.append(_eval_op(f"spine-{depth}", models[i], paths[i], gen.spine(depth), "eval", DEEP_TREE))
    elif r < TOP_ROUNDS:
        # every weight 2: a balanced tree of height 14 weighs 2^32768,
        # which has 9865 digits
        doubling = gen.random_total(rng, "rational", 4, weights=(gen.F(2),))
        doubling.final = dict.fromkeys(doubling.states, gen.F(2))
        path = workdir / f"eval-{r}-doubling.wta"
        path.write_text(doubling.text())
        ops.append(_eval_op("huge-answer", doubling, path, gen.balanced(14), "eval", HUGE_ANSWER))
    rng.shuffle(ops)
    return ops


def _eval_op(family, m: gen.Model, path: Path, tree, command, defect=None) -> Op:
    expected = (0, m.answer(tree, command) + "\n")
    return _cli_op(family, [command, str(path), "--tree", gen.tree_text(tree)], expected, defect)


# --- minimize-equiv ----------------------------------------------------------

# (base states, witness height); clone-splitting doubles the states
UNARY = ((13, 3), (50, 5), (100, 6))
BINARY = ((2, 1), (4, 2), (16, 3))
CHAINS = (3, 4, 5)
DEEP_UNARY = (200, 12)


def minimize_equiv(seed: str, r: int, workdir: Path) -> List[Op]:
    """Per round, fastest first: 6 small automata, 7 unary ones of 100
    states (they hold the median), 4 of 200 or 32 states (they hold the
    tail rank), and in rounds 1 and 2 one the seed cannot finish."""
    rng = random.Random(f"minimize-equiv:{seed}:{r}")
    kinds = itertools.islice(itertools.cycle(gen.KINDS), r % 4, None)

    def unary(n, h):
        return f"unary-{2 * n}", gen.clone_split(rng, gen.layered(rng, next(kinds), n, h, False)), n

    def binary(n, h):
        return f"binary-{2 * n}", gen.clone_split(rng, gen.layered(rng, next(kinds), n, h, True)), n

    cases = [(f"chain-{n}", gen.chain(rng, next(kinds), n), n) for n in CHAINS]
    cases += [binary(*BINARY[0]), binary(*BINARY[1]), unary(*UNARY[0])]
    cases += [unary(*UNARY[1]) for _ in range(7)]
    cases += [unary(*UNARY[2]), unary(*UNARY[2]), binary(*BINARY[2]), binary(*BINARY[2])]
    ops = [_minimize_op(workdir, r, i, case, rng) for i, case in enumerate(cases)]
    # in rounds 1 and 2 only, so that a run always has two: a unary
    # automaton whose states need trees of height 12, and a longer chain.
    # Not in round 0, after which peak_rss_mb is read: how far an op gets
    # before its deadline depends on the machine's speed.
    if r in (1, 2):
        n = 6 + rng.randrange(3)
        deep = unary(*DEEP_UNARY) if r == 1 else (f"chain-{n}", gen.chain(rng, next(kinds), n), n)
        ops.append(_minimize_op(workdir, r, len(cases), deep, rng, DEEP_WITNESS))
    rng.shuffle(ops)
    return ops


def _minimize_op(workdir: Path, r: int, i: int, case, rng, defect=None) -> Op:
    family, m, minimal = case
    src, out, bad = (workdir / f"min-{r}-{i}{suffix}.wta" for suffix in ("", "-min", "-perturbed"))
    src.write_text(m.text())
    bad.write_text(gen.perturbed(rng, m).text())
    expected = ((0, f"states: {len(m.states)} -> {minimal}\n"), (0, "equivalent\n"),
                (1, "not equivalent\n"))
    return Op(family, _readme_flow(str(src), str(out), str(bad), expected[0]), expected, defect)


def _readme_flow(src: str, out: str, bad: str, minimized: Tuple[int, str]):
    def run():
        first = cli_call(["minimize", src, "-o", out])
        if first != minimized:
            return (first,)
        return first, cli_call(["equiv", src, out]), cli_call(["equiv", src, bad])
    return run


# --- congruence-oracle -------------------------------------------------------

UNARY_ALPHABETS = (
    (("g", 1), ("a", 0)),
    (("g", 1), ("a", 0), ("b", 0)),
    (("g", 1), ("g2", 1), ("a", 0)),
    (("g", 1), ("g2", 1), ("a", 0), ("b", 0)),
)
BINARY_ALPHABET = (("s", 2), ("a", 0))
PAIRS = 1000  # monomial pairs decided per automaton, as in criterion 5
OPS_PER_ROUND = 32  # one in eight automata is binary, as in criterion 5


def congruence_oracle(seed: str, r: int, workdir: Path) -> List[Op]:
    rng = random.Random(f"congruence-oracle:{seed}:{r}")
    ops = []
    for i in range(OPS_PER_ROUND):
        kind = gen.KINDS[(i + i // 4 + r) % 4]
        if i % 8 == 0:
            # a 2-state binary automaton costs ~10 times the median op;
            # with one per round, a run has fewer of them than ops beyond
            # the tail rank, so the tail lies among the 4-state unary ones
            n, ranks = (2 if i == 0 else 1), BINARY_ALPHABET
        else:
            n, ranks = 1 + i % 4, UNARY_ALPHABETS[(i // 4 + r) % 4]
        m = gen.small_slim(rng, kind, n, ranks)
        trees = [gen.tree_text(t) for t in gen.trees_up_to(ranks, 3)]
        pairs = []
        for p in range(PAIRS):
            a = _monomial(rng, kind, trees)
            pairs.append((a, a if p % 10 == 0 else _monomial(rng, kind, trees)))
        family = f"{'binary' if ranks is BINARY_ALPHABET else 'unary'}-{n}"
        wta, monomials = workdir / f"cong-{r}-{i}.wta", workdir / f"cong-{r}-{i}.pairs"
        wta.write_text(m.text())
        monomials.write_text("".join(f"{a} {b}\n" for a, b in pairs))
        ops.append(Op(family, _decide(wta, monomials), (0, True)))
    return ops


def _monomial(rng: random.Random, kind: str, trees: List[str]) -> str:
    w = gen.ZERO_TEXT[kind] if rng.random() < 0.1 else gen.weight_text(kind, gen.weight(rng, kind))
    return f"{w}.{rng.choice(trees)}"


def _decide(wta: Path, monomials: Path):
    """Refinement against the bounded-context oracle, as in criterion 5.

    Returns the number of disagreements and whether every pair of equal
    monomials (each tenth pair) was found congruent by both.
    """
    def run():
        s = automaton.slim(automaton.parse_wta(wta.read_text()))
        pairs = [line.split() for line in monomials.read_text().splitlines()]
        qt = congruence.build_syntactic_quotient(s)
        oracle = congruence.BoundedContextOracle(s, 2 * len(s.states))
        disagree, reflexive = 0, True
        for p, (t1, t2) in enumerate(pairs):
            m1 = scalar.parse_monomial(t1, s.alphabet, s.kind)
            m2 = scalar.parse_monomial(t2, s.alphabet, s.kind)
            a, b = congruence.congruent(qt, m1, m2), oracle.congruent(m1, m2)
            disagree += a != b
            if p % 10 == 0:
                reflexive = reflexive and a and b
        return disagree, reflexive
    return run


@dataclass
class Workload:
    name: str
    build: Callable[[str, int, Path], List[Op]]
    deadline_s: float  # per op; well clear of every op's time at the seed
    round_s: float  # time of one round at the seed commit


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("eval-trees", eval_trees, 20.0, 7.9),
        Workload("minimize-equiv", minimize_equiv, 2.5, 3.4),
        Workload("congruence-oracle", congruence_oracle, 30.0, 5.2),
    )
}
