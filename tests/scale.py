"""Timed scale families, run in alternating processes on two source trees.

    python tests/scale.py PARENT_SRC CHANGE_SRC [--pairs N] [--reps R] [--family NAME]

Each family times one phase at three sizes.  For every size and pair, two
fresh processes run the phase, one on each ``src`` directory, the order
swapped from one pair to the next, and each process reports the best of R
runs, each on a fresh input.  The input is built before the clock starts:
an automaton parsed from its ``format_wta`` text, so no derivation is warm,
and for the spine a tree parsed against that automaton's alphabet.  The
families are those where big-integer arithmetic shows, which the call
counts of `test_shapes.py` do not see:

* ``h_det`` on the rational spine of n nodes, g/1 over the leaf a, run on
  ``gen.random_total(random.Random(3), "rational", 4, weights=(2/3, 5/7))``
  of the benchmark's generator;
* `minimize` and `format_wta` on the weighted chain of n states,
  ``corpus.chain(random.Random(1), RATIONAL, n)``, whose output weights
  have about 2^n bits;
* `minimize`, then `equivalent` of the automaton and its minimum, each side
  parsed again from its text, on the tropical sparse binary automaton of n
  states, ``corpus.sparse_binary(random.Random(1), TROPICAL, n)``.

The last line of stdout is the ``scale`` section of a BENCH file: per family
and size, both sides' times, their medians and quartile spreads, and the
number of pairs in which the change was slower.  This file is not collected
by pytest, whose files are named ``test_*.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"

def _spine(n):
    import gen
    from budwta import h_det, parse_tree, parse_wta

    weights = (Fraction(2, 3), Fraction(5, 7))
    model = gen.random_total(random.Random(3), "rational", 4, weights=weights)
    text = gen.tree_text(gen.spine(n))
    a = parse_wta(model.text())
    t = parse_tree(text, a.alphabet)
    start = time.perf_counter()
    h_det(a, t)
    return time.perf_counter() - start


def _chain(n):
    from budwta import RATIONAL, format_wta, parse_wta
    from budwta.minimize import minimize
    from corpus import chain

    a = parse_wta(format_wta(chain(random.Random(1), RATIONAL, n)))
    start = time.perf_counter()
    format_wta(minimize(a))
    return time.perf_counter() - start


def _sparse(n):
    from budwta import TROPICAL, format_wta, parse_wta
    from budwta.minimize import equivalent, minimize
    from corpus import sparse_binary

    text = format_wta(sparse_binary(random.Random(1), TROPICAL, n))
    a = parse_wta(text)
    start = time.perf_counter()
    m = minimize(a)
    took = time.perf_counter() - start
    a, m = parse_wta(text), parse_wta(format_wta(m))
    start = time.perf_counter()
    assert equivalent(a, m)
    return took + time.perf_counter() - start


# family -> (the phase, its sizes, the timing of one run)
FAMILIES = {
    "rational spine": ("h_det", (10**4, 10**5, 3 * 10**5), _spine),
    "weighted chain": ("minimize + format_wta", (18, 20, 22), _chain),
    "tropical sparse binary": ("minimize + equiv against the minimum", (500, 1000, 2000), _sparse),
}


def child(src: str, family: str, n: int, reps: int) -> None:
    """Run in a fresh process: the best of ``reps`` timings, on stdout."""
    sys.path[:0] = [src, str(TESTS), str(BENCH)]
    print(json.dumps(min(FAMILIES[family][2](n) for _ in range(reps))))


def _time(src: str, family: str, n: int, reps: int) -> float:
    argv = [sys.executable, __file__, "--child", src, family, str(n), str(reps)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _spread(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return round(median, 4), round(q3 - q1, 4)


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        src, family, n, reps = sys.argv[2:6]
        return child(src, family, int(n), int(reps))
    p = argparse.ArgumentParser(description="timed scale families, parent against change")
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--family", action="append", choices=sorted(FAMILIES))
    args = p.parse_args()
    sides = {"parent": os.path.abspath(args.parent_src),
             "change": os.path.abspath(args.change_src)}
    rows = []
    for family in args.family or FAMILIES:
        phase, sizes, _ = FAMILIES[family]
        for n in sizes:
            times = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    times[side].append(round(_time(sides[side], family, n, args.reps), 4))
            (pm, pi), (cm, ci) = _spread(times["parent"]), _spread(times["change"])
            slower = sum(c > p for p, c in zip(times["parent"], times["change"]))
            row = {"family": family, "phase": phase, "n": n, "parent_s": times["parent"],
                   "change_s": times["change"], "parent_median_s": pm, "parent_iqr_s": pi,
                   "change_median_s": cm, "change_iqr_s": ci, "change_slower_pairs": slower}
            rows.append(row)
            print(f"{family} {n}: {pm} -> {cm} s (parent IQR {pi}), slower in {slower} of "
                  f"{args.pairs}", file=sys.stderr)
    print(json.dumps({"python": platform.python_version(), "cpus": os.cpu_count(),
                      "pairs": args.pairs, "reps": args.reps, "families": rows}))


if __name__ == "__main__":
    main()
