"""Seeded inputs for the benchmark, with answers known in advance.

Everything here is the benchmark's own code: it never imports budwta.
Automata are held as `Model`s, the generator's own transition tables,
and handed to the program only as `.wta` text.  Trees are lists of
(symbol, arity) in preorder, handed over as term text.

Known answers:

* `Model.answer` is a small iterative bottom-up evaluator over the
  transition table, for all four semifields;
* a clone-split automaton (`clone_split`) has the language of its base,
  and a base built by `layered` or `chain` is minimal by construction,
  so the minimal size of the split automaton is the number of base
  states;
* `perturbed` changes the final weight of a reachable state, which
  changes the language.

Rational and max-times weights are all of the form +-2^i 3^j and
tropical weights are multiples of 1/2, so the evaluator adds exponent
vectors or integers instead of multiplying or adding fractions.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

F = Fraction

KINDS = ("rational", "boolean", "maxtimes", "tropical")

# nonzero weights per semifield; the 2/3-smooth pools keep products in
# the exponent representation used by the evaluator
POOL = {
    "rational": (F(1), F(2), F(1, 2), F(3), F(1, 3), F(-1), F(2, 3), F(3, 2)),
    "maxtimes": (F(1), F(2), F(1, 2), F(3), F(1, 3), F(2, 3), F(3, 2)),
    "tropical": (F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2)),
    "boolean": (True,),
}
ZERO_TEXT = {"rational": "0", "maxtimes": "0", "boolean": "0", "tropical": "inf"}
SINK = "⊥"  # what `budwta state` prints for a tree without a run

Tree = List[Tuple[str, int]]  # (symbol, arity) in preorder
Value = object  # Fraction, or True for boolean


def weight(rng: random.Random, kind: str) -> Value:
    return rng.choice(POOL[kind])


def mul(kind: str, x: Value, y: Value) -> Value:
    if kind == "boolean":
        return x and y
    if kind == "tropical":
        return x + y
    return x * y


def inv(kind: str, x: Value) -> Value:
    if kind == "boolean":
        return x
    if kind == "tropical":
        return -x
    return 1 / x


def weight_text(kind: str, x: Value) -> str:
    if kind == "boolean":
        return "1"
    return str(x)


# --- exponent representation of +-2^i 3^j ----------------------------------


def _exponents(x: Fraction) -> Tuple[int, int, int]:
    sign = 1 if x < 0 else 0
    out = []
    for p in (2, 3):
        e, num, den = 0, abs(x.numerator), x.denominator
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        out.append(e)
    if abs(x) != F(2) ** out[0] * F(3) ** out[1]:
        raise ValueError(f"weight {x} is not of the form +-2^i 3^j")
    return (sign, out[0], out[1])


def _exp_text(v: Tuple[int, int, int]) -> str:
    """str() of the fraction, as Fraction prints it.

    Goes through Decimal, which has no limit on the number of digits:
    int -> str conversion does (sys.get_int_max_str_digits), and changing
    that limit would change the program under test as well.
    """
    sign, e2, e3 = v
    num = 2 ** max(e2, 0) * 3 ** max(e3, 0)
    den = 2 ** max(-e2, 0) * 3 ** max(-e3, 0)
    text = ("-" if sign else "") + str(Decimal(num))
    return text if den == 1 else f"{text}/{Decimal(den)}"


def _exp_mul(u, v):
    return ((u[0] + v[0]) & 1, u[1] + v[1], u[2] + v[2])


# --- the generator's automata ------------------------------------------------


@dataclass
class Model:
    """A bottom-up deterministic automaton as the generator sees it."""

    kind: str
    ranks: Tuple[Tuple[str, int], ...]
    states: List[str]
    delta: Dict[Tuple[str, Tuple[str, ...]], Tuple[str, Value]]
    final: Dict[str, Value]
    _coded: Optional[Dict] = field(default=None, repr=False)

    def text(self) -> str:
        lines = [f"semifield {self.kind}"]
        lines += [f"rank {s} {k}" for s, k in self.ranks]
        for (sym, ws), (q, w) in self.delta.items():
            lines.append(f"trans {sym}({','.join(ws)}) -> {q} @ {weight_text(self.kind, w)}")
        for q in self.states:
            if q in self.final:
                lines.append(f"final {q} @ {weight_text(self.kind, self.final[q])}")
        return "\n".join(lines) + "\n"

    def _encode(self, w: Value):
        if self.kind == "tropical":
            if (2 * w).denominator != 1:
                raise ValueError(f"tropical weight {w} is not a multiple of 1/2")
            return int(2 * w)  # in halves: integer addition is much faster
        return _exponents(w) if self.kind in ("rational", "maxtimes") else w

    def _times(self, u, v):
        return _exp_mul(u, v) if self.kind in ("rational", "maxtimes") else mul(self.kind, u, v)

    def run(self, tree: Tree, weighed: bool = True):
        """(state, encoded weight) reached by the tree, or None (sink);
        the weight is None unless `weighed`.

        Walks the preorder backwards, so each node finds its children's
        values on top of the stack, first child on top.
        """
        if self._coded is None:
            self._coded = {key: (q, self._encode(w)) for key, (q, w) in self.delta.items()}
        get = self._coded.get
        times = self._times if weighed else lambda u, v: None
        vals: list = []
        push, pop = vals.append, vals.pop
        for sym, k in reversed(tree):
            if k == 0:
                push(get((sym, ())))
                continue
            kids = [pop() for _ in range(k)]
            hit = None if None in kids else get((sym, tuple(q for q, _ in kids)))
            if hit is not None:
                acc = hit[1]
                for _, w in kids:
                    acc = times(acc, w)
                hit = (hit[0], acc)
            push(hit)
        return vals[0]

    def answer(self, tree: Tree, command: str) -> str:
        """The stdout line `budwta eval|state` must print for this tree."""
        v = self.run(tree, weighed=command == "eval")
        if command == "state":
            return SINK if v is None else v[0]
        if v is None or v[0] not in self.final:
            return ZERO_TEXT[self.kind]
        w = self._times(v[1], self._encode(self.final[v[0]]))
        if self.kind in ("rational", "maxtimes"):
            return _exp_text(w)
        if self.kind == "tropical":
            return str(F(w, 2))
        return weight_text(self.kind, w)


def _states(n: int, prefix: str = "q") -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def random_total(rng: random.Random, kind: str, n: int, weights=None) -> Model:
    """Total automaton with symbols of arity 2, 1 and 0 (for evaluation),
    weights drawn from `weights` or else from the semifield's pool."""
    ranks = (("f", 2), ("g", 1), ("a", 0), ("b", 0))
    states = _states(n)
    pool = weights or POOL[kind]
    delta = {}
    for sym, k in ranks:
        for ws in _tuples(states, k):
            delta[(sym, ws)] = (rng.choice(states), rng.choice(pool))
    final = {q: rng.choice(pool) for q in states if rng.random() < 0.7}
    return Model(kind, ranks, states, delta, final)


def _tuples(states: List[str], k: int) -> Iterator[Tuple[str, ...]]:
    if k == 0:
        yield ()
        return
    for head in states:
        for rest in _tuples(states, k - 1):
            yield (head,) + rest


def _aperiodic_final(rng: random.Random, kind: str, states: List[str]) -> Dict[str, Value]:
    """Final weights whose support, read around the cycle q0 -> q1 -> ...,
    has no proper rotation symmetry; q0 always has a final weight.

    Under the c-cycle of `layered`, state q_i observes a nonzero weight in
    context c^k iff q_(i+k mod n) is in the support, so an aperiodic
    support separates every pair of states: the automaton is minimal.
    """
    n = len(states)
    while True:
        support = [i == 0 or rng.random() < 0.5 for i in range(n)]
        if all(support[d:] + support[:d] != support for d in range(1, n)):
            return {q: weight(rng, kind) for q, s in zip(states, support) if s}


def _layer_sizes(rng: random.Random, n: int, height: int, capacity) -> List[int]:
    """Random sizes of layers 0..height summing to n, layer 0 of size 1;
    capacity(sizes) bounds the size of the next layer."""
    while True:
        sizes = [1]
        for d in range(1, height):
            hi = min(capacity(sizes), n - sum(sizes) - (height - d))
            sizes.append(rng.randint((hi + 1) // 2, hi))
        sizes.append(n - sum(sizes))
        if 1 <= sizes[-1] <= capacity(sizes[:-1]):
            return sizes


def layered(rng: random.Random, kind: str, n: int, height: int, binary: bool) -> Model:
    """Random minimal automaton whose deepest state needs a tree of `height`.

    Symbols: c/1, a/0, b/0, plus g/1 and h/1 (unary) or f/2 (binary).
    States q0..q(n-1) are numbered by layer: layer d holds the states whose
    smallest tree has height exactly d.  Each state of layer d >= 1 gets a
    witness transition from layer d-1 (and below); no transition leads
    more than one layer up, so no state is reached sooner.  a and b both
    lead to q0, and c runs the cycle q0 -> q1 -> ... -> q(n-1) -> q0.
    """
    ranks = (("c", 1), ("f", 2), ("a", 0), ("b", 0)) if binary else (
        ("c", 1), ("g", 1), ("h", 1), ("a", 0), ("b", 0))
    steps = [(s, k) for s, k in ranks if k > 0 and s != "c"]
    if binary:
        def capacity(sizes):
            below = sum(sizes)
            return below * below - (below - sizes[-1]) ** 2
    else:
        def capacity(sizes):
            return 2 * sizes[-1]
    sizes = _layer_sizes(rng, n, height, capacity)
    states = _states(n)
    layer = {}
    for d, size in enumerate(sizes):
        for q in states[len(layer):len(layer) + size]:
            layer[q] = d
    delta: Dict = {("a", ()): (states[0], weight(rng, kind)),
                   ("b", ()): (states[0], weight(rng, kind))}
    for i, q in enumerate(states):
        delta[("c", (q,))] = (states[(i + 1) % n], weight(rng, kind))
    for d in range(1, height + 1):
        below = [q for q in states if layer[q] < d]
        slots = [(s, ws) for s, k in steps for ws in _tuples(below, k)
                 if max(layer[p] for p in ws) == d - 1]
        targets = [q for q in states if layer[q] == d]
        for slot, q in zip(rng.sample(slots, len(targets)), targets):
            delta[slot] = (q, weight(rng, kind))
    for s, k in steps:
        for ws in _tuples(states, k):
            if (s, ws) not in delta and rng.random() < 0.85:
                top = 1 + max(layer[p] for p in ws)
                delta[(s, ws)] = (rng.choice([q for q in states if layer[q] <= top]),
                                  weight(rng, kind))
    return Model(kind, ranks, states, delta, _aperiodic_final(rng, kind, states))


def chain(rng: random.Random, kind: str, n: int) -> Model:
    """Binary chain: a -> q0, s(q_i, q_i) -> q_(i+1); state q_i needs height i.

    Minimal: the context s(z, t_i), with t_i reaching q_i, observes q_i
    and gives every other state the weight zero.
    """
    ranks = (("s", 2), ("a", 0))
    states = _states(n)
    delta: Dict = {("a", ()): (states[0], weight(rng, kind))}
    for i in range(1, n):
        delta[("s", (states[i - 1],) * 2)] = (states[i], weight(rng, kind))
    final = {q: weight(rng, kind) for q in states}
    return Model(kind, ranks, states, delta, final)


def clone_split(rng: random.Random, base: Model) -> Model:
    """Split each base state q into copies (q, 0), (q, 1) scaled by lam(q, j).

    A run reaching q with weight w reaches some copy (q, j) with weight
    w / lam(q, j), and F(q, j) = F(q) * lam(q, j), so the language is the
    base's.  The target copy is the sum of the child copies plus a shift
    per transition (a: 0, b: 1), so both copies of q0 have height 0 and
    every copy of a state needs a tree no higher than the state does.
    """
    kind, copies = base.kind, 2
    names = {(q, j): f"{q}_{j}" for q in base.states for j in range(copies)}
    lam = {c: weight(rng, kind) for c in names}
    delta = {}
    for (sym, ws), (q, w) in base.delta.items():
        shift = {"a": 0, "b": 1}.get(sym, rng.randrange(copies))
        for js in _tuples(list(range(copies)), len(ws)):
            j = (sum(js) + shift) % copies
            scale = w
            for p, jp in zip(ws, js):
                scale = mul(kind, scale, lam[(p, jp)])
            scale = mul(kind, scale, inv(kind, lam[(q, j)]))
            delta[(sym, tuple(names[(p, jp)] for p, jp in zip(ws, js)))] = (names[(q, j)], scale)
    final = {
        names[(q, j)]: mul(kind, base.final[q], lam[(q, j)])
        for q in base.states if q in base.final for j in range(copies)
    }
    return Model(kind, base.ranks, list(names.values()), delta, final)


def perturbed(rng: random.Random, m: Model) -> Model:
    """Change the final weight of one (reachable) state."""
    q = rng.choice(m.states)
    final = dict(m.final)
    if m.kind == "boolean":
        if q in final:
            del final[q]
        else:
            final[q] = True
    else:
        final[q] = rng.choice([w for w in POOL[m.kind] if w != final.get(q)])
    return Model(m.kind, m.ranks, m.states, m.delta, final)


def small_slim(rng: random.Random, kind: str, n: int, ranks: Tuple[Tuple[str, int], ...]) -> Model:
    """Small slim automaton in the style of the congruence test corpus.

    A spanning chain through the first unary or binary symbol makes every
    state reachable; other transitions appear with probability 0.6.
    """
    states = _states(n)
    step = next(s for s, k in ranks if k > 0)
    k_step = dict(ranks)[step]
    leaf = next(s for s, k in ranks if k == 0)
    delta: Dict = {(leaf, ()): (states[0], weight(rng, kind))}
    for i in range(1, n):
        delta[(step, (states[i - 1],) * k_step)] = (states[i], weight(rng, kind))
    for sym, k in ranks:
        for ws in _tuples(states, k):
            if (sym, ws) not in delta and rng.random() < 0.6:
                delta[(sym, ws)] = (rng.choice(states), weight(rng, kind))
    final = {q: weight(rng, kind) for q in states if rng.random() < 0.6}
    return Model(kind, ranks, states, delta, final)


# --- trees -------------------------------------------------------------------


def tree_text(tree: Tree) -> str:
    out: List[str] = []
    open_kids: List[int] = []  # children still to come, per open node
    for sym, k in tree:
        out.append(sym)
        if k:
            out.append("(")
            open_kids.append(k)
            continue
        while open_kids:
            open_kids[-1] -= 1
            if open_kids[-1]:
                out.append(",")
                break
            open_kids.pop()
            out.append(")")
    return "".join(out)


def read_tree(text: str) -> Tree:
    """The preorder (symbol, arity) list of a term text: tree_text's inverse."""
    tree: Tree = []
    open_nodes: List[int] = []  # index in tree of each node whose ")" is still to come
    for token in re.findall(r"[^(),]+|[(),]", text):
        if token == "(":
            open_nodes.append(len(tree) - 1)
            tree[-1] = (tree[-1][0], 1)
        elif token == ",":
            sym, k = tree[open_nodes[-1]]
            tree[open_nodes[-1]] = (sym, k + 1)
        elif token == ")":
            open_nodes.pop()
        else:
            tree.append((token, 0))
    return tree


def random_shape(rng: random.Random, size: int) -> Tree:
    """A tree with `size` nodes over f/2, g/1, a/0, b/0.

    Sizes split uniformly at random at each binary node, as in a random
    binary search tree, so the height stays logarithmic and few subtrees
    repeat.
    """
    tree: Tree = []
    pending = [size]
    rand, randint = rng.random, rng.randint
    while pending:
        m = pending.pop()
        if m == 1:
            tree.append(("a", 0) if rand() < 0.5 else ("b", 0))
        elif m == 2 or rand() < 0.25:
            tree.append(("g", 1))
            pending.append(m - 1)
        else:
            left = randint(1, m - 2)
            tree.append(("f", 2))
            pending.append(m - 1 - left)
            pending.append(left)
    return tree


def balanced(height: int, leaf: str = "a") -> Tree:
    """Perfect binary f-tree: all subtrees of one height are equal."""
    tree: Tree = [(leaf, 0)]
    for _ in range(height):
        tree = [("f", 2)] + tree + tree
    return tree


def spine(depth: int, leaf: str = "a") -> Tree:
    return [("g", 1)] * depth + [(leaf, 0)]


def trees_up_to(ranks: Tuple[Tuple[str, int], ...], max_height: int) -> List[Tree]:
    """Every tree of height <= max_height, by height, in budwta's
    enumeration order (symbol order, then children lexicographically)."""
    trees: List[Tree] = [[(s, 0)] for s, k in ranks if k == 0]
    start = 0  # where the trees of the previous height begin
    for _ in range(max_height):
        known = len(trees)
        trees += [[(sym, k)] + [node for i in kids for node in trees[i]]
                  for sym, k in ranks if k
                  for kids in _tuples(list(range(known)), k) if max(kids) >= start]
        start = known
    return trees
