"""Weighted tree automata over a commutative semifield.

An automaton stores a sparse transition map (zero-weight entries are never
kept) and a sparse final weight map, both read-only.  Bottom-up
determinism, checked once when the automaton is built, means every
(state tuple, symbol) pair has at most one nonzero target; for such
automata each tree reaches at most one state with a single product weight,
which is what all the minimization machinery relies on.  The general
sum-product semantics is kept alongside as a slow reference oracle.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from . import semifield, terms
from .semifield import Weight
from .terms import RankedAlphabet, Tree

# A bottom-up deterministic run result: None stands for the sink (no run),
# otherwise the reached state together with the accumulated nonzero weight.
DetValue = Optional[Tuple[str, Weight]]

TransKey = Tuple[Tuple[str, ...], str, str]  # (state tuple, symbol, target)


class WtaError(ValueError):
    """Structurally invalid automaton or malformed .wta input."""


class PreconditionError(RuntimeError):
    """An operation was called on an automaton outside its domain."""


@dataclass(frozen=True, eq=False)
class Wta:
    """An immutable automaton.

    The derived fields are computed once, here: ``_succ`` indexes delta by
    (state tuple, symbol) and ``budet`` records bottom-up determinism.
    Two memos fill as the automaton is used: ``_runs`` maps each tree run
    so far to its deterministic value, and ``_factors`` maps the context
    run last to its elementary factors, innermost first.  Only validated
    input goes in, and the memos belong to the automaton, so they can never
    go stale and die with it.
    """

    alphabet: RankedAlphabet
    states: Tuple[str, ...]
    kind: str
    delta: Mapping[TransKey, Weight]
    final: Mapping[str, Weight]

    def __post_init__(self) -> None:
        # read-only copies of the caller's maps
        _init = object.__setattr__
        _init(self, "delta", MappingProxyType(dict(self.delta)))
        _init(self, "final", MappingProxyType(dict(self.final)))
        if self.kind not in semifield.KINDS:
            raise WtaError(f"unknown semifield kind: {self.kind!r}")
        if not self.states:
            raise WtaError("automaton needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise WtaError("duplicate state names")
        for q in self.states:
            if q in self.alphabet:
                raise WtaError(f"state name collides with a symbol: {q}")
        stateset = set(self.states)
        arity = self.alphabet.arity
        succ: Dict[Tuple[Tuple[str, ...], str], List[Tuple[str, Weight]]] = {}
        for (ws, sym, q), w in self.delta.items():
            if len(ws) != arity(sym):
                raise WtaError(f"transition arity mismatch for {sym}")
            if q not in stateset or not stateset.issuperset(ws):
                bad = next(p for p in ws + (q,) if p not in stateset)
                raise WtaError(f"unknown state in transition: {bad}")
            succ.setdefault((ws, sym), []).append((q, w))
        for q in self.final:
            if q not in stateset:
                raise WtaError(f"unknown state in final map: {q}")
        # weights are usually a few shared objects: check each one once
        weights = {id(w): w for w in self.delta.values()}
        weights.update((id(w), w) for w in self.final.values())
        for w in weights.values():
            self._check_weight(w)
        _init(self, "_succ", succ)
        _init(self, "budet", all(len(v) <= 1 for v in succ.values()))
        _init(self, "_runs", {})
        _init(self, "_factors", {})

    def _check_weight(self, w: Weight) -> None:
        if w.kind != self.kind:
            raise WtaError(f"weight of kind {w.kind} in a {self.kind} automaton")
        if w.is_zero():
            raise WtaError("zero weights must not be stored")

    def zero(self) -> Weight:
        return semifield.zero(self.kind)

    def one(self) -> Weight:
        return semifield.one(self.kind)

    def final_weight(self, q: str) -> Weight:
        return self.final.get(q, self.zero())

    def targets(self, ws: Tuple[str, ...], sym: str) -> List[Tuple[str, Weight]]:
        return self._succ.get((ws, sym), [])


def is_bu_deterministic(a: Wta) -> bool:
    return a.budet


def is_total(a: Wta) -> bool:
    """Every (state tuple, symbol) pair has at least one nonzero target."""
    for sym in a.alphabet.symbols():
        k = a.alphabet.arity(sym)
        for ws in itertools.product(a.states, repeat=k):
            if not a.targets(ws, sym):
                return False
    return True


def _require_budet(a: Wta) -> None:
    if not is_bu_deterministic(a):
        raise PreconditionError("automaton is not bottom-up deterministic")


# --- semantics ------------------------------------------------------------


def h_general(a: Wta, t: Tree) -> Dict[str, Weight]:
    """Sum-product vector semantics; works for any automaton."""
    terms.validate_tree(t, a.alphabet)
    index = {q: i for i, q in enumerate(a.states)}
    vecs: Dict[int, Tuple[Weight, ...]] = {}
    for node in terms.postorder(t):
        kid_vecs = [vecs[id(c)] for c in node.children]
        out = [a.zero() for _ in a.states]
        for ws in itertools.product(a.states, repeat=len(kid_vecs)):
            factor = a.one()
            dead = False
            for p, vec in zip(ws, kid_vecs):
                w = vec[index[p]]
                if w.is_zero():
                    dead = True
                    break
                factor = factor.times(w)
            if dead:
                continue
            for q, w in a.targets(ws, node.symbol):
                i = index[q]
                out[i] = out[i].plus(factor.times(w))
        vecs[id(node)] = tuple(out)
    return dict(zip(a.states, vecs[id(t)]))


_MISS = object()
_state = operator.itemgetter(0)


def _run(a: Wta, t: Tree) -> DetValue:
    """Deterministic run of a valid tree, memoised in ``a._runs``.

    An explicit-stack post-order walk that stops at every subtree the memo
    already holds; a shared subtree is run once.
    """
    runs = a._runs
    v = runs.get(t, _MISS)
    if v is not _MISS:
        return v  # type: ignore[return-value]
    succ = a._succ
    vals: Dict[int, object] = {}  # id(node) -> its value in this walk
    stack: List[object] = [t]  # a tree to visit, or (tree,) once its children are done
    while stack:
        item = stack.pop()
        if item.__class__ is tuple:
            node = item[0]  # type: ignore[index]
            kids = [vals[id(c)] for c in node.children]
            v = None
            if None not in kids:
                hits = succ.get((tuple(map(_state, kids)), node.symbol))
                if hits:
                    q, w = hits[0]
                    for kv in kids:
                        w = w.times(kv[1])
                    v = (q, w)
            runs[node] = vals[id(node)] = v
        elif id(item) not in vals:
            v = vals[id(item)] = runs.get(item, _MISS)
            if v is _MISS:
                stack.append((item,))
                stack.extend(item.children)  # type: ignore[attr-defined]
    return vals[id(t)]  # type: ignore[return-value]


def _det(a: Wta, t: Tree) -> DetValue:
    """The run of ``t``; the tree is validated only when the memo misses."""
    v = a._runs.get(t, _MISS)
    if v is _MISS:
        terms.validate_tree(t, a.alphabet)
        v = _run(a, t)
    return v  # type: ignore[return-value]


def h_det(a: Wta, t: Tree) -> DetValue:
    """Product-only run of a bottom-up deterministic automaton."""
    _require_budet(a)
    return _det(a, t)


def state_of(a: Wta, t: Tree) -> Optional[str]:
    v = h_det(a, t)
    return None if v is None else v[0]


def evaluate(a: Wta, t: Tree) -> Weight:
    """The weight the automaton assigns to a tree."""
    if is_bu_deterministic(a):
        v = _det(a, t)
        if v is None:
            return a.zero()
        q, w = v
        return w.times(a.final_weight(q))
    vec = h_general(a, t)
    out = a.zero()
    for q, w in vec.items():
        out = out.plus(w.times(a.final_weight(q)))
    return out


def elementary_step(a: Wta, e: Tree, v: DetValue) -> DetValue:
    """Apply one elementary context to a deterministic run value."""
    _require_budet(a)
    if v is None:
        return None
    ws: List[str] = []
    factor = v[1]
    for child in e.children:
        if child.symbol == terms.Z_NAME:
            ws.append(v[0])
        else:
            hv = _run(a, child)
            if hv is None:
                return None
            ws.append(hv[0])
            factor = factor.times(hv[1])
    hits = a.targets(tuple(ws), e.symbol)
    if not hits:
        return None
    q, w = hits[0]
    return (q, factor.times(w))


def context_transform(a: Wta, c: Tree, v: DetValue) -> DetValue:
    """Run a context on top of a deterministic value, innermost-first."""
    _require_budet(a)
    last = a._factors
    factors = last.get(c)
    if factors is None:
        terms.validate_tree(c, a.alphabet, allow_z=True)
        factors = terms.decompose_elementary(c)[::-1]
        # observing states runs one context on each of them in turn: keep
        # the latest context's factors, and only those
        last.clear()
        last[c] = factors
    for e in factors:
        v = elementary_step(a, e, v)
        if v is None:
            return None
    return v


# --- reachability, slimming, observability --------------------------------


def reachable_states(a: Wta) -> FrozenSet[str]:
    """States realized by some tree (the image of the run map, minus sink)."""
    reached: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for (ws, _sym), hits in a._succ.items():
            if all(p in reached for p in ws):
                for q, _ in hits:
                    if q not in reached:
                        reached.add(q)
                        grew = True
    return frozenset(reached)


def is_slim(a: Wta) -> bool:
    return reachable_states(a) == set(a.states)


def slim(a: Wta) -> Wta:
    """Restrict to realized states; preserves the recognized weighted language.

    If no state is realized at all (possible when some symbol arities are
    never satisfiable), the result is the one-state automaton for the zero
    language: total with unit weights and no final weight.
    """
    reached = reachable_states(a)
    if not reached:
        p = a.states[0]
        delta: Dict[TransKey, Weight] = {}
        for sym in a.alphabet.symbols():
            k = a.alphabet.arity(sym)
            delta[((p,) * k, sym, p)] = a.one()
        return Wta(a.alphabet, (p,), a.kind, delta, {})
    keep = tuple(q for q in a.states if q in reached)
    delta = {
        key: w
        for key, w in a.delta.items()
        if all(p in reached for p in key[0]) and key[2] in reached
    }
    final = {q: w for q, w in a.final.items() if q in reached}
    return Wta(a.alphabet, keep, a.kind, delta, final)


def dead_states(a: Wta) -> FrozenSet[str]:
    """States from which no context can reach a nonzero final weight.

    Meaningful for slim automata, where every side state of a transition is
    realized by a tree.
    """
    _require_budet(a)
    observable: Set[str] = {q for q, w in a.final.items() if not w.is_zero()}
    grew = True
    while grew:
        grew = False
        for (ws, _sym, q) in a.delta:
            if q in observable:
                for p in ws:
                    if p not in observable:
                        observable.add(p)
                        grew = True
    return frozenset(set(a.states) - observable)


def representative_trees(a: Wta) -> Dict[str, Tree]:
    """First tree (in enumeration order) reaching each state of a slim wta."""
    _require_budet(a)
    if not is_slim(a):
        raise PreconditionError("representative trees need a slim automaton")
    reps: Dict[str, Tree] = {}
    for t in terms.enumerate_trees(a.alphabet):
        q = state_of(a, t)
        if q is not None and q not in reps:
            reps[q] = t
            if len(reps) == len(a.states):
                break
    return reps


# --- the .wta text format -------------------------------------------------


def parse_wta(text: str) -> Wta:
    """Load an automaton from its line-based description.

    Lines: ``semifield KIND``, ``rank SYM ARITY``,
    ``trans SYM(q1,...,qk) -> q @ w``, ``final q @ w``; ``#`` starts a
    comment.  States are introduced by first use.  Duplicate transition
    keys, duplicate final states and duplicate rank lines are errors.
    Zero weights are accepted and normalized away.
    """
    kind: Optional[str] = None
    ranks: List[Tuple[str, int]] = []
    rank_names: Set[str] = set()
    raw_trans: List[Tuple[int, str, Tuple[str, ...], str, str]] = []
    raw_final: List[Tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "semifield":
            if kind is not None:
                raise WtaError(f"line {lineno}: duplicate semifield line")
            kind = rest.strip()
            if kind not in semifield.KINDS:
                raise WtaError(f"line {lineno}: unknown semifield kind {kind!r}")
        elif head == "rank":
            fields = rest.split()
            if len(fields) != 2:
                raise WtaError(f"line {lineno}: expected 'rank SYM ARITY'")
            name, arity_text = fields
            if not arity_text.isdecimal():
                raise WtaError(f"line {lineno}: bad arity {arity_text!r}")
            if name in rank_names:
                raise WtaError(f"line {lineno}: duplicate rank line for {name}")
            rank_names.add(name)
            ranks.append((name, int(arity_text)))
        elif head == "trans":
            m = _parse_trans(rest, lineno)
            raw_trans.append((lineno,) + m)
        elif head == "final":
            fields = [f.strip() for f in rest.split("@")]
            if len(fields) != 2:
                raise WtaError(f"line {lineno}: expected 'final q @ w'")
            raw_final.append((lineno, fields[0], fields[1]))
        else:
            raise WtaError(f"line {lineno}: unknown directive {head!r}")

    if kind is None:
        raise WtaError("missing semifield line")
    try:
        alphabet = RankedAlphabet(ranks)
    except terms.TermError as exc:
        raise WtaError(str(exc)) from None

    # states in order of first appearance
    states: Dict[str, None] = {}

    def add_state(q: str, lineno: int) -> None:
        if not terms._IDENT_RE.match(q) or q == terms.Z_NAME:
            raise WtaError(f"line {lineno}: bad state name {q!r}")
        if q in alphabet:
            raise WtaError(f"line {lineno}: state name collides with symbol {q!r}")
        states[q] = None

    # an automaton uses few distinct weight texts: parse each once; a zero
    # weight is kept as None
    weights: Dict[str, Optional[Weight]] = {}

    def weight(wtext: str, lineno: int) -> Optional[Weight]:
        if wtext not in weights:
            try:
                w = semifield.parse_weight(wtext, kind)
            except semifield.WeightSyntaxError as exc:
                raise WtaError(f"line {lineno}: {exc}") from None
            weights[wtext] = None if w.is_zero() else w
        return weights[wtext]

    arities = {s: alphabet.arity(s) for s in alphabet.symbols()}
    delta: Dict[TransKey, Weight] = {}
    seen_keys: Set[TransKey] = set()
    for lineno, sym, args, target, wtext in raw_trans:
        k = arities.get(sym)
        if k is None:
            raise WtaError(f"line {lineno}: undeclared symbol {sym!r}")
        if len(args) != k:
            raise WtaError(
                f"line {lineno}: {sym} has arity {k}, got {len(args)} arguments"
            )
        for q in args + (target,):
            if q not in states:
                add_state(q, lineno)
        key = (args, sym, target)
        if key in seen_keys:
            raise WtaError(f"line {lineno}: duplicate transition for {sym}{args}")
        seen_keys.add(key)
        w = weight(wtext, lineno)
        if w is not None:
            delta[key] = w

    final: Dict[str, Weight] = {}
    seen_final: Set[str] = set()
    for lineno, q, wtext in raw_final:
        if q not in states:
            add_state(q, lineno)
        if q in seen_final:
            raise WtaError(f"line {lineno}: duplicate final line for {q}")
        seen_final.add(q)
        w = weight(wtext, lineno)
        if w is not None:
            final[q] = w

    if not states:
        raise WtaError("automaton declares no states (no trans/final lines)")
    try:
        return Wta(alphabet, tuple(states), kind, delta, final)
    except terms.TermError as exc:
        raise WtaError(str(exc)) from None


def _parse_trans(rest: str, lineno: int) -> Tuple[str, Tuple[str, ...], str, str]:
    if "@" not in rest or "->" not in rest:
        raise WtaError(f"line {lineno}: expected 'trans SYM(...) -> q @ w'")
    lhs, wtext = rest.rsplit("@", 1)
    src, target = lhs.split("->", 1)
    src = src.strip()
    target = target.strip()
    wtext = wtext.strip()
    if "(" in src:
        if not src.endswith(")"):
            raise WtaError(f"line {lineno}: malformed transition source {src!r}")
        sym, inner = src[:-1].split("(", 1)
        sym = sym.strip()
        args = tuple(map(str.strip, inner.split(","))) if inner.strip() else ()
    else:
        sym, args = src, ()
    if not sym:
        raise WtaError(f"line {lineno}: missing symbol in transition")
    for piece in args + (target,):
        if not piece:
            raise WtaError(f"line {lineno}: malformed transition {rest!r}")
    return (sym, args, target, wtext)


def format_wta(a: Wta) -> str:
    """Canonical serialization: declaration order everywhere, sorted delta."""
    sym_index = {s: i for i, s in enumerate(a.alphabet.symbols())}
    state_index = {q: i for i, q in enumerate(a.states)}
    lines = [f"semifield {a.kind}"]
    for s in a.alphabet.symbols():
        lines.append(f"rank {s} {a.alphabet.arity(s)}")
    def trans_key(item: Tuple[TransKey, Weight]):
        (ws, sym, q), _ = item
        return (sym_index[sym], tuple(state_index[p] for p in ws), state_index[q])
    for (ws, sym, q), w in sorted(a.delta.items(), key=trans_key):
        args = ",".join(ws)
        lines.append(f"trans {sym}({args}) -> {q} @ {semifield.format_weight(w)}")
    for q in a.states:
        if q in a.final:
            lines.append(f"final {q} @ {semifield.format_weight(a.final[q])}")
    return "\n".join(lines) + "\n"
