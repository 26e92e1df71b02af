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

import operator
import re
from dataclasses import dataclass
from itertools import chain, repeat
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from . import semifield, terms
from .semifield import Semifield, Value
from .terms import RankedAlphabet, Tree

# A bottom-up deterministic run result: None stands for the sink (no run),
# otherwise the reached state together with the accumulated nonzero weight.
DetValue = Optional[Tuple[str, Value]]

TransKey = Tuple[Tuple[str, ...], str, str]  # (state tuple, symbol, target)
SuccKey = Tuple[Tuple[str, ...], str]  # (state tuple, symbol)


class WtaError(ValueError):
    """Structurally invalid automaton or malformed .wta input."""


class PreconditionError(RuntimeError):
    """An operation was called on an automaton outside its domain."""


def _check_state_names(names: Iterable[object], alphabet: RankedAlphabet, where: str = "") -> None:
    """Refuse a state name that `parse_wta` would not read back: one that
    is not an identifier, is ``z`` or is a symbol.  ``where`` starts the
    message."""
    for q in names:
        if not terms._is_identifier(q) or q == terms.Z_NAME:
            raise WtaError(f"{where}bad state name {q!r}")
        if q in alphabet:
            raise WtaError(f"{where}state name collides with symbol {q!r}")


@dataclass(frozen=True, eq=False)
class Wta:
    """An immutable automaton.

    ``kind`` is a `semifield.Semifield`; every weight in ``delta`` and
    ``final`` is a nonzero raw value of it, checked once, here.  Every
    state name is one that `parse_wta` reads back from `format_wta`'s
    text: an identifier, neither ``z`` nor a symbol, the names checked on
    sets, so each name once.
    The derived fields are computed once, here: ``_succ`` maps each (state
    tuple, symbol) key of delta to the (target, weight) of its first entry,
    which for a bu-det automaton is its one step, and ``budet`` records
    bottom-up determinism, no key with a second entry; the loop that builds
    ``_succ`` checks each entry and names the first bad one.
    Two memos fill as the automaton is used: ``_runs`` maps the root of
    each tree run with weights so far, not its interior nodes, to its
    deterministic value, and ``_states`` maps the root of each tree run by
    `state_of` to its state.  Only validated input goes in, so a run
    validates no subtree its memo holds.  ``_derived`` keeps four
    derivations over delta, each computed on first use by `_derivation`:
    `_least_keys` forward and `_least_steps` backward, one entry per
    state; `_live`, the unordered set of live states; and `_inverse`,
    delta's entries numbered in delta order, the entries into each state
    and the (entry index, position) uses of each state.
    All of these belong to the automaton, so they can never go stale and
    die with it.
    """

    alphabet: RankedAlphabet
    states: Tuple[str, ...]
    kind: Semifield
    delta: Mapping[TransKey, Value]
    final: Mapping[str, Value]

    def __post_init__(self) -> None:
        # a tuple and read-only copies of the caller's states and maps
        _init = object.__setattr__
        _init(self, "states", tuple(self.states))
        delta = dict(self.delta)
        final = dict(self.final)
        _init(self, "delta", MappingProxyType(delta))
        _init(self, "final", MappingProxyType(final))
        k = self.kind
        if not isinstance(k, Semifield):
            raise WtaError(f"kind must be a semifield object, got {k!r}")
        if not self.states:
            raise WtaError("automaton needs at least one state")
        stateset = set(self.states)
        if len(stateset) != len(self.states):
            raise WtaError("duplicate state names")
        # names checked on sets; the loop over the names runs only to name
        # the first bad one
        arities = self.alphabet._arity
        if (
            not all(map(terms._is_identifier, self.states))
            or terms.Z_NAME in stateset
            or not stateset.isdisjoint(arities)
        ):
            _check_state_names(self.states, self.alphabet)
        succ: Dict[SuccKey, Tuple[str, Value]] = {}
        for (ws, sym, q), w in delta.items():
            if len(ws) != arities.get(sym) or q not in stateset or not stateset.issuperset(ws):
                if sym not in arities:
                    raise WtaError(f"unknown symbol in transition: {sym!r}")
                if len(ws) != arities[sym]:
                    raise WtaError(f"transition arity mismatch for {sym}")
                bad = next(p for p in ws + (q,) if p not in stateset)
                raise WtaError(f"unknown state in transition: {bad}")
            succ.setdefault((ws, sym), (q, w))
        if not stateset.issuperset(final):
            bad = next(q for q in final if q not in stateset)
            raise WtaError(f"unknown state in final map: {bad}")
        # weights are usually a few shared objects: check each one once
        weights = {id(w): w for w in delta.values()}
        weights.update((id(w), w) for w in final.values())
        for w in weights.values():
            if not k.contains(w):
                raise WtaError(f"weight {w!r} is not in the {k} semifield")
            if semifield.eq(w, k.zero):
                raise WtaError("zero weights must not be stored")
        _init(self, "_succ", succ)
        _init(self, "budet", len(succ) == len(delta))
        _init(self, "_runs", {})
        _init(self, "_states", {})
        _init(self, "_derived", {})


def is_bu_deterministic(a: Wta) -> bool:
    return a.budet


def is_total(a: Wta) -> bool:
    """Every (state tuple, symbol) pair has at least one nonzero target:
    ``_succ`` has a key for each of the |Q|^k tuples of each symbol.

    With two states or more, a symbol of arity k >= the bit length of
    |_succ| has 2^k > |_succ| tuples, so the answer is no and no power is
    built: a huge arity costs nothing."""
    n, bound = len(a.states), len(a._succ).bit_length()
    arities = a.alphabet._arity.values()
    return all(n == 1 or k < bound for k in arities) and len(a._succ) == sum(n**k for k in arities)


def _require_budet(a: Wta) -> None:
    if not is_bu_deterministic(a):
        raise PreconditionError("automaton is not bottom-up deterministic")


# --- semantics ------------------------------------------------------------


def h_general(a: Wta, t: Tree) -> Dict[str, Value]:
    """Sum-product vector semantics; works for any automaton.  Each node
    sums over the delta entries of its symbol, read from ``a.delta`` alone.

    A child's vector is kept until its last parent is done.  The parent
    places of each node are counted first, over the node list backwards,
    parents first: a node's count is complete when it is reached, and is
    kept only if it is two or more.  So a spine holds O(1) vectors and
    O(1) counts at a time, and only the root's vector is left at the end.
    """
    k = a.kind
    entries: Dict[str, list] = {}  # symbol -> (child states, target, weight)
    for (ws, sym, q), w in a.delta.items():
        entries.setdefault(sym, []).append((ws, q, w))
    order = terms.validate_tree(t, a.alphabet)
    # id(node) -> the child places of it not yet done, for a node with two
    # or more; ``counted`` holds the places seen so far of the nodes above
    # the backward pass, which drops each as it reaches it
    waiting: Dict[int, int] = {}
    counted: Dict[int, int] = {}
    for node in reversed(order):
        m = counted.pop(id(node), 0)
        if m > 1:
            waiting[id(node)] = m
        for c in node.children:
            counted[id(c)] = counted.get(id(c), 0) + 1
    vecs: Dict[int, Dict[str, Value]] = {}
    for node in order:
        kids = [vecs[id(c)] for c in node.children]
        out = dict.fromkeys(a.states, k.zero)
        for ws, q, w in entries.get(node.symbol, ()):
            for p, vec in zip(ws, kids):
                w = k.times(w, vec[p])
            out[q] = k.plus(out[q], w)
        for c in node.children:
            m = waiting.pop(id(c), 1) - 1
            if m:
                waiting[id(c)] = m
            else:
                del vecs[id(c)]
        vecs[id(node)] = out
    return vecs[id(t)]


_MISS = object()
_state = operator.itemgetter(0)
_children = operator.itemgetter(0)  # of a transition key


def _run(a: Wta, t: Tree, weighed: bool = True) -> Union[DetValue, str]:
    """Deterministic run of ``t``, memoised at the root: with ``weighed``,
    its `DetValue` in ``a._runs``; without, its state alone (or None) in
    ``a._states``.

    A hit is stored again under ``t`` itself: a tree equal to the key but
    built apart (by ``Tree``, or parsed against an equal but separate
    alphabet) costs one comparison walk, and the next lookup of the same
    object is an identity hit.  On a miss, a leaf of a declared nullary
    symbol, or a node of its symbol's arity whose children the memo holds
    (found by value, so a child built apart counts), is one step, with no
    walk: its children are valid, since only validated trees go in, so
    the node is.  The weighted step multiplies its weight by the stored
    weights of its children, one factor per child place; a sink child
    gives the sink.  Any other tree, and every bad one, is run over the
    node list of `terms.validate_tree` with the memo as ``known``: the
    distinct nodes not under an earlier root, checked, children before
    parents, which a fresh parse hands over without a walk.  Each node's
    step is a state step, as `state_of` takes it: the weighted run keeps
    the (target, weight) step of each node and multiplies no weight on the
    way up, and when the root has a state, `_fold` gives its weight.
    """
    memo = a._runs if weighed else a._states
    v = memo.pop(t, _MISS)
    if v is not _MISS:
        memo[t] = v
        return v
    succ = a._succ
    kids = t.children
    if (memo or not kids) and a.alphabet._arity.get(t.symbol) == len(kids):
        got = [memo.get(c, _MISS) for c in kids]
        if _MISS not in got:  # one step over earlier roots
            if None in got:
                v = None
            elif weighed:
                v = succ.get((tuple(map(_state, got)), t.symbol))
                if v is not None:
                    q, w = v
                    for _, x in got:
                        w = a.kind.times(w, x)
                    v = (q, w)
            else:
                v = succ.get((tuple(got), t.symbol))
                v = v and v[0]
            memo[t] = v
            return v
    order = terms.validate_tree(t, a.alphabet, known=memo)
    # id(node) -> its step (target, weight) or, without weights, its
    # state; None for the sink; and a child the memo holds, its value
    vals: Dict[int, object] = {}
    for node in order:
        try:
            kids = [vals[id(c)] for c in node.children]
        except KeyError:  # a child the memo holds: its value joins the walk's
            for c in node.children:
                if id(c) not in vals:
                    vals[id(c)] = memo[c]
            kids = [vals[id(c)] for c in node.children]
        if None in kids:
            vals[id(node)] = None
        elif weighed:
            vals[id(node)] = succ.get((tuple(map(_state, kids)), node.symbol))
        else:
            step = succ.get((tuple(kids), node.symbol))
            vals[id(node)] = step and step[0]
    v = vals[id(t)]
    if weighed and v is not None:
        v = (v[0], _fold(a.kind, t, order, vals))
    memo[t] = v
    return v


def _fold(k: Semifield, t: Tree, order: List[Tree], vals: Dict[int, object]) -> Value:
    """The weight of the run of ``t`` whose walk is ``order`` and whose
    values are ``vals``: the product of the weight of each distinct node,
    its step weight or, for a memo root, its stored weight, raised to its
    multiplicity, the number of paths from the root to it, folded with one
    `Semifield.power_product` over the distinct weight objects.

    Multiplicities are counted top-down, the node list read backwards: a
    node's parents all come after it in ``order``, so its count is complete
    when it is reached and passed on to its children.  A memo root is a
    child that is not walked, so it counts but passes nothing on.
    """
    paths = {id(t): 1}  # id(node) -> the number of paths from the root to it
    for node in reversed(order):
        m = paths[id(node)]
        for c in node.children:
            paths[id(c)] = paths.get(id(c), 0) + m
    counts: Dict[int, list] = {}  # id(weight) -> [weight, its count]
    for i, m in paths.items():
        w = vals[i][1]  # type: ignore[index]
        got = counts.get(id(w))
        if got is None:
            counts[id(w)] = [w, m]
        else:
            got[1] += m
    return k.power_product(counts.values())


def h_det(a: Wta, t: Tree) -> DetValue:
    """Product-only run of a bottom-up deterministic automaton: the state
    of ``t`` and the product of the step weights of its nodes, each node
    counted once per occurrence, folded per distinct weight (see `_run`)."""
    _require_budet(a)
    return _run(a, t)


def state_of(a: Wta, t: Tree) -> Optional[str]:
    """The state ``t`` reaches in a bottom-up deterministic automaton, or
    None for the sink.  By bu-determinism the state does not depend on the
    weights, so no weight is multiplied: the run looks up one transition
    per distinct node, and its memo ``a._states`` keeps roots only, as
    ``a._runs`` does."""
    _require_budet(a)
    return _run(a, t, weighed=False)


def _read_out(a: Wta, v: DetValue) -> Value:
    """The weight of a run value at the root: its weight times F of its state."""
    k = a.kind
    return k.zero if v is None else k.times(v[1], a.final.get(v[0], k.zero))


def evaluate(a: Wta, t: Tree) -> Value:
    """The weight the automaton assigns to a tree: for a bu-det automaton,
    the weight of its `_run` times the final weight of its state, one
    ⊗ after the fold; for any other, `h_general`'s vector read out."""
    k = a.kind
    if is_bu_deterministic(a):
        return _read_out(a, _run(a, t))
    out = k.zero
    for q, w in h_general(a, t).items():
        out = k.plus(out, k.times(w, a.final.get(q, k.zero)))
    return out


# --- reachability, slimming, observability --------------------------------


def _inverse(a: Wta) -> Tuple[List[Tuple[TransKey, Value]], Dict[str, list], Dict[str, list]]:
    """delta read backwards, its entries numbered in delta order:
    ``entries``, the (key, weight) pairs of delta as a list; ``into[q]``,
    the entries with target q; and ``uses[p]``, the (entry index, position)
    pairs with p at that position, both in delta order, and both with a
    list for every state.  The one inverse of delta: every pass that walks
    delta from a state to its entries reads it, and a pass that counts
    down the child positions of each entry keeps the counts in a list by
    entry index."""
    entries = list(a.delta.items())
    into: Dict[str, list] = {q: [] for q in a.states}  # target -> (key, weight)
    uses: Dict[str, list] = {q: [] for q in a.states}  # child -> (entry index, position)
    for e, entry in enumerate(entries):
        ws, _, q = entry[0]
        into[q].append(entry)
        i = 0  # counted by hand: an enumerate per entry costs a third more
        for p in ws:
            uses[p].append((e, i))
            i += 1
    return entries, into, uses


def _least_keys(a: Wta) -> Dict[str, SuccKey]:
    """Each realized state's least (state tuple, symbol) key, in rank order:
    the forward derivation over delta.

    Each delta entry waits on its k child positions (Dowling & Gallier
    1984), reading ``uses`` of `_inverse`: finding a state counts down
    each of its uses once, and an entry joins the bucket of height
    1 + max(child heights) when its last position is found, after Knuth's
    generalization of Dijkstra's algorithm (1977).  Within a height each
    state not found yet takes its least (symbol index, child ranks) key;
    the states found are ranked in that order.  Each entry is its own
    bucket item, so a non-bu-det automaton reaches every target too.
    O(|delta| * k), and an order is built only for a state not found yet.
    """
    sym_index = a.alphabet._index
    entries, _, uses = _derivation(a, _inverse)
    missing = list(map(len, map(_children, a.delta)))  # child positions not found yet
    bucket = [key for key in a.delta if not key[0]]
    rank: Dict[str, int] = {}
    keys: Dict[str, SuccKey] = {}
    while bucket:
        least: Dict[str, tuple] = {}  # state -> (order, key) of its least key
        for ws, sym, q in bucket:
            if q not in keys:
                order = (sym_index[sym], *map(rank.__getitem__, ws))
                if q not in least or order < least[q][0]:
                    least[q] = (order, (ws, sym))
        bucket = []
        for q in sorted(least, key=least.get):
            rank[q] = len(rank)
            keys[q] = least[q][1]
            for e, _ in uses[q]:
                missing[e] -= 1
                if not missing[e]:
                    bucket.append(entries[e][0])
    return keys


def _least_steps(a: Wta) -> Dict[str, Optional[Tuple[str, Value]]]:
    """Each observable state's first step along its least abstract
    observation path, in layer order: the backward derivation over delta.

    Paths are ordered by length, then step by step from the hole outwards
    by (symbol declaration index, hole position, declaration ranks of the
    side states); a final state's path is empty (None).  A breadth-first
    search from the final states, after Mohri (TCS 2000), finds them layer
    by layer, reading ``into`` of `_inverse`: every step from a state of
    layer d leads to layer d - 1 or higher, so a state's least path is its
    least step into layer d - 1 followed by that state's least path.  Each
    transition is looked at once per child, O(|delta| * k), and an order is
    built only for a state not found yet.
    """
    sym_index = a.alphabet._index
    rank = {q: i for i, q in enumerate(a.states)}
    into = _derivation(a, _inverse)[1]
    steps = dict.fromkeys(a.final)  # state -> (target, weight) of its least step
    layer = list(steps)
    while layer:
        least: Dict[str, tuple] = {}  # state -> (order, step) of its least step
        for q in layer:
            for (ws, sym, _), w in into[q]:
                for i, p in enumerate(ws):
                    if p in steps:
                        continue
                    order = (sym_index[sym], i, *map(rank.__getitem__, ws[:i] + ws[i + 1 :]))
                    if p not in least or order < least[p][0]:
                        least[p] = (order, (q, w))
        steps.update((p, step) for p, (_, step) in least.items())
        layer = list(least)
    return steps


def _live(a: Wta) -> FrozenSet[str]:
    """The live states: realized by a tree and observable through some
    context whose side subtrees have runs.  The unordered derivation, for
    a caller that needs the set and no order.

    Forward, each delta entry counts down its child positions in ``uses``
    of `_inverse` as their states are realized, and realizes its target at
    zero.  Backward, a search from the realized final states over ``into``
    takes only entries whose children are all realized, and reaches their
    children.  O(|delta| * k).  The live states are those of `slim` that
    its `dead_states` leaves out; a zero language has none.
    """
    entries, into, uses = _derivation(a, _inverse)
    todo = [q for ws, _, q in a.delta if not ws]
    realized = set()
    missing = list(map(len, map(_children, a.delta)))  # child positions not realized yet
    while todo:
        q = todo.pop()
        if q in realized:
            continue
        realized.add(q)
        for e, _ in uses[q]:
            missing[e] -= 1
            if not missing[e]:
                todo.append(entries[e][0][2])
    live = {q for q in a.final if q in realized}
    todo = list(live)
    while todo:
        for (ws, _, _), _ in into[todo.pop()]:
            if realized.issuperset(ws):
                for p in ws:
                    if p not in live:
                        live.add(p)
                        todo.append(p)
    return frozenset(live)


def _derivation(a: Wta, derive):
    """``derive(a)``, computed on first use and kept in ``a._derived``.
    It is kept there, not set as an attribute with ``__dict__`` or
    `functools.cached_property`: in CPython 3.11 a write to ``__dict__``
    makes every later attribute read on the automaton about three times
    slower."""
    got = a._derived.get(derive)
    if got is None:
        got = a._derived[derive] = derive(a)
    return got


def reachable_states(a: Wta) -> FrozenSet[str]:
    """States realized by some tree (the image of the run map, minus sink)."""
    return frozenset(_derivation(a, _least_keys))


def is_slim(a: Wta) -> bool:
    return len(_derivation(a, _least_keys)) == len(a.states)


def _zero_language(a: Wta, p: str) -> Wta:
    """The one-state zero-language automaton over a's alphabet and
    semifield: state ``p``, a unit self-loop per symbol, no final weight."""
    sigma = a.alphabet
    delta = {((p,) * sigma.arity(s), s, p): a.kind.one for s in sigma.symbols()}
    return Wta(sigma, (p,), a.kind, delta, {})


def slim(a: Wta) -> Wta:
    """Restrict to realized states; preserves the recognized weighted language.

    A slim automaton is returned itself, so ``slim(a) is a`` exactly when
    every state of ``a`` is realized, and its run memo is kept.  If no state
    is realized at all (possible when some symbol arities are never
    satisfiable), the result is the one-state automaton for the zero
    language: total with unit weights and no final weight.
    """
    reached = reachable_states(a)
    if len(reached) == len(a.states):
        return a
    if not reached:
        return _zero_language(a, a.states[0])
    keep = tuple(q for q in a.states if q in reached)
    # an entry whose child states are all realized realizes its target
    delta = {key: w for key, w in a.delta.items() if reached.issuperset(key[0])}
    final = {q: w for q, w in a.final.items() if q in reached}
    return Wta(a.alphabet, keep, a.kind, delta, final)


def dead_states(a: Wta) -> FrozenSet[str]:
    """States from which no context can reach a nonzero final weight: those
    the backward derivation does not find.

    Meaningful for slim automata, where every side state of a transition is
    realized by a tree.
    """
    _require_budet(a)
    return frozenset(a.states).difference(_derivation(a, _least_steps))


def representative_trees(a: Wta) -> Dict[str, Tree]:
    """The first tree reaching each state of a slim bu-det automaton, in the
    order of height, then symbol declaration, then the lexicographic order
    of the children's places in this same order.

    No tree is enumerated.  The first tree reaching q is
    sym(rep(p1), ..., rep(pk)) for a transition sym(p1, ..., pk) -> q whose
    child representatives come earlier: replacing a child by its state's
    representative never makes a tree higher or later.  So each tree is
    built from q's least key in the forward derivation, `_least_keys`,
    in its rank order.  Children are the representatives themselves, so the
    trees share their subtrees: the tree of a state at height n may have
    2^(n+1) - 1 nodes, but no more distinct subtrees than there are states.  Each
    tree is run through `state_of` as the derivation's own check, in the
    order found: its children are the roots of earlier checks, so the run
    validates and steps over its root alone, in O(k), and no weight of a
    witness tree is computed.
    """
    _require_budet(a)
    if not is_slim(a):
        raise PreconditionError("representative trees need a slim automaton")
    reps: Dict[str, Tree] = {}
    for q, (ws, sym) in _derivation(a, _least_keys).items():
        reps[q] = t = Tree(sym, tuple(reps[p] for p in ws))
        got = state_of(a, t)
        if got != q:
            raise RuntimeError(f"the derived tree for state {q} reaches {got}")
    return reps


# --- the .wta text format -------------------------------------------------


# the trans lines of a text in format_wta's spelling, each read whole by one
# split: ASCII words for the symbol and the states, one space on each side
# of "->" and "@", no comment.  Each match gives its four fields, and the
# pieces between the matches hold every other line.  Names and weights are
# checked later.
_TRANS_LINES = re.compile(
    r"^trans (\w+)\(((?:\w+(?:,\w+)*)?)\) -> (\w+) @ ([^\s#@]+)$\n?",
    re.ASCII | re.MULTILINE,
).split

# the final lines of the other pieces in format_wta's spelling, read by a
# second split in the same way: each match gives the state and the weight
_FINAL_LINES = re.compile(r"^final (\w+) @ ([^\s#@]+)$\n?", re.ASCII | re.MULTILINE).split


def _ascii_natural(text: str) -> Optional[int]:
    """The number ``text`` spells in ASCII digits, no more than int()
    converts; None for any other text."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:
        return None


def parse_wta(text: str) -> Wta:
    """Load an automaton from its line-based description.

    Lines: ``semifield KIND``, ``rank SYM ARITY``,
    ``trans SYM(q1,...,qk) -> q @ w``, ``final q @ w``; ``#`` starts a
    comment.  A line ends at ``\\n``, ``\\r\\n`` or ``\\r``, as universal
    newlines read it.  States are introduced by first use.  Duplicate
    transition keys, duplicate final states and duplicate rank lines are
    errors.  Zero weights are accepted and normalized away.

    A text whose trans and final lines are all spelled as `format_wta`
    writes them is read in one block pass, `_read_block`: one split of the
    text gives the fields of every trans line and a second split of the
    rest those of every final line, delta and the final map are each built
    with one ``dict(zip(...))``, and the `Wta` built from them checks its
    entries and state names on sets.  Any other text, and any text that
    fails a check, is read line by line by `_read_lines`, which alone words
    an error.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        a = _read_block(text)
    except ValueError:  # the line reader words the error
        a = None
    return _read_lines(text) if a is None else a


def _read_directives(text: str) -> Tuple[Semifield, RankedAlphabet, list, list]:
    """The semifield, the alphabet and the trans and final lines of a text
    whose lines end at ``\\n``, each line read with string methods: trans
    lines as (line, symbol, child states, target, weight text), final
    lines as (line, state, weight text).  Every error of a line's syntax is
    raised here, in line order."""
    kind: Optional[Semifield] = None
    ranks: Dict[str, int] = {}  # symbol -> arity, in declaration order
    raw_trans: List[Tuple[int, str, Tuple[str, ...], str, str]] = []
    raw_final: List[Tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "semifield":
            if kind is not None:
                raise WtaError(f"line {lineno}: duplicate semifield line")
            try:
                kind = semifield.get(rest.strip())
            except semifield.WeightSyntaxError as exc:
                raise WtaError(f"line {lineno}: {exc}") from None
        elif head == "rank":
            fields = rest.split()
            if len(fields) != 2:
                raise WtaError(f"line {lineno}: expected 'rank SYM ARITY'")
            name, arity_text = fields
            arity = _ascii_natural(arity_text)
            if arity is None:
                raise WtaError(f"line {lineno}: bad arity {arity_text[:60]!r}")
            if name in ranks:
                raise WtaError(f"line {lineno}: duplicate rank line for {name}")
            ranks[name] = arity
        elif head == "trans":
            raw_trans.append((lineno,) + _parse_trans(rest, lineno))
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
        alphabet = RankedAlphabet(ranks.items())
    except terms.TermError as exc:
        raise WtaError(str(exc)) from None
    return kind, alphabet, raw_trans, raw_final


def _read_block(text: str) -> Optional[Wta]:
    """The automaton of ``text`` when `_TRANS_LINES` reads all its trans
    lines and `_FINAL_LINES` all its final lines, else None; the
    `ValueError` of the first check that fails.

    The pieces between the trans lines are split again at the final
    lines, and what is left is read by `_read_directives`, so a trans or
    final line among it is one in another spelling.  States come in order
    of first use, trans lines first, then final lines, as `_read_lines`
    introduces them.  A repeated key or final state gives None, and the
    `Wta` refuses a zero weight, an unknown symbol, an arity or a state
    name: each goes to the line reader, which names its line or drops the
    zero weight."""
    parts = _TRANS_LINES(text)
    rest = _FINAL_LINES("".join(parts[::5]))
    kind, alphabet, trans_otherwise, final_otherwise = _read_directives("".join(rest[::3]))
    if trans_otherwise or final_otherwise:
        return None
    targets, wtexts = parts[3::5], parts[4::5]
    fstates, fwtexts = rest[1::3], rest[2::3]
    # the pattern's names are nonempty words, so str.split reads "p,q" as
    # "p q" and "" as (): one child tuple per entry, split at C speed
    args = map(str.replace, parts[2::5], repeat(","), repeat(" "))
    children = list(map(tuple, map(str.split, args)))
    keys = list(zip(children, parts[1::5], targets))
    used = chain.from_iterable(map(operator.add, children, zip(targets)))
    states = dict.fromkeys(chain(used, fstates))
    weights = {w: kind.parse(w) for w in {*wtexts, *fwtexts}}
    delta = dict(zip(keys, map(weights.__getitem__, wtexts)))
    final = dict(zip(fstates, map(weights.__getitem__, fwtexts)))
    if len(delta) < len(keys) or len(final) < len(fstates):
        return None
    return Wta(alphabet, tuple(states), kind, delta, final)


def _read_lines(text: str) -> Wta:
    """`parse_wta` line by line, each trans line read by `_parse_trans`,
    each error raised at its line.

    State names are not checked here: the `Wta` built at the end checks
    each once.  Each state keeps the line of its first use, and before any
    error is raised, and when the `Wta` refuses a name, the first bad name
    among the states so far is named at that line instead, as a check at
    first use would have done."""
    kind, alphabet, raw_trans, raw_final = _read_directives(text)
    states: Dict[str, int] = {}  # state -> line of its first use, in that order

    def check_names() -> None:
        for q, lineno in states.items():
            _check_state_names((q,), alphabet, f"line {lineno}: ")

    def error(lineno: int, message: str) -> WtaError:
        check_names()
        return WtaError(f"line {lineno}: {message}")

    # an automaton uses few distinct weight texts: each is parsed once into
    # ``weights``, a zero weight as _MISS; no nonzero weight is None (the
    # tropical None is its zero)
    weights: Dict[str, object] = {}

    def weight(wtext: str, lineno: int) -> object:
        w = weights.get(wtext)
        if w is None:
            try:
                w = kind.parse(wtext)
            except semifield.WeightSyntaxError as exc:
                raise error(lineno, str(exc)) from None
            weights[wtext] = w = _MISS if semifield.eq(w, kind.zero) else w
        return w

    # one map per line kind, in line order, a zero weight kept as _MISS:
    # a duplicate is looked up there, and the zeros are dropped at the end
    arities = alphabet._arity
    entries: Dict[TransKey, object] = {}
    for lineno, sym, args, target, wtext in raw_trans:
        k = arities.get(sym)
        if k is None:
            raise error(lineno, f"undeclared symbol {sym!r}")
        if len(args) != k:
            raise error(lineno, f"{sym} has arity {k}, got {len(args)} arguments")
        for q in args + (target,):
            states.setdefault(q, lineno)
        key = (args, sym, target)
        if key in entries:
            raise error(lineno, f"duplicate transition for {sym}{args}")
        entries[key] = weight(wtext, lineno)

    finals: Dict[str, object] = {}
    for lineno, q, wtext in raw_final:
        states.setdefault(q, lineno)
        if q in finals:
            raise error(lineno, f"duplicate final line for {q}")
        finals[q] = weight(wtext, lineno)

    if not states:
        raise WtaError("automaton declares no states (no trans/final lines)")
    delta = {key: w for key, w in entries.items() if w is not _MISS}
    final = {q: w for q, w in finals.items() if w is not _MISS}
    try:
        return Wta(alphabet, tuple(states), kind, delta, final)
    except WtaError:  # a bad state name
        check_names()
        raise


def _parse_trans(rest: str, lineno: int) -> Tuple[str, Tuple[str, ...], str, str]:
    lhs, _, wtext = rest.rpartition("@")
    src, arrow, target = lhs.partition("->")
    if not arrow:
        raise WtaError(f"line {lineno}: expected 'trans SYM(...) -> q @ w'")
    src = src.strip()
    target = target.strip()
    wtext = wtext.strip()
    if "(" in src:
        if not src.endswith(")"):
            raise WtaError(f"line {lineno}: malformed transition source {src!r}")
        sym, _, inner = src[:-1].partition("(")
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
    state_index = {q: i for i, q in enumerate(a.states)}
    lines = [f"semifield {a.kind}"]
    for s in a.alphabet.symbols():
        lines.append(f"rank {s} {a.alphabet.arity(s)}")
    def trans_key(item: Tuple[TransKey, Value]):
        (ws, sym, q), _ = item
        return (a.alphabet._index[sym], tuple(state_index[p] for p in ws), state_index[q])
    for (ws, sym, q), w in sorted(a.delta.items(), key=trans_key):
        args = ",".join(ws)
        lines.append(f"trans {sym}({args}) -> {q} @ {semifield.format_weight(w)}")
    for q in a.states:
        if q in a.final:
            lines.append(f"final {q} @ {semifield.format_weight(a.final[q])}")
    return "\n".join(lines) + "\n"
