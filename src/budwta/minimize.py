"""Minimal bu-det automaton construction and exact equivalence.

The pipeline: slim the automaton, build its syntactic quotient, take as
scalar basis the class of the witness tree of each live block's first
state, and read the minimal automaton off delta in one pass.  A slim
bu-det automaton is minimal iff its state count equals the basis size.

Equivalence of two bu-det automata is decided exactly by one semi-naive
pass over the pairs of live states that a common tree reaches, each with
the ratio of the two run weights.  The pass joins each new pair on the
entries of the first automaton that use its state, through the inverse
view of delta, and reads only the live sets of both automata, from the
unordered derivation `automaton._live`, not the ordered derivations
that minimization needs for its witness trees and normalizers.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from typing import Dict, Iterator, List, Tuple

from . import automaton, congruence, terms
from .automaton import PreconditionError, TransKey, Wta
from .congruence import ClassRep, SyntacticQuotient
from .scalar import Monomial
from .semifield import Value, eq
from .terms import Tree


def scalar_basis(
    a: Wta, qt: SyntacticQuotient
) -> List[Tuple[Tree, ClassRep]]:
    """The witness tree of each live block's first state, with its class:
    the first candidate of each block, in candidate order.

    Two nonzero classes are scalar multiples of one another exactly when
    they share a block, so this is a pair-independent generating set: a
    basis, whose size is the number of live blocks.

    The run memo keeps roots only, so every witness tree is first run in
    the order `automaton.representative_trees` found them: the children
    of each are then earlier roots, and each run is one step.
    """
    for t in qt.rep_tree.values():
        automaton.h_det(a, t)
    one = a.kind.one
    trees = [qt.rep_tree[block[0]] for block in qt.blocks]
    return [(t, congruence.class_of(qt, Monomial(one, t))) for t in trees]


NAME_TEXT_CAP = 64  # characters of tree text that a basis-state name keeps


def _state_names(alphabet: terms.RankedAlphabet, trees: List[Tree]) -> List[str]:
    """``c{i}__`` and the text of tree i with each run of ``(``, ``)``, ``,``
    and ``_`` written as one ``_``, none at either end, cut after
    NAME_TEXT_CAP characters, with ``_`` appended while the name is a
    symbol of the alphabet.

    The texts come from one post-order walk over the distinct nodes of all
    the trees: a node's text is its symbol's ``_``-separated words and its
    children's texts, joined by ``_`` and cut.  A child text that was cut
    already fills the cap, so cutting it first changes nothing.  A shared
    tree of height n can have 2^(n+1) - 1 nodes and only n + 1 distinct ones.
    """
    texts: Dict[Tree, str] = {}
    for t in trees:
        for node in terms.validate_tree(t, alphabet, known=texts):
            pieces = node.symbol.split("_") + [texts[c] for c in node.children]
            texts[node] = "_".join(filter(None, pieces))[:NAME_TEXT_CAP]
    names = []
    for i, t in enumerate(trees):
        name = f"c{i}__{texts[t]}"
        while name in alphabet:
            name += "_"
        names.append(name)
    return names


def build_wta_from_basis(
    a: Wta, qt: SyntacticQuotient, basis: List[Tuple[Tree, ClassRep]]
) -> Wta:
    """The automaton whose states are the basis classes, read off delta.

    Basis tree t_i (one per live block, of class (block, b_i)) runs to
    state s_i with weight wt_i.  The transition on sym(i1..ik) is the class
    of sym(t_i1, ..., t_ik) over the basis.  By bu-determinism that tree
    takes the one entry sym(s_i1..s_ik) -> t @ w, if any, so the class is
    basis element j of t's block times w * prod wt_i * lam[t] * b_j^-1.
    With no entry, or a dead t, the class is zero: no transition.  So one
    pass over delta, O(|delta| * k), builds them all; each weight is one
    `Semifield.product`, reduced once, as the wt_i can be far longer than
    the result.  Final weights are the basis trees' weights; an empty
    basis (zero language) gives the one-state automaton with no final
    weight.
    """
    k = a.kind
    if not basis:
        leaf = Tree(a.alphabet.nullary_symbols()[0])
        return automaton._zero_language(a, _state_names(a.alphabet, [leaf])[0])

    names = _state_names(a.alphabet, [t for t, _ in basis])
    child: Dict[str, Tuple[str, Value]] = {}  # s_i -> (its name, wt_i)
    final: Dict[str, Value] = {}
    for name, (t, _) in zip(names, basis):
        s, wt = automaton.h_det(a, t)
        child[s] = (name, wt)
        w = automaton.evaluate(a, t)
        if not eq(w, k.zero):
            final[name] = w
    target = {block: (names[j], k.inv(b)) for j, (_, (block, b)) in enumerate(basis)}
    delta: Dict[TransKey, Value] = {}
    for (ws, sym, t), w in a.delta.items():
        if t in qt.dead or not all(p in child for p in ws):
            continue
        name, b_inv = target[qt.block_of[t]]
        w = k.product([w, qt.lam[t], b_inv, *(child[p][1] for p in ws)])
        delta[(tuple(child[p][0] for p in ws), sym, name)] = w
    return Wta(a.alphabet, tuple(names), k, delta, final)


def minimize(a: Wta) -> Wta:
    """Minimal bu-det automaton with the same weighted tree language."""
    automaton._require_budet(a)
    s = automaton.slim(a)
    qt = congruence.build_syntactic_quotient(s)
    basis = scalar_basis(s, qt)
    return build_wta_from_basis(s, qt, basis)


def is_minimal(a: Wta) -> bool:
    """True iff the automaton is slim and as small as the scalar basis allows."""
    return minimality(a)[1]


def minimality(a: Wta) -> Tuple[bool, bool, int]:
    """Whether the automaton is slim, whether it is minimal, and its
    degree: the size of the scalar basis of the syntactic algebra of its
    language.

    ``a`` is slim exactly when `automaton.slim` returns it itself.  The
    degree is read off the slimmed automaton: the basis takes one element
    from each live block, and every live block holds a state, so the
    degree is the number of live blocks.  A slim automaton is minimal when
    it has that many states; the zero language needs one (dead) state,
    hence the max with 1.
    """
    automaton._require_budet(a)
    s = automaton.slim(a)
    deg = len(congruence.build_syntactic_quotient(s).blocks)
    return s is a, s is a and len(a.states) == max(1, deg), deg


# --- exact equivalence ----------------------------------------------------

Pair = Tuple[str, str]


def equivalent(a: Wta, b: Wta) -> bool:
    """Exact equality of the two recognized weighted tree languages.

    Both automata must be bu-det, over the same alphabet and semifield.
    One semi-naive pass (Bancilhon & Ramakrishnan, SIGMOD 1986) finds the
    pairs (p, q) of live states reached by a common tree, each with a ratio
    rho of the two run weights that no tree may change, and checks
    rho * F_A(p) = F_B(q).  Only the live sets are read, from the unordered
    derivation `automaton._live`; trees dead or missing on both sides are
    never observed, nor are trees above them (live states have live
    children), and a tree live on one side only is a difference.

    The pass joins on ``uses`` of `automaton._inverse` of ``a``: when found
    pair n = (p, q) is taken up, each entry of ``a`` with p at position j
    is filled with found pairs of its A-states, of index < n before j and
    <= n after j, so each tuple of found pairs under an entry of ``a`` is
    met once, and b's entry is looked up under its B-states.  A tuple that
    only ``b`` has an entry for is found by a count at the end, not by a
    second join: a live entry of ``b`` is met at most once per tuple of
    found pairs with its B-states, so every one is met that often exactly
    when the totals agree.  One lookup per entry of ``a`` when each of its
    states pairs with one state of ``b``; at most |live_A| * |live_B|
    pairs.  Neither automaton is slimmed: found pairs hold live states
    only, and a live state is realized.
    """
    if a.alphabet != b.alphabet:
        raise PreconditionError("automata use different alphabets")
    if a.kind != b.kind:
        raise PreconditionError("automata use different semifields")
    automaton._require_budet(a)
    automaton._require_budet(b)
    live_a = automaton._derivation(a, automaton._live)
    live_b = automaton._derivation(b, automaton._live)
    succ_b = b._succ
    no_step = (None, None)  # no target, which no live set holds
    k = a.kind
    product, inv, zero = k.product, k.inv, k.zero
    found: List[Pair] = []
    rhos: List[Value] = []  # rho of each found pair
    index: Dict[Pair, int] = {}
    by_a: Dict[str, List[int]] = {}  # A-state -> indices of its found pairs
    met = 0  # tuples met under a live entry of b
    rho_of = rhos.__getitem__
    for key, w, ws_b, combo in _joined(a, found, by_a):
        q, y = succ_b[key[1]].get(ws_b, no_step)
        p = key[2]
        if q not in live_b:
            if p in live_a:
                return False
            continue
        if p not in live_a:
            return False
        met += 1
        rho = product([w, inv(y), *map(rho_of, combo)])
        n = index.get((p, q))
        if n is None:
            if not eq(k.times(rho, a.final.get(p, zero)), b.final.get(q, zero)):
                return False
            index[(p, q)] = len(found)
            by_a.setdefault(p, []).append(len(found))
            found.append((p, q))
            rhos.append(rho)
        elif not eq(rhos[n], rho):
            return False
    # No live entry of b is met more often than the tuples of found pairs
    # under it, so all are met that often when the totals agree.
    by_b = collections.Counter(q for _, q in found)
    under = by_b.__getitem__  # 0 for a B-state without found pairs
    expected = sum(
        math.prod(map(under, ws))
        for steps in succ_b.values() for ws, (q, _) in steps.items() if q in live_b
    )
    return met == expected


def _joined(
    a: Wta, found: List[Pair], by_a: Dict[str, List[int]]
) -> Iterator[Tuple[TransKey, Value, Tuple[str, ...], Tuple[int, ...]]]:
    """Each entry of ``a`` with each tuple of indices of found pairs whose
    A-states are its child states, once, while ``found`` grows: first the
    nullary entries; then, as pair n is taken up, the entries with its
    A-state at position j, with n there, indices < n before j and <= n
    after j.  Each comes with its weight, read with its key from the
    numbered entries of `automaton._inverse`, and the tuple's B-states.
    ``by_a`` lists the indices of the found pairs of each A-state in
    increasing order."""
    succ = a._succ
    for sym in a.alphabet.nullary_symbols():
        step = succ[sym].get(())
        if step:
            yield ((), sym, step[0]), step[1], (), ()
    entries, _, uses = automaton._derivation(a, automaton._inverse)
    n = 0
    while n < len(found):
        for e, j in uses[found[n][0]]:
            key, w = entries[e]
            if len(key[0]) == 1:  # the one tuple (n,), without the slots
                yield key, w, (found[n][1],), (n,)
                continue
            slots = [
                (n,) if i == j else
                mine[: (bisect.bisect_left if i < j else bisect.bisect_right)(mine, n)]
                for i, mine in enumerate(by_a.get(p, ()) for p in key[0])
            ]
            for combo in itertools.product(*slots):
                yield key, w, tuple([found[i][1] for i in combo]), combo
        n += 1
