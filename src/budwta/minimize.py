"""Minimal bu-det automaton construction and exact equivalence.

The pipeline: slim the automaton, build its syntactic quotient, take as
scalar basis the class of the first representative tree in each live
block, and read the minimal automaton off the basis.  A slim bu-det
automaton is minimal iff its state count equals the size of that basis.

Equivalence of two bu-det automata is decided exactly by a product
exploration that tracks, per reachable state pair, the ratio of the two
run weights; a ratio conflict or an observable mismatch on a pair whose
observations matter disproves equivalence.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

from . import automaton, congruence, terms
from .automaton import PreconditionError, TransKey, Wta
from .congruence import ClassRep, SyntacticQuotient
from .scalar import Monomial
from .semifield import Value
from .terms import Tree


def candidate_set(
    a: Wta, qt: SyntacticQuotient
) -> List[Tuple[Tree, ClassRep]]:
    """One unit monomial class per state, deduplicated keep-first.

    Classes equal to the zero class (dead states) are dropped; they add
    nothing to the generated algebra.
    """
    reps = qt.rep_tree
    out: List[Tuple[Tree, ClassRep]] = []
    seen: List[ClassRep] = []
    for q in a.states:
        t = reps[q]
        cls = congruence.class_of(qt, Monomial(a.kind.one, t))
        if cls is None or cls in seen:
            continue
        seen.append(cls)
        out.append((t, cls))
    return out


def scalar_basis(
    a: Wta, qt: SyntacticQuotient
) -> List[Tuple[Tree, ClassRep]]:
    """The first candidate of each live block, in candidate order.

    Two nonzero classes are scalar multiples of one another exactly when
    they share a block, so this is a pair-independent generating set: a
    basis, whose size is the number of live blocks.
    """
    seen: Set[int] = set()
    basis: List[Tuple[Tree, ClassRep]] = []
    for t, cls in candidate_set(a, qt):
        if cls[0] not in seen:
            seen.add(cls[0])
            basis.append((t, cls))
    return basis


NAME_TEXT_CAP = 64  # characters of tree text that a basis-state name keeps


def _basis_state_name(index: int, t: Tree) -> str:
    """``c{index}__`` and the tree's text with each run of ``(``, ``)``,
    ``,`` and ``_`` written as one ``_``, none at either end, cut after
    NAME_TEXT_CAP characters.

    The text is read piece by piece and no further than the cap: a shared
    tree of height n can have 2^(n+1) - 1 nodes.
    """
    out: List[str] = []
    gap = False
    for ch in itertools.chain.from_iterable(terms.tree_text(t)):
        if ch in "(),_":
            gap = bool(out)
            continue
        if gap:
            out.append("_")
            gap = False
        out.append(ch)
        if len(out) > NAME_TEXT_CAP:
            break
    return f"c{index}__" + "".join(out[:NAME_TEXT_CAP])


def build_wta_from_basis(
    a: Wta, qt: SyntacticQuotient, basis: List[Tuple[Tree, ClassRep]]
) -> Wta:
    """The automaton whose states are the basis classes.

    A transition weight is the scalar by which the class of
    sigma(basis trees) decomposes over the basis; final weights are the
    recognized weights of the basis trees.  With an empty basis (zero
    language) the result is the canonical one-state automaton with no
    final weights.
    """
    alphabet = a.alphabet
    k = a.kind
    if not basis:
        p = _basis_state_name(0, Tree(alphabet.nullary_symbols()[0]))
        delta: Dict[TransKey, Value] = {}
        for sym in alphabet.symbols():
            delta[((p,) * alphabet.arity(sym), sym, p)] = k.one
        return Wta(alphabet, (p,), k, delta, {})

    names = [_basis_state_name(i, t) for i, (t, _) in enumerate(basis)]
    block_to_index = {cls[0]: i for i, (_, cls) in enumerate(basis)}
    delta = {}
    for sym in alphabet.symbols():
        arity = alphabet.arity(sym)
        for combo in itertools.product(range(len(basis)), repeat=arity):
            t = Tree(sym, tuple(basis[i][0] for i in combo))
            cls = congruence.class_of(qt, Monomial(k.one, t))
            if cls is None:
                continue
            block, scal = cls
            j = block_to_index[block]
            _, (_, base_scal) = basis[j]
            w = k.times(scal, k.inv(base_scal))
            key = (tuple(names[i] for i in combo), sym, names[j])
            delta[key] = w
    final: Dict[str, Value] = {}
    for i, (t, _) in enumerate(basis):
        w = automaton.evaluate(a, t)
        if w != k.zero:
            final[names[i]] = w
    return Wta(alphabet, tuple(names), k, delta, final)


def minimize(a: Wta) -> Wta:
    """Minimal bu-det automaton with the same weighted tree language."""
    automaton._require_budet(a)
    s = automaton.slim(a)
    qt = congruence.build_syntactic_quotient(s)
    basis = scalar_basis(s, qt)
    return build_wta_from_basis(s, qt, basis)


def is_minimal(a: Wta) -> bool:
    """True iff the automaton is slim and as small as the scalar basis allows."""
    return minimality(a)[0]


def minimality(a: Wta) -> Tuple[bool, int]:
    """Whether the automaton is minimal, and its degree: the size of the
    scalar basis of the syntactic algebra of its language.

    The degree is read off the slimmed automaton: the basis takes one
    element from each live block, and every live block holds a state, so
    the degree is the number of live blocks.  A slim automaton is minimal
    when it has that many states; the zero language needs one (dead)
    state, hence the max with 1.
    """
    automaton._require_budet(a)
    slim = automaton.is_slim(a)
    s = a if slim else automaton.slim(a)
    deg = len(congruence.build_syntactic_quotient(s).blocks)
    return slim and len(a.states) == max(1, deg), deg


# --- exact equivalence ----------------------------------------------------


def equivalent(a: Wta, b: Wta) -> bool:
    """Exact equality of the two recognized weighted tree languages.

    Both automata must be bu-det, over the same alphabet and semifield.
    Runs a ratio-tracking product fixpoint over reachable state pairs;
    terminates after at most (|Q_A|+1)*(|Q_B|+1) pair discoveries.
    """
    if a.alphabet != b.alphabet:
        raise PreconditionError("automata use different alphabets")
    if a.kind != b.kind:
        raise PreconditionError("automata use different semifields")
    automaton._require_budet(a)
    automaton._require_budet(b)
    a = automaton.slim(a)
    b = automaton.slim(b)
    # the sink (None) is never observed either
    dead_a = automaton.dead_states(a) | {None}
    dead_b = automaton.dead_states(b) | {None}
    k = a.kind
    Pair = Tuple[Optional[str], Optional[str]]
    ratio: Dict[Pair, Value] = {}

    def succ(m: Wta, ws: Tuple[Optional[str], ...], sym: str):
        if any(p is None for p in ws):
            return None
        hits = m.targets(tuple(ws), sym)  # type: ignore[arg-type]
        return hits[0] if hits else None

    def admit(pair: Pair, rho: Value) -> bool:
        """Record a discovered pair; False means the languages differ."""
        p, q = pair
        oa, ob = p not in dead_a, q not in dead_b
        if oa != ob:
            return False
        if not oa:
            # neither side can ever be observed from here
            if pair not in ratio:
                ratio[pair] = None
            return True
        assert rho is not None
        # final maps hold no zero weights
        if (p in a.final) != (q in b.final):
            return False
        if p in a.final and rho != k.times(b.final[q], k.inv(a.final[p])):
            return False
        if pair in ratio:
            return ratio[pair] == rho
        ratio[pair] = rho
        return True

    # seed with nullary symbols, then close under all symbols
    for sym in a.alphabet.nullary_symbols():
        ha, hb = succ(a, (), sym), succ(b, (), sym)
        pair = (ha[0] if ha else None, hb[0] if hb else None)
        if pair == (None, None):
            continue
        rho = None
        if ha is not None and hb is not None:
            rho = k.times(ha[1], k.inv(hb[1]))
        if not admit(pair, rho):
            return False

    while True:
        frontier = list(ratio.items())
        grew = False
        for sym in a.alphabet.symbols():
            arity = a.alphabet.arity(sym)
            if arity == 0:
                continue
            for combo in itertools.product(frontier, repeat=arity):
                pairs = [pr for pr, _ in combo]
                ha = succ(a, tuple(p for p, _ in pairs), sym)
                hb = succ(b, tuple(q for _, q in pairs), sym)
                pair = (ha[0] if ha else None, hb[0] if hb else None)
                if pair == (None, None):
                    continue
                rho: Value = None
                if (
                    ha is not None
                    and hb is not None
                    and all(r is not None for _, r in combo)
                ):
                    rho = k.times(ha[1], k.inv(hb[1]))
                    for _, r in combo:
                        rho = k.times(rho, r)
                known = pair in ratio
                if not admit(pair, rho):
                    return False
                if not known:
                    grew = True
        if not grew:
            return True
