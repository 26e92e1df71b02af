"""Syntactic congruence of the weighted tree language of a bu-det automaton.

Two monomials b1.xi1 and b2.xi2 are congruent when
b1 * r(c[xi1]) = b2 * r(c[xi2]) for every context c, where r is the
recognized weighted language.  For a slim bottom-up deterministic
automaton this relation has a finite presentation: a partition of the
state set into live blocks plus a set of dead states, together with a
scaling witness per state relative to its block representative.

The partition is computed by refinement over abstract elementary
contexts.  An abstract elementary context fixes a symbol, a hole
position and the states of the side subtrees; concrete side subtrees
only contribute a common nonzero factor to both observations being
compared, so they never separate states and are left out.

Because the refinement is the only nontrivial algorithm in the package,
a brute-force check over literally enumerated contexts of bounded height
is provided as an independent oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from . import automaton, terms
from .automaton import DetValue, PreconditionError, Wta
from .scalar import Monomial
from .semifield import Semifield, SemifieldError, Value
from .terms import Tree

# A congruence class of a nonzero monomial: live block index plus nonzero
# scaling factor.  None stands for the class of the zero language.
ClassRep = Optional[Tuple[int, Value]]

# An abstract elementary context: symbol, hole position, side states.
Elementary = Tuple[str, int, Tuple[str, ...]]
# Per live state, the first step of a shortest observation path and the state
# it leads to; None where the final weight is nonzero already.
Steps = Dict[str, Optional[Tuple[Elementary, str]]]


@dataclass
class SyntacticQuotient:
    """Finite presentation of the syntactic congruence of one automaton."""

    wta: Wta
    blocks: Tuple[Tuple[str, ...], ...]  # live states, grouped, declaration order
    dead: FrozenSet[str]
    lam: Dict[str, Value]  # scaling witness relative to the block rep
    rep_tree: Dict[str, Tree]  # one witness tree per state
    block_of: Dict[str, int]


# --- observation helpers --------------------------------------------------


def _read_out(a: Wta, v: DetValue) -> Value:
    """The weight of a run value at the root: its weight times F of its state."""
    k = a.kind
    return k.zero if v is None else k.times(v[1], a.final.get(v[0], k.zero))


def _observation_steps(a: Wta) -> Steps:
    """Shortest abstract step towards a nonzero final weight, per live state.

    Returns, for each state that is not dead, either nothing (final weight
    already nonzero) or one step (symbol, hole position, side states) plus
    the successor state on a shortest observation path.
    """
    steps: Steps = {}
    frontier = list(a.final)
    for q in frontier:
        steps[q] = None
    delta = sorted(a.delta, key=lambda key: (key[1], key[0], key[2]))
    while frontier:
        new_frontier: List[str] = []
        for ws, sym, q in delta:
            if q not in steps:
                continue
            for i, p in enumerate(ws):
                if p in steps:
                    continue
                sides = ws[:i] + ws[i + 1 :]
                steps[p] = ((sym, i, sides), q)
                new_frontier.append(p)
        frontier = new_frontier
    return steps


def _path_observation(a: Wta, steps: Steps, q: str, rep: str) -> Value:
    """Weight of running a unit run at state q along the observation path of
    state rep, side trees left out, then F.

    Each step applies delta with q's current state in the hole and the
    step's side states around it; a missing transition observes zero.
    """
    k = a.kind
    w = k.one
    step = steps[rep]
    while step is not None:
        (sym, i, sides), on_path = step
        hits = a.targets(sides[:i] + (q,) + sides[i:], sym)
        if not hits:
            return k.zero
        q, f = hits[0]
        w = k.times(w, f)
        step = steps[on_path]
    return _read_out(a, (q, w))


def _abstract_elementaries(a: Wta, pool: Sequence[str]) -> List[Elementary]:
    """All (symbol, hole position, side states) triples, deterministic order."""
    out: List[Elementary] = []
    for sym in a.alphabet.symbols():
        k = a.alphabet.arity(sym)
        if k == 0:
            continue
        for i in range(k):
            for sides in itertools.product(pool, repeat=k - 1):
                out.append((sym, i, sides))
    return out


# --- building the quotient ------------------------------------------------


def build_syntactic_quotient(a: Wta) -> SyntacticQuotient:
    """Partition the states of a slim bu-det automaton by proportional
    observation behaviour, with explicit scaling witnesses.

    Each round anchors the states of a block at the observation path of its
    first state, its representative.  The side trees of that path are left
    out: their weights are one nonzero factor shared by every state of the
    block, so it cancels in lam[q] = obs(q) * obs(rep)^-1 and never makes
    an observation zero.
    """
    automaton._require_budet(a)
    if not automaton.is_slim(a):
        raise PreconditionError("the syntactic quotient needs a slim automaton")

    dead = automaton.dead_states(a)
    live = [q for q in a.states if q not in dead]
    rep_tree = automaton.representative_trees(a)
    steps = _observation_steps(a)

    dead_rep = next((q for q in a.states if q in dead), None)
    pool: List[str] = list(live) + ([dead_rep] if dead_rep is not None else [])
    elementaries = _abstract_elementaries(a, pool)

    k = a.kind
    blocks: List[List[str]] = [list(live)] if live else []
    lam: Dict[str, Value] = {}

    # Each round either splits a block or reaches the fixpoint; at most
    # |live| + 1 rounds are needed.
    for _round in range(len(live) + 2):
        # anchor scaling witnesses at the block representative's observation
        # path; states whose observation vanishes there cannot share the
        # block and are split off immediately
        lam = {}
        mismatch: Dict[str, bool] = {}
        for block in blocks:
            rep = block[0]
            base_inv = k.inv(_path_observation(a, steps, rep, rep))
            for q in block:
                o = _path_observation(a, steps, q, rep)
                if o == k.zero:
                    mismatch[q] = True
                else:
                    lam[q] = k.times(o, base_inv)
        if mismatch:
            blocks = _split(blocks, lambda q: ("mismatch",) if q in mismatch else ("ok",))
            continue

        block_of = {q: i for i, block in enumerate(blocks) for q in block}

        def signature(q: str) -> tuple:
            lam_q_inv = k.inv(lam[q])
            entries: List[object] = [k.times(lam_q_inv, a.final.get(q, k.zero))]
            for (sym, i, sides) in elementaries:
                ws = sides[:i] + (q,) + sides[i:]
                hits = a.targets(ws, sym)
                if not hits:
                    entries.append(None)
                    continue
                nxt, f = hits[0]
                if nxt in dead:
                    entries.append(None)
                    continue
                scal = k.times(k.times(lam_q_inv, f), lam[nxt])
                entries.append((block_of[nxt], scal))
            return tuple(entries)

        new_blocks = _split(blocks, signature)
        if new_blocks == blocks:
            break
        blocks = new_blocks
    else:  # pragma: no cover - guarded by the theory (|live|+1 round bound)
        raise AssertionError("refinement failed to stabilize")

    block_of = {q: i for i, block in enumerate(blocks) for q in block}
    return SyntacticQuotient(
        wta=a,
        blocks=tuple(tuple(b) for b in blocks),
        dead=dead,
        lam=lam,
        rep_tree=rep_tree,
        block_of=block_of,
    )


def _split(blocks: List[List[str]], key) -> List[List[str]]:
    out: List[List[str]] = []
    for block in blocks:
        groups: Dict[tuple, List[str]] = {}
        for q in block:  # block order = declaration order, kept stable
            groups.setdefault(key(q), []).append(q)
        out.extend(groups.values())
    return out


# --- congruence classes of monomials --------------------------------------


def class_of(qt: SyntacticQuotient, m: Monomial) -> ClassRep:
    """Congruence class of a monomial; None is the class of the zero language."""
    a = qt.wta
    k = a.kind
    _require_weight(k, m.weight)
    if m.weight == k.zero:
        return None
    v = automaton.h_det(a, m.tree)
    if v is None:
        return None
    q, w = v
    if q in qt.dead:
        return None
    return (qt.block_of[q], k.times(k.times(m.weight, w), qt.lam[q]))


def _require_weight(k: Semifield, w: object) -> None:
    if not k.contains(w):
        raise SemifieldError(f"monomial weight {w!r} is not in the {k} semifield")


def congruent(qt: SyntacticQuotient, m1: Monomial, m2: Monomial) -> bool:
    return class_of(qt, m1) == class_of(qt, m2)


# --- brute-force oracle over literally enumerated contexts ----------------


def context_tables(
    a: Wta, ctx_height: int
) -> Iterator[Tuple[Tree, Tuple[DetValue, ...]]]:
    """Every context of height <= ctx_height, in enumeration order, with its
    table: entry i is the run of the context on a unit value at state i.

    The table of ``z`` is the identity.  Every other context the
    enumeration builds is s(t1, ..., c', ..., tk) around a context c' it
    yielded earlier, and a context decomposes uniquely into elementary
    contexts, so its table is the table of c' followed by one elementary
    step: the side trees are run once, then delta is applied once per
    state.  That is O(|Q| + k) per context.  Only a context below
    ctx_height can be the hole child of a later one, so only those tables
    are kept; the hole child is the very object yielded before, which a
    dict lookup finds by identity, and a side tree never matches a key.
    """
    one = a.kind.one
    below: Dict[Tree, Tuple[DetValue, ...]] = {}
    for c in terms.enumerate_contexts(a.alphabet, ctx_height):
        if c.children:
            table = _step_table(a, c, below)
        else:  # z
            table = tuple((q, one) for q in a.states)
        if terms.height(c) < ctx_height:
            below[c] = table
        yield c, table


def _step_table(
    a: Wta, c: Tree, below: Dict[Tree, Tuple[DetValue, ...]]
) -> Tuple[DetValue, ...]:
    """The table of ``c``: its hole child's table, then c's elementary step."""
    times = a.kind.times
    ws: List[str] = []  # child states; the hole's is filled in per state
    factor = a.kind.one  # the product of the side trees' weights
    for i, kid in enumerate(c.children):
        inner = below.get(kid)
        if inner is not None:
            hole, hole_table = i, inner
            ws.append("")
            continue
        v = automaton.h_det(a, kid)
        if v is None:  # a side tree without a run kills every state
            return (None,) * len(a.states)
        ws.append(v[0])
        factor = times(factor, v[1])
    out: List[DetValue] = []
    for v in hole_table:
        if v is not None:
            ws[hole] = v[0]
            hits = a.targets(tuple(ws), c.symbol)
            if hits:
                q, w = hits[0]
                out.append((q, times(times(v[1], factor), w)))
                continue
        out.append(None)
    return tuple(out)


class BoundedContextOracle:
    """Checks the congruence condition over every context up to a height.

    The oracle ranges over the literal contexts of `terms.enumerate_contexts`
    and shares no reasoning with the refinement: only the run of a context
    is computed incrementally (see `context_tables`), and it equals running
    the literal context's elementary factors one by one, the reference the
    test suite checks the tables against.  Each table gives one observation
    row, the weight of plugging a unit run at each state into the context
    and reading the final weight.  The distinct rows are kept, then folded
    into the distinct observation pairs per ordered state pair, so that a
    membership query costs only a few weight comparisons per pair.
    """

    def __init__(self, a: Wta, ctx_height: int):
        automaton._require_budet(a)
        self.wta = a
        self.ctx_height = ctx_height
        zero = a.kind.zero
        rows = {
            tuple(_read_out(a, v) for v in table)
            for _c, table in context_tables(a, ctx_height)
        }
        states = a.states
        self.col_nonzero: Dict[str, bool] = {
            q: any(row[i] != zero for row in rows) for i, q in enumerate(states)
        }
        self.pair_obs: Dict[Tuple[str, str], Tuple[Tuple[Value, Value], ...]] = {}
        for i, q1 in enumerate(states):
            for j, q2 in enumerate(states):
                self.pair_obs[(q1, q2)] = tuple({(row[i], row[j]) for row in rows})

    def _coefficient(self, m: Monomial) -> Tuple[Optional[str], Value]:
        k = self.wta.kind
        _require_weight(k, m.weight)
        if m.weight == k.zero:
            return (None, None)
        v = automaton.h_det(self.wta, m.tree)
        if v is None:
            return (None, None)
        q, w = v
        return (q, k.times(m.weight, w))

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
        for o1, o2 in self.pair_obs[(q1, q2)]:
            if times(c1, o1) != times(c2, o2):
                return False
        return True


def brute_force_congruent(
    a: Wta, m1: Monomial, m2: Monomial, ctx_height: int
) -> bool:
    """Congruence restricted to contexts of height <= ctx_height.

    Exhaustive over the literal context enumeration; used as an oracle
    against the refinement-based decision procedure.
    """
    return BoundedContextOracle(a, ctx_height).congruent(m1, m2)
