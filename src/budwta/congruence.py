"""Syntactic congruence of the weighted tree language of a bu-det automaton.

Two monomials b1.xi1 and b2.xi2 are congruent when
b1 * r(c[xi1]) = b2 * r(c[xi2]) for every context c, where r is the
recognized weighted language.  For a slim bottom-up deterministic
automaton this relation has a finite presentation: a partition of the
state set into live blocks plus a set of dead states, together with a
scaling witness per state relative to its block representative.

The partition is computed once the weights are normalized, after Mohri
(TCS 2000) and Maletti (Inf. Comput. 2009): each live state is divided by
its observation along its least abstract observation path, so that
proportional states get equal normalized final weights and transitions,
and plain Moore rounds over delta then find the blocks.  An abstract path
is a sequence of elementary steps (symbol, hole position, side states);
concrete side subtrees only contribute a common nonzero factor to the
observations being compared, so they never separate states and are left
out.

Because the refinement is the only nontrivial algorithm in the package,
a brute-force check over literally enumerated contexts of bounded height
is provided as an independent oracle.  It groups the states by their
observation columns up to scale into the same presentation, so both
deciders read a monomial's class with `class_of`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from . import automaton, terms
from .automaton import DetValue, Wta
from .scalar import Monomial
from .semifield import SemifieldError, Value, eq, parts
from .terms import RankedAlphabet, Tree, _remember

# A congruence class of a nonzero monomial: live block index plus nonzero
# scaling factor.  None stands for the class of the zero language.
ClassRep = Optional[Tuple[int, Value]]

# The most table cells a `BoundedContextOracle` builds: each context is a
# table of one run per state, so contexts times states.  56 321 contexts
# (f/10 at depth 2, one state) take about 0.7-1 s to build in process and
# 1.3 s end to end through the CLI, on a 2-vCPU VM.
ORACLE_CELLS = 100_000


class OracleCapError(ValueError):
    """A bounded-context oracle over `ORACLE_CELLS` table cells, refused
    before any context is built."""


@dataclass
class SyntacticQuotient:
    """Finite presentation of the syntactic congruence of one automaton.

    ``_classes`` is `congruent`'s memo of monomial classes, capped at
    `terms.MEMO_CAP`, as on a `BoundedContextOracle`, which has the same
    fields `class_of` reads."""

    wta: Wta
    # live states, grouped; blocks ordered by the declaration rank of their
    # first state, states in declaration order within a block
    blocks: Tuple[Tuple[str, ...], ...]
    dead: FrozenSet[str]
    lam: Dict[str, Value]  # scaling witness relative to the block rep
    rep_tree: Dict[str, Tree]  # one witness tree per state
    block_of: Dict[str, int]
    _classes: Dict[int, tuple] = field(default_factory=dict, repr=False, compare=False)


# --- building the quotient ------------------------------------------------


def _normalizers(a: Wta) -> Dict[str, Value]:
    """mu(q) for every live state q: the observation of a unit run at q
    along q's least abstract observation path, side trees left out.

    Reads the backward derivation, `automaton._least_steps`: in its
    layer order a state's least step leads to a state whose mu is known,
    so mu(p) = delta weight * mu(target), one multiplication per state, and
    mu(q) = F(q) at a final state.
    """
    mu: Dict[str, Value] = {}
    for p, step in automaton._derivation(a, automaton._least_steps).items():
        mu[p] = a.final[p] if step is None else a.kind.times(step[1], mu[step[0]])
    return mu


def build_syntactic_quotient(a: Wta) -> SyntacticQuotient:
    """Partition the states of a slim bu-det automaton by proportional
    observation behaviour, with explicit scaling witnesses.

    Normalize once, then refine over delta.  A move of live state q is a
    transition into a live target t with q in the hole: its step (symbol,
    hole position, side states), t, and w * mu(t) * mu(q)^-1.  From one
    block of all live states, each Moore round splits every block by
    F(q) * mu(q)^-1 and the set of (step, block of t, normalized weight)
    of q's moves, until a round splits nothing; a round that goes on adds
    a block, so at most |live| rounds go on.  Each normalized final weight,
    and each step with its normalized weight, is coded once, by the weight's
    integer parts, into a small int that the rounds compare instead: no
    `Fraction` is hashed.  w * mu(t) is taken once per entry.
    lam[q] = mu(q) * mu(rep)^-1.

    Sound: states p, q proportional with ratio lam have the same nonzero
    abstract paths, as a side state stands for its witness tree, whose
    weight is nonzero; so they share their least path and
    mu(p) = lam * mu(q), hence equal keys at every round, by induction.
    Complete: for any nonzero mu, p and q in one final block have
    obs(p, c) * mu(p)^-1 = obs(q, c) * mu(q)^-1 for every context c, by
    induction on the height of c.  Dead states: a transition into a live
    state has only live children, as the live states are those the
    backward derivation finds, so no move needs a dead side state.

    Reads each derivation over delta kept on ``a``: the backward one,
    `automaton._least_steps`, for the dead states and mu; the forward one,
    `automaton._least_keys`, for the witness trees; and the inverse,
    `automaton._inverse`, whose entries into each live target give the
    moves, so no dead target is looked at.  A non-slim automaton is
    refused by `automaton.representative_trees` with
    `automaton.PreconditionError`, before any refinement.
    """
    automaton._require_budet(a)
    dead = automaton.dead_states(a)
    live = [q for q in a.states if q not in dead]
    rep_tree = automaton.representative_trees(a)

    k = a.kind
    mu = _normalizers(a)
    mu_inv = {q: k.inv(mu[q]) for q in live}
    codes: Dict[tuple, int] = {}  # parts of a weight, or step and parts -> small int
    final = {
        q: codes.setdefault(parts(k.times(a.final.get(q, k.zero), mu_inv[q])), len(codes))
        for q in live
    }
    into = automaton._derivation(a, automaton._inverse)[1]
    moves: Dict[str, List[Tuple[int, str]]] = {q: [] for q in live}
    for t in live:
        for (ws, sym, _), w in into[t]:
            scaled = k.times(w, mu[t])
            for i, p in enumerate(ws):
                move = (sym, i, ws[:i] + ws[i + 1 :], *parts(k.times(scaled, mu_inv[p])))
                moves[p].append((codes.setdefault(move, len(codes)), t))

    # grouping in declaration order keeps blocks ordered by their first state
    blocks: List[List[str]] = [live] if live else []
    while True:
        block_of = {q: i for i, block in enumerate(blocks) for q in block}
        groups: Dict[tuple, List[str]] = {}
        for q in live:
            moved = frozenset((m, block_of[t]) for m, t in moves[q])
            groups.setdefault((block_of[q], final[q], moved), []).append(q)
        if len(groups) == len(blocks):
            break
        blocks = list(groups.values())

    return SyntacticQuotient(
        wta=a,
        blocks=tuple(tuple(b) for b in blocks),
        dead=dead,
        lam={q: k.times(mu[q], mu_inv[b[0]]) for b in blocks for q in b},
        rep_tree=rep_tree,
        block_of=block_of,
    )


# --- congruence classes of monomials --------------------------------------


def _monomial_run(a: Wta, m: Monomial) -> DetValue:
    """The run of ``m.tree``, not scaled by ``m.weight``; None for a zero
    weight, whose tree is not looked at.  The weight is checked to be in the
    semifield first; `automaton.h_det` refuses an automaton not bu-det."""
    k = a.kind
    if not k.contains(m.weight):
        raise SemifieldError(f"monomial weight {m.weight!r} is not in the {k} semifield")
    if eq(m.weight, k.zero):
        return None
    return automaton.h_det(a, m.tree)


def class_of(qt: SyntacticQuotient | BoundedContextOracle, m: Monomial) -> ClassRep:
    """Congruence class of a monomial; None is the class of the zero language.

    This is the canonical form: a nonzero class is a scalar multiple of one
    live block's representative, so two monomials are congruent exactly
    when their classes are equal.  Its factor is the weight, the run weight
    and lam, as one product.  It reads ``wta``, ``dead``, ``block_of`` and
    ``lam``, which a quotient and a bounded-context oracle both have.  Each
    call runs the monomial; `congruent` keeps the result."""
    v = _monomial_run(qt.wta, m)
    if v is None or v[0] in qt.dead:
        return None
    q, x = v
    return (qt.block_of[q], qt.wta.kind.product((m.weight, x, qt.lam[q])))


def congruent(qt: SyntacticQuotient | BoundedContextOracle, m1: Monomial, m2: Monomial) -> bool:
    """Whether the classes of the two monomials are equal.

    Each class is taken by `class_of` once per monomial object and kept in
    ``qt._classes`` as the key that equal classes share: None for the zero
    class, else the block and the factor's integer parts.  A query asked
    again is two lookups and one compare.  The memo is keyed by ``id(m)``
    and each entry holds ``m``, so no other object has its id while the
    entry lives, and no `Fraction` is hashed; `terms._remember` keeps at
    most `terms.MEMO_CAP` entries, the oldest dropped first.  A monomial
    whose run raises is not kept, and raises again when asked again."""
    memo = qt._classes
    c1 = memo.get(id(m1)) or _class_entry(qt, m1)
    c2 = memo.get(id(m2)) or _class_entry(qt, m2)
    return c1[1] == c2[1]


def _class_entry(qt: SyntacticQuotient | BoundedContextOracle, m: Monomial) -> tuple:
    c = class_of(qt, m)  # the zero class equals only itself
    return _remember(qt._classes, id(m), (m, None if c is None else (c[0], *parts(c[1]))))


# --- brute-force oracle over literally enumerated contexts ----------------


def context_tables(
    a: Wta, ctx_height: int, alphabet: RankedAlphabet
) -> Iterator[Tuple[Tree, Tuple[DetValue, ...]]]:
    """Every context over ``alphabet`` of height <= ctx_height, in
    enumeration order, with its table: entry i is the run of the context on
    a unit value at state i.  Below height 0 there is none.  Each symbol of
    ``alphabet`` must be one of ``a``'s, with the same arity: ``a.alphabet``
    gives every context, and `BoundedContextOracle` passes the symbols it
    enumerates.

    The table of ``z`` is the identity.  Every other context the
    enumeration builds is s(t1, ..., c', ..., tk) around a context c' it
    yielded earlier, and a context decomposes uniquely into elementary
    contexts, so its table is the table of c' followed by one elementary
    step: the side trees' weights are multiplied together, then delta is
    applied once per state.  That is O(|Q| + k) per context.  When a side
    tree has no run, the table is all None, built with no step per state.

    The enumeration shares its side tree objects between contexts, and
    `automaton.h_det` runs each distinct one once per call.  Only a
    context below ctx_height can be the hole child of a later one, and the
    enumeration is height-first, so `terms.context_counts`, walked in step
    with it, tells the height of each context, and a table is kept while
    that height is below ctx_height; the hole child is the very object
    yielded before.  Both maps are keyed by ``id`` and each entry holds
    its tree, so no other object has that id while the entry lives, and
    no tree is hashed; a side tree is never a kept context.
    """
    counts = terms.context_counts(alphabet)
    end, h = 0, -1  # the contexts before place ``end`` have height <= h
    kept: Dict[int, Tuple[Tree, Tuple[DetValue, ...]]] = {}  # id(context) -> (it, table)
    runs: Dict[int, Tuple[Tree, DetValue]] = {}  # id(side tree) -> (it, run)
    for i, c in enumerate(terms.enumerate_contexts(alphabet, ctx_height)):
        if c.children:
            table = _step_table(a, c, kept, runs)
        else:  # z
            table = tuple((q, a.kind.one) for q in a.states)
        if i == end:  # every height up to ctx_height has a context, or z is the only one
            end, h = next(counts), h + 1
        if h < ctx_height:
            kept[id(c)] = (c, table)
        yield c, table


def _step_table(
    a: Wta,
    c: Tree,
    kept: Dict[int, Tuple[Tree, Tuple[DetValue, ...]]],
    runs: Dict[int, Tuple[Tree, DetValue]],
) -> Tuple[DetValue, ...]:
    """The table of ``c``: its hole child's table, then c's elementary step."""
    ws: List[str] = []  # child states; the hole's is filled in per state
    side: List[Value] = []  # the side trees' weights
    for i, kid in enumerate(c.children):
        entry = kept.get(id(kid))
        if entry is not None:
            hole, hole_table = i, entry[1]
            ws.append("")
            continue
        entry = runs.get(id(kid))
        if entry is None:
            entry = runs[id(kid)] = (kid, automaton.h_det(a, kid))
        v = entry[1]
        if v is None:  # a side tree without a run kills every state
            return (None,) * len(a.states)
        ws.append(v[0])
        side.append(v[1])
    times = a.kind.times
    steps = a._succ[c.symbol]
    factor = reduce(times, side) if side else None  # None: no side tree, nothing to multiply
    out: List[DetValue] = []
    for v in hole_table:
        if v is not None:
            ws[hole] = v[0]
            step = steps.get(tuple(ws))
            if step:
                x = v[1] if factor is None else times(v[1], factor)
                out.append((step[0], times(x, step[1])))
                continue
        out.append(None)
    return tuple(out)


def _enumerated_symbols(a: Wta) -> List[Tuple[str, int]]:
    """The symbols `BoundedContextOracle` enumerates contexts over, with
    their arities: those that label a transition, in declaration order, and
    the first nullary symbol if none of those is nullary."""
    labels = {sym for _ws, sym, _q in a.delta}
    leaves = a.alphabet.nullary_symbols()
    if labels.isdisjoint(leaves):
        labels.add(leaves[0])
    return [(s, k) for s, k in a.alphabet._arity.items() if s in labels]


class BoundedContextOracle:
    """Checks the congruence condition over every context up to a height.

    The oracle ranges over the literal contexts of `terms.enumerate_contexts`
    and shares no reasoning with the refinement: only the run of a context
    is computed incrementally (see `context_tables`), and it equals running
    the literal context's elementary factors one by one, the reference the
    test suite checks the tables against.  Each table gives one observation
    row, the weight of plugging a unit run at each state into the context
    and reading the final weight, each value coded by its integer parts.

    The contexts range over the symbols that label a transition, and the
    first nullary symbol if none of those is nullary: one alphabet of them
    is built, and both the counts and the enumeration read it.  Any other
    context has no run: its all-zero row would separate no states.  The
    contexts run on the automaton itself, which is not copied.  A height
    below 0 raises ValueError.  Before any context is built, the contexts
    are counted: over `ORACLE_CELLS` table cells, contexts times states,
    the oracle raises `OracleCapError`.  The counts stop only when ``z`` is
    the only context, so the height is cut to the last count.

    The distinct rows give each state its observation column, read as a
    quotient's fields: an all-zero column puts q in ``dead``; any other
    gives ``lam[q]``, its first nonzero entry, and ``block_of[q]``, the
    block of the column divided by ``lam[q]``.  Monomials b1.xi1 and b2.xi2
    reaching q1 and q2 with weights x1 and x2 agree on every context exactly
    when b1 * x1 * col(q1) = b2 * x2 * col(q2): in a semifield, both are
    zero, or q1 and q2 share a block and b1 * x1 * lam[q1] =
    b2 * x2 * lam[q2].  That is `class_of`, so `congruent` is
    `congruence.congruent`, with its ``_classes`` memo.
    """

    def __init__(self, a: Wta, ctx_height: int):
        if ctx_height < 0:
            raise ValueError(f"oracle height must be >= 0, got {ctx_height}")
        automaton._require_budet(a)
        n = len(a.states)
        sigma = RankedAlphabet(_enumerated_symbols(a))
        for h, count in enumerate(terms.context_counts(sigma)):
            if count * n > ORACLE_CELLS:
                raise OracleCapError(
                    f"over the oracle's cap of {ORACLE_CELLS} table cells: "
                    f"{count} contexts of height <= {h} times {n} states"
                )
            if h == ctx_height:
                break
        self.wta = a
        k = a.kind
        # each row coded in one pass: a cell without a run or at a state with
        # no final weight is 0; any other value is coded by its parts.  The
        # final weights are copied out of their mapping proxy, whose get
        # costs more than a dict's.
        times, final = k.times, dict(a.final)
        codes: Dict[tuple, int] = {parts(k.zero): 0}  # parts of a value -> its code
        values: List[Value] = [k.zero]  # code -> value
        rows: Dict[Tuple[int, ...], None] = {}  # the distinct rows, in order
        for _c, table in context_tables(a, h, sigma):  # h < ctx_height if the counts stopped
            row = []
            for v in table:
                f = None if v is None else final.get(v[0])
                if f is None:
                    row.append(0)
                    continue
                x = times(v[1], f)
                code = codes.get(parts(x))
                if code is None:
                    code = codes[parts(x)] = len(values)
                    values.append(x)
                row.append(code)
            rows[tuple(row)] = None
        dead = set()
        self.lam: Dict[str, Value] = {}
        self.block_of: Dict[str, int] = {}
        blocks: Dict[tuple, int] = {}  # a column divided by its lam -> block
        for q, col in zip(a.states, zip(*rows)):
            first = next((o for o in col if o), 0)
            if not first:
                dead.add(q)
                continue
            lam = self.lam[q] = values[first]
            inv = k.inv(lam)
            scaled = {o: parts(k.times(values[o], inv)) for o in set(col)}
            self.block_of[q] = blocks.setdefault(tuple(map(scaled.__getitem__, col)), len(blocks))
        self.dead = frozenset(dead)
        self._classes: Dict[int, tuple] = {}

    def congruent(self, m1: Monomial, m2: Monomial) -> bool:
        return congruent(self, m1, m2)


def brute_force_congruent(
    a: Wta, m1: Monomial, m2: Monomial, ctx_height: int
) -> bool:
    """Congruence restricted to contexts of height <= ctx_height.

    Exhaustive over the literal context enumeration; used as an oracle
    against the refinement-based decision procedure.  A height below 0
    raises ValueError, and over `ORACLE_CELLS` table cells it raises
    `OracleCapError`, both before any context is built.
    """
    return BoundedContextOracle(a, ctx_height).congruent(m1, m2)
