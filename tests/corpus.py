"""Tree enumeration, context algebra, reference oracles, and random
automata and monomials for the test suite.

`enumerate_trees` lists every tree, height by height; it is the reference
that `automaton.representative_trees` is checked against.
`reference_enumerate_contexts` is the enumeration `terms.enumerate_contexts`
replaced: each height filters every child tuple of what was seen so far.
`postorder` lists a tree's distinct nodes, children first, the order
`terms.validate_tree` checks them in; `substitute`, `decompose_elementary`,
`count_symbol` and `parse_context` work on contexts as literal trees; `equal_alphabet` gives a second parse
of a text as another object.  `context_transform` runs a context by
splitting it into its elementary factors and running each side tree, and
`observe` reads the result out; `ObserveOracle` is the bounded-context
oracle that observes every context on every state that way.  They are the
reference that `congruence.context_tables` and
`congruence.BoundedContextOracle` are checked against.
`observation_pairs` reads the distinct observation pairs of every state
pair from `congruence.context_tables` over the whole alphabet, and
`folded_congruent` decides a monomial pair from them, one product per side
per pair; `reference_congruent` compares two `congruence.class_of`
results.  They are the two deciders without their monomial memos.
`reference_quotient` is the refinement `congruence.build_syntactic_quotient`
replaced: each round re-anchors every state on its block representative's
observation path and compares signatures over all abstract elementary
contexts.  It is the differential reference for the normalized refinement.
`reference_equivalent` is the round-based product fixpoint that
`minimize.equivalent` replaced, sink and dead pairs included; it is the
differential reference for the semi-naive pass.
`reference_build` is the builder `minimize.build_wta_from_basis`
replaced: it runs sym(basis trees) through `congruence.class_of` for every
tuple of basis trees.  It is the differential reference for the pass over
delta.
`reference_is_total` is the check `automaton.is_total` replaced: it looks
up every state tuple of every symbol.
`reference_run` is the weighted run `automaton._run` replaced: each
distinct node multiplies its step weight by its children's weights, with
no memo.  It is the differential reference for the fold per distinct
weight.
`reference_h_general` is the sum-product semantics `automaton.h_general`
replaced: each node sweeps all |Q|^k state tuples and looks up the targets
of each.  It is the differential reference for the walk over delta entries.
The references look targets up with `targets`, an index of their own over
``a.delta``, never with the automaton's step map ``Wta._succ``.
`reference_state_name` is the basis-state name `minimize._state_names`
replaced: it reads the tree's text character by character, through the
nested generators of `tree_text`, and stops past the cap.
`candidate_set` is one unit monomial class per state, deduplicated: the
generating set that `minimize.scalar_basis` picks a basis from.
`reference_parse_wta` is the `.wta` reader `automaton.parse_wta` replaced,
with lines split by universal newlines: every line goes through
`str.split`/`str.strip`, a trans line through `_reference_parse_trans`,
and each state name is checked at its first use.  It is the differential
reference for `automaton.parse_wta`'s one pass: the trans and final lines
in `format_wta`'s spelling read by two splits, every other line read with
string methods at its true line number, one build, and the ordered pass
that words the first error of a text the build refuses.
`reference_inverse` is the numbered inverse view of delta that
`automaton._inverse` builds, read off ``a.delta`` by sorting its
(state, entry index, position) triples.
`reference_parse_tree` is the tree reader `terms.parse_tree` replaced: one
pass over the `terms._TOKEN_RE` tokens of the text, with no memo.  It is
the differential reference for the tokens split on whitespace.

Automata from `random_slim_budet` are slim and bu-deterministic by
construction: a spanning set of transitions realizes every state, and
transitions are keyed uniquely per (state tuple, symbol).  Automata with
three or more states use unary-spine alphabets so that literal context
enumeration at height 2*|Q| stays small; binary-symbol automata are capped
at two states.  `layered` and `chain` build minimal automata whose states
need high trees.  `split_states` gives an automaton proportional copies
of its states; `rescale_pad_shuffle` rescales every state, adds an
unreachable and a dead state, and shuffles delta, keeping the language.
`scaling_isomorphism` checks that two automata are one up to renaming
and rescaling states, as two minimal automata of one language are.
`sparse_binary` gives large slim automata with |delta| = 3n, on which a
builder that loops over basis tuples is quadratic.
"""

from __future__ import annotations

import io
import itertools
import operator
import random
import weakref
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from budwta import automaton, congruence, semifield as sf, terms
from budwta.automaton import DetValue, TransKey, Wta, WtaError
from budwta.congruence import ClassRep, SyntacticQuotient
from budwta.minimize import NAME_TEXT_CAP
from budwta.scalar import Monomial
from budwta.semifield import Semifield, Value
from budwta.terms import RankedAlphabet, TermError, Tree, Z, Z_NAME


def enumerate_trees(
    alphabet: RankedAlphabet, max_height: Optional[int] = None
) -> Iterator[Tree]:
    """All trees in height-then-declaration-lexicographic order.

    With ``max_height=None`` the generator is unbounded.
    """
    seen: List[Tree] = []  # cumulative, in enumeration order
    fresh = 0  # where height h - 1 starts in seen
    h = 0
    while max_height is None or h <= max_height:
        level = list(terms._trees_of_exact_height(alphabet, h, seen, fresh))
        if not level:
            return
        yield from level
        fresh = len(seen)
        seen.extend(level)
        h += 1


def reference_trees_of_exact_height(
    alphabet: RankedAlphabet, h: int, lower: List[Tree]
) -> Iterator[Tree]:
    """`terms._trees_of_exact_height` as a filter: every child tuple over
    ``lower``, kept when its highest child has height h - 1."""
    if h == 0:
        for s in alphabet.nullary_symbols():
            yield Tree(s)
        return
    for s in alphabet.symbols():
        k = alphabet.arity(s)
        if k == 0:
            continue
        for kids in itertools.product(lower, repeat=k):
            if max(terms.height(c) for c in kids) == h - 1:
                yield Tree(s, kids)


def reference_enumerate_contexts(alphabet: RankedAlphabet, max_height: int) -> Iterator[Tree]:
    """`terms.enumerate_contexts` as a filter: each height runs over every
    child tuple of the contexts and trees seen so far and keeps those with
    a child of the height below, quadratic in the height over a unary
    alphabet."""
    trees_seen: List[Tree] = []
    ctx_seen: List[Tree] = [Z]
    yield Z
    for h in range(1, max_height + 1):
        trees_seen += list(reference_trees_of_exact_height(alphabet, h - 1, trees_seen))
        level: List[Tree] = []
        for s in alphabet.symbols():
            k = alphabet.arity(s)
            if k == 0:
                continue
            for hole in range(k):
                slots = [ctx_seen if i == hole else trees_seen for i in range(k)]
                for kids in itertools.product(*slots):
                    if max(terms.height(c) for c in kids) == h - 1:
                        level.append(Tree(s, tuple(kids)))
        yield from level
        ctx_seen.extend(level)


# --- delta as the references read it --------------------------------------

_TARGETS: "weakref.WeakKeyDictionary[Wta, Dict]" = weakref.WeakKeyDictionary()


def targets(a: Wta, ws: Tuple[str, ...], sym: str) -> List[Tuple[str, Value]]:
    """The (target, weight) of each delta entry on ``(ws, sym)``, in delta
    order, from an index over ``a.delta`` built once per automaton."""
    index = _TARGETS.get(a)
    if index is None:
        index = _TARGETS[a] = {}
        for (key_ws, key_sym, q), w in a.delta.items():
            index.setdefault((key_ws, key_sym), []).append((q, w))
    return index.get((ws, sym), [])


# --- contexts as literal trees -------------------------------------------


def postorder(t: Tree) -> List[Tree]:
    """Each distinct node object of ``t`` once, children before parents:
    the order `terms.validate_tree` returns its nodes in."""
    order: List[Tree] = []
    seen: Set[int] = set()
    stack: List[object] = [t]  # a node to visit, or (node,) once its children are done
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            order.append(node[0])  # type: ignore[index]
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node,))
            stack.extend(node.children)  # type: ignore[attr-defined]
    return order


def count_symbol(t: Tree, name: str) -> int:
    counts: Dict[int, int] = {}  # id(node) -> occurrences below it
    for node in postorder(t):
        n = node.symbol == name
        for c in node.children:
            n += counts[id(c)]
        counts[id(node)] = n
    return counts[id(t)]


def equal_alphabet(alphabet: RankedAlphabet) -> RankedAlphabet:
    """A separate alphabet equal to ``alphabet``.  `terms.parse_tree`
    memoises per alphabet object, so a text parsed against it gives a tree
    equal to, but not the same object as, a parse against ``alphabet``."""
    return RankedAlphabet([(s, alphabet.arity(s)) for s in alphabet.symbols()])


def parse_context(text: str, alphabet: RankedAlphabet) -> Tree:
    """Read a context: ``z`` is read as one more nullary symbol, over a
    copy of ``alphabet``, and its leaf is then replaced by `terms.Z`."""
    with_z = equal_alphabet(alphabet)
    with_z._arity[Z_NAME] = 0  # RankedAlphabet refuses the reserved name
    c = terms.parse_tree(text, with_z)
    n = count_symbol(c, Z_NAME)
    if n != 1:
        raise TermError(f"a context needs exactly one {Z_NAME!r}, found {n}")
    return substitute(c, Z)


def substitute(c: Tree, t: Tree) -> Tree:
    """Plug ``t`` into the ``z`` leaf of context ``c``.

    Subtrees of ``c`` without ``z`` are shared with the result.
    """
    new: Dict[int, Tree] = {}
    for node in postorder(c):
        if node.symbol == Z_NAME:
            new[id(node)] = t
            continue
        kids = tuple(new[id(k)] for k in node.children)
        same = all(map(operator.is_, kids, node.children))
        new[id(node)] = node if same else Tree(node.symbol, kids)
    return new[id(c)]


def decompose_elementary(c: Tree) -> List[Tree]:
    """Split a context into elementary factors, outermost first.

    An elementary context has ``z`` as a direct child of its root.  The
    returned list e1..en satisfies c = e1[e2[...en[z]...]]; it is empty
    exactly when c = z.
    """
    if count_symbol(c, Z_NAME) != 1:
        raise TermError("not a context")
    # one depth-first walk to the hole, noting where each node hangs; the
    # nodes on the hole's path occur once in c, so their entry is exact
    parent: Dict[int, Tuple[Tree, int]] = {}
    stack = [c]
    while True:
        node = stack.pop()
        if node.symbol == Z_NAME:
            break
        for i, child in enumerate(node.children):
            if id(child) not in parent:
                parent[id(child)] = (node, i)
                stack.append(child)
    factors: List[Tree] = []
    while node is not c:
        up, hole = parent[id(node)]
        kids = up.children
        factors.append(Tree(up.symbol, kids[:hole] + (Z,) + kids[hole + 1 :]))
        node = up
    factors.reverse()
    return factors


def context_transform(a: Wta, c: Tree, v: DetValue) -> DetValue:
    """Run a context on top of a deterministic value, innermost factor
    first: each side tree is run, then delta is applied once."""
    automaton._require_budet(a)
    terms.validate_tree(substitute(c, Tree(a.alphabet.nullary_symbols()[0])), a.alphabet)
    times = a.kind.times
    for e in reversed(decompose_elementary(c)):
        if v is None:
            return None
        ws: List[str] = []
        factor = v[1]
        for child in e.children:
            if child.symbol == Z_NAME:
                ws.append(v[0])
                continue
            hv = automaton.h_det(a, child)
            if hv is None:
                return None
            ws.append(hv[0])
            factor = times(factor, hv[1])
        hits = targets(a, tuple(ws), e.symbol)
        if not hits:
            return None
        q, w = hits[0]
        v = (q, times(factor, w))
    return v


def observe(a: Wta, q: str, c: Tree) -> Value:
    """Weight of plugging a unit run at state q into context c, then F."""
    return automaton._read_out(a, context_transform(a, c, (q, a.kind.one)))


class ObserveOracle:
    """`congruence.BoundedContextOracle` as it was before context tables:
    one `observe` call, and so one full run of the context, per context
    and state."""

    def __init__(self, a: Wta, ctx_height: int):
        self.wta = a
        contexts = list(terms.enumerate_contexts(a.alphabet, ctx_height))
        rows = [{q: observe(a, q, c) for q in a.states} for c in contexts]
        self.col_nonzero: Dict[str, bool] = {
            q: any(row[q] != a.kind.zero for row in rows) for q in a.states
        }
        self.pair_obs: Dict[Tuple[str, str], Set[Tuple[Value, Value]]] = {
            (q1, q2): {(row[q1], row[q2]) for row in rows}
            for q1 in a.states
            for q2 in a.states
        }

    def _coefficient(self, m: Monomial) -> Tuple[Optional[str], Value]:
        k = self.wta.kind
        if m.weight == k.zero:
            return (None, None)
        v = automaton.h_det(self.wta, m.tree)
        if v is None:
            return (None, None)
        return (v[0], k.times(m.weight, v[1]))

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
        return all(times(c1, o1) == times(c2, o2) for o1, o2 in self.pair_obs[(q1, q2)])


def observation_pairs(a: Wta, ctx_height: int) -> Dict[Tuple[str, str], Set[Tuple[Value, Value]]]:
    """For every state pair (q1, q2): the distinct (observation at q1,
    observation at q2) over the contexts of height <= ctx_height, read from
    `congruence.context_tables` over the whole alphabet."""
    rows = {
        tuple(automaton._read_out(a, v) for v in table)
        for _c, table in congruence.context_tables(a, ctx_height, a.alphabet)
    }
    return {
        (q1, q2): {(row[i], row[j]) for row in rows}
        for i, q1 in enumerate(a.states)
        for j, q2 in enumerate(a.states)
    }


def folded_congruent(
    a: Wta, pairs: Dict[Tuple[str, str], Set[Tuple[Value, Value]]], m1: Monomial, m2: Monomial
) -> bool:
    """The bounded-context congruence without a memo or a partition: both
    monomials run, then one product per side per observation pair of their
    two states, ``pairs`` being `observation_pairs`."""
    v1 = congruence._monomial_run(a, m1)
    v2 = congruence._monomial_run(a, m2)
    if v1 is None or v2 is None:
        v = v1 or v2
        return v is None or all(sf.eq(o, a.kind.zero) for o, _ in pairs[(v[0], v[0])])
    (q1, x1), (q2, x2) = v1, v2
    product = a.kind.product
    return all(
        sf.eq(product((m1.weight, x1, o1)), product((m2.weight, x2, o2)))
        for o1, o2 in pairs[(q1, q2)]
    )


def reference_congruent(qt: SyntacticQuotient, m1: Monomial, m2: Monomial) -> bool:
    """`congruence.congruent` without its class memo: both classes from
    `congruence.class_of`, compared."""
    c1, c2 = congruence.class_of(qt, m1), congruence.class_of(qt, m2)
    if c1 is None or c2 is None:  # the zero class equals only itself
        return c1 is c2
    return c1[0] == c2[0] and sf.eq(c1[1], c2[1])


# --- the re-anchored refinement, kept as reference -----------------------

# An abstract elementary context: symbol, hole position, side states.
Elementary = Tuple[str, int, Tuple[str, ...]]
# Per live state, the first step of a shortest observation path and the state
# it leads to; None where the final weight is nonzero already.
Steps = Dict[str, Optional[Tuple[Elementary, str]]]


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
        hits = targets(a, sides[:i] + (q,) + sides[i:], sym)
        if not hits:
            return k.zero
        q, f = hits[0]
        w = k.times(w, f)
        step = steps[on_path]
    return automaton._read_out(a, (q, w))


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


def _split(blocks: List[List[str]], key) -> List[List[str]]:
    out: List[List[str]] = []
    for block in blocks:
        groups: Dict[tuple, List[str]] = {}
        for q in block:
            groups.setdefault(key(q), []).append(q)
        out.extend(groups.values())
    return out


def reference_quotient(a: Wta) -> SyntacticQuotient:
    """The syntactic quotient by re-anchored refinement.

    Each round anchors the states of a block at the observation path of its
    first state; states whose observation vanishes there are split off at
    once, and the others are split by their signatures over every abstract
    elementary context whose side states are drawn from the live states
    plus one dead state.  Blocks come in the order the splits leave them.
    """
    dead = automaton.dead_states(a)
    live = [q for q in a.states if q not in dead]
    steps = _observation_steps(a)

    dead_rep = next((q for q in a.states if q in dead), None)
    pool: List[str] = list(live) + ([dead_rep] if dead_rep is not None else [])
    elementaries = _abstract_elementaries(a, pool)

    k = a.kind
    blocks: List[List[str]] = [list(live)] if live else []
    lam: Dict[str, Value] = {}

    for _round in range(len(live) + 2):
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
            blocks = _split(blocks, lambda q: q in mismatch)
            continue

        block_of = {q: i for i, block in enumerate(blocks) for q in block}

        def signature(q: str) -> tuple:
            lam_q_inv = k.inv(lam[q])
            entries: List[object] = [k.times(lam_q_inv, a.final.get(q, k.zero))]
            for (sym, i, sides) in elementaries:
                hits = targets(a, sides[:i] + (q,) + sides[i:], sym)
                if not hits or hits[0][0] in dead:
                    entries.append(None)
                    continue
                nxt, f = hits[0]
                entries.append((block_of[nxt], k.times(k.times(lam_q_inv, f), lam[nxt])))
            return tuple(entries)

        new_blocks = _split(blocks, signature)
        if new_blocks == blocks:
            break
        blocks = new_blocks
    else:
        raise AssertionError("refinement failed to stabilize")

    return SyntacticQuotient(
        wta=a,
        blocks=tuple(tuple(b) for b in blocks),
        dead=dead,
        lam=lam,
        rep_tree=automaton.representative_trees(a),
        block_of={q: i for i, block in enumerate(blocks) for q in block},
    )


# --- the round-based equivalence, kept as reference ----------------------


def reference_equivalent(a: Wta, b: Wta) -> bool:
    """Exact equivalence by a round-based product fixpoint.

    Each round re-enumerates every tuple of the pairs found so far, dead
    pairs and pairs with the sink (None) included; the ratio of a pair is
    None where a dead state or the sink takes part.
    """
    if a.alphabet != b.alphabet:
        raise automaton.PreconditionError("automata use different alphabets")
    if a.kind != b.kind:
        raise automaton.PreconditionError("automata use different semifields")
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
        hits = targets(m, tuple(ws), sym)  # type: ignore[arg-type]
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


# --- the basis-tuple builder, kept as reference ---------------------------


def candidate_set(a: Wta, qt: SyntacticQuotient) -> List[Tuple[Tree, ClassRep]]:
    """One unit monomial class per state, deduplicated keep-first.

    Classes equal to the zero class (dead states) are dropped; they add
    nothing to the generated algebra.
    """
    out: List[Tuple[Tree, ClassRep]] = []
    seen: List[ClassRep] = []
    for q in a.states:
        t = qt.rep_tree[q]
        cls = congruence.class_of(qt, Monomial(a.kind.one, t))
        if cls is None or any(c[0] == cls[0] and sf.eq(c[1], cls[1]) for c in seen):
            continue
        seen.append(cls)
        out.append((t, cls))
    return out


def tree_text(t: Tree) -> Iterator[str]:
    """The text of ``terms.format_tree(t)``, piece by piece, left to right:
    a reader that needs only a prefix stops early."""
    stack: List[object] = [t]  # trees still to write, and the text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        yield item.symbol
        kids = item.children
        if kids:
            yield "("
            stack.append(")")
            for i in range(len(kids) - 1, 0, -1):
                stack.append(kids[i])
                stack.append(",")
            stack.append(kids[0])


def reference_state_name(alphabet: RankedAlphabet, index: int, t: Tree) -> str:
    """``c{index}__`` and the tree's text with each run of ``(``, ``)``,
    ``,`` and ``_`` written as one ``_``, none at either end, cut after
    NAME_TEXT_CAP characters, with ``_`` appended while the name is a
    symbol of the alphabet.

    The text is read piece by piece and no further than the cap: a shared
    tree of height n can have 2^(n+1) - 1 nodes.
    """
    out: List[str] = []
    gap = False
    for ch in itertools.chain.from_iterable(tree_text(t)):
        if ch in "(),_":
            gap = bool(out)
            continue
        if gap:
            out.append("_")
            gap = False
        out.append(ch)
        if len(out) > NAME_TEXT_CAP:
            break
    name = f"c{index}__" + "".join(out[:NAME_TEXT_CAP])
    while name in alphabet:
        name += "_"
    return name


def reference_build(
    a: Wta, qt: SyntacticQuotient, basis: List[Tuple[Tree, ClassRep]]
) -> Wta:
    """The automaton whose states are the basis classes, built literally.

    For every symbol and every tuple of basis trees, the tree
    sym(basis trees) is run through `congruence.class_of`, and its class
    is divided by the scalar of the basis element of its block.  With an
    empty basis the result is the one-state automaton of the zero
    language, spelled out.
    """
    alphabet = a.alphabet
    k = a.kind
    if not basis:
        p = reference_state_name(alphabet, 0, Tree(alphabet.nullary_symbols()[0]))
        zero: Dict[TransKey, Value] = {}
        for sym in alphabet.symbols():
            zero[((p,) * alphabet.arity(sym), sym, p)] = k.one
        return Wta(alphabet, (p,), k, zero, {})
    names = [reference_state_name(alphabet, i, t) for i, (t, _) in enumerate(basis)]
    block_to_index = {cls[0]: i for i, (_, cls) in enumerate(basis)}
    delta: Dict[TransKey, Value] = {}
    for sym in alphabet.symbols():
        for combo in itertools.product(range(len(basis)), repeat=alphabet.arity(sym)):
            t = Tree(sym, tuple(basis[i][0] for i in combo))
            cls = congruence.class_of(qt, Monomial(k.one, t))
            if cls is None:
                continue
            block, scal = cls
            j = block_to_index[block]
            w = k.times(scal, k.inv(basis[j][1][1]))
            delta[(tuple(names[i] for i in combo), sym, names[j])] = w
    final: Dict[str, Value] = {}
    for i, (t, _) in enumerate(basis):
        w = automaton.evaluate(a, t)
        if w != k.zero:
            final[names[i]] = w
    return Wta(alphabet, tuple(names), k, delta, final)


def reference_h_general(a: Wta, t: Tree) -> Dict[str, Value]:
    """Sum-product vector semantics; works for any automaton."""
    k = a.kind
    index = {q: i for i, q in enumerate(a.states)}
    vecs: Dict[int, Tuple[Value, ...]] = {}
    for node in terms.validate_tree(t, a.alphabet):
        kid_vecs = [vecs[id(c)] for c in node.children]
        out = [k.zero for _ in a.states]
        for ws in itertools.product(a.states, repeat=len(kid_vecs)):
            factor = k.one
            for p, vec in zip(ws, kid_vecs):
                factor = k.times(factor, vec[index[p]])
            if factor == k.zero:  # a zero child: semifields have no zero divisors
                continue
            for q, w in targets(a, ws, node.symbol):
                i = index[q]
                out[i] = k.plus(out[i], k.times(factor, w))
        vecs[id(node)] = tuple(out)
    return dict(zip(a.states, vecs[id(t)]))


def reference_run(a: Wta, t: Tree) -> DetValue:
    """The bu-det run of ``t``, node by node: each distinct node, children
    first, takes the target of its one delta entry and multiplies its
    weight by each child's, in child order; None for the sink.  No memo is
    read or written."""
    k = a.kind
    vals: Dict[int, DetValue] = {}
    for node in postorder(t):
        kids = [vals[id(c)] for c in node.children]
        v = None
        if None not in kids:
            found = targets(a, tuple(kv[0] for kv in kids), node.symbol)
            if found:
                q, w = found[0]
                for kv in kids:
                    w = k.times(w, kv[1])
                v = (q, w)
        vals[id(node)] = v
    return vals[id(t)]


def reference_is_total(a: Wta) -> bool:
    """Every (state tuple, symbol) pair has at least one nonzero target,
    checked tuple by tuple."""
    for sym in a.alphabet.symbols():
        for ws in itertools.product(a.states, repeat=a.alphabet.arity(sym)):
            if not targets(a, ws, sym):
                return False
    return True


def reference_parse_tree(text: str, alphabet: RankedAlphabet) -> Tree:
    """``sigma(t1,...,tk)`` read over the `terms._TOKEN_RE` tokens, equal
    subtrees shared, each error raised where it is found."""
    tokens = terms._TOKEN_RE.findall(text)
    tokens.append("")  # end of input
    arities = alphabet._arity
    shared: Dict[object, Tree] = {}
    open_nodes: List[Tuple[str, int, List[Tree]]] = []  # symbol, arity, children
    pos = 0
    while True:
        name = tokens[pos]
        k = arities.get(name)
        if k is None:
            if not name:
                raise TermError(f"unexpected end of term {terms._at(text, pos)}")
            if not terms._is_identifier(name):
                raise TermError(f"expected a symbol, got {terms._at(text, pos)}")
            if name == Z_NAME:
                raise TermError(f"{Z_NAME!r} is not allowed in a plain tree")
            raise TermError(f"unknown symbol {terms._at(text, pos)}")
        pos += 1
        if tokens[pos] == "(":
            if tokens[pos + 1] != ")":
                pos += 1
                open_nodes.append((name, k, []))
                continue
            pos += 2
        if k:
            raise terms._arity_error(name, k, 0)
        node = shared.get(name)
        if node is None:
            node = shared[name] = Tree(name)
        while open_nodes:
            name, k, kids = open_nodes[-1]
            kids.append(node)
            tok = tokens[pos]
            pos += 1
            if tok == ",":
                break
            if tok != ")":
                if not tok:
                    raise TermError(f"missing ')' {terms._at(text, pos - 1)}")
                raise TermError(f"expected ',' or ')', got {terms._at(text, pos - 1)}")
            open_nodes.pop()
            if len(kids) != k:
                raise terms._arity_error(name, k, len(kids))
            key = (name, tuple(kids))
            node = shared.get(key)
            if node is None:
                node = shared[key] = Tree(*key)
        else:
            if tokens[pos]:
                raise TermError(f"trailing input {terms._at(text, pos)}")
            return node


def reference_parse_wta(text: str) -> Wta:
    """`automaton.parse_wta` read line by line with string methods; a line
    ends where universal newlines end it."""
    kind: Optional[Semifield] = None
    ranks: List[Tuple[str, int]] = []
    rank_names: Set[str] = set()
    raw_trans: List[Tuple[int, str, Tuple[str, ...], str, str]] = []
    raw_final: List[Tuple[int, str, str]] = []

    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "semifield":
            if kind is not None:
                raise WtaError(f"line {lineno}: duplicate semifield line")
            try:
                kind = sf.get(rest.strip())
            except sf.WeightSyntaxError as exc:
                raise WtaError(f"line {lineno}: {exc}") from None
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
            raw_trans.append((lineno,) + _reference_parse_trans(rest, lineno))
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
    except TermError as exc:
        raise WtaError(str(exc)) from None

    states: Dict[str, None] = {}

    def add_state(q: str, lineno: int) -> None:
        automaton._check_state_names((q,), alphabet, f"line {lineno}: ")
        states[q] = None

    weights: Dict[str, object] = {}
    zero = object()

    def weight(wtext: str, lineno: int) -> object:
        if wtext not in weights:
            try:
                w = kind.parse(wtext)
            except sf.WeightSyntaxError as exc:
                raise WtaError(f"line {lineno}: {exc}") from None
            weights[wtext] = zero if w == kind.zero else w
        return weights[wtext]

    arities = {s: alphabet.arity(s) for s in alphabet.symbols()}
    delta: Dict[TransKey, Value] = {}
    seen_keys: Set[TransKey] = set()
    for lineno, sym, args, target, wtext in raw_trans:
        k = arities.get(sym)
        if k is None:
            raise WtaError(f"line {lineno}: undeclared symbol {sym!r}")
        if len(args) != k:
            raise WtaError(f"line {lineno}: {sym} has arity {k}, got {len(args)} arguments")
        for q in args + (target,):
            if q not in states:
                add_state(q, lineno)
        key = (args, sym, target)
        if key in seen_keys:
            raise WtaError(f"line {lineno}: duplicate transition for {sym}{args}")
        seen_keys.add(key)
        w = weight(wtext, lineno)
        if w is not zero:
            delta[key] = w

    final: Dict[str, Value] = {}
    seen_final: Set[str] = set()
    for lineno, q, wtext in raw_final:
        if q not in states:
            add_state(q, lineno)
        if q in seen_final:
            raise WtaError(f"line {lineno}: duplicate final line for {q}")
        seen_final.add(q)
        w = weight(wtext, lineno)
        if w is not zero:
            final[q] = w

    if not states:
        raise WtaError("automaton declares no states (no trans/final lines)")
    return Wta(alphabet, tuple(states), kind, delta, final)


def _reference_parse_trans(rest: str, lineno: int) -> Tuple[str, Tuple[str, ...], str, str]:
    lhs, wtext = rest.rsplit("@", 1) if "@" in rest else ("", rest)
    if "->" not in lhs:  # the arrow comes before the last '@'
        raise WtaError(f"line {lineno}: expected 'trans SYM(...) -> q @ w'")
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


def reference_inverse(a: Wta) -> Tuple[list, Dict[str, list], Dict[str, list]]:
    """The entries of ``a.delta`` as a list, and for each state q the
    entries with target q and the (entry index, position) pairs with q at
    that position, each sorted into delta order."""
    entries = list(a.delta.items())
    rank = {q: i for i, q in enumerate(a.states)}
    into: Dict[str, list] = {q: [] for q in a.states}
    for _, e in sorted((rank[key[2]], e) for e, (key, _) in enumerate(entries)):
        into[entries[e][0][2]].append(entries[e])
    uses: Dict[str, list] = {q: [] for q in a.states}
    triples = [(rank[p], e, i) for e, (key, _) in enumerate(entries) for i, p in enumerate(key[0])]
    for r, e, i in sorted(triples):
        uses[a.states[r]].append((e, i))
    return entries, into, uses


def first_trees(a: Wta) -> Dict[str, Tree]:
    """The first enumerated tree reaching each state of a slim automaton,
    in the order found."""
    reps: Dict[str, Tree] = {}
    for t in enumerate_trees(a.alphabet):
        q = automaton.state_of(a, t)
        if q is not None and q not in reps:
            reps[q] = t
            if len(reps) == len(a.states):
                return reps


RAT_POOL = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
TROP_POOL = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1)]


def random_weight(rng: random.Random, kind: Semifield) -> Value:
    if kind is sf.BOOLEAN:
        return kind.one
    if kind is sf.TROPICAL:
        return kind.from_fraction(rng.choice(TROP_POOL))
    return kind.from_fraction(rng.choice(RAT_POOL))


def random_slim_budet(
    rng: random.Random, kind: Semifield, n_states: int, binary: bool = False
) -> Wta:
    if binary and n_states > 2:
        raise ValueError("binary corpus automata are capped at 2 states")
    states = tuple(f"q{i}" for i in range(n_states))
    if binary:
        # a single nullary symbol keeps context enumeration at height
        # 2*|Q| feasible for the brute-force oracle
        symbols: List[Tuple[str, int]] = [("s", 2), ("a", 0)]
    else:
        symbols = [("g", 1), ("a", 0)]
        if rng.random() < 0.4:
            symbols.append(("b", 0))
        if rng.random() < 0.3:
            symbols.append(("g2", 1))
    alphabet = RankedAlphabet(symbols)

    delta: Dict[TransKey, Value] = {}
    used: set = set()

    def add(ws: Tuple[str, ...], sym: str, q: str) -> None:
        key = (ws, sym)
        if key in used:
            return
        used.add(key)
        delta[(ws, sym, q)] = random_weight(rng, kind)

    # spanning transitions make every state the run state of some tree;
    # stepping from the previous state keeps the keys distinct
    add((), "a", states[0])
    for i in range(1, n_states):
        prev = states[i - 1]
        if binary:
            add((prev, prev), "s", states[i])
        else:
            add((prev,), "g", states[i])

    # random extra transitions, bu-det by unique keys
    for sym, k in symbols:
        for ws in itertools.product(states, repeat=k):
            if (ws, sym) in used:
                continue
            if rng.random() < 0.6:
                add(ws, sym, rng.choice(states))

    final: Dict[str, Value] = {}
    for q in states:
        if rng.random() < 0.6:
            final[q] = random_weight(rng, kind)

    return Wta(alphabet, states, kind, delta, final)


def small_corpus(kind: Semifield, count: int, seed: int = 0) -> Iterator[Wta]:
    """``count`` random slim bu-det automata: every third one binary with
    1-2 states, the others unary with 1-4 states."""
    rng = random.Random(f"{kind}:{seed}")
    for i in range(count):
        binary = i % 3 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        yield random_slim_budet(rng, kind, n, binary=binary)


def split_states(rng: random.Random, a: Wta) -> Wta:
    """``a`` with each state q split into copies q_0 and q_1, each rescaled
    by a random nonzero lam; then slimmed.

    Each transition of ``a``, taken with each choice of child copies, goes
    to a copy of its target picked at random.  A run reaching q with
    weight w reaches some q_j with weight w / lam(q_j), and
    F(q_j) = F(q) * lam(q_j), so the language is a's, and q_0 and q_1,
    where both are reached, are proportional with the ratio
    lam(q_1) / lam(q_0).
    """
    k = a.kind
    lam = {(q, j): random_weight(rng, k) for q in a.states for j in (0, 1)}
    delta: Dict[TransKey, Value] = {}
    for (ws, sym, q), w in a.delta.items():
        for js in itertools.product((0, 1), repeat=len(ws)):
            j = rng.randrange(2)
            v = k.times(w, k.inv(lam[(q, j)]))
            for p, jp in zip(ws, js):
                v = k.times(v, lam[(p, jp)])
            delta[(tuple(f"{p}_{jp}" for p, jp in zip(ws, js)), sym, f"{q}_{j}")] = v
    final = {f"{q}_{j}": k.times(f, lam[(q, j)]) for q, f in a.final.items() for j in (0, 1)}
    states = tuple(f"{q}_{j}" for q in a.states for j in (0, 1))
    return automaton.slim(Wta(a.alphabet, states, k, delta, final))


def _fresh_name(stem: str, taken) -> str:
    while stem in taken:
        stem += "_"
    return stem


def rescale_pad_shuffle(rng: random.Random, a: Wta) -> Tuple[Wta, bool]:
    """``a`` with every state rescaled by a random nonzero lam, one
    unreachable and one dead state appended, and delta shuffled; and
    whether the dead state is realized.  The language is a's.

    Entry (ws, sym, q) @ w becomes lam(q) * w * prod lam(p)^-1 and F(q)
    becomes F(q) * lam(q)^-1, so a tree that reached q with weight x
    reaches it with lam(q) * x.  The unreachable state has a final weight
    and, for each symbol of arity k >= 1, an entry from k copies of itself
    into a random state; no entry leads into it.  The dead state has no
    final weight and, for each such symbol, an entry from k copies of
    itself into itself; it is realized when one of the first 10 000 keys
    over a's states is free, by an entry from that key.
    """
    k = a.kind
    taken = {*a.states, *a.alphabet.symbols(), Z_NAME}
    u = _fresh_name("pad_unreachable", taken)
    d = _fresh_name("pad_dead", taken)
    lam = {q: random_weight(rng, k) for q in a.states}
    entries = [
        ((ws, sym, q), k.product([lam[q], w, *(k.inv(lam[p]) for p in ws)]))
        for (ws, sym, q), w in a.delta.items()
    ]
    final = {q: k.times(f, k.inv(lam[q])) for q, f in a.final.items()}
    final[u] = random_weight(rng, k)
    wide = [(sym, n) for sym, n in a.alphabet._arity.items() if n]
    for sym, n in wide:
        entries.append((((u,) * n, sym, rng.choice(a.states)), random_weight(rng, k)))
        entries.append((((d,) * n, sym, d), random_weight(rng, k)))
    keys = ((ws, sym) for sym, n in a.alphabet._arity.items()
            for ws in itertools.product(a.states, repeat=n))
    free = next((key for key in itertools.islice(keys, 10_000) if not targets(a, *key)), None)
    if free is not None:
        entries.append(((*free, d), random_weight(rng, k)))
    rng.shuffle(entries)
    return Wta(a.alphabet, a.states + (u, d), k, dict(entries), final), free is not None


def scaling_isomorphism(m1: Wta, m2: Wta) -> Dict[str, Tuple[str, Value]]:
    """Each state q of the slim bu-det ``m1`` mapped to (the state its
    witness tree reaches in ``m2``, s(q)), checked to be a scaling
    isomorphism onto ``m2``: an AssertionError names the first state, entry
    or final weight where it is not.

    s(q) is the witness tree's run weight in m2 over its run weight in m1,
    so that, if the languages are equal, a run reaching q with weight x
    reaches q's image with x * s(q).  The check: the map is one to one onto
    m2's states; each entry (ws, sym) -> q @ w of m1 is an entry of m2 over
    the images, at weight s(q) * w * prod s(p)^-1, and m2 has no other;
    F1(q) = s(q) * F2(image of q).  The witness trees share their
    subtrees, so each is run from its children's runs, once in each
    automaton, through `targets`.
    """
    k = m1.kind
    assert m2.kind is k
    runs: Dict[int, Tuple[str, Value, str, Value]] = {}  # id of a tree -> q1, x1, q2, x2
    to: Dict[str, Tuple[str, Value]] = {}
    for q, t in automaton.representative_trees(m1).items():
        kids = [runs[id(c)] for c in t.children]
        ((q1, w1),) = targets(m1, tuple(r[0] for r in kids), t.symbol)
        hits = targets(m2, tuple(r[2] for r in kids), t.symbol)
        assert q1 == q and len(hits) == 1, (q, hits)
        ((q2, w2),) = hits
        x1 = k.product([w1, *(r[1] for r in kids)])
        x2 = k.product([w2, *(r[3] for r in kids)])
        runs[id(t)] = (q, x1, q2, x2)
        to[q] = (q2, k.times(x2, k.inv(x1)))
    images = {q2 for q2, _s in to.values()}
    assert len(images) == len(m1.states) and images == set(m2.states), (to, m2.states)
    for (ws, sym, q), w in m1.delta.items():
        hits = targets(m2, tuple(to[p][0] for p in ws), sym)
        want = k.product([to[q][1], w, *(k.inv(to[p][1]) for p in ws)])
        assert len(hits) == 1 and hits[0][0] == to[q][0] and sf.eq(hits[0][1], want), (ws, sym, q)
    assert len(m1.delta) == len(m2.delta)
    for q, (q2, s) in to.items():
        assert sf.eq(m1.final.get(q, k.zero), k.times(s, m2.final.get(q2, k.zero))), q
    return to


def random_monomial(
    rng: random.Random, kind: Semifield, trees: List[Tree], zero_prob: float = 0.1
) -> Monomial:
    t = rng.choice(trees)
    if rng.random() < zero_prob:
        return Monomial(kind.zero, t)
    return Monomial(random_weight(rng, kind), t)


def layered(rng: random.Random, kind: Semifield, n: int, height: int) -> Wta:
    """A minimal unary automaton whose deepest state needs a tree of ``height``.

    Symbols c/1, g/1, h/1, a/0, b/0.  States q0..q(n-1) are numbered by
    layer: layer d holds the states whose least tree has height d.  Both
    leaves lead to q0, each state of layer d >= 1 has a g or h transition
    from layer d-1, no transition leads more than one layer up, and c runs
    the cycle q0 -> q1 -> ... -> q(n-1) -> q0.  State q_i observes a
    nonzero weight in context c^j iff q_(i+j mod n) has a final weight, and
    that support has no rotation symmetry, so no two states are
    proportional: the automaton is minimal.
    """
    assert height < n < 2 ** (height + 1)
    sizes = [1] * (height + 1)  # a layer holds at most twice the layer below
    while sum(sizes) < n:
        d = rng.randrange(1, height + 1)
        if sizes[d] < 2 * sizes[d - 1]:
            sizes[d] += 1
    states = [f"q{i}" for i in range(n)]
    layer = [d for d, size in enumerate(sizes) for _ in range(size)]
    delta: Dict[TransKey, Value] = {
        ((), "a", "q0"): random_weight(rng, kind),
        ((), "b", "q0"): random_weight(rng, kind),
    }
    for i, q in enumerate(states):
        delta[((q,), "c", states[(i + 1) % n])] = random_weight(rng, kind)
    free = set(itertools.product(("g", "h"), range(n)))  # (symbol, source index)
    for i in range(1, n):
        below = sorted(s for s in free if layer[s[1]] == layer[i] - 1)
        sym, j = rng.choice(below)
        free.discard((sym, j))
        delta[((states[j],), sym, states[i])] = random_weight(rng, kind)
    for sym, j in sorted(free):
        if rng.random() < 0.85:
            top = [q for q, d in zip(states, layer) if d <= layer[j] + 1]
            delta[((states[j],), sym, rng.choice(top))] = random_weight(rng, kind)
    while True:
        support = [i == 0 or rng.random() < 0.5 for i in range(n)]
        if all(support[d:] + support[:d] != support for d in range(1, n)):
            break
    final = {q: random_weight(rng, kind) for q, s in zip(states, support) if s}
    alphabet = RankedAlphabet([("c", 1), ("g", 1), ("h", 1), ("a", 0), ("b", 0)])
    return Wta(alphabet, tuple(states), kind, delta, final)


def chain(rng: random.Random, kind: Semifield, n: int) -> Wta:
    """The binary chain a -> q0, s(q_i, q_i) -> q_(i+1), every state final.

    State q_i needs a tree of height i, with 2^(i+1) - 1 nodes.  Minimal:
    the context s(z, t_i), with t_i reaching q_i, observes q_i and gives
    every other state the weight zero.
    """
    states = tuple(f"q{i}" for i in range(n))
    delta: Dict[TransKey, Value] = {((), "a", "q0"): random_weight(rng, kind)}
    for p, q in zip(states, states[1:]):
        delta[((p, p), "s", q)] = random_weight(rng, kind)
    final = {q: random_weight(rng, kind) for q in states}
    return Wta(RankedAlphabet([("s", 2), ("a", 0)]), states, kind, delta, final)


def sparse_binary(rng: random.Random, kind: Semifield, n: int) -> Wta:
    """A random slim bu-det automaton with n states and 3n transitions over
    f/2, g/1, h/1, a/0, each state final with probability 1/2.

    a reaches q0, and each later state q_i is first reached by a random
    f, g or h transition from states before it, so every state is
    realized; the other transitions have random free keys and targets.
    """
    states = tuple(f"q{i}" for i in range(n))
    alphabet = RankedAlphabet([("f", 2), ("g", 1), ("h", 1), ("a", 0)])
    delta: Dict[TransKey, Value] = {}
    used: Set[Tuple[Tuple[str, ...], str]] = set()

    def add(pool: Sequence[str], q: str) -> None:
        while True:
            sym = rng.choice(("f", "g", "h"))
            ws = tuple(rng.choice(pool) for _ in range(alphabet.arity(sym)))
            if (ws, sym) not in used:
                used.add((ws, sym))
                delta[(ws, sym, q)] = random_weight(rng, kind)
                return

    delta[((), "a", states[0])] = random_weight(rng, kind)
    for i in range(1, n):
        add(states[:i], states[i])
    while len(delta) < 3 * n:
        add(states, rng.choice(states))
    final = {q: random_weight(rng, kind) for q in states if rng.random() < 0.5}
    return Wta(alphabet, states, kind, delta, final)


def unary_chain(rng: random.Random, kind: Semifield, n: int) -> Wta:
    """The unary chain a -> q0, g(q_i) -> q_(i+1), only q_(n-1) final.

    Minimal: only g^(n-1-i) observes q_i.  Every observation path but the
    last state's is long, and no two states share one.
    """
    states = tuple(f"q{i}" for i in range(n))
    delta: Dict[TransKey, Value] = {((), "a", "q0"): random_weight(rng, kind)}
    for p, q in zip(states, states[1:]):
        delta[((p,), "g", q)] = random_weight(rng, kind)
    final = {states[-1]: random_weight(rng, kind)}
    return Wta(RankedAlphabet([("g", 1), ("a", 0)]), states, kind, delta, final)
