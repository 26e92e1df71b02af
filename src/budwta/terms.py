"""Ranked alphabets, trees and contexts.

A tree is a finite term over a ranked alphabet.  A context is a tree over
the alphabet extended with the reserved nullary symbol ``z``, containing
exactly one occurrence of ``z``.  This module parses, validates and prints
trees, and enumerates contexts: a context is built, never read from text
or validated.  A tree text is split into words on whitespace and around
``(``, ``,`` and ``)``; the token regex reads a text again only to word
its error.  Parsing is memoised on the alphabet: each distinct text gives
one tree object per alphabet while it is among the alphabet's MEMO_CAP
newest texts, and validating that tree against that alphabet returns the
parse's own node list instead of walking it again.  Plugging a tree into a
context and splitting a context into elementary ones are not needed by the
package: the test suite keeps them as its reference.

Enumeration of contexts is deterministic: by height first, then
lexicographically following the declaration order of the alphabet, with
the side trees of each height enumerated in the same order.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import chain, islice, product, repeat, starmap
from typing import Any, Callable, Container, Dict, Iterable, Iterator, List, Set, Tuple

Z_NAME = "z"


def _is_identifier(name: object) -> bool:
    """``name`` is a string ``[A-Za-z_][A-Za-z0-9_]*``: a symbol or state name."""
    return isinstance(name, str) and name.isascii() and name.isidentifier()


class TermError(ValueError):
    """Malformed alphabet, tree or context."""


class Tree:
    """An immutable term.

    A node is its symbol, its children and its hash, computed once, at
    construction, from the children's.  Equality compares hashes first and
    then walks both trees with an explicit stack, so neither hashing nor
    comparing recurses, and depth is bounded by memory rather than by the
    recursion limit.  Equal subtrees may be one shared object (a parsed
    tree is a DAG).
    """

    __slots__ = ("symbol", "children", "_hash")

    def __init__(self, symbol: str, children: Tuple["Tree", ...] = ()):
        _set_symbol(self, symbol)  # the slots' own setters: __setattr__ refuses
        _set_children(self, children)
        _set_hash(self, hash((symbol, children)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Tree is immutable: cannot set {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[type, Tuple[str, Tuple["Tree", ...]]]:
        return (Tree, (self.symbol, self.children))  # copy and pickle rebuild

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        stack = [(self, other)]
        matched: Dict[int, Tree] = {}  # id(x) -> y found equal or pending (shared subtrees)
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if (
                x._hash != y._hash
                or x.symbol != y.symbol
                or len(x.children) != len(y.children)
            ):
                return False
            if x.children and matched.get(id(x)) is not y:
                matched[id(x)] = y
                stack.extend(zip(x.children, y.children))
        return True

    def __repr__(self) -> str:
        return f"Tree({format_tree(self)!r})"

    def __str__(self) -> str:
        return format_tree(self)


_set_symbol = Tree.symbol.__set__  # type: ignore[attr-defined]
_set_children = Tree.children.__set__  # type: ignore[attr-defined]
_set_hash = Tree._hash.__set__  # type: ignore[attr-defined]

Z = Tree(Z_NAME)


class RankedAlphabet:
    """Finite set of symbols with fixed arities, in declaration order.

    An alphabet is immutable.  ``_index`` maps each symbol to its
    declaration index, the one symbol order that the derivations over delta
    and `automaton.format_wta` read.  An alphabet also keeps two parse
    memos, which can never go stale and die with the alphabet:
    `parse_tree`'s, one tree object per distinct text parsed against it,
    and `scalar.parse_monomial`'s, one monomial object per distinct text
    and semifield.  Each keeps at most MEMO_CAP entries, by `_remember`.
    Beside the tree memo, ``_nodes`` keeps each of its trees' distinct
    nodes, children first, as the parse built them, keyed by the tree's
    id; it gains and drops an entry whenever the tree memo does, so it
    holds the same trees, and `validate_tree` returns such a list instead
    of walking the tree.
    """

    def __init__(self, symbols: Iterable[Tuple[str, int]]):
        self._arity: Dict[str, int] = {}
        self._parsed: Dict[str, Tree] = {}  # text -> tree
        self._nodes: Dict[int, List[Tree]] = {}  # id(tree) -> its nodes; the list holds the tree
        self._monomials: Dict[Tuple[str, object], object] = {}  # (text, semifield) -> monomial
        for name, k in symbols:
            if not _is_identifier(name):
                raise TermError(f"bad symbol name: {name!r}")
            if name == Z_NAME:
                raise TermError(f"symbol name {Z_NAME!r} is reserved for contexts")
            if name in self._arity:
                raise TermError(f"symbol declared twice: {name}")
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise TermError(f"bad arity for {name}: {k!r}")
            self._arity[name] = k
        self._index: Dict[str, int] = {s: i for i, s in enumerate(self._arity)}
        if not self._arity:
            raise TermError("alphabet must not be empty")
        if not self.nullary_symbols():
            raise TermError("alphabet needs at least one nullary symbol")

    def symbols(self) -> Tuple[str, ...]:
        return tuple(self._arity)

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise TermError(f"unknown symbol: {name}") from None

    def nullary_symbols(self) -> Tuple[str, ...]:
        return tuple(s for s, k in self._arity.items() if k == 0)

    def __contains__(self, name: str) -> bool:
        return name in self._arity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedAlphabet):
            return NotImplemented
        return list(self._arity.items()) == list(other._arity.items())

    def __hash__(self) -> int:
        return hash(tuple(self._arity.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}:{k}" for s, k in self._arity.items())
        return f"RankedAlphabet({inner})"


def height(t: Tree) -> int:
    """The number of edges on a longest path from the root of ``t`` down to
    a leaf: one walk over its distinct nodes, children first, so a shared
    subtree is measured once.  A node does not carry its height: contexts
    are enumerated height by height, and nothing else in the package asks."""
    heights: Dict[int, int] = {}  # id(node) -> its height, once its children are done
    stack: List[object] = [t]  # a node to visit, or (node,) once its children are done
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            node = node[0]  # type: ignore[index]
            heights[id(node)] = max([heights[id(c)] + 1 for c in node.children], default=0)
        elif id(node) not in heights:
            heights[id(node)] = 0  # seen; set when its children are done
            stack.append((node,))
            stack.extend(node.children)  # type: ignore[attr-defined]
    return heights[id(t)]


def validate_tree(t: Tree, alphabet: RankedAlphabet, known: Container[Tree] = ()) -> List[Tree]:
    """Check that ``t`` is a tree over ``alphabet`` and return the nodes
    checked: each distinct node object of ``t`` once, children before
    parents, leaving out every subtree that ``known`` holds (an equal tree
    built apart is found too) and every node under it.  The caller must not
    change the list.

    With ``known`` empty, a tree that `parse_tree` built against this
    alphabet object and still remembers is not walked: the parse checked
    every arity and listed its distinct nodes children first, and that list,
    kept in ``alphabet._nodes``, is returned.  Any other tree is walked:
    a node is checked as it is appended, after its children, so the first
    bad node in post-order is the one named.  A subtree that ``known``
    holds is taken as checked: a run memo holds only trees that were
    validated on their way in, and a tree equal to a valid one is valid.
    """
    if not known:  # an empty memo: no node is hashed
        nodes = alphabet._nodes.get(id(t))
        if nodes is not None:  # the list holds t, so no other object has its id
            return nodes
        known = ()
    arities = alphabet._arity
    order: List[Tree] = []
    seen: Set[int] = set()
    stack: List[object] = [t]  # a node to visit, or (node,) once its children are done
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            node = node[0]  # type: ignore[index]
            if arities.get(node.symbol) != len(node.children):
                if node.symbol == Z_NAME:
                    raise TermError(f"{Z_NAME!r} is not allowed in a plain tree")
                raise _arity_error(node.symbol, alphabet.arity(node.symbol), len(node.children))
            order.append(node)
        elif id(node) not in seen and node not in known:
            seen.add(id(node))
            stack.append((node,))
            stack.extend(node.children)  # type: ignore[attr-defined]
    return order


# --- concrete syntax ------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),]|\S")

# The most entries each capped memo keeps: an alphabet's two parse memos
# and each congruence decider's memo of monomial classes.  The bench's
# working sets are far below it: an eval-trees op parses one tree text per
# alphabet, and a congruence-oracle op reads and asks about a median of 64
# distinct monomials.
MEMO_CAP = 4096


def _remember(memo: Dict[Any, Any], key: object, value: Any) -> Any:
    """Store ``value`` under ``key`` and return it, first dropping the
    oldest entry of ``memo`` if it holds MEMO_CAP: the one rule of every
    capped memo."""
    if len(memo) >= MEMO_CAP:
        del memo[next(iter(memo))]
    memo[key] = value
    return value


def parse_tree(text: str, alphabet: RankedAlphabet) -> Tree:
    """Parse ``sigma(t1,...,tk)``; nullary symbols may omit the parentheses.
    Whitespace may stand between any two tokens.

    The tokens are the words left when ``(``, ``,`` and ``)`` are spaced
    out and the text is split on whitespace.  On a text that parses, every
    word is a symbol, an ASCII identifier, and these are the tokens
    `_TOKEN_RE` finds, since ``str.split`` and ``re``'s ``\\s`` split on the
    same characters.  A text that does not parse is read again with
    `_TOKEN_RE`'s tokens, whose numbers the error message reads, so the
    first pass words no error.

    The parser keeps its own stack of open nodes, so nesting depth is
    bounded by memory, and checks each node's arity as it closes.  Equal
    subtrees become one shared object: a balanced tree comes back as a DAG
    with one node per distinct subtree.

    A text parsed again against the same alphabet object gives back the
    same tree object while the text is in the alphabet's memo, so a run
    memo finds it by identity; the memo keeps the MEMO_CAP newest texts.
    With each tree it keeps the parse's list of distinct nodes, children
    first, in ``alphabet._nodes``, which `validate_tree` returns, so a
    fresh run does not walk the tree again.  A text that fails to parse is
    not remembered.
    """
    memo = alphabet._parsed
    tree = memo.get(text)
    if tree is not None:
        return tree
    arities = alphabet._arity
    nodes = None
    if text.__class__ is str:  # findall reads a str subclass and refuses a non-str
        spaced = text.replace("(", " ( ").replace(",", " , ").replace(")", " ) ")
        nodes = _read(spaced.split(), arities, text)
    if nodes.__class__ is not list:
        nodes = _read(_TOKEN_RE.findall(text), arities, text)
        if nodes.__class__ is not list:
            raise nodes()  # type: ignore[operator]
    # the two memos gain an entry together, so `_remember` drops their
    # oldest entries together: a text and its tree's node list
    _remember(alphabet._nodes, id(nodes[-1]), nodes)
    return _remember(memo, text, nodes[-1])


def _read(
    tokens: List[str], arities: Dict[str, int], text: str
) -> List[Tree] | Callable[[], TermError]:
    """The distinct nodes of the tree that ``tokens`` of ``text`` spell,
    children first and the root last, or, if they spell none, a function
    that words the error at the first token that fails.  A node is listed
    when it is made, which is when it is first closed, after its children.
    Equal subtrees are one node, found in tables that die with this parse:
    a leaf by its symbol, an inner node by its own children tuple in its
    symbol's table, so no key is built beside the node."""
    tokens.append("")  # end of input
    nodes: List[Tree] = []
    leaves: Dict[str, Tree] = {}  # symbol -> its leaf
    # symbol -> children -> node: the children are shared already, so
    # comparing keys compares them by identity
    tables: Dict[str, Dict[Tuple[Tree, ...], Tree]] = {}
    open_nodes: List[Tuple[str, int, List[Tree]]] = []  # symbol, arity, children
    pos = 0
    while True:
        name = tokens[pos]
        k = arities.get(name)
        if k is None:
            return partial(_unlisted_symbol, name, text, pos)
        pos += 1
        if tokens[pos] == "(":
            if tokens[pos + 1] != ")":
                pos += 1
                open_nodes.append((name, k, []))
                continue
            pos += 2
        if k:
            return partial(_arity_error, name, k, 0)
        node = leaves.get(name)
        if node is None:
            node = leaves[name] = Tree(name)
            nodes.append(node)
        while open_nodes:
            name, k, kids = open_nodes[-1]
            kids.append(node)
            tok = tokens[pos]
            pos += 1
            if tok == ",":
                break
            if tok != ")":
                form = "expected ',' or ')', got {}" if tok else "missing ')' {}"
                return partial(_error, form, text, pos - 1)
            open_nodes.pop()
            if len(kids) != k:
                return partial(_arity_error, name, k, len(kids))
            table = tables.get(name)
            if table is None:
                table = tables[name] = {}
            kids = tuple(kids)
            node = table.get(kids)
            if node is None:
                node = table[kids] = Tree(name, kids)
                nodes.append(node)
        else:
            if tokens[pos]:
                return partial(_error, "trailing input {}", text, pos)
            return nodes


def _unlisted_symbol(name: str, text: str, pos: int) -> TermError:
    """The error for token ``pos``, where a symbol of the alphabet should be."""
    if not name:
        return _error("unexpected end of term {}", text, pos)
    if not _is_identifier(name):
        return _error("expected a symbol, got {}", text, pos)
    if name == Z_NAME:
        return TermError(f"{Z_NAME!r} is not allowed in a plain tree")
    return _error("unknown symbol {}", text, pos)


def _error(form: str, text: str, pos: int) -> TermError:
    """``form`` with `_at`'s words for token ``pos`` of ``text`` in its ``{}``."""
    return TermError(form.format(_at(text, pos)))


def _at(text: str, pos: int) -> str:
    """Token number ``pos`` of ``text``, its offset and up to 60 characters
    around it: a message stays short however long the text is."""
    tok = next(islice(_TOKEN_RE.finditer(text), pos, None), None)
    i = len(text) if tok is None else tok.start()
    where = f"at offset {i}, near {text[max(0, i - 30):i + 30]!r}"
    return where if tok is None else f"{tok.group()[:30]!r} {where}"


def _arity_error(name: str, k: int, got: int) -> TermError:
    return TermError(f"symbol {name} has arity {k}, got {got} children")


def format_tree(t: Tree) -> str:
    """``sigma(t1,...,tk)``, with no ``()`` after a nullary symbol, written
    from an explicit stack, so depth is bounded by memory.  A shared subtree
    is written at every occurrence: the text can be exponential in the
    number of distinct nodes."""
    out: List[str] = []
    stack: List[object] = [t]  # trees still to write, and the text between them
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)  # type: ignore[arg-type]
            continue
        out.append(item.symbol)  # type: ignore[attr-defined]
        kids = item.children  # type: ignore[attr-defined]
        if kids:
            out.append("(")
            stack.append(")")
            for kid in kids[:0:-1]:
                stack += (kid, ",")
            stack.append(kids[0])
    return "".join(out)


# --- deterministic enumeration -------------------------------------------


def _trees_of_exact_height(
    alphabet: RankedAlphabet, h: int, lower: List[Tree], fresh: int
) -> Iterable[Tree]:
    """The trees of height ``h`` in order, given ``lower``, every tree of
    height below ``h`` in order, of which those of height h - 1 start at
    ``fresh``: symbols in declaration order, then child tuples in
    lexicographic order of their places in ``lower``."""
    if h == 0:
        return [Tree(s) for s, k in alphabet._arity.items() if not k]
    return chain.from_iterable(
        map(Tree, repeat(s), _fresh_tuples([lower] * k, [fresh] * k))
        for s, k in alphabet._arity.items()
        if k
    )


def _fresh_tuples(slots: List[List[Tree]], fresh: List[int]) -> Iterator[Tuple[Tree, ...]]:
    """The tuples of ``itertools.product(*slots)`` with at least one element
    at or after place ``fresh[i]`` of its ``slots[i]``, in the same
    lexicographic order, looking at no other tuple.

    Call the elements before ``fresh[i]`` old and the others new.  For
    one prefix of i old elements, the tuples that go on with a new element
    at place i, then any elements, are one `itertools.product`, and in
    lexicographic order they follow every tuple that goes on with an old
    element at place i.  So the products are chained in that order, from
    an explicit stack of old prefixes; the last two places take their old
    elements at once, as ``product(old, new)``.  Over one or two slots the
    Python-level work is O(1) per product, not per tuple, and no arity
    recurses.
    """
    k = len(slots)
    new = [s[f:] for s, f in zip(slots, fresh)]
    if k == 1:
        return product(new[0])
    old = [s[:f] for s, f in zip(slots[:-1], fresh)]  # the last place takes only new ones
    products: List[tuple] = []  # the argument tuples of the products, in order
    # an old prefix, as 1-tuples, and whether its extensions by an old
    # element are out already
    stack: List[Tuple[tuple, bool]] = [((), False)]
    while stack:
        prefix, extended = stack.pop()
        i = len(prefix)
        if not extended:
            if i < k - 2:
                stack.append((prefix, True))
                stack.extend(((*prefix, (x,)), False) for x in reversed(old[i]))
                continue
            products.append((*prefix, old[i], new[i + 1]))
        products.append((*prefix, new[i], *slots[i + 1 :]))
    return chain.from_iterable(starmap(product, products))


def enumerate_contexts(alphabet: RankedAlphabet, max_height: int) -> Iterator[Tree]:
    """All contexts up to height ``max_height``, height-first; same
    ordering conventions as trees.  Below height 0 there is none.

    A context of height h has a child of height h - 1, so each height is
    built from the child tuples that take one from the height below, as
    `itertools.product`s over slices of the lower heights (see
    `_fresh_tuples`), each mapped to its trees by ``map(Tree, ...)``: a
    context costs no Python-level step beyond its ``Tree``.  Every height
    has a context unless no symbol has arity >= 1; then ``z`` is the only
    one, and the enumeration stops after it.
    """
    if max_height < 0:
        return
    trees: List[Tree] = []  # every tree of height < h, in order
    contexts: List[Tree] = [Z]  # every context of height < h, in order
    tree_from = context_from = 0  # where height h - 1 starts in each
    yield Z
    for h in range(1, max_height + 1):
        new_trees = list(_trees_of_exact_height(alphabet, h - 1, trees, tree_from))
        tree_from = len(trees)
        trees += new_trees
        level: List[Tree] = []
        for s, k in alphabet._arity.items():
            for hole in range(k):
                slots = [contexts if i == hole else trees for i in range(k)]
                fresh = [context_from if i == hole else tree_from for i in range(k)]
                level += map(Tree, repeat(s), _fresh_tuples(slots, fresh))
        if not level:
            return
        yield from level
        context_from = len(contexts)
        contexts += level


def context_counts(alphabet: RankedAlphabet) -> Iterator[int]:
    """For h = 0, 1, 2, ...: the number of contexts of height <= h, as many
    as `enumerate_contexts` yields, counted without building one.

    A context of height <= h + 1 is ``z`` or s(t1, ..., c, ..., tk) with c a
    context and every ti a tree, all of height <= h: ``k * C(h) * T(h)^(k-1)``
    of them per symbol s of arity k >= 1, with T(h + 1) = the sum over
    symbols of T(h)^k and T(-1) = 0.  The counts grow at every height, or
    stay at 1 when ``z`` is the only context (no symbol of arity >= 1 has
    trees for its other places); then they stop after the first.
    """
    arities = list(alphabet._arity.values())
    trees = sum(0**k for k in arities)  # the leaves
    contexts, last = 1, None  # z
    while contexts != last:
        yield contexts
        last = contexts
        contexts = 1 + sum(k * contexts * trees ** (k - 1) for k in arities if k)
        trees = sum(trees**k for k in arities)
