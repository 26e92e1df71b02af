"""Ranked alphabets, trees and contexts.

A tree is a finite term over a ranked alphabet.  A context is a tree over
the alphabet extended with the reserved nullary symbol ``z``, containing
exactly one occurrence of ``z``.  Contexts compose by substitution at the
``z`` leaf and decompose uniquely into elementary contexts (depth one,
``z`` as a direct child of the root).

Enumeration of trees and contexts is deterministic: by height first, then
lexicographically following the declaration order of the alphabet.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

Z_NAME = "z"

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class TermError(ValueError):
    """Malformed alphabet, tree or context."""


@dataclass(frozen=True)
class Tree:
    symbol: str
    children: Tuple["Tree", ...] = ()

    def __str__(self) -> str:
        return format_tree(self)


Z = Tree(Z_NAME)


class RankedAlphabet:
    """Finite set of symbols with fixed arities, in declaration order."""

    def __init__(self, symbols: Iterable[Tuple[str, int]]):
        self._arity: Dict[str, int] = {}
        for name, k in symbols:
            if not _IDENT_RE.match(name):
                raise TermError(f"bad symbol name: {name!r}")
            if name == Z_NAME:
                raise TermError(f"symbol name {Z_NAME!r} is reserved for contexts")
            if name in self._arity:
                raise TermError(f"symbol declared twice: {name}")
            if not isinstance(k, int) or k < 0:
                raise TermError(f"bad arity for {name}: {k!r}")
            self._arity[name] = k
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
    if not t.children:
        return 0
    return 1 + max(height(c) for c in t.children)


def count_symbol(t: Tree, name: str) -> int:
    n = 1 if t.symbol == name else 0
    return n + sum(count_symbol(c, name) for c in t.children)


def is_context(t: Tree) -> bool:
    return count_symbol(t, Z_NAME) == 1


def validate_tree(t: Tree, alphabet: RankedAlphabet, allow_z: bool = False) -> None:
    if t.symbol == Z_NAME:
        if not allow_z:
            raise TermError(f"{Z_NAME!r} is not allowed in a plain tree")
        if t.children:
            raise TermError(f"{Z_NAME!r} is nullary")
        return
    k = alphabet.arity(t.symbol)
    if len(t.children) != k:
        raise TermError(
            f"symbol {t.symbol} has arity {k}, got {len(t.children)} children"
        )
    for c in t.children:
        validate_tree(c, alphabet, allow_z)


# --- concrete syntax ------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[(),]|\S")


def _tokenize(text: str) -> List[str]:
    return _TOKEN_RE.findall(text)


def parse_tree(text: str, alphabet: RankedAlphabet, allow_z: bool = False) -> Tree:
    """Parse ``sigma(t1,...,tk)``; nullary symbols may omit the parentheses."""
    tokens = _tokenize(text)
    pos = 0

    def parse_node() -> Tree:
        nonlocal pos
        if pos >= len(tokens):
            raise TermError(f"unexpected end of term in {text!r}")
        name = tokens[pos]
        if not _IDENT_RE.match(name):
            raise TermError(f"expected a symbol, got {name!r} in {text!r}")
        pos += 1
        children: List[Tree] = []
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            if pos < len(tokens) and tokens[pos] == ")":
                pos += 1
            else:
                while True:
                    children.append(parse_node())
                    if pos >= len(tokens):
                        raise TermError(f"missing ')' in {text!r}")
                    if tokens[pos] == ",":
                        pos += 1
                        continue
                    if tokens[pos] == ")":
                        pos += 1
                        break
                    raise TermError(f"expected ',' or ')' at {tokens[pos]!r} in {text!r}")
        return Tree(name, tuple(children))

    t = parse_node()
    if pos != len(tokens):
        raise TermError(f"trailing input {tokens[pos]!r} in {text!r}")
    validate_tree(t, alphabet, allow_z)
    return t


def parse_context(text: str, alphabet: RankedAlphabet) -> Tree:
    c = parse_tree(text, alphabet, allow_z=True)
    n = count_symbol(c, Z_NAME)
    if n != 1:
        raise TermError(f"a context needs exactly one {Z_NAME!r}, found {n}")
    return c


def format_tree(t: Tree) -> str:
    if not t.children:
        return t.symbol
    return t.symbol + "(" + ",".join(format_tree(c) for c in t.children) + ")"


# --- context algebra ------------------------------------------------------


def substitute(c: Tree, t: Tree) -> Tree:
    """Plug ``t`` into the ``z`` leaf of context ``c``."""
    if c.symbol == Z_NAME:
        return t
    return Tree(c.symbol, tuple(substitute(child, t) for child in c.children))


def compose(c1: Tree, c2: Tree) -> Tree:
    """Context composition: ``c1`` around ``c2`` (z of c1 replaced by c2)."""
    return substitute(c1, c2)


def decompose_elementary(c: Tree) -> List[Tree]:
    """Split a context into elementary factors, outermost first.

    An elementary context has ``z`` as a direct child of its root.  The
    returned list e1..en satisfies c = e1[e2[...en[z]...]]; it is empty
    exactly when c = z.
    """
    if not is_context(c):
        raise TermError("not a context")
    factors: List[Tree] = []
    cur = c
    while cur.symbol != Z_NAME:
        hole = next(
            i for i, child in enumerate(cur.children) if is_context(child)
        )
        shallow = tuple(
            Z if i == hole else child for i, child in enumerate(cur.children)
        )
        factors.append(Tree(cur.symbol, shallow))
        cur = cur.children[hole]
    return factors


# --- deterministic enumeration -------------------------------------------


def enumerate_trees(
    alphabet: RankedAlphabet, max_height: Optional[int] = None
) -> Iterator[Tree]:
    """All trees in height-then-declaration-lexicographic order.

    With ``max_height=None`` the generator is unbounded.
    """
    seen: List[Tree] = []  # cumulative, in enumeration order
    h = 0
    while max_height is None or h <= max_height:
        level = list(_trees_of_exact_height(alphabet, h, seen))
        if not level:
            return
        for t in level:
            yield t
        seen.extend(level)
        h += 1


def _trees_of_exact_height(
    alphabet: RankedAlphabet, h: int, lower: List[Tree]
) -> Iterator[Tree]:
    if h == 0:
        for s in alphabet.nullary_symbols():
            yield Tree(s)
        return
    for s in alphabet.symbols():
        k = alphabet.arity(s)
        if k == 0:
            continue
        for kids in itertools.product(lower, repeat=k):
            if max(height(c) for c in kids) == h - 1:
                yield Tree(s, kids)


def enumerate_contexts(
    alphabet: RankedAlphabet, max_height: Optional[int] = None
) -> Iterator[Tree]:
    """All contexts, height-first; same ordering conventions as trees."""
    trees_seen: List[Tree] = []
    ctx_seen: List[Tree] = [Z]
    yield Z
    h = 1
    while max_height is None or h <= max_height:
        tree_level = list(_trees_of_exact_height(alphabet, h - 1, trees_seen))
        trees_seen.extend(tree_level)
        level: List[Tree] = []
        for s in alphabet.symbols():
            k = alphabet.arity(s)
            if k == 0:
                continue
            for hole in range(k):
                slots = [ctx_seen if i == hole else trees_seen for i in range(k)]
                for kids in itertools.product(*slots):
                    if max(height(c) for c in kids) == h - 1:
                        level.append(Tree(s, tuple(kids)))
        if not level:
            return
        for c in level:
            yield c
        ctx_seen.extend(level)
        h += 1
