"""Monomials.

A monomial ``b.xi`` is a tree scaled by a weight.  All monomials with zero
weight denote the same zero element, so equality and hashing identify them.
"""

from __future__ import annotations

from . import semifield, terms
from .semifield import Weight
from .terms import RankedAlphabet, Tree


class Monomial:
    """A weighted tree ``b.xi``; weight zero collapses to the zero element."""

    __slots__ = ("weight", "tree")

    def __init__(self, weight: Weight, tree: Tree):
        self.weight = weight
        self.tree = tree

    def is_zero(self) -> bool:
        return self.weight.is_zero()

    def scale(self, b: Weight) -> "Monomial":
        return Monomial(b.times(self.weight), self.tree)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        if self.weight.kind != other.weight.kind:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.weight == other.weight and self.tree == other.tree

    def __hash__(self) -> int:
        if self.is_zero():
            return hash((self.weight.kind, "zero"))
        return hash((self.weight, self.tree))

    def __repr__(self) -> str:
        return f"Monomial({format_monomial(self)!r})"


def parse_monomial(text: str, alphabet: RankedAlphabet, kind: str) -> Monomial:
    """Parse ``WEIGHT.TREE``, e.g. ``1/2.sigma(alpha,alpha)``."""
    if "." not in text:
        raise terms.TermError(f"monomial needs the form WEIGHT.TREE: {text!r}")
    wtext, ttext = text.split(".", 1)
    w = semifield.parse_weight(wtext, kind)
    t = terms.parse_tree(ttext, alphabet)
    return Monomial(w, t)


def format_monomial(m: Monomial) -> str:
    return f"{semifield.format_weight(m.weight)}.{terms.format_tree(m.tree)}"
