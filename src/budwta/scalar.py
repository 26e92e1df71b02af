"""Monomials.

A monomial ``b.xi`` is a tree scaled by a raw weight of the automaton's
semifield.  All monomials with zero weight denote the same zero element;
`congruence.class_of` is what identifies them.

Parsing is memoised on the alphabet, as `terms.parse_tree` is: each
distinct text gives one monomial object per alphabet and semifield while
it is among the `terms.MEMO_CAP` newest, so a text asked about again costs
one lookup.
"""

from __future__ import annotations

from typing import NamedTuple

from . import semifield, terms
from .semifield import Semifield, Value
from .terms import RankedAlphabet, Tree


class Monomial(NamedTuple):
    """A weighted tree ``b.xi``; ``==`` compares the pairs, not the classes."""

    weight: Value
    tree: Tree


def parse_monomial(text: str, alphabet: RankedAlphabet, kind: Semifield) -> Monomial:
    """Parse ``WEIGHT.TREE``, e.g. ``1/2.sigma(alpha,alpha)``.

    A text parsed again against the same alphabet object and semifield
    gives back the same monomial object while the text is in the memo,
    which keeps the `terms.MEMO_CAP` newest (text, semifield) pairs;
    its tree is `terms.parse_tree`'s for the tree text.  A text that fails
    to parse is not remembered.
    """
    key = (text, kind)
    memo = alphabet._monomials
    m = memo.get(key)
    if m is None:
        wtext, dot, ttext = text.partition(".")
        if not dot:
            raise terms.TermError(f"monomial needs the form WEIGHT.TREE: {text[:60]!r}")
        m = terms._remember(
            memo, key, Monomial(kind.parse(wtext), terms.parse_tree(ttext, alphabet))
        )
    return m  # type: ignore[return-value]


def format_monomial(m: Monomial) -> str:
    return f"{semifield.format_weight(m.weight)}.{terms.format_tree(m.tree)}"
