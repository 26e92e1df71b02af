"""Weighted tree automata over commutative semifields.

Exact bottom-up deterministic semantics, syntactic congruence of the
recognized weighted tree language, scalar bases, and construction of the
minimal equivalent bu-det automaton.
"""

from .semifield import (
    BOOLEAN,
    KINDS,
    MAXTIMES,
    RATIONAL,
    TROPICAL,
    Semifield,
    SemifieldError,
    WeightSyntaxError,
    format_weight,
)
from .terms import (
    RankedAlphabet,
    TermError,
    Tree,
    Z,
    enumerate_contexts,
    format_tree,
    parse_tree,
)
from .automaton import (
    DetValue,
    PreconditionError,
    Wta,
    WtaError,
    dead_states,
    evaluate,
    format_wta,
    h_det,
    h_general,
    is_bu_deterministic,
    is_slim,
    is_total,
    parse_wta,
    reachable_states,
    representative_trees,
    slim,
    state_of,
)
from .scalar import (
    Monomial,
    format_monomial,
    parse_monomial,
)
from .congruence import (
    BoundedContextOracle,
    ClassRep,
    SyntacticQuotient,
    brute_force_congruent,
    build_syntactic_quotient,
    class_of,
    congruent,
)
from .minimize import (
    build_wta_from_basis,
    equivalent,
    is_minimal,
    minimize,
    scalar_basis,
)

__version__ = "0.1.0"
