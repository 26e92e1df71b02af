import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from budwta import parse_wta

EVEN_ODD = """\
# counts alpha leaves: weight 2*2^n for even n, 3*2^n for odd n
semifield rational
rank alpha 0
rank sigma 2
trans alpha() -> o @ 2
trans sigma(o,o) -> e @ 1
trans sigma(e,e) -> e @ 1
trans sigma(o,e) -> o @ 1
trans sigma(e,o) -> o @ 1
final o @ 3
final e @ 2
"""

GAMMA3 = """\
# weight 2 for even numbers of gamma, 3 for odd
semifield rational
rank gamma 1
rank alpha 0
trans alpha() -> q1 @ 1
trans gamma(q1) -> q2 @ 1
trans gamma(q2) -> q3 @ 1
trans gamma(q3) -> q2 @ 1
final q1 @ 2
final q2 @ 3
final q3 @ 2
"""

TWO_LEAF = """\
# two nullary symbols reaching proportional states
semifield rational
rank alpha 0
rank beta 0
trans alpha() -> q0 @ 1
trans beta() -> q1 @ 1
final q0 @ 2
final q1 @ 1
"""

NON_SLIM = """\
# beta has no transition; p2 is never reached
semifield rational
rank alpha 0
rank beta 0
trans alpha() -> p1 @ 1
final p1 @ 1
final p2 @ 1
"""

SYMBOL_C0__A = """\
# minimal, with a symbol named like the first basis state c0__a
semifield rational
rank c0__a 1
rank a 0
trans a() -> p @ 1
trans c0__a(p) -> q @ 2
trans c0__a(q) -> p @ 2
final p @ 1
"""

WIDE_NONDET = """\
# not bu-det: alpha reaches p and q; the one f entry reads 29 p's and a q
semifield rational
rank alpha 0
rank f 30
trans alpha() -> p @ 2
trans alpha() -> q @ 3
trans f(p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,p,q) -> p @ 1/5
final p @ 1
"""
WIDE_NONDET_TREE = "f(" + ",".join(["alpha"] * 30) + ")"  # weight 3 * 2^29 / 5

UNUSED_WIDE = """\
# f/40 labels no transition
semifield rational
rank alpha 0
rank gamma 1
rank f 40
trans alpha() -> p @ 2
trans gamma(p) -> q @ 3
trans gamma(q) -> p @ 1/2
final q @ 1
"""

# 20 leaves beside sigma/2 label no transition
UNUSED_LEAVES = (
    "semifield rational\nrank sigma 2\nrank alpha 0\n"
    + "".join(f"rank b{i} 0\n" for i in range(20))
    + "trans alpha() -> p @ 2\ntrans sigma(p,p) -> q @ 3\ntrans sigma(q,p) -> p @ 1/2\n"
    "final q @ 1\n"
)


@pytest.fixture
def even_odd():
    return parse_wta(EVEN_ODD)


@pytest.fixture
def gamma3():
    return parse_wta(GAMMA3)


@pytest.fixture
def two_leaf():
    return parse_wta(TWO_LEAF)


@pytest.fixture
def non_slim():
    return parse_wta(NON_SLIM)
