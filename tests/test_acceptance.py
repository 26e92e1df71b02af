"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package and prints a
single PASS line (visible with ``pytest -s``); a failure raises before the
line is printed, so pytest reports FAIL for that criterion.
"""

import random
import time
from fractions import Fraction

from budwta import automaton, semifield as sf, terms
from budwta.automaton import Wta, evaluate, format_wta, parse_wta
from budwta.cli import main as cli_main
from budwta.congruence import BoundedContextOracle, build_syntactic_quotient, congruent
from budwta.minimize import equivalent, is_minimal, minimize
from budwta.scalar import Monomial

from conftest import EVEN_ODD, GAMMA3, TWO_LEAF
from corpus import (
    candidate_set,
    count_symbol,
    enumerate_trees,
    random_monomial,
    random_slim_budet,
)


def _ok(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_even_odd_closed_form(even_odd):
    assert evaluate(even_odd, terms.parse_tree("alpha", even_odd.alphabet)) == 6
    assert (
        evaluate(
            even_odd, terms.parse_tree("sigma(alpha,alpha)", even_odd.alphabet)
        )
        == 8
    )
    for tree in enumerate_trees(even_odd.alphabet, 3):
        n = count_symbol(tree, "alpha")
        expected = Fraction(2 if n % 2 == 0 else 3) * 2**n
        assert evaluate(even_odd, tree) == expected
    _ok(1, "even/odd automaton matches its closed form on all trees of height <= 3")


EXPECTED_EVEN_ODD_MIN = """\
semifield rational
rank alpha 0
rank sigma 2
trans alpha() -> c0__alpha @ 1
trans sigma(c0__alpha,c0__alpha) -> c1__sigma_alpha_alpha @ 1
trans sigma(c0__alpha,c1__sigma_alpha_alpha) -> c0__alpha @ 4
trans sigma(c1__sigma_alpha_alpha,c0__alpha) -> c0__alpha @ 4
trans sigma(c1__sigma_alpha_alpha,c1__sigma_alpha_alpha) -> c1__sigma_alpha_alpha @ 4
final c0__alpha @ 6
final c1__sigma_alpha_alpha @ 8
"""


def test_criterion_2_even_odd_reconstruction(even_odd):
    assert format_wta(minimize(even_odd)) == EXPECTED_EVEN_ODD_MIN
    _ok(2, "reconstructed even/odd automaton byte-matches the expected serialization")


def test_criterion_3_gamma_minimization(gamma3, tmp_path, capsys):
    m = minimize(gamma3)
    assert len(gamma3.states) == 3 and len(m.states) == 2
    assert all(w == sf.RATIONAL.one for w in m.delta.values())
    assert sorted(m.final.values()) == [2, 3]
    src = tmp_path / "gamma.wta"
    out = tmp_path / "gamma_min.wta"
    src.write_text(GAMMA3)
    out.write_text(format_wta(m))
    assert cli_main(["equiv", str(src), str(out)]) == 0
    capsys.readouterr()
    _ok(3, "unary counter minimizes 3 -> 2 with unit weights and the CLI confirms equivalence")


def test_criterion_4_candidate_collapse(two_leaf):
    qt = build_syntactic_quotient(two_leaf)
    cands = candidate_set(two_leaf, qt)
    assert [terms.format_tree(t) for t, _ in cands] == ["alpha", "beta"]
    m = minimize(two_leaf)
    assert len(m.states) == 1
    assert evaluate(m, terms.parse_tree("alpha", m.alphabet)) == 2
    assert evaluate(m, terms.parse_tree("beta", m.alphabet)) == 1
    _ok(4, "proportional candidate classes collapse to a single basis state")


def test_criterion_5_refinement_vs_bounded_oracle():
    start = time.monotonic()
    rng = random.Random(20260823)
    disagreements = 0
    automata = 0
    for i in range(200):
        kind = sf.RATIONAL if i % 2 == 0 else sf.BOOLEAN
        binary = i % 8 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        qt = build_syntactic_quotient(a)
        oracle = BoundedContextOracle(a, 2 * len(a.states))
        trees = list(enumerate_trees(a.alphabet, 3))
        automata += 1
        for _ in range(1000):
            m1 = random_monomial(rng, kind, trees)
            m2 = random_monomial(rng, kind, trees)
            if congruent(qt, m1, m2) != oracle.congruent(m1, m2):
                disagreements += 1
    elapsed = time.monotonic() - start
    assert automata >= 200
    assert disagreements == 0
    assert elapsed < 120.0, f"oracle comparison took {elapsed:.1f}s"
    _ok(
        5,
        f"refinement agrees with the bounded-context oracle on 200 automata x "
        f"1000 pairs in {elapsed:.1f}s",
    )


def test_criterion_6_semantics_preserved_and_idempotent():
    rng = random.Random(7001)
    for i in range(60):
        kind = [sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL][i % 4]
        binary = i % 6 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        m = minimize(a)
        for tree in enumerate_trees(a.alphabet, 4):
            assert evaluate(m, tree) == evaluate(a, tree)
        assert len(minimize(m).states) == len(m.states)
    _ok(6, "minimization preserves semantics on trees of height <= 4 and is size-idempotent")


def test_criterion_7_addition_irrelevance():
    rng = random.Random(4242)
    for i in range(50):
        binary = i % 5 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, sf.RATIONAL, n, binary=binary)
        b = Wta(
            a.alphabet,
            a.states,
            sf.MAXTIMES,
            {k: sf.MAXTIMES.from_fraction(w) for k, w in a.delta.items()},
            {q: sf.MAXTIMES.from_fraction(w) for q, w in a.final.items()},
        )
        for tree in enumerate_trees(a.alphabet, 4):
            assert evaluate(a, tree) == evaluate(b, tree)
    _ok(7, "bu-det evaluation does not depend on the additive operation (50 automata, height <= 4)")


def _rand_weight(rng, kind):
    if kind is sf.BOOLEAN:
        return rng.choice([kind.zero, kind.one])
    if kind is sf.TROPICAL:
        if rng.random() < 0.1:
            return kind.zero
        return kind.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    if rng.random() < 0.1:
        return kind.zero
    num = rng.randint(1, 9) if kind is sf.MAXTIMES else rng.randint(-9, 9)
    return kind.from_fraction(Fraction(num, rng.randint(1, 4)))


def test_criterion_8_semifield_axioms():
    rng = random.Random(97)
    for kind in (sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL):
        zero, one = kind.zero, kind.one
        plus, times = kind.plus, kind.times
        for _ in range(10000):
            a = _rand_weight(rng, kind)
            b = _rand_weight(rng, kind)
            c = _rand_weight(rng, kind)
            assert plus(a, b) == plus(b, a)
            assert times(a, b) == times(b, a)
            assert plus(plus(a, b), c) == plus(a, plus(b, c))
            assert times(times(a, b), c) == times(a, times(b, c))
            assert times(a, plus(b, c)) == plus(times(a, b), times(a, c))
            assert plus(a, zero) == a and times(a, one) == a
            assert times(a, zero) == zero
            if a != zero:
                assert times(a, kind.inv(a)) == one
            if a != zero and b != zero:
                assert times(a, b) != zero
    _ok(8, "semifield axioms hold on 10000 random cases per semifield")


def test_criterion_9_minimality_characterization():
    rng = random.Random(31337)
    for i in range(40):
        kind = [sf.RATIONAL, sf.BOOLEAN, sf.MAXTIMES, sf.TROPICAL][i % 4]
        binary = i % 7 == 0
        n = rng.randint(1, 2) if binary else rng.randint(1, 4)
        a = random_slim_budet(rng, kind, n, binary=binary)
        m = minimize(a)
        assert is_minimal(m)
        padded = Wta(
            m.alphabet, m.states + ("spare",), m.kind, dict(m.delta), dict(m.final)
        )
        assert equivalent(m, padded)
        assert not is_minimal(padded)
    _ok(9, "minimize output is minimal; adding an unreachable state breaks minimality")
