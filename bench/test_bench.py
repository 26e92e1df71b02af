"""Tests of the benchmark's own code: python3 -m pytest bench -q"""

import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from budwta import automaton, semifield, terms  # noqa: E402
from budwta.minimize import minimize  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

EVEN_ODD = gen.Model(
    "rational", (("alpha", 0), ("sigma", 2)), ["o", "e"],
    {("alpha", ()): ("o", Fraction(2)),
     ("sigma", ("o", "o")): ("e", Fraction(1)), ("sigma", ("e", "e")): ("e", Fraction(1)),
     ("sigma", ("o", "e")): ("o", Fraction(1)), ("sigma", ("e", "o")): ("o", Fraction(1))},
    {"o": Fraction(3), "e": Fraction(2)},
)


def program_answer(text: str, tree: gen.Tree, command: str) -> str:
    a = automaton.parse_wta(text)
    t = terms.parse_tree(gen.tree_text(tree), a.alphabet)
    if command == "state":
        q = automaton.state_of(a, t)
        return gen.SINK if q is None else q
    return semifield.format_weight(automaton.evaluate(a, t))


def test_rounds_are_deterministic_per_seed(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        built = []
        for seed in ("7", "7", "8"):
            out = tmp_path / f"{name}-{len(built)}"
            out.mkdir()
            ops = w.build(seed, 1, out)
            files = sorted((p.name, p.read_text()) for p in out.iterdir())
            built.append(([(op.family, op.expected, op.defect) for op in ops], files))
        assert built[0] == built[1], name
        assert built[0] != built[2], name


def test_round_composition_does_not_depend_on_seed(tmp_path):
    for name, w in workloads.WORKLOADS.items():
        families = [sorted((op.family, op.defect) for op in w.build(seed, 0, tmp_path))
                    for seed in ("1", "2")]
        assert families[0] == families[1], name


def test_reference_evaluator_matches_even_odd_closed_form():
    for tree in gen.trees_up_to(EVEN_ODD.ranks, 3):
        n = sum(1 for sym, _ in tree if sym == "alpha")
        expected = (2 if n % 2 == 0 else 3) * 2 ** n
        assert EVEN_ODD.answer(tree, "eval") == str(expected)
        assert EVEN_ODD.answer(tree, "eval") == program_answer(EVEN_ODD.text(), tree, "eval")


def test_reference_evaluator_matches_evaluate_on_small_trees():
    rng = random.Random(3)
    for kind in gen.KINDS:
        m = gen.random_total(rng, kind, 3)
        m.final.pop(m.states[0], None)  # some trees weigh zero
        del m.delta[("g", (m.states[1],))]  # and some have no run
        text = m.text()
        for size in range(1, 40):
            tree = gen.random_shape(rng, size)
            for command in ("eval", "state"):
                assert m.answer(tree, command) == program_answer(text, tree, command)


def test_huge_answers_print_like_fractions():
    assert gen._exp_text((1, 3, -2)) == str(Fraction(-8, 9))
    assert gen._exp_text((0, -5000, 0)) == "1/" + str(gen.Decimal(2 ** 5000))


def test_trees_have_the_promised_shape():
    alphabet = terms.RankedAlphabet([("f", 2), ("g", 1), ("a", 0), ("b", 0)])

    def parse(tree):
        return terms.parse_tree(gen.tree_text(tree), alphabet)

    # random shapes stay far below the recursion limit that spines hit
    shallow = parse(gen.random_shape(random.Random(1), 20000))
    assert terms.height(shallow) < 100
    assert terms.height(parse(gen.spine(5))) == 5
    assert parse(gen.balanced(3)) == parse([("f", 2)] + gen.balanced(2) * 2)
    assert len(gen.balanced(4)) == 31


def test_clone_split_keeps_the_base_weights():
    rng = random.Random(5)
    for kind in gen.KINDS:
        for binary, n, height in ((False, 6, 3), (True, 4, 2)):
            base = gen.layered(rng, kind, n, height, binary)
            split = gen.clone_split(rng, base)
            assert len(split.states) == 2 * n
            for tree in gen.trees_up_to(base.ranks, 2 if binary else 4):
                assert split.answer(tree, "eval") == base.answer(tree, "eval")


def test_layered_automata_are_minimal_with_the_promised_witness_height():
    rng = random.Random(9)
    for kind in gen.KINDS:
        for binary, n, height in ((False, 7, 3), (True, 5, 2)):
            split = gen.clone_split(rng, gen.layered(rng, kind, n, height, binary))
            a = automaton.parse_wta(split.text())
            reps = automaton.representative_trees(a)
            assert max(terms.height(t) for t in reps.values()) == height
            assert len(minimize(a).states) == n


def test_perturbed_changes_the_language():
    rng = random.Random(11)
    for kind in gen.KINDS:
        m = gen.clone_split(rng, gen.layered(rng, kind, 5, 2, False))
        bad = gen.perturbed(rng, m)
        trees = gen.trees_up_to(m.ranks, 3)
        assert any(m.answer(t, "eval") != bad.answer(t, "eval") for t in trees)


def test_failed_ops_rank_above_every_completed_op():
    ok = [run.Sample("f", "ok", 1.0 + i, None) for i in range(20)]
    failed = [run.Sample("f", "RecursionError", 0.001, "d") for _ in range(9)]
    pct = run.percentiles(ok + failed)
    assert pct["samples"] == 29 and pct["samples_beyond_tail"] == 10
    # 9 failures and the slowest completed op lie beyond the tail
    assert pct["tail"].seconds == 19.0 and not pct["tail"].failed
    assert pct["p50"].seconds == 15.0
    assert run.percentiles(ok[:5] + failed)["p50"].failed


def test_read_tree_inverts_tree_text():
    rng = random.Random(13)
    for tree in [gen.spine(3), gen.balanced(3)] + [gen.random_shape(rng, n) for n in (1, 2, 50, 500)]:
        assert gen.read_tree(gen.tree_text(tree)) == tree


def test_op_times_scale_with_the_probes_around_them():
    probe = run.Probe()
    probe.times = [run.PROBE_REF_S] * 5 + [2 * run.PROBE_REF_S] * 20
    scales = probe.scales()
    assert scales[0] == 1.0 and scales[-1] == 0.5
