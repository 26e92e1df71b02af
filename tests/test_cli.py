import contextlib
import io
import os
import random
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import importlib

from budwta import automaton, cli, congruence, semifield as sf, terms
from budwta.automaton import WtaError, format_wta, parse_wta
from budwta.cli import main

from conftest import (
    EVEN_ODD,
    GAMMA3,
    NON_SLIM,
    SYMBOL_C0__A,
    TWO_LEAF,
    UNUSED_LEAVES,
    UNUSED_WIDE,
    WIDE_NONDET,
    WIDE_NONDET_TREE,
)
from corpus import chain

NONDET = """\
semifield rational
rank alpha 0
trans alpha() -> p @ 1
trans alpha() -> q @ 1
final p @ 1
"""


@pytest.fixture
def wta_file(tmp_path):
    def write(text, name="a.wta"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_validate(wta_file, capsys):
    assert main(["validate", wta_file(EVEN_ODD)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "semifield: rational\n"
        "symbols: 2\n"
        "states: 2\n"
        "bu-deterministic: yes\n"
        "total: yes\n"
        "slim: yes\n"
    )


def test_a_huge_arity_is_not_total_at_once(wta_file, capsys):
    path = wta_file(
        "semifield rational\nrank b 16000000\nrank a 0\nrank g 1\n"
        "trans a() -> p @ 1\ntrans g(p) -> q @ 1\ntrans g(q) -> r @ 1\nfinal r @ 1\n"
    )
    for command in ("validate", "check"):
        start = time.perf_counter()
        assert main([command, path]) == 0
        assert time.perf_counter() - start < 1
        assert "\ntotal: no\n" in capsys.readouterr().out


def test_eval_of_an_arity_30_non_bu_det_file(wta_file, capsys):
    # each node walks the entries of its symbol, not the 2^30 state tuples
    path = wta_file(WIDE_NONDET)
    start = time.perf_counter()
    assert main(["eval", path, "--tree", WIDE_NONDET_TREE]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == "1610612736/5\n"


def test_equiv_with_an_unused_arity_40_symbol(wta_file, capsys):
    # f labels no entry on either side, so none of its 2^40 tuples is met
    path = wta_file(UNUSED_WIDE)
    other = wta_file(UNUSED_WIDE.replace("final q @ 1", "final q @ 2"), "b.wta")
    for argv, code, out in (
        (["equiv", path, path], 0, "equivalent\n"),
        (["equiv", path, other], 1, "not equivalent\n"),
    ):
        start = time.perf_counter()
        assert main(argv) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == out


def test_congruent_oracle_with_an_unused_arity_40_symbol(wta_file, capsys):
    # f labels no entry, so the oracle enumerates no context through it
    path = wta_file(UNUSED_WIDE)
    for m2, code, out in (
        ("2/3.gamma(gamma(alpha))", 0, "congruent\n"),
        ("1.gamma(alpha)", 1, "not congruent\n"),
    ):
        start = time.perf_counter()
        argv = ["congruent", path, "--mono", "1.alpha", "--mono", m2, "--oracle-depth", "2"]
        assert main(argv) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == out


def test_congruent_oracle_with_20_unused_leaves(wta_file, capsys):
    # no b_i labels an entry, so no side tree of a context is built from one
    path = wta_file(UNUSED_LEAVES)
    for m2, code, out in (
        ("1/18.sigma(sigma(alpha,alpha),alpha)", 0, "congruent\n"),
        ("1/6.sigma(alpha,alpha)", 1, "not congruent\n"),
        ("2/3.alpha", 1, "not congruent\n"),
    ):
        start = time.perf_counter()
        argv = ["congruent", path, "--mono", "1/3.alpha", "--mono", m2, "--oracle-depth", "3"]
        assert main(argv) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == out


WIDE_USED = """\
semifield rational
rank a 0
rank f 12
trans a() -> q @ 2
trans f(q,q,q,q,q,q,q,q,q,q,q,q) -> q @ 1/2
final q @ 1
"""


def _refuse_contexts(*args):
    raise AssertionError("a context was enumerated")


def test_oracle_depth_over_the_cap_exits_2_before_any_context(wta_file, capsys, monkeypatch):
    # f/12 labels a transition: 1, 13 and 319 489 contexts of height <= 0, 1, 2
    path = wta_file(WIDE_USED)
    argv = ["congruent", path, "--mono", "1.a", "--mono", "2.a"]
    with monkeypatch.context() as patch:
        patch.setattr(terms, "enumerate_contexts", _refuse_contexts)
        for depth in ("2", "3", "9" * 30):  # the count stops at the first height over the cap
            assert main(argv + ["--oracle-depth", depth]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: --oracle-depth {depth} is over the oracle's cap of "
                f"{congruence.ORACLE_CELLS} table cells: 319489 contexts of height "
                "<= 2 times 1 states\n"
            )
        # with the cap at 13, depth 1 is within it and depth 2 is not
        patch.setattr(congruence, "ORACLE_CELLS", 13)
        assert main(argv + ["--oracle-depth", "2"]) == 2
        assert "319489 contexts of height <= 2" in capsys.readouterr().err
    monkeypatch.setattr(congruence, "ORACLE_CELLS", 13)
    assert main(argv + ["--oracle-depth", "1"]) == 1
    assert capsys.readouterr().out == "not congruent\n"


def test_oracle_depth_cap_counts_one_cell_per_context_and_state(wta_file, capsys, monkeypatch):
    # a 40-state chain with f/5 on q0: 7 and 2 843 contexts of height <= 1
    # and 2, far under the cap, but 2 843 tables of 40 runs each are over it
    lines = ["semifield rational", "rank a 0", "rank g 1", "rank f 5", "trans a() -> q0 @ 1"]
    lines += [f"trans g(q{i}) -> q{i + 1} @ 1" for i in range(39)]
    lines += ["trans f(q0,q0,q0,q0,q0) -> q0 @ 2", "final q39 @ 1"]
    path = wta_file("\n".join(lines) + "\n")
    argv = ["congruent", path, "--mono", "1.a", "--mono", "1.a"]
    with monkeypatch.context() as patch:
        patch.setattr(terms, "enumerate_contexts", _refuse_contexts)
        assert main(argv + ["--oracle-depth", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: --oracle-depth 2 is over the oracle's cap of {congruence.ORACLE_CELLS} "
            "table cells: 2843 contexts of height <= 2 times 40 states\n"
        )
    assert 2843 < congruence.ORACLE_CELLS < 2843 * 40
    assert main(argv + ["--oracle-depth", "1"]) == 0
    assert capsys.readouterr().out == "congruent\n"


def test_oracle_depth_on_a_unary_chain_is_not_capped(wta_file, capsys, monkeypatch):
    # one unary symbol: height h has h + 1 contexts, of 2 states, so a large
    # depth is cheap
    path = wta_file(UNUSED_WIDE)
    argv = ["congruent", path, "--mono", "1.alpha", "--mono", "2/3.gamma(gamma(alpha))"]
    start = time.perf_counter()
    assert main(argv + ["--oracle-depth", "300"]) == 0
    assert time.perf_counter() - start < 2
    capsys.readouterr()
    monkeypatch.setattr(terms, "enumerate_contexts", _refuse_contexts)
    half = congruence.ORACLE_CELLS // 2
    assert main(argv + ["--oracle-depth", str(half)]) == 2
    assert f"{half + 1} contexts of height <= {half} times 2 states" in capsys.readouterr().err


def test_oracle_depth_past_sys_maxsize_over_leaves_alone(wta_file, capsys):
    # only leaves label a transition: z is the only context at every height
    path = wta_file(
        "semifield rational\nrank a 0\nrank b 0\n"
        "trans a() -> p @ 1\ntrans b() -> q @ 1\nfinal p @ 1\n"
    )
    argv = ["congruent", path, "--mono", "1.a", "--mono"]
    start = time.perf_counter()
    assert main(argv + ["1.a", "--oracle-depth", "99999999999999999999"]) == 0
    assert capsys.readouterr() == ("congruent\n", "")
    assert main(argv + ["2.a", "--oracle-depth", "99999999999999999999"]) == 1
    assert capsys.readouterr() == ("not congruent\n", "")
    assert time.perf_counter() - start < 2


def test_validate_nondeterministic(wta_file, capsys):
    assert main(["validate", wta_file(NONDET)]) == 0
    out = capsys.readouterr().out
    assert "bu-deterministic: no" in out
    assert "slim:" not in out


def test_eval(wta_file, capsys):
    assert main(["eval", wta_file(EVEN_ODD), "--tree", "sigma(alpha,alpha)"]) == 0
    assert capsys.readouterr().out == "8\n"


def test_eval_sink_is_zero(wta_file, capsys):
    assert main(["eval", wta_file(NON_SLIM), "--tree", "beta"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_eval_prints_answer_over_4300_digits(wta_file, capsys):
    # every weight 2: a balanced tree of height 14 has 32767 nodes
    doubling = (
        "semifield rational\nrank alpha 0\nrank sigma 2\n"
        "trans alpha() -> q @ 2\ntrans sigma(q,q) -> q @ 2\nfinal q @ 2\n"
    )
    tree = "alpha"
    for _ in range(14):
        tree = f"sigma({tree},{tree})"
    assert main(["eval", wta_file(doubling), "--tree", tree]) == 0
    with localcontext() as ctx:
        ctx.prec = 10000
        expected = str(Decimal(2) ** 32768)
    assert capsys.readouterr().out == expected + "\n"


def test_weights_over_4300_digits_parse(wta_file, capsys):
    nines = "9" * 5000
    text = (
        "semifield rational\nrank alpha 0\nrank beta 0\n"
        f"trans alpha() -> q @ {nines}\ntrans beta() -> q @ 1/{nines}\n"
        "final q @ 1/3\n"
    )
    assert format_wta(parse_wta(text)) == text
    path = wta_file(text)
    assert main(["eval", path, "--tree", "alpha"]) == 0
    assert capsys.readouterr().out == "3" * 5000 + "\n"
    assert main(["eval", path, "--tree", "beta"]) == 0
    assert capsys.readouterr().out == "1/2" + "9" * 4999 + "7\n"
    boolean = f"semifield boolean\nrank alpha 0\nfinal q @ {nines}\n"
    assert main(["validate", wta_file(boolean, "b.wta")]) == 2
    assert "must be 0 or 1" in capsys.readouterr().err


def test_million_digit_weight_round_trip_and_eval(wta_file, capsys):
    weight = ("1234567890" * 10**5)[:-1] + "1/2"  # 10^6 digits, in lowest terms
    text = (
        "semifield rational\nrank alpha 0\n"
        f"trans alpha() -> q @ {weight}\nfinal q @ 1\n"
    )
    assert format_wta(parse_wta(text)) == text
    assert main(["eval", wta_file(text), "--tree", "alpha"]) == 0
    assert capsys.readouterr().out == weight + "\n"


def test_state(wta_file, capsys):
    path = wta_file(EVEN_ODD)
    assert main(["state", path, "--tree", "sigma(alpha,alpha)"]) == 0
    assert capsys.readouterr().out == "e\n"


def test_state_sink(wta_file, capsys):
    assert main(["state", wta_file(NON_SLIM), "--tree", "beta"]) == 0
    assert capsys.readouterr().out == "⊥\n"


def test_check(wta_file, capsys):
    assert main(["check", wta_file(GAMMA3)]) == 0
    out = capsys.readouterr().out
    assert "bu-deterministic: yes" in out
    assert "minimal: no" in out
    assert "states: 3" in out
    assert "degree: 2" in out


def test_check_nondeterministic_exits_3(wta_file, capsys):
    assert main(["check", wta_file(NONDET)]) == 3
    captured = capsys.readouterr()
    assert "bu-deterministic: no" in captured.out
    assert "error" in captured.err


def test_minimize_to_file_and_equiv(wta_file, tmp_path, capsys):
    src = wta_file(GAMMA3)
    out_path = str(tmp_path / "min.wta")
    assert main(["minimize", src, "-o", out_path]) == 0
    assert capsys.readouterr().out == "states: 3 -> 2\n"
    assert main(["validate", out_path]) == 0
    capsys.readouterr()
    assert main(["equiv", src, out_path]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_minimize_when_a_symbol_has_a_basis_state_name(wta_file, tmp_path, capsys):
    src = wta_file(SYMBOL_C0__A)
    assert main(["check", src]) == 0
    assert "minimal: yes\n" in capsys.readouterr().out
    out_path = str(tmp_path / "min.wta")
    assert main(["minimize", src, "-o", out_path]) == 0
    assert capsys.readouterr().out == "states: 2 -> 2\n"
    assert main(["equiv", src, out_path]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_minimize_to_stdout(wta_file, capsys):
    assert main(["minimize", wta_file(TWO_LEAF)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("semifield rational\n")
    assert "trans beta() ->" in captured.out
    assert captured.err == "states: 2 -> 1\n"


def test_congruent_yes(wta_file, capsys):
    code = main(
        [
            "congruent",
            wta_file(EVEN_ODD),
            "--mono",
            "4.alpha",
            "--mono",
            "1.sigma(sigma(alpha,alpha),alpha)",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "congruent\n"


def test_congruent_no_exits_1(wta_file, capsys):
    code = main(
        ["congruent", wta_file(EVEN_ODD), "--mono", "1.alpha", "--mono", "2.alpha"]
    )
    assert code == 1
    assert capsys.readouterr().out == "not congruent\n"


def test_congruent_with_oracle_depth(wta_file, capsys):
    code = main(
        [
            "congruent",
            wta_file(TWO_LEAF),
            "--mono",
            "1.alpha",
            "--mono",
            "2.beta",
            "--oracle-depth",
            "2",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "congruent\n"


def test_oracle_disagreement_exits_4(wta_file, capsys, monkeypatch):
    # only a congruence the oracle refutes is a disagreement: a bounded
    # oracle that finds no separating context has not seen them all
    oracle = congruence.brute_force_congruent
    monkeypatch.setattr(congruence, "brute_force_congruent", lambda *args: not oracle(*args))
    argv = ["congruent", wta_file(TWO_LEAF), "--mono", "1.alpha", "--mono", "2.beta"]
    assert main(argv + ["--oracle-depth", "2"]) == 4
    assert capsys.readouterr() == (
        "",
        "internal error: refinement and bounded-context oracle disagree "
        "(refinement=True, oracle=False) on 1.alpha and 2.beta at oracle depth 2\n",
    )
    argv = ["congruent", wta_file(EVEN_ODD), "--mono", "1.alpha", "--mono", "1.sigma(alpha,alpha)"]
    assert main(argv + ["--oracle-depth", "2"]) == 1
    assert capsys.readouterr() == ("not congruent\n", "")


@pytest.mark.parametrize("depth", ["0", "1", "2", "3"])
def test_shallow_oracle_leaves_not_congruent(wta_file, capsys, depth):
    # gamma(z) separates the two; depth 0 sees z alone, which does not
    argv = ["congruent", wta_file(GAMMA3), "--mono", "1.alpha", "--mono", "2/3.gamma(alpha)"]
    assert main(argv + ["--oracle-depth", depth]) == 1
    assert capsys.readouterr() == ("not congruent\n", "")


def test_congruent_needs_two_monomials(wta_file, capsys):
    assert main(["congruent", wta_file(EVEN_ODD), "--mono", "1.alpha"]) == 2
    assert "two --mono" in capsys.readouterr().err


def test_congruent_nondeterministic_exits_3(wta_file, capsys):
    code = main(
        ["congruent", wta_file(NONDET), "--mono", "1.alpha", "--mono", "2.alpha"]
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_equiv_not_equivalent_exits_1(wta_file, capsys):
    changed = EVEN_ODD.replace("final o @ 3", "final o @ 4")
    code = main(["equiv", wta_file(EVEN_ODD), wta_file(changed, "b.wta")])
    assert code == 1
    assert capsys.readouterr().out == "not equivalent\n"


def test_equiv_alphabet_mismatch_exits_2(wta_file, capsys):
    code = main(["equiv", wta_file(EVEN_ODD), wta_file(GAMMA3, "b.wta")])
    assert code == 2
    assert "alphabet or semifield" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/nonexistent/x.wta"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_2(wta_file, capsys):
    assert main(["validate", wta_file("semifield rational\nrank z 0\n")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("trans alpha() @ 1 -> o", "expected 'trans SYM(...) -> q @ w'"),
    ("trans alpha() -> p @ " + "4" * 4400 + "/0", f"zero denominator in weight: '{'4' * 60}'"),
    ("rank beta " + "1" * 5000, f"bad arity '{'1' * 60}'"),
    ("rank beta \u0661", "bad arity '\u0661'"),
], ids=["misordered", "zero-denominator", "long-arity", "unicode-arity"])
def test_malformed_line_exits_2(wta_file, capsys, line, message):
    path = wta_file(EVEN_ODD.replace("final o @ 3", line))
    lineno = EVEN_ODD.splitlines().index("final o @ 3") + 1
    assert main(["validate", path]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: line {lineno}: {message}\n")


def test_zero_denominator_monomial_exits_2(wta_file, capsys):
    mono = "4" * 4400 + "/0.alpha"
    assert main(["congruent", wta_file(EVEN_ODD), "--mono", mono, "--mono", "1.alpha"]) == 2
    assert capsys.readouterr().err == f"error: zero denominator in weight: '{'4' * 60}'\n"


def test_bad_tree_exits_2(wta_file, capsys):
    assert main(["eval", wta_file(EVEN_ODD), "--tree", "sigma(alpha)"]) == 2
    assert "error" in capsys.readouterr().err


def test_tree_tokens_may_stand_apart_and_an_error_names_its_token(wta_file, capsys):
    path = wta_file(GAMMA3)
    assert main(["eval", path, "--tree", "gamma ( alpha\t) "]) == 0
    assert capsys.readouterr() == ("3\n", "")
    for tree, what in (("gamma(alpha,)", "expected a symbol, got"), ("gamma(alpha))", "trailing input")):
        assert main(["eval", path, "--tree", tree]) == 2
        assert capsys.readouterr() == ("", f"error: {what} ')' at offset 12, near {tree!r}\n")


def test_bad_monomial_exits_2(wta_file, capsys):
    code = main(
        ["congruent", wta_file(EVEN_ODD), "--mono", "alpha", "--mono", "1.alpha"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_minimize_to_unwritable_path_exits_2(wta_file, tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "out.wta"
    assert main(["minimize", wta_file(GAMMA3), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.wta"
    path.write_bytes(EVEN_ODD.replace("# counts", "# z\xe4hlt").encode("latin-1"))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_double_dash_option_value_exits_2(wta_file, capsys):
    path = wta_file(EVEN_ODD)
    for argv in (
        ["eval", path, "--tree=--"],
        ["eval", path, "--tree", "--"],
        ["congruent", path, "--mono=--", "--mono=1.alpha"],
        ["congruent", path, "--mono", "--", "--mono=1.alpha"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: '--' is neither a tree nor a monomial\n")


TROPICAL_LOOP = """\
semifield tropical
rank a 0
rank g 1
trans a() -> p @ 1
trans g(p) -> p @ -1
final p @ 0
"""


@pytest.mark.parametrize(
    "m1, m2, code",
    [("-2.g(a)", "-1.g(g(a))", 0), ("-1.a", "-1.g(a)", 1), ("-1.a", "0.a", 1), ("-1.b", "0.a", 2)],
)
def test_negative_monomials_read_alike_with_a_space(wta_file, capsys, m1, m2, code):
    path = wta_file(TROPICAL_LOOP)
    assert main(["congruent", path, "--mono", m1, "--mono", m2]) == code
    spaced = capsys.readouterr()
    assert main(["congruent", path, f"--mono={m1}", f"--mono={m2}"]) == code
    assert capsys.readouterr() == spaced


def test_mono_followed_by_double_dash_exits_2(wta_file, capsys):
    assert main(["congruent", wta_file(TROPICAL_LOOP), "--mono", "--", "--mono", "0.a"]) == 2
    assert capsys.readouterr().err == "error: '--' is neither a tree nor a monomial\n"


def test_tree_error_text_is_bounded(wta_file, capsys):
    path = wta_file(EVEN_ODD)
    for tree in ("sigma(" * 10**5, "alpha " + "b" * 10**5, "x" * 10**5 + "("):
        assert main(["eval", path, "--tree", tree]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200


def test_weight_error_text_is_bounded(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    huge = "7" * 10**5
    for text in (
        GAMMA3.replace("semifield rational", "semifield boolean").replace("@ 2", "@ " + huge),
        GAMMA3.replace("semifield rational", "semifield maxtimes").replace("@ 2", "@ -" + huge),
        GAMMA3.replace("semifield rational", "semifield " + "x" * 10**5),
    ):
        (tmp_path / "w.wta").write_text(text)
        assert main(["validate", "w.wta"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: w.wta: line ") and err.count("\n") == 1
        assert len(err.encode()) < 200


_MINIMIZE = importlib.import_module("budwta.minimize")


@pytest.mark.parametrize("command, owner, phase", [
    ("validate", automaton, "is_total"),
    ("eval", automaton, "evaluate"),
    ("state", automaton, "state_of"),
    ("check", _MINIMIZE, "minimality"),
    ("minimize", _MINIMIZE, "minimize"),
    ("congruent", congruence, "build_syntactic_quotient"),
    ("equiv", _MINIMIZE, "equivalent"),
])
def test_unexpected_exception_exits_4(wta_file, capsys, monkeypatch, command, owner, phase):
    path = wta_file(EVEN_ODD)
    argv = {
        "eval": ["eval", path, "--tree", "alpha"],
        "state": ["state", path, "--tree", "alpha"],
        "congruent": ["congruent", path, "--mono", "1.alpha", "--mono", "2.alpha"],
        "equiv": ["equiv", path, path],
    }.get(command, [command, path])

    def fail(*args):
        raise ZeroDivisionError("a fault\nover two lines " + "x" * 1000)

    monkeypatch.setattr(owner, phase, fail)
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ZeroDivisionError('a fault\\nover")
    assert err.count("\n") == 1 and len(err) < 400

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(owner, phase, interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(argv)


def test_failed_witness_check_exits_4(wta_file, capsys, monkeypatch):
    monkeypatch.setattr(automaton, "state_of", lambda a, t: None)
    assert main(["minimize", wta_file(GAMMA3)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError('the derived tree for state q1")


def test_eval_and_state_on_deep_spine(wta_file, capsys):
    # gamma^n(alpha) reaches q3, with final weight 2, for even n >= 2
    tree = "gamma(" * 10**5 + "alpha" + ")" * 10**5
    path = wta_file(GAMMA3)
    assert main(["eval", path, "--tree", tree]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["state", path, "--tree", tree]) == 0
    assert capsys.readouterr().out == "q3\n"


def test_check_builds_the_quotient_once(wta_file, capsys, monkeypatch):
    calls = []
    build = congruence.build_syntactic_quotient

    def counting(a):
        calls.append(a)
        return build(a)

    monkeypatch.setattr(congruence, "build_syntactic_quotient", counting)
    for text in (GAMMA3, NON_SLIM):
        calls.clear()
        assert main(["check", wta_file(text)]) == 0
        assert len(calls) == 1
    out = capsys.readouterr().out
    assert "slim: no\nminimal: no\nstates: 2\ndegree: 1\n" in out


def test_check_derives_the_reachable_states_once(wta_file, tmp_path, capsys, monkeypatch):
    calls = []
    reachable = automaton.reachable_states

    def counting(a):
        calls.append(a)
        return reachable(a)

    monkeypatch.setattr(automaton, "reachable_states", counting)
    for text, slim in ((GAMMA3, "yes"), (NON_SLIM, "no")):
        calls.clear()
        assert main(["check", wta_file(text)]) == 0
        assert len(calls) == 1
        assert f"slim: {slim}\n" in capsys.readouterr().out

    # each derivation over delta runs at most once per automaton object;
    # equiv reads the inverse view and the live sets, no ordered derivation
    runs = {"_least_keys": [], "_least_steps": [], "_inverse": [], "_live": []}

    def derivation(name):
        derive = getattr(automaton, name)

        def wrapper(a):
            runs[name].append(a)  # kept alive, so no two automata share an id
            return derive(a)

        return wrapper

    for name in runs:
        monkeypatch.setattr(automaton, name, derivation(name))
    out_path = str(tmp_path / "min.wta")
    ordered = {"_least_keys", "_least_steps", "_inverse"}
    unordered = {"_inverse", "_live"}
    for text in (GAMMA3, NON_SLIM, TWO_LEAF):
        path = wta_file(text)
        for argv, code, derived in (
            (["check", path], 0, ordered),
            (["minimize", path, "-o", out_path], 0, ordered),
            (["congruent", path, "--mono", "1.alpha", "--mono", "2.alpha"], 1, ordered),
            (["congruent", path, "--mono", "1.alpha", "--mono", "1.alpha", "--oracle-depth", "2"], 0, ordered),
            (["equiv", path, out_path], 0, unordered),
            (["equiv", path, path], 0, unordered),
        ):
            for seen in runs.values():
                seen.clear()
            assert main(argv) == code, argv
            assert {name for name, seen in runs.items() if seen} == derived, argv
            for name, seen in runs.items():
                assert len({id(a) for a in seen}) == len(seen), (argv, name)


def test_check_and_congruent_on_a_40_state_weighted_chain(wta_file, capsys):
    # the witness tree of q39 has 2^40 - 1 nodes (40 distinct ones), so its
    # weight is a product of 2^40 - 1 rationals: neither command computes it
    path = wta_file(format_wta(chain(random.Random(1502), sf.RATIONAL, 40)))
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == (
        "bu-deterministic: yes\n"
        "total: no\n"
        "slim: yes\n"
        "minimal: yes\n"
        "states: 40\n"
        "degree: 40\n"
    )
    argv = ["congruent", path, "--mono", "2.s(a,a)"]
    assert main(argv + ["--mono", "2.s(a,a)"]) == 0
    assert capsys.readouterr().out == "congruent\n"
    assert main(argv + ["--mono", "2.a"]) == 1
    assert capsys.readouterr().out == "not congruent\n"


def test_module_entry_point_runs_state(wta_file):
    path = wta_file(GAMMA3)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def cli(tree):
        argv = [sys.executable, "-m", "budwta.cli", "state", path, "--tree", tree]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    assert cli("gamma(gamma(alpha))") == (0, "q3\n", "")
    code, out, err = cli("beta")
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_minimize_and_two_equiv_build_each_automaton_once(wta_file, tmp_path, monkeypatch):
    built = []
    post_init = automaton.Wta.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(automaton.Wta, "__post_init__", counting)
    src = wta_file(GAMMA3)
    other = wta_file(GAMMA3.replace("final q3 @ 2", "final q3 @ 3"), "other.wta")
    out_path = str(tmp_path / "min.wta")
    assert main(["minimize", src, "-o", out_path]) == 0
    assert main(["equiv", src, out_path]) == 0
    assert main(["equiv", src, other]) == 1
    # one parse per file read, and the minimal automaton; slim builds none
    assert len(built) == 6


def test_the_shared_parser_keeps_no_state(wta_file, tmp_path, capsys, monkeypatch):
    calls = []
    oracle = congruence.brute_force_congruent

    def counting(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(congruence, "brute_force_congruent", counting)
    path = wta_file(TWO_LEAF)
    argv = ["congruent", path, "--mono", "1.alpha", "--mono", "2.beta"]
    assert main(argv + ["--oracle-depth", "2"]) == 0
    assert main(argv) == 0
    assert len(calls) == 1
    capsys.readouterr()
    out_path = str(tmp_path / "min.wta")
    assert main(["minimize", path, "-o", out_path]) == 0
    assert capsys.readouterr().out == "states: 2 -> 1\n"
    assert main(["minimize", path]) == 0
    assert capsys.readouterr().out.startswith("semifield rational\n")
    assert main(["eval", path, "--tree", "alpha"]) == 0
    assert main(["eval", path, "--tree=--"]) == 2


def test_congruent_negative_oracle_depth_exits_2(wta_file, capsys):
    argv = ["congruent", wta_file(EVEN_ODD), "--mono", "1.alpha", "--mono", "2.alpha"]
    assert main(argv + ["--oracle-depth", "-3"]) == 2
    assert "--oracle-depth" in capsys.readouterr().err


@pytest.mark.parametrize("depth", ["-1", "-0", "\u0661", "+1", "1_0", " 1", "1 ", "", "-", "9" * 5000])
def test_oracle_depth_takes_ascii_digits_only(wta_file, capsys, depth):
    argv = ["congruent", wta_file(EVEN_ODD), "--mono", "1.alpha", "--mono", "2.alpha"]
    assert main(argv + [f"--oracle-depth={depth}"]) == 2
    err = capsys.readouterr().err
    if depth.startswith("-") and depth[1:].isdigit():
        assert err == f"error: --oracle-depth must be >= 0, got {depth}\n"
    else:
        assert err.startswith("error: --oracle-depth must be ASCII digits, got ")
    assert main(argv + ["--oracle-depth=1"]) == 1


# --- exit codes on arbitrary input -------------------------------------------

_PIECES = st.sampled_from(
    ["alpha", "sigma", "gamma", "beta", "z", "(", ")", ",", ".", " ", "0", "1",
     "2", "-", "/", "inf", "é", "²", "٣", "\n", "\t", "@"]
)
_FRAGMENT = st.lists(_PIECES, max_size=25).map("".join)
_TEXT = st.one_of(
    _FRAGMENT,
    st.text(max_size=25),
    # deep nesting, closed or not
    st.builds(
        lambda head, n, mid, closed: head * n + mid + ")" * (n if closed else n // 2),
        st.sampled_from(["gamma(", "sigma(alpha,", "sigma(", "(", "z("]),
        st.one_of(st.sampled_from([1000, 5000]), st.integers(0, 5000)),
        _FRAGMENT,
        st.booleans(),
    ),
)
_WEIGHT = st.one_of(st.sampled_from(["1", "2", "1/2", "0", "inf"]), _FRAGMENT)
_MONOMIAL = st.one_of(_TEXT, st.builds("{}.{}".format, _WEIGHT, _TEXT))


@pytest.fixture(scope="module")
def wta_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for i, text in enumerate((EVEN_ODD, GAMMA3, NONDET)):
        paths.append(root / f"{i}.wta")
        paths[-1].write_text(text)
    return [str(p) for p in paths]


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["eval", "state"]), which=st.integers(0, 2), tree=_TEXT)
def test_tree_text_exits_with_a_contract_code(wta_paths, command, which, tree):
    assert _exit_code([command, wta_paths[which], f"--tree={tree}"]) in (0, 1, 2, 3, 4)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(which=st.integers(0, 2), m1=_MONOMIAL, m2=_MONOMIAL,
       depth=st.one_of(st.none(), st.integers(-2, 2)))
def test_monomial_text_exits_with_a_contract_code(wta_paths, which, m1, m2, depth):
    argv = ["congruent", wta_paths[which], f"--mono={m1}", f"--mono={m2}"]
    if depth is not None:
        argv.append(f"--oracle-depth={depth}")
    assert _exit_code(argv) in (0, 1, 2, 3, 4)


# .wta text: a valid automaton with up to three lines changed: a new weight,
# or a generated directive line with a mutated weight, arity, state or symbol
_NAME = st.sampled_from(["alpha", "sigma", "gamma", "p", "q1", "z", "1q", "", "a b"])
_ARITY = st.sampled_from(["0", "1", "2", "-1", "x", "\u00b2", "", "0 0"])
_WTA_WEIGHT = st.one_of(
    st.sampled_from(["1", "0", "2", "1/2", "-3", "inf", "1/0", "1.5", "", "4" * 5000]),
    st.text(max_size=8),
)
_LINE = st.one_of(
    st.builds("semifield {}".format, st.sampled_from(
        ["rational", "boolean", "maxtimes", "tropical", "real", ""])),
    st.builds("rank {} {}".format, _NAME, _ARITY),
    st.builds(
        "trans {}({}) -> {} @ {}".format,
        _NAME, st.lists(_NAME, max_size=3).map(",".join), _NAME, _WTA_WEIGHT,
    ),
    st.builds("final {} @ {}".format, _NAME, _WTA_WEIGHT),
    st.sampled_from(["", "# note", "trans", "final q1", "trans alpha -> o @ 1", "@"]),
    st.text(max_size=20),
)


@st.composite
def _wta_text(draw):
    lines = draw(st.sampled_from([EVEN_ODD, GAMMA3, TWO_LEAF])).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        head, at, _ = lines[i].rpartition("@")
        if at and draw(st.booleans()):  # a new weight on a weighted line
            lines[i] = f"{head}@ {draw(_WTA_WEIGHT)}"
        else:  # a generated line in place of this one, or before it
            lines[i : i + draw(st.integers(0, 1))] = [draw(_LINE)]
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=_wta_text())
def test_wta_text_raises_only_wta_error(tmp_path_factory, text):
    try:
        parse_wta(text)
    except WtaError:
        pass
    path = tmp_path_factory.mktemp("wta") / "f.wta"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    assert _exit_code(["validate", str(path)]) in (0, 1, 2, 3, 4)
