from decimal import Decimal, localcontext

import pytest

from budwta.automaton import format_wta, parse_wta
from budwta.cli import main

from conftest import EVEN_ODD, GAMMA3, NON_SLIM, TWO_LEAF

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


def test_bad_tree_exits_2(wta_file, capsys):
    assert main(["eval", wta_file(EVEN_ODD), "--tree", "sigma(alpha)"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_monomial_exits_2(wta_file, capsys):
    code = main(
        ["congruent", wta_file(EVEN_ODD), "--mono", "alpha", "--mono", "1.alpha"]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err
