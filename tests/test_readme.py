"""The README's examples, run as written.

The two automaton files are taken from the README's own code blocks.  Every
``$ budwta ...`` line runs through `cli.main` and must print the lines shown
under it.  The Library block runs statement by statement; a statement whose
comment is a Python value must evaluate to that value.
"""

import ast
import re
import shlex
from fractions import Fraction
from pathlib import Path

from budwta import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


BLOCKS = [
    (m.start(), m.group(1))
    for m in re.finditer(r"^```[a-z]*\n(.*?)^```$", README, re.M | re.S)
]


def _block_after(marker: str) -> str:
    """The first fenced code block after ``marker`` in the README."""
    start = README.index(marker)
    return next(text for offset, text in BLOCKS if offset > start)


def _write_examples(directory: Path) -> None:
    (directory / "even_odd.wta").write_text(_block_after("## The `.wta` format"))
    (directory / "counter.wta").write_text(_block_after("saved as `counter.wta`:"))


def test_cli_example(tmp_path, monkeypatch, capsys):
    _write_examples(tmp_path)
    monkeypatch.chdir(tmp_path)
    session = next(text for _, text in BLOCKS if "$ budwta " in text).splitlines()
    commands = [i for i, line in enumerate(session) if line.startswith("$ budwta ")]
    assert len(commands) == 3
    for i, end in zip(commands, commands[1:] + [len(session)]):
        argv = shlex.split(session[i][2:])[1:]
        assert cli.main(argv) == 0, session[i]
        shown = "".join(line + "\n" for line in session[i + 1 : end])
        assert capsys.readouterr().out == shown, session[i]


def test_library_example(tmp_path, monkeypatch):
    _write_examples(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = _block_after("## Library")
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        source = ast.get_source_segment(code, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = eval(comment, {"Fraction": Fraction})
        except (SyntaxError, NameError):  # a comment in words
            exec(source, namespace)
            continue
        assert isinstance(stmt, ast.Expr), source
        assert eval(source, namespace) == expected, source
        checked.append(comment)
    assert checked == ["Fraction(8, 1)", "True", "True", "True, True"]
