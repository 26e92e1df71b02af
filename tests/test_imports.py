"""Every name a `budwta` module or `tests/corpus.py` imports is used in
that file, and every top-level function or class of them is named
somewhere else.

`__init__.py` is left out of the import check: its imports are the
package's exports.  The naming check searches the text of `src/`,
`tests/`, `bench/` and `README.md`, so a name that only a test, the
benchmark or the documentation uses still counts.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "budwta"
ROOT = SRC.parent.parent
CORPUS = ROOT / "tests" / "corpus.py"  # the reference oracles and generators
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + [CORPUS]
SEARCHED = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
SEARCHED.append(ROOT / "README.md")


def unused_imports(source: str):
    """The names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from typing import Dict, List\nimport itertools\nx: Dict = {}\n"
    assert unused_imports(source) == [(1, "List"), (2, "itertools")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unnamed_definitions(source: str, elsewhere: str):
    """The top-level functions and classes of ``source`` whose name occurs
    neither in ``elsewhere`` nor in ``source`` outside their own lines."""
    lines = source.splitlines()
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        rest = lines[: node.lineno - 1] + lines[node.end_lineno :] + [elsewhere]
        if not re.search(rf"\b{re.escape(node.name)}\b", "\n".join(rest)):
            out.append((node.lineno, node.name))
    return out


def test_the_check_sees_an_unnamed_definition():
    source = (
        "def used():\n    return 1\n\n\n"
        "def orphan():\n    return orphan() + used()\n\n\n"
        "class Kept:\n    pass\n"
    )
    assert unnamed_definitions(source, "k = Kept()") == [(5, "orphan")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + [CORPUS], ids=lambda p: p.name)
def test_every_definition_is_named_elsewhere(path):
    elsewhere = "\n".join(p.read_text(encoding="utf-8") for p in SEARCHED if p != path)
    assert unnamed_definitions(path.read_text(encoding="utf-8"), elsewhere) == []
