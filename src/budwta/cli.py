"""Command line front end.

Exit codes: 0 success (or query answered yes), 1 query answered no,
2 input or parse error, 3 precondition violated, 4 internal consistency
failure (the refinement finds two monomials congruent and the
bounded-context oracle of ``--oracle-depth`` separates them, or any other
exception, reported on one ``internal error: ...`` line; the first names
the two monomials and the depth).  The oracle sees contexts up to a height
only, so it cannot refute a "not congruent"; it is built first all the
same, so a depth over its cap exits 2 whatever the answer.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import importlib

from . import automaton, congruence, scalar, semifield, terms

# the package re-exports the minimize() function under the same name as the
# module, so fetch the module itself
minimize = importlib.import_module(".minimize", __package__)
from .automaton import PreconditionError, Wta, WtaError

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class _CliInputError(Exception):
    pass


def _load(path: str) -> Wta:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliInputError(f"cannot read {path}: {exc}") from None
    try:
        return automaton.parse_wta(text)
    except WtaError as exc:
        raise _CliInputError(f"{path}: {exc}") from None


def _cmd_validate(args) -> int:
    a = _load(args.file)
    budet = automaton.is_bu_deterministic(a)
    print(f"semifield: {a.kind}")
    print(f"symbols: {len(a.alphabet.symbols())}")
    print(f"states: {len(a.states)}")
    print(f"bu-deterministic: {'yes' if budet else 'no'}")
    print(f"total: {'yes' if automaton.is_total(a) else 'no'}")
    if budet:
        print(f"slim: {'yes' if automaton.is_slim(a) else 'no'}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    a = _load(args.file)
    t = terms.parse_tree(args.tree, a.alphabet)
    print(semifield.format_weight(automaton.evaluate(a, t)))
    return EXIT_OK


def _cmd_state(args) -> int:
    a = _load(args.file)
    t = terms.parse_tree(args.tree, a.alphabet)
    q = automaton.state_of(a, t)
    print(q if q is not None else "⊥")
    return EXIT_OK


def _cmd_check(args) -> int:
    a = _load(args.file)
    budet = automaton.is_bu_deterministic(a)
    print(f"bu-deterministic: {'yes' if budet else 'no'}")
    print(f"total: {'yes' if automaton.is_total(a) else 'no'}")
    if not budet:
        print(
            "error: slimness, minimality and degree need a bu-deterministic "
            "automaton",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    slim, minimal, degree = minimize.minimality(a)
    print(f"slim: {'yes' if slim else 'no'}")
    print(f"minimal: {'yes' if minimal else 'no'}")
    print(f"states: {len(a.states)}")
    print(f"degree: {degree}")
    return EXIT_OK


def _cmd_minimize(args) -> int:
    a = _load(args.file)
    m = minimize.minimize(a)
    text = automaton.format_wta(m)
    counts = f"states: {len(a.states)} -> {len(m.states)}"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliInputError(f"cannot write {args.output}: {exc}") from None
        print(counts)
    else:
        sys.stdout.write(text)
        print(counts, file=sys.stderr)
    return EXIT_OK


def _cmd_congruent(args) -> int:
    text = args.oracle_depth  # ASCII digits, as a rank line's arity
    depth = None if text is None else automaton._ascii_natural(text)
    if text is not None and depth is None:
        if text.startswith("-") and automaton._ascii_natural(text[1:]) is not None:
            raise _CliInputError(f"--oracle-depth must be >= 0, got {text}")
        raise _CliInputError(f"--oracle-depth must be ASCII digits, got {text[:60]!r}")
    a = _load(args.file)
    automaton._require_budet(a)
    m1 = scalar.parse_monomial(args.monomials[0], a.alphabet, a.kind)
    m2 = scalar.parse_monomial(args.monomials[1], a.alphabet, a.kind)
    s = automaton.slim(a)
    try:  # an oracle over its cap is refused before any context is built
        refuted = depth is not None and not congruence.brute_force_congruent(s, m1, m2, depth)
    except congruence.OracleCapError as exc:
        raise _CliInputError(f"--oracle-depth {depth} is {exc}") from None
    answer = congruence.congruent(congruence.build_syntactic_quotient(s), m1, m2)
    # a bounded oracle can refute a congruence, never confirm one
    if answer and refuted:
        print(
            "internal error: refinement and bounded-context oracle disagree "
            f"(refinement=True, oracle=False) on {scalar.format_monomial(m1)} "
            f"and {scalar.format_monomial(m2)} at oracle depth {depth}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    print("congruent" if answer else "not congruent")
    return EXIT_OK if answer else EXIT_NO


def _cmd_equiv(args) -> int:
    a = _load(args.file1)
    b = _load(args.file2)
    if a.alphabet != b.alphabet or a.kind != b.kind:
        print("error: automata differ in alphabet or semifield", file=sys.stderr)
        return EXIT_INPUT
    answer = minimize.equivalent(a, b)
    print("equivalent" if answer else "not equivalent")
    return EXIT_OK if answer else EXIT_NO


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="budwta",
        description="weighted tree automata over commutative semifields",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "validate", help="load a .wta file and report basic facts", allow_abbrev=False
    )
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("eval", help="weight assigned to a tree", allow_abbrev=False)
    sp.add_argument("file")
    sp.add_argument("--tree", required=True)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("state", help="state reached by a tree", allow_abbrev=False)
    sp.add_argument("file")
    sp.add_argument("--tree", required=True)
    sp.set_defaults(func=_cmd_state)

    sp = sub.add_parser(
        "check", help="determinism, totality, slimness, minimality", allow_abbrev=False
    )
    sp.add_argument("file")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser(
        "minimize", help="write the minimal equivalent automaton", allow_abbrev=False
    )
    sp.add_argument("file")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=_cmd_minimize)

    sp = sub.add_parser(
        "congruent", help="decide syntactic congruence of monomials", allow_abbrev=False
    )
    sp.add_argument("file")
    sp.add_argument(
        "--mono",
        dest="monomials",
        action="append",
        required=True,
        metavar="WEIGHT.TREE",
    )
    sp.add_argument("--oracle-depth", default=None)
    sp.set_defaults(func=_cmd_congruent)

    sp = sub.add_parser("equiv", help="exact equivalence of two automata", allow_abbrev=False)
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.set_defaults(func=_cmd_equiv)

    return p


_PARSER = _build_parser()  # parse_args keeps no state between calls


def main(argv: Optional[List[str]] = None) -> int:
    # argparse takes a value such as -1.a for an option, and reads -- apart
    # from version to version: attach each --tree and --mono value, refuse --;
    # the parsers take no abbreviation, so these are the only spellings
    words = iter(sys.argv[1:] if argv is None else argv)
    argv = []
    for w in words:
        opt, eq, v = w.partition("=")
        if opt in ("--tree", "--mono"):
            v = v if eq else next(words, None)
            if v == "--":
                print("error: '--' is neither a tree nor a monomial", file=sys.stderr)
                return EXIT_INPUT
            w = w if v is None else f"{opt}={v}"
        argv.append(w)
    args = _PARSER.parse_args(argv)
    if getattr(args, "command", None) == "congruent" and len(args.monomials) != 2:
        print("error: congruent needs exactly two --mono arguments", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (_CliInputError, WtaError, terms.TermError,
            semifield.WeightSyntaxError, semifield.SemifieldError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # a fault of the program: exit 1 means "no"
        print(f"internal error: {exc!r}"[:300], file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
