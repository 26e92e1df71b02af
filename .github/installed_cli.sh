#!/usr/bin/env bash
# Installs budwta into the running Python and checks the installed `budwta`
# console script on README.md's counter.wta, the file respelled or with a
# duplicated line (a canonical copy after a respelled line among them), one
# final line respelled, commented, duplicated or naming the state z, its
# tree texts spaced apart or broken, abbreviated options, which exit 2, on a
# tropical file, and on wide-symbol
# files, the largest one-state f/10 oracle under
# the cap among them, a 2000-state sparse binary file, a 1600-state unary
# chain, a file of unused leaves, a depth-10000 oracle query, an oracle
# depth past sys.maxsize over leaves alone, a 40000-deep tropical spine and
# a 100000-deep rational spine, each of those under a 10 or 20 s timeout:
# stdout, exit codes and the stderr lines of file errors, of tree errors
# and of the oracle cap.  The .wta files are read in one pass: canonical
# trans and final lines by two splits, every other line with string
# methods and its true line number, one build, and on an error one ordered
# pass that names the first bad line.
#
# With BUDWTA_FROM_SRC=1 nothing is installed and no network is used: the
# checkout's src/ goes first on PYTHONPATH, and `budwta` runs
# `python -m budwta.cli`.
#
#     bash .github/installed_cli.sh                     # from the root of a checkout
#     BUDWTA_FROM_SRC=1 bash .github/installed_cli.sh   # the same, offline
set -euo pipefail
readme="$PWD/README.md"
tests="$PWD/tests"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
if [ -n "${BUDWTA_FROM_SRC:-}" ]; then
  export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
  mkdir "$work/bin"
  printf '#!/bin/sh\nexec python -m budwta.cli "$@"\n' > "$work/bin/budwta"
  chmod +x "$work/bin/budwta"
  PATH="$work/bin:$PATH"
else
  python -m pip install "setuptools>=68" wheel
  python -m pip install -e . --no-build-isolation
fi
cd "$work"
python -c 'import re, sys; text = open(sys.argv[1]).read(); start = text.index("saved as `counter.wta`:"); print(re.search(r"^```\n(.*?)^```$", text[start:], re.M | re.S)[1], end="")' "$readme" > counter.wta
test "$(budwta minimize counter.wta -o counter_min.wta)" = "states: 3 -> 2"
test "$(budwta equiv counter.wta counter_min.wta)" = "equivalent"
test "$(budwta check counter.wta)" = "$(printf 'bu-deterministic: yes\ntotal: yes\nslim: yes\nminimal: no\nstates: 3\ndegree: 2')"
test "$(budwta check counter_min.wta)" = "$(printf 'bu-deterministic: yes\ntotal: yes\nslim: yes\nminimal: yes\nstates: 2\ndegree: 2')"
test "$(budwta eval counter.wta --tree 'gamma(alpha)')" = "3"
test "$(budwta state counter.wta --tree 'gamma(gamma(alpha))')" = "q3"
# counter.wta respelled (CRLF line ends, a comment inside the trans block,
# one trans line spaced apart) is read line by line into the same
# automaton; a duplicated trans line is an input error that names its line
python -c 'import sys; lines = open("counter.wta").read().splitlines(); i = lines.index("trans gamma(q1) -> q2 @ 1"); lines[i:i + 1] = ["# the counter", "trans gamma( q1 )->q2 @1"]; sys.stdout.write("\r\n".join(lines) + "\r\n")' > respelled.wta
for command in check minimize; do
  code=0; want=$(budwta $command counter.wta) || code=$?
  got_code=0; got=$(budwta $command respelled.wta) || got_code=$?
  test "$got" = "$want"
  test "$got_code" -eq "$code"
done
awk '{ print } NR == 5 { print }' counter.wta > duplicated.wta
code=0; err=$(budwta check duplicated.wta 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: duplicated.wta: line 6: duplicate transition for gamma('q1',)"
# a canonical copy of the respelled line is named at its own line
awk '{ print } NR == 6 { print "trans gamma(q1) -> q2 @ 1\r" }' respelled.wta > respelled_duplicated.wta
code=0; err=$(budwta check respelled_duplicated.wta 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: respelled_duplicated.wta: line 7: duplicate transition for gamma('q1',)"
# a final line spaced apart or with a comment is read line by line into the
# same automaton; a duplicated final line is an input error that names its line
sed 's/^final q2 @ 3$/final  q2 @3/' counter.wta > final_spaced.wta
sed 's/^final q3 @ 2$/final q3 @ 2 # the last state/' counter.wta > final_commented.wta
grep -q '^final  q2 @3$' final_spaced.wta
grep -q '^final q3 @ 2 # the last state$' final_commented.wta
for file in final_spaced.wta final_commented.wta; do
  for command in check minimize; do
    code=0; want=$(budwta $command counter.wta) || code=$?
    got_code=0; got=$(budwta $command $file) || got_code=$?
    test "$got" = "$want"
    test "$got_code" -eq "$code"
  done
done
awk '{ print } NR == 9 { print }' counter.wta > duplicated_final.wta
code=0; err=$(budwta check duplicated_final.wta 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: duplicated_final.wta: line 10: duplicate final line for q2"
# a bad state name is named at the line where it is first used, here a
# final line spelled apart
sed 's/^final q2 @ 3$/final z @3/' counter.wta > final_z.wta
grep -q '^final z @3$' final_z.wta
code=0; err=$(budwta check final_z.wta 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: final_z.wta: line 9: bad state name 'z'"
# whitespace may stand between tree tokens; an error names the token at fault
test "$(budwta eval counter.wta --tree $'gamma ( alpha\t) ')" = "3"
code=0; err=$(budwta eval counter.wta --tree 'gamma(alpha,)' 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: expected a symbol, got ')' at offset 12, near 'gamma(alpha,)'"
code=0; err=$(budwta eval counter.wta --tree 'gamma(alpha))' 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: trailing input ')' at offset 12, near 'gamma(alpha))'"
# a 'z' in a tree is an input error: exit 2
code=0; budwta eval counter.wta --tree 'gamma(z)' || code=$?
test "$code" -eq 2
# rational monomial weights: a query answered yes exits 0, one answered no 1
test "$(budwta congruent counter.wta --mono 2/3.alpha --mono '2/3.gamma(gamma(alpha))' --oracle-depth 3)" = "congruent"
code=0; out=$(budwta congruent counter.wta --mono 3/2.alpha --mono '1.gamma(alpha)' --oracle-depth 3) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
code=0; out=$(budwta congruent counter.wta --mono 1.alpha --mono '1.gamma(alpha)' --oracle-depth 3) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
# a bounded oracle only refutes: at depth 0 it sees no context that
# separates these two, and the refinement's "not congruent" stands (exit 1)
code=0; out=$(budwta congruent counter.wta --mono 1.alpha --mono '2/3.gamma(alpha)' --oracle-depth 0) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
# only the documented option spellings are read: argparse would take --mon
# for --mono, whose value main attaches only as spelled, or --oracle for
# --oracle-depth, and reads such values differently from version to version
code=0; out=$(budwta congruent counter.wta --mono -1.alpha --mono 1.alpha) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
for abbreviated in "--mon -1.alpha --mono 1.alpha" "--mono 1.alpha --mono 1.alpha --oracle 1"; do
  code=0; out=$(budwta congruent counter.wta $abbreviated 2>/dev/null) || code=$?
  test "$code" -eq 2
  test -z "$out"
done
# zero monomials, spelt apart, are congruent to each other and to no other
test "$(budwta congruent counter.wta --mono 0/5.alpha --mono '-0.gamma(gamma(alpha))' --oracle-depth 3)" = "congruent"
code=0; out=$(budwta congruent counter.wta --mono 0.alpha --mono 1.alpha --oracle-depth 3) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
# tropical weights: inf is the zero, and 1 + 1 = 1/2 + 1 + 1/2
printf 'semifield tropical\nrank alpha 0\nrank gamma 1\ntrans alpha() -> q @ 1\ntrans gamma(q) -> q @ 1/2\nfinal q @ 0\n' > tropical.wta
test "$(budwta congruent tropical.wta --mono inf.alpha --mono 'inf.gamma(alpha)' --oracle-depth 3)" = "congruent"
test "$(budwta congruent tropical.wta --mono 1.alpha --mono '1/2.gamma(alpha)' --oracle-depth 3)" = "congruent"
code=0; out=$(budwta congruent tropical.wta --mono inf.alpha --mono 0.alpha --oracle-depth 3) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
# a malformed file is an input error: exit 2
printf 'semifield rational\nrank a 0\ntrans a() @ 1 -> q\n' > misordered.wta
code=0; budwta validate misordered.wta || code=$?
test "$code" -eq 2
# a non-bu-det entry of arity 30 is one term per node, not 2^30 state tuples
printf 'semifield rational\nrank alpha 0\nrank f 30\ntrans alpha() -> p @ 2\ntrans alpha() -> q @ 3\ntrans f(%sq) -> p @ 1/5\nfinal p @ 1\n' "$(printf 'p,%.0s' $(seq 29))" > wide.wta
test "$(timeout 20 budwta eval wide.wta --tree "f($(printf 'alpha,%.0s' $(seq 29))alpha)")" = "1610612736/5"
# equivalence looks at no tuple of a symbol that labels no transition
printf 'semifield rational\nrank alpha 0\nrank gamma 1\nrank f 40\ntrans alpha() -> p @ 2\ntrans gamma(p) -> q @ 3\ntrans gamma(q) -> p @ 1/2\nfinal q @ 1\n' > unused.wta
test "$(timeout 20 budwta equiv unused.wta unused.wta)" = "equivalent"
# the oracle enumerates no context through a symbol that labels no transition
test "$(timeout 20 budwta congruent unused.wta --mono 1.alpha --mono '2/3.gamma(gamma(alpha))' --oracle-depth 2)" = "congruent"
# equivalence is one pass over delta: a 2000-state sparse binary automaton
# against its minimum
PYTHONPATH="$tests${PYTHONPATH:+:$PYTHONPATH}" python -c 'import random, budwta, corpus; print(budwta.format_wta(corpus.sparse_binary(random.Random(1), budwta.RATIONAL, 2000)), end="")' > sparse.wta
budwta minimize sparse.wta -o sparse_min.wta > /dev/null
test "$(timeout 20 budwta equiv sparse.wta sparse_min.wta)" = "equivalent"
# a wide symbol that labels a transition: depth 3 is over the oracle's cap,
# refused from the count before any context is built
printf 'semifield rational\nrank a 0\nrank f 12\ntrans a() -> q @ 2\ntrans f(%sq) -> q @ 1/2\nfinal q @ 1\n' "$(printf 'q,%.0s' $(seq 11))" > wide_used.wta
code=0; err=$(timeout 10 budwta congruent wide_used.wta --mono 1.a --mono 2.a --oracle-depth 3 2>&1 >/dev/null) || code=$?
test "$code" -eq 2
test "$err" = "error: --oracle-depth 3 is over the oracle's cap of 100000 table cells: 319489 contexts of height <= 2 times 1 states"
# the largest one-state f/10 oracle under the cap: 56321 contexts of
# height <= 2, one table cell each
printf 'semifield rational\nrank a 0\nrank f 10\ntrans a() -> q @ 2\ntrans f(%sq) -> q @ 1/2\nfinal q @ 1\n' "$(printf 'q,%.0s' $(seq 9))" > f10.wta
test "$(timeout 10 budwta congruent f10.wta --mono 1.a --mono '1/256.f(a,a,a,a,a,a,a,a,a,a)' --oracle-depth 2)" = "congruent"
# the oracle groups states by their observation columns up to scale, one
# pass over each column: a 1600-state chain at depth 3
PYTHONPATH="$tests${PYTHONPATH:+:$PYTHONPATH}" python -c 'import random, budwta, corpus; print(budwta.format_wta(corpus.unary_chain(random.Random(1), budwta.RATIONAL, 1600)), end="")' > chain.wta
last="$(printf 'g(%.0s' $(seq 1599))a$(printf ')%.0s' $(seq 1599))"
test "$(timeout 20 budwta congruent chain.wta --mono 1.a --mono 1.a --oracle-depth 3)" = "congruent"
code=0; out=$(timeout 20 budwta congruent chain.wta --mono "1.$last" --mono "2.$last" --oracle-depth 3) || code=$?
test "$code" -eq 1
test "$out" = "not congruent"
# the oracle builds no side tree from the 20 leaves that label no transition
{ printf 'semifield rational\nrank sigma 2\nrank alpha 0\n'; printf 'rank b%s 0\n' $(seq 20); printf 'trans alpha() -> p @ 2\ntrans sigma(p,p) -> q @ 3\ntrans sigma(q,p) -> p @ 1/2\nfinal q @ 1\n'; } > leaves.wta
test "$(timeout 20 budwta congruent leaves.wta --mono 1/3.alpha --mono '1/18.sigma(sigma(alpha,alpha),alpha)' --oracle-depth 3)" = "congruent"
# contexts are built height by height from the height below: depth 10000 on
# a two-state unary file is 10001 contexts, 20002 table cells
printf 'semifield rational\nrank a 0\nrank g 1\ntrans a() -> p @ 1\ntrans g(p) -> q @ 1\ntrans g(q) -> p @ 1\nfinal q @ 1\n' > two_state.wta
code=0; out=$(timeout 20 budwta congruent two_state.wta --mono 1.a --mono '1.g(g(a))' --oracle-depth 10000) || code=$?
test "$code" -eq 0
test "$out" = "congruent"
# only leaves label a transition, so z is the only context: a depth past
# sys.maxsize is cut to height 0
printf 'semifield rational\nrank a 0\nrank b 0\ntrans a() -> p @ 1\ntrans b() -> q @ 1\nfinal p @ 1\n' > leaves_only.wta
code=0; out=$(timeout 10 budwta congruent leaves_only.wta --mono 1.a --mono 1.a --oracle-depth 99999999999999999999) || code=$?
test "$code" -eq 0
test "$out" = "congruent"
# a 40000-deep spine is parsed and run without recursion; its text, 120001
# characters, is under Linux's 128 KiB limit for one argument
printf 'semifield tropical\nrank a 0\nrank g 1\ntrans a() -> q @ 1\ntrans g(q) -> q @ 1/2\nfinal q @ 0\n' > spine.wta
spine="$(printf 'g(%.0s' $(seq 40000))a$(printf ')%.0s' $(seq 40000))"
test "$(timeout 20 budwta state spine.wta --tree "$spine")" = "q"
test "$(timeout 20 budwta eval spine.wta --tree "$spine")" = "20001"
# a 100000-deep rational spine folds its weights once per distinct weight:
# (2/3)^100000, a fraction of 77 816 digits.  Its text, 300001 characters, is over that
# limit, so `budwta eval` runs through the installed package's cli.main in
# process, and the answer is compared with format_weight's text, with no
# int -> str conversion
printf 'semifield rational\nrank a 0\nrank g 1\ntrans a() -> q @ 1\ntrans g(q) -> q @ 2/3\nfinal q @ 1\n' > rational_spine.wta
timeout 20 python -c '
import contextlib, io, sys
from fractions import Fraction
from budwta import cli, semifield
n = 10**5
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["eval", "rational_spine.wta", "--tree", "g(" * n + "a" + ")" * n])
sys.exit(code != 0 or out.getvalue() != semifield.format_weight(Fraction(2, 3) ** n) + "\n")
'
echo "installed CLI: all checks passed"
