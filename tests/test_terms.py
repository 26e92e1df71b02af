import copy
import gc
import itertools
import pickle
import random
import re
import sys
import weakref
from functools import reduce

import pytest

from budwta import semifield as sf, terms
from budwta.automaton import Wta, evaluate, format_wta, parse_wta, slim, state_of
from budwta.scalar import parse_monomial
from budwta.terms import (
    RankedAlphabet,
    TermError,
    Tree,
    Z,
    enumerate_contexts,
    format_tree,
    height,
    parse_tree,
)

from conftest import EVEN_ODD
from corpus import (
    count_symbol,
    decompose_elementary,
    enumerate_trees,
    equal_alphabet,
    parse_context,
    postorder,
    reference_enumerate_contexts,
    reference_parse_tree,
    reference_trees_of_exact_height,
    small_corpus,
    substitute,
)

SIG = RankedAlphabet([("alpha", 0), ("sigma", 2)])
UNARY = RankedAlphabet([("gamma", 1), ("alpha", 0)])


def test_identifier_test_matches_the_ascii_pattern():
    pattern = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
    names = ["", "a b", "q\n", "a-b", "Z_9", "if", "x\u00b2", "\u212c", "a\u00e9"]
    names += [chr(i) for i in range(0x300)] + ["a" + chr(i) for i in range(0x300)]
    for name in names:
        assert terms._is_identifier(name) == bool(pattern.match(name)), name
    assert not terms._is_identifier(7)
    with pytest.raises(TermError, match="bad symbol name"):
        RankedAlphabet([(7, 0)])


def test_alphabet_validation():
    with pytest.raises(TermError):
        RankedAlphabet([])
    with pytest.raises(TermError):
        RankedAlphabet([("gamma", 1)])  # no nullary symbol
    with pytest.raises(TermError):
        RankedAlphabet([("alpha", 0), ("alpha", 1)])
    with pytest.raises(TermError):
        RankedAlphabet([("z", 0)])
    with pytest.raises(TermError):
        RankedAlphabet([("a\n", 0)])  # format_wta would write an unreadable rank line


def test_an_arity_is_a_natural_int():
    for k in (True, False, -1, 1.0, "1", None):
        with pytest.raises(TermError, match=f"^bad arity for g: {re.escape(repr(k))}$"):
            RankedAlphabet([("a", 0), ("g", k)])
    # every arity an alphabet takes, format_wta writes and parse_wta reads back
    one = sf.RATIONAL.one
    for k in (0, 1, 2):
        alphabet = RankedAlphabet([("a", 0), ("g", k)])
        delta = {((), "a", "q"): one, (("q",) * k, "g", "q"): one}
        text = format_wta(Wta(alphabet, ("q",), sf.RATIONAL, delta, {"q": one}))
        assert f"rank g {k}\n" in text
        assert format_wta(parse_wta(text)) == text


def test_parse_and_format():
    t = parse_tree("sigma(alpha,alpha)", SIG)
    assert t == Tree("sigma", (Tree("alpha"), Tree("alpha")))
    assert height(t) == 1
    assert parse_tree("alpha", SIG) == Tree("alpha")
    assert parse_tree("alpha()", SIG) == Tree("alpha")
    assert format_tree(t) == "sigma(alpha,alpha)"
    assert parse_tree(format_tree(t), SIG) == t


def test_parse_errors():
    with pytest.raises(TermError):
        parse_tree("sigma(alpha)", SIG)  # arity mismatch
    with pytest.raises(TermError):
        parse_tree("tau", SIG)  # unknown symbol
    with pytest.raises(TermError):
        parse_tree("sigma(alpha,alpha", SIG)  # missing paren
    with pytest.raises(TermError, match="^'z' is not allowed in a plain tree$"):
        parse_tree("z", SIG)
    with pytest.raises(TermError):
        parse_context("sigma(z,z)", SIG)  # two holes


def test_substitute_examples():
    alpha = parse_tree("alpha", SIG)
    assert substitute(Z, alpha) == alpha
    c = parse_context("sigma(z,alpha)", SIG)
    assert substitute(c, alpha) == parse_tree("sigma(alpha,alpha)", SIG)
    c2 = parse_context("sigma(alpha,z)", SIG)
    composed = substitute(c, c2)
    assert substitute(composed, alpha) == parse_tree(
        "sigma(sigma(alpha,alpha),alpha)", SIG
    )


def test_decompose_examples():
    assert decompose_elementary(Z) == []
    e = parse_context("sigma(alpha,z)", SIG)
    assert decompose_elementary(e) == [e]
    c = parse_context("sigma(sigma(z,alpha),alpha)", SIG)
    shallow = parse_context("sigma(z,alpha)", SIG)
    assert decompose_elementary(c) == [shallow, shallow]
    assert reduce(substitute, decompose_elementary(c), Z) == c


def test_context_monoid_laws():
    rng = random.Random(7)
    ctxs = list(enumerate_contexts(SIG, 2))
    for _ in range(200):
        c1, c2, c3 = (rng.choice(ctxs) for _ in range(3))
        assert substitute(substitute(c1, c2), c3) == substitute(c1, substitute(c2, c3))
        assert substitute(Z, c1) == c1
        assert substitute(c1, Z) == c1


def test_decompose_recompose_random():
    rng = random.Random(11)
    ctxs = list(enumerate_contexts(SIG, 3))
    for c in rng.sample(ctxs, 40):
        assert reduce(substitute, decompose_elementary(c), Z) == c


def test_enumerate_trees_examples():
    only_alpha = RankedAlphabet([("alpha", 0)])
    assert list(enumerate_trees(only_alpha, 0)) == [Tree("alpha")]
    assert [format_tree(t) for t in enumerate_trees(UNARY, 2)] == [
        "alpha",
        "gamma(alpha)",
        "gamma(gamma(alpha))",
    ]
    two_leaf = RankedAlphabet([("alpha", 0), ("beta", 0)])
    assert list(enumerate_contexts(two_leaf, 0)) == [Z]


def test_enumeration_distinct_and_counted():
    trees = list(enumerate_trees(SIG, 3))
    assert len(trees) == len(set(trees))
    # over {sigma/2, alpha/0}: 1, 1, 3, 21 trees of heights 0..3
    by_height = {}
    for t in trees:
        by_height[height(t)] = by_height.get(height(t), 0) + 1
    assert by_height == {0: 1, 1: 1, 2: 3, 3: 21}
    for t in trees:
        terms.validate_tree(t, SIG)


def _children_first(nodes, known=()):
    """Each node once, each child of a node either in ``known`` or earlier."""
    at = {id(node): i for i, node in enumerate(nodes)}
    assert len(at) == len(nodes)
    for i, node in enumerate(nodes):
        assert all(c in known or at.get(id(c), i) < i for c in node.children)


def test_validate_tree_returns_the_nodes_it_checks():
    t = parse_tree("sigma(sigma(alpha,sigma(alpha,alpha)),sigma(alpha,alpha))", SIG)
    nodes = terms.validate_tree(t, SIG)
    assert nodes[-1] is t
    assert [id(n) for n in nodes] == [id(n) for n in postorder(t)]
    assert len(nodes) == 4  # alpha, sigma(alpha,alpha), its parent, t
    _children_first(nodes)
    apart = parse_tree("sigma(alpha,alpha)", equal_alphabet(SIG))
    known = {apart: None}
    nodes = terms.validate_tree(t, SIG, known=known)
    assert [n.symbol for n in nodes] == ["alpha", "sigma", "sigma"]
    _children_first(nodes, known)
    assert terms.validate_tree(t, SIG, known={t: None}) == []


def test_a_parsed_tree_is_not_walked_again(monkeypatch):
    """`validate_tree` with no known subtree returns the parse's own node
    list for a tree that `parse_tree` built against this alphabet object
    and still remembers, and walks every other tree as before: one built
    by ``Tree``, one parsed against another alphabet object, any tree with
    a nonempty ``known``, and a parse dropped from the memo."""
    text = "sigma(sigma(alpha,sigma(alpha,alpha)),sigma(alpha,alpha))"
    alphabet = RankedAlphabet([("sigma", 2), ("alpha", 0)])
    t = parse_tree(text, alphabet)
    record = alphabet._nodes[id(t)]
    assert terms.validate_tree(t, alphabet) is record
    assert terms.validate_tree(t, alphabet, known={}) is record
    assert [id(n) for n in record] == [id(n) for n in postorder(t)]

    built = reduce(lambda x, _: Tree("sigma", (x, x)), range(2), Tree("alpha"))
    other = parse_tree(text, equal_alphabet(alphabet))
    sub = t.children[1]
    walked = [
        (built, alphabet, (), postorder(built)),
        (other, alphabet, (), postorder(other)),
        (t, alphabet, {sub: None}, [n for n in postorder(t) if n is not sub]),
    ]
    for tree, sigma, known, want in walked:
        nodes = terms.validate_tree(tree, sigma, known)
        assert [id(n) for n in nodes] == [id(n) for n in want]
        assert all(nodes is not r for r in alphabet._nodes.values())

    # a tree dropped from the memo is walked; the two memos stay in step
    monkeypatch.setattr(terms, "MEMO_CAP", 3)
    texts = ["alpha", "sigma(alpha,alpha)", "sigma(alpha,sigma(alpha,alpha))"]
    trees = [parse_tree(x, alphabet) for x in texts]
    assert t not in alphabet._parsed.values() and id(t) not in alphabet._nodes
    assert list(alphabet._nodes) == [id(x) for x in alphabet._parsed.values()]
    assert list(alphabet._parsed.values()) == trees
    nodes = terms.validate_tree(t, alphabet)
    assert nodes is not record and [id(n) for n in nodes] == [id(n) for n in record]
    for x in trees:
        assert terms.validate_tree(x, alphabet) is alphabet._nodes[id(x)]


def test_validate_tree_refuses_bad_nodes():
    alpha = Tree("alpha")
    with pytest.raises(TermError, match="arity 2, got 1"):
        terms.validate_tree(Tree("sigma", (Tree("sigma", (alpha, alpha)),)), SIG)
    with pytest.raises(TermError, match="unknown symbol"):
        terms.validate_tree(Tree("sigma", (alpha, Tree("beta"))), SIG)
    for z in (Z, Tree("z", (alpha,))):
        with pytest.raises(TermError, match="^'z' is not allowed in a plain tree$"):
            terms.validate_tree(Tree("sigma", (alpha, z)), SIG)


def test_validate_tree_names_the_first_bad_node_in_post_order():
    # beta is unknown and sigma has one child too few: beta comes first
    with pytest.raises(TermError, match="^unknown symbol: beta$"):
        terms.validate_tree(Tree("sigma", (Tree("beta"),)), SIG)


def test_enumeration_contexts_distinct():
    ctxs = list(enumerate_contexts(SIG, 3))
    assert len(ctxs) == len(set(ctxs))
    assert all(count_symbol(c, "z") == 1 for c in ctxs)
    assert all(height(c) <= 3 for c in ctxs)
    # K(d) = 1 + 2*K(d-1)*T(<=d-1): 1, 3, 13, 131
    assert len(ctxs) == 131


def test_context_counts_match_the_enumeration():
    alphabets = [SIG, UNARY, RankedAlphabet([("alpha", 0)]),
                 RankedAlphabet([("f", 3), ("gamma", 1), ("alpha", 0), ("beta", 0)]),
                 RankedAlphabet([("g", 1), ("g2", 1), ("alpha", 0)]),
                 RankedAlphabet([("f", 5), ("alpha", 0)])]
    for alphabet in alphabets:
        counts = list(itertools.islice(terms.context_counts(alphabet), 4))
        for h, n in enumerate(counts):
            if n > 10_000:
                break
            assert n == sum(1 for _ in enumerate_contexts(alphabet, h)), (alphabet, h)
        if len(counts) < 4:  # the counts stop once they stop growing
            assert counts == [1] and sum(1 for _ in enumerate_contexts(alphabet, 5)) == 1
    # 1, 13, 319 489 contexts for f/12: counted, not enumerated
    assert list(itertools.islice(terms.context_counts(
        RankedAlphabet([("f", 12), ("a", 0)])), 3)) == [1, 13, 319_489]


def test_enumeration_matches_the_reference_filter():
    # each alphabet with the greatest height at which the reference's
    # filter over every child tuple stays small
    for alphabet, top in [
        (SIG, 3), (UNARY, 4), (RankedAlphabet([("alpha", 0)]), 3),
        (RankedAlphabet([("f", 3), ("gamma", 1), ("alpha", 0), ("beta", 0)]), 2),
        (RankedAlphabet([("g", 1), ("g2", 1), ("alpha", 0)]), 4),
        (RankedAlphabet([("beta", 0), ("sigma", 2), ("gamma", 1), ("alpha", 0)]), 3),
        (RankedAlphabet([("g", 1), ("alpha", 0), ("beta", 0)]), 60),
    ]:
        for h in range(top + 1):
            got = list(enumerate_contexts(alphabet, h))
            want = list(reference_enumerate_contexts(alphabet, h))
            assert [format_tree(c) for c in got] == [format_tree(c) for c in want], (alphabet, h)
        lower = []
        for h in range(top + 1):
            lower += list(reference_trees_of_exact_height(alphabet, h, lower))
        assert [format_tree(t) for t in enumerate_trees(alphabet, top)] == [
            format_tree(t) for t in lower], alphabet


def test_enumeration_builds_each_context_from_one_tuple(monkeypatch):
    # each context and side tree is built from the one child tuple it has,
    # and no tuple is looked at and dropped: over a unary alphabet that is
    # O(1) per context, where filtering every tuple seen so far by the
    # height of its children was quadratic in the height
    built = []
    heights = []

    class Counted(Tree):
        __slots__ = ()

        def __init__(self, symbol, children=()):
            built.append(symbol)
            super().__init__(symbol, children)

    def counted_height(t):
        heights.append(t)
        return height(t)

    monkeypatch.setattr(terms, "Tree", Counted)
    monkeypatch.setattr(terms, "height", counted_height)
    contexts = list(enumerate_contexts(UNARY, 2000))
    assert len(contexts) == 2001 and height(contexts[-1]) == 2000
    assert len(built) == 2000 + 2000  # contexts but z, and the trees of height < 2000
    two = RankedAlphabet([("sigma", 2), ("gamma", 1), ("alpha", 0)])
    trees = sum(1 for _ in enumerate_trees(two, 2))
    built.clear()
    contexts = list(enumerate_contexts(two, 3))
    assert len(built) == len(contexts) - 1 + trees
    assert heights == []


def test_enumeration_is_height_then_declaration_order():
    trees = list(enumerate_trees(SIG, 2))
    heights = [height(t) for t in trees]
    assert heights == sorted(heights)
    assert trees[0] == Tree("alpha")
    assert trees[1] == parse_tree("sigma(alpha,alpha)", SIG)


def spine_text(depth, leaf="alpha"):
    return "gamma(" * depth + leaf + ")" * depth


def test_deep_spine_parse_format_compare():
    depth = 10**5
    text = spine_text(depth)
    t1, t2 = parse_tree(text, UNARY), parse_tree(text, equal_alphabet(UNARY))
    assert parse_tree(text, UNARY) is t1
    assert t1 is not t2
    assert t1 == t2 and hash(t1) == hash(t2)
    assert height(t1) == depth
    assert format_tree(t1) == text
    assert count_symbol(t1, "gamma") == depth
    terms.validate_tree(t1, UNARY)
    shorter = parse_tree(spine_text(depth - 1), UNARY)
    assert t1 != shorter and shorter != t1


def test_deep_context_decompose_substitute():
    depth = 10**4
    c = parse_context(spine_text(depth, "z"), UNARY)
    factors = decompose_elementary(c)
    assert len(factors) == depth
    assert set(factors) == {parse_context("gamma(z)", UNARY)}
    alpha = parse_tree("alpha", UNARY)
    assert substitute(c, alpha) == parse_tree(spine_text(depth), UNARY)
    assert substitute(c, c) == parse_context(spine_text(2 * depth, "z"), UNARY)


def test_parse_shares_equal_subtrees():
    t = parse_tree("sigma(sigma(alpha,alpha),sigma(alpha,alpha))", SIG)
    assert t.children[0] is t.children[1]
    assert t.children[0].children[0] is t.children[0].children[1]
    # a balanced tree of height 12 is a DAG of 13 nodes
    text = "alpha"
    for _ in range(12):
        text = f"sigma({text},{text})"
    big = parse_tree(text, SIG)
    assert height(big) == 12
    assert len(postorder(big)) == 13
    assert count_symbol(big, "alpha") == 2**12
    assert big == parse_tree(text, SIG)


def test_parse_memo_dies_with_the_automaton():
    a = parse_wta(EVEN_ODD)
    t = parse_tree("sigma(alpha,sigma(alpha,alpha))", a.alphabet)
    evaluate(a, t)
    m = parse_monomial("2/3.sigma(alpha,alpha)", a.alphabet, a.kind)
    assert a.alphabet._monomials
    ref = weakref.ref(a.alphabet)
    del a, t, m
    gc.collect()
    assert ref() is None


def test_failed_parse_is_not_remembered():
    alphabet = equal_alphabet(SIG)
    for text in ("sigma(alpha)", "tau", "sigma(alpha,alpha", "z", "sigma(z,alpha)", "alpha)", ""):
        with pytest.raises(TermError) as first:
            parse_tree(text, alphabet)
        with pytest.raises(TermError) as second:
            parse_tree(text, alphabet)
        assert str(second.value) == str(first.value)
    # a monomial's weight is read before its tree: "2" is no boolean weight
    for text, kind in (("sigma(alpha)", sf.RATIONAL), ("1.sigma(alpha)", sf.RATIONAL),
                       ("1/0.alpha", sf.RATIONAL), ("2.alpha", sf.BOOLEAN),
                       ("2.sigma(alpha)", sf.BOOLEAN), ("-1.alpha", sf.MAXTIMES)):
        with pytest.raises(ValueError) as first:
            parse_monomial(text, alphabet, kind)
        with pytest.raises(ValueError) as second:
            parse_monomial(text, alphabet, kind)
        assert (type(second.value), str(second.value)) == (type(first.value), str(first.value))
    assert alphabet._parsed == {} and alphabet._monomials == {}


def test_slim_shares_the_parse_memo():
    a = parse_wta(EVEN_ODD + "trans sigma(x,o) -> x @ 1\n")  # x is never reached
    s = slim(a)
    assert s.states != a.states
    text = "sigma(sigma(alpha,alpha),alpha)"
    assert parse_tree(text, s.alphabet) is parse_tree(text, a.alphabet)
    m = parse_monomial("3." + text, a.alphabet, a.kind)
    assert parse_monomial("3." + text, s.alphabet, s.kind) is m


def test_trees_are_immutable():
    t = parse_tree("sigma(alpha,alpha)", SIG)
    for name in ("symbol", "children"):
        with pytest.raises(AttributeError):
            setattr(t, name, getattr(t, name))
    assert copy.deepcopy(t) == t
    assert pickle.loads(pickle.dumps(t)) == t


def test_trees_and_alphabets_print_compare_and_hash_as_values():
    t = parse_tree("sigma(alpha,sigma(alpha,alpha))", SIG)
    assert str(t) == format_tree(t) == "sigma(alpha,sigma(alpha,alpha))"
    assert repr(t) == "Tree('sigma(alpha,sigma(alpha,alpha))')"
    again = equal_alphabet(SIG)
    assert again is not SIG and again == SIG and hash(again) == hash(SIG)
    assert len({SIG, again}) == 1 and again in {SIG} and {again: 1}[SIG] == 1
    assert repr(SIG) == "RankedAlphabet(alpha:0, sigma:2)"
    assert SIG._index == {"alpha": 0, "sigma": 1}
    swapped = RankedAlphabet([("sigma", 2), ("alpha", 0)])  # declaration order counts
    assert swapped != SIG and swapped._index == {"sigma": 0, "alpha": 1}
    for other in (format_tree(t), ("sigma", t.children), [("alpha", 0), ("sigma", 2)], None, 5):
        assert not t == other and t != other
        assert not SIG == other and SIG != other
    assert Tree.__eq__(t, format_tree(t)) is NotImplemented
    assert RankedAlphabet.__eq__(SIG, list(SIG._arity.items())) is NotImplemented


def test_parse_error_kinds():
    for text in ("", "(", "sigma(alpha,", "sigma(alpha alpha)", "sigma()",
                 "alpha(alpha)", "alpha)", "1", "sigma(alpha,alpha))"):
        with pytest.raises(TermError):
            parse_tree(text, SIG)
    with pytest.raises(TermError, match="^symbol z has arity 0, got 1 children$"):
        parse_context("sigma(z(alpha),alpha)", SIG)


def test_split_and_the_token_regex_see_the_same_whitespace():
    # parse_tree's tokens are str.split's words; _TOKEN_RE's \S reads
    # every other character, so both must skip exactly the same ones
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.sub(r"\s", "", chars) == "".join(chars.split())
    assert len(re.findall(r"\s", chars)) == 29


def _read_outcome(read, text, alphabet):
    try:
        t = read(text, alphabet)
    except Exception as error:
        return "error", type(error), str(error)
    return "tree", t, format_tree(t)


_SPACES = (" ", "\t", "\n", "\x1c", "\u2028", "\xa0", "\u3000", "")


def _respell(rng, text, leaves):
    """``text`` with whitespace around its tokens and ``()`` after some of
    its ``leaves``."""
    words = re.split(r"([(),])", text)
    out = []
    for word in words:
        if word in leaves and rng.random() < 0.3:
            word += rng.choice(("()", " ( )", "(\t)"))
        out += (rng.choice(_SPACES), word)
    return "".join(out) + rng.choice(_SPACES)


def _tree_texts():
    """The text of small trees over the small corpus' alphabets, with each
    alphabet, in all four semifields."""
    texts = []
    for kind in sf.KINDS:
        for a in small_corpus(kind, 9, seed=3401):
            texts += [(format_tree(t), a.alphabet) for t in enumerate_trees(a.alphabet, 2)][:40]
    return texts


def test_respelled_trees_read_as_the_token_regex_reads_them():
    rng = random.Random(3401)
    for text, alphabet in _tree_texts():
        tree = reference_parse_tree(text, alphabet)
        for _ in range(3):
            respelled = _respell(rng, text, alphabet.nullary_symbols())
            got = _read_outcome(parse_tree, respelled, alphabet)
            assert got == _read_outcome(reference_parse_tree, respelled, alphabet)
            assert got == ("tree", tree, text), repr(respelled)


_TREE_PIECES = ("\u00e4", "\u00e9", "z", ";", "9a", "()", ",,", "(", ")", ",", " ", "\xa0", "\x1c")


def test_mangled_trees_fail_as_the_token_regex_fails():
    rng = random.Random(3402)
    texts = _tree_texts()
    outcomes = []
    for _ in range(12000):
        text, alphabet = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            pieces = "".join(rng.choices(_TREE_PIECES, k=rng.randint(1, 2)))
            text = text[:i] + pieces + text[i + rng.randrange(3) :]
        got = _read_outcome(parse_tree, text, alphabet)
        assert got == _read_outcome(reference_parse_tree, text, alphabet), repr(text)
        outcomes.append(got[0])
    assert min(outcomes.count("tree"), outcomes.count("error")) > 300  # both outcomes
    for text in (b"alpha", 5, None, ["alpha"]):
        with pytest.raises(TypeError):
            parse_tree(text, SIG)


def test_distinct_texts_leave_each_parse_memo_at_its_cap():
    a = parse_wta(EVEN_ODD)
    alphabet = a.alphabet
    cap = terms.MEMO_CAP
    assert 1000 <= cap <= 10**4
    # 677 trees of height <= 4, each text behind 0-14 spaces: 10 155 texts
    texts = [" " * j + format_tree(t) for j in range(15) for t in enumerate_trees(alphabet, 4)]
    assert len(set(texts)) >= 10**4
    first = parse_tree(texts[0], alphabet)
    first_m = parse_monomial("1." + texts[0], alphabet, a.kind)
    for i, text in enumerate(texts):
        parse_tree(text, alphabet)
        parse_monomial(f"{i + 1}.{text}", alphabet, a.kind)
    assert len(alphabet._parsed) == cap
    assert list(alphabet._parsed) == texts[-cap:]  # the newest, in order
    assert len(alphabet._monomials) == cap
    assert texts[0] not in alphabet._parsed
    again = parse_tree(texts[0], alphabet)
    assert again is not first and again == first
    assert state_of(a, again) == state_of(a, first)
    assert evaluate(a, again) == evaluate(a, first)
    m = parse_monomial("1." + texts[0], alphabet, a.kind)
    assert m is not first_m and m == first_m
    assert len(alphabet._parsed) == len(alphabet._monomials) == cap
