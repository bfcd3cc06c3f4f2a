"""`parse_term` reads and tags a well-typed ground term in one pass, and
leaves every other text to the two-step path (`Parser(text).parse_term()`
then `tag_ground_term`), so each reply, error and position is as that
path gives it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from stratcalc import cli, parser, typecheck
from stratcalc.errors import ParseError, StratError
from stratcalc.parser import Parser, parse_term
from stratcalc.printer import render_term
from stratcalc.terms import Context, PairType, tag_ground_term

from conftest import NAT_TREE_HEADER, load_program, program_path
from randgen import NAT, TREE, UNIT, Gen, edited


def two_step(text, ctx):
    """The reader that parse_term falls back on, as it was before the
    one-pass reader."""
    p = Parser(text)
    t = p.parse_term()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError("trailing input after term: %r" % tok[1],
                         pos=(tok[2], tok[3]))
    return tag_ground_term(ctx, t)


def outcome(read, text, ctx):
    try:
        return read(text, ctx)
    except StratError as e:
        return (type(e), e.message, getattr(e, "line", None),
                getattr(e, "col", None), getattr(e, "pos", None))


def assert_same_nodes(t, u):
    """t and u are the same term with equal tags at every node; walked
    with a loop, so any depth is fine."""
    todo = [(t, u)]
    while todo:
        a, b = todo.pop()
        assert type(a) is type(b)
        assert getattr(a, "name", None) == getattr(b, "name", None)
        assert type(a.tag) is type(b.tag) and a.tag == b.tag
        assert len(a.args) == len(b.args)
        todo.extend(zip(a.args, b.args))


def assert_same_outcome(text, ctx):
    got, want = outcome(parse_term, text, ctx), outcome(two_step, text, ctx)
    if isinstance(want, tuple):
        assert got == want, text
    else:
        assert_same_nodes(got, want)


@pytest.fixture(scope="module")
def contexts(nat_tree):
    return {"nat_tree": nat_tree.context,
            "overload": load_program("overload.strat").context}


TERM_TYPES = [NAT, TREE, UNIT, PairType(NAT, TREE),
              PairType(UNIT, PairType(TREE, NAT))]
OVERLOAD_SEEDS = ["positive(notzero(succ(succ(i))))", "negative(i)", "zero",
                  "(notzero(i),negative(succ(i)))", "((i))"]
NAT_TREE_SEEDS = ["fork(leaf(succ(zero)),leaf(zero))", "(zero,())",
                  "succ(succ(zero))", "((leaf(zero)),zero)"]
EDIT_TOKENS = ["(", ")", ",", "()", "zero", "succ", "leaf", "fork", "i",
               "notzero", "positive", "N", "T1", "NO", "all", "main", "->",
               ":", "$", "Nat"]


@given(seed=st.integers(0, 10**9), type_index=st.integers(0, 4),
       name=st.sampled_from(["nat_tree", "overload"]))
@settings(deadline=None)
def test_rendered_terms_read_as_the_two_step_path(seed, type_index, name,
                                                  contexts):
    text = render_term(Gen(seed).term(TERM_TYPES[type_index]))
    assert_same_outcome(text, contexts[name])


@given(text=edited(NAT_TREE_SEEDS + OVERLOAD_SEEDS, EDIT_TOKENS),
       name=st.sampled_from(["nat_tree", "overload"]))
@settings(deadline=None)
def test_edited_terms_read_as_the_two_step_path(text, name, contexts):
    assert_same_outcome(text, contexts[name])


@pytest.mark.parametrize("text", [
    "", "(", "()", "(()", "((zero))", "(zero,zero,zero)", "zero()", "zero(",
    "succ", "succ(zero", "succ(zero,zero)", "succ(leaf(zero))", "succ()",
    "fork(leaf(zero) leaf(zero))", "fork(leaf(zero),)", "leaf((zero,zero))",
    "N", "succ(N)", "nope(zero)", "all", "zero zero", "zero)", "zero $",
    "# a comment\nsucc( zero )\n", "\n\n  leaf(zero)$", "(zero,\n  @)",
])
def test_edge_cases_read_as_the_two_step_path(text, nat_tree_ctx):
    assert_same_outcome(text, nat_tree_ctx)


def test_reserved_function_name_is_left_to_the_two_step_path():
    # A library context may declare a name the parser reserves; the term
    # is then the parse error the two-step path gives.
    ctx = Context()
    ctx.declare("sort", "Nat")
    ctx.declare("con", "all", ((), NAT))
    assert_same_outcome("all", ctx)
    with pytest.raises(ParseError, match="expected a term, got 'all'"):
        parse_term("all", ctx)


def test_declared_name_that_is_no_token_is_left_to_the_two_step_path():
    # A library context may declare a function whose name the tokenizer
    # rejects; the term is then the tokenizer's error.
    ctx = Context()
    ctx.declare("sort", "Nat")
    ctx.declare("con", "$", ((), NAT))
    assert_same_outcome("$", ctx)
    with pytest.raises(ParseError, match="unexpected character '\\$'"):
        parse_term("$", ctx)


def test_well_formed_term_is_read_in_one_pass(monkeypatch, nat_tree_ctx):
    def unused(*args):
        raise AssertionError("the two-step path ran")

    texts = ["fork(leaf(succ(zero)),fork(leaf(zero),leaf(zero)))",
             "((zero,()),leaf(zero))", "((succ(zero)))", " succ ( zero ) "]
    want = [two_step(text, nat_tree_ctx) for text in texts]
    monkeypatch.setattr(Parser, "parse_term", unused)
    monkeypatch.setattr(parser, "tag_ground_term", unused)
    for text, w in zip(texts, want):
        assert_same_nodes(parse_term(text, nat_tree_ctx), w)


def test_10000_deep_term_makes_one_parse_attempt(monkeypatch, capsys,
                                                 tmp_path):
    # The one-pass reader reads the term, and TD(id) then runs out of
    # stack, which the CLI reports; the term is read once, and Parser
    # never tokenizes it.
    term = "succ(" * 10000 + "zero" + ")" * 10000
    src = tmp_path / "td.strat"
    src.write_text(NAT_TREE_HEADER.replace("main = id;", "main = TD(id);"))
    reads, tokenized = [], []
    read, tokenize = typecheck.parse_term, parser.tokenize

    def counting_read(text, ctx):
        reads.append(text)
        return read(text, ctx)

    def recording_tokenize(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(typecheck, "parse_term", counting_read)
    monkeypatch.setattr(parser, "tokenize", recording_tokenize)
    assert cli.main(["run", str(src), "--term", term]) == 6
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("DepthExceeded: ")
    assert reads == [term]
    assert term not in tokenized


def test_cli_reports_an_ill_typed_term_as_before(capsys):
    # The fallback's message and exit code reach the CLI unchanged.
    path = program_path("problems.strat")
    assert cli.main(["run", path, "--term", "succ(leaf(zero))"]) == 2
    assert capsys.readouterr().err == (
        "ERROR fun: argument 1 of succ has type Tree, expected Nat\n")
    assert cli.main(["run", path, "--term", "succ(zero"]) == 4
    assert capsys.readouterr().err == (
        "parse error at 1:10: expected ')', got 'end of input'\n")
