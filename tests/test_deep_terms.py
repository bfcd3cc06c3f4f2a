"""A well-typed `--term` reads and prints at any depth: `parse_term` reads
it with a stack and `render_term` writes it with one, so neither spends a
frame per level. Any other term text gets its diagnostic at any depth, as
`Parser.parse_term` reads it with a stack too and `tag_ground_term` walks
it with one; so do rule terms. `==`, `hash` and `repr` walk a term with a
stack too, so a non-linear rule compares deep subterms. Terms here are
compared by loops where their tags matter, since `==` ignores tags.
Evaluation still takes frames per level of the term: the prelude's
traversal schemes take about one untraced.
"""

import contextlib
import io
import threading

import pytest

from stratcalc import cli
from stratcalc.parser import Parser, parse_program, parse_term
from stratcalc.printer import render_term
from stratcalc.terms import PAIR_NAME, FunApp, Record, Var, tag_ground_term
from stratcalc.typecheck import check_and_elaborate

from conftest import NAT_TREE_HEADER

DEPTH = 10000


def succ_chain(n):
    """succ^n(zero), as text and as an untagged term."""
    t = FunApp("zero", ())
    for _ in range(n):
        t = FunApp("succ", (t,))
    return "succ(" * n + "zero" + ")" * n, t


def left_spine(n):
    """fork(fork(...,leaf(zero)),leaf(zero)), n forks deep, as text and as
    an untagged term."""
    leaf = FunApp("leaf", (FunApp("zero", ()),))
    t = leaf
    for _ in range(n):
        t = FunApp("fork", (t, leaf))
    return "fork(" * n + "leaf(zero)" + ",leaf(zero))" * n, t


SHAPES = {"succ": succ_chain, "spine": left_spine}


def assert_same_names_and_tags(t, u):
    todo = [(t, u)]
    while todo:
        a, b = todo.pop()
        assert type(a) is FunApp and type(b) is FunApp
        assert a.name == b.name and a.tag is b.tag
        assert len(a.args) == len(b.args)
        todo.extend(zip(a.args, b.args))


@pytest.mark.parametrize("shape", SHAPES)
def test_deep_term_reads_as_tag_ground_term_tags_it(shape, nat_tree_ctx):
    text, t = SHAPES[shape](DEPTH)
    assert_same_names_and_tags(parse_term(text, nat_tree_ctx),
                               tag_ground_term(nat_tree_ctx, t))


@pytest.mark.parametrize("shape", SHAPES)
def test_parser_reads_a_deep_term(shape, nat_tree_ctx):
    text, _ = SHAPES[shape](DEPTH)
    assert_same_names_and_tags(
        tag_ground_term(nat_tree_ctx, Parser(text).parse_term()),
        parse_term(text, nat_tree_ctx))


@pytest.mark.parametrize("shape", SHAPES)
def test_deep_term_renders_as_its_source(shape, nat_tree_ctx):
    text, _ = SHAPES[shape](DEPTH)
    assert render_term(parse_term(text, nat_tree_ctx)) == text


@pytest.mark.parametrize("shape", SHAPES)
def test_cli_runs_id_on_a_deep_term(shape, capsys, tmp_path):
    text, _ = SHAPES[shape](DEPTH)
    src = tmp_path / "id.strat"
    src.write_text(NAT_TREE_HEADER)
    assert cli.main(["run", str(src), "--term", text]) == 0
    out, err = capsys.readouterr()
    assert out == text + "\n" and err == ""


def test_cli_runs_a_non_linear_rule_on_deep_equal_terms(capsys, tmp_path):
    # The rule's second N compares two separately read 10^4-deep subterms.
    text, _ = succ_chain(DEPTH)
    src = tmp_path / "dup.strat"
    src.write_text(NAT_TREE_HEADER.replace("main = id;",
                                           "main = (N, N) -> N;"))
    term = tmp_path / "pair.term"
    term.write_text("(%s,%s)" % (text, text))
    assert cli.main(["run", str(src), "--term", str(term)]) == 0
    assert capsys.readouterr() == (text + "\n", "")


def test_deep_equal_terms_compare_and_hash(nat_tree_ctx):
    text, _ = left_spine(DEPTH)
    t, u = parse_term(text, nat_tree_ctx), parse_term(text, nat_tree_ctx)
    assert t is not u and t == u and hash(t) == hash(u) and t != text
    assert {t: "found"}[u] == "found"
    # Unequal only at the bottom, past what the hash reads.
    w = parse_term(text.replace("leaf(zero)", "leaf(succ(zero))", 1),
                   nat_tree_ctx)
    assert t != w and not t == w


def test_cli_reports_a_deep_ill_typed_term(capsys, tmp_path):
    src = tmp_path / "id.strat"
    src.write_text(NAT_TREE_HEADER)
    text = "succ(" * DEPTH + "leaf(zero)" + ")" * DEPTH
    assert cli.main(["run", str(src), "--term", text]) == 2
    assert capsys.readouterr() == (
        "", "ERROR fun: argument 1 of succ has type Tree, expected Nat\n")


def test_cli_reports_a_deep_pair_type(capsys, tmp_path):
    # The diagnostic names the argument's 10^4-deep pair type, whose repr
    # is written with a stack.
    src = tmp_path / "id.strat"
    src.write_text(NAT_TREE_HEADER)
    text = "succ(" + "(zero," * DEPTH + "zero" + ")" * DEPTH + ")"
    assert cli.main(["run", str(src), "--term", text]) == 2
    want = "(Nat," * DEPTH + "Nat" + ")" * DEPTH
    assert capsys.readouterr() == (
        "", "ERROR fun: argument 1 of succ has type %s, expected Nat\n"
        % want)


def test_cli_reports_a_deep_malformed_term(capsys, tmp_path):
    src = tmp_path / "id.strat"
    src.write_text(NAT_TREE_HEADER)
    text = "succ(" * DEPTH + "zero" + ")" * (DEPTH - 1)
    assert cli.main(["run", str(src), "--term", text]) == 4
    assert capsys.readouterr() == ("", "parse error at 1:%d: expected ')', "
                                   "got 'end of input'\n" % (len(text) + 1))


def test_deep_rule_terms_parse_and_check():
    text, _ = succ_chain(DEPTH)
    program = parse_program(NAT_TREE_HEADER.replace(
        "main = id;", "main = zero -> N where N := id @ %s;" % text))
    diags, main_type, _ = check_and_elaborate(program)
    assert diags == [] and repr(main_type) == "Nat -> Nat"


def test_each_constant_is_built_once_per_read(nat_tree_ctx):
    t = parse_term("fork(leaf(zero),leaf(zero))", nat_tree_ctx)
    left, right = t.args
    assert left.args[0] is right.args[0]
    assert parse_term("zero", nat_tree_ctx) is not parse_term(
        "zero", nat_tree_ctx)


def test_repr_of_a_deep_term(nat_tree_ctx):
    text, _ = succ_chain(DEPTH)
    got = repr(parse_term(text, nat_tree_ctx))
    assert got == ("FunApp(name='succ', args=(" * DEPTH
                   + "FunApp(name='zero', args=(), tag=Nat)"
                   + ",), tag=Nat)" * DEPTH)


def test_repr_of_small_terms_is_records():
    # Record's repr writes one level and asks each child for its own.
    zero = FunApp("zero", ())
    pair = FunApp(PAIR_NAME, (zero, Var("N")))
    for t in [zero, FunApp("succ", (zero,)), pair, FunApp("f", (pair, pair,
              FunApp("succ", (Var("N"),))))]:
        assert repr(t) == Record.__repr__(t)
    assert repr(pair) == ("FunApp(name='(,)', args=(FunApp(name='zero', "
                          "args=(), tag=None), Var(name='N', tag=None)), "
                          "tag=None)")


def cli_in_thread(argv):
    """(exit code, stdout) of `cli.main(argv)`, run in a thread of its own,
    whose stack holds no caller's frames, writing to in-memory streams."""
    out, sink = [], io.StringIO()

    def request():
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            out.append(cli.main(argv))
    thread = threading.Thread(target=request)
    thread.start()
    thread.join()
    return out[0], sink.getvalue()


@pytest.mark.parametrize("trace, n", [(False, 900), (True, 240)])
@pytest.mark.parametrize("main", ["TD(id)", "BU(id)", "StopTD(fail)",
                                  "Try(OnceBU(fail))"])
def test_cli_runs_traversal_schemes_this_deep(main, trace, n, tmp_path):
    # At the default recursion limit, untraced, the fused body of each
    # scheme's instance takes one frame per level of the term: 984 levels
    # or more in this thread. Traced, each node takes frames of its own,
    # and a call's entry writes its body's line and the call's in one
    # frame, so each scheme reaches 245 levels.
    text, _ = succ_chain(n)
    src = tmp_path / "scheme.strat"
    src.write_text(NAT_TREE_HEADER.replace("main = id;", "main = %s;" % main))
    argv = ["run", str(src), "--term", text] + ["--trace"] * trace
    assert cli_in_thread(argv) == (0, text + "\n")


@pytest.mark.parametrize("trace, n", [(False, 320), (True, 190)])
@pytest.mark.parametrize("main", ["Repeat(extend(succ(N) -> N, TP))",
                                  "Innermost(extend(succ(N) -> N, TP))"])
def test_cli_repeats_a_step_this_often(main, trace, n, tmp_path):
    # Each step of Repeat, Innermost's loop, keeps three frames until the
    # loop ends (five traced): Repeat's entry, the entry of its copy of
    # Try, and the `;` of `v ; Repeat(v)`. Both reach 326 steps, 194 traced.
    text, _ = succ_chain(n)
    src = tmp_path / "repeat.strat"
    src.write_text(NAT_TREE_HEADER.replace("main = id;", "main = %s;" % main))
    argv = ["run", str(src), "--term", text] + ["--trace"] * trace
    assert cli_in_thread(argv) == (0, "zero\n")


COUNTER = """
sort Bits; con e : Bits; fun o : Bits -> Bits; fun i : Bits -> Bits;
var X : Bits; var Y : Bits;
def Dec : Bits -> Bits = (i(X) -> o(X)) + (o(X) -> i(Y) where Y := Dec @ X);
main = Repeat(extend(Dec, TP));
"""


def test_cli_counts_a_binary_counter_down(tmp_path):
    # i^8(e), least significant bit outermost, takes 255 steps of Repeat
    # to reach o^8(e); at three frames a step they fit the default limit.
    src = tmp_path / "counter.strat"
    src.write_text(COUNTER)
    argv = ["run", str(src), "--term", "i(" * 8 + "e" + ")" * 8]
    assert cli_in_thread(argv) == (0, "o(" * 8 + "e" + ")" * 8 + "\n")
