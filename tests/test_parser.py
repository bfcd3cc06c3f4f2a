"""Concrete syntax: parsing, rendering, round trips, error positions."""

import os
import re

import pytest
from hypothesis import given, strategies as st

import stratcalc as sc
from stratcalc import errors as E
from stratcalc import syntax as S
from stratcalc.cli import main as cli_main
from stratcalc.parser import RESERVED, Parser, tokenize
from stratcalc.printer import render_strat
from stratcalc.terms import PAIR_NAME, UNIT_NAME, FunApp, Var

from randgen import Gen, NAT, TREE
from conftest import NAT_TREE_HEADER, assert_tuples_typed, raises_static

FLIPTOP = """
sort Nat;
sort Tree;
con zero : Nat;
fun succ : Nat -> Nat;
fun leaf : Nat -> Tree;
fun fork : Tree * Tree -> Tree;
var T1 : Tree;
var T2 : Tree;
def FlipTop : Tree -> Tree = fork(T1,T2) -> fork(T2,T1);
main = FlipTop;
"""


def test_fliptop_parses_to_rule_definition():
    p = sc.parse_program(FLIPTOP)
    body = p.definitions["FlipTop"].body
    assert isinstance(body, S.Rule)
    assert body.lhs == FunApp("fork", (Var("T1"), Var("T2")))
    assert body.rhs == FunApp("fork", (Var("T2"), Var("T1")))
    assert body.where == ()
    assert isinstance(p.main, S.Call) and p.main.name == "FlipTop"


def test_empty_file_rejected():
    with pytest.raises(E.ParseError):
        sc.parse_program("")


def test_bare_main_lchoice():
    p = sc.parse_program("main = id <+ fail;")
    assert p.main == S.LChoice(S.Id(), S.Fail())


def test_precedence_seq_over_choice_over_amp():
    p = sc.parse_program("main = id ; fail + id & fail;")
    assert p.main == S.AmpS(S.Choice(S.Seq(S.Id(), S.Fail()), S.Id()),
                            S.Fail())


def test_binary_operators_right_associative():
    p = sc.parse_program("main = id + fail + id;")
    assert p.main == S.Choice(S.Id(), S.Choice(S.Fail(), S.Id()))


def test_negation_binds_tighter_than_seq():
    p = sc.parse_program("main = !id ; fail;")
    assert p.main == S.Seq(S.Neg(S.Id()), S.Fail())
    # The operand of ! is one primary, a rule included.
    p = sc.parse_program("main = !!id ; fail;")
    assert p.main == S.Seq(S.Neg(S.Neg(S.Id())), S.Fail())
    p = sc.parse_program("main = !x -> y ; fail;")
    assert p.main == S.Seq(S.Neg(S.Rule(Var("x"), Var("y"))), S.Fail())


def test_congruence_forms(nat_tree):
    ctx_src = NAT_TREE_HEADER.replace("main = id;",
                                      "main = fork(id, leaf(fail));")
    p = sc.parse_program(ctx_src)
    diags, _, core = sc.check_and_elaborate(p)
    assert diags == []
    assert core.main == S.CongFun("fork", (S.Id(),
                                           S.CongFun("leaf", (S.Fail(),))))


def test_unit_and_pair_congruence():
    p = sc.parse_program("main = ((), (id, fail));")
    assert p.main == S.CongPair(S.CongUnit(), S.CongPair(S.Id(), S.Fail()))


def test_annot_syntax():
    p = sc.parse_program("sort Nat; main = (id : Nat -> Nat);")
    assert p.main == S.Annot(S.Id(), sc.Arrow(NAT, NAT))


def test_guard_and_extend_syntax():
    p = sc.parse_program("sort Nat; main = extend(guard(Nat, TP), TP);")
    assert p.main == S.Extend(S.TypeGuard(NAT, sc.TP_TYPE), sc.TP_TYPE)


def test_where_clause_parses_nested():
    src = NAT_TREE_HEADER.replace(
        "main = id;",
        "main = succ(N) -> succ(N1) where N1 := id @ N;")
    p = sc.parse_program(src)
    (body,) = p.main.where
    assert isinstance(body, S.Where)
    assert body.var == "N1" and body.arg == Var("N")
    assert p.main.rhs == FunApp("succ", (Var("N1"),))


def test_parse_error_carries_position():
    with pytest.raises(E.ParseError) as exc:
        sc.parse_program("main = ;")
    assert exc.value.pos == (1, 8)


def test_duplicate_definition_rejected():
    with raises_static("def", "duplicate definition of A") as exc:
        sc.parse_program("def A : TP = id; def A : TP = fail; main = A;")
    assert exc.value.pos == (1, 18)


def test_unknown_name_rejected():
    diags, _ = sc.check_program(sc.parse_program("main = Mystery;"))
    assert [d.render() for d in diags] == [
        "ERROR name at 1:8: unknown name Mystery"]


def test_mutually_recursive_defs_resolve():
    p = sc.parse_program(
        "def A : TP = B; def B : TP = A; main = A;")
    assert isinstance(p.definitions["A"].body, S.Call)
    assert p.definitions["A"].body.name == "B"


def test_parse_term_examples(nat_tree_ctx):
    t = sc.parse_term("fork(leaf(zero),leaf(zero))", nat_tree_ctx)
    assert t == FunApp("fork", (FunApp("leaf", (FunApp("zero", ()),)),) * 2)
    assert t.tag == TREE
    u = sc.parse_term("()", nat_tree_ctx)
    assert u == FunApp(UNIT_NAME, ()) and u.tag == sc.UNIT


def test_parse_term_builds_tuples_as_functions(nat_tree_ctx):
    text = "(zero,((),leaf(zero)))"
    zero = FunApp("zero", ())
    want = FunApp(PAIR_NAME, (zero, FunApp(PAIR_NAME, (
        FunApp(UNIT_NAME, ()), FunApp("leaf", (zero,))))))
    # The one-pass reader, and the two-step path it falls back on.
    for t in (sc.parse_term(text, nat_tree_ctx),
              sc.tag_term(nat_tree_ctx, Parser(text).parse_term())):
        assert t == want
        assert t.tag == sc.PairType(NAT, sc.PairType(sc.UNIT, TREE))
        assert_tuples_typed(t)
    # Parentheses around one term only group it.
    assert sc.parse_term("((zero))", nat_tree_ctx) == zero
    assert Parser("((zero))").parse_term() == Var("zero")


def test_rule_pattern_builds_tuples_as_functions():
    p = sc.parse_program(NAT_TREE_HEADER.replace(
        "main = id;", "main = (N, ()) -> N;"))
    assert p.main.lhs == FunApp(PAIR_NAME, (Var("N"), FunApp(UNIT_NAME, ())))
    diags, main_type, core = sc.check_and_elaborate(p)
    assert diags == [] and main_type == sc.Arrow(
        sc.PairType(NAT, sc.UNIT), NAT)
    lhs = core.main.lhs
    assert lhs.tag == sc.PairType(NAT, sc.UNIT)
    assert lhs.args[0].tag is NAT and lhs.args[1].tag is sc.UNIT


def test_parse_term_rejects_ill_sorted(nat_tree_ctx):
    with raises_static("fun",
                       "argument 1 of succ has type Tree, expected Nat"):
        sc.parse_term("succ(leaf(zero))", nat_tree_ctx)


def test_render_term_examples():
    zero = FunApp("zero", ())
    assert sc.render_term(FunApp("succ", (zero,))) == "succ(zero)"
    pair = FunApp(PAIR_NAME, (zero, FunApp(UNIT_NAME, ())))
    assert sc.render_term(pair) == "(zero,())"


def test_comments_ignored():
    p = sc.parse_program("# a comment\nmain = id; # trailing\n")
    assert p.main == S.Id()


def test_tokens_and_positions_across_odd_whitespace():
    # Tabs, "\r", "\x0b" and U+3000 are one column each; only "\n" ends a
    # line. A comment may end the file without a newline.
    text = "sort\tNat;\r\ncon zero\x0b: Nat;\n\u3000\tmain =\x0bid;  # end"
    assert tokenize(text) == [
        ("name", "sort", 1, 1), ("name", "Nat", 1, 6), ("op", ";", 1, 9),
        ("name", "con", 2, 1), ("name", "zero", 2, 5), ("op", ":", 2, 10),
        ("name", "Nat", 2, 12), ("op", ";", 2, 15),
        ("name", "main", 3, 3), ("op", "=", 3, 8), ("name", "id", 3, 10),
        ("op", ";", 3, 12), ("eof", "", 3, 20)]
    for bad, line, col, char in [("main =\r\n\t id $ ;", 2, 6, "'$'"),
                                 ("con z\u3000\u00e9 : N;", 1, 7, "'\u00e9'")]:
        with pytest.raises(E.ParseError) as exc:
            tokenize(bad)
        e = exc.value
        assert (e.pos, e.message) == (
            (line, col), "unexpected character " + char)


NESTED = {
    "call": lambda n: "Try(" * n + "id" + ")" * n,
    "congruence": lambda n: "succ(" * n + "id" + ")" * n,
    "pair-rule": lambda n: "(" * n + "N" + ",N)" * n + " -> N",
    "function-rule": lambda n: "succ(" * n + "N" + ")" * n + " -> N",
}


@pytest.mark.parametrize("depth", [50, 100])
@pytest.mark.parametrize("shape", sorted(NESTED))
def test_each_token_is_read_once(monkeypatch, shape, depth):
    text = "main = %s;" % NESTED[shape](depth)
    reads, errors = [], []
    next_token, init = Parser.next, E.ParseError.__init__

    def counting_next(self):
        reads.append(self.i)
        return next_token(self)

    def counting_init(self, *args):
        errors.append(args)
        init(self, *args)

    monkeypatch.setattr(Parser, "next", counting_next)
    monkeypatch.setattr(E.ParseError, "__init__", counting_init)
    sc.parse_program(text)
    assert errors == []
    assert reads == list(range(len(tokenize(text)) - 1))


@pytest.mark.parametrize("text,pos,message", [
    ("", (1, 1), "expected a term, got 'end of input'"),
    (")", (1, 1), "expected a term, got ')'"),
    ("(", (1, 2), "expected a term, got 'end of input'"),
    ("(()", (1, 4), "expected ')', got 'end of input'"),
    ("(zero,zero,zero)", (1, 11), "expected ')', got ','"),
    ("f(zero zero)", (1, 8), "expected ')', got 'zero'"),
    ("f(zero,)", (1, 8), "expected a term, got ')'"),
    ("f(,zero)", (1, 3), "expected a term, got ','"),
    ("((zero)", (1, 8), "expected ')', got 'end of input'"),
    ("(zero,\n  where)", (2, 3), "expected a term, got 'where'"),
    ("f(x,(y,z)", (1, 10), "expected ')', got 'end of input'"),
    ("all", (1, 1), "expected a term, got 'all'"),
])
def test_malformed_term_errors(text, pos, message):
    with pytest.raises(E.ParseError) as exc:
        Parser(text).parse_term()
    assert (exc.value.pos, exc.value.message) == (pos, message)


LHS_HEADER = "sort Nat; con x : Nat; fun f : Nat -> Nat; var N : Nat;\n"


def test_grouping_parentheses_in_terms(nat_tree_ctx):
    assert (sc.parse_term("succ((zero))", nat_tree_ctx)
            == sc.parse_term("succ(zero)", nat_tree_ctx))
    grouped = sc.parse_program(LHS_HEADER + "main = f((N)) -> N;").main
    plain = sc.parse_program(LHS_HEADER + "main = f(N) -> N;").main
    assert grouped == plain and repr(grouped) == repr(plain)
    assert plain.lhs == FunApp("f", (Var("N"),))


@pytest.mark.parametrize("main,col", [("id -> x", 8), ("f[Nat](N) -> N", 8),
                                      ("f(id) -> N", 10),
                                      ("(id : TP) -> x", 8)])
def test_left_hand_side_that_is_not_a_term(main, col, tmp_path, capsys):
    text = LHS_HEADER + "main = %s;" % main
    with pytest.raises(E.ParseError) as exc:
        sc.parse_program(text)
    assert exc.value.pos == (2, col)
    path = tmp_path / "lhs.strat"
    path.write_text(text)
    assert cli_main(["check", str(path)]) == 4
    assert capsys.readouterr().err.startswith("parse error at 2:%d: " % col)


# -- round trips ------------------------------------------------------------

@given(seed=st.integers(0, 10**6))
def test_term_render_parse_round_trip(seed, nat_tree_ctx):
    g = Gen(seed)
    tau = g.pick([NAT, TREE, sc.UNIT])
    t = g.term(tau)
    assert sc.parse_term(sc.render_term(t), nat_tree_ctx) == t


@given(seed=st.integers(0, 10**6))
def test_strategy_render_parse_round_trip(seed, nat_tree):
    g = Gen(seed)
    _, s = g.strategy()
    src = NAT_TREE_HEADER.replace("main = id;",
                                  "main = %s;" % render_strat(s))
    p = sc.parse_program(src, prelude=sc.load_prelude())
    assert p.main == as_parsed(s)
    assert (sc.type_and_core(p.context, p.main)[1]
            == sc.type_and_core(p.context, s)[1])


def as_parsed(x):
    """x as the parser gives it: every parameter and congruence on a named
    symbol is a bare name S.Call, and every constant in a term a Var."""
    if isinstance(x, S.ParamRef):
        return S.Call(x.name, (), (), x.pos)
    if isinstance(x, S.CongFun):
        return S.Call(x.name, (), as_parsed(x.args), x.pos)
    if isinstance(x, FunApp) and not x.args and x.name != UNIT_NAME:
        return Var(x.name)
    if isinstance(x, FunApp):
        return FunApp(x.name, as_parsed(x.args), x.tag)
    if isinstance(x, (S.StrategyExpr, S.RuleBody)):
        return type(x)(*[as_parsed(getattr(x, f))
                         for f in x._fields + x._uncompared])
    if isinstance(x, tuple):
        return tuple(as_parsed(y) for y in x)
    return x


def test_program_render_parse_round_trip(problems):
    text = sc.render_program(problems,
                             skip_defs=set(sc.load_prelude().definitions))
    again = sc.parse_program(text, prelude=sc.load_prelude())
    assert again.main == problems.main
    for name, d in problems.definitions.items():
        assert again.definitions[name].body == d.body


# One sample per operator and keyword form of the concrete syntax.
SPELLING_SAMPLES = [
    "id & fail", "id <& fail", "id &> fail",
    "id + fail", "id <+ fail", "id +> fail",
    "id ; fail",
    "id", "fail", "void",
    "all(id)", "one(id)", "select(id)",
    "reduce(id,void)", "spawn(void,void)",
    "extend(id, TP)", "restrict(id, Nat -> Nat)",
    "guard((Nat,()), TU(Nat) & Nat -> Nat)",
]


@pytest.mark.parametrize("text", SPELLING_SAMPLES)
def test_every_spelling_prints_as_parsed(text):
    main = sc.parse_program("sort Nat; main = %s;" % text).main
    assert render_strat(main) == text


def test_reserved_words_match_the_readme():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as f:
        text = f.read()
    words = re.search(r"Reserved words cannot be used as symbol names: `([^`]*)`",
                      text).group(1).split()
    assert sorted(words) == sorted(RESERVED)


def test_spelling_samples_cover_every_table_entry():
    tops = {type(sc.parse_program("sort Nat; main = %s;" % text).main)
            for text in SPELLING_SAMPLES}
    assert tops == {cls for cls, _ in [*S.OPERATORS.values(),
                                       *S.KEYWORDS.values()]}
