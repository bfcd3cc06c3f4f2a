"""The shipped combinator library: declared types and behavior."""

import pytest

import stratcalc as sc
from stratcalc import syntax as S
from stratcalc.terms import (
    Arrow,
    CombinatorType,
    FAILURE,
    FunApp,
    Ok,
    PairType,
    TP_TYPE,
    TU,
    TypeVar,
    UNIT,
    Var,
)

from conftest import num, run_call
from randgen import Gen, NAT, TREE

A = TypeVar("a")
AA = Arrow(A, A)


def test_prelude_parses_and_checks():
    prelude = sc.load_prelude()
    diags = sc.check_and_elaborate(prelude)[0]
    assert diags == []


def test_declared_combinator_types():
    ctx = sc.load_prelude().context
    want = {
        "Try": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "Repeat": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "Con": CombinatorType((), (), TP_TYPE),
        "Fun": CombinatorType((), (), TP_TYPE),
        "Many": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "Some": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "TD": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "BU": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "OnceTD": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "OnceBU": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "Innermost": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "StopTD": CombinatorType((), (TP_TYPE,), TP_TYPE),
        "Chi": CombinatorType(("a",),
                              (TU(UNIT), Arrow(UNIT, A), Arrow(UNIT, A)),
                              TU(A)),
        "Any": CombinatorType(("a",), (TU(A),), TU(A)),
        "Tm": CombinatorType(("a",), (TU(A),), TU(A)),
        "Bm": CombinatorType(("a",), (TU(A),), TU(A)),
        "CF": CombinatorType(
            ("a",), (TU(A), Arrow(UNIT, A), Arrow(PairType(A, A), A)), TU(A)),
        "Crush": CombinatorType(
            ("a",), (TU(A), Arrow(UNIT, A), Arrow(PairType(A, A), A)), TU(A)),
        "StopCrush": CombinatorType(
            ("a",), (TU(A), Arrow(UNIT, A), Arrow(PairType(A, A), A)), TU(A)),
        "TryM": CombinatorType(("a",), (AA,), AA),
        "StopTDM": CombinatorType(("a",), (AA,), TP_TYPE),
    }
    for name, ct in want.items():
        assert ctx.combinators[name] == ct, name


def call(nat_tree, expr, term):
    src = expr if expr.endswith(";") else "main = %s;" % expr
    p = sc.parse_program(
        "sort Nat; sort Tree; con zero : Nat; fun succ : Nat -> Nat;"
        "fun leaf : Nat -> Tree; fun fork : Tree * Tree -> Tree;"
        "var N : Nat;\n" + src, prelude=sc.load_prelude())
    diags, _, core = sc.check_and_elaborate(p)
    assert diags == [], [d.render() for d in diags]
    return sc.run_program(core, sc.tag_term(p.context, term), sc.EvalConfig())


def test_con_detects_constants(nat_tree):
    assert call(nat_tree, "Con", FunApp("zero", ())) == Ok(FunApp("zero", ()))
    assert call(nat_tree, "Con", num(1)) == FAILURE


def test_fun_detects_compound_terms(nat_tree):
    assert call(nat_tree, "Fun", FunApp("zero", ())) == FAILURE
    assert call(nat_tree, "Fun", num(1)) == Ok(num(1))


def test_try_fail_is_identity(nat_tree):
    for t in [FunApp("zero", ()), num(3),
              FunApp("fork", (FunApp("leaf", (num(0),)),
                              FunApp("leaf", (num(1),))))]:
        assert call(nat_tree, "Try(fail)", t) == Ok(t)


def test_td_bu_identity(nat_tree):
    g = Gen(5)
    for _ in range(25):
        t = g.term(g.pick([NAT, TREE]))
        assert call(nat_tree, "TD(id)", t) == Ok(t)
        assert call(nat_tree, "BU(id)", t) == Ok(t)


def test_stoptd_extend_inc_increments_all(nat_tree):
    tree = FunApp("fork", (FunApp("leaf", (num(0),)),
                           FunApp("leaf", (num(1),))))
    got = call(nat_tree, "StopTD(extend(N -> succ(N), TP))", tree)
    assert got == Ok(FunApp("fork", (FunApp("leaf", (num(1),)),
                                     FunApp("leaf", (num(2),)))))


def test_repeat_terminates_at_fixpoint(nat_tree):
    got = call(nat_tree, "Repeat(extend(succ(N) -> N, TP))", num(4))
    assert got == Ok(num(0))


def test_stoptdm_vs_stoptd_distinguishing_pair(nat_tree):
    # An argument that is applicable at Nat but fails on zero:
    # the contract-checking variant fails, while the biased-choice
    # variant silently descends and succeeds.
    arg_m = "succ(N) -> N"
    tree = FunApp("leaf", (FunApp("zero", ()),))
    assert call(nat_tree, "StopTDM[Nat](%s)" % arg_m, tree) == FAILURE
    assert call(nat_tree, "StopTD(extend(%s, TP))" % arg_m, tree) == Ok(tree)


def test_stoptdm_rewrites_every_nat_of_a_tree(nat_tree):
    tree = FunApp("fork", (FunApp("leaf", (num(0),)),
                           FunApp("leaf", (num(1),))))
    got = call(nat_tree, "StopTDM[Nat](N -> succ(N))", tree)
    assert got == Ok(FunApp("fork", (FunApp("leaf", (num(1),)),
                                     FunApp("leaf", (num(2),)))))


def test_oncebu_rewrites_deepest_first(nat_tree):
    got = call(nat_tree, "OnceBU(extend(N -> succ(N), TP))",
               FunApp("leaf", (num(0),)))
    assert got == Ok(FunApp("leaf", (num(1),)))


def test_any_propagates_child_result(nat_tree):
    got = call(nat_tree,
               "Any[Nat](extend(N -> N, TU(Nat)))",
               FunApp("leaf", (num(2),)))
    assert got == Ok(num(2))


def test_crush_counts_with_add(problems):
    a = FunApp("a", ())
    got = run_call(sc.check_and_elaborate(problems)[2], "ProblemV",
                   sc.tag_term(problems.context,
                               FunApp("g", (FunApp("g", (a,)),))))
    assert got == Ok(num(2))
