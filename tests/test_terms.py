"""Core term model: typing, the engine's matcher, substitution (the
reference's, which the engine's compiled right-hand sides replace),
context checks."""

import pytest
from hypothesis import given, strategies as st

import stratcalc as sc
from stratcalc import evaluate
from stratcalc.terms import (
    Context,
    FunApp,
    PairType,
    Sort,
    UNIT,
    Var,
)

from conftest import pair, raises_static, unit
from randgen import Gen, NAT, TREE
from reference_eval import substitute


def test_type_of_fork_of_leaves(nat_tree_ctx):
    t = FunApp("fork", (FunApp("leaf", (FunApp("zero", ()),)),
                        FunApp("leaf", (FunApp("zero", ()),))))
    assert sc.tag_term(nat_tree_ctx, t).tag == TREE


def test_type_of_empty_tuple(nat_tree_ctx):
    assert sc.tag_term(nat_tree_ctx, unit()).tag == UNIT


def test_type_of_pair(nat_tree_ctx):
    t = pair(FunApp("zero", ()), FunApp("leaf", (FunApp("zero", ()),)))
    assert sc.tag_term(nat_tree_ctx, t).tag == PairType(NAT, TREE)


def test_wrong_child_sort_rejected(nat_tree_ctx):
    t = FunApp("succ", (FunApp("leaf", (FunApp("zero", ()),)),))
    with raises_static("fun",
                       "argument 1 of succ has type Tree, expected Nat"):
        sc.tag_term(nat_tree_ctx, t).tag


def test_undeclared_symbol_rejected(nat_tree_ctx):
    with raises_static("con", "undeclared function nope"):
        sc.tag_term(nat_tree_ctx, FunApp("nope", ())).tag


def test_arity_mismatch_rejected(nat_tree_ctx):
    with raises_static("fun", "succ expects 1 arguments, got 0"):
        sc.tag_term(nat_tree_ctx, FunApp("succ", ())).tag


def test_unbound_variable_rejected(nat_tree_ctx):
    with raises_static("name", "unknown symbol Q in term"):
        sc.tag_term(nat_tree_ctx, Var("Q")).tag


def test_var_types_to_declared_sort(nat_tree_ctx):
    assert sc.tag_term(nat_tree_ctx, Var("T1")).tag == TREE


def test_match_binds_both_children():
    pat = FunApp("fork", (Var("T1"), Var("T2")))
    zero = FunApp("zero", ())
    subj = FunApp("fork", (FunApp("leaf", (zero,)),
                           FunApp("leaf", (FunApp("succ", (zero,)),))))
    theta = evaluate._matcher(pat)(subj)
    assert theta == {"T1": subj.args[0], "T2": subj.args[1]}


def test_match_constant_identity():
    assert evaluate._matcher(FunApp("zero", ()))(FunApp("zero", ())) == {}


def test_match_constructor_clash():
    succ = evaluate._matcher(FunApp("succ", (Var("N"),)))
    assert succ(FunApp("zero", ())) is None


def test_match_nonlinear_requires_equal_subterms():
    pat = FunApp("fork", (Var("T1"), Var("T1")))
    same = FunApp("leaf", (FunApp("zero", ()),))
    other = FunApp("leaf", (FunApp("succ", (FunApp("zero", ()),)),))
    fork = evaluate._matcher(pat)
    assert fork(FunApp("fork", (same, same))) == {"T1": same}
    assert fork(FunApp("fork", (same, other))) is None


def test_substitute_replaces_variable():
    out = substitute({"N": FunApp("zero", ())}, FunApp("succ", (Var("N"),)))
    assert out == FunApp("succ", (FunApp("zero", ()),))


def test_substitute_empty_theta():
    assert substitute({}, FunApp("zero", ())) == FunApp("zero", ())


def test_substitute_flips_pair_bindings():
    theta = {"T1": FunApp("leaf", (FunApp("zero", ()),)),
             "T2": FunApp("leaf", (FunApp("succ", (FunApp("zero", ()),)),))}
    out = substitute(theta, FunApp("fork", (Var("T2"), Var("T1"))))
    assert out == FunApp("fork", (theta["T2"], theta["T1"]))


def test_check_context_duplicate_sort():
    ctx = Context()
    ctx.declare("sort", "Nat", pos=(1, 1))
    ctx.declare("sort", "Nat", pos=(2, 1))
    diags = sc.check_context(ctx)
    assert [d.render() for d in diags] == [
        "ERROR ctx at 2:1: duplicate declaration of Nat"]


def test_check_context_empty_ok():
    assert sc.check_context(Context()) == []


def test_check_context_undeclared_sort_in_decl():
    ctx = Context()
    ctx.declare("fun", "succ", ((Sort("Nat"),), Sort("Nat")), (1, 1))
    diags = sc.check_context(ctx)
    assert {d.render() for d in diags} == {
        "ERROR ctx at 1:1: fun succ mentions undeclared sort Nat"}


def test_check_context_reports_each_undeclared_sort_once():
    # One diagnostic per undeclared sort of a declaration, in the order
    # the sorts are first mentioned, however often it mentions each.
    ctx = Context()
    ctx.declare("fun", "succ", ((Sort("Nat"),), Sort("Nat")), (1, 1))
    ctx.declare("fun", "f", ((Sort("B"), Sort("A"), Sort("B")), Sort("A")),
                (2, 1))
    ctx.declare("var", "P", PairType(Sort("Nat"), Sort("Nat")), (3, 1))
    assert [d.render() for d in sc.check_context(ctx)] == [
        "ERROR ctx at 1:1: fun succ mentions undeclared sort Nat",
        "ERROR ctx at 2:1: fun f mentions undeclared sort B",
        "ERROR ctx at 2:1: fun f mentions undeclared sort A",
        "ERROR ctx at 3:1: var P mentions undeclared sort Nat"]


def test_check_context_finds_no_sort_in_the_unit_type():
    ctx = Context()
    ctx.declare("var", "U", UNIT, (1, 1))
    ctx.declare("var", "P", PairType(Sort("Nat"), UNIT), (2, 1))
    assert [d.render() for d in sc.check_context(ctx)] == [
        "ERROR ctx at 2:1: var P mentions undeclared sort Nat"]


# -- properties over random ground terms ------------------------------------

_taus = st.sampled_from([NAT, TREE, UNIT, PairType(NAT, TREE)])


@given(seed=st.integers(0, 10**6), tau=_taus)
def test_match_substitute_round_trip(seed, tau):
    # Any substitution produced by matching rebuilds the subject exactly.
    g = Gen(seed)
    subj = g.term(tau)
    for pat in [subj, Var("N") if tau == NAT else None]:
        if pat is None:
            continue
        theta = evaluate._matcher(pat)(subj)
        assert theta is not None
        assert substitute(theta, pat) == subj


@given(seed=st.integers(0, 10**6), tau=_taus)
def test_term_typing_deterministic(seed, tau, nat_tree_ctx):
    g = Gen(seed)
    t = g.term(tau)
    first = sc.tag_term(nat_tree_ctx, t).tag
    assert first == tau
    assert sc.tag_term(nat_tree_ctx, t).tag == first


@given(seed=st.integers(0, 10**6))
def test_substitute_preserves_typing(seed, nat_tree_ctx):
    g = Gen(seed)
    pat = FunApp("fork", (Var("T1"), Var("T2")))
    theta = {"T1": g.term(TREE, 3), "T2": g.term(TREE, 3)}
    out = substitute(theta, pat)
    assert sc.tag_term(nat_tree_ctx, out).tag == TREE


@given(seed=st.integers(0, 10**6), tau=_taus)
def test_tagging_is_structure_preserving(seed, tau, nat_tree_ctx):
    g = Gen(seed)
    t = g.term(tau)
    tagged = sc.tag_term(nat_tree_ctx, t)
    assert tagged == t  # tags excluded from equality
    assert tagged.tag == tau
