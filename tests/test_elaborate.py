"""Static elaboration: sugar expansion, extend annotation, idempotence,
type preservation. The checker's walk produces the core, so sugar is
expanded by `type_and_core` itself."""

import pytest
from hypothesis import given, strategies as st

import stratcalc as sc
from stratcalc import syntax as S
from stratcalc.elaborate import elaborate_program
from stratcalc.terms import Arrow, FunApp, TP_TYPE, Var, types_equal

from randgen import Gen, NAT, NN


INC = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))


def test_desugar_lchoice(nat_tree_ctx):
    # <+ is core: elaboration keeps it and only maps its operands.
    got = sc.type_and_core(nat_tree_ctx,
                           S.LChoice(S.Id(), S.TypeGuard(NAT, TP_TYPE)))[1]
    assert got == S.LChoice(S.Id(), sc.type_and_core(
        nat_tree_ctx, S.TypeGuard(NAT, TP_TYPE))[1])


def test_desugar_rchoice_flips(nat_tree_ctx):
    assert sc.type_and_core(nat_tree_ctx, S.RChoice(S.Id(), S.Fail()))[1] == \
        sc.type_and_core(nat_tree_ctx, S.LChoice(S.Fail(), S.Id()))[1]


def test_desugar_type_guard(nat_tree_ctx):
    got = sc.type_and_core(nat_tree_ctx, S.TypeGuard(NAT, TP_TYPE))[1]
    assert got == S.Extend(S.Annot(S.Restrict(S.Id(), NN), NN), TP_TYPE)


def sugar_free(x):
    assert not isinstance(x, (S.RChoice, S.TypeGuard, S.TLChoice,
                              S.TRChoice))
    for f in ("left", "right", "arg", "splus", "child"):
        child = getattr(x, f, None)
        if child is not None and not isinstance(child, (tuple, str)):
            sugar_free(child)


def test_desugar_removes_all_sugar_nodes(nat_tree_ctx):
    s = S.TLChoice(INC, S.RChoice(S.LChoice(S.Id(), S.Fail()),
                                  S.TypeGuard(NAT, TP_TYPE)))
    sugar_free(sc.type_and_core(nat_tree_ctx, s)[1])


def test_elaborate_annotates_extend(nat_tree_ctx):
    got = sc.type_and_core(nat_tree_ctx, S.Extend(INC, TP_TYPE))[1]
    assert isinstance(got, S.Extend)
    assert isinstance(got.arg, S.Annot)
    assert got.arg.stype == NN


def test_elaborate_homomorphic_elsewhere(nat_tree_ctx):
    assert sc.type_and_core(nat_tree_ctx, S.Id())[1] == S.Id()
    got = sc.type_and_core(nat_tree_ctx, S.Seq(S.Extend(INC, TP_TYPE),
                                               S.All(S.Id())))[1]
    assert got == S.Seq(S.Extend(S.Annot(INC, NN), TP_TYPE), S.All(S.Id()))


def test_elaborate_idempotent_on_programs(problems, overload, addition):
    for p in (problems, overload, addition):
        once = sc.check_and_elaborate(p)[2]
        twice = sc.check_and_elaborate(once)[2]
        assert twice.main == once.main
        for name in once.definitions:
            assert twice.definitions[name].body == once.definitions[name].body


def test_elaborated_program_still_checks(problems_elaborated):
    diags, main_type, _ = sc.check_and_elaborate(problems_elaborated)
    assert diags == [] and main_type == TP_TYPE


@given(seed=st.integers(0, 10**6))
def test_elaborate_preserves_types(seed, nat_tree_ctx):
    g = Gen(seed)
    pi, s = g.strategy()
    out = sc.type_and_core(nat_tree_ctx, s)[1]
    assert types_equal(sc.type_and_core(nat_tree_ctx, out)[0], pi)


@given(seed=st.integers(0, 10**6))
def test_elaborate_idempotent_random(seed, nat_tree_ctx):
    g = Gen(seed)
    _, s = g.strategy()
    once = sc.type_and_core(nat_tree_ctx, s)[1]
    assert sc.type_and_core(nat_tree_ctx, once)[1] == once


@given(seed=st.integers(0, 10**6))
def test_desugar_idempotent_on_output(seed, nat_tree_ctx):
    # Elaboration expands all the sugar the generator emits.
    g = Gen(seed)
    _, s = g.strategy()
    sugar_free(sc.type_and_core(nat_tree_ctx, s)[1])


def test_elaborate_program_raises_the_first_diagnostic(nat_tree_ctx):
    program = S.Program(nat_tree_ctx, {}, S.Seq(S.Void(), INC))
    diags = sc.check_and_elaborate(program)[0]
    with pytest.raises(sc.StaticError) as e:
        elaborate_program(program)
    assert (type(e.value), e.value.render()) == (type(diags[0]),
                                                 diags[0].render())
