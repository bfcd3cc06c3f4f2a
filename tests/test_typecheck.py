"""Typing judgements: well-formedness, genericity, composition, glb,
strategy/program typing, and a corpus of ill-typed programs that must be
rejected with a specific rule-tag."""

import copy
import pickle

import pytest

import stratcalc as sc
from stratcalc import errors as E
from stratcalc import syntax as S
from stratcalc.terms import (
    Amp,
    Arrow,
    FunApp,
    PairType,
    Sort,
    TP_TYPE,
    TU,
    TypeVar,
    UNIT,
    Var,
)
from stratcalc.typecheck import _unify, apply_type

from conftest import NAT_TREE_HEADER, raises_static
from randgen import NAT, TREE

BOOL = Sort("Boolean")
NN = Arrow(NAT, NAT)
TT = Arrow(TREE, TREE)


def nat_main(body):
    return NAT_TREE_HEADER.replace("main = id;", "main = %s;" % body)


# -- well-formedness --------------------------------------------------------

def test_wf_declared_sort(nat_tree_ctx):
    sc.wf_term_type(nat_tree_ctx, NAT)
    sc.wf_term_type(nat_tree_ctx, UNIT)
    sc.wf_term_type(nat_tree_ctx, PairType(NAT, TREE))


def test_wf_undeclared_sort_rejected(nat_tree_ctx):
    with raises_static("tau.1", "undeclared sort Foo"):
        sc.wf_term_type(nat_tree_ctx, Sort("Foo"))


def test_wf_unbound_type_var_rejected(nat_tree_ctx):
    # No program reaches tau.4: the parser reads a type variable only
    # where its definition binds it.
    with raises_static("tau.4", "type variable a is not in scope") as exc:
        sc.wf_term_type(nat_tree_ctx, TypeVar("a"))
    assert exc.value.render() == "ERROR tau.4: type variable a is not in scope"


def test_wf_strategy_types(nat_tree_ctx):
    sc.wf_strategy_type(nat_tree_ctx, TP_TYPE)
    sc.wf_strategy_type(nat_tree_ctx, TU(NAT))
    sc.wf_strategy_type(nat_tree_ctx, Amp(NN, TT))


def test_wf_overlapping_amp_rejected(nat_tree_ctx):
    with raises_static("pi.4", "overloaded branches share the domain Nat"):
        sc.wf_strategy_type(nat_tree_ctx, Amp(NN, Arrow(NAT, TREE)))


def test_wf_generic_amp_branch_rejected(nat_tree_ctx):
    with pytest.raises(E.StaticError) as exc:
        sc.wf_strategy_type(nat_tree_ctx, Amp(NN, TP_TYPE))
    assert exc.value.rule == "pi.4"


def test_overload_type_of_three_branches(overload):
    # The Inc/Dec signature types as a three-branch overloaded sum.
    pi, _ = sc.type_and_core(overload.context,
                             overload.definitions["Inc"].body)
    n1, n0, i = Sort("NatOne"), Sort("NatZero"), Sort("Int")
    assert sc.terms.types_equal(
        pi, Amp(Arrow(n1, n1), Amp(Arrow(n0, n0), Arrow(i, i))))


# -- domains ----------------------------------------------------------------

def test_domains_arrow():
    assert sc.domains(Arrow(NAT, TREE)) == frozenset([NAT])


def test_domains_amp_union():
    assert sc.domains(Amp(NN, TT)) == frozenset([NAT, TREE])


def test_domains_generic_undefined():
    with raises_static("dom", "domain of generic type TP is undefined"):
        sc.domains(TP_TYPE)
    # A sum with a generic branch, which rule pi.4 rejects, names it.
    with raises_static("dom", "domain of generic type TP is undefined"):
        sc.domains(Amp(NN, TP_TYPE))


# -- genericity -------------------------------------------------------------

def test_less_preserving_arrow_below_tp():
    assert sc.generically_less(NN, TP_TYPE)
    assert not sc.generically_less(Arrow(NAT, TREE), TP_TYPE)


def test_less_arrow_below_tu_by_codomain():
    assert sc.generically_less(Arrow(TREE, NAT), TU(NAT))
    assert not sc.generically_less(NN, TU(BOOL))


def test_less_branch_subset():
    assert sc.generically_less(NN, Amp(NN, TT))
    assert not sc.generically_less(Amp(NN, TT), NN)
    # Against a sum the branch sets decide, generic branches included.
    assert sc.generically_less(Amp(TP_TYPE, NN), Amp(TP_TYPE, Amp(NN, TT)))


def test_less_amp_below_generic():
    assert sc.generically_less(Amp(NN, TT), TP_TYPE)
    assert not sc.generically_less(Amp(NN, Arrow(TREE, NAT)), TP_TYPE)
    # A generic branch, which rule pi.4 rejects, is below neither TP nor TU.
    assert not sc.generically_less(Amp(TP_TYPE, NN), TP_TYPE)
    assert not sc.generically_less(Amp(TU(NAT), Arrow(TREE, NAT)), TU(NAT))


def test_less_is_irreflexive():
    for pi in [NN, TT, TP_TYPE, TU(NAT), Amp(NN, TT)]:
        assert not sc.generically_less(pi, pi)


# -- negation and composition of types -------------------------------------

def test_negatable_arrow_and_generics():
    assert sc.negatable(Arrow(NAT, TREE)) == NN
    assert sc.negatable(TU(NAT)) == TP_TYPE
    assert sc.negatable(TP_TYPE) == TP_TYPE


def test_negatable_amp_rejected():
    with raises_static("negt", "cannot negate overloaded type "
                       "Nat -> Nat & Tree -> Tree"):
        sc.negatable(Amp(NN, TT))


def test_composable_arrows():
    got = sc.composable(Arrow(NAT, TREE), Arrow(TREE, NAT))
    assert got == NN


def test_composable_tp_left():
    assert sc.composable(TP_TYPE, TU(NAT)) == TU(NAT)
    assert sc.composable(TP_TYPE, NN) == NN
    assert sc.composable(TP_TYPE, TP_TYPE) == TP_TYPE


def test_composable_tu_then_arrow():
    assert sc.composable(TU(NAT), Arrow(NAT, BOOL)) == TU(BOOL)


def test_composable_arrow_then_tp():
    assert sc.composable(Arrow(NAT, TREE), TP_TYPE) \
        == Arrow(NAT, TREE)


def test_composable_arrow_then_tu():
    assert sc.composable(Arrow(NAT, TREE), TU(NAT)) == \
        Arrow(NAT, NAT)


def test_composable_amp_pairwise():
    got = sc.composable(Amp(NN, TT), Amp(NN, TT))
    assert sc.terms.types_equal(got, Amp(NN, TT))


def test_composable_rejections():
    with raises_static("comp.1", "cannot compose Nat -> Tree with Nat -> Nat"):
        sc.composable(Arrow(NAT, TREE), NN)
    with raises_static("comp", "cannot compose TU(Nat) with TU(Tree)"):
        sc.composable(TU(NAT), TU(TREE))
    with raises_static("comp", "cannot compose TU(Nat) with TP"):
        sc.composable(TU(NAT), TP_TYPE)


# -- greatest lower bounds --------------------------------------------------

def test_glb_examples():
    assert sc.glb(TP_TYPE, TP_TYPE) == TP_TYPE
    assert sc.glb(NN, TP_TYPE) == NN
    with raises_static("choice", "types Nat -> Nat and Tree -> Tree have "
                       "no lower bound"):
        sc.glb(NN, TT)


def test_glb_symmetric_and_bounded():
    cases = [(NN, TP_TYPE), (Amp(NN, TT), TP_TYPE), (TU(NAT), TU(NAT)),
             (Amp(NN, TT), Amp(NN, Arrow(TREE, NAT)))]
    for p1, p2 in cases:
        g12 = sc.glb(p1, p2)
        g21 = sc.glb(p2, p1)
        assert sc.terms.types_equal(g12, g21)
        assert sc.generically_leq(g12, p1)
        assert sc.generically_leq(g12, p2)


def test_glb_amp_vs_generic_filters_branches():
    got = sc.glb(Amp(NN, TT), TU(NAT))
    assert got == Arrow(NAT, NAT)


# -- strategy typing --------------------------------------------------------

def test_add_types_to_pair_arrow(problems):
    pi, _ = sc.type_and_core(problems.context,
                             problems.definitions["Add"].body)
    assert pi == Arrow(PairType(NAT, NAT), NAT)


def test_extend_instance_accepted(nat_tree):
    inc = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))
    assert sc.type_and_core(nat_tree.context,
                            S.Extend(inc, TP_TYPE))[0] == TP_TYPE


def test_extend_non_instance_rejected(nat_tree):
    inc = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))
    with raises_static("extend", "Nat -> Nat is not an instance of TU(Tree)"):
        sc.type_and_core(nat_tree.context, S.Extend(inc, TU(TREE)))


def test_problem_types(problems):
    ctx = problems.context
    want = {"ProblemI": TP_TYPE, "ProblemII": TP_TYPE,
            "ProblemIII": TU(BOOL), "ProblemIV": TU(Sort("NatList")),
            "ProblemV": TU(NAT)}
    for name, pi in want.items():
        assert sc.type_and_core(ctx, problems.definitions[name].body)[0] == pi


@pytest.mark.parametrize("s", [S.CongFun("nosuch", ())])
def test_unknown_congruence_rejected(nat_tree_ctx, s):
    with raises_static("name", "unknown function nosuch in congruence"):
        sc.type_and_core(nat_tree_ctx, s)


@pytest.mark.parametrize("args", [(), (S.Id(), S.Id())])
def test_congruence_arity_rejected(nat_tree_ctx, args):
    s = S.CongFun("leaf", args)
    with pytest.raises(E.StaticError) as e:
        sc.type_and_core(nat_tree_ctx, s)
    assert e.value.rule == "cong"
    # Library input meets the same check before it runs.
    got = sc.apply_strategy(nat_tree_ctx, {}, s,
                            FunApp("leaf", (FunApp("zero", ()),)),
                            sc.EvalConfig())
    assert got.kind == "InternalTypeViolation"
    assert got.detail.startswith("runtime typing failed: ")


# -- application typing -----------------------------------------------------

def test_apply_id_to_constant(nat_tree_ctx):
    assert apply_type(nat_tree_ctx, sc.type_and_core(nat_tree_ctx, S.Id())[0],
                      sc.tag_term(nat_tree_ctx, FunApp("zero", ())).tag) == NAT


def test_apply_arrow_to_wrong_sort_rejected(nat_tree_ctx):
    inc = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))
    with pytest.raises(E.InapplicableType) as exc:
        apply_type(nat_tree_ctx, sc.type_and_core(nat_tree_ctx, inc)[0],
                   sc.tag_term(nat_tree_ctx,
                               FunApp("leaf", (FunApp("zero", ()),))).tag)
    assert exc.value.render() == ("ERROR apply: strategy of type Nat -> Nat "
                                  "is not applicable to a term of type Tree")
    # Copies and pickles keep the class, the rule and the position.
    for e in (exc.value, E.StaticError("undeclared sort Foo", (1, 2),
                                       rule="tau.1")):
        for other in (copy.copy(e), pickle.loads(pickle.dumps(e))):
            assert type(other) is type(e)
            assert (other.rule, other.pos, other.render()) \
                == (e.rule, e.pos, e.render())


def test_apply_overloaded_branch(overload):
    ctx = overload.context
    t = FunApp("positive", (FunApp("zero", ()),))
    pi = sc.type_and_core(ctx, S.Call("Inc", (), ()))[0]
    assert apply_type(ctx, pi, sc.tag_term(ctx, t).tag) == Sort("Int")
    with pytest.raises(E.InapplicableType) as exc:
        apply_type(ctx, pi, UNIT)
    assert exc.value.render() == (
        "ERROR apply: strategy of type %r is not applicable to a term of "
        "type ()" % (pi,))


def test_apply_tu_returns_result_type(problems):
    ctx = problems.context
    pi = sc.type_and_core(ctx, problems.definitions["ProblemV"].body)[0]
    assert apply_type(ctx, pi, Sort("A")) == NAT


# -- program checking -------------------------------------------------------

def test_prelude_alone_checks_with_main_id():
    p = sc.parse_program("main = id;", prelude=sc.load_prelude())
    diags, main_type, _ = sc.check_and_elaborate(p)
    assert diags == [] and main_type == TP_TYPE


def test_body_with_undeclared_param_rejected():
    diags = sc.check_and_elaborate(
        sc.parse_program("def A : TP = v; main = A;"))[0]
    assert [d.render() for d in diags] == ["ERROR name at 1:14: unknown name v"]


def test_problems_check_to_declared_types(problems):
    diags, main_type, _ = sc.check_and_elaborate(problems)
    assert diags == [] and main_type == TP_TYPE


# -- negative suite: ill-typed programs with expected rule-tags -------------

ILL_TYPED = [
    # choice branches with no common lower bound
    (nat_main("(N -> succ(N)) + (T1 -> T1)"), "choice",
     ["ERROR choice at 13:8: types Nat -> Nat and Tree -> Tree have no "
      "lower bound"]),
    # extend target is not a generic supertype of the argument
    (nat_main("extend(N -> succ(N), TU(Tree))"), "extend",
     ["ERROR extend at 13:8: Nat -> Nat is not an instance of TU(Tree)"]),
    # overloaded branches with overlapping domains
    (nat_main("(N -> succ(N)) & (N -> zero)"), "pi.4",
     ["ERROR pi.4 at 13:8: overloaded branches share the domain Nat"]),
    # rule pattern applies a symbol to the wrong sort
    (nat_main("succ(T1) -> T1"), "fun",
     ["ERROR fun at 13:8: argument 1 of succ has type Tree, expected Nat"]),
    # rule over a function the context does not declare
    (nat_main("foo(N) -> N"), "con",
     ["ERROR con at 13:8: undeclared function foo"]),
    # restriction to a type that is not an instance of the argument's
    (nat_main("restrict(void, Nat -> Nat)"), "restrict",
     ["ERROR restrict at 13:8: Nat -> Nat is not an instance of TU(())"]),
    # sequential composition with a codomain/domain clash
    (nat_main("(N -> leaf(N)) ; (N -> succ(N))"), "comp.1",
     ["ERROR comp.1 at 13:8: cannot compose Nat -> Tree with Nat -> Nat"]),
    # sequential composition of two type-unifying strategies
    (nat_main("void ; void"), "comp",
     ["ERROR comp at 13:8: cannot compose TU(()) with TU(())"]),
    # negation of an overloaded strategy
    (nat_main("!((N -> succ(N)) & (T1 -> T1))"), "negt",
     ["ERROR negt at 13:8: cannot negate overloaded type Nat -> Nat & "
      "Tree -> Tree"]),
    # all() applied to a non-type-preserving argument
    (nat_main("all(N -> succ(N))"), "all",
     ["ERROR all at 13:8: all needs a type-preserving argument, has "
      "Nat -> Nat"]),
    # undeclared sort mentioned in a guard type
    (nat_main("guard(Foo, TP)"), "tau.1",
     ["ERROR tau.1 at 13:8: undeclared sort Foo"]),
    # annotation that disagrees with the actual type
    (nat_main("(id : Nat -> Nat)"), "annot",
     ["ERROR annot at 13:8: annotation Nat -> Nat does not match actual "
      "type TP"]),
    # definition body disagrees with the declared result type
    (nat_main("A").replace(
        "main =", "def A : Nat -> Nat = T1 -> T1;\nmain ="), "def.3",
     ["ERROR def.3 at 13:1: body of A has type Tree -> Tree, declared "
      "Nat -> Nat"]),
    # combinator argument with the wrong declared type
    (nat_main("A(T1 -> T1)").replace(
        "main =",
        "def A(v) : (Nat -> Nat) -> TP = extend(v, TP);\nmain ="), "comb",
     ["ERROR comb at 14:8: argument 1 of A must have type Nat -> Nat, has "
      "Tree -> Tree"]),
    # spawn over a non-type-unifying operand
    (nat_main("spawn(id, void)"), "spawn",
     ["ERROR spawn at 13:8: spawn needs type-unifying operands, has TP and "
      "TU(())"]),
    # reduce composer that cannot fold pairs of results
    (nat_main("reduce(N -> succ(N), extend(N -> succ(N), TU(Nat)))"), "red",
     ["ERROR red at 13:8: reduce composer must admit (Nat,Nat) -> Nat, has "
      "Nat -> Nat"]),
]


def reject(src):
    """Parse/check one ill-typed program; return the diagnostics it is
    rejected with, rendered (empty means a false accept)."""
    try:
        program = sc.parse_program(src, prelude=sc.load_prelude())
    except E.StaticError as e:
        return [e.render()]
    diags = sc.check_and_elaborate(program)[0]
    return [d.render() for d in diags]


# Overloaded sums over type variables, each in a definition before main:
# two branch domains that some type arguments make equal share a domain,
# as two equal ones do, so the definition is rejected whatever its call.
AMP_OVER_TYPE_VARS = [
    ("def H[a,b](v,w) : (a -> a) * (b -> b) -> TP = extend(v & w, TP);",
     ["ERROR pi.4 at 13:54: overloaded branches share the domains a and b "
      "under some type arguments"]),
    ("def H[a](v,w) : (a -> a) * (Nat -> Nat) -> TP = extend(v & w, TP);",
     ["ERROR pi.4 at 13:56: overloaded branches share the domains a and Nat "
      "under some type arguments"]),
    ("def F[a](v) : ((a -> a) & (Nat -> Nat)) -> TP = extend(v, TP);",
     ["ERROR pi.4 at 13:1: overloaded branches share the domains a and Nat "
      "under some type arguments"]),
    ("def F[a](v) : (((a,Nat) -> (a,Nat)) & ((Nat,a) -> (Nat,a))) -> TP "
     "= extend(v, TP);",
     ["ERROR pi.4 at 13:1: overloaded branches share the domains (a,Nat) "
      "and (Nat,a) under some type arguments"]),
    # Disjoint for every type argument: no a makes (a,Nat) equal to
    # (Nat,Tree), nor a equal to (a,Nat).
    ("def G[a](v,w) : ((a,Nat) -> (a,Nat)) * ((Nat,Tree) -> (Nat,Tree)) -> TP"
     " = extend(v & w, TP);", []),
    ("def G[a](v,w) : (a -> a) * ((a,Nat) -> (a,Nat)) -> TP "
     "= extend(v & w, TP);", []),
]


@pytest.mark.parametrize("definition,rendered", AMP_OVER_TYPE_VARS)
def test_amp_over_type_variables(definition, rendered):
    assert reject(nat_main("id").replace(
        "main =", definition + "\nmain =")) == rendered


A, B, C = TypeVar("a"), TypeVar("b"), TypeVar("c")

# Term type pairs and whether some type arguments make them equal; each
# variable stands for one type wherever it occurs, including through a
# binding made earlier in the same walk.
UNIFY = [
    (A, B, True),
    (A, NAT, True),
    (NAT, TREE, False),
    (PairType(A, NAT), PairType(NAT, B), True),
    (PairType(A, A), PairType(NAT, TREE), False),
    (PairType(A, B), PairType(B, NAT), True),
    (PairType(PairType(A, B), A), PairType(PairType(B, NAT), TREE), False),
    (PairType(PairType(A, B), B), PairType(PairType(NAT, A), NAT), True),
    (A, PairType(A, NAT), False),
    (PairType(A, B), PairType(B, PairType(A, NAT)), False),
    # a = (b,Nat) and b = c, so c = a = (c,Nat) has no solution.
    (PairType(C, PairType(C, A)), PairType(A, PairType(B, PairType(B, NAT))),
     False),
    (PairType(A, UNIT), PairType(NAT, UNIT), True),
    (PairType(A, UNIT), A, False),
]


@pytest.mark.parametrize("t1,t2,unifies", UNIFY)
def test_unify_treats_each_type_variable_as_one_unknown(t1, t2, unifies):
    assert _unify(t1, t2) is unifies
    assert _unify(t2, t1) is unifies


@pytest.mark.parametrize("src,tag,rendered", ILL_TYPED,
                         ids=[t for _, t, _ in ILL_TYPED])
def test_ill_typed_program_rejected_with_tag(src, tag, rendered):
    got = reject(src)
    assert got, "ill-typed program was accepted"
    assert got == rendered
    assert all(line.startswith("ERROR %s " % tag) for line in got)
