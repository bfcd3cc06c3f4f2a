"""The reduct: the evaluator shares every subterm a run did not change, and
`run_program` checks the tag of every node the run built, so a node
built ill-sorted is still `InternalTypeViolation: reduct is ill-typed`.
"""

import pytest
from hypothesis import given, settings, strategies as st

import stratcalc as sc
from stratcalc import cli, evaluate
from stratcalc import syntax as S
from stratcalc.terms import PAIR_NAME, FunApp, PairType, Sort, Var, tag_term

from conftest import load_program, program_path
from randgen import NAT, TREE, Gen
from test_differential import input_type, under_prelude

TREE_TEXT = "fork(fork(leaf(zero),leaf(succ(zero))),leaf(zero))"


@pytest.fixture(scope="module")
def problems_core():
    diags, _, core = sc.check_and_elaborate(load_program("problems.strat"))
    assert diags == []
    return core


def run_main(core, main, text):
    """Run `main`, checked in core's context, on the term that text reads
    as; returns the input term and the outcome."""
    diags, _, program = sc.check_and_elaborate(
        S.Program(core.context, core.definitions, main))
    assert diags == []
    t = sc.parse_term(text, core.context)
    return t, sc.run_program(program, t, sc.EvalConfig())


def call(name, *args):
    return S.Call(name, (), tuple(args))


EXTEND_G = S.Extend(S.CongFun("g", (S.Id(),)), sc.TP_TYPE)


# -- what did not change is shared ------------------------------------------------

@pytest.mark.parametrize("main,text", [
    (call("TD", S.Id()), TREE_TEXT),
    (call("Try", call("OnceBU", EXTEND_G)), TREE_TEXT),
    (call("Try", call("OnceBU", EXTEND_G)), "gp(g(gp(a)))"),
    (S.One(S.Id()), "succ(zero)"),
    (S.One(EXTEND_G), "gp(g(a))"),
    (S.All(S.Id()), "fork(leaf(zero),leaf(zero))"),
    (S.CongFun("fork", (S.Id(), S.Id())), "fork(leaf(zero),leaf(zero))"),
    (S.CongPair(call("IsNat"), S.CongFun("leaf", (call("IsNat"),))),
     "(zero,leaf(succ(zero)))"),
])
def test_unchanged_input_is_the_reduct_itself(problems_core, main, text):
    t, got = run_main(problems_core, main, text)
    assert got.term is t


def test_changed_node_shares_its_unchanged_children(problems_core):
    # one(ProblemI) rewrites the first child and keeps the second.
    t, got = run_main(problems_core, S.One(call("ProblemI")),
                      "fork(leaf(zero),fork(leaf(zero),leaf(zero)))")
    assert got.term.args[1] is t.args[1]
    assert got.term.args[0] is not t.args[0]


def substitute(theta, t):
    """t under theta, as a rule's compiled right-hand side builds it."""
    return evaluate._builder(t)(theta)


def test_substitute_returns_ground_subterms_as_they_are():
    zero = FunApp("zero", (), NAT)
    ground = FunApp("leaf", (FunApp("succ", (zero,), NAT),), TREE)
    pattern = FunApp("fork", (ground, FunApp("leaf", (Var("N", NAT),), TREE)),
                     TREE)
    got = substitute({"N": zero}, pattern)
    assert got.args[0] is ground and got.args[1].args[0] is zero
    assert substitute({"N": zero}, zero) is zero
    assert substitute({}, ground) is ground
    pair = FunApp(PAIR_NAME, (ground, zero), PairType(TREE, NAT))
    assert substitute({}, pair) is pair
    pattern = FunApp(PAIR_NAME, (ground, Var("N", NAT)))
    assert substitute({"N": zero}, pattern).args[0] is ground


# -- every node the run built is checked ---------------------------------------------

def assert_tags_derived(ctx, r):
    """Every node of r carries the tag tag_term derives for it; walked
    with a loop."""
    todo = [(r, tag_term(ctx, r))]
    while todo:
        a, b = todo.pop()
        assert type(a.tag) is type(b.tag) and a.tag == b.tag, (a, b)
        todo.extend(zip(a.args, b.args))


@given(seed=st.integers(0, 10**9))
@settings(deadline=None)
def test_every_reduct_node_carries_its_derived_tag(seed, nat_tree):
    ctx = nat_tree.context
    g = Gen(seed)
    pi, s = under_prelude(g, *g.strategy())
    t = tag_term(ctx, g.term(input_type(g, pi)))
    diags, _, core = sc.check_and_elaborate(
        S.Program(ctx, nat_tree.definitions, s))
    assert diags == []
    got = sc.run_program(core, t, sc.EvalConfig(fuel=200))
    if isinstance(got, sc.Ok):
        assert_tags_derived(ctx, got.term)


def swap_into_nat(t, new):
    # fork(T1, T2) rebuilt as fork(T2, N) where T1 is leaf(N): argument 2
    # now has sort Nat.
    return FunApp(t.name, (new[1], new[0].args[0]), t.tag)


def tag_as_nat(t, new):
    return FunApp(t.name, tuple(new), Sort("Nat"))


def drop_child(t, new):
    return FunApp(t.name, tuple(new[:1]), t.tag)


def rename(t, new):
    return FunApp("nowhere", tuple(new), t.tag)


def variable(t, new):
    return Var("N", t.tag)


def on_forks(build):
    """A stand-in for the FunApp constructor the evaluator builds nodes
    with: a fork node t over the children `new` is built by `build`."""
    def fun_app(name, new, tag=None):
        t = FunApp(name, new, tag)
        return build(t, new) if name == "fork" else t
    return fun_app


BAD_REBUILDS = [
    (swap_into_nat, "argument 2 of fork has type Nat, expected Tree"),
    (tag_as_nat, "fork is tagged Nat, but has type Tree"),
    (drop_child, "fork expects 2 arguments, got 1"),
    (rename, "undeclared function nowhere"),
    (variable, "not a ground term: Var(name='N', tag=Tree)"),
]


@pytest.mark.parametrize("build,message", BAD_REBUILDS,
                         ids=[b.__name__ for b, _ in BAD_REBUILDS])
def test_ill_sorted_built_node_is_internal_type_violation(
        monkeypatch, capsys, problems_core, build, message):
    monkeypatch.setattr(evaluate, "FunApp", on_forks(build))
    _, got = run_main(problems_core, call("ProblemI"),
                      "fork(leaf(zero),leaf(zero))")
    assert got == sc.EngineFailure("InternalTypeViolation",
                                   "reduct is ill-typed: " + message)
    argv = ["run", program_path("problems.strat"),
            "--term", "fork(leaf(zero),leaf(zero))"]
    assert cli.main(argv) == 5
    out, err = capsys.readouterr()
    assert (out, err) == ("", "InternalTypeViolation: reduct is ill-typed: "
                          + message + "\n")


@pytest.mark.parametrize("name,value,main,text,message", [
    ("PairType", lambda left, right: PairType(right, left),
     S.CongPair(call("Inc"), S.CongFun("leaf", (call("Inc"),))),
     "(zero,leaf(zero))",
     "(,) is tagged (Tree,Nat), but has type (Nat,Tree)"),
    ("UNIT", NAT, S.Void(), "zero", "() is tagged Nat, but has type ()"),
])
def test_ill_tagged_pair_or_unit_is_internal_type_violation(
        monkeypatch, problems_core, name, value, main, text, message):
    monkeypatch.setattr(evaluate, name, value)
    _, got = run_main(problems_core, main, text)
    assert got == sc.EngineFailure("InternalTypeViolation",
                                   "reduct is ill-typed: " + message)
