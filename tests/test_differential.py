"""The evaluator against the reference semantics in `reference_eval`.

Both run the same elaborated core on the same tagged term, and must agree
on everything a caller can see: the outcome (the reduct with its tags, or
the failure kind and message), the fuel left, every trace line and both
`&` counters.
"""


import pytest
from hypothesis import given, settings, strategies as st

import stratcalc as sc
from stratcalc import syntax as S
from stratcalc.evaluate import EvalState
from stratcalc.terms import Amp, Arrow, PairType, TP, TU, tag_term

from conftest import load_program
from randgen import NAT, TREE, UNIT, Gen
from reference_eval import run_reference


def assert_same_run(program, t, cfg):
    state = EvalState()
    got = sc.run_program(program, t, cfg, state)
    want, ref = run_reference(program, t, cfg)
    # repr shows every node's tag, which term equality ignores.
    assert repr(got) == repr(want)
    assert state.fuel == ref.fuel
    assert state.trace_lines == ref.trace_lines
    assert state.amp_dispatches == ref.amp_dispatches
    assert state.amp_branch_evals == ref.amp_branch_evals
    return got


# -- random strategies under the prelude ---------------------------------------

TP_SCHEMES = ["Try", "Repeat", "Many", "Some", "TD", "BU", "OnceTD", "OnceBU",
              "Innermost", "StopTD"]
TU_SCHEMES = ["Any", "Tm", "Bm"]
FOLDS = ["Crush", "StopCrush", "CF"]
GENERIC_INPUTS = [NAT, TREE, UNIT, PairType(NAT, TREE)]


def under_prelude(g, pi, s):
    """pi and s passed through up to two prelude combinators, chosen to fit
    pi; type arguments may be compound."""
    for _ in range(g.rng.randrange(3)):
        if isinstance(pi, TP):
            s = S.Call(g.pick(TP_SCHEMES), (), (s,))
        elif isinstance(pi, TU) and pi.result == UNIT:
            # Chi turns a test into a Nat-valued answer.
            pi, s = TU(NAT), S.Call("Chi", (NAT,), (
                s, g.arrow(Arrow(UNIT, NAT), 2), g.arrow(Arrow(UNIT, NAT), 2)))
        elif isinstance(pi, TU) and pi.result in (NAT, TREE) \
                and g.rng.random() < 0.5:
            a = pi.result
            s = S.Call(g.pick(FOLDS), (a,), (
                s, g.arrow(Arrow(UNIT, a), 2),
                g.arrow(Arrow(PairType(a, a), a), 0)))
        elif isinstance(pi, TU):
            s = S.Call(g.pick(TU_SCHEMES), (pi.result,), (s,))
        elif isinstance(pi, Arrow) and pi.dom == pi.cod:
            if g.rng.random() < 0.5:
                s = S.Call("TryM", (pi.dom,), (s,))
            else:
                pi, s = TP(), S.Call("StopTDM", (pi.dom,), (s,))
        else:
            break
    return pi, s


def input_type(g, pi):
    if isinstance(pi, Arrow):
        return pi.dom
    if isinstance(pi, Amp):
        return g.applicable_type(pi)
    return g.pick(GENERIC_INPUTS)


@given(seed=st.integers(0, 10**9), fuel=st.integers(1, 80),
       trace=st.booleans())
@settings(deadline=None)
def test_compiled_matches_reference(seed, fuel, trace, nat_tree):
    # Fuel stays small, so runs that do not terminate end in FuelExhausted
    # long before either evaluator nears the recursion limit.
    ctx = nat_tree.context
    g = Gen(seed)
    pi, s = under_prelude(g, *g.strategy())
    t = tag_term(ctx, g.term(input_type(g, pi)))
    diags, _, core = sc.check_and_elaborate(
        S.Program(ctx, nat_tree.definitions, s))
    assert diags == []
    got = assert_same_run(core, t, sc.EvalConfig(fuel=fuel, trace=trace))
    assert getattr(got, "kind", None) != "DepthExceeded"


# -- the bundled programs --------------------------------------------------------


def core_of(name):
    diags, _, core = sc.check_and_elaborate(load_program(name))
    assert not diags
    return core


QUICK_START_TREE = "fork(leaf(zero),leaf(succ(zero)))"
TREE3 = ("fork(fork(leaf(succ(zero)),leaf(zero)),"
         "fork(leaf(succ(succ(zero))),leaf(succ(zero))))")
CHAIN = "g(gp(g(g(gp(a)))))"
PROBLEM_CASES = [(name, term)
                 for name in ("ProblemI", "ProblemIII", "ProblemIV",
                              "ProblemV")
                 for term in (QUICK_START_TREE, TREE3, CHAIN)]
PROBLEM_CASES += [("ProblemII", CHAIN), ("ProblemII", "gp(gp(a))"),
                  ("ProblemII", QUICK_START_TREE)]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name,term", PROBLEM_CASES)
def test_problems_match_reference(name, term, trace):
    core = core_of("problems.strat").replace(main=S.Call(name, (), ()))
    t = sc.parse_term(term, core.context)
    assert_same_run(core, t, sc.EvalConfig(trace=trace))


@pytest.mark.parametrize("fuel", [1, 2, 10, 43, 44])
def test_problem5_fuel_edge_matches_reference(fuel):
    core = core_of("problems.strat").replace(main=S.Call("ProblemV", (), ()))
    t = sc.parse_term(QUICK_START_TREE, core.context)
    got = assert_same_run(core, t, sc.EvalConfig(fuel=fuel, trace=True))
    assert isinstance(got, sc.EngineFailure) == (fuel <= 43)


OVERLOAD_TERMS = ["positive(zero)", "negative(i)", "negative(succ(succ(i)))",
                  "positive(notzero(succ(i)))", "notzero(succ(i))", "i"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["Inc", "Dec"])
@pytest.mark.parametrize("term", OVERLOAD_TERMS)
def test_overload_matches_reference(name, term, trace):
    core = core_of("overload.strat").replace(main=S.Call(name, (), ()))
    t = sc.parse_term(term, core.context)
    assert_same_run(core, t, sc.EvalConfig(trace=trace))


@pytest.mark.parametrize("fuel", [0, 5, 100000])
@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("term", [
    "add(succ(succ(zero)),succ(succ(succ(zero))))",
    "add(add(succ(zero),zero),add(zero,succ(zero)))",
    "succ(succ(zero))"])
def test_addition_matches_reference(term, trace, fuel):
    core = core_of("addition.strat")
    t = sc.parse_term(term, core.context)
    assert_same_run(core, t, sc.EvalConfig(fuel=fuel, trace=trace))
