"""Inlined calls against the reference semantics in `reference_eval`.

A call in main or in a shared instance runs a copy of the callee's body,
compiled at the call site, when the callee takes strategy parameters and
is not that instance's own definition. A self-call, a call of a
definition without strategy parameters and every call inside a copy run
a shared instance. Each case here runs the engine and the reference on
the same core and term, and compares what a caller can see: the
outcome's `repr` (tags included), the fuel left, every trace line and
both `&` counters. Each also checks which calls went through a shared
instance, so that a case meant to inline does inline.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

import stratcalc as sc
from stratcalc import evaluate
from stratcalc import syntax as S
from stratcalc.evaluate import EvalState, _matcher
from stratcalc.terms import FunApp, Var

from conftest import core_with_main, load_program
from reference_eval import match, run_reference, substitute


@pytest.fixture
def shared(monkeypatch):
    """The names of the shared instances a run compiles, in order."""
    names = []
    instance = evaluate._Run.instance

    def recording(run, name, type_args):
        if (name, type_args) not in run.instances:
            names.append(name)
        return instance(run, name, type_args)

    monkeypatch.setattr(evaluate._Run, "instance", recording)
    return names


def same_as_reference(core, t, fuel=100000, trace=False):
    """The engine's outcome and state, once checked against the reference."""
    cfg = sc.EvalConfig(fuel=fuel, trace=trace)
    state = EvalState()
    got = sc.run_program(core, t, cfg, state)
    want, ref = run_reference(core, t, cfg)
    assert repr(got) == repr(want)
    assert state.fuel == ref.fuel
    assert state.trace_lines == ref.trace_lines
    assert state.amp_dispatches == ref.amp_dispatches
    assert state.amp_branch_evals == ref.amp_branch_evals
    return got, state


TREE3 = ("fork(fork(fork(leaf(zero),leaf(succ(zero))),"
         "fork(leaf(succ(succ(zero))),leaf(zero))),"
         "fork(fork(leaf(succ(zero)),leaf(zero)),"
         "fork(leaf(zero),leaf(succ(succ(succ(zero)))))))")


def test_every_fuel_value_of_a_problem_v_run(shared):
    core = core_with_main("problems.strat", "ProblemV")
    t = sc.parse_term(TREE3, core.context)
    got, state = same_as_reference(core, t)
    assert got == sc.Ok(sc.FunApp("zero", ()))
    used = 100000 - state.fuel
    # ProblemV takes no strategy parameters, so its call is shared; its
    # Crush and Chi get copies, whose calls go to the shared instances.
    # Crush's instance calls itself through that instance and copies CF.
    assert shared == ["ProblemV", "Zero", "CF", "Con", "Fun", "Crush", "Add"]
    for trace in (False, True):
        for fuel in range(1, used + 1):
            got, state = same_as_reference(core, t, fuel, trace)
            if fuel < used:
                assert got.kind == "FuelExhausted", fuel
            else:
                assert isinstance(got, sc.Ok) and state.fuel == 0


# Pick calls Missing on its right branch only; the core loses Missing's
# definition after checking, as no checked program would.
PICK = ("def Missing : TP = id;\n"
        "def Pick(v) : TP -> TP = v <+ Missing;\n")


def without(core, name):
    defs = {n: d for n, d in core.definitions.items() if n != name}
    return core.replace(definitions=defs)


@pytest.mark.parametrize("trace", [False, True])
def test_undefined_callee_on_an_untaken_branch(trace):
    core = without(core_with_main("problems.strat", "Pick(id)", PICK),
                   "Missing")
    t = sc.parse_term("leaf(zero)", core.context)
    got, _ = same_as_reference(core, t, trace=trace)
    assert got == sc.Ok(t)


@pytest.mark.parametrize("trace", [False, True])
def test_undefined_callee_on_a_taken_branch(trace):
    core = without(core_with_main("problems.strat", "Pick(fail)", PICK),
                   "Missing")
    t = sc.parse_term("leaf(zero)", core.context)
    got, _ = same_as_reference(core, t, trace=trace)
    assert got == sc.EngineFailure("UnboundCombinator",
                                   "no definition for combinator Missing")


@pytest.mark.parametrize("main,ok", [("id <+ Pick(id)", True),
                                     ("fail <+ Pick(id)", False)])
def test_undefined_inlinable_callee_raises_only_when_reached(main, ok):
    core = without(core_with_main("problems.strat", main, PICK), "Pick")
    t = sc.parse_term("leaf(zero)", core.context)
    got, _ = same_as_reference(core, t)
    assert isinstance(got, sc.Ok) == ok


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("term", ["g(gp(a))", "leaf(zero)", "a"])
def test_chi_at_two_types_in_one_run(shared, term, trace):
    main = ("spawn(Chi[Nat](extend(g(id), TP) ; void, One, Zero),"
            " Chi[Boolean](extend(IsNat, TP) ; void, True, False))")
    core = core_with_main("problems.strat", main)
    t = sc.parse_term(term, core.context)
    got, _ = same_as_reference(core, t, trace=trace)
    assert isinstance(got, sc.Ok)
    assert "Chi" not in shared


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("fuel", [7, 100000])
def test_many_passed_a_traversal_parameter(shared, fuel, trace):
    # Main's copy of TDMany calls the shared Many and TDMany. In TDMany's
    # instance, Many's copy binds its v to TDMany's own v, and the
    # self-call with its own parameter keeps its env.
    defs = "def TDMany(v) : TP -> TP = Many(v) ; all(TDMany(v));\n"
    core = core_with_main("problems.strat",
                          "TDMany(extend(leaf(N) -> leaf(succ(N)), TP))", defs)
    t = sc.parse_term(TREE3, core.context)
    same_as_reference(core, t, fuel, trace)
    assert shared == ["Many", "TDMany", "Try"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["Inc", "Dec"])
@pytest.mark.parametrize("term", ["negative(succ(succ(i)))",
                                  "positive(notzero(succ(i)))", "i"])
def test_mutual_recursion_stays_shared(shared, name, term, trace):
    _, _, core = sc.check_and_elaborate(load_program("overload.strat"))
    core = core.replace(main=S.Call(name, (), ()))
    t = sc.parse_term(term, core.context)
    same_as_reference(core, t, trace=trace)
    assert name in shared


# P and Q call each other, as do R and S, each passing its parameter on.
MUTUAL = (
    "sort Nat; con zero : Nat; fun succ : Nat -> Nat;\n"
    "fun pair : Nat * Nat -> Nat;\n"
    "def P(v) : TP -> TP = v <+ one(Q(v));\n"
    "def Q(v) : TP -> TP = Try(v) ; all(P(v));\n"
    "def R[a](v) : TU(a) -> TU(a) = v <+ select(S[a](v));\n"
    "def S[a](v) : TU(a) -> TU(a) = v +> select(R[a](v));\n"
    "main = P(extend(succ(zero) -> zero, TP)) ; Q(id) ;"
    " spawn(R[Nat](extend(succ(zero) -> zero, TU(Nat))), void);")


def test_every_fuel_value_of_mutual_recursion_through_parameters(shared):
    diags, _, core = sc.check_and_elaborate(
        sc.parse_program(MUTUAL, prelude=sc.load_prelude()))
    assert diags == []
    t = sc.parse_term("pair(succ(succ(succ(zero))),pair(zero,succ(zero)))",
                      core.context)
    got, state = same_as_reference(core, t)
    assert isinstance(got, sc.Ok)
    used = 100000 - state.fuel
    assert used == 13
    # Main's copies of P, Q and R call the shared Q, then Try and P, then
    # S. Q's instance copies P, whose Q goes back to that instance; P's
    # instance copies Q, and S's copies R.
    assert shared == ["Q", "Try", "P", "S"]
    for trace in (False, True):
        for fuel in range(1, used + 1):
            got, state = same_as_reference(core, t, fuel, trace)
            if fuel < used:
                assert got.kind == "FuelExhausted", fuel
            else:
                assert isinstance(got, sc.Ok) and state.fuel == 0


def test_calls_in_where_clauses_and_actuals_compile_in_their_scope(shared):
    # W calls itself only in a where-clause, A only in an actual of Try;
    # both self-calls sit in main's copies, so they run the shared W and
    # A, which h(t) reaches. N, an actual in main, gets a copy.
    program = sc.parse_program(
        "sort B; con t : B; con f : B; fun h : B -> B; var X : B;\n"
        "def W(v) : TP -> TP =\n"
        "  extend(t -> X where X := W(v) @ f, TP) <+ v;\n"
        "def A(v) : TP -> TP = extend(t -> f, TP) <+ Try(one(A(v)));\n"
        "def N(v) : TP -> TP = Try(v);\n"
        "main = W(id) ; A(N(id));", prelude=sc.load_prelude())
    diags, _, core = sc.check_and_elaborate(program)
    assert diags == []
    for term in ["t", "f", "h(t)"]:
        same_as_reference(core, sc.parse_term(term, core.context))
    assert "W" in shared and "A" in shared and "N" not in shared
    # W(fail) on t fails in its where-clause.
    got, _ = same_as_reference(core.replace(main=S.Call("W", (), (S.Fail(),))),
                               sc.parse_term("t", core.context))
    assert got == sc.FAILURE


def doubling_chain(n, recursive):
    """D0 ... D(n-1), each Dk running D(k-1) twice, and main = D(n-1) of a
    toggle, over a signature of its own and no prelude. If recursive,
    each Dk also calls itself on a branch that is never taken."""
    lines = ["sort B; con t : B; con f : B;",
             "def D0(v) : TP -> TP = v;"]
    for k in range(1, n):
        body = "D%d(v ; id) ; D%d(v ; id)" % (k - 1, k - 1)
        if recursive:
            body = "(%s) <+ (fail ; D%d(v))" % (body, k)
        lines.append("def D%d(v) : TP -> TP = %s;" % (k, body))
    lines.append("main = D%d(extend((t -> f) + (f -> t), TP));" % (n - 1))
    diags, _, core = sc.check_and_elaborate(
        sc.parse_program("\n".join(lines)))
    assert diags == []
    return core


@pytest.mark.parametrize("recursive", [False, True])
def test_compiled_code_grows_with_the_program_not_the_work(monkeypatch,
                                                           recursive):
    compile_, compiled = evaluate._Scope.compile, []

    def counting(scope, s):
        compiled.append(s)
        return compile_(scope, s)

    sizes = {}
    for n in (8, 12, 16):
        core = doubling_chain(n, recursive)
        t = sc.parse_term("t", core.context)
        compiled.clear()
        with monkeypatch.context() as m:
            m.setattr(evaluate._Scope, "compile", counting)
            got = sc.run_program(core, t)
        sizes[n] = len(compiled)
        assert got == sc.Ok(t)  # 2 ** (n - 1) toggles
        assert repr(got) == repr(run_reference(core, t)[0])
    # Each level adds the same number of compiled nodes: linear in n,
    # where inlining every copy would double them per level.
    assert sizes[16] - sizes[12] == sizes[12] - sizes[8] > 0


# Terms over f/2, g/1, a and b, and patterns that add the variables X, Y
# and Z, so that repeated and nested variables are common.
GROUND = st.recursive(
    st.sampled_from([FunApp("a", ()), FunApp("b", ())]),
    lambda sub: st.one_of(st.builds(lambda x: FunApp("g", (x,)), sub),
                          st.builds(lambda x, y: FunApp("f", (x, y)), sub,
                                    sub)),
    max_leaves=8)
PATTERNS = st.recursive(
    st.sampled_from([FunApp("a", ()), FunApp("b", ()), Var("X"), Var("Y"),
                     Var("Z")]),
    lambda sub: st.one_of(st.builds(lambda x: FunApp("g", (x,)), sub),
                          st.builds(lambda x, y: FunApp("f", (x, y)), sub,
                                    sub)),
    max_leaves=6)


def fill(pattern, draw):
    """pattern with each occurrence of a variable replaced on its own, so
    that a repeated variable may meet different terms."""
    if isinstance(pattern, Var):
        return draw(st.sampled_from([FunApp("a", ()), FunApp("b", ())]))
    return FunApp(pattern.name, tuple(fill(a, draw) for a in pattern.args))


@given(pattern=PATTERNS, subject=GROUND, how=st.sampled_from(
    ["random", "instance", "filled"]), data=st.data())
@example(pattern=FunApp("f", (Var("X"), Var("X"))),
         subject=FunApp("f", (FunApp("a", ()), FunApp("b", ()))),
         how="random", data=None)
@example(pattern=FunApp("f", (FunApp("g", (Var("X"),)), Var("X"))),
         subject=FunApp("f", (FunApp("g", (FunApp("a", ()),)),
                              FunApp("a", ()))),
         how="random", data=None)
@settings(deadline=None, max_examples=300)
def test_compiled_matcher_is_match(pattern, subject, how, data):
    # Most subjects share the pattern's shape, so that most matches get
    # past the root: an instance of it, or the pattern with each variable
    # occurrence filled in on its own.
    if how == "instance":
        theta = {v: data.draw(GROUND) for v in "XYZ"}
        subject = substitute(theta, pattern)
    elif how == "filled":
        subject = fill(pattern, data.draw)
    got, want = _matcher(pattern)(subject), match(pattern, subject)
    assert got == want
    if want is not None:
        assert all(got[v] is want[v] for v in want)
