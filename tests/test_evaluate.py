"""Big-step evaluation: per-combinator contracts, rule bodies, engine
errors, and fuel accounting."""

import pytest

import stratcalc as sc
from stratcalc import evaluate, syntax as S
from stratcalc.evaluate import EvalState
from stratcalc.terms import (
    Arrow,
    FAILURE,
    PAIR_NAME,
    FunApp,
    Ok,
    TP_TYPE,
    TU,
    UNIT,
    UNIT_NAME,
    Var,
)

from conftest import assert_tuples_typed, core_with_main, num, pair, unit
from randgen import NAT, NN, TREE, TT

INC = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))
EXT_INC = S.Extend(S.Annot(INC, NN), TP_TYPE)

ZERO = FunApp("zero", ())
LEAF0 = FunApp("leaf", (ZERO,))
LEAF1 = FunApp("leaf", (num(1),))
TREE7 = FunApp("fork", (LEAF0, LEAF1))


def ev(ctx, s, t, **kw):
    return sc.apply_strategy(ctx, {}, s, sc.tag_term(ctx, t),
                             sc.EvalConfig(**kw))


def test_rule_match_and_substitute(nat_tree_ctx):
    assert ev(nat_tree_ctx, INC, ZERO) == Ok(num(1))


def test_rule_builds_its_right_hand_side_at_every_arity():
    # Right-hand sides and where-clause terms of arity 1, 2 and 3, with a
    # ground subterm that every instance shares.
    src = ("sort B; con t : B; con f : B; fun h : B -> B;\n"
           "fun p : B * B -> B; fun g : B * B * B -> B;\n"
           "var X : B; var Y : B; var Z : B;\n"
           "main = g(X,Y,f) -> g(Z,p(Y,X),h(t)) where Z := id @ h(X);")
    checked = sc.CheckedProgram(sc.parse_program(src))
    got = checked.run("g(t,f,f)")
    assert sc.render_term(got.term) == "g(h(t),p(f,t),h(t))"
    assert got.term.args[2] is checked.core.main.rhs.args[2]


def test_rule_no_match_fails(nat_tree_ctx):
    dec = S.Rule(FunApp("succ", (Var("N"),)), Var("N"))
    assert ev(nat_tree_ctx, dec, ZERO) == FAILURE


def test_id_fail_void(nat_tree_ctx):
    assert ev(nat_tree_ctx, S.Id(), LEAF0) == Ok(LEAF0)
    assert ev(nat_tree_ctx, S.Fail(), LEAF0) == FAILURE
    assert ev(nat_tree_ctx, S.Void(), LEAF0) == Ok(unit())


def test_neg_swaps_outcomes(nat_tree_ctx):
    assert ev(nat_tree_ctx, S.Neg(S.Fail()), LEAF0) == Ok(LEAF0)
    assert ev(nat_tree_ctx, S.Neg(S.Id()), LEAF0) == FAILURE


def test_seq_threads_and_propagates_failure(nat_tree_ctx):
    assert ev(nat_tree_ctx, S.Seq(INC, INC), ZERO) == Ok(num(2))
    assert ev(nat_tree_ctx, S.Seq(S.Fail(), S.Id()), LEAF0) == FAILURE
    assert ev(nat_tree_ctx, S.Seq(S.Id(), S.Fail()), LEAF0) == FAILURE


def test_choice_left_first(nat_tree_ctx):
    double = S.Rule(Var("N"), FunApp("succ", (FunApp("succ", (Var("N"),)),)))
    assert ev(nat_tree_ctx, S.Choice(INC, double), ZERO) == Ok(num(1))
    assert ev(nat_tree_ctx, S.Choice(S.Fail(), INC), ZERO) == Ok(num(1))


def test_congruence_dispatch(nat_tree_ctx):
    cong = S.CongFun("leaf", (INC,))
    assert ev(nat_tree_ctx, cong, LEAF0) == Ok(LEAF1)
    # outermost symbol must agree
    cong_fork = S.CongFun("fork", (S.Id(), S.Id()))
    assert ev(nat_tree_ctx, cong_fork, LEAF0) == FAILURE
    assert ev(nat_tree_ctx, S.CongFun("zero", ()), ZERO) == \
        Ok(ZERO)
    assert ev(nat_tree_ctx, S.CongFun("zero", ()), num(1)) == FAILURE


def test_pair_and_unit_congruence(nat_tree_ctx):
    assert ev(nat_tree_ctx, S.CongUnit(), unit()) == Ok(unit())
    got = ev(nat_tree_ctx, S.CongPair(INC, INC), pair(num(0), num(1)))
    assert got == Ok(pair(num(1), num(2)))


def test_all_children_rewritten(nat_tree_ctx):
    got = ev(nat_tree_ctx, S.All(EXT_INC), TREE7)
    assert got == FAILURE  # EXT_INC fails on the leaf-sorted children
    got = ev(nat_tree_ctx, S.All(EXT_INC), LEAF1)
    assert got == Ok(FunApp("leaf", (num(2),)))


def test_all_succeeds_on_constants(nat_tree_ctx):
    assert ev(nat_tree_ctx, S.All(S.Fail()), ZERO) == \
        Ok(ZERO)


def test_one_leftmost_and_fails_on_constants(nat_tree_ctx):
    inc_leaf = S.Extend(S.Annot(S.CongFun("leaf", (INC,)),
                                Arrow(sc.Sort("Tree"), sc.Sort("Tree"))),
                        TP_TYPE)
    got = ev(nat_tree_ctx, S.One(inc_leaf), TREE7)
    assert got == Ok(FunApp("fork", (FunApp("leaf", (num(1),)), LEAF1)))
    assert ev(nat_tree_ctx, S.One(S.Id()), ZERO) == FAILURE


def test_select_first_succeeding_child(nat_tree_ctx):
    pick_nat = S.Extend(S.Annot(S.Rule(Var("N"), Var("N")), NN),
                        TU(NAT))
    got = ev(nat_tree_ctx, S.Select(pick_nat), LEAF1)
    assert got == Ok(num(1))
    assert ev(nat_tree_ctx, S.Select(pick_nat), ZERO) == FAILURE


def test_reduce_folds_left_to_right(nat_tree_ctx):
    to_nat = S.Extend(S.Annot(S.Rule(FunApp("leaf", (Var("N"),)),
                                     Var("N")),
                              Arrow(sc.Sort("Tree"), NAT)), TU(NAT))
    first = S.Rule(pair(Var("N1"), Var("N2")), Var("N1"))
    got = ev(nat_tree_ctx, S.Reduce(first, to_nat), TREE7)
    assert got == Ok(num(0))
    second = S.Rule(pair(Var("N1"), Var("N2")), Var("N2"))
    assert ev(nat_tree_ctx, S.Reduce(second, to_nat), TREE7) == Ok(num(1))
    # single child: no composer application (an always-failing composer
    # still succeeds)
    keep_nat = S.Extend(S.Annot(S.Rule(Var("N"), Var("N")), NN),
                        TU(NAT))
    never = S.Seq(S.Restrict(S.Fail(), Arrow(sc.PairType(NAT, NAT),
                                             sc.PairType(NAT, NAT))), first)
    assert ev(nat_tree_ctx, S.Reduce(never, keep_nat), num(1)) == Ok(num(0))
    # constants fail
    assert ev(nat_tree_ctx, S.Reduce(first, to_nat), ZERO) == \
        FAILURE


def test_reduce_fails_when_its_composer_does(nat_tree_ctx):
    to_nat = S.Extend(S.Annot(S.Rule(FunApp("leaf", (Var("N"),)), Var("N")),
                              Arrow(sc.Sort("Tree"), NAT)), TU(NAT))
    # (succ(N1), N2) -> N1 fails on the leaves' values, (zero, succ(zero))
    never = S.Rule(pair(FunApp("succ", (Var("N1"),)), Var("N2")), Var("N1"))
    assert ev(nat_tree_ctx, S.Reduce(never, to_nat), TREE7) == FAILURE


def test_spawn_pairs_results_short_circuit(nat_tree_ctx):
    got = ev(nat_tree_ctx, S.Spawn(S.Void(), S.Void()), LEAF0)
    assert got == Ok(pair(unit(), unit()))
    assert ev(nat_tree_ctx, S.Spawn(S.Seq(S.Fail(), S.Void()), S.Void()),
              LEAF0) == FAILURE


def test_type_unifying_results_are_tuple_functions(nat_tree_ctx,
                                                  monkeypatch):
    # void builds (), spawn a pair, and reduce a pair of its children's
    # results for its composer: each a FunApp with its structural type.
    for s in (S.Void(), S.Spawn(S.Void(), S.Void())):
        assert_tuples_typed(ev(nat_tree_ctx, s, LEAF0).term)
    built = []

    def recording(name, args, tag=None):
        built.append(FunApp(name, args, tag))
        return built[-1]

    monkeypatch.setattr(evaluate, "FunApp", recording)
    to_nat = S.Extend(S.Annot(S.Rule(FunApp("leaf", (Var("N"),)), Var("N")),
                              Arrow(TREE, NAT)), TU(NAT))
    first = S.Rule(pair(Var("N1"), Var("N2")), Var("N1"))
    assert ev(nat_tree_ctx, S.Reduce(first, to_nat), TREE7) == Ok(num(0))
    assert built == [pair(num(0), num(1))]
    assert_tuples_typed(built[0])


@pytest.mark.parametrize("term,message", [
    (FunApp(PAIR_NAME, (ZERO,)), "(,) expects 2 arguments, got 1"),
    (FunApp(UNIT_NAME, (ZERO,)), "() expects 0 arguments, got 1"),
], ids=["pair", "unit"])
def test_ill_formed_tuple_input_is_engine_failure(nat_tree_ctx, term,
                                                  message):
    got = sc.apply_strategy(nat_tree_ctx, {}, S.Id(), term)
    assert got == sc.EngineFailure("InternalTypeViolation",
                                   "runtime typing failed: " + message)


def test_extend_dispatch_by_tag(nat_tree_ctx):
    assert ev(nat_tree_ctx, EXT_INC, ZERO) == Ok(num(1))
    # sort outside the annotated domain: fail without invoking the inner
    assert ev(nat_tree_ctx, EXT_INC, LEAF0) == FAILURE


def test_extend_passes_inner_failure_through(nat_tree_ctx):
    dec = S.Rule(FunApp("succ", (Var("N"),)), Var("N"))
    s = S.Extend(S.Annot(dec, NN), TP_TYPE)
    assert ev(nat_tree_ctx, s, ZERO) == FAILURE


def test_restrict_and_annot_transparent(nat_tree_ctx):
    assert ev(nat_tree_ctx, S.Restrict(S.Id(), NN), ZERO) == \
        Ok(ZERO)
    assert ev(nat_tree_ctx, S.Annot(INC, NN), ZERO) == Ok(num(1))


def test_amp_dispatches_on_sort(nat_tree_ctx):
    flip = S.Rule(FunApp("fork", (Var("T1"), Var("T2"))),
                  FunApp("fork", (Var("T2"), Var("T1"))))
    s = S.AmpS(INC, flip)
    assert ev(nat_tree_ctx, s, ZERO) == Ok(num(1))
    assert ev(nat_tree_ctx, s, FunApp("fork", (LEAF0, LEAF1))) == \
        Ok(FunApp("fork", (LEAF1, LEAF0)))


def test_guard_succeeds_on_its_sort_only(nat_tree_ctx):
    guard = S.TypeGuard(NAT, TP_TYPE)
    assert ev(nat_tree_ctx, guard, num(2)) == Ok(num(2))
    assert ev(nat_tree_ctx, guard, LEAF0) == FAILURE
    # a sugared where-clause reaches the evaluator elaborated, too
    where = (S.Where("N1", guard, ZERO),)
    assert ev(nat_tree_ctx, S.Rule(ZERO, Var("N1"), where),
              ZERO) == Ok(ZERO)


def test_right_biased_overloading_commits_by_sort(nat_tree_ctx):
    # s1 &> s2 applies s2 on its sort and s1 elsewhere
    assert ev(nat_tree_ctx, S.TRChoice(S.Fail(), INC), num(1)) == Ok(num(2))
    assert ev(nat_tree_ctx, S.TRChoice(S.Id(), INC), LEAF0) == Ok(LEAF0)
    assert ev(nat_tree_ctx, S.TRChoice(S.Fail(), INC), LEAF0) == FAILURE
    # a failing s2 on its own sort does not fall back to s1
    dec = S.Rule(FunApp("succ", (Var("N"),)), Var("N"))
    assert ev(nat_tree_ctx, S.TRChoice(S.Id(), dec), ZERO) == \
        FAILURE


def test_ill_typed_input_is_engine_failure(nat_tree_ctx):
    bad = S.Extend(S.All(INC), TP_TYPE)
    got = ev(nat_tree_ctx, bad, ZERO)
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "InternalTypeViolation"
    assert got.detail.startswith("runtime typing failed: ")
    where = (S.Where("N1", bad, ZERO),)
    got = ev(nat_tree_ctx, S.Rule(ZERO, Var("N1"), where),
             ZERO)
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "InternalTypeViolation"


def test_ill_sorted_or_open_input_is_engine_failure(nat_tree_ctx):
    # Raw input is typed where it enters, so the strategy that would meet
    # it first (extend dispatch or the final re-tag) makes no difference.
    ill_sorted = FunApp("succ", (LEAF0,))
    for s in (S.Id(), EXT_INC, S.All(EXT_INC)):
        got = sc.apply_strategy(nat_tree_ctx, {}, s, ill_sorted,
                                sc.EvalConfig())
        assert isinstance(got, sc.EngineFailure)
        assert got.kind == "InternalTypeViolation"
    got = sc.apply_strategy(nat_tree_ctx, {}, EXT_INC,
                            FunApp("leaf", (Var("N"),)), sc.EvalConfig())
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "InternalTypeViolation"
    assert "N is a variable" in got.detail


def test_left_choice_runs_failing_operand_once(addition):
    # OnceBU(v) = v +> one(OnceBU(v)) nests <+ once per level, so fuel
    # must grow linearly with depth, not double per level.
    ctx = addition.context
    step = S.Extend(S.Call("AddStep", (), ()), TP_TYPE)
    main = S.Call("Try", (), (S.Call("OnceBU", (), (step,)),))
    elaborated = sc.elaborate_program(S.Program(ctx, addition.definitions,
                                                main))
    for depth in (16, 14):
        t = sc.tag_term(ctx, num(depth))
        state = EvalState()
        got = sc.run_program(elaborated, t, sc.EvalConfig(), state)
        assert got == Ok(t)
        assert sc.EvalConfig().fuel - state.fuel <= 3 * depth


def test_call_expansion_substitutes_params():
    src = ("sort Nat; con zero : Nat; fun succ : Nat -> Nat; var N : Nat;\n"
           "def Twice(v) : (Nat -> Nat) -> (Nat -> Nat) = v ; v;\n"
           "main = Twice(N -> succ(N));")
    p = sc.parse_program(src)
    diags, _ = sc.check_program(p)
    assert diags == []
    got = sc.run_program(sc.elaborate_program(p),
                         sc.tag_term(p.context, num(0)), sc.EvalConfig())
    assert got == Ok(num(2))


def test_type_arguments_instantiate_bodies(nat_tree):
    ctx, defs = nat_tree.context, nat_tree.definitions
    # Chi[Nat](void-producing child, then pick a constant per outcome)
    src = ("sort Nat; con zero : Nat; fun succ : Nat -> Nat; var N : Nat;\n"
           "def Zero : () -> Nat = () -> zero;\n"
           "def One : () -> Nat = () -> succ(zero);\n"
           "main = Chi[Nat](void, One, Zero);")
    p = sc.parse_program(src, prelude=sc.load_prelude())
    diags, main_type = sc.check_program(p)
    assert diags == [] and main_type == TU(NAT)
    got = sc.run_program(sc.elaborate_program(p),
                         sc.tag_term(p.context, num(3)), sc.EvalConfig())
    assert got == Ok(num(1))


def test_where_clause_evaluation(problems):
    ctx, defs = problems.context, problems.definitions
    got = sc.apply_strategy(ctx, defs, S.Call("Add", (), ()),
                            sc.tag_term(ctx, pair(num(1), num(1))),
                            sc.EvalConfig())
    assert got == Ok(num(2))


def test_eval_body_add_step(problems):
    ctx, defs = problems.context, problems.definitions
    step = problems.definitions["Add"].body.right  # the succ case
    got = sc.apply_strategy(ctx, defs, step, pair(num(1), num(1)),
                            sc.EvalConfig())
    assert got == Ok(num(2))


def test_eval_body_where_fail(nat_tree_ctx):
    where = (S.Where("N1", S.Fail(), ZERO),)
    got = ev(nat_tree_ctx, S.Rule(ZERO, Var("N1"), where),
             ZERO)
    assert got == FAILURE


def test_fuel_exhaustion(nat_tree):
    p = sc.parse_program("def Loop : TP = Loop;\nmain = Loop;")
    got = sc.run_program(sc.elaborate_program(p), unit(UNIT),
                         sc.EvalConfig(fuel=100))
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "FuelExhausted"


@pytest.mark.parametrize("main,term,detail", [
    (S.ParamRef("v"), ZERO, "unbound strategy parameter v"),
    (S.AmpS(S.Annot(S.Id(), NN), S.Annot(S.Id(), TT)),
     pair(ZERO, ZERO),
     "no overloaded branch accepts a term of type (Nat,Nat)"),
])
def test_core_the_checker_rejects_is_engine_failure(nat_tree_ctx, main,
                                                     term, detail):
    # run_program trusts its core; these two raises guard hand-built core.
    got = sc.run_program(S.Program(nat_tree_ctx, {}, main),
                         sc.tag_term(nat_tree_ctx, term))
    assert got == sc.EngineFailure("InternalTypeViolation", detail)


def test_trace_depth_resets_after_an_engine_failure():
    # A traced run abandoned by FuelExhausted leaves no indentation behind
    # for the next run on the same state.
    p = sc.elaborate_program(sc.parse_program("def Loop : TP = Loop;\n"
                                              "main = Loop;"))
    state = EvalState()
    cfg = sc.EvalConfig(fuel=5, trace=True)
    got = sc.run_program(p, unit(UNIT), cfg, state)
    assert got.kind == "FuelExhausted"
    sc.apply_strategy(p.context, {}, S.Id(), unit(UNIT), cfg, state)
    assert state.trace_lines[-1] == "id id @ () => ok"


def test_unlimited_fuel_terminating(problems):
    ctx, defs = problems.context, problems.definitions
    got = sc.apply_strategy(ctx, defs, S.Call("Add", (), ()),
                            sc.tag_term(ctx, pair(num(2), num(3))),
                            sc.EvalConfig(fuel=0))
    assert got == Ok(num(5))


def test_negative_fuel_is_rejected():
    # Not read as fuel already exhausted: it is no amount of fuel at all.
    with pytest.raises(ValueError, match="fuel must be >= 0, got -1"):
        sc.EvalConfig(fuel=-1)


def test_unbound_combinator_is_engine_error():
    # Ghost's type is declared, so the call checks, but no body is passed.
    ctx = sc.parse_program("sort Nat; con zero : Nat;\n"
                           "def Ghost : TP = id;\nmain = id;").context
    got = sc.apply_strategy(ctx, {}, S.Call("Ghost", (), ()),
                            sc.tag_term(ctx, ZERO),
                            sc.EvalConfig())
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "UnboundCombinator"


def test_ok_results_are_ground_and_tagged(nat_tree_ctx):
    got = ev(nat_tree_ctx, S.All(EXT_INC), LEAF1)
    assert got.term.tag == sc.Sort("Tree")
    assert got.term.args[0].tag == NAT


def test_trace_lines_format(nat_tree_ctx):
    st = EvalState()
    sc.apply_strategy(nat_tree_ctx, {}, S.Choice(S.Fail(), S.Id()),
                      sc.tag_term(nat_tree_ctx, ZERO),
                      sc.EvalConfig(trace=True), st)
    assert any(line.strip() == "fail fail @ zero => fail"
               for line in st.trace_lines)
    assert any(line.startswith("choice + @ zero => ok")
               for line in st.trace_lines)


def test_bare_parameter_is_engine_error(nat_tree_ctx):
    got = sc.apply_strategy(nat_tree_ctx, {}, S.ParamRef("v"),
                            sc.tag_term(nat_tree_ctx, ZERO),
                            sc.EvalConfig())
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "InternalTypeViolation"


SWAP_SIGNATURE = (
    "sort Nat; sort Tree; con zero : Nat; fun succ : Nat -> Nat;\n"
    "fun leaf : Nat -> Tree; fun fork : Tree * Tree -> Tree;\n"
    "var N : Nat; var T1 : Tree; var T2 : Tree;\n"
    "def Lift[a](v) : (a -> a) -> TP = extend(v, TP);\n"
    "def Pick[a](v, w) : (a -> a) * ((a,a) -> (a,a))"
    " -> a -> a & (a,a) -> (a,a) = v & w;\n"
    "def Both[a,b](v, w) : (a -> a) * (b -> b) -> TP ="
    " Try(Lift[a](v)) ; Try(Lift[b](w));\n")
# Pick's branches stay apart under every type argument (no a is (a,a)),
# so its sum checks; one over a and b would not (rule pi.4).
PICK_NAT = ("Try(extend(Pick[Nat](zero -> succ(zero),"
            " (N,zero) -> (zero,N)), TP))")
PICK_TREE = ("Try(extend(Pick[Tree](fork(T1,T2) -> fork(T2,T1),"
             " (T1,T2) -> (T2,T1)), TP))")


@pytest.mark.parametrize("main", [
    "BU(Try(Lift[Nat](zero -> succ(zero)))"
    " ; Try(Lift[Tree](fork(T1,T2) -> fork(T2,T1))))",
    "BU(%s ; %s)" % (PICK_NAT, PICK_TREE),
    "BU(Both[Nat,Tree](zero -> succ(zero), fork(T1,T2) -> fork(T2,T1)))",
    "BU(%s ; %s)" % (PICK_TREE, PICK_NAT),
])
def test_type_parameters_reach_extend_and_amp_dispatch(main):
    # Lift's extend and Pick's & dispatch on annotations that mention the
    # type parameters, so each call must see its own type arguments, and
    # Both must pass its own on to Lift.
    p = sc.parse_program(SWAP_SIGNATURE + "main = %s;" % main,
                         prelude=sc.load_prelude())
    diags, _ = sc.check_program(p)
    assert diags == [], [d.render() for d in diags]
    t = sc.parse_term("fork(leaf(zero),leaf(succ(zero)))", p.context)
    got = sc.run_program(sc.elaborate_program(p), t, sc.EvalConfig())
    assert got == Ok(sc.parse_term(
        "fork(leaf(succ(succ(zero))),leaf(succ(zero)))", p.context))


def test_actuals_bind_in_the_callers_scope():
    # Swap hands its v to Then's w and its w to Then's v: each actual must
    # be evaluated where it was written, not under Then's parameters.
    src = ("sort Nat; con zero : Nat; fun succ : Nat -> Nat; var N : Nat;\n"
           "def Then(w, v) : (Nat -> Nat) * (Nat -> Nat) -> (Nat -> Nat)"
           " = v ; w;\n"
           "def Swap(v, w) : (Nat -> Nat) * (Nat -> Nat) -> (Nat -> Nat)"
           " = Then(v ; v, w);\n"
           "main = Swap(N -> succ(N), succ(N) -> N);")
    p = sc.parse_program(src)
    diags, _ = sc.check_program(p)
    assert diags == []
    ctx, core = p.context, sc.elaborate_program(p)
    # Swap(inc, dec) = Then(inc ; inc, dec) = dec ; inc ; inc
    assert sc.run_program(core, sc.tag_term(ctx, num(0)),
                          sc.EvalConfig()) == FAILURE
    assert sc.run_program(core, sc.tag_term(ctx, num(2)),
                          sc.EvalConfig()) == Ok(num(3))


def _tagged_nat(depth):
    # Built bottom-up, since tag_term itself recurses on depth.
    t = FunApp("zero", (), NAT)
    for _ in range(depth):
        t = FunApp("succ", (t,), NAT)
    return t


def _tagged_tree(depth):
    t = FunApp("leaf", (FunApp("zero", (), NAT),), TREE)
    for _ in range(depth):
        t = FunApp("fork", (t, t), TREE)
    return t


# count(2L) - 2 count(L) in trace lines: the same at every doubling of a
# tree's L leaves exactly when the count is a constant per leaf plus a
# constant per run. A miss searches the whole tree; the folds take
# constant time. Innermost and Repeat with hits are not linear today.
@pytest.mark.parametrize("main,lines", [
    ("TD(id)", 4), ("BU(id)", 4), ("StopTD(extend(Inc, TP))", 4),
    ("Try(OnceTD(extend(g(P) -> gp(P), TP)))", 1),
    ("Try(OnceBU(extend(g(P) -> gp(P), TP)))", 1),
    ("Innermost(extend(g(P) -> gp(P), TP))", -2),
    ("Many(id)", -8), ("CF[()](void, () -> (), ((),()) -> ())", -14),
    ("Crush[()](void, () -> (), ((),()) -> ())", 17),
    ("StopCrush[()](extend(leaf(id), TP) ; void, () -> (), ((),()) -> ())",
     18),
    ("Any[()](extend(g(id), TP) ; void)", 5),
    ("Tm[()](extend(g(id), TP) ; void)", 5),
    ("Bm[()](extend(g(id), TP) ; void)", 5),
])
def test_prelude_schemes_run_in_linear_time(main, lines):
    core, counts = core_with_main("problems.strat", main), []
    for depth in range(8, 12):
        state = EvalState()
        sc.run_program(core, _tagged_tree(depth),
                       sc.EvalConfig(fuel=10 ** 9, trace=True), state)
        counts.append((len(state.trace_lines), 10 ** 9 - state.fuel))
    steps = {(l2 - 2 * l1, f2 - 2 * f1)
             for (l1, f1), (l2, f2) in zip(counts, counts[1:])}
    assert len(steps) == 1 and steps.pop()[0] == lines, counts


@pytest.mark.parametrize("name,term", [
    pytest.param("ProblemIV", _tagged_tree(10), id="ProblemIV-1024"),
    pytest.param("TD", _tagged_nat(10000), id="10000"),
])
def test_deep_term_is_depth_exceeded(problems, name, term):
    # ProblemIV appends the two 512-element lists of a 1024-leaf tree
    # through a where-chain 512 calls deep, and TD(id) recurses once per
    # constructor of a 10000-deep term.
    args = (S.Id(),) if name == "TD" else ()
    got = sc.apply_strategy(problems.context, problems.definitions,
                            S.Call(name, (), args), term, sc.EvalConfig())
    assert isinstance(got, sc.EngineFailure)
    assert got.kind == "DepthExceeded"


@pytest.mark.parametrize("s,depth", [(S.Call("TD", (), (S.Id(),)), 300),
                                     (S.Call("StopTD", (), (EXT_INC,)), 301)])
def test_300_deep_term_runs(nat_tree, s, depth):
    got = sc.apply_strategy(nat_tree.context, nat_tree.definitions, s,
                            _tagged_nat(300), sc.EvalConfig())
    # Walked in a loop, since == on terms recurses on their depth.
    t, n = got.term, 0
    while t.args:
        t, n = t.args[0], n + 1
    assert (n, t) == (depth, ZERO)



@pytest.mark.parametrize("s,message", [
    (S.Call("Try", (), ()), "Try expects 1 arguments, got 0"),
    (S.Call("Try", (), (S.Id(), S.Id())), "Try expects 1 arguments, got 2"),
    (S.Rule(Var("N"), Var("N"), (S.Where("N", S.Id(), Var("N")),)),
     "where-clause rebinds variable N"),
    (S.Rule(ZERO, ZERO, (S.Where("Qx", S.Id(), ZERO),)),
     "where-bound variable Qx is not declared"),
    (S.Rule(ZERO, Var("N")), "variable N is not bound by the rule"),
])
def test_ill_formed_library_input_is_engine_failure(problems, s, message):
    # The checker rejects these before they run, as it does in source.
    got = sc.apply_strategy(problems.context, problems.definitions, s, ZERO,
                            sc.EvalConfig())
    assert got == sc.EngineFailure("InternalTypeViolation",
                                   "runtime typing failed: " + message)
