"""Property-based invariants over randomly generated well-typed
strategies and terms."""

import functools

from hypothesis import given, settings, strategies as st

import stratcalc as sc
from stratcalc import syntax as S
from stratcalc.terms import (
    Amp,
    Arrow,
    FAILURE,
    Ok,
    TP,
    TU,
    UNIT_NAME,
    amp_branches,
    is_generic,
    tag_term,
    type_of_term,
    types_equal,
)
from stratcalc.typecheck import apply_type, domains

from conftest import NAT_TREE_HEADER
from randgen import Gen

seeds = st.integers(0, 10**9)


def sample(seed, nat_tree_ctx):
    g = Gen(seed)
    pi, s = g.strategy()
    tau = g.applicable_type(pi)
    t = tag_term(nat_tree_ctx, g.term(tau))
    return g, pi, s, tau, t


@given(seed=seeds)
def test_strategy_typing_deterministic(seed, nat_tree_ctx):
    g = Gen(seed)
    pi, s = g.strategy()
    assert types_equal(sc.type_and_core(nat_tree_ctx, s)[0], pi)
    assert types_equal(sc.type_and_core(nat_tree_ctx, s)[0], pi)


@given(seed=seeds)
def test_returned_types_fit_the_scheme(seed, nat_tree_ctx):
    # every inferred type is generic, a many-sorted arrow, or an
    # overloaded sum of arrows
    g = Gen(seed)
    pi, _ = g.strategy()
    assert is_generic(pi) or isinstance(pi, (Arrow, Amp))


@given(seed=seeds)
def test_apply_type_is_function_of_term_type(seed, nat_tree_ctx):
    g, pi, s, tau, _ = sample(seed, nat_tree_ctx)
    first = apply_type(nat_tree_ctx, pi, tau)
    assert apply_type(nat_tree_ctx, pi, tau) == first


@given(seed=seeds)
def test_subject_reduction(seed, nat_tree_ctx):
    g, pi, s, tau, t = sample(seed, nat_tree_ctx)
    out = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    assert not isinstance(out, sc.EngineFailure), out
    if isinstance(out, Ok):
        predicted = apply_type(nat_tree_ctx, pi, tau)
        assert type_of_term(nat_tree_ctx, out.term) == predicted


@given(seed=seeds)
def test_evaluation_deterministic(seed, nat_tree_ctx):
    g, pi, s, tau, t = sample(seed, nat_tree_ctx)
    first = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    again = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    assert first == again


@given(seed=seeds)
def test_negation_totality(seed, nat_tree_ctx):
    g = Gen(seed)
    s = g.tp(3)
    tau = g.applicable_type(sc.TP_TYPE)
    t = tag_term(nat_tree_ctx, g.term(tau))
    plain = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    negated = sc.apply_strategy(nat_tree_ctx, {}, S.Neg(s), t, sc.EvalConfig())
    if plain == FAILURE:
        assert negated == Ok(t)
    else:
        assert negated == FAILURE


def always_failing(pi, s):
    """A strategy of s's type pi that fails on every term. The generator's
    overloaded types join type-preserving arrows only, so each branch can
    restrict fail."""
    if isinstance(pi, Amp):
        return functools.reduce(S.AmpS, [S.Restrict(S.Fail(), b)
                                         for b in amp_branches(pi)])
    return S.Seq(S.Fail(), s)


@given(seed=seeds)
def test_choice_units(seed, nat_tree_ctx):
    g, pi, s, tau, t = sample(seed, nat_tree_ctx)
    base = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    unit = always_failing(pi, s)
    for wrapped in (S.Choice(unit, s), S.Choice(s, unit),
                    S.LChoice(s, unit)):
        got = sc.apply_strategy(nat_tree_ctx, {}, wrapped, t, sc.EvalConfig())
        if isinstance(wrapped, S.LChoice) and isinstance(pi, Amp):
            # <+ negates its left operand's type, and an overloaded type
            # has no negation, so the input is ill-typed.
            assert isinstance(got, sc.EngineFailure)
            assert got.kind == "InternalTypeViolation"
        else:
            assert got == base


@given(seed=seeds)
def test_id_unit_of_seq_for_type_preserving(seed, nat_tree_ctx):
    g = Gen(seed)
    s = g.tp(3)
    tau = g.applicable_type(sc.TP_TYPE)
    t = tag_term(nat_tree_ctx, g.term(tau))
    base = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    for wrapped in (S.Seq(S.Id(), s), S.Seq(s, S.Id())):
        assert sc.apply_strategy(nat_tree_ctx, {}, wrapped, t,
                                 sc.EvalConfig()) == base


@given(seed=seeds)
def test_all_id_and_one_fail(seed, nat_tree_ctx):
    g = Gen(seed)
    tau = g.applicable_type(sc.TP_TYPE)
    t = tag_term(nat_tree_ctx, g.term(tau))
    assert sc.apply_strategy(nat_tree_ctx, {}, S.All(S.Id()), t,
                             sc.EvalConfig()) == Ok(t)
    assert sc.apply_strategy(nat_tree_ctx, {}, S.One(S.Fail()), t,
                             sc.EvalConfig()) == FAILURE


# -- prelude laws -------------------------------------------------------------
# Laws of the prelude's combinators that strategy optimisers rewrite by
# (Visser, Benaissa and Tolmach, ICFP 1998). Runs have unlimited fuel, so a
# draw that does not terminate ends in DepthExceeded, and is skipped.


def prelude_run(nat_tree, s, t):
    """s applied to t under the prelude with unlimited fuel; None for an
    EngineFailure."""
    out = sc.apply_strategy(nat_tree.context, nat_tree.definitions, s, t,
                            sc.EvalConfig(fuel=0))
    return None if isinstance(out, sc.EngineFailure) else out


def tp_sample(seed, ctx):
    """A TP strategy and a term of a type it applies to."""
    g = Gen(seed)
    v = g.tp(3)
    return v, tag_term(ctx, g.term(g.applicable_type(sc.TP_TYPE)))


@given(seed=seeds)
def test_try_is_left_choice_with_id(seed, nat_tree):
    v, t = tp_sample(seed, nat_tree.context)
    got = prelude_run(nat_tree, S.Call("Try", (), (v,)), t)
    want = prelude_run(nat_tree, S.LChoice(v, S.Id()), t)
    if got is not None and want is not None:
        assert got == want


@given(seed=seeds, name=st.sampled_from(["zero", UNIT_NAME]))
def test_td_on_a_constant_is_its_argument(seed, name, nat_tree):
    # TD(v) = v ; all(TD(v)), and all leaves a constant as it is. So on a
    # constant c, TD(v) is v when v fails on c or returns a constant, and
    # only then: if v rewrites c to f(d) and fails on the constant d,
    # then TD(v) fails on c.
    v, _ = tp_sample(seed, nat_tree.context)
    c = tag_term(nat_tree.context, sc.FunApp(name, ()))
    want = prelude_run(nat_tree, v, c)
    if want is None or isinstance(want, Ok) and want.term.args:
        return
    got = prelude_run(nat_tree, S.Call("TD", (), (v,)), c)
    if got is not None:
        assert got == want


@given(seed=seeds, name=st.sampled_from(["Repeat", "Innermost"]))
def test_repeat_and_innermost_stop_at_a_normal_form(seed, name, nat_tree):
    # Repeat(v) stops where v fails, and Innermost(v), which is
    # Repeat(OnceBU(v)), where OnceBU(v) fails.
    v, t = tp_sample(seed, nat_tree.context)
    out = prelude_run(nat_tree, S.Call(name, (), (v,)), t)
    if out is not None:
        step = v if name == "Repeat" else S.Call("OnceBU", (), (v,))
        assert prelude_run(nat_tree, step, out.term) == FAILURE


# Boom : Nat -> Nat loops forever, so it runs out of fuel if invoked.
BOOM = sc.parse_program(NAT_TREE_HEADER + "def Boom : Nat -> Nat = Boom;\n")


@given(seed=seeds)
def test_extension_safety(seed, nat_tree_ctx):
    # an extend whose inner strategy would loop forever if invoked:
    # out-of-domain terms must fail without touching it
    g = Gen(seed)
    s = S.Extend(S.Annot(S.Seq(S.Rule(
        sc.Var("N"), sc.FunApp("succ", (sc.Var("N"),))), S.Id()),
        Arrow(sc.Sort("Nat"), sc.Sort("Nat"))), sc.TP_TYPE)
    t = tag_term(nat_tree_ctx, g.term(sc.Sort("Tree")))
    out = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    assert out == FAILURE

    def boom(s, t):
        return sc.apply_strategy(BOOM.context, BOOM.definitions, s, t,
                                 sc.EvalConfig(fuel=50))
    landmine = S.Extend(S.Call("Boom", (), ()), sc.TP_TYPE)
    assert boom(landmine, t) == FAILURE
    # all reaches t's children, which are Nat under a leaf: the positive
    # control that the landmine goes off in its domain
    fuel_out = sc.EngineFailure("FuelExhausted",
                                "fuel exhausted expanding Boom")
    assert boom(S.All(landmine), t) == (
        fuel_out if t.name == "leaf" else FAILURE)
    assert boom(landmine, sc.parse_term("succ(zero)", BOOM.context)) == \
        fuel_out


@given(seed=seeds)
@settings(deadline=None)
def test_raw_vs_elaborated_agree(seed, nat_tree_ctx):
    g, pi, s, tau, t = sample(seed, nat_tree_ctx)
    raw = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    cooked = sc.type_and_core(nat_tree_ctx, s)[1]
    elab = sc.apply_strategy(nat_tree_ctx, {}, cooked, t, sc.EvalConfig())
    assert raw == elab


def expand(x):
    """Rewrite every s1 <+ s2 into s1 + (!s1 ; s2), and every s1 +> s2
    into its flipped form, at any depth."""
    if isinstance(x, S.RChoice):
        return expand(S.LChoice(x.right, x.left, x.pos))
    if isinstance(x, S.LChoice):
        left, right = expand(x.left), expand(x.right)
        return S.Choice(left, S.Seq(S.Neg(left, x.pos), right, x.pos), x.pos)
    if isinstance(x, (S.StrategyExpr, S.RuleBody)):
        return type(x)(*[expand(getattr(x, f))
                         for f in x._fields + x._uncompared])
    if isinstance(x, tuple):
        return tuple(expand(y) for y in x)
    return x


@given(seed=seeds)
@settings(deadline=None)
def test_left_choice_matches_its_expansion(seed, nat_tree_ctx):
    # The reference semantics of <+: the core node must agree with it.
    g, pi, s, tau, t = sample(seed, nat_tree_ctx)
    got = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
    want = sc.apply_strategy(nat_tree_ctx, {}, expand(s), t, sc.EvalConfig())
    assert got == want


@given(seed=seeds)
def test_amp_dispatch_is_type_directed(seed, nat_tree_ctx):
    # overloaded application consults the input sort only: replacing the
    # non-matching branch never changes the outcome
    g = Gen(seed)
    nn = Arrow(sc.Sort("Nat"), sc.Sort("Nat"))
    tt = Arrow(sc.Sort("Tree"), sc.Sort("Tree"))
    left = g.arrow(nn, 2)
    right = g.arrow(tt, 2)
    t = tag_term(nat_tree_ctx, g.term(sc.Sort("Nat")))
    base = sc.apply_strategy(nat_tree_ctx, {}, S.AmpS(left, right), t,
                             sc.EvalConfig())
    other = sc.apply_strategy(nat_tree_ctx, {},
                              S.AmpS(left, g.arrow(tt, 2)), t,
                              sc.EvalConfig())
    assert base == other


# Prelude combinators, by number of strategy and of type parameters.
COMBINATORS = [("Try", 1, 0), ("Repeat", 1, 0), ("TD", 1, 0), ("Con", 0, 0),
               ("Any", 1, 1), ("Chi", 3, 1), ("Crush", 3, 1)]
TERM_VARS = ["N", "N1", "N2", "T1", "T2"]
# Type arguments: declared, undeclared, a free type variable, compound.
TYPE_ARGS = [sc.Sort("Nat"), sc.Sort("Bogus"), sc.TypeVar("a"),
             sc.PairType(sc.Sort("Nat"), sc.UNIT)]
ILL_SORTED = sc.FunApp("succ", (sc.FunApp("leaf", (sc.FunApp("zero", ()),)),))


def mutate_at(x, k, fn):
    """x with its k-th strategy node, in pre-order, replaced by fn(node)."""
    seen = [-1]

    def walk(y):
        if isinstance(y, S.StrategyExpr):
            seen[0] += 1
            if seen[0] == k:
                return fn(y)
        if isinstance(y, (S.StrategyExpr, S.RuleBody)):
            return type(y)(*[walk(getattr(y, f))
                             for f in y._fields + y._uncompared])
        if isinstance(y, tuple):
            return tuple(walk(z) for z in y)
        return y

    return walk(x)


def count_nodes(x):
    """The number of strategy nodes in x."""
    if isinstance(x, tuple):
        return sum(count_nodes(y) for y in x)
    if not isinstance(x, (S.StrategyExpr, S.RuleBody)):
        return 0
    return (isinstance(x, S.StrategyExpr)
            + sum(count_nodes(getattr(x, f)) for f in x._fields))


def mutation(g, node):
    """An ill-formed replacement for node: a call with the wrong number of
    strategy arguments or with bad type arguments, an unknown name, or a
    rule that uses an unbound, undeclared or rebound variable or builds an
    ill-sorted term."""
    kinds = ["arity", "type_args", "unknown"]
    if isinstance(node, S.Rule):
        kinds += ["unknown_symbol", "unbound", "undeclared", "rebound",
                  "ill_sorted"]
    kind = g.pick(kinds)
    name, arity, ntypes = g.pick(COMBINATORS)
    if kind == "arity":
        n = g.pick([k for k in range(4) if k != arity])
        return S.Call(name, (sc.Sort("Nat"),) * ntypes, (node,) * n)
    if kind == "type_args":
        type_args = tuple(g.pick(TYPE_ARGS) for _ in range(g.pick([0, 1, 2])))
        return S.Call(name, type_args, (node,) * arity)
    if kind == "unknown":
        return S.Call("Mystery", (), g.pick([(), (node,)]))
    if kind == "unknown_symbol":
        return S.Rule(node.lhs, sc.Var("bogus"))
    if kind == "ill_sorted":
        return S.Rule(node.lhs, ILL_SORTED)
    if kind == "unbound":
        return S.Rule(node.lhs, sc.Var(g.pick(TERM_VARS)))
    var = "Qx" if kind == "undeclared" else g.pick(TERM_VARS)
    return S.Rule(node.lhs, node.rhs,
                  (S.Where(var, S.Id(), node.lhs),) + node.where)


@given(seed=seeds)
@settings(max_examples=300, deadline=None)
def test_ill_formed_library_input_never_escapes(seed, nat_tree):
    # 300 examples per run; each mutates one or two nodes of a random
    # strategy and applies it under the prelude's definitions.
    g = Gen(seed)
    pi, s = g.strategy()
    for _ in range(g.pick([1, 2])):
        k = g.rng.randrange(count_nodes(s))
        s = mutate_at(s, k, lambda node: mutation(g, node))
    t = g.term(g.applicable_type(pi))
    got = sc.apply_strategy(nat_tree.context, nat_tree.definitions, s, t,
                            sc.EvalConfig(fuel=1000))
    assert isinstance(got, (Ok, sc.Failure, sc.EngineFailure)), got
