"""Big-step evaluation of strategy applications.

The evaluator interprets only the elaborated core, so `extend` and `&`
dispatch on the types that elaboration annotated. `run_program` takes a
program that is already core; `apply_strategy` and `eval_body` check and
elaborate their raw input first. A combinator call evaluates the
definition body as it is, under an environment that binds the call's
actuals; bodies are never rewritten.

Failure is a result (None internally, Failure at the API); engine-level
problems (fuel, recursion depth, unbound combinators, subject-reduction
breaches) surface as EngineError outcomes, never as Failure.
"""

import sys
from dataclasses import dataclass, field

from . import syntax as S
from .elaborate import elaborate, elaborate_body, elaborate_definitions
from .errors import (
    FuelExhausted,
    InternalTypeViolation,
    StaticError,
    UnboundCombinator,
)
from .terms import (
    Constant,
    FAILURE,
    FunApp,
    Ok,
    Pair,
    PairType,
    UNIT,
    UnitTuple,
    Var,
    children,
    get_tag,
    is_ground,
    match,
    substitute,
    tag_term,
)
from .typecheck import _substitute_type_vars, domains, substitute_stype


@dataclass
class EvalConfig:
    fuel: int = 100000  # 0 means unlimited
    trace: bool = False


@dataclass
class EngineFailure:
    kind: str
    detail: str


@dataclass
class EvalState:
    ctx: object = None
    defs: dict = field(default_factory=dict)
    cfg: EvalConfig = field(default_factory=EvalConfig)
    fuel: object = None  # remaining expansions, None = unlimited
    depth: int = 0
    trace_lines: list = field(default_factory=list)
    amp_dispatches: int = 0
    amp_branch_evals: int = 0


@dataclass(frozen=True)
class Env:
    """The bindings of one combinator instance: each strategy parameter
    maps to (actual, the Env of the call that passed it), each type
    parameter to a closed term type."""
    strats: dict
    types: dict


TOP = Env({}, {})


_HEADS = {
    S.Rule: "rule", S.Id: "id", S.Fail: "fail", S.Seq: ";", S.Choice: "+",
    S.LChoice: "<+", S.Neg: "!", S.CongUnit: "()", S.CongPair: "(,)",
    S.All: "all", S.One: "one", S.Reduce: "reduce", S.Select: "select",
    S.Void: "void", S.Spawn: "spawn", S.Extend: "extend",
    S.Restrict: "restrict", S.Annot: ":", S.AmpS: "&",
}


def strat_head(s):
    if isinstance(s, (S.Call, S.CongCon, S.CongFun)):
        return s.name
    return _HEADS.get(type(s), type(s).__name__)


def term_head(t):
    if isinstance(t, (Constant, FunApp, Var)):
        return t.name
    if isinstance(t, UnitTuple):
        return "()"
    return "(,)"


_TAGS = {
    S.Rule: "rule", S.Id: "id", S.Fail: "fail", S.Seq: "seq",
    S.Choice: "choice", S.LChoice: "choice", S.Neg: "neg", S.CongCon: "cong",
    S.CongFun: "cong", S.CongUnit: "cong", S.CongPair: "cong", S.All: "all",
    S.One: "one", S.Reduce: "red", S.Select: "sel", S.Void: "void",
    S.Spawn: "spawn", S.Extend: "extend", S.Restrict: "restrict",
    S.Annot: "annot", S.AmpS: "amp", S.Call: "comb",
}


def _eval(st, s, t, env):
    while isinstance(s, S.ParamRef):
        bound = env.strats.get(s.name)
        if bound is None:
            raise InternalTypeViolation(
                "unbound strategy parameter %s" % s.name)
        s, env = bound
    if st.cfg.trace:
        st.depth += 1
        result = _eval_node(st, s, t, env)
        st.depth -= 1
        st.trace_lines.append(
            "%s%s %s @ %s => %s"
            % ("  " * st.depth, _TAGS.get(type(s), "?"), strat_head(s),
               term_head(t), "fail" if result is None else "ok"))
        return result
    return _eval_node(st, s, t, env)


def _domains(annot, env):
    """Domains of an elaborated annotation under the env's type bindings."""
    if env.types:
        return domains(substitute_stype(env.types, annot.stype))
    return domains(annot.stype)


def _eval_node(st, s, t, env):
    if isinstance(s, S.Id):
        return t
    if isinstance(s, S.Fail):
        return None
    if isinstance(s, S.Void):
        return UnitTuple(UNIT)
    if isinstance(s, S.Rule):
        theta = match(s.lhs, t)
        if theta is None:
            return None
        return _eval_body(st, s.body, theta, env)
    if isinstance(s, S.Seq):
        mid = _eval(st, s.left, t, env)
        if mid is None:
            return None
        return _eval(st, s.right, mid, env)
    if isinstance(s, (S.Choice, S.LChoice)):
        # s1 <+ s2 means s1 + (!s1 ; s2); since + tries s1 first and s1
        # is deterministic, the !s1 there always succeeds and is skipped.
        out = _eval(st, s.left, t, env)
        if out is None:
            return _eval(st, s.right, t, env)
        return out
    if isinstance(s, S.Neg):
        out = _eval(st, s.arg, t, env)
        return t if out is None else None
    if isinstance(s, S.CongCon):
        if isinstance(t, Constant) and t.name == s.name:
            return t
        return None
    if isinstance(s, S.CongFun):
        if not isinstance(t, FunApp) or t.name != s.name:
            return None
        if len(t.args) != len(s.args):
            raise InternalTypeViolation("congruence arity mismatch on %s" % s.name)
        out = []
        for sub, c in zip(s.args, t.args):
            r = _eval(st, sub, c, env)
            if r is None:
                return None
            out.append(r)
        return FunApp(t.name, tuple(out), t.tag)
    if isinstance(s, S.CongUnit):
        return t if isinstance(t, UnitTuple) else None
    if isinstance(s, S.CongPair):
        if not isinstance(t, Pair):
            return None
        left = _eval(st, s.left, t.left, env)
        if left is None:
            return None
        right = _eval(st, s.right, t.right, env)
        if right is None:
            return None
        return Pair(left, right, _pair_tag(left, right))
    if isinstance(s, S.All):
        cs = children(t)
        if not cs:
            return t
        out = []
        for c in cs:
            r = _eval(st, s.arg, c, env)
            if r is None:
                return None
            out.append(r)
        return _rebuild(t, out)
    if isinstance(s, S.One):
        cs = children(t)
        for i, c in enumerate(cs):
            r = _eval(st, s.arg, c, env)
            if r is not None:
                out = list(cs)
                out[i] = r
                return _rebuild(t, out)
        return None
    if isinstance(s, S.Reduce):
        cs = children(t)
        if not cs:
            return None
        results = []
        for c in cs:
            r = _eval(st, s.child, c, env)
            if r is None:
                return None
            results.append(r)
        acc = results[0]
        for r in results[1:]:
            acc = _eval(st, s.splus, Pair(acc, r, _pair_tag(acc, r)), env)
            if acc is None:
                return None
        return acc
    if isinstance(s, S.Select):
        for c in children(t):
            r = _eval(st, s.arg, c, env)
            if r is not None:
                return r
        return None
    if isinstance(s, S.Spawn):
        left = _eval(st, s.left, t, env)
        if left is None:
            return None
        right = _eval(st, s.right, t, env)
        if right is None:
            return None
        return Pair(left, right, _pair_tag(left, right))
    if isinstance(s, S.Extend):
        if get_tag(st.ctx, t) in _domains(s.arg, env):
            return _eval(st, s.arg, t, env)
        return None
    if isinstance(s, (S.Restrict, S.Annot)):
        return _eval(st, s.arg, t, env)
    if isinstance(s, S.AmpS):
        tau = get_tag(st.ctx, t)
        st.amp_dispatches += 1
        for branch in (s.left, s.right):
            if tau in _domains(branch, env):
                st.amp_branch_evals += 1
                return _eval(st, branch, t, env)
        raise InternalTypeViolation(
            "no overloaded branch accepts a term of type %r" % (tau,))
    if isinstance(s, S.Call):
        d = st.defs.get(s.name)
        if d is None:
            raise UnboundCombinator("no definition for combinator %s" % s.name)
        if st.fuel is not None:
            if st.fuel <= 0:
                raise FuelExhausted("fuel exhausted expanding %s" % s.name)
            st.fuel -= 1
        # An actual that is itself a bound parameter passes on its own
        # binding, so parameter chains never grow with recursion depth.
        strats = {p: env.strats.get(a.name, (a, env))
                  if isinstance(a, S.ParamRef) else (a, env)
                  for p, a in zip(d.params, s.args)}
        types = {p: _substitute_type_vars(env.types, ta)
                 for p, ta in zip(d.type_params, s.type_args)}
        return _eval(st, d.body, t, Env(strats, types))
    raise TypeError("not a strategy: %r" % (s,))


def _pair_tag(left, right):
    if left.tag is not None and right.tag is not None:
        return PairType(left.tag, right.tag)
    return None


def _rebuild(t, new_children):
    if isinstance(t, FunApp):
        return FunApp(t.name, tuple(new_children), t.tag)
    if isinstance(t, Pair):
        return Pair(new_children[0], new_children[1], t.tag)
    raise InternalTypeViolation("cannot rebuild %r" % (t,))


def _eval_body(st, body, theta, env):
    if isinstance(body, S.Result):
        return substitute(theta, body.term)
    u = substitute(theta, body.arg)
    r = _eval(st, body.strat, u, env)
    if r is None:
        return None
    theta = dict(theta)
    theta[body.var] = r
    return _eval_body(st, body.rest, theta, env)


# ---------------------------------------------------------------------------
# Public entry points


def apply_strategy(ctx, defs, s, t, cfg=None, state=None):
    """Apply s to the ground term t; returns Ok, Failure, or EngineFailure.
    s and defs are checked and elaborated first."""
    return _apply(ctx, t, cfg, state,
                  lambda: (elaborate_definitions(ctx, defs),
                           elaborate(ctx, s)))


def run_program(program, t, cfg=None, state=None):
    """Apply an elaborated program's main strategy to t: the core that
    `check_and_elaborate` or `elaborate_program` returns."""
    return _apply(program.context, t, cfg, state,
                  lambda: (program.definitions, program.main))


def eval_body(ctx, defs, b, theta, cfg=None, state=None):
    """Evaluate a rule body under a substitution (exposed for tests)."""
    return _run(ctx, cfg, state,
                lambda: (elaborate_definitions(ctx, defs),
                         elaborate_body(ctx, b)),
                lambda st, core: _eval_body(st, core, theta, TOP))


def _apply(ctx, t, cfg, state, prepare):
    def evaluate(st, core):
        assert is_ground(t), "strategy application needs a ground term"
        return _eval(st, core, t, TOP)

    return _run(ctx, cfg, state, prepare, evaluate)


def depth_exceeded():
    """The outcome for input nested deeper than the Python stack allows."""
    return EngineFailure("DepthExceeded",
                         "nesting exceeds the recursion limit of %d frames"
                         % sys.getrecursionlimit())


def _run(ctx, cfg, state, prepare, evaluate):
    """Set up `state`, take the core definitions and input from
    `prepare()`, pass the input to `evaluate`, and turn errors into
    EngineFailure outcomes."""
    cfg = cfg or EvalConfig()
    if state is None:
        state = EvalState()
    state.ctx = ctx
    state.cfg = cfg
    state.fuel = None if cfg.fuel == 0 else cfg.fuel
    state.depth = 0
    try:
        try:
            state.defs, core = prepare()
        except StaticError as e:
            # Only library input that was never checked can get here.
            return EngineFailure("InternalTypeViolation",
                                 "runtime typing failed: %s" % e.message)
        try:
            result = evaluate(state, core)
        except (FuelExhausted, UnboundCombinator, InternalTypeViolation) as e:
            return EngineFailure(e.kind, e.detail)
        if result is None:
            return FAILURE
        try:
            return Ok(tag_term(ctx, result))
        except StaticError as e:
            return EngineFailure("InternalTypeViolation",
                                 "reduct is ill-typed: %s" % e.message)
    except RecursionError:
        return depth_exceeded()
