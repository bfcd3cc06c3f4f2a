"""Big-step evaluation of strategy applications.

The evaluator interprets only the elaborated core, so `extend` and `&`
dispatch on the types that elaboration annotated and on the tags that
terms got where they entered: `parse_term` or `tag_term` for the CLI,
`apply_strategy` for raw library input. `run_program` is the one entry to
evaluation and trusts both. A combinator call evaluates the definition
body as it is, under an environment that binds the call's actuals;
bodies are never rewritten.

Failure is a result (None internally, Failure at the API); engine-level
problems (fuel, recursion depth, unbound combinators, subject-reduction
breaches) surface as EngineError outcomes, never as Failure.
"""

import sys
from dataclasses import dataclass, field

from . import syntax as S
from .elaborate import elaborate, elaborate_definitions
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
    children,
    match,
    substitute,
    tag_ground_term,
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


# Per core class, the tag and the head of its trace lines; a head of None
# stands for the node's name.
_TRACE = {
    S.Rule: ("rule", "rule"), S.Id: ("id", "id"), S.Fail: ("fail", "fail"),
    S.Seq: ("seq", ";"), S.Choice: ("choice", "+"),
    S.LChoice: ("choice", "<+"), S.Neg: ("neg", "!"),
    S.CongCon: ("cong", None), S.CongFun: ("cong", None),
    S.CongUnit: ("cong", "()"), S.CongPair: ("cong", "(,)"),
    S.All: ("all", "all"), S.One: ("one", "one"),
    S.Reduce: ("red", "reduce"), S.Select: ("sel", "select"),
    S.Void: ("void", "void"), S.Spawn: ("spawn", "spawn"),
    S.Extend: ("extend", "extend"), S.Restrict: ("restrict", "restrict"),
    S.Annot: ("annot", ":"), S.AmpS: ("amp", "&"), S.Call: ("comb", None),
}


def term_head(t):
    if isinstance(t, (Constant, FunApp)):
        return t.name
    if isinstance(t, UnitTuple):
        return "()"
    return "(,)"


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
        tag, head = _TRACE[type(s)]
        st.trace_lines.append(
            "%s%s %s @ %s => %s"
            % ("  " * st.depth, tag, head or s.name, term_head(t),
               "fail" if result is None else "ok"))
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
        return _eval_rule_body(st, s.body, theta, env)
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
        return Pair(left, right, PairType(left.tag, right.tag))
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
            acc = _eval(st, s.splus, Pair(acc, r, PairType(acc.tag, r.tag)),
                        env)
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
        return Pair(left, right, PairType(left.tag, right.tag))
    if isinstance(s, S.Extend):
        if t.tag in _domains(s.arg, env):
            return _eval(st, s.arg, t, env)
        return None
    if isinstance(s, (S.Restrict, S.Annot)):
        return _eval(st, s.arg, t, env)
    if isinstance(s, S.AmpS):
        st.amp_dispatches += 1
        for branch in (s.left, s.right):
            if t.tag in _domains(branch, env):
                st.amp_branch_evals += 1
                return _eval(st, branch, t, env)
        raise InternalTypeViolation(
            "no overloaded branch accepts a term of type %r" % (t.tag,))
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


def _rebuild(t, new_children):
    """t, a term with children, over new children."""
    if isinstance(t, FunApp):
        return FunApp(t.name, tuple(new_children), t.tag)
    return Pair(new_children[0], new_children[1], t.tag)


def _eval_rule_body(st, body, theta, env):
    if isinstance(body, S.Result):
        return substitute(theta, body.term)
    u = substitute(theta, body.arg)
    r = _eval(st, body.strat, u, env)
    if r is None:
        return None
    theta = dict(theta)
    theta[body.var] = r
    return _eval_rule_body(st, body.rest, theta, env)


# ---------------------------------------------------------------------------
# Public entry points


def apply_strategy(ctx, defs, s, t, cfg=None, state=None):
    """Apply the raw strategy s to the raw term t under the raw definitions
    defs: t is tagged and must be ground, s and defs are checked and
    elaborated, and the core runs through run_program. Returns Ok, Failure,
    or EngineFailure; ill-typed input gives InternalTypeViolation."""
    try:
        t = tag_ground_term(ctx, t)
        core = S.Program(ctx, elaborate_definitions(ctx, defs),
                         elaborate(ctx, s))
    except StaticError as e:
        return EngineFailure("InternalTypeViolation",
                             "runtime typing failed: %s" % e.message)
    except RecursionError:
        return depth_exceeded()
    return run_program(core, t, cfg, state)


def depth_exceeded():
    """The outcome for input nested deeper than the Python stack allows."""
    return EngineFailure("DepthExceeded",
                         "nesting exceeds the recursion limit of %d frames"
                         % sys.getrecursionlimit())


def run_program(program, t, cfg=None, state=None):
    """Apply a core program's main strategy to t; returns Ok, Failure, or
    EngineFailure. The program is the core that `check_and_elaborate` or
    `elaborate_program` returns, and t is a ground term tagged as
    `parse_term` or `tag_term` returns it."""
    cfg = cfg or EvalConfig()
    if state is None:
        state = EvalState()
    state.defs = program.definitions
    state.cfg = cfg
    state.fuel = None if cfg.fuel == 0 else cfg.fuel
    state.depth = 0
    try:
        try:
            result = _eval(state, program.main, t, TOP)
        except (FuelExhausted, UnboundCombinator, InternalTypeViolation) as e:
            return EngineFailure(e.kind, e.detail)
        if result is None:
            return FAILURE
        try:
            return Ok(tag_term(program.context, result))
        except StaticError as e:
            return EngineFailure("InternalTypeViolation",
                                 "reduct is ill-typed: %s" % e.message)
    except RecursionError:
        return depth_exceeded()
