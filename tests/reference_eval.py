"""The reference semantics of the core: a direct big-step interpreter.

This is the tree-walking evaluator the engine used before it compiled the
core to closures, the oracle that the differential tests compare
`stratcalc.evaluate.run_program` with. It re-decides every node's kind,
every `extend`/`&` domain and every call's type arguments on each visit,
so it is slow but plainly follows the rules.

It imports from `stratcalc` only classes and constants: the syntax nodes,
the term, type and outcome classes, the errors and `EvalConfig`. Every
judgement it makes (matching, substitution, the domains of an annotation,
type-variable substitution, typing the reduct, the depth outcome) is its
own short function below, with no caching and no fast paths, so that a
fault in the engine's version of one cannot show on both sides of a
comparison. `tests/test_reference.py` keeps it so.
"""

import sys
from dataclasses import dataclass, field

from stratcalc import syntax as S
from stratcalc.errors import (
    FuelExhausted,
    InternalTypeViolation,
    StaticError,
    UnboundCombinator,
)
from stratcalc.terms import (
    Amp,
    Arrow,
    EngineFailure,
    EvalConfig,
    FAILURE,
    FunApp,
    Ok,
    PAIR_NAME,
    PairType,
    TypeVar,
    UNIT,
    UNIT_NAME,
    Var,
)


@dataclass
class RefState:
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
    S.CongFun: ("cong", None), S.CongUnit: ("cong", "()"),
    S.CongPair: ("cong", "(,)"),
    S.All: ("all", "all"), S.One: ("one", "one"),
    S.Reduce: ("red", "reduce"), S.Select: ("sel", "select"),
    S.Void: ("void", "void"), S.Spawn: ("spawn", "spawn"),
    S.Extend: ("extend", "extend"), S.Restrict: ("restrict", "restrict"),
    S.Annot: ("annot", ":"), S.AmpS: ("amp", "&"), S.Call: ("comb", None),
}


def is_unit(t):
    return t.name == UNIT_NAME


def is_pair(t):
    return t.name == PAIR_NAME


def pair(left, right, tag):
    return FunApp(PAIR_NAME, (left, right), tag)


def term_head(t):
    if is_unit(t):
        return "()"
    if is_pair(t):
        return "(,)"
    return t.name


def children(t):
    """Immediate subterms of a compound term; constants and () have none."""
    if is_unit(t):
        return []
    if is_pair(t):
        return [t.args[0], t.args[1]]
    return list(t.args)


# The judgements evaluation makes, each from its definition.


def match(pattern, subject):
    """First-order matching: the substitution of subterms of subject for
    the variables of pattern that makes the two equal, or None. A repeated
    variable needs structurally equal subterms (tags excluded)."""
    theta = {}
    if _match_into(pattern, subject, theta):
        return theta
    return None


def _match_into(pattern, subject, theta):
    if isinstance(pattern, Var):
        bound = theta.get(pattern.name)
        if bound is None:
            theta[pattern.name] = subject
            return True
        return bound == subject
    if pattern.name != subject.name or len(pattern.args) != len(subject.args):
        return False
    for p, s in zip(pattern.args, subject.args):
        if not _match_into(p, s, theta):
            return False
    return True


def substitute(theta, t):
    """t with each variable replaced by its binding in theta."""
    if isinstance(t, Var):
        return theta[t.name]
    return FunApp(t.name, tuple([substitute(theta, a) for a in t.args]),
                  t.tag)


def domains(pi):
    """dom(pi): an arrow's domain, or the union of a sum's branches'."""
    if isinstance(pi, Amp):
        return domains(pi.left) | domains(pi.right)
    return {pi.dom}


def substitute_type(types, ty):
    """The term or strategy type ty with each type variable that types
    binds replaced by its binding."""
    if isinstance(ty, TypeVar):
        return types.get(ty.name, ty)
    if isinstance(ty, PairType):
        return PairType(substitute_type(types, ty.left),
                        substitute_type(types, ty.right))
    if isinstance(ty, Arrow):
        return Arrow(substitute_type(types, ty.dom),
                     substitute_type(types, ty.cod))
    if isinstance(ty, Amp):
        return Amp(substitute_type(types, ty.left),
                   substitute_type(types, ty.right))
    return ty


def type_reduct(ctx, t):
    """t rebuilt with each node tagged by its type under ctx: () has type
    (), a pair the pair of its sides' types, and f(t1,...,tn) the result
    sort of f when each ti has f's i-th argument sort. Raises a
    StaticError at the first node, children first, that has no type. A
    loop, not a comprehension, so that a level of nesting costs one
    frame."""
    if not isinstance(t, FunApp):
        raise StaticError("not a ground term: %r" % (t,), rule="var")
    args = []
    for a in t.args:
        args.append(type_reduct(ctx, a))
    args = tuple(args)
    arg_types = tuple([a.tag for a in args])
    if t.name == UNIT_NAME and not args:
        tag = UNIT
    elif t.name == PAIR_NAME and len(args) == 2:
        tag = PairType(*arg_types)
    else:
        sig = ctx.functions.get(t.name)
        if sig is None or tuple(sig[0]) != arg_types:
            raise StaticError("%s has no type on arguments of types %r"
                              % (t.name, arg_types), rule="fun")
        tag = sig[1]
    return FunApp(t.name, args, tag)


def depth_exceeded():
    """The outcome for input nested deeper than the Python stack allows."""
    return EngineFailure("DepthExceeded",
                         "nesting exceeds the recursion limit of %d frames"
                         % sys.getrecursionlimit())


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
    return domains(substitute_type(env.types, annot.stype))


def _eval_node(st, s, t, env):
    if isinstance(s, S.Id):
        return t
    if isinstance(s, S.Fail):
        return None
    if isinstance(s, S.Void):
        return FunApp(UNIT_NAME, (), UNIT)
    if isinstance(s, S.Rule):
        theta = match(s.lhs, t)
        if theta is None:
            return None
        for w in s.where:
            r = _eval(st, w.strat, substitute(theta, w.arg), env)
            if r is None:
                return None
            theta[w.var] = r
        return substitute(theta, s.rhs)
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
        return t if is_unit(t) else None
    if isinstance(s, S.CongPair):
        if not is_pair(t):
            return None
        left = _eval(st, s.left, t.args[0], env)
        if left is None:
            return None
        right = _eval(st, s.right, t.args[1], env)
        if right is None:
            return None
        return pair(left, right, PairType(left.tag, right.tag))
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
            acc = _eval(st, s.splus, pair(acc, r, PairType(acc.tag, r.tag)),
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
        return pair(left, right, PairType(left.tag, right.tag))
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
        types = {p: substitute_type(env.types, ta)
                 for p, ta in zip(d.ctype.type_params, s.type_args)}
        return _eval(st, d.body, t, Env(strats, types))
    raise TypeError("not a strategy: %r" % (s,))


def _rebuild(t, new_children):
    """t, a term with children, over new children."""
    if is_pair(t):
        return pair(new_children[0], new_children[1], t.tag)
    return FunApp(t.name, tuple(new_children), t.tag)


def run_reference(program, t, cfg=None):
    """`run_program` under the reference semantics: returns the outcome
    and the RefState the run left behind."""
    cfg = cfg or EvalConfig()
    state = RefState(defs=program.definitions, cfg=cfg,
                     fuel=None if cfg.fuel == 0 else cfg.fuel)
    try:
        try:
            result = _eval(state, program.main, t, TOP)
        except (FuelExhausted, UnboundCombinator, InternalTypeViolation) as e:
            return EngineFailure(e.kind, e.detail), state
        if result is None:
            return FAILURE, state
        try:
            return Ok(type_reduct(program.context, result)), state
        except StaticError as e:
            return EngineFailure("InternalTypeViolation",
                                 "reduct is ill-typed: %s" % e.message), state
    except RecursionError:
        return depth_exceeded(), state
