"""Typing judgements: well-formedness, genericity, negation/composition of
types, greatest lower bounds, strategy and program typing.

Strategy typing also elaborates: one walk returns each strategy's type
together with its core, so checking and elaboration share a single pass.
The walk types each node in one call of `type_and_core`: sugar (`+>`,
`&>`, `guard`) and the bare names the parser leaves are replaced in place
by the node they stand for, which that call then types. The same walk
checks call arities and the variables each rule binds.

A many-sorted type is read as the overloaded sum of one branch, so each
judgement over a sum's branches (`amp_branches`) covers arrows too.

Every strategy expression has at most one type (implicit restriction is
resolved at composition/choice/application sites, so checking stays
deterministic).
"""

from . import syntax as S
from .errors import InapplicableType, StaticError
from .parser import parse_term
from .terms import (
    Amp,
    Arrow,
    EngineFailure,
    EvalConfig,
    EvalState,
    Ok,
    PairType,
    Sort,
    TP,
    TP_TYPE,
    TU,
    TypeVar,
    Unit,
    _in_frame_room,
    amp_branches,
    amp_of,
    check_context,
    is_generic,
    tag_term,
    term_vars,
    types_equal,
)


# ---------------------------------------------------------------------------
# Well-formedness


def wf_term_type(ctx, tt):
    if isinstance(tt, Sort):
        if tt.name not in ctx.sorts:
            raise StaticError("undeclared sort %s" % tt.name, rule="tau.1")
        return
    if isinstance(tt, Unit):
        return
    if isinstance(tt, PairType):
        wf_term_type(ctx, tt.left)
        wf_term_type(ctx, tt.right)
        return
    if isinstance(tt, TypeVar):
        if tt.name not in ctx.type_vars:
            raise StaticError("type variable %s is not in scope" % tt.name,
                              rule="tau.4")
        return
    raise TypeError("not a term type: %r" % (tt,))


def wf_strategy_type(ctx, pi):
    if isinstance(pi, TU):
        wf_term_type(ctx, pi.result)
    if is_generic(pi):
        return
    seen = []
    for b in amp_branches(pi):
        if is_generic(b):
            raise StaticError("overloaded sum contains a generic type %r"
                              % (b,), rule="pi.4")
        if not isinstance(b, Arrow):
            raise TypeError("not a strategy type: %r" % (b,))
        wf_term_type(ctx, b.dom)
        wf_term_type(ctx, b.cod)
        for e in seen:
            if _unify(e, b.dom):
                raise StaticError(
                    "overloaded branches share the domain %r" % (e,)
                    if e == b.dom else "overloaded branches share the "
                    "domains %r and %r under some type arguments"
                    % (e, b.dom), rule="pi.4")
        seen.append(b.dom)


def _unify(t1, t2):
    """Whether some type arguments make the term types t1 and t2 equal, a
    type variable standing for one type wherever it occurs."""
    subst = {}  # type variable name -> its type, which names no key
    todo = [(t1, t2)]
    while todo:
        a, b = (_substitute_type_vars(subst, t) for t in todo.pop())
        if isinstance(b, TypeVar):
            a, b = b, a
        if a == b:
            continue
        if isinstance(a, TypeVar):
            bind = {a.name: b}
            if _substitute_type_vars(bind, b) != b:  # b names a
                return False
            subst = {n: _substitute_type_vars(bind, t)
                     for n, t in subst.items()}
            subst[a.name] = b
        elif isinstance(a, PairType) and isinstance(b, PairType):
            todo += [(a.left, b.left), (a.right, b.right)]
        else:
            return False
    return True


def domains(pi):
    """Domain set of a non-generic strategy type."""
    for b in amp_branches(pi):
        if not isinstance(b, Arrow):
            raise StaticError("domain of generic type %r is undefined" % (b,),
                              rule="dom")
    return frozenset(b.dom for b in amp_branches(pi))


# ---------------------------------------------------------------------------
# Genericity ordering


def generically_less(p, q):
    """Strict 'is an instance of' ordering between strategy types."""
    if isinstance(q, TP):
        return all(isinstance(b, Arrow) and b.dom == b.cod
                   for b in amp_branches(p))
    if isinstance(q, TU):
        return all(isinstance(b, Arrow) and b.cod == q.result
                   for b in amp_branches(p))
    if isinstance(q, Amp):
        return (not is_generic(p)
                and set(amp_branches(p)) < set(amp_branches(q)))
    return False


def generically_leq(p, q):
    return types_equal(p, q) or generically_less(p, q)


# ---------------------------------------------------------------------------
# Negation and composition of types


def negatable(pi):
    if isinstance(pi, Arrow):
        return Arrow(pi.dom, pi.dom)
    if is_generic(pi):
        return TP_TYPE
    raise StaticError("cannot negate overloaded type %r" % (pi,), rule="negt")


def composable(p1, p2):
    if isinstance(p1, Arrow):
        if isinstance(p2, Arrow):
            if p1.cod == p2.dom:
                return Arrow(p1.dom, p2.cod)
            raise StaticError(
                "cannot compose %r with %r" % (p1, p2), rule="comp.1")
        if isinstance(p2, TP):
            return p1
        if isinstance(p2, TU):
            # Implicit restriction of the type-unifying right operand.
            return Arrow(p1.dom, p2.result)
    if isinstance(p1, TP):
        if is_generic(p2):
            return p2
        if isinstance(p2, Arrow):
            return p2
    if isinstance(p1, TU):
        if isinstance(p2, Arrow) and p2.dom == p1.result:
            return TU(p2.cod)
    if isinstance(p1, Amp) and isinstance(p2, Amp):
        right = {b.dom: b for b in amp_branches(p2)}
        out = []
        for b in amp_branches(p1):
            partner = right.get(b.cod)
            if partner is None:
                raise StaticError("no overloaded branch of %r accepts %r"
                                  % (p2, b.cod), rule="comp.6")
            out.append(Arrow(b.dom, partner.cod))
        return amp_of(out)
    raise StaticError("cannot compose %r with %r" % (p1, p2), rule="comp")


# ---------------------------------------------------------------------------
# Greatest lower bounds


def glb(p1, p2):
    if types_equal(p1, p2):
        return p1
    if generically_less(p1, p2):
        return p1
    if generically_less(p2, p1):
        return p2
    nongen1, nongen2 = not is_generic(p1), not is_generic(p2)
    if nongen1 and nongen2:
        b2 = set(amp_branches(p2))
        common = [b for b in amp_branches(p1) if b in b2]
        if common:
            return amp_of(common)
    elif nongen1 != nongen2:
        m, g = (p1, p2) if nongen1 else (p2, p1)
        sub = [b for b in amp_branches(m) if generically_less(b, g)]
        if sub:
            return amp_of(sub)
    raise StaticError("types %r and %r have no lower bound" % (p1, p2),
                      rule="choice")


# ---------------------------------------------------------------------------
# Application typing


def apply_type(ctx, pi, tau):
    """The unique codomain for applying a strategy of type pi to a term of
    type tau. ctx is unused, and kept because `bench/layers.py` calls
    apply_type(ctx, pi, tau)."""
    if isinstance(pi, TP):
        return tau
    if isinstance(pi, TU):
        return pi.result
    for b in amp_branches(pi):
        if b.dom == tau:
            return b.cod
    raise InapplicableType("strategy of type %r is not applicable to a term "
                           "of type %r" % (pi, tau), rule="apply")


# ---------------------------------------------------------------------------
# Strategy typing and elaboration


def _substitute_type_vars(subst, tt):
    if isinstance(tt, TypeVar):
        return subst.get(tt.name, tt)
    if isinstance(tt, PairType):
        return PairType(_substitute_type_vars(subst, tt.left),
                        _substitute_type_vars(subst, tt.right))
    return tt


def substitute_stype(subst, pi):
    if isinstance(pi, Arrow):
        return Arrow(_substitute_type_vars(subst, pi.dom),
                     _substitute_type_vars(subst, pi.cod))
    if isinstance(pi, TP):
        return pi
    if isinstance(pi, TU):
        return TU(_substitute_type_vars(subst, pi.result))
    if isinstance(pi, Amp):
        return Amp(substitute_stype(subst, pi.left),
                   substitute_stype(subst, pi.right))
    raise TypeError("not a strategy type: %r" % (pi,))


def _require_instance(p, q, rule="extend"):
    """Raise unless p is a strict instance of q (p < q)."""
    if not generically_less(p, q):
        raise StaticError("%r is not an instance of %r" % (p, q), rule=rule)


def _annotated(core, pi):
    """core wrapped in its type pi, unless it already carries one."""
    return core if isinstance(core, S.Annot) else S.Annot(core, pi, core.pos)


def _type_guard(arrow, stype, pos):
    """The core of guard(tau, stype), given arrow = tau -> tau."""
    return S.Extend(_annotated(S.Restrict(S.Id(pos), arrow, pos), arrow),
                    stype, pos)


def expand_tlchoice(ctx, s1, s2, pi1, pi2, pos=None):
    """The type and core of s1 <& s2 from each operand's core and type:
    extend(s1, pi2) + (!guard(dom s1, TP) ; s2)."""
    wf_strategy_type(ctx, pi2)
    _require_instance(pi1, pi2)
    guard = _type_guard(Arrow(pi1.dom, pi1.dom), TP_TYPE, pos)
    core = S.Choice(S.Extend(_annotated(s1, pi1), pi2, pos),
                    S.Seq(S.Neg(guard, pos), s2, pos), pos)
    # The left branch has type pi2 and the right one TP ; pi2, which is
    # pi2 wherever it is defined, so their glb is that type.
    return composable(TP_TYPE, pi2), core


def type_and_core(ctx, s):
    """Check s and return (its type, its elaborated core). The core has no
    sugar, tagged rule terms, and every extend argument and & branch wrapped
    in an Annot of its type. Idempotent: a core walks to an equal core.
    Each node is typed in one call: a bare name that names a strategy
    parameter or a function, `+>`, `&>` and `guard` are first replaced in
    place by the node they stand for, which the same call then types.
    This is where a diagnostic gets its position: the type algebra above
    raises without one, and the innermost node with a position that the
    error passes through supplies it."""
    pos = s.pos
    try:
        if isinstance(s, S.Call):
            # A bare name: a strategy parameter, a congruence or a
            # combinator call, in that order.
            if s.name in ctx.strategy_params:
                if s.type_args or s.args:
                    raise StaticError("strategy parameter %s takes no "
                                      "arguments" % s.name, rule="name")
                s = S.ParamRef(s.name, pos)
            elif s.name in ctx.functions:
                if s.type_args:
                    raise StaticError("function congruence %s takes no type "
                                      "arguments" % s.name, rule="name")
                s = S.CongFun(s.name, s.args, pos)
        elif isinstance(s, S.RChoice):
            s = S.LChoice(s.right, s.left, pos)
        elif isinstance(s, S.TRChoice):
            s = S.TLChoice(s.right, s.left, pos)
        elif isinstance(s, S.TypeGuard):
            wf_term_type(ctx, s.ttype)
            s = _type_guard(Arrow(s.ttype, s.ttype), s.stype, pos)
        if isinstance(s, (S.Id, S.Fail)):
            return TP_TYPE, s
        if isinstance(s, S.Rule):
            lhs = tag_term(ctx, s.lhs)
            bound = term_vars(lhs, set())
            where = []
            for w in s.where:
                pi_s, strat = type_and_core(ctx, w.strat)
                arg = tag_term(ctx, w.arg, bound)
                if w.var in bound:
                    raise StaticError("where-clause rebinds variable %s"
                                      % w.var, rule="name")
                declared = ctx.term_vars.get(w.var)
                if declared is None:
                    raise StaticError(
                        "where-bound variable %s is not declared" % w.var,
                        rule="name")
                tau_x = apply_type(ctx, pi_s, arg.tag)
                if declared != tau_x:
                    raise StaticError(
                        "where-clause binds %s : %r but the variable is "
                        "declared %r" % (w.var, tau_x, declared), rule="apply")
                bound.add(w.var)
                where.append(S.Where(w.var, strat, arg))
            rhs = tag_term(ctx, s.rhs, bound)
            return Arrow(lhs.tag, rhs.tag), S.Rule(lhs, rhs, tuple(where), pos)
        if isinstance(s, S.Seq):
            p1, c1 = type_and_core(ctx, s.left)
            p2, c2 = type_and_core(ctx, s.right)
            return composable(p1, p2), S.Seq(c1, c2, pos)
        if isinstance(s, S.Choice):
            p1, c1 = type_and_core(ctx, s.left)
            p2, c2 = type_and_core(ctx, s.right)
            return glb(p1, p2), S.Choice(c1, c2, pos)
        if isinstance(s, S.LChoice):
            p1, c1 = type_and_core(ctx, s.left)
            p2, c2 = type_and_core(ctx, s.right)
            pi = glb(p1, composable(negatable(p1), p2))
            return pi, S.LChoice(c1, c2, pos)
        if isinstance(s, S.Neg):
            p, c = type_and_core(ctx, s.arg)
            return negatable(p), S.Neg(c, pos)
        if isinstance(s, S.CongFun):
            if s.name not in ctx.functions:
                raise StaticError("unknown function %s in congruence" % s.name,
                                  rule="name")
            arg_sorts, result = ctx.functions[s.name]
            if len(s.args) != len(arg_sorts):
                raise StaticError(
                    "congruence %s expects %d argument strategies, got %d"
                    % (s.name, len(arg_sorts), len(s.args)), rule="cong")
            core_args = []
            for i, (a, sigma) in enumerate(zip(s.args, arg_sorts)):
                pa, ca = type_and_core(ctx, a)
                if not generically_leq(Arrow(sigma, sigma), pa):
                    raise StaticError(
                        "argument %d of congruence %s must admit %r -> %r, "
                        "has %r" % (i + 1, s.name, sigma, sigma, pa),
                        rule="cong.2")
                core_args.append(ca)
            return (Arrow(result, result),
                    S.CongFun(s.name, tuple(core_args), pos))
        if isinstance(s, S.CongUnit):
            u = Unit()
            return Arrow(u, u), s
        if isinstance(s, S.CongPair):
            p1, c1 = type_and_core(ctx, s.left)
            p2, c2 = type_and_core(ctx, s.right)
            if not isinstance(p1, Arrow) or not isinstance(p2, Arrow):
                raise StaticError(
                    "pair congruence needs many-sorted components, has %r "
                    "and %r" % (p1, p2), rule="cong.4")
            return (Arrow(PairType(p1.dom, p2.dom), PairType(p1.cod, p2.cod)),
                    S.CongPair(c1, c2, pos))
        if isinstance(s, (S.All, S.One)):
            pa, ca = type_and_core(ctx, s.arg)
            if not isinstance(pa, TP):
                word = "all" if isinstance(s, S.All) else "one"
                raise StaticError("%s needs a type-preserving argument, has %r"
                                  % (word, pa), rule=word)
            return TP_TYPE, type(s)(ca, pos)
        if isinstance(s, S.Reduce):
            pc, cc = type_and_core(ctx, s.child)
            if not isinstance(pc, TU):
                raise StaticError("reduce needs a type-unifying child "
                                  "strategy, has %r" % (pc,), rule="red")
            tau = pc.result
            want = Arrow(PairType(tau, tau), tau)
            pp, cp = type_and_core(ctx, s.splus)
            if not generically_leq(want, pp):
                raise StaticError("reduce composer must admit %r, has %r"
                                  % (want, pp), rule="red")
            return pc, S.Reduce(cp, cc, pos)
        if isinstance(s, S.Select):
            pa, ca = type_and_core(ctx, s.arg)
            if not isinstance(pa, TU):
                raise StaticError("select needs a type-unifying argument, "
                                  "has %r" % (pa,), rule="sel")
            return pa, S.Select(ca, pos)
        if isinstance(s, S.Void):
            return TU(Unit()), s
        if isinstance(s, S.Spawn):
            p1, c1 = type_and_core(ctx, s.left)
            p2, c2 = type_and_core(ctx, s.right)
            if not isinstance(p1, TU) or not isinstance(p2, TU):
                raise StaticError("spawn needs type-unifying operands, has %r "
                                  "and %r" % (p1, p2), rule="spawn")
            return TU(PairType(p1.result, p2.result)), S.Spawn(c1, c2, pos)
        if isinstance(s, (S.Extend, S.Restrict, S.Annot)):
            wf_strategy_type(ctx, s.stype)
            inner, c = type_and_core(ctx, s.arg)
            if isinstance(s, S.Extend):
                _require_instance(inner, s.stype)
                c = _annotated(c, inner)
            elif isinstance(s, S.Restrict):
                _require_instance(s.stype, inner, "restrict")
            elif not types_equal(inner, s.stype):
                raise StaticError("annotation %r does not match actual type %r"
                                  % (s.stype, inner), rule="annot")
            return s.stype, type(s)(c, s.stype, pos)
        if isinstance(s, S.AmpS):
            p1, c1 = type_and_core(ctx, s.left)
            p2, c2 = type_and_core(ctx, s.right)
            combined = amp_of(amp_branches(p1) + amp_branches(p2))
            try:
                wf_strategy_type(ctx, combined)
            except StaticError as e:
                raise StaticError(e.message, rule="pi.4")
            return combined, S.AmpS(_annotated(c1, p1), _annotated(c2, p2), pos)
        if isinstance(s, S.TLChoice):
            p1, c1 = type_and_core(ctx, s.left)
            if not isinstance(p1, Arrow):
                raise StaticError("left operand of <& must be many-sorted, "
                                  "has %r" % (p1,), rule="extend")
            p2, c2 = type_and_core(ctx, s.right)
            return expand_tlchoice(ctx, c1, c2, p1, p2, pos)
        if isinstance(s, S.ParamRef):
            if s.name not in ctx.strategy_params:
                raise StaticError("unknown strategy parameter %s" % s.name,
                                  rule="arg")
            return ctx.strategy_params[s.name], s
        if isinstance(s, S.Call):
            ct = ctx.combinators.get(s.name)
            if ct is None:
                raise StaticError("unknown name %s" % s.name, rule="name")
            if len(s.args) != len(ct.arg_types):
                raise StaticError(
                    "%s expects %d arguments, got %d"
                    % (s.name, len(ct.arg_types), len(s.args)), rule="comb")
            if len(s.type_args) != len(ct.type_params):
                raise StaticError(
                    "%s expects %d type arguments, got %d"
                    % (s.name, len(ct.type_params), len(s.type_args)),
                    rule="comb-forall")
            for ta in s.type_args:
                wf_term_type(ctx, ta)
            subst = dict(zip(ct.type_params, s.type_args))
            core_args = []
            for i, (a, want) in enumerate(zip(s.args, ct.arg_types)):
                want = substitute_stype(subst, want)
                wf_strategy_type(ctx, want)
                pa, ca = type_and_core(ctx, a)
                if not types_equal(pa, want):
                    raise StaticError(
                        "argument %d of %s must have type %r, has %r"
                        % (i + 1, s.name, want, pa), rule="comb")
                core_args.append(ca)
            result = substitute_stype(subst, ct.result_type)
            wf_strategy_type(ctx, result)
            return result, S.Call(s.name, s.type_args, tuple(core_args), pos)
        raise TypeError("not a strategy: %r" % (s,))
    except StaticError as e:
        if e.pos is None and pos is not None:
            e.pos = pos
        raise


# ---------------------------------------------------------------------------
# Program checking


def check_definition(ctx, d):
    """Check d in its own scope; return d with its body elaborated."""
    sub = ctx.with_params(d.ctype.type_params,
                          dict(zip(d.params, d.ctype.arg_types)))
    for what, names in (("type parameter", d.ctype.type_params),
                        ("parameter", d.params)):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise StaticError("duplicate %s %s in definition of %s"
                                  % (what, name, d.name), d.pos, rule="def")
    try:
        for pi in (*d.ctype.arg_types, d.ctype.result_type):
            wf_strategy_type(sub, pi)
    except StaticError as e:
        e.pos = d.pos
        raise
    body_type, body = type_and_core(sub, d.body)
    if not types_equal(body_type, d.ctype.result_type):
        raise StaticError(
            "body of %s has type %r, declared %r"
            % (d.name, body_type, d.ctype.result_type),
            pos=d.pos, rule="def.3")
    return S.Definition(d.name, d.params, d.ctype, body, d.pos)


def check_and_elaborate(program):
    """Check and elaborate every definition and main in one pass. Return
    (diagnostics, main_type, core program); main_type and the core are
    None when checking failed anywhere. Every definition, a prelude's
    included, is checked in the program's context."""
    ctx = program.context
    diags = list(check_context(ctx))
    defs = {}
    for name, d in program.definitions.items():
        try:
            defs[name] = check_definition(ctx, d)
        except StaticError as e:
            diags.append(e)
    main_type = main = None
    if program.main is not None:
        try:
            main_type, main = type_and_core(ctx, program.main)
        except StaticError as e:
            diags.append(e)
    if diags:
        return diags, None, None
    return [], main_type, S.Program(ctx, defs, main)


def check_program(program):
    """Return (diagnostics, main_type); main_type is None when checking
    failed anywhere. Kept because `bench/layers.py` imports it."""
    return check_and_elaborate(program)[:2]


class CheckedProgram:
    """A program checked once, in the frame room, by `check_and_elaborate`;
    it keeps its `diagnostics`, `type` and `core`, and runs main on terms."""

    def __init__(self, program):
        self.diagnostics, self.type, self.core = _in_frame_room(
            check_and_elaborate, program)
        self._idle = ([], [])  # idle `_Run`s, untraced and traced

    def run(self, term, cfg=None, state=None):
        """`run_program` on `term`, tagged and ground or text for `parse_term`,
        after raising the first diagnostic, a StaticError for a program without
        main, or InapplicableType; a reduct of another type than `apply_type`
        predicts is InternalTypeViolation. One room entry covers the read and
        the run. A run takes an idle `_Run` of its trace flag, or compiles one,
        and leaves it idle, so concurrent and nested runs use their own
        closures and a warm run compiles only what no earlier run reached."""
        return _in_frame_room(self._run, term, cfg, state)

    def _run(self, term, cfg, state):
        if self.diagnostics:
            raise self.diagnostics[0]
        if self.core.main is None:
            raise StaticError("missing main strategy", rule="def")
        if isinstance(term, str):
            term = parse_term(term, self.core.context)
        want = apply_type(self.core.context, self.type, term.tag)
        cfg, state = cfg or EvalConfig(), state or EvalState()
        idle = self._idle[bool(cfg.trace)]
        try:
            run = idle.pop()  # atomic, as is append
        except IndexError:
            from .evaluate import _Run
            run = _Run(self.core, cfg.trace)
        try:
            outcome = run.run(term, cfg, state)
        finally:
            idle.append(run)
        if isinstance(outcome, Ok) and outcome.term.tag is not want:
            return EngineFailure("InternalTypeViolation",
                                 "reduct is ill-typed: reduct has type %r, "
                                 "expected %r" % (outcome.term.tag, want))
        return outcome
