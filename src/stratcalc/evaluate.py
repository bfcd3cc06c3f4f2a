"""Evaluation of strategy applications, by compiling the core to closures.

A `_Run` compiles checked core to closures `f(t, env)` that return the
reduct, or None for failure. `env` binds the running definition's
strategy parameters, by position, to (closure, env) pairs. The closures
read the state of the run in progress (fuel, depth, trace sink, `&`
counters) from their `_Run` when called, so a `_Run` keeps them and
applies them to many terms, one after another. `run_program` runs a
fresh one; `CheckedProgram` keeps idle ones, so each of its concurrent
or nested runs takes a `_Run` of its own.

A call compiles in one of two ways. A call that sits in main or in a
shared instance, and whose callee takes strategy parameters and is not
that instance's own definition, gets its own copy of the callee's body,
compiled on its first run with the type arguments closed and each strategy
parameter bound to the site's compiled actual; that copy runs on the
caller's env. Every other call, a self-call and every call inside a copy
among them, goes through the program's shared instances: one body per
definition and closed type arguments, compiled on its first call and run
on an env built from the actuals. So a copy never makes a copy, and the
code compiled is bounded by the program's size, never by the work done.

Each call costs one unit of fuel and, traced, writes one `comb` line,
both at its callee's entry (see `_Scope.entry`). A call site only finds
that entry and builds the env it runs on; one that builds none (a copy,
or a self-call like TD's) hands the closures that hold it the entry on
its first run (see `_adopt`). Untraced, a body that is a sequence, a
choice or a one-layer traversal is its own entry, and these shapes run
as one closure each (see `_binary`): `s ; all(x)` (TD), `all(x) ; s`
(BU), `s <+ all(x)` (StopTD), `one(x) <+ s` (OnceBU), `s <+ id` (Try),
and the like with `one`, `select` and congruences. So TD's instance
takes one frame per level of the term. Traced, `_entry` writes each line.
"""

from itertools import repeat
from operator import itemgetter

from . import syntax as S
from .errors import (EngineError, FuelExhausted, InternalTypeViolation,
                     StaticError, UnboundCombinator)
from .terms import (FAILURE, PAIR_NAME, UNIT, UNIT_NAME, EngineFailure,
                    EvalConfig, EvalState, FunApp, Ok, PairType, Var,
                    check_reduct, depth_exceeded, tag_ground_term,
                    term_vars)
from .typecheck import (CheckedProgram, _substitute_type_vars, domains,
                        substitute_stype)


class _Run:
    """One core program's compiled closures for one trace flag: main and
    the instances by (name, type arguments), compiled as runs first reach
    them and kept, and `st`, the state of the run in progress (None
    between runs), which the closures read when called. No two runs may
    use one `_Run` at once."""

    def __init__(self, program, trace):
        self.program, self.trace = program, trace
        self.st = self.main = None
        self.instances = {}

    def instance(self, name, type_args):
        entry = self.instances.get((name, type_args))
        if entry is None:
            d = self.program.definitions.get(name)
            if d is None:
                raise UnboundCombinator(
                    "no definition for combinator %s" % name)
            entry = self.instances[name, type_args] = _Scope(
                self, name, dict(zip(d.ctype.type_params, type_args)),
                {p: i for i, p in enumerate(d.params)}).entry(d.body, name)
        return entry

    def run(self, t, cfg, state):
        """`run_program(self.program, t, cfg, state)` on the kept
        closures, for a cfg whose trace flag is this `_Run`'s."""
        state.fuel, state.depth = cfg.fuel or None, 0
        self.st = state
        try:
            try:
                if self.main is None:
                    self.main = _Scope(self, "", {}, {}).compile(
                        self.program.main)
                result = self.main(t, ())
            except EngineError as e:
                return EngineFailure(e.kind, e.detail)
            if result is None:
                return FAILURE
            try:
                if result is not t:
                    check_reduct(self.program.context, result)
            except StaticError as e:
                return EngineFailure("InternalTypeViolation",
                                     "reduct is ill-typed: %s" % e.message)
            return Ok(result)
        except RecursionError:
            return depth_exceeded()
        finally:
            self.st = None


class _Scope:
    """Compiles the core of one instance, of main, or of an inlined call.
    `owner` is the name of the definition whose shared instance it
    compiles, "" for main, and None for an inlined copy. `types` binds its
    type parameters, and `params` binds each strategy parameter to an index
    into the running env or, in an inlined copy, to a closure compiled in
    the caller's scope."""

    def __init__(self, run, owner, types, params):
        self.run, self.owner = run, owner
        self.types, self.params = types, params

    def compile(self, s):
        tag, _, build = _NODES[type(s)]
        f = _adopt(build(self, s))
        return _adopt(_entry(self.run, f, s)) if tag and self.run.trace else f

    def entry(self, s, name):
        """The body s of the definition `name` compiled as the entry of its
        calls: it charges each call's fuel and, traced, writes its line."""
        build = _NODES[type(s)][2]
        if not self.run.trace and build in (_binary, _loop):
            return _adopt(build(self, s, name))
        return _adopt(_entry(self.run, _adopt(build(self, s)), s, name))

    def domains(self, annot):
        return domains(substitute_stype(self.types, annot.stype)
                       if self.types else annot.stype)


def _adopt(f):
    """f, once each of its cells that holds a call site is handed to that
    site: if the site builds no env, its first run overwrites them with
    the callee's entry (see _call)."""
    for cell in f.__closure__ or ():
        cells = getattr(cell.cell_contents, "cells", None)
        if cells is not None:
            cells.append(cell)
    return f


def _entry(run, f, s, name=None):
    """f, the compiled node s, in one frame. As the entry of the definition
    `name`, that frame charges a call's fuel. Traced, once f has run, it
    writes the line of s if s has one of its own, then the call's `comb`
    line, each a level shallower than the one before."""
    tag, head, _ = _NODES[type(s)]
    prefixes = run.trace and [p for p in (
        tag and "%s %s @ " % (tag, head or s.name),
        name and "comb %s @ " % name) if p]

    def entry(t, env):
        st = run.st
        if name is not None and st.fuel is not None:
            if st.fuel <= 0:
                raise FuelExhausted("fuel exhausted expanding %s" % name)
            st.fuel -= 1
        if not prefixes:
            return f(t, env)
        st.depth += len(prefixes)
        r = f(t, env)
        out = "fail" if r is None else "ok"
        for prefix in prefixes:
            st.depth -= 1
            st.trace_lines.append("%s%s%s => %s" % (
                "  " * st.depth, prefix, t.name, out))
        return r
    return entry


def _rule(sc, s):
    lhs, rhs = _matcher(s.lhs), _builder(s.rhs)
    steps = [(w.var, _builder(w.arg), sc.compile(w.strat)) for w in s.where]
    head = None if isinstance(s.lhs, Var) else s.lhs.name

    def rule(t, env):
        if head is not None and t.name != head:
            return None
        theta = lhs(t)
        if theta is None:
            return None
        for var, arg, strat in steps:
            r = strat(arg(theta), env)
            if r is None:
                return None
            theta[var] = r  # theta is this application's own match
        return rhs(theta)
    return rule


def _builder(term):
    """The instances of a rule's term, as a closure: it takes a match that
    binds each variable of the term and returns the term with each replaced
    by its binding. A subterm with no variable is the term's own."""
    if isinstance(term, Var):
        return itemgetter(term.name)
    if not term_vars(term, set()):
        return lambda theta: term
    name, tag, args = term.name, term.tag, [_builder(a) for a in term.args]
    if len(args) == 1:
        a, = args
        return lambda theta: FunApp(name, (a(theta),), tag)
    if len(args) == 2:
        a, b = args
        return lambda theta: FunApp(name, (a(theta), b(theta)), tag)
    return lambda theta: FunApp(name, tuple([b(theta) for b in args]), tag)


def _matcher(pattern):
    """First-order matching against pattern, as a closure: it takes a
    ground term and returns a new substitution of its subterms for the
    pattern's variables that makes the two equal, or None. A repeated
    variable needs structurally equal subterms (tags excluded). A pattern
    whose arguments are distinct variables reads them off at once."""
    if isinstance(pattern, Var):
        name = pattern.name
        return lambda t: {name: t}
    name, n = pattern.name, len(pattern.args)
    names = [a.name for a in pattern.args if isinstance(a, Var)]
    if len(set(names)) == n:
        return lambda t: (dict(zip(names, t.args)) if t.name == name
                          and len(t.args) == n else None)
    return _match_into(pattern, set())


def _match_into(pattern, seen):
    """A closure that matches a term against the function pattern into
    theta, a new one if it is not given, and returns theta, or None if the
    term does not match. `seen` holds the variables bound before it, left
    to right; a repeated variable must meet a term structurally equal to
    its first (tags excluded). The variables first bound here are bound
    before the other arguments are tested, which no test can tell from
    binding them left to right."""
    name, n = pattern.name, len(pattern.args)
    fresh, tests = [], []
    for i, a in enumerate(pattern.args):
        if not isinstance(a, Var):
            tests.append((i, _match_into(a, seen)))
        elif a.name in seen:
            tests.append((i, lambda t, theta, var=a.name:
                          theta if theta[var] == t else None))
        else:
            seen.add(a.name)
            fresh.append((i, a.name))

    def node(t, theta=None):
        args = t.args
        if t.name != name or len(args) != n:
            return None
        if theta is None:
            theta = {}
        for i, var in fresh:
            theta[var] = args[i]
        for i, test in tests:
            if test(args[i], theta) is None:
                return None
        return theta
    return node


def _binary(sc, s, fuel=None):
    # s1 ; s2 runs s2 on what s1 returns; s1 <+ s2 runs s2 on t when s1
    # fails, and so does s1 + s2, which is s1 + (!s1 ; s2), where !s1 holds
    # whenever it is reached. Untraced, s runs in one closure with a
    # one-layer traversal on either side (see _loop). As the entry of the
    # definition `fuel`, it charges the calls that enter it, and s1 <+ id
    # returns t without a closure for id.
    run, orelse = sc.run, type(s) is not S.Seq
    if not run.trace:
        for loop, pre, post in ((s.right, s.left, None),
                                (s.left, None, s.right)):
            if _NODES[type(loop)][2] is _loop:
                return _loop(sc, loop, fuel, pre, post, orelse)
    first, other = sc.compile(s.left), sc.compile(s.right)
    if fuel is None and orelse:
        return lambda t, env: (other(t, env) if (out := first(t, env)) is None
                               else out)
    if fuel is None:
        return lambda t, env: (None if (mid := first(t, env)) is None
                               else other(mid, env))
    if orelse and type(s.right) is S.Id:
        other = None

    def binary(t, env):
        if (st := run.st).fuel is not None:
            if st.fuel <= 0:
                raise FuelExhausted("fuel exhausted expanding %s" % fuel)
            st.fuel -= 1
        r = first(t, env)
        if (r is None) is not orelse:
            return r
        return t if other is None else other(r or t, env)
    return binary


def _neg(sc, s):
    arg = sc.compile(s.arg)
    return lambda t, env: t if arg(t, env) is None else None


def _loop(sc, s, fuel=None, pre=None, post=None, orelse=False):
    # all(s) runs s on every child of t, and a congruence f(s1,...,sn) runs
    # each si on the i-th child of an f-term; both fail once a child fails,
    # and return t itself when no child changed. At the first child s
    # succeeds on, one(s) rewrites it (t itself if s returned that child),
    # and select(s) returns it. Fused (see _binary), it runs as `pre ; loop`
    # or `loop ; post`, or as `pre <+ loop` or `loop <+ post` if orelse,
    # after charging a call of the definition `fuel` if it is its entry.
    run, kind, every = sc.run, type(s), type(s) in (S.All, S.CongFun)
    name = s.name if kind is S.CongFun else None
    pre = pre and sc.compile(pre)
    fs = [sc.compile(a) for a in s.args] if name else None
    arg = None if name else sc.compile(s.arg)  # a cell a call site can own
    post, one = post and sc.compile(post), kind is S.One

    def loop(t, env):
        if fuel is not None and (st := run.st).fuel is not None:
            if st.fuel <= 0:
                raise FuelExhausted("fuel exhausted expanding %s" % fuel)
            st.fuel -= 1
        if pre is not None:
            r = pre(t, env)
            if (r is None) is not orelse:
                return r
            t = r or t
        out, cs = None, t.args
        if not every:
            for i, c in enumerate(cs):
                out = arg(c, env)
                if out is not None:
                    if one:
                        out = t if out is c else FunApp(
                            t.name, cs[:i] + (out,) + cs[i + 1:], t.tag)
                    break
        elif name is None or t.name == name:
            out, changed = [], False
            for f, c in zip(fs or repeat(arg), cs):
                r = f(c, env)
                if r is None:
                    out = None
                    break
                changed = changed or r is not c
                out.append(r)
            else:
                out = FunApp(t.name, tuple(out), t.tag) if changed else t
        if post is not None and (out is None) is orelse:
            return post(out or t, env)
        return out
    return loop


def _pair(sc, s):
    # A pair congruence takes t apart, and returns t itself when neither
    # side changed; spawn gives t to both sides.
    left, right = sc.compile(s.left), sc.compile(s.right)
    cong = isinstance(s, S.CongPair)

    def pair(t, env):
        if cong and t.name != PAIR_NAME:
            return None
        l, r = t.args if cong else (t, t)
        a = left(l, env)
        b = None if a is None else right(r, env)
        if b is None:
            return None
        if cong and a is l and b is r:
            return t
        return FunApp(PAIR_NAME, (a, b), PairType(a.tag, b.tag))
    return pair


def _reduce(sc, s):
    splus, child = sc.compile(s.splus), sc.compile(s.child)

    def reduce_(t, env):
        results = []
        for c in t.args:
            r = child(c, env)
            if r is None:
                return None
            results.append(r)
        acc = results[0] if results else None
        for r in results[1:]:
            acc = splus(FunApp(PAIR_NAME, (acc, r), PairType(acc.tag, r.tag)),
                        env)
            if acc is None:
                return None
        return acc
    return reduce_


def _extend(sc, s):
    arg, accepts = sc.compile(s.arg), sc.domains(s.arg)
    return lambda t, env: arg(t, env) if t.tag in accepts else None


def _amp(sc, s):
    run, branches = sc.run, [(sc.domains(b), sc.compile(b))
                             for b in (s.left, s.right)]

    def amp(t, env):
        st = run.st
        st.amp_dispatches += 1
        for accepts, branch in branches:
            if t.tag in accepts:
                st.amp_branch_evals += 1
                return branch(t, env)
        raise InternalTypeViolation(
            "no overloaded branch accepts a term of type %r" % (t.tag,))
    return amp


def _call(sc, s):
    name, params = s.name, sc.params
    key = tuple(_substitute_type_vars(sc.types, ta) for ta in s.type_args)
    # An actual that is the caller's own parameter passes on its binding,
    # so parameter chains never grow with recursion depth.
    actuals = [params[a.name]
               if type(a) is S.ParamRef and isinstance(params.get(a.name), int)
               else sc.compile(a) for a in s.args]
    entry, pack, cells = None, None, []  # cells: its parents' that hold it

    def call(t, env):
        nonlocal entry, pack
        if entry is None:
            entry, pack = _expansion(sc, name, key, actuals)
            if pack is None:  # its parents run the entry itself
                for cell in cells:
                    cell.cell_contents = entry
        if pack is not None:
            env = tuple([env[a] if isinstance(a, int) else (a, env)
                         for a in pack])
        return entry(t, env)
    call.cells = cells
    return call


def _expansion(sc, name, key, actuals):
    """(entry, pack) for a call in scope sc, decided on its first run: the
    callee's `_Scope.entry`, and the actuals to build its env from, or None
    to run it on the caller's env."""
    run = sc.run
    d = run.program.definitions.get(name)
    # A copy of the body, each parameter bound to its actual. A callee
    # without strategy parameters gains nothing from one: its shared
    # instance already runs on the caller's env. A copy's own calls go to
    # the shared instances, so no copy makes a copy; and a self-call keeps
    # its instance, so a recursion like TD(v) keeps the caller's env.
    if (d is not None and d.params and sc.owner is not None
            and name != sc.owner):
        return _Scope(run, None, dict(zip(d.ctype.type_params, key)),
                      dict(zip(d.params, actuals))).entry(d.body, name), None
    # A shared instance, on the caller's env if the actuals are its first
    # entries in order, as in TD(v).
    return run.instance(name, key), (
        None if actuals == list(range(len(actuals))) else actuals)


def _param(sc, s):
    b = sc.params.get(s.name)
    if b is None:
        def unbound(t, env):
            raise InternalTypeViolation(
                "unbound strategy parameter %s" % s.name)
        return unbound
    if not isinstance(b, int):
        return b  # a closure of the caller's that runs on this env

    def param(t, env):
        f, bound = env[b]
        return f(t, bound)
    return param


def _leaf(f):
    return lambda sc, s: f


# Per core class: the tag and head of its trace lines (a head of None is
# the node's name; a tag of None, no line of its own, as a call's is its
# callee entry's and a parameter's its binding's) and its compile function.
_NODES = {
    S.ParamRef: (None, None, _param), S.Call: (None, None, _call),
    S.Rule: ("rule", "rule", _rule),
    S.Id: ("id", "id", _leaf(lambda t, env: t)),
    S.Fail: ("fail", "fail", _leaf(lambda t, env: None)),
    S.Seq: ("seq", ";", _binary), S.Choice: ("choice", "+", _binary),
    S.LChoice: ("choice", "<+", _binary), S.Neg: ("neg", "!", _neg),
    S.CongFun: ("cong", None, _loop), S.CongUnit: ("cong", "()", _leaf(
        lambda t, env: t if t.name == UNIT_NAME else None)),
    S.CongPair: ("cong", "(,)", _pair),
    S.All: ("all", "all", _loop), S.One: ("one", "one", _loop),
    S.Reduce: ("red", "reduce", _reduce), S.Select: ("sel", "select", _loop),
    S.Void: ("void", "void", _leaf(
        lambda t, env: FunApp(UNIT_NAME, (), UNIT))),
    S.Spawn: ("spawn", "spawn", _pair),
    S.Extend: ("extend", "extend", _extend),
    S.Restrict: ("restrict", "restrict", lambda sc, s: sc.compile(s.arg)),
    S.Annot: ("annot", ":", lambda sc, s: sc.compile(s.arg)),
    S.AmpS: ("amp", "&", _amp),
}


def apply_strategy(ctx, defs, s, t, cfg=None, state=None):
    """Apply the raw strategy s to the raw ground term t under the raw
    definitions defs: a fresh `CheckedProgram` checks ctx, defs and s on
    each call and runs t, so s's type must apply to t's and the reduct must
    have the type `apply_type` predicts. Returns Ok, Failure, or
    EngineFailure; ill-typed input gives InternalTypeViolation with the
    first diagnostic. To apply one program to many terms, make one
    `CheckedProgram`; it enters the frame room, so no caller does."""
    try:
        t = tag_ground_term(ctx, t)
        return CheckedProgram(S.Program(ctx, defs, s)).run(t, cfg, state)
    except StaticError as e:
        return EngineFailure("InternalTypeViolation",
                             "runtime typing failed: %s" % e.message)
    except RecursionError:
        return depth_exceeded()


def run_program(program, t, cfg=None, state=None):
    """Apply the main strategy of a core program, as `check_and_elaborate`
    returns it, to t, a ground term tagged as `parse_term`, `tag_term` or
    `tag_ground_term` returns it; returns Ok, Failure, or EngineFailure.
    Subject reduction is checked on every node of a reduct that is not t
    itself; the reduct's root is not compared with the type `apply_type`
    predicts, as `CheckedProgram.run` compares it. The program is compiled
    afresh on each call; a `CheckedProgram` keeps what it compiles."""
    cfg, state = cfg or EvalConfig(), state or EvalState()
    return _Run(program, cfg.trace).run(t, cfg, state)
