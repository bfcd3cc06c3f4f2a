"""Core model: terms, term/strategy types, contexts, matching, substitution.

Terms and types are immutable. Term equality is structural; the optional
sort tag is metadata and excluded from equality and hashing.
"""

from dataclasses import dataclass, field, replace

from .errors import (
    ArgSortMismatch,
    ArityMismatch,
    DuplicateName,
    UnboundVariable,
    UndeclaredSortInDecl,
    UndeclaredSymbol,
    UnknownName,
)


# ---------------------------------------------------------------------------
# Term types


class TermType:
    pass


@dataclass(frozen=True)
class Sort(TermType):
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Unit(TermType):
    def __repr__(self):
        return "()"


UNIT = Unit()


@dataclass(frozen=True)
class PairType(TermType):
    left: TermType
    right: TermType

    def __repr__(self):
        return "(%r,%r)" % (self.left, self.right)


@dataclass(frozen=True)
class TypeVar(TermType):
    name: str

    def __repr__(self):
        return self.name


# ---------------------------------------------------------------------------
# Strategy types


class StrategyType:
    pass


@dataclass(frozen=True)
class Arrow(StrategyType):
    dom: TermType
    cod: TermType

    def __repr__(self):
        return "%r -> %r" % (self.dom, self.cod)


@dataclass(frozen=True)
class TP(StrategyType):
    def __repr__(self):
        return "TP"


TP_TYPE = TP()


@dataclass(frozen=True)
class TU(StrategyType):
    result: TermType

    def __repr__(self):
        return "TU(%r)" % self.result


@dataclass(frozen=True)
class Amp(StrategyType):
    left: StrategyType
    right: StrategyType

    def __repr__(self):
        return "%r & %r" % (self.left, self.right)


def amp_branches(pi):
    """Flatten nested Amp into a list of non-Amp branch types."""
    if isinstance(pi, Amp):
        return amp_branches(pi.left) + amp_branches(pi.right)
    return [pi]


def amp_of(branches):
    """Rebuild a strategy type from a non-empty branch list (right-nested)."""
    assert branches
    out = branches[-1]
    for b in reversed(branches[:-1]):
        out = Amp(b, out)
    return out


def types_equal(pi1, pi2):
    """Strategy type equality modulo associativity/commutativity of &."""
    if isinstance(pi1, Amp) or isinstance(pi2, Amp):
        return frozenset(amp_branches(pi1)) == frozenset(amp_branches(pi2))
    return pi1 == pi2


def is_generic(pi):
    return isinstance(pi, (TP, TU))


@dataclass(frozen=True)
class CombinatorType:
    type_params: tuple  # of str
    arg_types: tuple  # of StrategyType
    result_type: StrategyType


# ---------------------------------------------------------------------------
# Terms


class Term:
    tag = None


@dataclass(frozen=True)
class FunApp(Term):
    """f(t1,...,tn); a constant is a function with no arguments."""
    name: str
    args: tuple
    tag: TermType = field(default=None, compare=False)


@dataclass(frozen=True)
class Var(Term):
    name: str
    tag: TermType = field(default=None, compare=False)


@dataclass(frozen=True)
class UnitTuple(Term):
    tag: TermType = field(default=None, compare=False)


@dataclass(frozen=True)
class Pair(Term):
    left: Term
    right: Term
    tag: TermType = field(default=None, compare=False)


def children(t):
    """Immediate subterms of a compound term; constants and () have none."""
    if isinstance(t, FunApp):
        return t.args
    if isinstance(t, Pair):
        return (t.left, t.right)
    return ()


def rebuild(t, new_children):
    """t, a term with children, over new children, keeping t's tag."""
    if isinstance(t, FunApp):
        return FunApp(t.name, tuple(new_children), t.tag)
    return Pair(new_children[0], new_children[1], t.tag)


# ---------------------------------------------------------------------------
# Outcomes


@dataclass(frozen=True)
class Ok:
    term: Term


@dataclass(frozen=True)
class Failure:
    pass


FAILURE = Failure()


# ---------------------------------------------------------------------------
# Context


# The Context table that indexes each keyword's declarations; sorts go to
# the set `sorts`.
_TABLES = {"con": "functions", "fun": "functions", "var": "term_vars",
           "def": "combinators"}


@dataclass
class Context:
    sorts: set = field(default_factory=set)
    functions: dict = field(default_factory=dict)  # name -> (arg sorts, result sort)
    term_vars: dict = field(default_factory=dict)  # name -> TermType
    combinators: dict = field(default_factory=dict)  # name -> CombinatorType
    strategy_params: dict = field(default_factory=dict)  # name -> StrategyType
    type_vars: set = field(default_factory=set)
    # Declarations in source order, duplicates included, as records
    # (keyword, name, value, pos); the tables above index them by name.
    decls: list = field(default_factory=list)

    def declare(self, keyword, name, value=None, pos=None):
        """Record `keyword name : value` and index it. The keyword is sort
        (value None), con or fun ((arg sorts, result sort), with no argument
        sorts for a con), var (a TermType) or def (a CombinatorType)."""
        self.decls.append((keyword, name, value, pos))
        if keyword == "sort":
            self.sorts.add(name)
        else:
            getattr(self, _TABLES[keyword])[name] = value

    def with_params(self, type_params, strategy_params):
        """A scope for checking one definition body."""
        return replace(self, strategy_params=dict(strategy_params),
                       type_vars=set(type_params))


def check_context(ctx):
    """Return a list of diagnostics; empty means the context is well-formed.
    Duplicates come first, then each declaration's undeclared sorts, both in
    source order and each at its own declaration."""
    diags = []
    seen = set()
    last = {}  # (keyword, name) -> (value, pos) of its last declaration
    for keyword, name, value, pos in ctx.decls:
        key = (keyword == "sort", name)  # sorts, and all other symbols
        if key in seen:
            diags.append(DuplicateName("duplicate declaration of %s" % name, pos=pos))
        seen.add(key)
        last[keyword, name] = value, pos
    for (keyword, name), (value, pos) in last.items():
        if keyword in ("con", "fun"):
            mentioned = list(value[0]) + [value[1]]
        elif keyword == "var":
            mentioned = _sorts_in_term_type(value)
        else:
            mentioned = ()
        for s in mentioned:
            if s.name not in ctx.sorts:
                diags.append(UndeclaredSortInDecl(
                    "%s %s mentions undeclared sort %s" % (keyword, name, s.name),
                    pos=pos))
    return diags


def _sorts_in_term_type(tt):
    if isinstance(tt, Sort):
        return [tt]
    if isinstance(tt, PairType):
        return _sorts_in_term_type(tt.left) + _sorts_in_term_type(tt.right)
    return []


# ---------------------------------------------------------------------------
# Term typing


def type_of_term(ctx, t):
    """The unique type of t under ctx; raises on undeclared/ill-sorted terms."""
    return tag_term(ctx, t).tag


def tag_term(ctx, t, bound=None):
    """Rebuild t with every node carrying its type, derived from its tagged
    children, so each node is typed once; raises as type_of_term does.
    A Var that names a constant becomes that constant, a FunApp with no
    arguments. With `bound`, every variable must be in it (a rule term may
    use only what the rule binds)."""
    if isinstance(t, FunApp):
        if t.name not in ctx.functions:
            raise UndeclaredSymbol("undeclared function %s" % t.name)
        arg_sorts, result = ctx.functions[t.name]
        if len(t.args) != len(arg_sorts):
            raise ArityMismatch(
                "%s expects %d arguments, got %d"
                % (t.name, len(arg_sorts), len(t.args))
            )
        args = []
        for i, (a, want) in enumerate(zip(t.args, arg_sorts)):
            a = tag_term(ctx, a, bound)
            if a.tag != want:
                raise ArgSortMismatch(
                    "argument %d of %s has type %r, expected %r"
                    % (i + 1, t.name, a.tag, want)
                )
            args.append(a)
        return FunApp(t.name, tuple(args), result)
    if isinstance(t, Var):
        sig = ctx.functions.get(t.name)
        if sig is not None and not sig[0]:
            return FunApp(t.name, (), sig[1])
        if t.name not in ctx.term_vars:
            raise UnknownName("unknown symbol %s in term" % t.name)
        if bound is not None and t.name not in bound:
            raise UnknownName("variable %s is not bound by the rule" % t.name)
        return Var(t.name, ctx.term_vars[t.name])
    if isinstance(t, UnitTuple):
        return UnitTuple(UNIT)
    if isinstance(t, Pair):
        left = tag_term(ctx, t.left, bound)
        right = tag_term(ctx, t.right, bound)
        return Pair(left, right, PairType(left.tag, right.tag))
    raise TypeError("not a term: %r" % (t,))


def tag_ground_term(ctx, t):
    """tag_term for a term to rewrite, which must have no variables; every
    later layer trusts the tags this gives."""
    t = tag_term(ctx, t)
    free = term_vars(t, set())
    if free:
        raise UnboundVariable("input term is not ground: %s is a variable"
                              % min(free))
    return t


def check_new_nodes(ctx, t, old):
    """Check the tag of every node of t that is not a node of `old`, a term
    whose nodes were all checked when it was tagged: each such node must be
    a declared function over arguments of its signature's sorts, a pair or
    (), tagged with its type. A node whose children are old or checked is
    then well-typed, since terms are immutable. Walks with a stack, so it
    costs no frame per level; raises a StaticError at the first bad node."""
    seen = set()  # ids of the nodes of old, then of the nodes checked
    todo = [old]
    while todo:
        u = todo.pop()
        if id(u) not in seen:
            seen.add(id(u))
            todo.extend(children(u))
    functions = ctx.functions
    todo = [t]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if isinstance(u, FunApp):
            sig = functions.get(u.name)
            if sig is None:
                raise UndeclaredSymbol("undeclared function %s" % u.name)
            arg_sorts, want = sig
            if len(u.args) != len(arg_sorts):
                raise ArityMismatch("%s expects %d arguments, got %d"
                                    % (u.name, len(arg_sorts), len(u.args)))
            for i, a in enumerate(u.args):
                if a.tag != arg_sorts[i]:
                    raise ArgSortMismatch(
                        "argument %d of %s has type %r, expected %r"
                        % (i + 1, u.name, a.tag, arg_sorts[i]))
            head = u.name
        elif isinstance(u, Pair):
            want, head = PairType(u.left.tag, u.right.tag), "(,)"
        elif isinstance(u, UnitTuple):
            want, head = UNIT, "()"
        else:
            raise UnboundVariable("not a ground term: %r" % (u,))
        if u.tag != want:
            raise ArgSortMismatch("%s is tagged %r, but has type %r"
                                  % (head, u.tag, want))
        todo.extend(children(u))


def term_vars(t, acc):
    """Add the names of t's variables to the set acc, and return it."""
    if isinstance(t, Var):
        acc.add(t.name)
    elif isinstance(t, FunApp):
        for a in t.args:
            term_vars(a, acc)
    elif isinstance(t, Pair):
        term_vars(t.left, acc)
        term_vars(t.right, acc)
    return acc


# ---------------------------------------------------------------------------
# Matching and substitution


def match(pattern, subject):
    """First-order matching; returns a substitution dict or None.

    Repeated pattern variables require structurally equal subterms
    (tags excluded).
    """
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
    if isinstance(pattern, FunApp):
        return (
            isinstance(subject, FunApp)
            and pattern.name == subject.name
            and len(pattern.args) == len(subject.args)
            and all(
                _match_into(p, s, theta)
                for p, s in zip(pattern.args, subject.args)
            )
        )
    if isinstance(pattern, UnitTuple):
        return isinstance(subject, UnitTuple)
    if isinstance(pattern, Pair):
        return (
            isinstance(subject, Pair)
            and _match_into(pattern.left, subject.left, theta)
            and _match_into(pattern.right, subject.right, theta)
        )
    raise TypeError("not a pattern: %r" % (pattern,))


def substitute(theta, t):
    """Apply theta to t; every Var in t must be bound. A subterm with no
    variable under it, such as a constant, is returned as it is. A loop,
    not a generator, so that a level of nesting costs one frame."""
    if isinstance(t, Var):
        if t.name not in theta:
            raise UnboundVariable("unbound variable %s" % t.name)
        return theta[t.name]
    if isinstance(t, FunApp):
        args, changed = [], False
        for a in t.args:
            b = substitute(theta, a)
            changed = changed or b is not a
            args.append(b)
        return FunApp(t.name, tuple(args), t.tag) if changed else t
    if isinstance(t, Pair):
        left, right = substitute(theta, t.left), substitute(theta, t.right)
        if left is t.left and right is t.right:
            return t
        return Pair(left, right, t.tag)
    return t
