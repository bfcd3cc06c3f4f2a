"""Core model: terms, term/strategy types, contexts, substitution.

Terms, types and outcomes are `Node`s: immutable records with `__slots__`.
Types are interned: there is one object per type, so they compare and hash
by identity. Terms and outcomes compare structurally, identity first; a
term's sort tag is metadata, shown by `repr` but excluded from equality
and hashing. `Context` is a mutable `Record`; `Context.replace` copies one.
So are `EvalConfig` and `EvalState`, a run's settings and state, kept here
so that the CLI makes them without loading the evaluator.
"""

import sys
from operator import attrgetter

from .errors import StaticError


# ---------------------------------------------------------------------------
# Records and nodes


class Record:
    """A record with `__slots__`. Two records of one class are equal when
    their `_fields` are; `repr` shows `_fields`, then `_uncompared`, as
    `Name(field=value, ...)`. Mutable and unhashable."""

    __slots__ = ()
    _fields = ()  # compared, and hashed by a Node
    _uncompared = ()  # shown by repr only

    def __init_subclass__(cls):
        # One getter of the compared fields per class, for == and hash.
        cls._key = (attrgetter(*cls._fields) if cls._fields
                    else staticmethod(lambda self: ()))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (f, getattr(self, f))
             for f in self._fields + self._uncompared]))

    def replace(self, **changes):
        """A copy of this record with `changes` made, sharing the fields
        left unchanged, for a class whose constructor takes each of its
        `_fields` and `_uncompared` by keyword."""
        return type(self)(**{
            **{f: getattr(self, f) for f in self._fields + self._uncompared},
            **changes})


_set = object.__setattr__  # how a Node's __init__ sets its slots


class Node(Record):
    """An immutable, hashable record: a term, a type or an outcome. Its
    constructor takes `_fields`, then `_uncompared`, in order."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):  # copy and pickle would set the slots
        return type(self), tuple([getattr(self, f)
                                  for f in self._fields + self._uncompared])


# ---------------------------------------------------------------------------
# Types


_types = {}  # (class, *fields) -> the one type; an entry is never dropped


class Type(Node):
    """A term, strategy or combinator type. `C(*fields)` returns the one
    object of class C with those fields, made on first use, so types
    compare and hash by identity."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, *fields):
        key = (cls, *fields)
        t = _types.get(key)
        if t is None:
            if len(fields) != len(cls._fields):
                raise TypeError("%s() takes %d fields, got %d" % (
                    cls.__name__, len(cls._fields), len(fields)))
            t = object.__new__(cls)
            for f, v in zip(cls._fields, fields):
                _set(t, f, v)
            # Of two threads that make the same type, both get the first.
            t = _types.setdefault(key, t)
        return t


class TermType(Type):
    __slots__ = ()


class Sort(TermType):
    __slots__ = _fields = ("name",)

    def __repr__(self):
        return self.name


class Unit(TermType):
    __slots__ = ()

    def __repr__(self):
        return "()"


UNIT = Unit()


class PairType(TermType):
    __slots__ = _fields = ("left", "right")

    def __repr__(self):
        """(left,right). Walks with a stack of the types and the text still
        to write, as `printer.render_term` does, so it costs no frame per
        level."""
        out = []
        todo = [self]
        while todo:
            u = todo.pop()
            if type(u) is str:  # a "," or a ")"
                out.append(u)
            elif type(u) is PairType:
                out.append("(")
                todo += (")", u.right, ",", u.left)
            else:
                out.append(repr(u))
        return "".join(out)


class TypeVar(TermType):
    __slots__ = _fields = ("name",)

    def __repr__(self):
        return self.name


class StrategyType(Type):
    __slots__ = ()


class Arrow(StrategyType):
    __slots__ = _fields = ("dom", "cod")

    def __repr__(self):
        return "%r -> %r" % (self.dom, self.cod)


class TP(StrategyType):
    __slots__ = ()

    def __repr__(self):
        return "TP"


TP_TYPE = TP()


class TU(StrategyType):
    __slots__ = _fields = ("result",)

    def __repr__(self):
        return "TU(%r)" % self.result


class Amp(StrategyType):
    __slots__ = _fields = ("left", "right")

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
    return pi1 is pi2 or set(amp_branches(pi1)) == set(amp_branches(pi2))


def is_generic(pi):
    return isinstance(pi, (TP, TU))


class CombinatorType(Type):
    # type_params: a tuple of str; arg_types: a tuple of StrategyType
    __slots__ = _fields = ("type_params", "arg_types", "result_type")


# ---------------------------------------------------------------------------
# Terms


class Term(Node):
    """==, hash and repr walk with a stack, so a term of any depth compares,
    hashes and prints without a frame, or a C call, per level."""

    __slots__ = _uncompared = ("tag",)  # a TermType, or None if untyped

    def __repr__(self):
        """Record's repr, written from a stack of the subterms and the text
        still to write."""
        out, todo = [], [self]
        while todo:
            u = todo.pop()
            if type(u) is not FunApp:
                out.append(u if type(u) is str else Record.__repr__(u))
                continue
            out.append("FunApp(name=%r, args=(" % (u.name,))
            todo.append("%s), tag=%r)" % ("," * (len(u.args) == 1), u.tag))
            todo += [x for a in u.args[:0:-1] for x in (a, ", ")]
            todo += u.args[:1]
        return "".join(out)

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        todo = [(self, other)]  # the pairs of subterms left to compare
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a.name != b.name:
                return False
            if type(a) is FunApp:
                if len(a.args) != len(b.args):
                    return False
                todo += zip(a.args, b.args)
        return True

    def __hash__(self):
        """A hash of the names and arities of the first nodes in preorder,
        which equal terms share."""
        key, todo = [], [self]
        while todo and len(key) < 64:
            u = todo.pop()
            key.append(u.name)
            if type(u) is FunApp:
                key.append(len(u.args))
                todo += reversed(u.args)
        return hash(tuple(key))


class FunApp(Term):
    """f(t1,...,tn); a constant is a function with no arguments, and ()
    and (t1,t2) are the functions UNIT_NAME and PAIR_NAME."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name, args, tag=None):
        _set_name(self, name)
        _set_args(self, args)
        _set_tag(self, tag)


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name, tag=None):
        _set(self, "name", name)
        _set(self, "tag", tag)


# The two built-in functions of the type-unifying combinators: () has no
# arguments, and (t1,t2) has two; `fun_sort` types them structurally.
UNIT_NAME, PAIR_NAME = "()", "(,)"

# The slot setters of the node that rewriting builds most.
_set_name, _set_args = FunApp.name.__set__, FunApp.args.__set__
_set_tag = Term.tag.__set__


# ---------------------------------------------------------------------------
# Outcomes


class Ok(Node):
    __slots__ = _fields = ("term",)

    def __init__(self, term):
        _set(self, "term", term)


class Failure(Node):
    __slots__ = ()


FAILURE = Failure()


class EngineFailure(Record):
    __slots__ = _fields = ("kind", "detail")

    def __init__(self, kind, detail):
        self.kind, self.detail = kind, detail


FUEL = 100000  # combinator expansions a run may make by default


class EvalConfig(Record):
    __slots__ = _fields = ("fuel", "trace")

    def __init__(self, fuel=FUEL, trace=False):
        if fuel < 0:
            raise ValueError("fuel must be >= 0, got %d" % fuel)
        self.fuel = fuel  # 0 means unlimited
        self.trace = trace


class EvalState(Record):
    __slots__ = _fields = ("fuel", "depth", "trace_lines", "amp_dispatches",
                           "amp_branch_evals")

    def __init__(self, trace_lines=None):
        # Set at the start of each run.
        self.fuel = None  # None = unlimited
        self.depth = 0
        self.trace_lines = [] if trace_lines is None else trace_lines
        self.amp_dispatches = self.amp_branch_evals = 0


def depth_exceeded():
    """The outcome for input nested deeper than the Python stack allows."""
    return EngineFailure("DepthExceeded",
                         "nesting exceeds the recursion limit of %d frames"
                         % sys.getrecursionlimit())


def _in_frame_room(f, *args):
    """f(*args), run above a frame large enough to open a data-stack chunk
    of its own, so that the frames f pushes never cross a chunk edge. Only
    `parse_program`, `CheckedProgram`'s `__init__` and `run`, and
    `render_program` call it."""
    return f(*args)


# CPython 3.11+ keeps frames in 16 KiB data-stack chunks and frees a chunk
# as soon as the frame at its base returns, so a walk that recurses back
# and forth across a chunk edge maps and unmaps one on every crossing. A
# 512 KiB value stack makes the helper's frame open a 1 MiB chunk, and the
# ~512 KiB above it hold more frames than the default recursion limit lets
# f push. That stack is never written, so its pages are never touched.
# Older versions allocate each frame on the heap, so the helper stays plain.
if sys.implementation.name == "cpython" and sys.version_info >= (3, 11):
    _in_frame_room.__code__ = _in_frame_room.__code__.replace(
        co_stacksize=1 << 16)


# ---------------------------------------------------------------------------
# Context


# The Context table that indexes each keyword's declarations; sorts go to
# the set `sorts`.
_TABLES = {"con": "functions", "fun": "functions", "var": "term_vars",
           "def": "combinators"}


class Context(Record):
    __slots__ = _fields = ("sorts", "functions", "term_vars", "combinators",
                           "strategy_params", "type_vars", "decls")

    def __init__(self, sorts=None, functions=None, term_vars=None,
                 combinators=None, strategy_params=None, type_vars=None,
                 decls=None):
        self.sorts = set() if sorts is None else sorts
        # name -> (arg sorts, result sort)
        self.functions = {} if functions is None else functions
        self.term_vars = {} if term_vars is None else term_vars  # -> TermType
        # name -> CombinatorType
        self.combinators = {} if combinators is None else combinators
        # name -> StrategyType
        self.strategy_params = ({} if strategy_params is None
                                else strategy_params)
        self.type_vars = set() if type_vars is None else type_vars
        # Declarations in source order, duplicates included, as records
        # (keyword, name, value, pos); the tables above index them by name.
        self.decls = [] if decls is None else decls

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
        return self.replace(strategy_params=dict(strategy_params),
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
            diags.append(StaticError("duplicate declaration of %s" % name,
                                     pos, rule="ctx"))
        seen.add(key)
        last[keyword, name] = value, pos
    for (keyword, name), (value, pos) in last.items():
        if keyword in ("con", "fun"):
            mentioned = list(value[0]) + [value[1]]
        elif keyword == "var":
            mentioned = _sorts_in_term_type(value)
        else:
            mentioned = ()
        for s in dict.fromkeys(mentioned):  # each sort once
            if s.name not in ctx.sorts:
                diags.append(StaticError(
                    "%s %s mentions undeclared sort %s" % (keyword, name, s.name),
                    pos, rule="ctx"))
    return diags


def _sorts_in_term_type(tt):
    if isinstance(tt, Sort):
        return [tt]
    if isinstance(tt, PairType):
        return _sorts_in_term_type(tt.left) + _sorts_in_term_type(tt.right)
    return []


# ---------------------------------------------------------------------------
# Term typing


# The signatures of () and (,); None stands for any argument type, and for
# the pair of its arguments' types.
_TUPLES = {UNIT_NAME: ((), UNIT), PAIR_NAME: ((None, None), None)}


def fun_sort(functions, name, args):
    """The type of the node name(args): name must be a declared function
    of len(args) arguments, each tagged with its argument sort, and the
    node has its result sort; or () with no arguments, of type (); or (,)
    with two, of the pair of their types. Raises a StaticError (rule `con`
    or `fun`) at the first that fails."""
    sig = functions.get(name)
    if sig is None or len(sig[0]) != len(args):  # (,), (), or an error
        sig = _signature(functions, name, len(args))
    arg_sorts, result = sig
    for i, want in enumerate(arg_sorts):
        a = args[i]
        if a.tag is not want and want is not None:
            raise _arg_mismatch(name, i, a, want)
    return PairType(args[0].tag, args[1].tag) if result is None else result


def _signature(functions, name, n):
    """(argument sorts, result sort) of name, which must take n arguments;
    for (,), each and the result are None."""
    sig = functions.get(name) or _TUPLES.get(name)
    if sig is None:
        raise StaticError("undeclared function %s" % name, rule="con")
    if n != len(sig[0]):
        raise StaticError("%s expects %d arguments, got %d"
                          % (name, len(sig[0]), n), rule="fun")
    return sig


def _arg_mismatch(name, i, a, want):
    return StaticError("argument %d of %s has type %r, expected %r"
                       % (i + 1, name, a.tag, want), rule="fun")


def type_of_term(ctx, t):
    """The unique type of t under ctx; raises on undeclared/ill-sorted terms."""
    return tag_term(ctx, t).tag


def tag_term(ctx, t, bound=None):
    """Rebuild t with every node carrying its type, derived from its tagged
    children, so each node is typed once; raises as type_of_term does, at
    the error `fun_sort` would meet first: a node's name and arity before
    its arguments, and each argument's sort once it is tagged, left to
    right. A Var that names a constant becomes that constant, a FunApp with
    no arguments. With `bound`, every variable must be in it (a rule term
    may use only what the rule binds). Walks with a stack, so it costs no
    frame per level."""
    functions = ctx.functions
    # Per open node: the node, its signature and its arguments tagged so far.
    stack = []
    while True:
        if isinstance(t, FunApp):
            sig = _signature(functions, t.name, len(t.args))
            if t.args:
                stack.append((t, sig, []))
                t = t.args[0]
                continue
            t = FunApp(t.name, (), sig[1])
        elif isinstance(t, Var):
            t = _tag_var(ctx, t, bound)
        else:
            raise TypeError("not a term: %r" % (t,))
        while stack:  # t is tagged: check it against its parent's sort
            node, (arg_sorts, result), args = stack[-1]
            want = arg_sorts[len(args)]
            if t.tag is not want and want is not None:
                raise _arg_mismatch(node.name, len(args), t, want)
            args.append(t)
            if len(args) < len(node.args):
                t = node.args[len(args)]
                break
            stack.pop()
            if result is None:  # a pair
                result = PairType(args[0].tag, args[1].tag)
            t = FunApp(node.name, tuple(args), result)
        else:
            return t


def _tag_var(ctx, t, bound):
    sig = ctx.functions.get(t.name)
    if sig is not None and not sig[0]:
        return FunApp(t.name, (), sig[1])
    if t.name not in ctx.term_vars:
        raise StaticError("unknown symbol %s in term" % t.name, rule="name")
    if bound is not None and t.name not in bound:
        raise StaticError("variable %s is not bound by the rule" % t.name,
                          rule="name")
    return Var(t.name, ctx.term_vars[t.name])


def tag_ground_term(ctx, t):
    """tag_term for a term to rewrite, which must have no variables; every
    later layer trusts the tags this gives."""
    t = tag_term(ctx, t)
    free = term_vars(t, set())
    if free:
        raise StaticError("input term is not ground: %s is a variable"
                          % min(free), rule="var")
    return t


def check_reduct(ctx, r):
    """Check the tag of every node of the reduct r: each must be a FunApp
    that `fun_sort` types, tagged with that type. Walks with a stack, so
    it costs no frame per level, and checks a node that occurs more than
    once only once; raises a StaticError at the first bad node."""
    functions = ctx.functions
    seen = set()  # ids of the nodes checked
    todo = [r]
    while todo:
        u = todo.pop()
        if id(u) in seen:
            continue
        seen.add(id(u))
        if not isinstance(u, FunApp):
            raise StaticError("not a ground term: %r" % (u,), rule="var")
        want = fun_sort(functions, u.name, u.args)
        if u.tag is not want:
            raise StaticError("%s is tagged %r, but has type %r"
                              % (u.name, u.tag, want), rule="fun")
        todo.extend(u.args)


def term_vars(t, acc):
    """Add the names of t's variables to the set acc, and return it."""
    todo = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, Var):
            acc.add(u.name)
        elif isinstance(u, FunApp):
            todo.extend(u.args)
    return acc
