"""Abstract syntax of strategic programs.

Strategy nodes, where-clauses and definitions are `terms.Node`s: immutable
records with `__slots__`, equal when their `_fields` are. A node's source
`pos` is shown by `repr` but neither compared nor hashed, so that
elaborated output can be compared with a second elaboration of it.
`Program` is a mutable `terms.Record`; `Program.replace` copies one.
`OPERATORS` and `KEYWORDS` are the one source of the concrete spelling of
the strategy combinators; the parser and the printer both read them.
"""

from .terms import Node, Record


class _DataclassFields:
    """`__dataclass_fields__`, so that `dataclasses.fields` gives a class's
    `_fields`, then its `_uncompared`, by name. Built for a class when
    first read, so that importing this module generates no dataclass
    code."""

    def __init__(self):
        self._built = {}  # class -> its fields

    def __get__(self, obj, cls):
        fields = self._built.get(cls)
        if fields is None:
            import dataclasses

            fields = self._built[cls] = dataclasses.make_dataclass(
                cls.__name__, cls._fields + cls._uncompared
            ).__dataclass_fields__
        return fields


_DATACLASS_FIELDS = _DataclassFields()


class Syntax(Node):
    """A strategy node, a where-clause or a definition."""

    __slots__ = ()
    __dataclass_fields__ = _DATACLASS_FIELDS


_set = object.__setattr__  # how the less common nodes set their slots


# Strategies ----------------------------------------------------------------


class StrategyExpr(Syntax):
    __slots__ = _uncompared = ("pos",)  # (line, col), or None


# One constructor per node shape; the classes of a shape add no slots.


class _Leaf(StrategyExpr):
    __slots__ = ()

    def __init__(self, pos=None):
        _set_pos(self, pos)


class _Unary(StrategyExpr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg, pos=None):
        _set_arg(self, arg)
        _set_pos(self, pos)


class _Binary(StrategyExpr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left, right, pos=None):
        _set_left(self, left)
        _set_right(self, right)
        _set_pos(self, pos)


class _Typed(StrategyExpr):  # a strategy and a strategy type
    __slots__ = _fields = ("arg", "stype")

    def __init__(self, arg, stype, pos=None):
        _set_typed_arg(self, arg)
        _set_stype(self, stype)
        _set_pos(self, pos)


_set_pos = StrategyExpr.pos.__set__
_set_arg = _Unary.arg.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_set_typed_arg, _set_stype = _Typed.arg.__set__, _Typed.stype.__set__


class Rule(StrategyExpr):
    """lhs -> rhs where var1 := strat1 @ arg1 ... (clauses in source order)."""

    __slots__ = _fields = ("lhs", "rhs", "where")

    def __init__(self, lhs, rhs, where=(), pos=None):
        _set(self, "lhs", lhs)  # a Term
        _set(self, "rhs", rhs)  # a Term
        _set(self, "where", where)  # of Where
        _set_pos(self, pos)


class Id(_Leaf):
    __slots__ = ()


class Fail(_Leaf):
    __slots__ = ()


class Seq(_Binary):
    __slots__ = ()


class Choice(_Binary):
    __slots__ = ()


class LChoice(_Binary):  # left-biased choice s1 <+ s2 (core)
    __slots__ = ()


class RChoice(_Binary):  # sugar: s1 +> s2
    __slots__ = ()


class Neg(_Unary):
    __slots__ = ()


class CongFun(StrategyExpr):  # f(s1,...,sn); a constant's has no arguments
    __slots__ = _fields = ("name", "args")

    def __init__(self, name, args, pos=None):
        _set(self, "name", name)
        _set(self, "args", args)  # of StrategyExpr
        _set_pos(self, pos)


class CongUnit(_Leaf):
    __slots__ = ()


class CongPair(_Binary):
    __slots__ = ()


class All(_Unary):
    __slots__ = ()


class One(_Unary):
    __slots__ = ()


class Reduce(StrategyExpr):
    __slots__ = _fields = ("splus", "child")

    def __init__(self, splus, child, pos=None):
        _set(self, "splus", splus)
        _set(self, "child", child)
        _set_pos(self, pos)


class Select(_Unary):
    __slots__ = ()


class Void(_Leaf):
    __slots__ = ()


class Spawn(_Binary):
    __slots__ = ()


class Extend(_Typed):
    __slots__ = ()


class Restrict(_Typed):
    __slots__ = ()


class Annot(_Typed):
    __slots__ = ()


class AmpS(_Binary):  # overloaded strategy s1 & s2
    __slots__ = ()


class TypeGuard(StrategyExpr):  # sugar: guard(tau, gamma)
    __slots__ = _fields = ("ttype", "stype")

    def __init__(self, ttype, stype, pos=None):
        _set(self, "ttype", ttype)  # a TermType
        _set(self, "stype", stype)  # a StrategyType
        _set_pos(self, pos)


class TLChoice(_Binary):  # sugar: s1 <& s2
    __slots__ = ()


class TRChoice(_Binary):  # sugar: s1 &> s2
    __slots__ = ()


class ParamRef(StrategyExpr):
    __slots__ = _fields = ("name",)

    def __init__(self, name, pos=None):
        _set(self, "name", name)
        _set_pos(self, pos)


class Call(StrategyExpr):
    """In raw syntax, any bare name (the checker resolves it to a ParamRef,
    CongFun or combinator call); in the core, a combinator call."""

    __slots__ = _fields = ("name", "type_args", "args")

    def __init__(self, name, type_args, args, pos=None):
        _set(self, "name", name)
        _set(self, "type_args", type_args)  # of TermType
        _set(self, "args", args)  # of StrategyExpr
        _set_pos(self, pos)


# Concrete syntax -----------------------------------------------------------

# Binary operators, all right-associative: symbol -> (class, level). A
# higher level binds tighter.
OPERATORS = {
    "&": (AmpS, 1), "<&": (TLChoice, 1), "&>": (TRChoice, 1),
    "+": (Choice, 2), "<+": (LChoice, 2), "+>": (RChoice, 2),
    ";": (Seq, 3),
}

# Keyword forms: word -> (class, argument kinds), the arguments in the
# order of the class's fields. A kind is "strat" (a strategy), "ttype" (a
# term type) or "stype" (a strategy type); a form without arguments is
# the bare word.
KEYWORDS = {
    "id": (Id, ()), "fail": (Fail, ()), "void": (Void, ()),
    "all": (All, ("strat",)), "one": (One, ("strat",)),
    "select": (Select, ("strat",)),
    "reduce": (Reduce, ("strat", "strat")),
    "spawn": (Spawn, ("strat", "strat")),
    "extend": (Extend, ("strat", "stype")),
    "restrict": (Restrict, ("strat", "stype")),
    "guard": (TypeGuard, ("ttype", "stype")),
}


# Where-clauses -------------------------------------------------------------


class RuleBody(Syntax):  # kept as a base: bench/layers.core_nodes walks by it
    __slots__ = ()


class Where(RuleBody):
    __slots__ = _fields = ("var", "strat", "arg")

    def __init__(self, var, strat, arg):
        _set(self, "var", var)
        _set(self, "strat", strat)
        _set(self, "arg", arg)  # a Term


# Programs ------------------------------------------------------------------


class Definition(Syntax):
    __slots__ = ("name", "params", "ctype", "body", "pos")
    _fields = ("name", "params", "ctype", "body")
    _uncompared = ("pos",)

    def __init__(self, name, params, ctype, body, pos=None):
        _set(self, "name", name)
        _set(self, "params", params)  # of str
        # A CombinatorType, which holds the type parameters.
        _set(self, "ctype", ctype)
        _set(self, "body", body)
        _set(self, "pos", pos)


class Program(Record):
    __slots__ = _fields = ("context", "definitions", "main")

    def __init__(self, context, definitions, main):
        self.context = context  # a Context
        self.definitions = definitions  # name -> Definition
        self.main = main  # a StrategyExpr
