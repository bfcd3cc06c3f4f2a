"""Abstract syntax of strategic programs.

Node equality is structural; source positions are excluded so that
elaborated output can be compared with a second elaboration of it.
`OPERATORS` and `KEYWORDS` are the one source of the concrete spelling of
the strategy combinators; the parser and the printer both read them.
"""

from dataclasses import dataclass, field


class StrategyExpr:
    pos = None


def _posfield():
    return field(default=None, compare=False)


@dataclass(frozen=True)
class Rule(StrategyExpr):
    """lhs -> rhs where var1 := strat1 @ arg1 ... (clauses in source order)."""
    lhs: object  # Term
    rhs: object  # Term
    where: tuple = ()  # of Where
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Id(StrategyExpr):
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Fail(StrategyExpr):
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Seq(StrategyExpr):
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Choice(StrategyExpr):
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class LChoice(StrategyExpr):  # left-biased choice s1 <+ s2 (core)
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class RChoice(StrategyExpr):  # sugar: s1 +> s2
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Neg(StrategyExpr):
    arg: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class CongFun(StrategyExpr):  # f(s1,...,sn); a constant's has no arguments
    name: str
    args: tuple  # of StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class CongUnit(StrategyExpr):
    pos: tuple = _posfield()


@dataclass(frozen=True)
class CongPair(StrategyExpr):
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class All(StrategyExpr):
    arg: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class One(StrategyExpr):
    arg: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Reduce(StrategyExpr):
    splus: StrategyExpr
    child: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Select(StrategyExpr):
    arg: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Void(StrategyExpr):
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Spawn(StrategyExpr):
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Extend(StrategyExpr):
    arg: StrategyExpr
    stype: object  # StrategyType
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Restrict(StrategyExpr):
    arg: StrategyExpr
    stype: object
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Annot(StrategyExpr):
    arg: StrategyExpr
    stype: object
    pos: tuple = _posfield()


@dataclass(frozen=True)
class AmpS(StrategyExpr):  # overloaded strategy s1 & s2
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class TypeGuard(StrategyExpr):  # sugar: guard(tau, gamma)
    ttype: object  # TermType
    stype: object  # StrategyType
    pos: tuple = _posfield()


@dataclass(frozen=True)
class TLChoice(StrategyExpr):  # sugar: s1 <& s2
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class TRChoice(StrategyExpr):  # sugar: s1 &> s2
    left: StrategyExpr
    right: StrategyExpr
    pos: tuple = _posfield()


@dataclass(frozen=True)
class ParamRef(StrategyExpr):
    name: str
    pos: tuple = _posfield()


@dataclass(frozen=True)
class Call(StrategyExpr):
    """In raw syntax, any bare name (the checker resolves it to a ParamRef,
    CongFun or combinator call); in the core, a combinator call."""
    name: str
    type_args: tuple  # of TermType
    args: tuple  # of StrategyExpr
    pos: tuple = _posfield()


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


class RuleBody:  # kept as a base: bench/layers.core_nodes walks by it
    pass


@dataclass(frozen=True)
class Where(RuleBody):
    var: str
    strat: StrategyExpr
    arg: object  # Term


# Programs ------------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    name: str
    params: tuple  # of str
    ctype: object  # CombinatorType, which holds the type parameters
    body: StrategyExpr
    pos: tuple = _posfield()


@dataclass
class Program:
    context: object  # Context
    definitions: dict  # name -> Definition
    main: StrategyExpr
    # The prelude Program this one was parsed against, or None: its
    # records begin `context.decls` and its definitions are shared, so the
    # checker can reuse their cores.
    prelude: object = field(default=None, compare=False, repr=False)
    # As a prelude: name -> (definition, core) for each of its definitions
    # that checks in its own context, or None before the checker needs it.
    cores: object = field(default=None, init=False, compare=False,
                          repr=False)
