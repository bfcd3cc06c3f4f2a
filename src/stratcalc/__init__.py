"""stratcalc: a typed strategic term-rewriting engine.

Strategies are partial maps from terms to terms, built from rewrite
rules, choice/sequence/negation, congruences, generic traversal
primitives, strategy extension/restriction, overloading, and recursive
combinator definitions. A two-level type system (many-sorted arrows
below, generic TP / TU(t) types above) checks programs before a
big-step evaluator runs them.
"""

from .elaborate import elaborate_program
from .errors import (
    EngineError,
    ParseError,
    StaticError,
    StratError,
)
from .parser import parse_program, parse_term
from .prelude import load_prelude
from .printer import render_program, render_stype, render_term
from .terms import (
    Amp,
    Arrow,
    CombinatorType,
    Context,
    EngineFailure,
    EvalConfig,
    EvalState,
    FAILURE,
    Failure,
    FunApp,
    Ok,
    PairType,
    Sort,
    TP_TYPE,
    TU,
    TypeVar,
    UNIT,
    Var,
    check_context,
    tag_term,
    type_of_term,
)
from .typecheck import (
    CheckedProgram,
    apply_type,
    check_and_elaborate,
    check_program,
    composable,
    domains,
    generically_leq,
    generically_less,
    glb,
    negatable,
    type_and_core,
    wf_strategy_type,
    wf_term_type,
)

# Loaded on first use (PEP 562): a process that only checks runs no evaluator.
_EVALUATOR = ("apply_strategy", "run_program")


def __getattr__(name):
    if name in _EVALUATOR:
        from . import evaluate
        return getattr(evaluate, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
