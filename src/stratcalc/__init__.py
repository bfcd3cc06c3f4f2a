"""stratcalc: a typed strategic term-rewriting engine.

Strategies are partial maps from terms to terms, built from rewrite
rules, choice/sequence/negation, congruences, generic traversal
primitives, strategy extension/restriction, overloading, and recursive
combinator definitions. A two-level type system (many-sorted arrows
below, generic TP / TU(t) types above) checks programs before a
big-step evaluator runs them.
"""

import sys

# Each submodule and the public names it provides. A name, or a submodule,
# is imported on first use (PEP 562), so `import stratcalc` loads no layer
# and a caller loads only the layers it touches.
_MODULES = {
    "cli": (),
    "elaborate": (),
    "errors": ("EngineError", "ParseError", "StaticError", "StratError"),
    "evaluate": ("apply_strategy", "run_program"),
    "parser": ("parse_program", "parse_term"),
    "prelude": ("load_prelude",),
    "printer": ("render_program", "render_term"),
    "syntax": (),
    "terms": ("Amp", "Arrow", "CombinatorType", "Context", "EngineFailure",
              "EvalConfig", "EvalState", "FAILURE", "Failure", "FunApp",
              "Ok", "PairType", "Sort", "TP_TYPE", "TU", "TypeVar", "UNIT",
              "Var", "check_context", "tag_term"),
    "typecheck": ("CheckedProgram", "apply_type", "check_and_elaborate",
                  "composable", "domains", "generically_leq",
                  "generically_less", "glb", "negatable", "type_and_core",
                  "wf_strategy_type", "wf_term_type"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    home = _HOME.get(name, name)
    if home not in _MODULES:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = __name__ + "." + home
    __import__(module)  # the import path that `python -X importtime` reports
    value = sys.modules[module]
    if home != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_MODULES))
