"""Error types shared across the engine.

Static errors carry a rule tag and an optional source position so the
CLI can render them as `ERROR <rule-tag> at <line>:<col>: <message>`, or
as `ERROR <rule-tag>: <message>` without a position.
"""


class StratError(Exception):
    pass


class ParseError(StratError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self):
        if self.line is not None:
            return "parse error at %d:%d: %s" % (self.line, self.col, self.message)
        return "parse error: %s" % self.message


class StaticError(StratError):
    """A diagnostic from context checking or type checking."""

    rule = "error"

    def __init__(self, message, pos=None, rule=None):
        super().__init__(message)
        self.message = message
        self.pos = pos  # (line, col) or None
        if rule is not None:
            self.rule = rule

    def render(self):
        if self.pos:
            return "ERROR %s at %d:%d: %s" % (self.rule, *self.pos,
                                              self.message)
        return "ERROR %s: %s" % (self.rule, self.message)

    def __str__(self):
        return self.render()


# Term-level errors.
class UndeclaredSymbol(StaticError):
    rule = "con"


class ArityMismatch(StaticError):
    rule = "fun"


class ArgSortMismatch(StaticError):
    rule = "fun"


class UnboundVariable(StaticError):
    rule = "var"


# Context well-formedness.
class DuplicateName(StaticError):
    rule = "ctx"


class UndeclaredSortInDecl(StaticError):
    rule = "ctx"


# Type well-formedness.
class UndeclaredSort(StaticError):
    rule = "tau.1"


class UnboundTypeVar(StaticError):
    rule = "tau.4"


class OverlappingAmpDomains(StaticError):
    rule = "pi.4"


class GenericDomainUndefined(StaticError):
    rule = "dom"


# Strategy typing.
class TypeError_(StaticError):
    """Generic strategy typing failure; `rule` names the violated rule."""


class NotNegatable(StaticError):
    rule = "negt"


class NotComposable(StaticError):
    rule = "comp"


class NoLowerBound(StaticError):
    rule = "choice"


class ExtendNotInstance(StaticError):
    rule = "extend"


class RestrictNotInstance(StaticError):
    rule = "restrict"


class AmpOverlap(StaticError):
    rule = "pi.4"


class CallArityMismatch(StaticError):
    rule = "comb"


class CallTypeArgMismatch(StaticError):
    rule = "comb-forall"


class InapplicableType(StaticError):
    rule = "apply"


# Names: duplicate definitions (parser), unknown or misused names and
# unbound rule variables (checker).
class DuplicateDefinition(StaticError):
    rule = "def"


class UnknownName(StaticError):
    rule = "name"


# Engine-level evaluation errors (never user errors).
class EngineError(StratError):
    kind = "EngineError"

    def __init__(self, detail=""):
        super().__init__(detail)
        self.detail = detail


class FuelExhausted(EngineError):
    kind = "FuelExhausted"


class UnboundCombinator(EngineError):
    kind = "UnboundCombinator"


class InternalTypeViolation(EngineError):
    kind = "InternalTypeViolation"
