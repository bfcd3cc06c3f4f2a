"""Error types shared across the engine.

Every parse error and static error carries a message and an optional
source position `pos`, a `(line, col)` pair. A static error also names,
where it is raised, the typing rule it reports (`rule`, such as `comp.1`
or `tau.4`), so the CLI renders it as
`ERROR <rule-tag> at <line>:<col>: <message>`, or as
`ERROR <rule-tag>: <message>` without a position. `InapplicableType`
(rule `apply`) is the one static error with a class of its own, for
callers that ask whether a strategy applies to a term and catch exactly
that answer.
"""


class StratError(Exception):
    def __init__(self, message, pos=None):
        super().__init__(message)
        self.message = message
        self.pos = pos  # (line, col) or None


class ParseError(StratError):
    def __str__(self):
        if self.pos is not None:
            return "parse error at %d:%d: %s" % (*self.pos, self.message)
        return "parse error: %s" % self.message


class StaticError(StratError):
    """A diagnostic from context checking or type checking."""

    def __init__(self, message, pos=None, *, rule):
        super().__init__(message, pos)
        self.rule = rule

    def __reduce__(self):  # copy and pickle cannot pass `rule` to __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__

    def render(self):
        if self.pos:
            return "ERROR %s at %d:%d: %s" % (self.rule, *self.pos,
                                              self.message)
        return "ERROR %s: %s" % (self.rule, self.message)

    def __str__(self):
        return self.render()


class InapplicableType(StaticError):
    """A strategy's type does not apply to a term's type (rule `apply`)."""


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
