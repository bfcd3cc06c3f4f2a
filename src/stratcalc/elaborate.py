"""Static elaboration: the core the evaluator runs, with sugar expanded,
rule terms tagged, and every `extend` argument and `&` branch annotated
with its type, so that evaluation dispatches on annotations alone.

The checker builds the core while it types (`typecheck.type_and_core`);
these functions are views of that one pass and raise StaticError on
ill-typed input.
"""

from .typecheck import (
    check_and_elaborate,
    check_definition,
    type_and_core,
)


def elaborate(ctx, s):
    """The core of s; idempotent."""
    return type_and_core(ctx, s)[1]


def elaborate_definitions(ctx, defs):
    """Check and elaborate each definition body in its own scope."""
    return {name: check_definition(ctx, d) for name, d in defs.items()}


def elaborate_program(program):
    """The core of a program; raises its first diagnostic if it has any."""
    diags, _, core = check_and_elaborate(program)
    if diags:
        raise diags[0]
    return core
