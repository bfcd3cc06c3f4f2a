"""Static elaboration: the core the evaluator runs, with sugar expanded,
rule terms tagged, and every `extend` argument and `&` branch annotated
with its type, so that evaluation dispatches on annotations alone.

The checker builds the core while it types (`typecheck.check_and_elaborate`,
`typecheck.type_and_core` for one strategy). `elaborate_program` is that
pass's raising form; no module of the package calls it, and it stays
public because `bench/layers.py` imports it.
"""

from .typecheck import check_and_elaborate


def elaborate_program(program):
    """The core of a program; raises its first diagnostic if it has any."""
    diags, _, core = check_and_elaborate(program)
    if diags:
        raise diags[0]
    return core
