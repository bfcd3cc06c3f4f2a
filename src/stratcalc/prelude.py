"""Loading of the bundled combinator prelude."""

from functools import cache
from importlib import resources

from .parser import parse_program


def prelude_text():
    return (resources.files(__package__) / "prelude.strat").read_text()


@cache
def load_prelude():
    """The prelude as a Program without a main strategy (cached)."""
    return parse_program(prelude_text(), require_main=False)
