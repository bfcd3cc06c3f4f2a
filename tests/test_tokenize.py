"""The tokenizer reads text as gap-token pairs, one line at a time. It must
give the tokens, positions and errors of the reference tokenizer, which
matches every blank, newline and comment on its own; and the parser's
cursor, which indexes its tokens without a bounds test, must stay in
range on any prefix of a program."""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

import stratcalc as sc
from stratcalc.errors import ParseError, StaticError
from stratcalc.parser import _OPS, tokenize
from stratcalc.prelude import prelude_text

from conftest import PROGRAMS
from reference_tokenize import tokenize as reference_tokenize

# Names, every operator and the prefixes of the longer ones (":", "<" and
# "-" are errors on their own), blanks that do not end a line, line ends,
# comments, and characters that start no token.
PIECES = sorted(_OPS) + [
    ":", "<", "<+", "<&", "-", "->", "a", "Nat", "x1", "N'", "_b",
    " ", "\t", "\x0b", "\x85", "\u3000", "\r\n", "\n",
    "#", "# c", "#x\n", "$", "\u00e9", "1"]


def outcome(tokenize_, text):
    try:
        return tokenize_(text)
    except ParseError as e:
        return e.message, e.pos


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(PIECES), max_size=30))
def test_tokenize_agrees_with_the_reference(pieces):
    text = "".join(pieces)
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "", "\n", "# only a comment", "main = id; # at the end of a line\n",
    "main = id;\n# at the end of the text", "a\r\n\u3000b #c\n\x85$",
    "sort\tNat;\x0b\ncon \u00e9", "f(x1, N') := <+ <& -> -", "a 1", "g(#xa\n)",
])
def test_tokenize_agrees_with_the_reference_on(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def test_a_comment_ends_at_its_line():
    # The comment ends at the newline; ")" is the next token. The term
    # reader, which matches the whole text at once, is pinned by
    # test_cli.py::test_run_term_after_a_comment_line.
    assert tokenize("g(#xa\n)") == [
        ("name", "g", 1, 1), ("op", "(", 1, 2), ("op", ")", 2, 1),
        ("eof", "", 2, 2)]


def prefixes(text):
    """text cut at every token start, one character into every token of
    more than one character, and at its end."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    cuts = set()
    for _, value, line, col in tokenize(text):
        at = starts[line - 1] + col - 1
        cuts.add(at)
        if len(value) > 1:
            cuts.add(at + 1)
    return [text[:cut] for cut in sorted(cuts)]


SOURCES = sorted(glob.glob(os.path.join(PROGRAMS, "*.strat"))) + ["prelude"]


@pytest.mark.parametrize("source", SOURCES, ids=os.path.basename)
def test_every_prefix_parses_or_raises_a_diagnostic(source):
    if source == "prelude":
        text = prelude_text()
    else:
        with open(source) as f:
            text = f.read()
    for prefix in prefixes(text):
        try:
            sc.parse_program(prefix)
        except (ParseError, StaticError):
            pass
