"""The reference tokenizer: one named group per token kind.

This is the tokenizer the parser used before it read text as gap-token
pairs, kept unchanged as the oracle that `tests/test_tokenize.py` compares
`stratcalc.parser.tokenize` with. Every blank, newline and comment is a
match of its own, and a newline moves the line on, so it plainly follows
the token grammar.
"""

import re

from stratcalc.errors import ParseError
from stratcalc.parser import _OPS

_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|(?P<ws>[^\S\n]+)|(?P<comment>\#[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    # Longest operators first, so that ":=" is not read as ":", "=".
    r"|(?P<op>%s)|(?P<bad>.)" % "|".join(
        map(re.escape, sorted(_OPS, key=lambda op: (-len(op), op)))))


def tokenize(text):
    tokens = []
    line, last_nl = 1, -1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "name" or kind == "op":
            tokens.append((kind, m.group(), line, m.start() - last_nl))
        elif kind == "nl":
            line += 1
            last_nl = m.start()
        elif kind == "bad":
            raise ParseError("unexpected character %r" % m.group(),
                             pos=(line, m.start() - last_nl))
    tokens.append(("eof", "", line, len(text) - last_nl))
    return tokens
