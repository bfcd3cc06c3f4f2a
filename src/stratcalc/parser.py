"""Concrete syntax: tokenizer and recursive-descent parser.

The parser is purely syntactic and reads each token once, except that
it rewinds over a strategy-type atom that turns out not to be an arrow.
Every bare strategy name becomes an S.Call and every bare term name a
Var; the checker resolves them once the whole program has been seen, so
definitions may use names before their `def`. A rule's left-hand side is
read as the congruence it spells, then turned into that term; every other
term is read with an explicit stack, so it costs no frame per level.
Operators and keyword forms come from `syntax.OPERATORS` and
`syntax.KEYWORDS`, the tables the printer writes from.
"""

import re

from . import syntax as S
from .errors import ParseError, StaticError
from .terms import (
    Arrow,
    Amp,
    CombinatorType,
    Context,
    FunApp,
    PAIR_NAME,
    PairType,
    Sort,
    TP_TYPE,
    TU,
    TypeVar,
    UNIT,
    UNIT_NAME,
    Var,
    _in_frame_room,
    tag_ground_term,
)

RESERVED = set(S.KEYWORDS) | {
    "sort", "con", "fun", "var", "def", "main", "where", "TP", "TU"}

_OPS = set(S.OPERATORS) | {":=", "->", ":", "=", "!", "*", "@",
                           "(", ")", "[", "]", ","}
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# A gap (blanks, newlines, comments), then a token: a name, an operator
# (longest first: ":=" is not ":", "="), any other character (an error) or
# the end of the text. As the token part cannot fail, no match backtracks.
_TOKEN_RE = re.compile(
    r"((?:\s+|\#[^\n]*)*)([A-Za-z_][A-Za-z0-9_']*|%s|.|\Z)" % "|".join(
        map(re.escape, sorted(_OPS, key=lambda op: (-len(op), op)))))


def tokenize(text):
    r"""(kind, value, line, col) for each name and operator of text, then
    ("eof", "", line, col) at its end. Only "\n" ends a line."""
    tokens = []
    lines = text.split("\n")
    for line, chars in enumerate(lines, 1):
        col = 1
        for gap, tok in _TOKEN_RE.findall(chars):
            col += len(gap)
            if not tok:  # the end of the line
                break
            if tok in _OPS:
                kind = "op"
            elif tok[0] in _NAME_START:
                kind = "name"
            else:
                raise ParseError("unexpected character %r" % tok, (line, col))
            tokens.append((kind, tok, line, col))
            col += len(tok)
    tokens.append(("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens


def _unexpected(what, tok):
    """The error for reading the token `tok` where `what` should be."""
    return ParseError("expected %s, got %r" % (what, tok[1] or "end of input"),
                      tok[2:])


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0
        self.type_params = ()  # tyvar scope of the def being parsed

    # -- token helpers ------------------------------------------------------

    def peek(self, k=0):
        return self.tokens[self.i + k]

    def at(self, value):
        return self.tokens[self.i][1] == value

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            raise _unexpected(repr(value), tok)
        return tok

    def expect_name(self):
        tok = self.next()
        if tok[0] != "name" or tok[1] in RESERVED:
            raise _unexpected("a name", tok)
        return tok[1]

    def sep_list(self, item, sep=",", close=None):
        """`item (sep item)*` as a tuple, followed by `close` if given."""
        items = [item()]
        while self.at(sep):
            self.next()
            items.append(item())
        if close is not None:
            self.expect(close)
        return tuple(items)

    # -- terms --------------------------------------------------------------

    def parse_term(self):
        """A term. Open nodes wait on one stack as (name, arguments so
        far), with name None for a parenthesis, which holds one term
        (grouping) or two (a pair); so a level of nesting costs no frame."""
        stack = []
        while True:
            # Read a unit or a bare name, or open a node.
            tok = self.peek()
            if tok[1] == "(":
                self.next()
                if not self.at(")"):
                    stack.append((None, []))
                    continue
                self.next()
                t = FunApp(UNIT_NAME, ())
            elif tok[0] == "name" and tok[1] not in RESERVED:
                self.next()
                if self.at("("):
                    self.next()
                    stack.append((tok[1], []))
                    continue
                # Constant vs variable is settled when the term is tagged.
                t = Var(tok[1])
            else:
                raise _unexpected("a term", tok)
            # t is read: add it to the open node, and close each node it ends.
            while stack:
                name, args = stack[-1]
                args.append(t)
                if self.at(",") and (name is not None or len(args) == 1):
                    self.next()
                    break
                self.expect(")")
                stack.pop()
                if name is not None:
                    t = FunApp(name, tuple(args))
                elif len(args) == 2:
                    t = FunApp(PAIR_NAME, tuple(args))
            else:
                return t

    # -- types --------------------------------------------------------------

    def parse_ttype(self):
        tok = self.peek()
        if tok[1] == "(":
            self.next()
            if self.at(")"):
                self.next()
                return UNIT
            left = self.parse_ttype()
            self.expect(",")
            right = self.parse_ttype()
            self.expect(")")
            return PairType(left, right)
        if tok[0] == "name" and tok[1] not in RESERVED:
            self.next()
            if tok[1] in self.type_params:
                return TypeVar(tok[1])
            return Sort(tok[1])
        raise _unexpected("a type", tok)

    def parse_stype(self):
        left = self._parse_stype_atom()
        if self.at("&"):
            self.next()
            return Amp(left, self.parse_stype())
        return left

    def _parse_stype_atom(self):
        tok = self.peek()
        if tok[1] == "TP":
            self.next()
            return TP_TYPE
        if tok[1] == "TU":
            self.next()
            self.expect("(")
            inner = self.parse_ttype()
            self.expect(")")
            return TU(inner)
        saved = self.i
        try:
            dom = self.parse_ttype()
            self.expect("->")
            cod = self.parse_ttype()
            return Arrow(dom, cod)
        except ParseError:
            self.i = saved
        if tok[1] == "(":
            self.next()
            inner = self.parse_stype()
            self.expect(")")
            return inner
        raise _unexpected("a strategy type", tok)

    def parse_ctype(self, type_params):
        self.type_params = tuple(type_params)
        args = self.sep_list(self.parse_stype, "*")
        if self.at("->"):
            self.next()
            result = self.parse_stype()
            return CombinatorType(tuple(type_params), args, result)
        if len(args) > 1:
            tok = self.peek()
            raise ParseError("expected '->' after argument types", tok[2:])
        return CombinatorType(tuple(type_params), (), args[0])

    # -- strategies ---------------------------------------------------------

    def parse_strat(self, level=1):
        """A strategy whose binary operators all bind at `level` or
        tighter: one primary, then precedence climbing over S.OPERATORS.
        Level 4 is above every binary operator, so there it reads one
        primary, a rule included: the operand of `!`."""
        tok = self.next()
        pos, word = tok[2:], tok[1]
        if word == "!":
            left = S.Neg(self.parse_strat(4), pos)
        elif word in S.KEYWORDS:
            cls, kinds = S.KEYWORDS[word]
            args = []
            for k, kind in enumerate(kinds):
                self.expect("," if k else "(")
                args.append(_PARSE_ARG[kind](self))
            if kinds:
                self.expect(")")
            left = cls(*args, pos)
        elif word == "(":
            if self.at(")"):
                self.next()
                left = S.CongUnit(pos)
            else:
                left = self.parse_strat()
                if self.at(","):
                    self.next()
                    left = S.CongPair(left, self.parse_strat(), pos)
                elif self.at(":"):
                    # "(" strat ":" stype ")" — annotation, as printed by
                    # the elaborator.
                    self.next()
                    left = S.Annot(left, self.parse_stype(), pos)
                self.expect(")")
        elif tok[0] == "name" and word not in RESERVED:
            type_args = ()
            if self.at("["):
                self.next()
                type_args = self.sep_list(self.parse_ttype, close="]")
            args = ()
            if self.at("("):
                self.next()
                args = self.sep_list(self.parse_strat, close=")")
            # Congruence vs call vs parameter is settled by the checker.
            left = S.Call(word, type_args, args, pos)
        else:
            raise _unexpected("a strategy", tok)
        if word != "!" and self.at("->"):
            # A rewrite rule, whose left-hand side was read as a congruence.
            self.next()
            left = S.Rule(_as_term(left), *self._parse_rulebody(), pos)
        while True:
            tok = self.peek()
            cls, op_level = S.OPERATORS.get(tok[1], (None, 0))
            if op_level < level:
                return left
            # A ';' continues a sequence only if a strategy follows;
            # otherwise it is the item terminator and is left for the caller.
            if tok[1] == ";" and not self._can_start_strat(self.peek(1)):
                return left
            self.next()
            left = cls(left, self.parse_strat(op_level), pos)

    def _can_start_strat(self, tok):
        if tok[0] == "op":
            return tok[1] in ("(", "!")
        return tok[0] == "name" and (tok[1] in S.KEYWORDS
                                     or tok[1] not in RESERVED)

    def _parse_rulebody(self):
        """A rule's right-hand side and its where-clauses."""
        rhs = self.parse_term()
        where = []
        while self.at("where"):
            self.next()
            var = self.expect_name()
            self.expect(":=")
            strat = self.parse_strat()
            self.expect("@")
            where.append(S.Where(var, strat, self.parse_term()))
        return rhs, tuple(where)

    # -- items --------------------------------------------------------------

    def parse_items(self, prelude):
        """Parse declarations, definitions and the one main strategy, in
        any order, after those of the Program `prelude`, if given; return
        (context, definitions, main)."""
        ctx, definitions, main = Context(), {}, None
        if prelude is not None:
            for d in prelude.context.decls:
                ctx.declare(*d)
            definitions.update(prelude.definitions)
        while self.peek()[0] != "eof":
            tok = self.next()
            word, pos = tok[1], (tok[2], tok[3])
            if word == "main":
                self.expect("=")
                strat = self.parse_strat()
                self.expect(";")
                if main is not None:
                    raise StaticError("duplicate main strategy", pos,
                                      rule="def")
                main = strat
                continue
            if word not in ("sort", "con", "fun", "var", "def"):
                raise _unexpected("a declaration", tok)
            name = self.expect_name()
            value = None
            if word == "def":
                tparams = params = ()
                if self.at("["):
                    self.next()
                    tparams = self.sep_list(self.expect_name, close="]")
                if self.at("("):
                    self.next()
                    params = self.sep_list(self.expect_name, close=")")
                self.expect(":")
                value = self.parse_ctype(tparams)
                self.expect("=")
                body = self.parse_strat()
                self.type_params = ()
            elif word != "sort":
                self.expect(":")
                if word == "var":
                    value = self.parse_ttype()
                else:  # con or fun: (argument sorts, result sort)
                    args = () if word == "con" else self.sep_list(
                        lambda: Sort(self.expect_name()), "*", close="->")
                    value = (args, Sort(self.expect_name()))
            self.expect(";")
            if word == "def":
                if name in definitions:
                    raise StaticError("duplicate definition of %s" % name,
                                      pos, rule="def")
                if len(value.arg_types) != len(params):
                    raise ParseError(
                        "definition %s declares %d parameters but its type has %d "
                        "argument types" % (name, len(params), len(value.arg_types)),
                        pos)
                definitions[name] = S.Definition(name, params, value, body,
                                                 pos)
            ctx.declare(word, name, value, pos)
        return ctx, definitions, main


def _as_term(s):
    """The term that the congruence `s` spells, as a rule's left-hand side."""
    if isinstance(s, S.Call) and not s.type_args:
        if s.args:
            return FunApp(s.name, tuple(map(_as_term, s.args)))
        return Var(s.name)
    if isinstance(s, S.CongUnit):
        return FunApp(UNIT_NAME, ())
    if isinstance(s, S.CongPair):
        return FunApp(PAIR_NAME, (_as_term(s.left), _as_term(s.right)))
    raise ParseError("a rule's left-hand side must be a term", s.pos)


# How Parser reads each argument kind of a keyword form (S.KEYWORDS).
_PARSE_ARG = {"strat": Parser.parse_strat, "ttype": Parser.parse_ttype,
              "stype": Parser.parse_stype}


# ---------------------------------------------------------------------------
# Entry points


# A token of a term: a name, or any other character that is not blank; a
# well-formed term has only names, "(", ")" and ",".
_TERM_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\S")


def _declared(functions, tok):
    """The signature of tok if it is a declared function that the parser
    reads as a name, else None."""
    if tok in RESERVED or tok[:1] not in _NAME_START:
        return None
    return functions.get(tok)


def _read_flat(text, functions):
    """The term that text spells, read and tagged in one flat pass, or
    None where the text is not a well-typed ground term in plain syntax:
    at a name that is undeclared, reserved or no name token, a wrong arity
    or sort, a comment, or any other misplaced token.

    Open nodes wait on one stack as (name, signature, arguments so far),
    so a level of nesting costs no frame; a grouping parenthesis or a pair
    has signature None. An argument's tag is checked against its sort by
    identity, as types are interned. Each constant, () included, is built
    once per read and shared."""
    toks = _TERM_TOKEN_RE.findall(text)
    toks += ("", "")  # the end, twice, so the lookahead past it stays in range
    consts = {}  # name -> the node of that constant in this read
    heads = {}  # name -> signature of a function applied in this read
    stack = []
    i = 0
    while True:
        # Read a constant, or open a node and read its first argument.
        tok = toks[i]
        i += 1
        if tok == "(":
            if toks[i] != ")":
                stack.append((None, None, []))
                continue
            i += 1
            tok = UNIT_NAME
        elif toks[i] == "(":
            sig = heads.get(tok)
            if sig is None:
                sig = _declared(functions, tok)
                if sig is None or not sig[0]:
                    return None
                heads[tok] = sig
            i += 1
            stack.append((tok, sig, []))
            continue
        t = consts.get(tok)
        if t is None:
            sig = ((), UNIT) if tok == UNIT_NAME else _declared(functions, tok)
            if sig is None or sig[0]:
                return None
            t = consts[tok] = FunApp(tok, (), sig[1])
        # t is read: add it to the open node, and close each node it ends.
        while stack:
            name, sig, args = stack[-1]
            args.append(t)
            tok = toks[i]
            i += 1
            if sig is None:  # (t), or (t1,t2)
                if tok == "," and len(args) == 1:
                    break
                if tok != ")":
                    return None
                stack.pop()
                if len(args) == 2:
                    t = FunApp(PAIR_NAME, tuple(args),
                               PairType(args[0].tag, args[1].tag))
                continue
            arg_sorts, result = sig
            n = len(args)
            if t.tag is not arg_sorts[n - 1]:
                return None
            if n < len(arg_sorts):
                if tok != ",":
                    return None
                break
            if tok != ")":
                return None
            stack.pop()
            t = FunApp(name, tuple(args), result)
        else:
            return t if not toks[i] else None


def parse_program(text, prelude=None, require_main=True):
    """Parse a program file, in the frame room; `prelude` is a Program
    whose declarations and definitions are visible to the parsed text."""
    parser = Parser(text)
    ctx, definitions, main = _in_frame_room(parser.parse_items, prelude)
    if require_main and main is None:
        tok = parser.peek()
        raise ParseError("missing main strategy", tok[2:])
    return S.Program(ctx, definitions, main)


def parse_term(text, ctx):
    """Parse a standalone term, check that it is ground and well-typed, and
    tag it. A well-typed ground term is read by `_read_flat` in one pass;
    any other text is read again by Parser and tag_ground_term, which
    report its first error. All three walk with a stack, so a term reads,
    or gets its diagnostic, at any depth."""
    t = _read_flat(text, ctx.functions)
    if t is not None:
        return t
    parser = Parser(text)
    t = parser.parse_term()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError("trailing input after term: %r" % tok[1], tok[2:])
    return tag_ground_term(ctx, t)
