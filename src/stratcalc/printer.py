"""Rendering of terms, types, strategies, and whole programs.

The output re-parses to the same abstract syntax (round trip). Operators
and keyword forms are spelled as `syntax.OPERATORS` and `syntax.KEYWORDS`
say, the tables the parser reads.
"""

from . import syntax as S
from .terms import PAIR_NAME, FunApp, Var, _in_frame_room, is_generic


def render_term(t):
    """The source text of t. Walks with a stack of the nodes and the ")"
    and "," still to write, in the order they are written, so it costs no
    frame per level."""
    out = []
    todo = [t]
    while todo:
        u = todo.pop()
        if type(u) is str:  # a ")" or a ","
            out.append(u)
        elif isinstance(u, FunApp):
            args = u.args
            if not args:  # a constant, or ()
                out.append(u.name)
                continue
            # A pair is an application with no head: (t1,t2).
            out.append("(" if u.name == PAIR_NAME else u.name + "(")
            todo.append(")")
            for a in args[:0:-1]:
                todo.append(a)
                todo.append(",")
            todo.append(args[0])
        elif isinstance(u, Var):
            out.append(u.name)
        else:
            raise TypeError("not a term: %r" % (u,))
    return "".join(out)


# The type classes print themselves in source syntax.
render_stype = repr


# Precedence levels: 1 = &-family, 2 = +-family, 3 = ;, 4 = prefix !,
# 5 = primary. A node is parenthesized when its level is below the
# context's required level.

_BINOPS = {cls: (op, lvl) for op, (cls, lvl) in S.OPERATORS.items()}

# class -> (word, ((field name, argument kind), ...)), from S.KEYWORDS
_FORMS = {cls: (word, tuple(zip(cls._fields, kinds)))
          for word, (cls, kinds) in S.KEYWORDS.items()}


def render_strat(s, level=0):
    """The source text of s, in parentheses if its own level is below
    `level`, the level its context requires. Each branch sets the text
    and the own level, so a level of nesting costs one frame."""
    cls, own = type(s), 5
    if cls in _BINOPS:
        op, own = _BINOPS[cls]
        left = render_strat(s.left, own + 1)
        text = "%s %s %s" % (left, op, render_strat(s.right, own))
    elif cls in _FORMS:
        word, args = _FORMS[cls]
        text = ""
        for name, kind in args:
            # "," before a strategy, ", " before a type.
            if kind == "strat":
                text += "," + render_strat(getattr(s, name), 1)
            else:
                text += ", %r" % (getattr(s, name),)
        text = "%s(%s)" % (word, text.lstrip(", ")) if args else word
    elif isinstance(s, S.Rule):
        text = "%s -> %s" % (render_term(s.lhs), render_term(s.rhs))
        for w in s.where:
            text += " where %s := %s @ %s" % (
                w.var, render_strat(w.strat, 1), render_term(w.arg))
        # A where-clause strategy would swallow a following operator, so
        # such rules always get parentheses in operator context.
        own = 0 if s.where else 5
    elif isinstance(s, S.Neg):
        text, own = "!%s" % render_strat(s.arg, 5), 4
    elif isinstance(s, S.CongUnit):
        text = "()"
    elif isinstance(s, S.CongPair):
        text = "(%s,%s)" % (render_strat(s.left, 1), render_strat(s.right, 1))
    elif isinstance(s, S.Annot):
        text = "(%s : %r)" % (render_strat(s.arg, 1), s.stype)
    elif isinstance(s, S.ParamRef):
        text = s.name
    elif isinstance(s, (S.CongFun, S.Call)):
        text = s.name
        if isinstance(s, S.Call) and s.type_args:
            text += "[%s]" % ",".join(map(repr, s.type_args))
        if s.args:
            # A loop, not a generator, so that a level of nesting costs
            # one frame, as in render_term.
            args = []
            for a in s.args:
                args.append(render_strat(a, 1))
            text += "(%s)" % ",".join(args)
    else:
        raise TypeError("not a strategy: %r" % (s,))
    return "(%s)" % text if own < level else text


def render_ctype(ct):
    def arg(pi):
        if not is_generic(pi):
            return "(%r)" % (pi,)
        return repr(pi)

    if ct.arg_types:
        return "%s -> %r" % (" * ".join(arg(a) for a in ct.arg_types),
                             ct.result_type)
    return repr(ct.result_type)


def render_program(program, skip_defs=()):
    """Render a whole program in source syntax, in the frame room;
    `skip_defs` suppresses definitions supplied by a prelude that the reader
    will load anyway."""
    return _in_frame_room(_render_program, program, skip_defs)


def _render_program(program, skip_defs):
    ctx = program.context
    lines = []
    skip_decl = set(skip_defs)
    for keyword, name, value, _pos in ctx.decls:
        # Definitions are printed from program.definitions, below.
        if keyword == "sort":
            lines.append("sort %s;" % name)
        elif keyword == "def":
            continue
        elif keyword in ("con", "fun"):
            args = " * ".join(map(repr, value[0])) + " -> " if value[0] else ""
            lines.append("%s %s : %s%r;" % (keyword, name, args, value[1]))
        else:
            lines.append("%s %s : %r;" % (keyword, name, value))
    for name, d in program.definitions.items():
        if name in skip_decl:
            continue
        head = "def %s" % name
        if d.ctype.type_params:
            head += "[%s]" % ",".join(d.ctype.type_params)
        if d.params:
            head += "(%s)" % ",".join(d.params)
        lines.append("%s : %s = %s;" % (head, render_ctype(d.ctype),
                                        render_strat(d.body)))
    if program.main is not None:
        lines.append("main = %s;" % render_strat(program.main))
    return "\n".join(lines) + "\n"
