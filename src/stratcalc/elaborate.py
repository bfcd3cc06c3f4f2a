"""Static elaboration: sugar expansion, pattern tagging, and annotation of
`extend` arguments and `&` branches, so that evaluation dispatches on tags
alone.
"""

from . import syntax as S
from .terms import Arrow, tag_term
from .typecheck import expand_tlchoice, type_of_strategy


def desugar(ctx, s):
    """Expand +>, guard, <& and &>; <+ is core and stays. The type-dependent
    forms need the left operand's type, hence the context argument."""
    rec = lambda x: desugar(ctx, x)
    if isinstance(s, S.RChoice):
        return desugar(ctx, S.LChoice(s.right, s.left, s.pos))
    if isinstance(s, S.TypeGuard):
        return S.Extend(S.Restrict(S.Id(s.pos), Arrow(s.ttype, s.ttype), s.pos),
                        s.stype, s.pos)
    if isinstance(s, S.TLChoice):
        left = rec(s.left)
        right = rec(s.right)
        p1 = type_of_strategy(ctx, left)
        p2 = type_of_strategy(ctx, right)
        return expand_tlchoice(ctx, left, right, p1, p2, s.pos)
    if isinstance(s, S.TRChoice):
        return desugar(ctx, S.TLChoice(s.right, s.left, s.pos))
    return _map_children(s, rec, lambda b: desugar_body(ctx, b))


def desugar_body(ctx, b):
    if isinstance(b, S.Result):
        return b
    return S.Where(b.var, desugar(ctx, b.strat), b.arg, desugar_body(ctx, b.rest))


def elaborate(ctx, s):
    """Annotate every extend argument and every & branch with its inferred
    type and tag all rule terms. Expects desugared input; idempotent."""
    rec = lambda x: elaborate(ctx, x)
    if isinstance(s, S.Extend):
        return S.Extend(_annotate(ctx, rec(s.arg)), s.stype, s.pos)
    if isinstance(s, S.AmpS):
        return S.AmpS(_annotate(ctx, rec(s.left)),
                      _annotate(ctx, rec(s.right)), s.pos)
    if isinstance(s, S.Rule):
        return S.Rule(tag_term(ctx, s.lhs), elaborate_body(ctx, s.body), s.pos)
    return _map_children(s, rec, lambda b: elaborate_body(ctx, b))


def _annotate(ctx, s):
    if isinstance(s, S.Annot):
        return s
    return S.Annot(s, type_of_strategy(ctx, s), s.pos)


def elaborate_body(ctx, b):
    if isinstance(b, S.Result):
        return S.Result(tag_term(ctx, b.term))
    return S.Where(b.var, elaborate(ctx, b.strat), tag_term(ctx, b.arg),
                   elaborate_body(ctx, b.rest))


def _map_children(s, rec, rec_body):
    """Homomorphic rebuild of one core strategy node."""
    if isinstance(s, S.Rule):
        return S.Rule(s.lhs, rec_body(s.body), s.pos)
    if isinstance(s, (S.Id, S.Fail, S.Void, S.CongCon, S.CongUnit,
                      S.ParamRef)):
        return s
    if isinstance(s, (S.Seq, S.Choice, S.LChoice, S.CongPair, S.Spawn,
                      S.AmpS)):
        return type(s)(rec(s.left), rec(s.right), s.pos)
    if isinstance(s, (S.Neg, S.All, S.One, S.Select)):
        return type(s)(rec(s.arg), s.pos)
    if isinstance(s, S.Reduce):
        return S.Reduce(rec(s.splus), rec(s.child), s.pos)
    if isinstance(s, (S.Extend, S.Restrict, S.Annot)):
        return type(s)(rec(s.arg), s.stype, s.pos)
    if isinstance(s, S.CongFun):
        return S.CongFun(s.name, tuple(rec(a) for a in s.args), s.pos)
    if isinstance(s, S.Call):
        return S.Call(s.name, s.type_args, tuple(rec(a) for a in s.args), s.pos)
    raise TypeError("not a strategy: %r" % (s,))


def elaborate_definitions(ctx, defs):
    """Desugar and elaborate each definition body in its own scope."""
    out = {}
    for name, d in defs.items():
        sub = ctx.with_params(d.type_params,
                              dict(zip(d.params, d.ctype.arg_types)))
        body = elaborate(sub, desugar(sub, d.body))
        out[name] = S.Definition(d.name, d.type_params, d.params, d.ctype,
                                 body, d.pos)
    return out


def elaborate_program(program):
    """Desugar and elaborate all definition bodies and main."""
    ctx = program.context
    defs = elaborate_definitions(ctx, program.definitions)
    main = program.main
    if main is not None:
        main = elaborate(ctx, desugar(ctx, main))
    return S.Program(ctx, defs, main)
