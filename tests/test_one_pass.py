"""The checker walks each strategy node once: checking and elaboration
stay linear in nesting depth, and a CLI run walks each definition at most
once: the prelude's once per process, the program's own once per program
text the process has not checked lately.

Costs are counted as visits of `typecheck._type_of`, never as wall time.
"""


import pytest

import stratcalc as sc
from stratcalc import cli, typecheck
from stratcalc import syntax as S
from stratcalc.terms import FunApp, TP_TYPE, Var

from conftest import program_path
from randgen import NN

INC = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))
BUDGET = 100000


@pytest.fixture
def visits(monkeypatch):
    """The nodes `_type_of` is called on, in order. A walk that exceeds
    BUDGET fails the test at once, so an exponential one cannot hang."""
    seen = []
    type_of = typecheck._type_of

    def counting(ctx, s):
        seen.append(s)
        if len(seen) > BUDGET:
            pytest.fail("more than %d checker visits" % BUDGET)
        return type_of(ctx, s)

    monkeypatch.setattr(typecheck, "_type_of", counting)
    return seen


def nested_tlchoice(depth):
    """Inc <& (Inc <& ... id)"""
    s = S.Id()
    for _ in range(depth):
        s = S.TLChoice(INC, s)
    return s


def nested_extend(depth):
    """extend(restrict(... extend(Inc, TP) ..., Nat -> Nat), TP)"""
    s = S.Extend(INC, TP_TYPE)
    for _ in range(depth - 1):
        s = S.Extend(S.Restrict(s, NN), TP_TYPE)
    return s


def check_and_elaborate_visits(ctx, s, visits):
    program = S.Program(ctx, {}, s)
    visits.clear()
    diags, main_type = sc.check_program(program)
    assert diags == [] and main_type == TP_TYPE
    sc.elaborate_program(program)
    return len(visits)


@pytest.mark.parametrize("build,depth", [(nested_tlchoice, 12),
                                         (nested_extend, 50)])
def test_nested_forms_are_linear_in_depth(build, depth, nat_tree_ctx,
                                          visits):
    small = check_and_elaborate_visits(nat_tree_ctx, build(depth), visits)
    big = check_and_elaborate_visits(nat_tree_ctx, build(2 * depth), visits)
    assert big <= 2 * small, (small, big)


def test_cli_run_walks_each_definition_once(visits, monkeypatch, capsys):
    # A cold run checks each prelude body once, in the prelude's context;
    # a run that parses the program again reuses those cores and walks only
    # the program's own, and a run the cache of checked programs answers
    # walks none.
    loaded = []
    parse = cli._parse

    def keep(*key):
        program, prelude = parse(*key)
        loaded.append(program)
        return program, prelude

    monkeypatch.setattr(cli, "_parse", keep)
    monkeypatch.setattr(sc.load_prelude(), "cores", None)
    argv = ["run", program_path("problems.strat"),
            "--term", "fork(leaf(zero),leaf(succ(zero)))"]
    cli._checked.cache_clear()
    assert cli.main(argv) == 0
    cold = list(visits)
    visits.clear()
    cli._checked.cache_clear()
    assert cli.main(argv) == 0
    warm = list(visits)
    visits.clear()
    assert cli.main(argv) == 0
    assert visits == [] and len(loaded) == 2

    first, second = loaded
    for d in first.definitions.values():
        assert sum(s is d.body for s in cold) == 1, d.name
    prelude = second.prelude.definitions
    assert set(second.definitions) > set(prelude)
    for name, d in second.definitions.items():
        assert sum(s is d.body for s in warm) == (name not in prelude), name

    for program, walked in ((first.replace(prelude=None), cold),
                            (second, warm)):
        visits.clear()
        sc.check_program(program)
        assert len(walked) == len(visits)


def test_warm_apply_strategy_walks_no_prelude_body(visits, problems):
    # apply_strategy checks against the bundled prelude, so once its cores
    # are kept, a call walks only the program's own definitions.
    defs = problems.definitions
    prelude = sc.load_prelude().definitions
    t = sc.FunApp("zero", ())
    assert sc.apply_strategy(problems.context, defs, S.Id(), t) == sc.Ok(t)
    visits.clear()
    assert sc.apply_strategy(problems.context, defs, S.Id(), t) == sc.Ok(t)
    assert set(defs) > set(prelude)
    for name, d in defs.items():
        assert sum(s is d.body for s in visits) == (name not in prelude), name
