"""The checker walks each strategy node once: checking and elaboration
stay linear in nesting depth, and a CLI request walks each definition, the
prelude's included, once per program text the process has not checked
lately, and no definition otherwise.

Costs are counted as visits of `typecheck.type_and_core`, the function
that types each node, never as wall time.
"""


import pytest

import stratcalc as sc
from stratcalc import cli, typecheck
from stratcalc import syntax as S
from stratcalc.terms import FunApp, TP_TYPE, Var

from conftest import program_path
from randgen import NAT, NN

INC = S.Rule(Var("N"), FunApp("succ", (Var("N"),)))
BUDGET = 100000


@pytest.fixture
def visits(monkeypatch):
    """The nodes `type_and_core` is called on, in order: one call per
    node, sugar and bare names included. A walk that exceeds BUDGET fails
    the test at once, so an exponential one cannot hang."""
    seen = []
    type_of = typecheck.type_and_core

    def counting(ctx, s):
        seen.append(s)
        if len(seen) > BUDGET:
            pytest.fail("more than %d checker visits" % BUDGET)
        return type_of(ctx, s)

    monkeypatch.setattr(typecheck, "type_and_core", counting)
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


def nested_guard(depth):
    """guard(Nat, TP) +> (guard(Nat, TP) +> ... id)"""
    s = S.Id()
    for _ in range(depth):
        s = S.RChoice(S.TypeGuard(NAT, TP_TYPE), s)
    return s


def check_and_elaborate_visits(ctx, s, visits):
    program = S.Program(ctx, {}, s)
    visits.clear()
    diags, main_type, _ = sc.check_and_elaborate(program)
    assert diags == [] and main_type == TP_TYPE
    return len(visits)


@pytest.mark.parametrize("build,depth", [(nested_tlchoice, 12),
                                         (nested_extend, 50),
                                         (nested_guard, 12)])
def test_nested_forms_are_linear_in_depth(build, depth, nat_tree_ctx,
                                          visits):
    small = check_and_elaborate_visits(nat_tree_ctx, build(depth), visits)
    big = check_and_elaborate_visits(nat_tree_ctx, build(2 * depth), visits)
    assert big <= 2 * small, (small, big)


def test_cli_run_walks_each_definition_once(visits, monkeypatch, capsys):
    # The CLI's cache of checked programs is the one cache of checking. A
    # request for a program text it has not kept walks every body, the
    # prelude's included, once; a repeated request walks none.
    parsed = []
    parse = cli._parse

    def keep(*key):
        program, prelude = parse(*key)
        parsed.append(program)
        return program, prelude

    monkeypatch.setattr(cli, "_parse", keep)
    run = ["run", program_path("problems.strat"),
           "--term", "fork(leaf(zero),leaf(succ(zero)))"]
    walked = []
    cli._checked.cache_clear()
    for argv in (run, run, ["check", program_path("overload.strat")]):
        visits.clear()
        assert cli.main(argv) == 0
        walked.append(list(visits))
    cold, warm, other = walked
    assert warm == [] and len(parsed) == 2

    prelude = sc.load_prelude().definitions
    for program, seen in zip(parsed, (cold, other)):
        assert set(program.definitions) > set(prelude)
        for d in program.definitions.values():
            assert sum(s is d.body for s in seen) == 1, d.name
        visits.clear()
        sc.check_and_elaborate(program)
        assert len(seen) == len(visits)
