"""Subject reduction: applying a strategy of type pi to a term of type tau
gives a term of type apply(pi, tau). `run_program` checks every node of a
changed reduct once, input nodes included; `CheckedProgram.run`, which
`stratcalc run` and `apply_strategy` share, compares the reduct's root
with the predicted type and rejects a strategy whose type does not apply
to its term.
"""

import pytest

import stratcalc as sc
from stratcalc import cli, evaluate, terms
from stratcalc import syntax as S
from stratcalc.errors import InapplicableType
from stratcalc.terms import FunApp, fun_sort

from conftest import load_program, program_path, raises_static
from randgen import NAT, TREE


@pytest.fixture(scope="module")
def problems_core():
    diags, _, core = sc.check_and_elaborate(load_program("problems.strat"))
    assert diags == []
    return core


def run_main(core, main, t):
    """Run `main`, checked in core's context, on the tagged term t."""
    diags, _, program = sc.check_and_elaborate(
        S.Program(core.context, core.definitions, main))
    assert diags == []
    return sc.run_program(program, t, sc.EvalConfig())


def call(name, *args):
    return S.Call(name, (), tuple(args))


ZERO = FunApp("zero", (), NAT)
ONE = FunApp("succ", (ZERO,), NAT)


def tree(leaves):
    """A balanced tree of `leaves` leaf(succ(zero)) leaves, tagged, that
    shares no node."""
    level = [FunApp("leaf", (FunApp("succ", (FunApp("zero", (), NAT),), NAT),),
                    TREE) for _ in range(leaves)]
    while len(level) > 1:
        level = [FunApp("fork", (level[i], level[i + 1]), TREE)
                 for i in range(0, len(level), 2)]
    return level[0]


@pytest.fixture
def visited(monkeypatch):
    """The nodes the reduct check visits, in order, as (name, args): it
    types each with one `fun_sort` call. The checker's `tag_term` does not
    call it, and the one-pass reader's `fun_sort` is bound in `parser`, so
    neither is counted."""
    seen = []

    def counting(functions, name, args):
        seen.append((name, args))
        return fun_sort(functions, name, args)

    monkeypatch.setattr(terms, "fun_sort", counting)
    return seen


def test_reduct_check_reads_only_the_reduct(visited, problems_core):
    # ProblemIII on 256 leaves (1,023 nodes) returns the constant true:
    # one node to check, whatever the size of the input.
    got = run_main(problems_core, call("ProblemIII"), tree(2 ** 8))
    assert got == sc.Ok(FunApp("true", ()))
    assert visited == [(got.term.name, got.term.args)]


def test_shared_reduct_node_is_checked_once(visited, problems_core):
    # fork(T,T) with T one shared node: Inc on every leaf builds a new
    # leaf once for each occurrence, so only the shared succ(zero) under
    # them repeats.
    leaf = FunApp("leaf", (ONE,), TREE)
    t = FunApp("fork", (leaf, leaf), TREE)
    got = run_main(problems_core, call("ProblemI"), t)
    assert isinstance(got, sc.Ok)
    # fork, two leaves and two succ(succ(zero)) built, and the shared
    # succ(zero) and zero of the input.
    assert len(visited) == 7
    assert len({(name, id(args)) for name, args in visited}) == 7


def test_ill_tagged_input_node_in_a_changed_reduct(problems_core):
    # The second leaf is tagged Tree, as it should be, but its zero is
    # tagged Tree too; the run rebuilds the fork and keeps that leaf.
    bad = FunApp("leaf", (FunApp("zero", (), TREE),), TREE)
    t = FunApp("fork", (FunApp("leaf", (ZERO,), TREE), bad), TREE)
    main = S.CongFun("fork", (S.CongFun("leaf", (call("Inc"),)), S.Id()))
    got = run_main(problems_core, main, t)
    assert got == sc.EngineFailure(
        "InternalTypeViolation",
        "reduct is ill-typed: argument 1 of leaf has type Tree, expected Nat")


def first_child(sc_, s):
    # A broken select: the first child itself, whatever s does.
    return lambda t, env: t.args[0] if t.args else None


def test_reduct_root_of_the_wrong_type(monkeypatch, capsys, tmp_path,
                                       problems):
    monkeypatch.setitem(evaluate._NODES, S.Select,
                        ("sel", "select", first_child))
    main = "select(extend(zero -> zero, TU(Nat)))"
    message = "reduct is ill-typed: reduct has type Tree, expected Nat"
    src = tmp_path / "select.strat"
    with open(program_path("problems.strat")) as f:
        src.write_text(f.read().replace("main = ProblemI;",
                                        "main = %s;" % main))
    text = "fork(leaf(zero),leaf(zero))"
    assert cli.main(["run", str(src), "--term", text]) == 5
    assert capsys.readouterr() == ("", "InternalTypeViolation: %s\n"
                                   % message)
    program = sc.parse_program(src.read_text(), prelude=sc.load_prelude())
    got = sc.apply_strategy(problems.context, problems.definitions,
                            program.main, sc.parse_term(text, problems.context))
    assert got == sc.EngineFailure("InternalTypeViolation", message)
    got = sc.CheckedProgram(program).run(sc.parse_term(text, program.context))
    assert got == sc.EngineFailure("InternalTypeViolation", message)


@pytest.mark.parametrize("name", ["IsNat", "Inc"])
def test_apply_strategy_rejects_an_inapplicable_term(capsys, tmp_path,
                                                     problems, name):
    # Nat -> Nat does not apply to a Tree: neither a Failure nor an
    # ill-typed reduct, but the typing error the CLI reports.
    message = ("strategy of type Nat -> Nat is not applicable to a term of "
               "type Tree")
    got = sc.apply_strategy(problems.context, problems.definitions,
                            call(name), FunApp("leaf", (FunApp("zero", ()),)))
    assert got == sc.EngineFailure("InternalTypeViolation",
                                   "runtime typing failed: " + message)
    checked = sc.CheckedProgram(
        S.Program(problems.context, problems.definitions, call(name)))
    with raises_static("apply", message) as exc:
        checked.run(sc.parse_term("leaf(zero)", problems.context))
    assert type(exc.value) is InapplicableType
    src = tmp_path / "apply.strat"
    with open(program_path("problems.strat")) as f:
        src.write_text(f.read().replace("main = ProblemI;",
                                        "main = %s;" % name))
    assert cli.main(["run", str(src), "--term", "leaf(zero)"]) == 2
    assert capsys.readouterr() == ("", "ERROR apply: %s\n" % message)
