import contextlib
import os
import re
import sys

import pytest

import stratcalc as sc
from stratcalc.printer import render_term
from stratcalc.terms import PAIR_NAME, UNIT_NAME

HERE = os.path.dirname(__file__)
PROGRAMS = os.path.join(HERE, "..", "programs")
GOLDEN = os.path.join(HERE, "golden")
BENCH = os.path.join(HERE, "..", "bench")


def program_path(name):
    return os.path.join(PROGRAMS, name)


def golden_path(name):
    return os.path.join(GOLDEN, name)


@contextlib.contextmanager
def raises_static(rule, message):
    """Expect a StaticError with this rule tag and exactly this message."""
    with pytest.raises(sc.StaticError,
                       match=r" %s\Z" % re.escape(message)) as exc:
        yield exc
    assert (exc.value.rule, exc.value.message) == (rule, message)


def load_program(name):
    with open(program_path(name)) as f:
        return sc.parse_program(f.read(), prelude=sc.load_prelude())


def core_with_main(name, main, defs=""):
    """The core of a bundled program with `defs` added and `main` in place
    of its own."""
    with open(program_path(name)) as f:
        text = f.read()
    head = text[:text.index("\nmain = ")]
    program = sc.parse_program("%s\n%s\nmain = %s;\n" % (head, defs, main),
                               prelude=sc.load_prelude())
    diags, _, core = sc.check_and_elaborate(program)
    assert diags == [], [d.render() for d in diags]
    return core


NAT_TREE_HEADER = """
sort Nat;
sort Tree;
con zero : Nat;
fun succ : Nat -> Nat;
fun leaf : Nat -> Tree;
fun fork : Tree * Tree -> Tree;
var N : Nat;
var N1 : Nat;
var N2 : Nat;
var T1 : Tree;
var T2 : Tree;
main = id;
"""


@pytest.fixture(scope="session")
def nat_tree():
    """A program over the Nat/Tree signature (context + prelude defs)."""
    return sc.parse_program(NAT_TREE_HEADER, prelude=sc.load_prelude())


@pytest.fixture(scope="session")
def nat_tree_ctx(nat_tree):
    return nat_tree.context


@pytest.fixture(scope="session")
def problems():
    p = load_program("problems.strat")
    diags = sc.check_and_elaborate(p)[0]
    assert not diags, [d.render() for d in diags]
    return p


@pytest.fixture(scope="session")
def problems_elaborated(problems):
    return sc.check_and_elaborate(problems)[2]


@pytest.fixture(scope="session")
def overload():
    p = load_program("overload.strat")
    diags = sc.check_and_elaborate(p)[0]
    assert not diags, [d.render() for d in diags]
    return p


@pytest.fixture(scope="session")
def addition():
    p = load_program("addition.strat")
    diags = sc.check_and_elaborate(p)[0]
    assert not diags, [d.render() for d in diags]
    return p


def unit(tag=None):
    """(), the built-in function of no arguments."""
    return sc.FunApp(UNIT_NAME, (), tag)


def pair(left, right, tag=None):
    """(left,right), the built-in function of two arguments."""
    return sc.FunApp(PAIR_NAME, (left, right), tag)


def assert_tuples_typed(t):
    """Every node of the ground term t is a FunApp, and each () and (,)
    node carries its structural type: () for (), and for a pair the pair
    of its arguments' tags. Walked with a loop."""
    todo = [t]
    while todo:
        u = todo.pop()
        assert type(u) is sc.FunApp, u
        if u.name == UNIT_NAME:
            assert u.args == () and u.tag is sc.UNIT, u
        elif u.name == PAIR_NAME:
            assert u.tag == sc.PairType(*[a.tag for a in u.args]), u
        todo.extend(u.args)


def num(n):
    t = sc.FunApp("zero", ())
    for _ in range(n):
        t = sc.FunApp("succ", (t,))
    return t


def run_call(program_elab, name, term, fuel=100000, trace=False, state=None):
    from stratcalc import syntax as S

    return sc.apply_strategy(program_elab.context, program_elab.definitions,
                             S.Call(name, (), ()), term,
                             sc.EvalConfig(fuel=fuel, trace=trace), state)


def bench_inputs():
    """bench/inputs.py, the benchmark's request builder."""
    sys.path.insert(0, BENCH)
    try:
        import inputs
    finally:
        sys.path.remove(BENCH)
    return inputs


def bench_runs(workload, root, seed=101):
    """The well-typed `run` requests of one seeded pass of a benchmark
    workload, read as the CLI reads them: a list of (class, program text,
    tagged term), and a dict from each program text to its core, or to
    None for an ill-typed one, whose requests must expect exit code 2.
    A program is parsed under the bundled prelude and checked once; a
    `--term` that names a file is read from it, else it is the term."""
    requests, _ = bench_inputs().build(workload, seed, str(root), 1)
    runs, cores = [], {}
    for req in requests:
        if req.argv[0] != "run":
            continue
        _, path, _, text = req.argv
        with open(path) as f:
            source = f.read()
        if source not in cores:
            program = sc.parse_program(source, prelude=sc.load_prelude())
            cores[source] = sc.check_and_elaborate(program)[2]
        if cores[source] is None:
            assert req.rc == 2, req.cls
            continue
        if os.path.exists(text):
            with open(text) as f:
                text = f.read().strip()
        runs.append((req.cls, source,
                     sc.parse_term(text, cores[source].context)))
    return runs, cores


def assert_same_tags(t, u):
    """t and u carry the same tag at every node. Walked with a loop."""
    todo = [(t, u)]
    while todo:
        a, b = todo.pop()
        assert a.tag is b.tag
        todo.extend(zip(a.args, b.args))


def assert_same_run(got, state, want, ref, cls):
    """The engine's outcome and EvalState match the reference's outcome
    and RefState: the rendered reduct and every node's tag, the fuel
    left, every trace line and both `&` counters. Reducts are compared
    by rendering and walking them, since `repr` and `==` recurse in C."""
    assert type(got) is type(want), cls
    if isinstance(got, sc.Ok):
        assert render_term(got.term) == render_term(want.term), cls
        assert_same_tags(got.term, want.term)
    else:
        assert got == want, cls
    assert state.fuel == ref.fuel, cls
    assert state.trace_lines == ref.trace_lines, cls
    assert (state.amp_dispatches, state.amp_branch_evals) == (
        ref.amp_dispatches, ref.amp_branch_evals), cls
