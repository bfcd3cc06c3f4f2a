"""Checked programs kept and run again.

The CLI keeps each `CheckedProgram` in its cache entry, and each keeps
the compiled closures of its finished runs, so a warm `run` reuses what
earlier runs compiled. Each reply of a warm run must be the reply of a
cold one, whatever outcome came before it, and a run that reaches only
compiled code compiles nothing. A run started inside another runs on
closures of its own. The library's `CheckedProgram` is held to the
reference semantics on the benchmark's requests, every run after the
first of a program warm.
"""

import threading
from types import SimpleNamespace

import pytest

import stratcalc as sc
from stratcalc import cli, evaluate
from stratcalc.printer import render_term
from stratcalc.terms import FUEL

from conftest import (NAT_TREE_HEADER, assert_same_run, bench_runs,
                      load_program, program_path)
from reference_eval import run_reference


@pytest.fixture
def reply(capsys):
    """cli.main's (exit code, stdout, stderr) for argv."""
    def run(*argv):
        code = cli.main(list(argv))
        return (code,) + tuple(capsys.readouterr())
    return run


@pytest.fixture
def write(tmp_path):
    def w(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return w


@pytest.fixture
def compiled(monkeypatch):
    """The nodes compiled since the fixture was made."""
    nodes, compile_ = [], evaluate._Scope.compile

    def counting(scope, s):
        nodes.append(s)
        return compile_(scope, s)

    monkeypatch.setattr(evaluate._Scope, "compile", counting)
    return nodes


def cold_replies(reply, requests):
    """Each request's reply with the cache emptied before it."""
    out = []
    for argv in requests:
        cli._checked.cache_clear()
        out.append(reply(*argv))
    cli._checked.cache_clear()
    return out


def test_warm_run_compiles_nothing(reply, compiled):
    problems = program_path("problems.strat")
    small = ["run", problems, "--term", "fork(leaf(zero),leaf(succ(zero)))"]
    other = ["run", problems, "--term",
             "fork(fork(leaf(zero),leaf(zero)),leaf(succ(succ(zero))))"]
    requests = [small, other, other + ["--trace"], other, small + ["--trace"],
                small]
    cold = cold_replies(reply, requests)
    compiled.clear()
    counts = []
    for argv, want in zip(requests, cold):
        before = len(compiled)
        assert reply(*argv) == want
        counts.append(len(compiled) - before)
    # The cold run compiles, and the traced variant is compiled once, on
    # the first traced run; every other run reuses what is compiled.
    assert counts[0] > 0 and counts[2] > 0
    assert counts[1] == counts[3] == counts[4] == counts[5] == 0
    assert cold[2][2].count("\n") > 0 and cold[3][2] == ""


RECOVERY = NAT_TREE_HEADER.replace(
    "main = id;", "main = Repeat(extend(succ(N) -> N, TP)) ;"
    " extend(zero -> zero, TP);")


def test_reused_compiled_program_recovers_from_every_outcome(reply, write):
    f = write("recover.strat", RECOVERY)
    deep = write("deep.term", "succ(" * 10000 + "zero" + ")" * 10000)
    five = "succ(succ(succ(succ(succ(zero)))))"
    requests = [
        ["run", f, "--term", five, "--fuel", "3"],
        ["run", f, "--term", five],
        ["run", f, "--term", deep],
        ["run", f, "--term", "succ(zero)"],
        ["run", f, "--term", "leaf(zero)"],
        ["run", f, "--term", "zero"],
    ]
    cold = cold_replies(reply, requests)
    assert [code for code, _, _ in cold] == [3, 0, 6, 0, 1, 0]
    # One cache entry, one compiled program, each outcome in turn.
    assert [reply(*argv) for argv in requests] == cold
    assert cli._checked.cache_info().currsize == 1


def counters(state):
    return state.amp_dispatches, state.amp_branch_evals


def test_reused_run_counts_the_same_amp_dispatches():
    program = sc.CheckedProgram(load_program("overload.strat"))
    core = program.core
    t = sc.parse_term("positive(notzero(succ(succ(i))))", core.context)
    states = [sc.EvalState() for _ in range(3)]
    outcomes = [program.run(t, state=st) for st in states[:2]]
    outcomes.append(sc.run_program(core, t, state=states[2]))
    assert [render_term(o.term) for o in outcomes] == [
        "positive(notzero(succ(succ(succ(i)))))"] * 3
    assert counters(states[0]) == counters(states[1]) == counters(states[2])
    assert counters(states[0])[0] > 0


def in_thread(f):
    """f() on a thread of its own, so that a deadlock fails the test
    instead of hanging it; f's exception is raised here."""
    errors = []

    def target():
        try:
            f()
        except BaseException as e:
            errors.append(e)

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "the run did not finish"
    if errors:
        raise errors[0]


def test_a_run_started_inside_another_runs_on_its_own():
    program = sc.CheckedProgram(load_program("problems.strat"))
    t = sc.parse_term("leaf(zero)", program.core.context)
    cfg = sc.EvalConfig(trace=True)
    plain = sc.EvalState()
    want = program.run(t, cfg, plain)
    # The outer run's trace sink starts a second run of the same program
    # on its first line; that run waits for nothing and disturbs nothing.
    lines, nested, got = [], [], []

    def append(line):
        if not nested:
            nested.append(program.run(t, cfg))
        lines.append(line)

    outer = sc.EvalState(trace_lines=SimpleNamespace(append=append))
    in_thread(lambda: got.append(program.run(t, cfg, outer)))
    assert render_term(nested[0].term) == "leaf(succ(zero))"
    assert got == [want] and lines == plain.trace_lines
    assert outer.fuel == plain.fuel
    assert render_term(program.run(t, cfg).term) == "leaf(succ(zero))"


def test_a_run_that_raises_leaves_its_closures_fit_to_run_again():
    program = sc.CheckedProgram(load_program("problems.strat"))
    t = sc.parse_term("fork(leaf(zero),leaf(succ(zero)))",
                      program.core.context)
    cfg = sc.EvalConfig(trace=True)

    class Stop(Exception):
        pass

    def stop(line):
        raise Stop

    with pytest.raises(Stop):
        program.run(t, cfg, sc.EvalState(trace_lines=SimpleNamespace(
            append=stop)))
    # The next run takes the closures the interrupted run left, partly
    # compiled, and runs as a fresh program does.
    state, fresh = sc.EvalState(), sc.EvalState()
    want = sc.run_program(program.core, t, cfg, fresh)
    assert program.run(t, cfg, state) == want
    assert state.trace_lines == fresh.trace_lines
    assert state.fuel == fresh.fuel


# The benchmark's well-typed `run` requests, each program compiled once.

@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("workload", ["traverse", "normalize"])
def test_warm_bench_requests_match_reference(workload, trace, tmp_path):
    runs, cores = bench_runs(workload, tmp_path)
    assert all(core is not None for core in cores.values())
    assert len(runs) > len(cores)
    prelude = sc.load_prelude()
    programs = {text: sc.CheckedProgram(sc.parse_program(text,
                                                         prelude=prelude))
                for text in cores}
    cfg = sc.EvalConfig(fuel=FUEL, trace=trace)
    for cls, text, term in runs:
        state = sc.EvalState()
        got = programs[text].run(term, cfg, state)
        want, ref = run_reference(cores[text], term, cfg)
        assert_same_run(got, state, want, ref, cls)
