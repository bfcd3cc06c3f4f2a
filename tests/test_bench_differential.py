"""The evaluator against the reference semantics on the benchmark's inputs.

One seeded pass of each workload in `bench/inputs.py` (without the depth
probes) gives the `run` requests. Each runs through `run_program` and
through `reference_eval.run_reference`, untraced and traced, and the two
must agree on the rendered reduct, every node's tag, the fuel left, every
trace line and both `&` counters. Reducts are compared by rendering them
and walking them with a loop, since `repr` and `==` recurse in C.
"""

import os
import sys

import pytest

import stratcalc as sc
from stratcalc.printer import render_term

from reference_eval import run_reference

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import inputs  # noqa: E402  (bench/inputs.py: the benchmark's requests)

SEED = 101
FUEL = 100000  # the CLI's default


def run_requests(workload, root):
    """(class, core program, tagged term) of each well-typed `run` request
    of one pass of the workload, read as the CLI reads it."""
    requests, _ = inputs.build(workload, SEED, str(root), 1)
    out = []
    for req in requests:
        if req.argv[0] != "run":
            continue
        _, program_path, _, text = req.argv
        with open(program_path) as f:
            program = sc.parse_program(f.read(), prelude=sc.load_prelude())
        diags, _, core = sc.check_and_elaborate(program)
        if diags:
            assert req.rc == 2, req.cls  # the ill-typed oneshot slot
            continue
        if os.path.exists(text):  # else the term itself, as for quickstart
            with open(text) as f:
                text = f.read().strip()
        out.append((req.cls, core, sc.parse_term(text, core.context)))
    return out


def assert_same_tags(t, u):
    todo = [(t, u)]
    while todo:
        a, b = todo.pop()
        assert a.tag is b.tag
        todo.extend(zip(a.args, b.args))


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("workload", ["traverse", "normalize", "oneshot"])
def test_bench_requests_match_reference(workload, trace, tmp_path):
    runs = run_requests(workload, tmp_path)
    assert runs
    for cls, core, term in runs:
        cfg = sc.EvalConfig(fuel=FUEL, trace=trace)
        state = sc.EvalState()
        got = sc.run_program(core, term, cfg, state)
        want, ref = run_reference(core, term, cfg)
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
