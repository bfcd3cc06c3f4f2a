"""The evaluator against the reference semantics on the benchmark's inputs.

One seeded pass of each workload in `bench/inputs.py` (without the depth
probes) gives the `run` requests. Each runs through `run_program` and
through `reference_eval.run_reference`, untraced and traced, and the two
must agree on the rendered reduct, every node's tag, the fuel left, every
trace line and both `&` counters.
"""

import pytest

import stratcalc as sc
from stratcalc.terms import FUEL

from conftest import assert_same_run, bench_runs
from reference_eval import run_reference


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("workload", ["traverse", "normalize", "oneshot"])
def test_bench_requests_match_reference(workload, trace, tmp_path):
    runs, cores = bench_runs(workload, tmp_path)
    assert runs
    for cls, text, term in runs:
        cfg = sc.EvalConfig(fuel=FUEL, trace=trace)
        state = sc.EvalState()
        got = sc.run_program(cores[text], term, cfg, state)
        want, ref = run_reference(cores[text], term, cfg)
        assert_same_run(got, state, want, ref, cls)
