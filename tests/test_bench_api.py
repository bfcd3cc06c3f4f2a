"""The benchmark's traced pass (`bench/layers.py`) drives the engine
through its module API; this keeps that API and the CLI in step."""

import importlib.util
import os
import subprocess
import sys

import pytest

from stratcalc.cli import main as cli_main

from conftest import program_path

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
LAYERS = os.path.join(BENCH, "layers.py")


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REQUESTS = [
    ["check", program_path("problems.strat")],
    ["elaborate", program_path("overload.strat")],
    ["run", program_path("problems.strat"),
     "--term", "fork(leaf(zero),leaf(succ(zero)))"],
]


@pytest.mark.parametrize("argv", REQUESTS, ids=lambda a: a[0])
def test_layers_agree_with_the_cli(layers, capsys, argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    tr = layers.Tracer()
    assert layers.pipeline(tr, 0, argv) == (code, out)
    assert code == 0 and tr.spans

    counts = layers.count_request(argv)
    assert counts["core_nodes"] > 0 and counts["rejected"] == 0
    if argv[0] == "run":
        assert counts["nodes"] > 0 and counts["fuel_used"] > 0
        assert counts["fail"] == counts["engine_fail"] == 0


def test_bench_self_check_passes():
    """One pass of every benchmark workload through the CLI and the traced
    pipeline agrees with the oracles; it writes only under `.bench/`."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           "--self-check"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
