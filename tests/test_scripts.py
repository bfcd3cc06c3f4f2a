"""Smoke test of the demo script: it runs every bundled example through
the library and must keep printing the golden reducts."""

import os
import subprocess
import sys

import pytest

from conftest import golden_path

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "run_problems.py")


@pytest.mark.parametrize("trace", [False, True])
def test_run_problems_prints_golden_reducts(trace):
    argv = [sys.executable, SCRIPT] + (["--trace"] if trace else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(golden_path("run_problems.out")) as f:
        assert proc.stdout == f.read()
    traced = [line for line in proc.stderr.splitlines()
              if line.startswith("   | ")]
    assert bool(traced) == trace
    assert len(traced) == len(proc.stderr.splitlines())


DIGEST = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "request_digest.py")


def test_request_digest_lines():
    argv = [sys.executable, DIGEST, "--limit", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert {line[0] for line in lines} == {"traverse", "normalize", "oneshot",
                                           "probes"}
    for group, cls, mode, rc, out, err in lines:
        assert mode in ("parse", "plain", "trace")
        assert rc in ("0", "1", "2", "3", "4", "5", "6"), (group, cls, rc)
        assert len(out) == len(err) == 16
    # Every request has one parse line, right before its plain line.
    assert lines[0][2] == "parse"
    for before, line in zip(lines, lines[1:]):
        assert (line[2] == "plain") == (before[2] == "parse")
        if line[2] == "plain":
            assert before[:2] == line[:2]
            assert before[3] in ("0", "2", "4", "6")
    # Every `run` request is also digested with --trace, right after.
    runs = [(g, c) for g, c, mode, *_ in lines if mode == "trace"]
    assert runs
    for g, c in runs:
        assert [g, c, "plain"] in [line[:3] for line in lines]
    again = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert again.stdout == proc.stdout


def test_request_digest_matches_golden():
    """Every reply to the seed-101 benchmark requests, and every parse of
    them, is byte-identical to the committed digest. A deliberate output
    change regenerates the file (see the README)."""
    argv = [sys.executable, DIGEST, "--seed", "101"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(golden_path("request_digest_seed101.txt")) as f:
        assert proc.stdout == f.read()


COVERAGE = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "line_coverage.py")
TESTS_TERMS = os.path.join(os.path.dirname(__file__), "test_terms.py")
MODULES = os.path.join(os.path.dirname(__file__), "..", "src", "stratcalc")


def test_line_coverage_reports_each_module():
    argv = [sys.executable, COVERAGE, "-q", "-p", "no:cacheprovider",
            TESTS_TERMS]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    headers = {line.split(":")[0]: i for i, line in enumerate(lines)
               if line.endswith(" lines not run")}
    assert sorted(headers) == sorted(name for name in os.listdir(MODULES)
                                     if name.endswith(".py"))
    # test_terms.py runs no strategy, so most of the evaluator is reported,
    # its line numbers on the line after the header.
    i = headers["evaluate.py"]
    not_run = int(lines[i].split()[1])
    reported = [int(n) for n in lines[i + 1].split(",")]
    assert not_run == len(reported) > 0


IMPORT_COST = os.path.join(os.path.dirname(__file__), "..", "scripts",
                           "import_cost.py")


def test_import_cost_reports_each_module():
    proc = subprocess.run([sys.executable, IMPORT_COST, "-n", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *rows, total = [line.split() for line in proc.stdout.splitlines()]
    # A run loads every module but elaborate, which no request imports.
    names = {"stratcalc." + name[:-3] for name in os.listdir(MODULES)
             if name.endswith(".py")
             and name not in ("__init__.py", "elaborate.py")}
    assert sorted(name for name, _, _ in rows) == sorted(names | {"stratcalc"})
    for name, own, cumulative in rows:
        assert 0 <= float(own) <= float(cumulative)
    assert total[0] == "total"
    assert float(total[1]) == max(float(c) for _, _, c in rows)


def test_import_cost_reports_a_check_request():
    proc = subprocess.run([sys.executable, IMPORT_COST, "-n", "1", "check"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *rows, total = [line.split() for line in proc.stdout.splitlines()]
    names = {name for name, _, _ in rows}
    assert {"stratcalc", "stratcalc.cli", "stratcalc.typecheck"} <= names
    assert "stratcalc.evaluate" not in names
    assert total == ["total", max((c for _, _, c in rows), key=float)]


STACK_OFFSET = os.path.join(os.path.dirname(__file__), "..", "scripts",
                            "stack_offset.py")


def test_stack_offset_reports_each_request():
    argv = [sys.executable, STACK_OFFSET, "--seed", "101", "--limit", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert len(rows) == 2
    for cls, fastest, slowest, faults in rows:
        assert cls.split("/")[0] in ("ProblemI", "ProblemIII", "ProblemIV",
                                     "ProblemV", "Inc", "Dec"), cls
        assert 0 < float(fastest) <= float(slowest)
        assert int(faults) >= 0


PHASE_SPLIT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                           "phase_split.py")


def test_phase_split_reports_each_phase():
    # With --repeat, the rows are those of one pass, so they still sum to
    # its request time.
    for repeat in ([], ["--repeat", "3"]):
        argv = [sys.executable, PHASE_SPLIT, "--seed", "101", "--limit",
                "3"] + repeat
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert [name for name, _, _ in rows] == [
            "parse_program", "check_and_elaborate", "parse_term",
            "compile", "run_program", "render_term", "other", "request"]
        ms = {name: float(value) for name, value, _ in rows}
        assert all(ms[name] > 0 for name in ms if name != "other")
        assert sum(ms.values()) - ms["request"] == pytest.approx(
            ms["request"], abs=0.05)
        assert rows[-1][2] == "100.0"
