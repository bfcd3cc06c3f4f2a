"""The package resolves each public name, and each submodule, from one
table on first use, so a caller loads only the layers it touches."""

import json
import os
import subprocess
import sys

import pytest

import stratcalc

from conftest import program_path

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# Prints, after each step, the stratcalc submodules loaded so far.
PROBE = """
import json, sys
loaded = []
def step():
    loaded.append(sorted(name.split(".", 1)[1] for name in sys.modules
                         if name.startswith("stratcalc.")))
import stratcalc
step()
stratcalc.load_prelude()
step()
from stratcalc import cli
code = cli.main(["check", sys.argv[1]])
step()
print(json.dumps([code] + loaded))
"""


def test_a_fresh_process_loads_only_the_layers_it_touches():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, program_path("problems.strat")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    code, bare, prelude, check = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert bare == []
    assert prelude == ["errors", "parser", "prelude", "syntax", "terms"]
    assert "evaluate" not in check and "elaborate" not in check


def test_each_name_and_submodule_resolves_and_is_kept():
    for home, names in stratcalc._MODULES.items():
        module = getattr(stratcalc, home)
        assert module is sys.modules["stratcalc." + home]
        for name in names:
            assert getattr(stratcalc, name) is getattr(module, name)
            assert vars(stratcalc)[name] is getattr(module, name)


def test_dir_and_all_list_the_table():
    assert stratcalc.__all__ == sorted(stratcalc._HOME)
    assert set(stratcalc._HOME) | set(stratcalc._MODULES) \
        <= set(dir(stratcalc))


@pytest.mark.parametrize("name,home", [
    ("check_program", "typecheck"), ("elaborate_program", "elaborate"),
    ("type_of_term", "terms"), ("render_stype", "printer"), ("nosuch", None)])
def test_benchmark_only_names_stay_in_their_modules(name, home):
    with pytest.raises(AttributeError, match=name):
        getattr(stratcalc, name)
    if home is not None:
        assert callable(getattr(getattr(stratcalc, home), name))
