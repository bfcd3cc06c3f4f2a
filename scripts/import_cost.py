#!/usr/bin/env python3
"""Print what each stratcalc module that a request imports costs.

Runs one request, `run` (the default) or `check` on
programs/problems.strat, through `stratcalc.cli.main` under
`python -X importtime`, N times, each in a new interpreter, and prints
one line per stratcalc module the request imports, in the order the
imports finish:

    <module> <self ms> <cumulative ms>

each the median over the N runs, then one line `total <ms>` for the
cumulative time of `import stratcalc.cli`, which loads the package. A
module that the request imports later has a row of its own and is not in
the total, as `run` imports `stratcalc.evaluate` when it first runs a
program. The runs import a copy of src/stratcalc without `__pycache__`,
with PYTHONDONTWRITEBYTECODE=1, so every module is compiled from source
each time, as in a fresh checkout whose processes write no bytecode.

Usage: python3 scripts/import_cost.py [-n N] [run|check]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "stratcalc")
TARGET = "stratcalc.cli"
PROGRAM = os.path.join(ROOT, "programs", "problems.strat")
REQUESTS = {"run": ["run", PROGRAM, "--term", "leaf(zero)"],
            "check": ["check", PROGRAM]}
CODE = "import sys, %s as cli; sys.exit(cli.main(sys.argv[1:]))" % TARGET


def one_run(path, request):
    """{module: (self us, cumulative us)} of one fresh interpreter that
    serves the request, for the stratcalc modules, in the order their
    imports finished."""
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CODE] + REQUESTS[request],
        capture_output=True, text=True, env=env, check=True)
    times = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2].strip()
            if name.split(".")[0] == "stratcalc":
                times[name] = int(fields[0]), int(fields[1])
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("-n", type=int, default=5,
                    help="fresh interpreters to run (default 5)")
    ap.add_argument("request", nargs="?", default="run", choices=REQUESTS,
                    help="the request each interpreter serves (default run)")
    args = ap.parse_args()
    if args.n < 1:
        ap.error("-n must be at least 1")
    samples = defaultdict(list)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(PACKAGE, os.path.join(tmp, "stratcalc"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        for _ in range(args.n):
            for name, pair in one_run(tmp, args.request).items():
                samples[name].append(pair)
    for name, pairs in samples.items():
        print("%-20s %7.1f %7.1f" % (
            name, statistics.median(s for s, _ in pairs) / 1000,
            statistics.median(c for _, c in pairs) / 1000))
    print("total %.1f" % (statistics.median(
        c for _, c in samples[TARGET]) / 1000))


if __name__ == "__main__":
    main()
