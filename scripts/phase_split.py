#!/usr/bin/env python3
"""Split the time of a benchmark pass between the phases of a request.

This script calls `stratcalc.cli.main` in this process once for each
request of one seeded pass of a benchmark workload, as bench/inputs.py
builds it. It wraps with timers, in this process only, the names that
`stratcalc.cli` imports for two phases (`parse_program` and
`render_term`), two names in `stratcalc.typecheck` (`check_and_elaborate`,
the pass that `CheckedProgram` runs, and `parse_term`, with which
`CheckedProgram.run` reads a `--term`), and three methods of
`stratcalc.evaluate`: `_Scope.compile` and `_Scope.entry`, which compiles
a callee's entry, both timed as `compile`, and `_Run.run`, the runner that
`run_program` and `CheckedProgram.run` share, timed as `run_program`
less the compiling done inside it. It prints one line per phase and two
more:

    <phase> <ms> <share of request time, %>
    other <ms> <share>
    request <ms> 100.0

where ms is the phase's total over the pass, `other` is what no wrapped
phase took (argument parsing, reading files, the type of the reduct) and
`request` is the wall time of all the `cli.main` calls. With
`--repeat N` the pass runs N times and the rows are those of the pass
whose `request` time is the median (the lower middle one for even N), so
they still sum to its `request`. Each pass starts with the CLI's cache of
checked programs emptied, so every pass parses and checks each program
file once, on its first request, and reuses it on the rest. That cache is
the only one of checking, so each of those checks also walks every body
of the prelude, once per program file. Each entry keeps what its runs
compile, so `compile` counts each node once per program and trace flag
per pass, on the run that first reaches it.

Usage: python3 scripts/phase_split.py [--workload W] [--seed N] [--limit N]
                                      [--repeat N]
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"),
                os.path.join(HERE, "..", "bench")]

import inputs  # noqa: E402  (the benchmark's request builder)
from stratcalc import cli, evaluate, typecheck  # noqa: E402

PHASES = ("parse_program", "check_and_elaborate", "parse_term", "compile",
          "run_program", "render_term")


def timed(f, totals, name, stack):
    """f, adding the seconds each call takes to totals[name], less the
    time of the timed calls it makes, which count under their own names.
    `stack` holds [name, inner seconds] of each timed call in progress; a
    call made straight from one of the same name, as compile makes, is
    left in that one's time."""
    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == name:
            return f(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            stack.pop()
            totals[name] += spent - frame[1]
            if stack:
                stack[-1][1] += spent
    return wrapper


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="traverse",
                    choices=("traverse", "normalize", "oneshot"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--limit", type=int,
                    help="only the first N requests of the pass")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the pass N times and report the median one")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("argument --repeat: expected N >= 1, got %d" % args.repeat)
    totals, stack = dict.fromkeys(PHASES + ("request",), 0.0), []
    for module, name in ((cli, "parse_program"),
                         (typecheck, "check_and_elaborate"),
                         (typecheck, "parse_term"), (cli, "render_term")):
        setattr(module, name, timed(getattr(module, name), totals, name,
                                    stack))
    for method in ("compile", "entry"):
        setattr(evaluate._Scope, method, timed(
            getattr(evaluate._Scope, method), totals, "compile", stack))
    evaluate._Run.run = timed(evaluate._Run.run, totals, "run_program",
                              stack)
    passes = []
    with tempfile.TemporaryDirectory() as root:
        requests, _ = inputs.build(args.workload, args.seed, root, 1)
        for _ in range(args.repeat):
            for name in totals:
                totals[name] = 0.0
            cli._checked.cache_clear()
            for req in requests[:args.limit]:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    start = time.perf_counter()
                    cli.main(list(req.argv))
                    totals["request"] += time.perf_counter() - start
            passes.append(dict(totals))
    passes.sort(key=lambda p: p["request"])
    totals = passes[(len(passes) - 1) // 2]
    request = totals["request"]
    totals["other"] = request - sum(totals[name] for name in PHASES)
    for name in PHASES + ("other", "request"):
        print("%s %.2f %.1f" % (name, totals[name] * 1000,
                                100 * totals[name] / request))
    return 0


if __name__ == "__main__":
    sys.exit(main())
