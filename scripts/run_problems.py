#!/usr/bin/env python3
"""Run the five traversal demo problems and the overloaded Inc/Dec demo,
printing each input, inferred type, and reduct.

Usage: python3 scripts/run_problems.py [--trace]
"""

import argparse
import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import stratcalc as sc
from stratcalc import syntax as S

PROGRAMS = os.path.join(os.path.dirname(__file__), "..", "programs")

PROBLEM_CASES = [
    ("ProblemI", "fork(leaf(zero),leaf(succ(zero)))"),
    ("ProblemII", "g(g(a))"),
    ("ProblemIII", "fork(leaf(zero),leaf(succ(zero)))"),
    ("ProblemIV", "fork(leaf(zero),leaf(succ(zero)))"),
    ("ProblemV", "g(g(a))"),
]

OVERLOAD_CASES = [
    ("Inc", "positive(zero)"),
    ("Inc", "negative(i)"),
    ("Inc", "positive(notzero(succ(i)))"),
    ("Dec", "positive(zero)"),
    ("Dec", "negative(succ(i))"),
]


def load(name):
    with open(os.path.join(PROGRAMS, name)) as f:
        return sc.parse_program(f.read(), prelude=sc.load_prelude())


def check(program):
    checked = sc.CheckedProgram(program)
    if checked.diagnostics:
        for d in checked.diagnostics:
            print(d.render(), file=sys.stderr)
        sys.exit(2)
    return checked


def run(program, name, term_src, trace):
    # The definition runs as the main strategy of its program, so its type
    # is main's and its reduct's type is checked against that.
    checked = check(program.replace(main=S.Call(name, (), ())))
    term = sc.parse_term(term_src, program.context)
    # Trace lines go to stderr as they are emitted, as in the CLI.
    state = sc.EvalState(trace_lines=SimpleNamespace(
        append=lambda line: print("   |", line, file=sys.stderr)))
    out = checked.run(term, sc.EvalConfig(trace=trace), state)
    shown = (sc.render_term(out.term) if isinstance(out, sc.Ok)
             else repr(out))
    print("%-11s : %-14s  %s  =>  %s"
          % (name, repr(checked.type), term_src, shown))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", action="store_true",
                    help="print the evaluation trace to stderr")
    args = ap.parse_args()

    print("== traversal problems (programs/problems.strat) ==")
    problems = load("problems.strat")
    for name, term_src in PROBLEM_CASES:
        run(problems, name, term_src, args.trace)

    print()
    print("== overloaded increment/decrement (programs/overload.strat) ==")
    overload = load("overload.strat")
    for name, term_src in OVERLOAD_CASES:
        run(overload, name, term_src, args.trace)

    print()
    print("== innermost addition (programs/addition.strat) ==")
    addition = load("addition.strat")
    term_src = "add(succ(succ(zero)),succ(succ(succ(zero))))"
    term = sc.parse_term(term_src, addition.context)
    out = check(addition).run(term, sc.EvalConfig())
    print("%s  =>  %s" % (term_src, sc.render_term(out.term)))


if __name__ == "__main__":
    main()
