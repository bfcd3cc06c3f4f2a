"""The traced pass: spans around each layer's public functions, and the
evaluation counters, read from outside the engine.

`pipeline` makes the calls `stratcalc.cli.main` makes, in its order, and
records one span per call. `count_request` runs a request once more,
untimed, with tracing on and a `CountingSink` in place of
`EvalState.trace_lines`, so memory stays bounded however many lines the
evaluator emits.
"""

import dataclasses
import os
import time
from collections import Counter

from stratcalc import syntax as S
from stratcalc.errors import InapplicableType, ParseError, StaticError
from stratcalc.evaluate import EngineFailure, EvalConfig, EvalState, run_program
from stratcalc.elaborate import elaborate_program
from stratcalc.parser import parse_program, parse_term, tokenize
from stratcalc.prelude import load_prelude
from stratcalc.printer import render_program, render_stype, render_term
from stratcalc.terms import Failure, Ok, tag_term, type_of_term
from stratcalc.typecheck import apply_type, check_program

# The evaluator's trace tags, in the order the metrics list them.
TAGS = ("comb", "rule", "seq", "choice", "neg", "cong", "all", "one", "red",
        "sel", "spawn", "extend", "annot", "amp")


class Tracer:
    """Spans `(name, start, end, request id)` kept in memory."""

    def __init__(self):
        self.spans = []

    def call(self, name, rid, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.perf_counter(), rid))


def split_argv(argv):
    """(command, program path, --term value or None) of a CLI request."""
    term = argv[argv.index("--term") + 1] if "--term" in argv else None
    return argv[0], argv[1], term


def _read_term(text):
    # As in the CLI: --term names a file when one exists at that path.
    if os.path.exists(text):
        with open(text) as f:
            return f.read().strip()
    return text


def pipeline(tr, rid, argv):
    """Run one request through the layers; returns (exit code, stdout)."""
    cmd, path, term_arg = split_argv(argv)
    prelude = tr.call("prelude.load", rid, load_prelude)
    with open(path) as f:
        text = f.read()
    try:
        program = tr.call("parser.program", rid, parse_program, text,
                          prelude=prelude)
    except ParseError:
        return 4, ""
    except StaticError:
        return 2, ""
    diags, main_type = tr.call("typecheck.check", rid, check_program, program)
    if diags:
        return 2, ""
    if cmd == "check":
        return 0, render_stype(main_type) + "\n"
    if cmd == "elaborate":
        elaborated = tr.call("elaborate", rid, elaborate_program, program)
        return 0, tr.call("printer.render", rid, render_program, elaborated,
                          skip_defs=set(prelude.definitions))
    ctx = program.context
    try:
        term = tr.call("parser.term", rid, parse_term, _read_term(term_arg), ctx)
    except ParseError:
        return 4, ""
    except StaticError:
        return 2, ""
    try:
        tr.call("typecheck.apply_type", rid,
                lambda: apply_type(ctx, main_type, type_of_term(ctx, term)))
    except InapplicableType:
        return 2, ""
    elaborated = tr.call("elaborate", rid, elaborate_program, program)
    outcome = tr.call("evaluate", rid, run_program, elaborated, term,
                      EvalConfig(), EvalState())
    if isinstance(outcome, Ok):
        out = tr.call("printer.render", rid, render_term, outcome.term)
        # apply_strategy re-tags its reduct; this span estimates that cost.
        tr.call("terms.retag", rid, tag_term, ctx, outcome.term)
        return 0, out + "\n"
    if isinstance(outcome, EngineFailure):
        return (3 if outcome.kind == "FuelExhausted" else 5), ""
    return 1, "FAIL\n"


class CountingSink:
    """Takes the place of `EvalState.trace_lines`. Each line reads
    `<indent><tag> <head> @ <term head> => ok|fail`; the sink counts it
    and keeps nothing."""

    def __init__(self):
        self.nodes = Counter()
        self.rule_hits = 0
        self.max_depth = 0

    def append(self, line):
        body = line.lstrip(" ")
        tag = body[:body.index(" ")]
        self.nodes[tag] += 1
        if tag == "rule" and line.endswith("ok"):
            self.rule_hits += 1
        depth = (len(line) - len(body)) // 2 + 1
        if depth > self.max_depth:
            self.max_depth = depth


def core_nodes(program):
    """Strategy nodes in a program's definitions and main."""
    def walk(x):
        if isinstance(x, tuple):
            return sum(walk(y) for y in x)
        if not isinstance(x, (S.StrategyExpr, S.RuleBody)):
            return 0
        own = 1 if isinstance(x, S.StrategyExpr) else 0
        return own + sum(walk(getattr(x, f.name))
                         for f in dataclasses.fields(x))

    return (sum(walk(d.body) for d in program.definitions.values())
            + walk(program.main))


def count_request(argv):
    """Deterministic counters for one request. Evaluation runs with the
    default fuel of `EvalConfig`, which is the CLI's default."""
    cmd, path, term_arg = split_argv(argv)
    with open(path) as f:
        text = f.read()
    counts = Counter(tokens=len(tokenize(text)) - 1)  # minus end of input
    program = parse_program(text, prelude=load_prelude())
    diags, _ = check_program(program)
    if diags:
        counts["rejected"] += 1
        return counts
    elaborated = elaborate_program(program)
    counts["core_nodes"] = core_nodes(elaborated)
    if cmd != "run":
        return counts
    term = parse_term(_read_term(term_arg), program.context)
    sink = CountingSink()
    cfg = EvalConfig(trace=True)
    state = EvalState(trace_lines=sink)
    try:
        outcome = run_program(elaborated, term, cfg, state)
    except RecursionError:
        counts["crash"] += 1
        return counts
    counts["fail"] += isinstance(outcome, Failure)
    counts["engine_fail"] += isinstance(outcome, EngineFailure)
    for tag, n in sink.nodes.items():
        counts["nodes." + tag] += n
    counts["nodes"] = sum(sink.nodes.values())
    counts["rule_hits"] = sink.rule_hits
    counts["max_depth"] = sink.max_depth
    counts["fuel_used"] = cfg.fuel - state.fuel
    counts["amp_dispatches"] = state.amp_dispatches
    counts["amp_branch_evals"] = state.amp_branch_evals
    return counts
