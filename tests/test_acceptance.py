"""Acceptance gate: one test per shipping criterion; each prints a
single PASS/FAIL line."""

import os
import time

import pytest

import stratcalc as sc
from stratcalc import syntax as S
from stratcalc.terms import (
    Arrow,
    FAILURE,
    FunApp,
    Ok,
    Sort,
    TP_TYPE,
    tag_term,
    types_equal,
)
from stratcalc.typecheck import apply_type

from conftest import load_program, num, run_call
from randgen import Gen
from test_typecheck import ILL_TYPED, reject

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name)) as f:
        return f.read().strip()


def report(number, label, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", number, label))
    assert ok, "criterion %d (%s) failed" % (number, label)


TREE7 = "fork(leaf(zero),leaf(succ(zero)))"
GGA = "g(g(a))"

PROBLEM_CASES = [
    ("ProblemI", TREE7, "problem1.out"),
    ("ProblemII", GGA, "problem2.out"),
    ("ProblemIII", TREE7, "problem3.out"),
    ("ProblemIV", TREE7, "problem4.out"),
    ("ProblemV", GGA, "problem5.out"),
]


def test_criterion_1_traversal_problems(problems, problems_elaborated):
    ctx = problems.context
    want_types = {"ProblemI": TP_TYPE, "ProblemII": TP_TYPE,
                  "ProblemIII": sc.TU(Sort("Boolean")),
                  "ProblemIV": sc.TU(Sort("NatList")),
                  "ProblemV": sc.TU(Sort("Nat"))}
    start = time.monotonic()
    ok = True
    for name, term_src, gold in PROBLEM_CASES:
        pi = sc.type_and_core(ctx, S.Call(name, (), ()))[0]
        ok &= types_equal(pi, want_types[name])
        term = sc.parse_term(term_src, ctx)
        out = run_call(problems_elaborated, name, term)
        ok &= isinstance(out, Ok) and sc.render_term(out.term) == golden(gold)
    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(1, "traversal problems I-V match golden outputs in %.2fs" % elapsed,
           ok)


def _corpus(ctx, n=1000):
    g = Gen(20240817)
    out = []
    for _ in range(n):
        pi, s = g.strategy()
        tau = g.applicable_type(pi)
        t = tag_term(ctx, g.term(tau))
        out.append((pi, s, tau, t))
    return out


@pytest.fixture(scope="module")
def corpus(nat_tree_ctx):
    return _corpus(nat_tree_ctx)


def test_criterion_2_subject_reduction(nat_tree_ctx, corpus):
    start = time.monotonic()
    violations = 0
    for pi, s, tau, t in corpus:
        out = sc.apply_strategy(nat_tree_ctx, {}, s, t, sc.EvalConfig())
        if isinstance(out, sc.EngineFailure):
            violations += 1
        elif isinstance(out, Ok):
            predicted = apply_type(nat_tree_ctx, pi, tau)
            if tag_term(nat_tree_ctx, out.term).tag != predicted:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 10.0
    report(2, "subject reduction on 1000 random strategies "
              "(%d violations, %.2fs)" % (violations, elapsed), ok)


def test_criterion_3_unicity_of_typing(nat_tree_ctx, corpus):
    violations = 0
    for pi, s, tau, t in corpus:
        if not types_equal(sc.type_and_core(nat_tree_ctx, s)[0], pi):
            violations += 1
        if not types_equal(sc.type_and_core(nat_tree_ctx, s)[0], pi):
            violations += 1
        first = apply_type(nat_tree_ctx, pi, tau)
        if apply_type(nat_tree_ctx, pi, tau) != first:
            violations += 1
    report(3, "typing and application types are unique and repeatable "
              "(%d violations)" % violations, violations == 0)


def _brute_force_normalize(t):
    """Exhaustively rewrite add-redexes anywhere until fixpoint."""
    def step(u):
        if isinstance(u, FunApp):
            new_args = tuple(step(a) for a in u.args)
            u = FunApp(u.name, new_args)
            if u.name == "add":
                left, right = u.args
                if right == FunApp("zero", ()):
                    return left
                if isinstance(right, FunApp) and right.name == "succ":
                    return FunApp("succ", (FunApp("add",
                                                  (left, right.args[0])),))
        return u

    while True:
        nxt = step(t)
        if nxt == t:
            return t
        t = nxt


def test_criterion_4_innermost_vs_oracle(addition):
    elaborated = sc.check_and_elaborate(addition)[2]
    ctx = elaborated.context
    mismatches = 0
    for a in range(6):
        for b in range(6):
            t = FunApp("add", (num(a), num(b)))
            got = sc.run_program(elaborated, tag_term(ctx, t), sc.EvalConfig())
            want = _brute_force_normalize(t)
            if got != Ok(want) or want != num(a + b):
                mismatches += 1
    report(4, "innermost addition equals brute-force normalization on 36 "
              "pairs (%d mismatches)" % mismatches, mismatches == 0)


def test_criterion_5_negative_typing_suite():
    assert len(ILL_TYPED) >= 10
    bad = []
    for src, tag, rendered in ILL_TYPED:
        got = reject(src)
        if got != rendered:
            bad.append((tag, got))
    report(5, "%d ill-typed programs rejected with expected diagnostics "
              "(%d wrong)" % (len(ILL_TYPED), len(bad)), not bad)


def test_criterion_6_elaboration_coherence(problems, overload, addition):
    ok = True
    cases = []
    for name, term_src, _ in PROBLEM_CASES:
        cases.append((problems, name, term_src))
    cases += [(overload, "Inc", "positive(zero)"),
              (overload, "Dec", "negative(i)"),
              (addition, None, "add(succ(zero),succ(succ(zero)))")]
    for program, name, term_src in cases:
        elaborated = sc.check_and_elaborate(program)[2]
        term = sc.parse_term(term_src, program.context)
        if name is None:
            # run_program takes a core program; raw input goes through
            # apply_strategy, which checks and elaborates it itself.
            raw = sc.apply_strategy(program.context, program.definitions,
                                    program.main, term, sc.EvalConfig())
            cooked = sc.run_program(elaborated, term, sc.EvalConfig())
        else:
            raw = run_call(program, name, term)
            cooked = run_call(elaborated, name, term)
        ok &= raw == cooked
        twice = sc.check_and_elaborate(elaborated)[2]
        ok &= twice.main == elaborated.main
        ok &= all(twice.definitions[n].body == elaborated.definitions[n].body
                  for n in elaborated.definitions)
    report(6, "raw and elaborated programs agree on all reducts; "
              "elaboration is idempotent", ok)


def test_criterion_7_algebraic_identities(nat_tree_ctx):
    g = Gen(7)
    violations = 0
    for _ in range(500):
        s = g.tp(3)
        tau = g.applicable_type(TP_TYPE)
        t = tag_term(nat_tree_ctx, g.term(tau))

        def run(x):
            return sc.apply_strategy(nat_tree_ctx, {}, x, t, sc.EvalConfig())

        base = run(s)
        checks = [
            run(S.Choice(S.Fail(), s)) == base,
            run(S.Choice(s, S.Fail())) == base,
            run(S.LChoice(s, S.Fail())) == base,
            run(S.LChoice(S.Fail(), s)) == base,
            run(S.Seq(S.Id(), s)) == base,
            run(S.Seq(s, S.Id())) == base,
            run(S.All(S.Id())) == Ok(t),
            run(S.One(S.Fail())) == FAILURE,
        ]
        violations += checks.count(False)
    report(7, "unit/traversal identities hold on 500 random terms "
              "(%d violations)" % violations, violations == 0)


def _encode_int(k):
    def nat1(n):
        t = FunApp("i", ())
        for _ in range(n - 1):
            t = FunApp("succ", (t,))
        return t

    if k > 0:
        return FunApp("positive", (FunApp("notzero", (nat1(k),)),))
    if k == 0:
        return FunApp("positive", (FunApp("zero", ()),))
    return FunApp("negative", (nat1(-k),))


def test_criterion_8_overloading_dispatch(overload):
    elaborated = sc.check_and_elaborate(overload)[2]
    ctx = elaborated.context
    state = sc.EvalState()
    mismatches = 0
    cases = [("Inc", k, k + 1) for k in range(-5, 5)] + \
            [("Dec", k, k - 1) for k in range(-4, 6)]
    assert len(cases) == 20
    for name, k, want in cases:
        t = tag_term(ctx, _encode_int(k))
        got = run_call(elaborated, name, t, trace=True, state=state)
        if got != Ok(_encode_int(want)):
            mismatches += 1
    dispatch_ok = (state.amp_dispatches > 0
                   and state.amp_branch_evals == state.amp_dispatches)
    report(8, "Inc/Dec correct on 20 integer cases (%d mismatches); "
              "%d overloaded dispatches each tried exactly one branch"
              % (mismatches, state.amp_dispatches),
           mismatches == 0 and dispatch_ok)
