"""Command-line driver: exit codes, stdout/stderr discipline, trace."""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import stratcalc as sc
from stratcalc import cli, syntax as S
from stratcalc.cli import main as cli_main
from stratcalc.parser import RESERVED

from conftest import NAT_TREE_HEADER, bench_inputs, golden_path, program_path
from randgen import edited


@pytest.fixture
def capcli(capsys, tmp_path):
    def run(*argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


@pytest.fixture
def write(tmp_path):
    def w(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return w


def test_check_problems_ok(capcli):
    code, out, err = capcli("check", program_path("problems.strat"))
    assert code == 0
    assert out.strip() == "TP"
    assert err == ""


def test_check_type_error_exit_2(capcli, write):
    f = write("bad.strat", "sort Nat; con zero : Nat; var N : Nat;\n"
              "main = all(zero -> zero);")
    code, out, err = capcli("check", f)
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR ")
    assert " at " in err.splitlines()[0]


def test_check_parse_error_exit_4(capcli, write):
    f = write("broken.strat", "main = ;")
    code, out, err = capcli("check", f)
    assert code == 4
    assert out == ""
    assert "parse error" in err


# Files named on the command line that cannot be read or decoded; `d` is
# a scratch directory.
UNREADABLE = {
    "missing program": lambda d: ("check", str(d / "missing.strat")),
    "term is a directory": lambda d: (
        "run", program_path("problems.strat"), "--term", str(d)),
    "missing prelude": lambda d: (
        "check", program_path("problems.strat"), "--prelude", str(d / "nope")),
    "program not utf-8": lambda d: ("check", str(d / "latin1.strat")),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_exit_4(capcli, tmp_path, case):
    (tmp_path / "latin1.strat").write_bytes("main = id; # caf\xe9\n"
                                            .encode("latin-1"))
    code, out, err = capcli(*UNREADABLE[case](tmp_path))
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("parse error: cannot read ")


def test_run_contains_check_prints_true(capcli, write):
    with open(program_path("problems.strat")) as g:
        src = g.read()
    f = write("p3.strat", src.replace("main = ProblemI;",
                                      "main = ProblemIII;"))
    code, out, err = capcli("run", f, "--term", "leaf(zero)")
    assert code == 0
    assert out.strip() == "true"


def test_run_outputs_reduct(capcli):
    code, out, err = capcli(
        "run", program_path("problems.strat"),
        "--term", "fork(leaf(zero),leaf(succ(zero)))")
    assert code == 0
    assert out.strip() == "fork(leaf(succ(zero)),leaf(succ(succ(zero))))"
    assert err == ""


def test_run_failure_prints_fail_exit_1(capcli, write):
    f = write("f.strat", "sort Nat; con zero : Nat;\nmain = fail;")
    code, out, err = capcli("run", f, "--term", "zero")
    assert code == 1
    assert out.strip() == "FAIL"


def test_run_fuel_exhaustion_exit_3(capcli, write):
    f = write("loop.strat", "sort Nat; con zero : Nat;\n"
              "main = Repeat(id);")
    code, out, err = capcli("run", f, "--term", "zero", "--fuel", "100")
    assert code == 3
    assert out == ""
    assert "FuelExhausted" in err


@pytest.mark.parametrize("fuel", ["-1", "abc", "\u00b2"])
def test_run_fuel_must_be_a_count(capsys, write, fuel):
    # Like a malformed number, a negative one is a command-line error. A
    # superscript two is a digit to str.isdigit but not to int.
    f = write("td.strat", "sort Nat; con zero : Nat; fun succ : Nat -> Nat;\n"
              "main = TD(id);")
    with pytest.raises(SystemExit) as e:
        cli_main(["run", f, "--term", "succ(zero)", "--fuel", fuel])
    assert e.value.code == 2
    assert "argument --fuel: " in capsys.readouterr().err


def test_run_inapplicable_term_exit_2(capcli, write):
    f = write("inc.strat", "sort Nat; sort Tree; con zero : Nat;\n"
              "fun succ : Nat -> Nat; fun leaf : Nat -> Tree;\n"
              "var N : Nat;\nmain = N -> succ(N);")
    code, out, err = capcli("run", f, "--term", "leaf(zero)")
    assert code == 2
    assert "apply" in err


def test_run_non_ground_term_exit_2(capcli):
    code, out, err = capcli("run", program_path("problems.strat"),
                            "--term", "leaf(N)")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("ERROR ") and "N is a variable" in lines[0]


def test_run_term_from_file(capcli, write):
    t = write("t.term", "fork(leaf(zero),leaf(zero))\n")
    code, out, err = capcli("run", program_path("problems.strat"),
                            "--term", t)
    assert code == 0
    assert out.strip() == "fork(leaf(succ(zero)),leaf(succ(zero)))"


def test_run_term_after_a_comment_line(capcli, write):
    # The term reader matches the whole text at once: its gap must cross
    # the newline, or it would backtrack into the comment and read g(a).
    f = write("g.strat", "sort A; con a : A; fun g : A -> A; main = id;")
    t = write("g.term", "g(#xa\n)")
    assert capcli("run", f, "--term", t) == (
        4, "", "parse error at 2:1: expected a term, got ')'\n")


def test_run_trace_goes_to_stderr(capcli, write):
    f = write("inc.strat", "sort Nat; con zero : Nat;\n"
              "fun succ : Nat -> Nat; var N : Nat;\nmain = N -> succ(N);")
    code, out, err = capcli("run", f, "--term", "zero", "--trace")
    assert code == 0
    assert out.strip() == "succ(zero)"
    assert any(line.lstrip().startswith("rule ") for line in err.splitlines())
    assert "=> ok" in err


def test_no_prelude_hides_combinators(capcli, write):
    f = write("p.strat", "main = Try(id);")
    code, out, err = capcli("check", f, "--no-prelude")
    assert code in (2, 4)  # Try unknown without the prelude


def test_custom_prelude_file(capcli, write):
    pre = write("mini.strat", "def Twice(v) : TP -> TP = v ; v;")
    f = write("p.strat", "sort Nat; con zero : Nat; fun succ : Nat -> Nat;\n"
              "var N : Nat;\nmain = Twice(extend(N -> succ(N), TP));")
    code, out, err = capcli("run", f, "--prelude", pre, "--term", "zero")
    assert code == 0
    assert out.strip() == "succ(succ(zero))"


# Programs whose prelude definitions check differently in the program's
# context than in the prelude's alone, or check in neither: (program,
# prelude file or None, command, want (code, out, err)). Each reply is the
# one that checking every definition in the program's context gives, as
# the checker does.
PRELUDE_SIG = ("sort Nat; con zero : Nat; fun succ : Nat -> Nat; "
               "var N : Nat;\n")
PRELUDE_REUSE = {
    # Redeclares a prelude name, so the prelude bodies that call Try are
    # checked, and rejected, in the program's context.
    "fun Try": (PRELUDE_SIG + "fun Try : Nat -> Nat;\nmain = Try(id);", None,
                ["check"], (2, "", (
                    "ERROR ctx at 2:1: duplicate declaration of Try\n"
                    "ERROR def.3 at 4:1: body of Repeat has type Nat -> Nat, "
                    "declared TP\n"
                    "ERROR all at 14:26: all needs a type-preserving argument, "
                    "has Nat -> Nat\n"))),
    "def Try": (PRELUDE_SIG + "def Try(v) : TP -> TP = v;\nmain = Try(id);",
                None, ["check"],
                (2, "", "ERROR def at 2:1: duplicate definition of Try\n")),
    # IncAll names Inc, which only the program declares.
    "IncAll": (PRELUDE_SIG + "def Inc : Nat -> Nat = N -> succ(N);\n"
               "main = IncAll;", "def IncAll : TP = all(extend(Inc, TP));\n",
               ["run", "--term", "succ(zero)"], (0, "succ(succ(zero))\n", "")),
    "ill-typed prelude": (
        "main = Bad(id);", "def Try(v) : TP -> TP = v <+ id;\n"
        "def Bad(v) : TP -> TP = select(v);\n", ["check"],
        (2, "", "ERROR sel at 2:25: select needs a type-unifying argument, "
                "has TP\n")),
}


@pytest.mark.parametrize("case", sorted(PRELUDE_REUSE))
def test_prelude_reuse_keeps_every_reply(capcli, write, case):
    text, prelude, (command, *rest), want = PRELUDE_REUSE[case]
    argv = [command, write("p.strat", text)] + rest
    if prelude is not None:
        argv += ["--prelude", write("pre.strat", prelude)]
    # Twice, so that the CLI's cache of checked programs answers the second.
    assert capcli(*argv) == want
    assert capcli(*argv) == want


def test_elaborate_shows_annot_and_round_trips(capcli, tmp_path):
    shown = {
        "problems.strat": ["extend((Inc : Nat -> Nat), TP)",
                           "extend((g(P) -> gp(P) : A -> A), TP)"],
        "overload.strat": ["(NO -> succ(NO) : NatOne -> NatOne) & "],
        "addition.strat": ["extend((AddStep : Nat -> Nat), TP)"],
    }
    for name, snippets in shown.items():
        code, want, _ = capcli("check", program_path(name))
        assert code == 0
        code, out, err = capcli("elaborate", program_path(name))
        assert code == 0
        for snippet in snippets:
            assert snippet in out
        again = tmp_path / ("elab-" + name)
        again.write_text(out)
        code2, out2, err2 = capcli("check", str(again))
        assert code2 == 0 and out2 == want


def test_elaborate_with_a_prelude_file_rechecks_against_it(capcli, write):
    # The output leaves out the prelude's declarations as well as its
    # definitions, so it checks against the prelude it was made with.
    pre = write("pre.strat", "sort Nat;\ncon zero : Nat;\n"
                "fun succ : Nat -> Nat;\ndef Try(v) : TP -> TP = v <+ id;")
    p = write("p.strat", "var N : Nat;\nmain = Try(extend(N -> succ(N), TP));")
    code, out, err = capcli("elaborate", p, "--prelude", pre)
    assert (code, err) == (0, "")
    assert out == ("var N : Nat;\n"
                   "main = Try(extend((N -> succ(N) : Nat -> Nat), TP));\n")
    e = write("e.strat", out)
    assert capcli("check", e, "--prelude", pre) == (0, "TP\n", "")
    assert capcli("check", p, "--prelude", pre) == (0, "TP\n", "")


def test_elaborate_prints_a_parametrised_definition(capcli, write):
    # A definition's type parameters, parameters, parameter references and
    # argument types, each as it reads back.
    f = write("params.strat", PRELUDE_SIG +
              "def F[a](v, w, u) : TU(a) * (a -> a) * (() -> a) -> TU(a) =\n"
              "    (v ; w) <+ (void ; u);\n"
              "main = F[Nat](extend(N -> N, TU(Nat)), N -> succ(N), "
              "() -> zero);\n")
    code, out, err = capcli("elaborate", f)
    assert (code, err) == (0, "")
    assert out == (
        "sort Nat;\ncon zero : Nat;\nfun succ : Nat -> Nat;\nvar N : Nat;\n"
        "def F[a](v,w,u) : TU(a) * (a -> a) * (() -> a) -> TU(a) = "
        "v ; w <+ void ; u;\n"
        "main = F[Nat](extend((N -> N : Nat -> Nat), TU(Nat)),"
        "N -> succ(N),() -> zero);\n")
    assert capcli("elaborate", write("again.strat", out)) == (0, out, "")


def test_elaborate_ill_typed_exit_2(capcli, write):
    f = write("bad.strat", "sort Nat; var N : Nat;\nmain = all(N -> N);")
    code, out, err = capcli("elaborate", f)
    assert code == 2
    assert out == ""


QUICK_START_TREE = "fork(leaf(zero),leaf(succ(zero)))"


def test_call_heavy_trace_and_fuel_are_golden(capcli, write):
    # ProblemV instantiates Crush[Nat], CF[Nat] and Chi[Nat] with strategy
    # and type arguments at every node; its trace and fuel pin how calls
    # bind their parameters.
    with open(program_path("problems.strat")) as g:
        src = g.read()
    f = write("p5.strat", src.replace("main = ProblemI;", "main = ProblemV;"))
    code, out, err = capcli("run", f, "--term", QUICK_START_TREE, "--trace")
    assert code == 0
    assert out == "zero\n"
    with open(golden_path("problem5_tree.trace")) as g:
        assert err == g.read()
    code, out, err = capcli("run", f, "--term", QUICK_START_TREE,
                            "--fuel", "44")
    assert code == 0 and out == "zero\n"
    code, out, err = capcli("run", f, "--term", QUICK_START_TREE,
                            "--fuel", "43")
    assert code == 3 and err.startswith("FuelExhausted: ")


TD_PROGRAM = ("sort Nat; con zero : Nat; fun succ : Nat -> Nat;\n"
              "var N : Nat; def Inc : Nat -> Nat = N -> succ(N);\n")


def nat_text(n):
    return "succ(" * n + "zero" + ")" * n


def tree_text(depth):
    if depth == 0:
        return "leaf(zero)"
    sub = tree_text(depth - 1)
    return "fork(%s,%s)" % (sub, sub)


def problems_with_main(main):
    with open(program_path("problems.strat")) as f:
        return f.read().replace("main = ProblemI;", "main = %s;" % main)


@pytest.mark.parametrize("src,term", [
    pytest.param(problems_with_main("ProblemIV"), tree_text(10),
                 id="ProblemIV-1024"),
    pytest.param(TD_PROGRAM + "main = TD(id);", nat_text(10000), id="10000"),
])
def test_run_too_deep_exit_6(capcli, write, src, term):
    # On a 1024-leaf tree ProblemIV's last Append where-chain is 512 calls
    # deep, so evaluation runs out of stack; at 10000 levels TD(id)'s
    # evaluation does. Neither may surface as a traceback or as FAIL's exit
    # code.
    f = write("deep.strat", src)
    code, out, err = capcli("run", f, "--term", term)
    assert code == 6
    assert out == ""
    assert err.startswith("DepthExceeded: ")


def test_run_512_leaf_tree_prints_its_list(capcli, write):
    # ProblemIV evaluates on a 512-leaf tree; printing the 512-element list
    # it returns costs one frame per level.
    f = write("p4.strat", problems_with_main("ProblemIV"))
    code, out, err = capcli("run", f, "--term", tree_text(9))
    assert (code, err) == (0, "")
    assert out == "cons(zero," * 512 + "nil" + ")" * 512 + "\n"


def test_tree9_depth_probe_matches_the_bench_oracle(capcli, tmp_path):
    # The benchmark's own request and reference reply, built by bench/inputs.
    inputs = bench_inputs()
    probes = inputs.build_probes(101, inputs.Writer(str(tmp_path)))
    req, = [r for r in probes if r.cls == "ProblemIV/tree9"]
    code, out, err = capcli(*req.argv)
    assert req.check(code, out), (code, err)


@pytest.mark.parametrize("main,depth", [("TD(id)", 300),
                                        ("StopTD(extend(Inc, TP))", 301)])
def test_run_300_deep_term(capcli, write, main, depth):
    # One Python frame per core node: a 300-deep term runs through a
    # full traversal and through a stopping one.
    f = write("td.strat", TD_PROGRAM + "main = %s;" % main)
    code, out, err = capcli("run", f, "--term", nat_text(300))
    assert (code, err) == (0, "")
    assert out == nat_text(depth) + "\n"


def test_980_deep_ill_typed_term_gets_its_diagnostic():
    # The one-pass reader stops at the unknown name; the term is then read
    # again and tagged with a stack, so the diagnostic shows at any depth
    # the parser reads. A fresh process, so that no test runner's frames
    # sit below the command's.
    term = "(" * 980 + "nowhere,zero)" + ",zero)" * 979
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "stratcalc.cli", "run",
         program_path("problems.strat"), "--term", term],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "ERROR name: unknown symbol nowhere in term\n"


@pytest.mark.parametrize("word,depth,stype", [("all", 900, "TP"),
                                              ("Try", 450, "TP"),
                                              ("succ", 450, "Nat -> Nat")])
def test_deep_strategy_checks_and_elaborates(tmp_path, word, depth, stype):
    # The parser, the checker and the printer take one frame per keyword
    # form and two per call or congruence, so these fit below the default
    # recursion limit. A fresh process, so that no test runner's frames sit
    # below the command's.
    main = "%s(" % word * depth + "id" + ")" * depth
    f = tmp_path / "deep.strat"
    f.write_text("sort Nat; con zero : Nat; fun succ : Nat -> Nat;\n"
                 "main = %s;\n" % main)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    for command in ("check", "elaborate"):
        proc = subprocess.run(
            [sys.executable, "-m", "stratcalc.cli", command, str(f)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert (proc.returncode, proc.stderr) == (0, ""), command
        if command == "check":
            assert proc.stdout == stype + "\n"
        else:
            assert proc.stdout.endswith("main = %s;\n" % main)


def test_elaborate_prints_a_300_deep_congruence(capcli, write):
    # The printer renders a congruence's arguments in a loop, one frame a
    # level, so elaborate prints as deep as check reaches.
    main = "succ(" * 300 + "id" + ")" * 300
    f = write("cong.strat", TD_PROGRAM + "main = %s;" % main)
    code, out, err = capcli("elaborate", f)
    assert (code, err) == (0, "")
    assert out.endswith("main = %s;\n" % main)


@pytest.mark.parametrize("command", ["check", "run", "elaborate"])
def test_rule_with_1200_where_clauses(capcli, write, command):
    # A rule holds its where-clauses in a flat tuple, so no layer recurses
    # on their number.
    n = 1200
    decls = "".join("var X%d : Nat;\n" % i for i in range(n))
    args = ["N"] + ["X%d" % i for i in range(n - 1)]
    clauses = "".join(" where X%d := id @ %s" % (i, a)
                      for i, a in enumerate(args))
    main = "N -> X%d%s" % (n - 1, clauses)
    f = write("where.strat",
              "sort Nat; con zero : Nat; var N : Nat;\n%smain = %s;\n"
              % (decls, main))
    code, out, err = capcli(command, f, *(["--term", "zero"]
                                         if command == "run" else []))
    assert (code, err) == (0, "")
    assert out.endswith({"check": "Nat -> Nat\n", "run": "zero\n",
                         "elaborate": "main = %s;\n" % main}[command])


def test_library_rejects_what_the_cli_rejects(capcli, write):
    # apply_strategy takes the CLI's checking pass, context checks included.
    text = ("sort Nat; con zero : Nat; con zero : Nat;\n"
            "fun succ : Nat -> Bogus;\nmain = id;\n")
    code, out, err = capcli("check", write("ctx.strat", text))
    assert (code, out) == (2, "")
    ctx = sc.parse_program(text, prelude=None).context
    got = sc.apply_strategy(ctx, {}, S.Id(), sc.FunApp("zero", ()))
    assert got == sc.EngineFailure(
        "InternalTypeViolation",
        "runtime typing failed: duplicate declaration of zero")


@pytest.mark.parametrize("name", ["problems", "overload", "addition"])
def test_elaborate_output_is_golden(capcli, name):
    code, out, err = capcli("elaborate", program_path(name + ".strat"))
    assert code == 0 and err == ""
    with open(golden_path("elaborate_%s.out" % name)) as g:
        assert out == g.read()


DIAG_HEADER = ("sort Nat; sort Tree; con zero : Nat; fun succ : Nat -> Nat; "
               "fun leaf : Nat -> Tree; fun fork : Tree * Tree -> Tree; "
               "var N : Nat; var N1 : Nat; var T1 : Tree;\n")

# (program text after DIAG_HEADER, --term for a run or None for a check,
# the whole stderr). Each program has one name or binding error, except
# the one with a bad name in each of two definitions, which lists both.
NAME_DIAGNOSTICS = [
    ("main = Mystery;", None, "ERROR name at 2:8: unknown name Mystery"),
    ("def A(v) : TP -> TP = v(id);\nmain = A(id);", None,
     "ERROR name at 2:23: strategy parameter v takes no arguments"),
    ("main = zero(id);", None,
     "ERROR cong at 2:8: congruence zero expects 0 argument strategies, "
     "got 1"),
    ("main = succ[Nat](id);", None,
     "ERROR name at 2:8: function congruence succ takes no type arguments"),
    ("main = fork(id);", None,
     "ERROR cong at 2:8: congruence fork expects 2 argument strategies, "
     "got 1"),
    ("main = Try;", None, "ERROR comb at 2:8: Try expects 1 arguments, got 0"),
    ("main = Any(void);", None,
     "ERROR comb-forall at 2:8: Any expects 1 type arguments, got 0"),
    ("main = zero -> N;", None,
     "ERROR name at 2:8: variable N is not bound by the rule"),
    ("main = succ(N) -> N where N := id @ N;", None,
     "ERROR name at 2:8: where-clause rebinds variable N"),
    ("main = zero -> zero where Qx := id @ zero;", None,
     "ERROR name at 2:8: where-bound variable Qx is not declared"),
    ("main = zero -> N where N := Mystery @ zero;", None,
     "ERROR name at 2:29: unknown name Mystery"),
    ("main = zero -> bogus;", None,
     "ERROR name at 2:8: unknown symbol bogus in term"),
    ("def A : TP = v;\nmain = A;", None, "ERROR name at 2:14: unknown name v"),
    ("def A : TP = Nope;\ndef B : TP = Nix;\nmain = A;", None,
     "ERROR name at 2:14: unknown name Nope\n"
     "ERROR name at 3:14: unknown name Nix"),
    ("main = id;", "bogus",
     "ERROR name: unknown symbol bogus in term"),
    ("main = id;", "succ(bogus)",
     "ERROR name: unknown symbol bogus in term"),
    ("main = id;", "N",
     "ERROR var: input term is not ground: N is a variable"),
]


@pytest.mark.parametrize("text,term,want", NAME_DIAGNOSTICS, ids=[
    text if term is None else "run " + term
    for text, term, _ in NAME_DIAGNOSTICS])
def test_name_diagnostics(capcli, write, text, term, want):
    f = write("names.strat", DIAG_HEADER + text + "\n")
    argv = ("check", f) if term is None else ("run", f, "--term", term)
    assert capcli(*argv) == (2, "", want + "\n")


def test_a_constant_takes_no_arguments(capcli, write):
    # A constant is a function with no arguments, in a term and in a
    # term given to the library alike.
    f = write("id.strat", DIAG_HEADER + "main = id;\n")
    assert capcli("run", f, "--term", "zero(zero)") == (
        2, "", "ERROR fun: zero expects 0 arguments, got 1\n")
    ctx = sc.parse_program(DIAG_HEADER + "main = id;\n").context
    zero = sc.FunApp("zero", ())
    got = sc.apply_strategy(ctx, {}, S.Id(), sc.FunApp("zero", (zero,)))
    assert got == sc.EngineFailure(
        "InternalTypeViolation",
        "runtime typing failed: zero expects 0 arguments, got 1")


def test_context_diagnostics_name_their_declaration(capcli, write):
    f = write("ctx.strat", "sort Nat;\ncon a : Bogus;\n"
              "fun f : Nat * Bogus -> Nat;\nvar X : (Nat, Bogus);\n"
              "main = id;\n")
    assert capcli("check", f) == (2, "", (
        "ERROR ctx at 2:1: con a mentions undeclared sort Bogus\n"
        "ERROR ctx at 3:1: fun f mentions undeclared sort Bogus\n"
        "ERROR ctx at 4:1: var X mentions undeclared sort Bogus\n"))


def test_undeclared_sort_reported_once_per_declaration(capcli, write):
    f = write("succ.strat", "fun succ : Nat -> Nat; main = id;")
    assert capcli("check", "--no-prelude", f) == (2, "", (
        "ERROR ctx at 1:1: fun succ mentions undeclared sort Nat\n"))


def test_context_diagnostics_come_in_source_order(capcli, write):
    # g and a are each declared under two keywords; every diagnostic is
    # placed at the declaration it names, duplicates first.
    f = write("ctx.strat", "sort Nat;\nfun g : Bogus -> Nat;\ncon g : Nat;\n"
              "con a : Bogus;\nvar a : Nat;\nvar X : (Nat, Bogus);\n"
              "con b : Bogus;\nmain = id;\n")
    assert capcli("check", f) == (2, "", (
        "ERROR ctx at 3:1: duplicate declaration of g\n"
        "ERROR ctx at 5:1: duplicate declaration of a\n"
        "ERROR ctx at 2:1: fun g mentions undeclared sort Bogus\n"
        "ERROR ctx at 4:1: con a mentions undeclared sort Bogus\n"
        "ERROR ctx at 6:1: var X mentions undeclared sort Bogus\n"
        "ERROR ctx at 7:1: con b mentions undeclared sort Bogus\n"))


def test_second_main_is_a_duplicate(capcli, write):
    f = write("mains.strat", "sort Nat;\ncon zero : Nat;\nmain = id;\n"
              "main = fail;\n")
    assert capcli("run", f, "--term", "zero") == (
        2, "", "ERROR def at 4:1: duplicate main strategy\n")


PARAM_HEADER = ("sort Nat; con zero : Nat; fun succ : Nat -> Nat; "
                "var N : Nat;\n")
DUPLICATE_PARAMS = "def F(v, v) : TP * (Nat -> Nat) -> (Nat -> Nat) = v;\n"


@pytest.mark.parametrize("text,want", [
    (DUPLICATE_PARAMS + "main = F(id, N -> succ(N));",
     "duplicate parameter v in definition of F"),
    ("def G[a, a] : TP = id;\nmain = G[Nat, Nat];",
     "duplicate type parameter a in definition of G"),
], ids=["F", "G"])
def test_definition_parameters_are_distinct(capcli, write, text, want):
    f = write("params.strat", PARAM_HEADER + text + "\n")
    assert capcli("run", f, "--term", "zero") == (
        2, "", "ERROR def at 2:1: %s\n" % want)


def test_library_rejects_duplicate_parameters():
    # check_definition rejects them, so library definitions meet the check.
    program = sc.parse_program(PARAM_HEADER + DUPLICATE_PARAMS
                               + "main = F(id, N -> succ(N));\n")
    got = sc.apply_strategy(program.context, program.definitions,
                            program.main, sc.FunApp("zero", ()))
    assert got == sc.EngineFailure(
        "InternalTypeViolation",
        "runtime typing failed: duplicate parameter v in definition of F")
    # A CheckedProgram raises its first diagnostic when asked to run.
    checked = sc.CheckedProgram(program)
    with pytest.raises(sc.StaticError) as exc:
        checked.run(sc.parse_term("zero", program.context))
    assert exc.value is checked.diagnostics[0]
    assert exc.value.message == "duplicate parameter v in definition of F"
    # A program without main checks, and says so when asked to run.
    program = sc.parse_program("sort Nat; con zero : Nat;", require_main=False)
    checked = sc.CheckedProgram(program)
    assert checked.diagnostics == []
    with pytest.raises(sc.StaticError) as exc:
        checked.run(sc.parse_term("zero", program.context))
    assert exc.value.render() == "ERROR def: missing main strategy"


RULE_HEADER = DIAG_HEADER.replace("var N1 : Nat;",
                                  "var N1 : Nat; var N2 : Nat;")

# (main's strategy after RULE_HEADER, exit code, the whole output): each
# typing rule that no other test rejects, each with a strategy it accepts.
# A function congruence's argument types come from the function's
# declaration, so `succ(id)` checks; a pair congruence's come from its
# components alone, so each must be many-sorted.
TYPING_RULES = [
    ("((N -> succ(N)) & (T1 -> T1)) ; ((T1 -> T1) & ((N1,N2) -> (N1,N2)))",
     2, "ERROR comp.6 at 2:8: no overloaded branch of Tree -> Tree & "
        "(Nat,Nat) -> (Nat,Nat) accepts Nat"),
    ("((N -> succ(N)) & (T1 -> T1)) ; ((N -> N) & (T1 -> T1))", 0,
     "Nat -> Nat & Tree -> Tree"),
    ("succ(void)", 2, "ERROR cong.2 at 2:8: argument 1 of congruence succ "
                      "must admit Nat -> Nat, has TU(())"),
    ("succ(id)", 0, "Nat -> Nat"),
    ("(id, id)", 2, "ERROR cong.4 at 2:8: pair congruence needs many-sorted "
                    "components, has TP and TP"),
    ("(restrict(id, Nat -> Nat), restrict(id, Nat -> Nat))", 0,
     "(Nat,Nat) -> (Nat,Nat)"),
    ("reduce(id, id)", 2, "ERROR red at 2:8: reduce needs a type-unifying "
                          "child strategy, has TP"),
    ("reduce((N1,N2) -> N1, extend(N -> N, TU(Nat)))", 0, "TU(Nat)"),
    ("select(id)", 2, "ERROR sel at 2:8: select needs a type-unifying "
                      "argument, has TP"),
    ("select(extend(N -> N, TU(Nat)))", 0, "TU(Nat)"),
    ("id <& id", 2, "ERROR extend at 2:8: left operand of <& must be "
                    "many-sorted, has TP"),
    ("(N -> succ(N)) <& (T1 -> T1)", 2,
     "ERROR extend at 2:8: Nat -> Nat is not an instance of Tree -> Tree"),
    ("(N -> succ(N)) <& id", 0, "TP"),
    ("guard(Nat, Nat -> Nat)", 2,
     "ERROR extend at 2:8: Nat -> Nat is not an instance of Nat -> Nat"),
    ("guard(Nat, TP)", 0, "TP"),
]


@pytest.mark.parametrize("main,code,want", TYPING_RULES,
                         ids=[main for main, _, _ in TYPING_RULES])
def test_typing_rule_outcomes(capcli, write, main, code, want):
    f = write("rule.strat", RULE_HEADER + "main = %s;\n" % main)
    out, err = (want + "\n", "") if code == 0 else ("", want + "\n")
    assert capcli("check", f) == (code, out, err)


def test_definition_parameters_must_match_its_type(capcli, write):
    f = write("params.strat", RULE_HEADER + "def F(v) : TP = id;\n")
    assert capcli("check", f) == (4, "", (
        "parse error at 2:1: definition F declares 1 parameters but its "
        "type has 0 argument types\n"))


def test_definition_type_errors_are_placed_at_the_definition(capcli, write):
    f = write("deftype.strat", RULE_HEADER + "main = id;\n"
              "def A(s) : (Nat -> Bogus) -> TP = id;\n")
    assert capcli("check", f) == (
        2, "", "ERROR tau.1 at 3:1: undeclared sort Bogus\n")


@pytest.mark.parametrize("params,args,stype,want", [
    ("[a,b]", "[Nat,Nat]", "(a -> a) * (b -> b)",
     "ERROR pi.4 at 2:54: overloaded branches share the domains a and b "
     "under some type arguments"),
    ("", "", "(Nat -> Nat) * (Nat -> Nat)",
     "ERROR pi.4 at 2:57: overloaded branches share the domain Nat"),
], ids=["type-params", "monomorphic"])
def test_overlapping_amp_is_rejected_at_its_definition(capcli, write, params,
                                                       args, stype, want):
    # With type parameters, the call's type arguments make both branches
    # Nat -> Nat; an evaluator that got this far would take the left one.
    text = ("def H%s(v,w) : %s -> TP = extend(v & w, TP);\n"
            "main = H%s(succ(N) -> N, N -> succ(N));\n")
    f = write("amp.strat", PARAM_HEADER + text % (params, stype, args))
    for argv in (("check", f), ("run", f, "--term", "succ(zero)")):
        assert capcli(*argv) == (2, "", want + "\n")


def test_where_clause_binding_of_another_sort(capcli, write):
    f = write("where.strat", "sort Nat;\nsort Tree;\ncon zero : Nat;\n"
              "var N : Nat;\nvar T : Tree;\n"
              "main = N -> N where T := id @ N;\n")
    assert capcli("check", "--no-prelude", f) == (2, "", (
        "ERROR apply at 6:8: where-clause binds T : Nat but the variable is "
        "declared Tree\n"))


def test_argument_types_without_a_result(capcli, write):
    f = write("ctype.strat", "sort Nat;\ncon zero : Nat;\n"
              "def F : TP * TP = id;\nmain = id;\n")
    assert capcli("check", "--no-prelude", f) == (
        4, "", "parse error at 3:17: expected '->' after argument types\n")


def test_unit_in_a_pair_congruence(capcli, write):
    text = "sort Nat;\ncon zero : Nat;\nmain = (zero,());\n"
    f = write("unit.strat", text)
    assert capcli("check", "--no-prelude", f) == (
        0, "(Nat,()) -> (Nat,())\n", "")
    # Elaboration prints the source itself, so its output checks as above.
    assert capcli("elaborate", "--no-prelude", f) == (0, text, "")
    assert capcli("run", "--no-prelude", f, "--term", "(zero,())") == (
        0, "(zero,())\n", "")


def test_run_needs_a_term(capcli, write):
    f = write("id.strat", RULE_HEADER + "main = id;\n")
    assert capcli("run", f) == (2, "", "run needs --term\n")


# -- no input ends in a traceback ------------------------------------------

# Keywords, operators, names that are declared in DIAG_HEADER or the
# prelude and names that are not, and two characters the tokenizer rejects.
FUZZ_TOKENS = sorted(RESERVED) + [
    ";", ":", "=", ":=", "->", "+", "<+", "+>", "&", "<&", "&>", "!", "*",
    "@", "(", ")", "[", "]", ",", "zero", "succ", "leaf", "fork", "Nat",
    "Tree", "N", "N1", "T1", "Try", "TD", "Crush", "Mystery", "v", "$", "1"]
# Programs to follow DIAG_HEADER, and terms, which the strings below are
# edits of.
PROGRAM_SEEDS = ["", "def A : TP = id; main = A;",
                 "def B(s) : TP -> TP = s ; all(B(s)); main = B(id);"] + [
    "main = %s;" % s for s in [
        "id", "TD(id)", "Try(succ(N) -> N)", "all(id) ; one(fail)",
        "extend(succ(N) -> N, TP) <+ id", "Crush[Nat](void, fork)",
        "leaf(id) + !fork(id, id)", "(id : TP) & (zero -> zero)",
        "succ(N) -> N1 where N1 := TD(id) @ N"]]
TERM_SEEDS = ["", "zero", "succ(zero)", "fork(leaf(zero),leaf(succ(zero)))"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz"))


@given(header=st.booleans(), text=edited(PROGRAM_SEEDS, FUZZ_TOKENS),
       term=edited(TERM_SEEDS, FUZZ_TOKENS),
       command=st.sampled_from(["check", "elaborate", "run"]),
       prelude=st.booleans())
@settings(max_examples=300, deadline=None)
def test_token_strings_exit_with_a_documented_code(
        fuzz_dir, header, text, term, command, prelude):
    # 300 examples per run; a run of 20000 examples found no escape.
    # Random token strings go through every command, alone or after a
    # well-formed signature. Each must end in one of the exit codes 0-6 of
    # the CLI's docstring, and no exception may escape. The run happens in
    # an empty directory, so --term never names a file by chance.
    path = os.path.join(fuzz_dir, "fuzz.strat")
    with open(path, "w") as f:
        f.write((DIAG_HEADER if header else "") + text)
    argv = [command, path, "--term=" + term, "--fuel", "200"]
    if not prelude:
        argv.append("--no-prelude")
    cwd = os.getcwd()
    os.chdir(fuzz_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    assert code in range(7)


# The CLI's cache of checked programs, keyed on the program's text and the
# prelude's: a warm call must reply as a cold one does.


@pytest.fixture
def cache_info():
    """The cache's `cache_info`, the cache emptied first; its entries after
    the test are left as they are."""
    cli._checked.cache_clear()
    return cli._checked.cache_info


def test_cache_reads_a_rewritten_program(capcli, write, cache_info):
    f = write("p.strat", NAT_TREE_HEADER)
    assert capcli("run", f, "--term", "succ(zero)") == (0, "succ(zero)\n", "")
    write("p.strat", NAT_TREE_HEADER.replace("main = id;",
                                             "main = succ(N) -> N;"))
    assert capcli("run", f, "--term", "succ(zero)") == (0, "zero\n", "")
    assert cache_info().misses == 2


def test_cache_repeats_the_diagnostics_of_an_ill_typed_program(
        capcli, write, cache_info):
    f = write("bad.strat", "sort Nat; con zero : Nat; var N : Nat;\n"
              "main = all(zero -> zero);")
    want = (2, "", "ERROR all at 2:8: all needs a type-preserving argument, "
                   "has Nat -> Nat\n")
    for _ in range(3):
        assert capcli("check", f) == want
    assert (cache_info().misses, cache_info().hits) == (1, 2)


def test_cache_keeps_no_parse_error(capcli, write, cache_info):
    f = write("broken.strat", "main = ;")
    for _ in range(3):
        code, out, err = capcli("check", f)
        assert (code, out) == (4, "") and "parse error" in err
    assert cache_info().currsize == 0
    write("broken.strat", "main = id;")
    assert capcli("check", f) == (0, "TP\n", "")


def test_cache_keeps_one_entry_per_prelude(capcli, write, cache_info):
    f = write("p.strat", PRELUDE_SIG + "main = Try(extend(N -> succ(N), TP));")
    pre = write("pre.strat", "def Try(v) : TP -> TP = v ; v;")
    replies = {
        (): (0, "succ(zero)\n", ""),
        ("--no-prelude",): (2, "", "ERROR name at 2:8: unknown name Try\n"),
        ("--prelude", pre): (0, "succ(succ(zero))\n", ""),
    }
    for _ in range(2):
        for extra, want in replies.items():
            assert capcli("run", f, "--term", "zero", *extra) == want
    assert (cache_info().currsize, cache_info().hits) == (3, 3)


def test_cache_holds_at_most_its_bound(capcli, write, cache_info):
    files = [write("p%d.strat" % i, NAT_TREE_HEADER + "# %d\n" % i)
             for i in range(cli.CACHE_SIZE + 4)]
    for f in files + files[:2]:
        assert capcli("check", f) == (0, "TP\n", "")
    # The first two were dropped to make room, and checked again.
    assert cache_info().currsize == cli.CACHE_SIZE
    assert cache_info().misses == cli.CACHE_SIZE + 6


@pytest.mark.parametrize("argv", [
    ["check"], ["elaborate"],
    ["run", "--trace", "--term", "fork(leaf(zero),leaf(succ(zero)))"]],
    ids=["check", "elaborate", "run --trace"])
def test_cache_replies_the_same_cold_and_warm(capcli, cache_info, argv):
    command, *rest = argv
    argv = [command, program_path("problems.strat")] + rest
    first = capcli(*argv)
    assert first[0] == 0 and first[1]
    assert capcli(*argv) == first
    assert cache_info().hits == 1


@pytest.mark.parametrize("workload", ["traverse", "normalize"])
def test_bench_pass_replies_the_same_cold_and_warm(capsys, tmp_path,
                                                   workload):
    # One seed-101 pass of the benchmark's requests with every request's
    # program checked afresh, then as the benchmark runs it (each program
    # checked on its first request), then with the cache warm: every exit
    # code, stdout and stderr must agree.
    requests, _ = bench_inputs().build(workload, 101, str(tmp_path), 1)

    def reply(req):
        code = cli_main(list(req.argv))
        return (req.cls, code) + tuple(capsys.readouterr())

    fresh = []
    for req in requests:
        cli._checked.cache_clear()
        fresh.append(reply(req))
    cli._checked.cache_clear()
    assert [reply(req) for req in requests] == fresh
    filled = cli._checked.cache_info().misses
    assert [reply(req) for req in requests] == fresh
    assert cli._checked.cache_info().misses == filled


def test_threads_share_a_cached_program(monkeypatch):
    # Four threads serve the same program at once, from one cache entry
    # whose compiled program the first run makes; each reply goes to the
    # stdout of its own thread.
    problems = program_path("problems.strat")
    argv = ["run", problems, "--term", "leaf(zero)"]
    local = threading.local()
    out = SimpleNamespace(write=lambda text: local.parts.append(text),
                          flush=lambda: None)
    cli._checked.cache_clear()
    assert cli_main(["check", problems]) == 0  # checked, not yet compiled
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", out)
    start = threading.Barrier(4)
    replies = [[] for _ in range(4)]

    def serve(k):
        start.wait()
        for _ in range(200):
            local.parts = []
            code = cli_main(list(argv))
            replies[k].append((code, "".join(local.parts)))

    threads = [threading.Thread(target=serve, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as it can
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert replies == [[(0, "leaf(succ(zero))\n")] * 200] * 4
    assert cli._checked.cache_info().currsize == 1


# The CLI reads a plain command line itself and hands any other to
# argparse, which must read the plain ones as the CLI does.

OPTIONS = [["--term", "zero"], ["--fuel", "5"], ["--prelude", "q.strat"],
           ["--trace"], ["--no-prelude"]]

PLAIN = [["check", "p.strat"], ["elaborate", "p.strat", "--no-prelude"],
         ["run", "p.strat"], ["run", "", "--term", "succ(zero)"],
         ["run", "p.strat", "--fuel", "0", "--term", ""],
         ["run", "p.strat", "--fuel", "007", "--term", "a b"],
         ["run", "p.strat", "--trace", "--term", "a", "--term", "b",
          "--fuel", "1", "--fuel", "2", "--trace", "--prelude", "check"],
         ] + [["run", "p.strat"] + sum(order, [])
              for order in itertools.permutations(OPTIONS)]

FALLBACK = [
    [], ["run"], ["-h"], ["--help"], ["run", "p.strat", "-h"],
    ["run", "p.strat", "--help"], ["run", "p.strat", "--te", "zero"],
    ["run", "p.strat", "--fuel=3"], ["run", "p.strat", "--term=zero"],
    ["--trace", "run", "p.strat"], ["run", "--term", "zero", "p.strat"],
    ["run", "p.strat", "--", "zero"], ["run", "--", "p.strat"],
    ["run", "p.strat", "--term", "-1"], ["run", "-", "--term", "zero"],
    ["run", "p.strat", "--fuel", "-1"], ["run", "p.strat", "--fuel", "+5"],
    ["run", "p.strat", "--fuel", "5_000"], ["run", "p.strat", "--fuel", " 5"],
    ["run", "p.strat", "--fuel", "\u00b2"], ["run", "p.strat", "--fuel", ""],
    ["run", "p.strat", "--fuel", "9" * 5000],
    ["run", "p.strat", "--verbose"], ["run", "p.strat", "-t"],
    ["run", "p.strat", "extra"], ["run", "p.strat", "--trace", "extra"],
    ["run", "p.strat", "--term"], ["run", "p.strat", "--trace", "--fuel"],
    ["run", "p.strat", "--term", "--trace"], ["walk", "p.strat"],
    ["RUN", "p.strat"],
]


@pytest.mark.parametrize("argv", PLAIN)
def test_plain_command_line_reads_as_argparse_reads_it(argv):
    assert vars(cli._read_plain(argv)) == vars(
        cli._build_argparser().parse_args(argv))


@pytest.mark.parametrize("argv", FALLBACK)
def test_other_command_lines_go_to_argparse(argv):
    assert cli._read_plain(argv) is None


def reply(argv):
    """cli.main's exit code, stdout and stderr, help and usage errors
    included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_each_command_line_replies_as_through_argparse(monkeypatch):
    # The tables' command lines on real files: the reply is the same when
    # argparse reads every command line.
    prelude = os.path.join(os.path.dirname(sc.__file__), "prelude.strat")
    names = {"p.strat": program_path("problems.strat"), "q.strat": prelude}
    requests = [[names.get(word, word) for word in argv]
                for argv in PLAIN + FALLBACK]
    fast = [reply(argv) for argv in requests]
    monkeypatch.setattr(cli, "_read_plain", lambda argv: None)
    assert [reply(argv) for argv in requests] == fast
    assert {code for code, _, _ in fast} == {0, 2, 4}


@pytest.mark.parametrize("command,closed", [
    (["run", "--term", "add(succ(zero),zero)"], "stdout"),
    (["check"], "stdout"),
    (["elaborate"], "stdout"),
    (["run", "--term", "add(succ(zero),zero)", "--trace"], "stderr"),
    (["--help"], "stdout"),
    (["bogus"], "stderr")],
    ids=["run", "check", "elaborate", "trace", "help", "bogus"])
def test_closed_pipe_exits_141_without_traceback(command, closed):
    # As in `stratcalc run ... | head -0`: the stream is a pipe whose
    # reader has already gone. A fresh process, since the interpreter's
    # own flush at exit is part of what is checked.
    read, write = os.pipe()
    os.close(read)
    other = "stderr" if closed == "stdout" else "stdout"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    argv = command[:1] + [program_path("addition.strat")] + command[1:]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "stratcalc.cli"] + argv,
            **{closed: write, other: subprocess.PIPE}, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert b"Traceback" not in getattr(proc, other)


def test_main_reads_its_arguments_from_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["stratcalc", "check", program_path("problems.strat")])
    assert cli.main() == 0
    assert capsys.readouterr() == ("TP\n", "")


def test_closed_pipe_in_process_exits_141(monkeypatch):
    # A caller that runs main in its own process: the stream that lost its
    # reader is pointed at os.devnull, so later writes and its close are
    # quiet, and the status is 141. No descriptor outlives the stream.
    opened = len(os.listdir("/dev/fd"))
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert cli.main(["check", program_path("addition.strat")]) == 141
        stream.write("after\n")
    assert len(os.listdir("/dev/fd")) == opened
