"""A request costs the same wherever its caller's stack ends.

CPython 3.11+ takes frames from 16 KiB data-stack chunks and frees a chunk
as soon as the frame at its base returns, so a traversal that recurses back
and forth across a chunk edge maps, faults in and unmaps a chunk on every
crossing. `parse_program`, `CheckedProgram`'s check and each of its runs,
and `render_program`, walk above one frame that opens a large chunk of its
own, so no edge falls inside them, and no caller needs to wrap them:
neither `cli.main`, nor `apply_strategy`, nor a library caller of
`CheckedProgram.run`. Moving the
caller's stack end across a chunk, eight frames at a time, must never cost
a request more than a few page faults."""

import contextlib
import io
import statistics
import sys

import pytest

import stratcalc as sc
from stratcalc import cli
from stratcalc import syntax as S

from conftest import program_path

resource = pytest.importorskip("resource")
pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="frames live on a chunked data stack only on CPython 3.11+")

OFFSETS = range(0, 256, 8)
MAX_FAULTS = 100


def tree(depth):
    if depth == 0:
        return "leaf(succ(succ(succ(zero))))"
    sub = tree(depth - 1)
    return "fork(%s,%s)" % (sub, sub)


def at_depth(n, f):
    """f(), called n frames below this call."""
    return f() if n == 0 else at_depth(n - 1, f)


def faults(f):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    f()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def median_faults(f, n):
    """The faults of f at offset n, the median of three runs; the third run
    is made only when the first two fall on either side of MAX_FAULTS, and
    otherwise their mean, on the same side as that median, stands for it."""
    runs = [at_depth(n, lambda: faults(f)) for _ in range(2)]
    if (runs[0] > MAX_FAULTS) != (runs[1] > MAX_FAULTS):
        runs.append(at_depth(n, lambda: faults(f)))
    return statistics.median(runs)


def worst_offset(f):
    """(faults, offset) of f at the offset where it faults most."""
    f()  # warm caches: the prelude, the parser's tables
    return max((median_faults(f, n), n) for n in OFFSETS)


@pytest.fixture(scope="module")
def problems_main(tmp_path_factory):
    """Writes problems.strat with `main = NAME`, for each NAME asked for."""
    with open(program_path("problems.strat")) as f:
        text = f.read().replace("main = ProblemI;", "")
    root = tmp_path_factory.mktemp("frame_room")

    def write(name):
        path = root / (name + ".strat")
        path.write_text(text + "main = %s;\n" % name)
        return str(path)
    return write


@pytest.mark.parametrize("name, depth, want", [
    ("ProblemV", 7, "zero"),
    ("ProblemIII", 9, "true"),
])
def test_cli_request_faults_at_no_stack_offset(problems_main, name, depth,
                                                want):
    argv = ["run", problems_main(name), "--term", tree(depth)]

    def request():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            assert cli.main(argv) == 0
        assert out.getvalue() == want + "\n"
    worst = worst_offset(request)
    assert worst[0] <= MAX_FAULTS, worst


def test_apply_strategy_faults_at_no_stack_offset(problems):
    t = sc.parse_term(tree(9), problems.context)
    call = S.Call("ProblemIII", (), ())

    def request():
        got = sc.apply_strategy(problems.context, problems.definitions,
                                call, t)
        assert got == sc.Ok(sc.FunApp("true", ()))
    worst = worst_offset(request)
    assert worst[0] <= MAX_FAULTS, worst


@pytest.mark.parametrize("form", ["tagged", "text"])
def test_library_run_faults_at_no_stack_offset(problems_main, form):
    # README's Library example, calling `run` with no wrapper: on a tagged
    # term, and on its text, which `run` reads in the same room entry.
    with open(problems_main("ProblemIV")) as f:
        program = sc.parse_program(f.read(), prelude=sc.load_prelude())
    checked = sc.CheckedProgram(program)
    text = tree(8)
    term = sc.parse_term(text, program.context) if form == "tagged" else text

    def request():
        outcome = checked.run(term, sc.EvalConfig(fuel=100000))
        assert isinstance(outcome, sc.Ok)
        assert sc.render_term(outcome.term).count("succ(succ(succ(zero)))") \
            == 256
    worst = worst_offset(request)
    assert worst[0] <= MAX_FAULTS, worst


def test_cold_cli_check_faults_at_no_stack_offset():
    # Each request parses and checks afresh, entering the room twice.
    argv = ["check", program_path("problems.strat")]

    def request():
        cli._checked.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            assert cli.main(argv) == 0
        assert out.getvalue() == "TP\n"
    worst = worst_offset(request)
    assert worst[0] <= MAX_FAULTS, worst


def test_warm_cli_elaborate_faults_at_no_stack_offset(tmp_path):
    # Printing the core enters the room too, so a warm `elaborate`, which
    # parses and checks nothing, prints nested bodies at any offset.
    lines = ["sort B; con t : B;"]
    for k in range(120):
        lines.append("def D%d : TP = %sid%s;" % (k, "!(" * 30, ")" * 30))
    lines.append("main = D0;")
    src = tmp_path / "nested.strat"
    src.write_text("\n".join(lines) + "\n")
    argv = ["elaborate", str(src)]

    def request():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            assert cli.main(argv) == 0
        assert out.getvalue().endswith("main = D0;\n")
    worst = worst_offset(request)
    assert worst[0] <= MAX_FAULTS, worst
