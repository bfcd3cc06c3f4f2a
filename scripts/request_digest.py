#!/usr/bin/env python3
"""Print a digest of the CLI's replies to the benchmark's requests.

The requests are those of one seeded pass of each benchmark workload
(traverse, normalize, oneshot) plus the depth probes, as bench/inputs.py
builds them. Each goes through `stratcalc.cli.main` in this process, and
each `run` request goes through it once more with `--trace`. Every
invocation prints one line:

    <group> <class> plain|trace <exit code> <stdout digest> <stderr digest>

where a digest is the first 16 hex digits of the text's sha256. Before
them, each request prints one line for its parse alone:

    <group> <class> parse <exit code> <program digest> <error digest>

with the exit code the CLI gives a parse that fails (0 when it succeeds)
and a digest of the parsed program's definitions, main strategy and
declarations, every source position included, so that parser drift shows
even where the replies do not move. Run the script in two checkouts and
diff the outputs to see which replies a change moved.

Usage: python3 scripts/request_digest.py [--seed N] [--limit N]
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"),
                os.path.join(HERE, "..", "bench")]

import inputs  # noqa: E402  (the benchmark's request builder)
from stratcalc import cli  # noqa: E402
from stratcalc.errors import ParseError, StaticError  # noqa: E402

WORKLOADS = ("traverse", "normalize", "oneshot")


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process CLI call. An exception
    that escapes the CLI is a finding, not the end of the digest: its name
    stands in for the exit code and its traceback joins stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as e:
            traceback.print_exc()
            rc = "raised-" + type(e).__name__
    return rc, out.getvalue(), err.getvalue()


def parse(argv):
    """(exit code, program text, error text) of the CLI's parse of a request:
    the program rendered with `repr`, which keeps every position, in the
    order it was read. The context's sets are left out, their order being
    arbitrary; its declaration list names every sort and symbol."""
    args = cli._build_argparser().parse_args(argv)
    try:
        program, _ = cli._parse(*cli._source(args))
    except ParseError as e:
        return 4, "", str(e)
    except StaticError as e:
        return 2, "", str(e)
    except RecursionError:
        return 6, "", "RecursionError"
    ctx = program.context
    parts = [repr(d) for d in program.definitions.values()]
    parts += [repr(program.main), repr(ctx.decls), repr(ctx.functions),
              repr(ctx.term_vars), repr(ctx.combinators)]
    return 0, "\n".join(parts), ""


def groups(seed, root):
    """(group name, requests) for each workload's first pass and the probes.
    Each workload writes its files into a directory of its own, since every
    writer numbers its files from 0."""
    for workload in WORKLOADS:
        os.mkdir(os.path.join(root, workload))
        requests, writer = inputs.build(workload, seed,
                                        os.path.join(root, workload), 1)
        yield workload, requests
        if workload == "traverse":
            probes = inputs.build_probes(seed, writer)
    yield "probes", probes


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--limit", type=int,
                    help="only the first N requests of each group")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as root:
        for group, requests in groups(args.seed, root):
            for req in requests[:args.limit]:
                rc, text, err = parse(req.argv)
                print(group, req.cls, "parse", rc, digest(text), digest(err))
                modes = [("plain", [])]
                if req.argv[0] == "run":
                    modes.append(("trace", ["--trace"]))
                for mode, extra in modes:
                    rc, out, err = invoke(req.argv + extra)
                    print(group, req.cls, mode, rc, digest(out), digest(err))
    return 0


if __name__ == "__main__":
    sys.exit(main())
