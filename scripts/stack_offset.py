#!/usr/bin/env python3
"""Time each benchmark request with its caller's stack cut at many depths.

CPython 3.11+ takes frames from 16 KiB data-stack chunks and frees a chunk
as soon as the frame at its base returns, so a request whose recursion
crosses a chunk edge back and forth maps and unmaps a chunk on every
crossing, and its time depends on where its caller's stack happened to end.
This script calls `stratcalc.cli.main` in this process for each request of
one seeded pass of a benchmark workload, as bench/inputs.py builds it: once
to warm up, then once at each caller stack offset of 0, 8, ..., 248 frames,
more than one chunk's worth. It prints one line per request:

    <class> <min ms> <max ms> <max minor faults>

with the fastest and slowest wall time over the offsets and the most minor
page faults one call took. A speed-up that holds at the min and the max is
the engine's; one that shows at only some offsets is where the chunk edges
fell.

Usage: python3 scripts/stack_offset.py [--workload W] [--seed N] [--limit N]
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "src"),
                os.path.join(HERE, "..", "bench")]

import inputs  # noqa: E402  (the benchmark's request builder)
from stratcalc import cli  # noqa: E402

OFFSETS = range(0, 256, 8)


def at_depth(n, f):
    """f(), called n frames below this call."""
    return f() if n == 0 else at_depth(n - 1, f)


def call(argv):
    """(wall ms, minor faults) of one in-process CLI call."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        cli.main(list(argv))
        ms = (time.perf_counter() - start) * 1000
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return ms, faults


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="traverse",
                    choices=("traverse", "normalize", "oneshot"))
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--limit", type=int,
                    help="only the first N requests of the pass")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as root:
        requests, _ = inputs.build(args.workload, args.seed, root, 1)
        for req in requests[:args.limit]:
            call(req.argv)
            runs = [at_depth(n, lambda: call(req.argv)) for n in OFFSETS]
            times = [ms for ms, _ in runs]
            print("%s %.2f %.2f %d" % (req.cls, min(times), max(times),
                                      max(faults for _, faults in runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
