#!/usr/bin/env python3
"""Report the lines of stratcalc's functions that a pytest run never runs.

A line tracer watches the modules in src/stratcalc/ while pytest runs in
this process, on its thread (`sys.settrace`) and on every thread started
after it (`threading.settrace`), so a line that only a worker thread runs
counts as run. The tracer is armed before the session and again before
every test call, since a test or a plugin may replace it.
After the run the script prints, for each module, its executable lines
inside function bodies (methods, lambdas and comprehensions included)
that never ran:

    <module>: <not run> of <executable> lines not run
      <line>,<line>,...

Module and class bodies run at import and are not counted. Python drops
a tracer that raises, as it does at the recursion limit, so the script
then names the tests during which tracing stopped; lines those tests ran
after that point count as not run. The exit code is pytest's.

Before each test call the script collects garbage. The collector also
starts on its own whenever allocations pass its threshold, and in the
deep-input tests that happens hundreds of frames deep. Without the
collection first, it could finalize garbage that earlier tests left near
the recursion limit: a finalizer that fails there, and the formatting of
its failure, overflow the stack, and pytest fails a test that passes
without the tracer with "Failed to process unraisable exception". The
tests and pytest's unraisable-exception check run as they are.

Unless the arguments give `--hypothesis-seed`, the script passes
`--hypothesis-seed=1`, so that the property tests draw the same examples
on every run and two runs over the same code report the same lines.

Usage: python3 scripts/line_coverage.py [pytest arguments, default: tests]
"""

import gc
import inspect
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "stratcalc")


def function_lines(path):
    """The lines of every function body in the module at path."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        if co is not code and co.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in co.co_lines()
                         if line is not None)
        todo.extend(c for c in co.co_consts if inspect.iscode(c))
    return lines


class LineTracer:
    def __init__(self, paths):
        self.hits = {path: set() for path in paths}
        self.lost = []  # tests during which the tracer was dropped
        self._files = {}  # co_filename -> its hit set, or None

    def _hits_for(self, filename):
        try:
            return self._files[filename]
        except KeyError:
            hit = self.hits.get(os.path.realpath(filename))
            self._files[filename] = hit
            return hit

    def __call__(self, frame, event, arg):
        hit = self._hits_for(frame.f_code.co_filename)
        if hit is None:
            return None
        hit.add(frame.f_code.co_firstlineno)  # the call runs its def line

        def local(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
            return local
        return local

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        gc.collect()
        sys.settrace(self)
        yield
        if sys.gettrace() is not self:
            self.lost.append(item.nodeid)


def main(argv):
    paths = sorted(os.path.realpath(os.path.join(PACKAGE, name))
                   for name in os.listdir(PACKAGE) if name.endswith(".py"))
    argv = argv or [os.path.join(ROOT, "tests")]
    if not any(arg.startswith("--hypothesis-seed") for arg in argv):
        argv = argv + ["--hypothesis-seed=1"]
    tracer = LineTracer(paths)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(argv, plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in paths:
        lines = function_lines(path)
        missed = sorted(lines - tracer.hits[path])
        print("%s: %d of %d lines not run"
              % (os.path.basename(path), len(missed), len(lines)))
        if missed:
            print("  " + ",".join(map(str, missed)))
    if tracer.lost:
        # Python drops a tracer that raises, as one does at the recursion
        # limit; lines these tests ran after that are reported as not run.
        print("tracing stopped early in %d tests:" % len(tracer.lost))
        for nodeid in tracer.lost:
            print("  " + nodeid)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
