"""Batch driver: check, elaborate, and run strategic programs. It reads the
command line and prints; what it calls enters `terms._in_frame_room`.

Exit codes: 0 success, 1 strategy failure (FAIL), 2 type error or a
malformed command line, 3 fuel exhausted, 4 parse error or unreadable
file, 5 engine error, 6 input nested too deep, 141 (128 + SIGPIPE) a
reader of stdout or stderr closed its pipe.
"""

import functools
import os
import sys
from types import SimpleNamespace

from .errors import ParseError, StaticError
from .parser import parse_program
from .prelude import load_prelude
from .printer import render_program, render_stype, render_term
from .terms import (FUEL, EngineFailure, EvalConfig, EvalState, Ok,
                    depth_exceeded)
from .typecheck import CheckedProgram

COMMANDS = ("check", "run", "elaborate")


def _read_plain(argv):
    """The arguments of COMMAND FILE then options spelled in full, each
    value a word of its own not starting with "-", --fuel's ASCII digits;
    None for any other command line, which argparse reads."""
    if len(argv) < 2 or argv[0] not in COMMANDS or argv[1][:1] == "-":
        return None
    args = SimpleNamespace(command=argv[0], file=argv[1], term=None, fuel=FUEL,
                           trace=False, no_prelude=False, prelude=None)
    words = iter(argv[2:])
    for word in words:
        if word in ("--trace", "--no-prelude"):
            setattr(args, word[2:].replace("-", "_"), True)
            continue
        value = next(words, "-")  # a missing value reads as "-"
        if word not in ("--term", "--fuel", "--prelude") or value[:1] == "-":
            return None
        if word == "--fuel":
            # Fewer digits than any limit of int() on long strings.
            if not (value.isascii() and value.isdigit() and len(value) < 19):
                return None
            value = int(value)
        setattr(args, word[2:], value)
    return args


@functools.cache
def _build_argparser():
    import argparse

    class ArgumentParser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse drops a failed write; a closed pipe must reach main.
            if message:
                (file or sys.stderr).write(message)

    ap = ArgumentParser(prog="stratcalc",
                        description="typed strategic term rewriting")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("file")
    ap.add_argument("--term", help="input term (literal or path to a file)")
    ap.add_argument("--fuel", type=int, default=FUEL,
                    help="combinator expansions allowed; 0 means unlimited")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--no-prelude", action="store_true")
    ap.add_argument("--prelude", help="replacement prelude file")
    return ap


def _read(path):
    """The text of a file named on the command line; one that cannot be
    read or decoded is reported as a parse error."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError("cannot read %s: %s"
                         % (path, getattr(e, "strerror", None) or e)) from None


def _source(args):
    """What a request's check depends on: the program's text, the text of
    the --prelude file (None without one) and --no-prelude."""
    prelude_text = _read(args.prelude) if args.prelude else None
    return _read(args.file), prelude_text, args.no_prelude


def _parse(text, prelude_text, no_prelude):
    """The program and the prelude it extends (None under --no-prelude)."""
    prelude = None
    if prelude_text is not None:
        prelude = parse_program(prelude_text, require_main=False)
    elif not no_prelude:
        prelude = load_prelude()
    return parse_program(text, prelude=prelude), prelude


# The most checked programs one process keeps, least recently used first out.
CACHE_SIZE = 16


@functools.lru_cache(maxsize=CACHE_SIZE)
def _checked(text, prelude_text, no_prelude):
    """(prelude, CheckedProgram) for a `_source` key. Typing is static, so
    a process checks each key once; an error raised while parsing or
    checking is not kept. Callers share what it returns; only a run adds
    to the program's compiled closures."""
    program, prelude = _parse(text, prelude_text, no_prelude)
    return prelude, CheckedProgram(program)


_ENGINE_EXIT = {"FuelExhausted": 3, "DepthExceeded": 6}


def _report(outcome):
    print("%s: %s" % (outcome.kind, outcome.detail), file=sys.stderr)
    return _ENGINE_EXIT.get(outcome.kind, 5)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        try:
            args = _read_plain(argv)
            if args is None:
                ap = _build_argparser()
                args = ap.parse_args(argv)
                if args.fuel < 0:
                    ap.error("argument --fuel: expected N >= 0, got %d"
                             % args.fuel)
            return _main(args)
        except ParseError as e:
            print(e, file=sys.stderr)
            return 4
        except StaticError as e:
            print(e, file=sys.stderr)
            return 2
        except RecursionError:
            # Parsing, checking and printing recurse on nesting depth as
            # evaluation does; run_program reports its own depth failures.
            return _report(depth_exceeded())
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # A reader of stdout or stderr has left. Each stream that still
        # holds output is pointed at os.devnull, so that the flush at exit
        # stays quiet (the Python docs' "Note on SIGPIPE"), and the status
        # is the one a shell reports for a filter whose reader left.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 141


def _main(args):
    prelude, program = _checked(*_source(args))
    if program.diagnostics:
        for d in program.diagnostics:
            print(d.render(), file=sys.stderr)
        return 2

    if args.command == "check":
        print(render_stype(program.type))
        return 0

    if args.command == "elaborate":
        core, skip = program.core, ()
        if prelude is not None:
            # The reader loads the prelude again, so the records that
            # parse_program replayed first, and its definitions, are left out.
            ctx, skip = core.context, set(prelude.definitions)
            core = core.replace(context=ctx.replace(
                decls=ctx.decls[len(prelude.context.decls):]))
        sys.stdout.write(render_program(core, skip_defs=skip))
        return 0

    # run
    if args.term is None:
        print("run needs --term", file=sys.stderr)
        return 2
    text = args.term
    if os.path.exists(text):
        text = _read(text).strip()

    # Trace lines go to stderr as they are emitted, not kept in memory.
    state = EvalState(trace_lines=SimpleNamespace(
        append=lambda line: print(line, file=sys.stderr)))
    outcome = program.run(
        text, EvalConfig(fuel=args.fuel, trace=args.trace), state)
    if isinstance(outcome, Ok):
        print(render_term(outcome.term))
        return 0
    if isinstance(outcome, EngineFailure):
        return _report(outcome)
    print("FAIL")
    return 1


if __name__ == "__main__":
    sys.exit(main())
