"""Traced run of one oneshot request, in a fresh interpreter.

    python3 bench/child.py [--count] <stratcalc arguments...>

Times `import stratcalc` and then the calls `stratcalc.cli.main` would
make, and prints one JSON object: the exit code and stdout the CLI would
have produced, the spans (seconds since `main` started) and, with
--count, the untimed evaluation counters.
"""

import json
import sys
import time


def main(argv):
    start = time.perf_counter()
    import stratcalc  # noqa: F401  (the span being measured)
    imported = time.perf_counter()
    import layers

    count = argv[:1] == ["--count"]
    if count:
        argv = argv[1:]
    tr = layers.Tracer()
    tr.spans.append(("import", start, imported, 0))
    try:
        rc, out = layers.pipeline(tr, 0, argv)
    except RecursionError:
        rc, out = None, ""
    result = {"rc": rc, "out": out,
              "spans": [[name, b - start, e - start] for name, b, e, _ in tr.spans]}
    if count:
        result["counts"] = layers.count_request(argv)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
