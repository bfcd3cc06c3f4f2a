"""The stratcalc benchmark: `stratcalc` requests end to end, and per layer.

    python3 bench/run.py --workload traverse|normalize|oneshot --seed N \\
        --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run it from anywhere inside a checkout that holds `src/stratcalc`. One
client sends requests in a closed loop: each starts after the previous
one has finished. Every reply is checked against `oracle.py`. The last
line of stdout is a JSON object with the end-to-end metrics (`--trace
0`) or the per-layer metrics (`--trace 1`); README.md defines them and
says why each workload exists.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench")

import inputs  # noqa: E402  (bench modules sit next to this file)

# The CPU speed of a shared host drifts by up to a factor of two in phases
# of 10-20 s. Every reported time is therefore the measured wall time
# scaled by (SPIN_REF_MS / ms the spin took next to it) ** SPIN_EXPONENT:
# `spin` is a fixed job that runs no engine code, so a slow phase of the
# host cancels out and a slower engine does not. Engine time moves less
# than the spin does: with the full ratio, the run medians of 33 baseline
# runs still fell as the spin slowed; 0.8 removed that trend. Scaled times
# read as ms on a host whose spin takes SPIN_REF_MS.
SPIN_REF_MS = 1.0
SPIN_EXPONENT = 0.8
SPIN_DEPTH = 9

# Fresh interpreters launched to measure set-up; the median is reported.
SETUP_LAUNCHES = 7
SETUP_CODE = ("import time; t0 = time.perf_counter(); import stratcalc; "
              "t1 = time.perf_counter(); stratcalc.load_prelude(); "
              "t2 = time.perf_counter(); print(t1 - t0, t2 - t1, flush=True)")
# p90 needs ten samples beyond it, so a timed run sends at least this many.
MIN_REQUESTS = 100
# A run stops sending after this long even below its minimum count, so that
# it ends within three minutes however slow the engine gets.
MAX_LOOP_SECONDS = 120
# Distinct seeded passes generated per run; the loop cycles through them.
PASSES = 4
CHILD_TIMEOUT = 60
IN_PROCESS = ("traverse", "normalize")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


# -- host speed ----------------------------------------------------------------


class _Node:
    __slots__ = ("name", "kids")

    def __init__(self, name, kids):
        self.name = name
        self.kids = kids


def _grow(depth):
    if depth == 0:
        return _Node("leaf", ())
    return _Node("fork", (_grow(depth - 1), _grow(depth - 1)))


def _walk(node, seen):
    seen[node.name] = seen.get(node.name, 0) + 1
    return 1 + sum(_walk(k, seen) for k in node.kids)


def spin():
    """Seconds to build and walk a fixed tree of objects. It allocates and
    calls like the engine does, which tracks the host's speed for engine
    work far better than an arithmetic loop."""
    enabled = gc.isenabled()
    gc.disable()  # a collection would time the engine's garbage too
    try:
        start = time.perf_counter()
        _walk(_grow(SPIN_DEPTH), {})
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate():
    """host.calib_ms: the median of a few spins."""
    return statistics.median(spin() for _ in range(9)) * 1000


def scale(before, after):
    """Factor for a time measured between two spins."""
    return (SPIN_REF_MS / 1000 * 2 / (before + after)) ** SPIN_EXPONENT


def measure_setup():
    """Scaled seconds from launching a fresh interpreter until `import
    stratcalc` and `load_prelude()` return, and the child's own import and
    prelude times in scaled ms: medians over SETUP_LAUNCHES. One untimed
    launch first writes the bytecode cache."""
    wall, imp, pre = [], [], []
    before = spin()
    for k in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                              stdout=subprocess.PIPE, env=child_env(),
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not line:
            raise RuntimeError("set-up launch failed")
        after = spin()
        f = scale(before, after)
        before = after
        if k:
            t_imp, t_pre = map(float, line.split())
            wall.append(elapsed * f)
            imp.append(t_imp * f * 1000)
            pre.append(t_pre * f * 1000)
    return (statistics.median(wall), statistics.median(imp),
            statistics.median(pre))


# -- sending one request -------------------------------------------------------


def send_in_process(req):
    """One `stratcalc.cli.main` call with stdout and stderr captured.
    Returns whether its exit code and output match the reference."""
    from stratcalc import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(req.argv))
    except Exception:  # e.g. RecursionError: a failed request, not a failed run
        return False
    return req.check(rc, out.getvalue())


def send_oneshot(req):
    proc = subprocess.run([sys.executable, "-m", "stratcalc.cli"] + req.argv,
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT)
    return req.check(proc.returncode, proc.stdout)


# -- the closed loop -----------------------------------------------------------


def closed_loop(requests, seconds, step, min_count):
    """Calls step(index, request) back to back for `seconds`, and at least
    `min_count` times, with a spin between requests. Returns one
    (wall seconds, ok, scale factor) per request."""
    samples = []
    start = time.perf_counter()
    before = spin()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(samples) >= min_count:
            break
        if elapsed > MAX_LOOP_SECONDS:
            break
        i = len(samples)
        t0 = time.perf_counter()
        ok = step(i, requests[i % len(requests)])
        dt = time.perf_counter() - t0
        after = spin()
        samples.append((dt, ok, scale(before, after)))
        before = after
    return samples


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def log_mismatches(requests, samples):
    bad = Counter(requests[i % len(requests)].cls
                  for i, (_, ok, _) in enumerate(samples) if not ok)
    for cls, n in sorted(bad.items()):
        print("mismatch %s: %d" % (cls, n), file=sys.stderr)


def end_to_end(workload, requests, seconds, setup_s):
    send = send_in_process if workload in IN_PROCESS else send_oneshot
    if workload in IN_PROCESS:
        send(requests[0])  # fills the per-process prelude cache
    samples = closed_loop(requests, seconds, lambda i, r: send(r), MIN_REQUESTS)
    log_mismatches(requests, samples)
    times = [dt * f for dt, _, f in samples]
    busy = sum(times)
    correct = sum(ok for _, ok, _ in samples)
    # A failed request ranks slower than every completed one: it is
    # charged the time of the whole run.
    ranked = sorted(t if ok else busy for t, (_, ok, _) in zip(times, samples))
    who = resource.RUSAGE_SELF if workload in IN_PROCESS else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (setup_s, "s"),
        "req_p50_ms": (percentile(ranked, 0.5) * 1000, "ms"),
        "req_p90_ms": (percentile(ranked, 0.9) * 1000, "ms"),
        "req_per_s": (correct / busy, "1/s"),
        "ok_share": (correct / len(samples), "share"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return samples, metrics, {}


# -- the traced pass -----------------------------------------------------------


def traced_in_process(requests, pass_len, seconds, probes):
    import layers

    tr = layers.Tracer()
    untraced, traced = [], []

    def step(i, req):
        t0 = time.perf_counter()
        ok = send_in_process(req)
        t1 = time.perf_counter()
        try:
            rc, out = layers.pipeline(tr, i, req.argv)
            ok = ok and req.check(rc, out)
        except Exception:
            ok = False
        untraced.append(t1 - t0)
        traced.append(time.perf_counter() - t1)
        return ok

    send_in_process(requests[0])
    samples = closed_loop(requests, seconds, step, pass_len)
    counts = {}
    for key, req in list(enumerate(requests[:pass_len])) + [
            ("probe%d" % k, p) for k, p in enumerate(probes)]:
        try:
            counts[key] = layers.count_request(req.argv)
        except RecursionError:
            counts[key] = Counter(crash=1)
    return samples, tr.spans, untraced, traced, counts


def traced_oneshot(requests, pass_len, seconds):
    spans, untraced, traced, counts = [], [], [], {}
    child = os.path.join(HERE, "child.py")

    def step(i, req):
        t0 = time.perf_counter()
        ok = send_oneshot(req)
        t1 = time.perf_counter()
        flag = ["--count"] if i < pass_len else []
        proc = subprocess.run([sys.executable, child] + flag + req.argv,
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT)
        untraced.append(t1 - t0)
        traced.append(time.perf_counter() - t1)
        if proc.returncode != 0:
            return False
        result = json.loads(proc.stdout)
        spans.extend((name, b, e, i) for name, b, e in result["spans"])
        if flag:
            counts[i] = Counter(result["counts"])
        return ok and req.check(result["rc"], result["out"])

    samples = closed_loop(requests, seconds, step, pass_len)
    return samples, spans, untraced, traced, counts


def per_layer(workload, requests, pass_len, seconds, probes, setup):
    import layers

    if workload in IN_PROCESS:
        samples, spans, untraced, traced, counts = traced_in_process(
            requests, pass_len, seconds, probes)
    else:
        samples, spans, untraced, traced, counts = traced_oneshot(
            requests, pass_len, seconds)
    log_mismatches(requests, samples)
    factor = [f for _, _, f in samples]

    per_request = defaultdict(float)  # (span name, request index) -> scaled s
    for name, b, e, rid in spans:
        per_request[name, rid] += (e - b) * factor[rid]
    by_name = defaultdict(list)
    for (name, rid), dt in per_request.items():
        by_name[name].append(dt)

    def median_ms(name):
        return statistics.median(by_name[name]) * 1000 if by_name[name] else 0.0

    # Counters are summed over the first pass, which every run covers in
    # full, so they repeat exactly for a seed; times per node and per token
    # use the traced executions of those same requests.
    total = Counter()
    for c in counts.values():
        total.update({k: v for k, v in c.items() if k != "max_depth"})
    first = [i for i in range(pass_len) if i in counts]
    eval_s = sum(per_request.get(("evaluate", i), 0.0) for i in first)
    parse_s = sum(per_request.get(("parser.program", i), 0.0) for i in first)
    tokens = sum(counts[i]["tokens"] for i in first)
    nodes = sum(counts[i]["nodes"] for i in first)
    _, import_ms, prelude_ms = setup
    if workload not in IN_PROCESS:  # measured in every traced child instead
        import_ms, prelude_ms = median_ms("import"), median_ms("prelude.load")
    untraced = [t * f for t, f in zip(untraced, factor)]
    traced = [t * f for t, f in zip(traced, factor)]

    m = {
        "import.ms": (import_ms, "ms"),
        "prelude.load_ms": (prelude_ms, "ms"),
        "cli.ms": (statistics.median(untraced) * 1000, "ms"),
        "parser.program_ms": (median_ms("parser.program"), "ms"),
        "parser.term_ms": (median_ms("parser.term"), "ms"),
        "parser.tokens": (total["tokens"], "count"),
        "parser.tokens_per_ms": (tokens / (parse_s * 1000) if parse_s else 0.0,
                                 "1/ms"),
        "typecheck.check_ms": (median_ms("typecheck.check"), "ms"),
        "typecheck.apply_type_ms": (median_ms("typecheck.apply_type"), "ms"),
        "typecheck.rejected": (total["rejected"], "count"),
        "elaborate.ms": (median_ms("elaborate"), "ms"),
        "elaborate.core_nodes": (total["core_nodes"], "count"),
        "evaluate.ms": (median_ms("evaluate"), "ms"),
        "evaluate.us_per_node": (eval_s * 1e6 / nodes if nodes else 0.0, "us"),
        "evaluate.nodes": (total["nodes"], "count"),
    }
    for tag in layers.TAGS:
        m["evaluate.nodes." + tag] = (total["nodes." + tag], "count")
    m.update({
        "evaluate.rule_hit_ratio": (
            total["rule_hits"] / total["nodes.rule"] if total["nodes.rule"]
            else 0.0, "ratio"),
        "evaluate.fuel_used": (total["fuel_used"], "count"),
        "evaluate.max_depth": (max(c.get("max_depth", 0)
                                   for c in counts.values()), "count"),
        "evaluate.amp_dispatches": (total["amp_dispatches"], "count"),
        "evaluate.amp_branch_evals": (total["amp_branch_evals"], "count"),
        "evaluate.fail": (total["fail"], "count"),
        "evaluate.engine_fail": (total["engine_fail"], "count"),
        "evaluate.crash": (total["crash"], "count"),
        "terms.retag_ms": (median_ms("terms.retag"), "ms"),
        "printer.render_ms": (median_ms("printer.render"), "ms"),
        "trace.overhead_share": (sum(traced) / sum(untraced) - 1, "share"),
    })
    return samples, m, {"spans": spans}


# -- self-check ----------------------------------------------------------------


def self_check():
    """One pass of every workload through the CLI and the traced pipeline,
    each reply compared with the oracle; the same seed must give the same
    inputs; a request that overflows the stack must come back as a failed
    request; and the oneshot child paths must work. Returns the exit code."""
    import layers

    problems = []
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="check-", dir=WORK)
    try:
        for workload in sorted(inputs.PASSES):
            requests, w = inputs.build(workload, 0, tmp, 1)
            again, w2 = inputs.build(workload, 0, tempfile.mkdtemp(dir=tmp), 1)
            expected = [(r.cls, r.rc, r.out, r.defs) for r in requests]
            if list(w.paths) != list(w2.paths) or expected != [
                    (r.cls, r.rc, r.out, r.defs) for r in again]:
                problems.append("%s: seed 0 gave different inputs" % workload)
            for req in requests:
                if not send_in_process(req):
                    problems.append("%s: CLI disagrees with oracle" % req.cls)
                rc, out = layers.pipeline(layers.Tracer(), 0, req.argv)
                if not req.check(rc, out):
                    problems.append("%s: traced pipeline disagrees with oracle"
                                    % req.cls)
            print("%s: %d requests checked" % (workload, len(requests)))
            if workload == "oneshot":
                for req in requests[:3]:
                    if not send_oneshot(req):
                        problems.append("%s: oneshot process disagrees" % req.cls)
                    proc = subprocess.run(
                        [sys.executable, os.path.join(HERE, "child.py"),
                         "--count"] + req.argv, capture_output=True, text=True,
                        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT)
                    result = json.loads(proc.stdout)
                    if not req.check(result["rc"], result["out"]):
                        problems.append("%s: traced child disagrees" % req.cls)
        probe = inputs.build_probes(0, inputs.Writer(tmp))[0]
        crashed = not send_in_process(probe)
        print("%s: %s" % (probe.cls, "recorded as a failed request" if crashed
                          else "correct (the stack overflow is fixed)"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


# -- entry point ---------------------------------------------------------------


def pin_to_one_cpu():
    """Keep this process and the children it starts on one CPU, so that
    the spin measures the CPU that also runs the requests."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args):
    pin_to_one_cpu()
    calib_start = calibrate()
    setup = measure_setup()
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        requests, writer = inputs.build(args.workload, args.seed, tmp, PASSES)
        pass_len = len(requests) // PASSES
        probes = (inputs.build_probes(args.seed, writer)
                  if args.workload == "traverse" else [])
        if args.trace:
            samples, metrics, extra = per_layer(
                args.workload, requests, pass_len, args.seconds, probes, setup)
        else:
            samples, metrics, extra = end_to_end(
                args.workload, requests, args.seconds, setup[0])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    calib_end = calibrate()
    if args.trace:
        metrics["host.calib_ms"] = ((calib_start + calib_end) / 2, "ms")
    failed = sum(not ok for _, ok, _ in samples)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host_calib_ms": [calib_start, calib_end],
              "metrics": {k: v for k, (v, _) in metrics.items()},
              "samples": [[requests[i % len(requests)].cls, dt, ok, f]
                          for i, (dt, ok, f) in enumerate(samples)]}
    record.update(extra)
    out = os.path.join(WORK, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f)
    print("host.calib_ms start %.3f end %.3f; %d requests"
          % (calib_start, calib_end, len(samples)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(inputs.PASSES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check the oracles against the engine and exit")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(SRC, "stratcalc")):
        print("bench: no src/stratcalc under %s; run it inside a stratcalc "
              "checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
