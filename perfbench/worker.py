"""The timed process: one client calling ``concgraph.cli.main`` in a closed
loop, one call at a time, each starting when the previous one returns.

    python3 perfbench/worker.py PLAN.json

PLAN.json holds the calls, the output directory, the time budget (0 runs
the list once), the cycle length and whether to trace.  The worker writes its results next
to the plan.  Call latencies exclude start-up, which run.py measures in
separate fresh processes.  Each call is bracketed by a short reference
loop on the same CPU, so run.py can state its latency in units of the
host's speed at that moment.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

# The reference loop timed around every call, on the call's CPU.  At about
# 25 ms it is short beside a call and long beside a timer tick.
REFERENCE_ITERATIONS = 250_000


def reference_s(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds for a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """High-water resident set of this process image.  ru_maxrss is not
    used: Linux carries the parent's peak across fork and exec into it."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    import concgraph.cli as cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"concgraph imported from {cli.__file__}, not {src}\n")
        return 2

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        op_name = tracer.intern("bench.op")

    # Interference from other tenants hits each core separately and for
    # seconds at a time, so the worker moves to the next allowed CPU every
    # call and a run's median samples every core, not just one.
    cpus = sorted(os.sched_getaffinity(0))
    calls = plan["calls"]
    # A timed run stops at the first multiple of ``cycle`` calls after the
    # deadline, so that a list of calls of unequal cost is always run in
    # whole cycles and the median does not depend on where it stopped.
    cycle = plan["cycle"]
    records = []
    start = time.perf_counter()
    deadline = start + plan["seconds"] if plan["seconds"] else None
    k = 0
    while True:
        if deadline is None:
            if k == len(calls):
                break
        elif k % cycle == 0 and time.perf_counter() >= deadline:
            break
        call = calls[k % len(calls)]
        out = os.path.join(plan["outdir"], f"out{k:05d}.json")
        argv = call["argv"] + ["--out", out]
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        ref_before = reference_s()
        err = io.StringIO()
        crash = None
        span = tracer.open(op_name) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed call, not the end of the run
            code = None
            crash = traceback.format_exc()
        t1 = time.perf_counter()
        if tracer:
            tracer.close(span)
        ref_after = reference_s()
        records.append(
            {"call": k % len(calls), "out": out, "code": code, "wall_s": t1 - t0,
             "ref_s": [ref_before, ref_after],
             "stderr": err.getvalue(), "crash": crash, "span": span}
        )
        k += 1
    loop_s = time.perf_counter() - start
    result = {"loop_s": loop_s, "peak_rss_mb": peak_rss_kb() / 1024.0, "records": records}
    if tracer:
        tracer.dump(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
