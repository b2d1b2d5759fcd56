#!/usr/bin/env python3
"""Time the CLI on large graphs, each call in a fresh interpreter:

    python scripts/scale_timings.py                 # N = 200 and N = 1000
    python scripts/scale_timings.py --dims 10 40    # any list of N

For each N the script writes a chain file with numpy alone: n = 4N draws
of a Gaussian whose precision has 1 on the diagonal and -0.4 between
neighbours (seed 1).  It then runs ``select --correction none``,
``select --correction holm``, ``select --format dot`` (the graph alone,
no p-value) and ``verify --input`` on the file, each as
``python -m concgraph`` with ``src/`` first on the path and its report
written to a scratch file, and times the whole process, three times in a
row.  Writing the input is not timed.  Each run's peak resident memory
is the process's own ``ru_maxrss``, from the resource usage that
``os.wait4`` returns when it is reaped.  A child's ``ru_maxrss`` starts
from the peak of the process that spawned it, so each input is written
by a fresh interpreter and this one stays smaller than any call it times.  The last line of output is one
JSON object: the machine, then one entry per call with N, n, the
command, its exit code (the largest of the runs), the wall time of each
run and their median, in seconds, and the peak memory of each run and
their median, in MB.  Threads are left at the environment's defaults;
set ``OPENBLAS_NUM_THREADS`` and the like to pin them.
"""

import argparse
import csv
import json
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Runs of each call: one run cannot order a change of a second or two at
# N = 1000, where calls vary by more than that.
RUNS = 3

COMMANDS = (
    ("select --correction none", ["select", "--correction", "none"]),
    ("select --correction holm", ["select", "--correction", "holm"]),
    ("select --format dot", ["select", "--format", "dot"]),
    ("verify --input", ["verify"]),
)


def write_chain(path: str, dim: int, n: int, seed: int = 1) -> None:
    """n draws of a Gaussian chain: precision 1 on the diagonal and -0.4
    between neighbours."""
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = -0.4
    factor = np.linalg.cholesky(np.linalg.inv(k))
    values = np.random.default_rng(seed).standard_normal((n, dim)) @ factor.T
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"v{j}" for j in range(dim)])
        writer.writerows([[repr(v) for v in row] for row in values.tolist()])


def write_chain_apart(path: str, dim: int, n: int) -> None:
    """:func:`write_chain` in a fresh interpreter.  Written here, the
    N = 1000 file took this process to 587 MB, and every call spawned
    after it read 587 MB, a call that peaks at 485 MB alone included."""
    process = multiprocessing.get_context("spawn").Process(target=write_chain, args=(path, dim, n))
    process.start()
    process.join()
    if process.exitcode:
        raise SystemExit(f"error: writing {path} exited {process.exitcode}")


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_call(argv: list[str]) -> tuple[int, float, float]:
    """Exit code, wall time and peak resident memory in MB of one
    ``python -m concgraph`` process."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "concgraph", *argv],
            cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code:
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", "replace"))
    # ru_maxrss is in KiB on Linux
    return code, seconds, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[200, 1000],
                        help="numbers of variables N; each file has n = 4N rows")
    args = parser.parse_args(argv)
    if any(dim < 2 for dim in args.dims):
        parser.error("every N must be at least 2")
    timings = []
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "report.txt")
        for dim in args.dims:
            n = 4 * dim
            path = os.path.join(workdir, f"chain{dim}.csv")
            write_chain_apart(path, dim, n)
            for label, command in COMMANDS:
                codes, runs, peaks = zip(
                    *(time_call([*command, "--input", path, "--out", out]) for _ in range(RUNS))
                )
                seconds, peak = statistics.median(runs), statistics.median(peaks)
                timings.append(
                    {"N": dim, "n": n, "command": label, "exit": max(codes),
                     "runs": [round(t, 3) for t in runs], "seconds": round(seconds, 3),
                     "peak_rss_runs_mb": [round(m, 1) for m in peaks], "peak_rss_mb": round(peak, 1)}
                )
                print(
                    f"N = {dim}, n = {n}: {label}: exit {max(codes)}, "
                    f"runs {', '.join(f'{t:.2f}' for t in runs)} s, median {seconds:.2f} s, "
                    f"peak {', '.join(f'{m:.0f}' for m in peaks)} MB",
                    flush=True,
                )
    print(json.dumps({"machine": machine(), "timings": timings}))
    return 0 if all(t["exit"] == 0 for t in timings) else 1


if __name__ == "__main__":
    sys.exit(main())
