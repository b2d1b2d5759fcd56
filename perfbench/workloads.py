"""Workload definitions: each turns the bench seed into a list of CLI calls
and writes the CSV inputs those calls read.

Every workload holds one kind of call, so each end-to-end metric means one
thing on it.  The timed process runs the list in order and starts over
when it reaches the end (see worker.py).  Together the four workloads
measure every module: the N = 30 Holm selection exercises the per-edge
matrix algebra that one factorization would remove, the tall selection
bypasses it, Monte Carlo exercises the replication loop the others
bypass, and verify --input exercises the determinant-quadratic route.
"""

from __future__ import annotations

import os

import inputs

# Sample-size ranges give each CSV of a workload its own n, so the
# quantile levels of a file are cold when it is first read, as in a fresh
# CLI process.
# N = 30, not 40: a 20-s run at N = 40 held only six calls (about 3.5 s
# each today), too few for a steady median; at N = 30 it holds about 16.
WIDE = {"dim": 30, "n": (120, 200), "files": 40}
TALL = {"dim": 8, "n": (19_900, 20_100), "files": 8}
VERIFY_INPUT = {"dim": 20, "n": (60, 140), "files": 40}

# Raw-unit files per file workload, run once per run outside the timed loop
# (see run.py): they show the program's scale defect without making the
# timed calls fail.
DEFECT_PROBE_FILES = 2

MONTECARLO_SEEDS = 16
# Size calls simulate --reps once, power calls twice (alternative and
# matched null).  1000 is the fewest replications the program accepts;
# short calls give a run many samples.  Calls differ in cost by kind and
# method (up to 3x), so the timed loop runs this cycle of nine whole (see
# CYCLES) and every run's median is taken over the same mix.
MONTECARLO_KINDS = (
    ("size", "umpu"),
    ("size", "partial-corr"),
    ("power", "fisher"),
    ("size", "fisher"),
    ("size", "umpu"),
    ("power", "partial-corr"),
    ("size", "partial-corr"),
    ("size", "fisher"),
    ("power", "umpu"),
)
MONTECARLO_COMBOS = tuple(dict.fromkeys(MONTECARLO_KINDS))
MONTECARLO_REPS = {"size": 1000, "power": 1000}

# Calls the timed loop runs in whole multiples of; 1 where calls cost alike.
CYCLES = {"montecarlo": len(MONTECARLO_KINDS)}

# Calls in the traced run's fixed list: the same list runs untraced and
# traced, so the counts repeat exactly and the wall ratio is the overhead.
TRACE_CALLS = {
    "select-wide-holm": 4,
    "select-tall": 8,
    "montecarlo": 9,
    "verify-input": 4,
}

NAMES = ("select-wide-holm", "select-tall", "montecarlo", "verify-input")


def _csv_family(seed, tag, spec, workdir, prefix):
    """Write the family's standard-unit files and its raw-unit probe files.

    Returns (standard, raw): file descriptions for the checker."""
    lo, hi = spec["n"]
    count = spec["files"] + DEFECT_PROBE_FILES
    files = []
    for index, n in enumerate(inputs.distinct_sizes(seed, tag, count, lo, hi)):
        raw = index >= spec["files"]
        path = os.path.join(workdir, f"{prefix}{'raw' if raw else ''}{index:03d}.csv")
        inputs.write_csv(path, inputs.dataset(seed, tag, index, spec["dim"], n, raw))
        files.append(
            {"path": path, "n": n, "dim": spec["dim"], "raw": raw,
             "key": [seed, tag, index, spec["dim"], n, raw]}
        )
    return files[: spec["files"]], files[spec["files"]:]


def _select_calls(files, correction):
    return [
        {
            "kind": "select",
            "argv": ["select", "--input", f["path"], "--correction", correction],
            "correction": correction,
            "file": f,
        }
        for f in files
    ]


def _verify_calls(files):
    return [{"kind": "verify-input", "argv": ["verify", "--input", f["path"]], "file": f} for f in files]


def build(workload: str, seed: int, workdir: str) -> tuple[list[dict], list[dict]]:
    """Write the workload's inputs under workdir and return its timed calls
    and its raw-unit defect-probe calls (none for montecarlo).

    Each call is a dict with the CLI arguments (without --out) and what
    the checker needs to know about it.
    """
    if workload == "select-wide-holm":
        std, raw = _csv_family(seed, 41, WIDE, workdir, "holm")
        return _select_calls(std, "holm"), _select_calls(raw, "holm")
    if workload == "select-tall":
        std, raw = _csv_family(seed, 8, TALL, workdir, "tall")
        return _select_calls(std, "none"), _select_calls(raw, "none")
    if workload == "verify-input":
        std, raw = _csv_family(seed, 20, VERIFY_INPUT, workdir, "vin")
        return _verify_calls(std), _verify_calls(raw)
    if workload == "montecarlo":
        calls = []
        for k in range(len(MONTECARLO_KINDS) * MONTECARLO_SEEDS):
            kind, method = MONTECARLO_KINDS[k % len(MONTECARLO_KINDS)]
            mc_seed = (seed + k) % MONTECARLO_SEEDS
            calls.append(montecarlo_call(kind, method, mc_seed))
        return calls, []
    raise ValueError(f"unknown workload {workload!r}")


def montecarlo_call(kind: str, method: str, mc_seed: int) -> dict:
    reps = MONTECARLO_REPS[kind]
    argv = ["montecarlo", "--dim", "5", "--reps", str(reps), "--seed", str(mc_seed), "--method", method]
    argv += ["--n", "25"] if kind == "size" else ["--n", "50", "--rho", "0.3"]
    return {
        "kind": "montecarlo",
        "argv": argv,
        "mc": {"kind": kind, "method": method, "seed": mc_seed, "reps": reps},
    }
