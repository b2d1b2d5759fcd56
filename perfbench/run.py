"""concgraph benchmark.

    python3 perfbench/run.py --workload select-tall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One run:

1. writes the workload's inputs from --seed (numpy only, before any timing);
2. runs the workload's raw-unit files once, untimed, in their own process
   (the known-defect probe; its outcomes are printed, not counted);
3. times a fixed pure-Python loop (host-speed calibration, recorded only);
4. with --trace 0, times fresh interpreters importing ``concgraph.cli``
   (setup_s) before and after running the timed process (worker.py) in a
   closed loop for --seconds; with --trace 1, runs a fixed list of calls
   once untraced and once traced, each in a fresh process, and derives
   per-layer metrics from the spans;
5. times the calibration loop again;
6. checks every output independently (checks.py) and prints the metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A timed call that exits with a
non-zero code, or whose output fails its check, is failed.  Any output
that exits 0 but fails its check, or a crash, also makes ``correct``
false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS/OpenMP thread everywhere: the host has 2 shared cores and the
# program is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import reference_s  # noqa: E402

# Set-up probes on each side of the timed process, so that the median
# samples the host at two moments.
SETUP_PROBES = 4
CALIBRATION_ITERATIONS = 2_000_000
WORKER_GRACE_S = 150

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ratio",
    "peak_rss_mb": "MB",
}

EDGE_TESTS = ("independence.umpu_test", "independence.partial_correlation_test", "independence.fisher_test")
# per-layer count metric -> traced function names it counts
COUNTS = {
    "selection.graphs": ("selection.select_graph",),
    "independence.edge_tests": EDGE_TESTS,
    "estimators.covariances": ("estimators.sample_covariance",),
    "matrices.pd_checks": ("matrices.first_nonpositive_pivot", "matrices.is_positive_definite"),
    "matrices.cofactors": ("matrices.cofactor",),
    "matrices.quadratics": ("matrices.quadratic_decomposition",),
    "matrices.determinants": ("matrices._det",),
    "distributions.quantile_calls": ("distributions.beta_sym_quantile",),
    "distributions.inc_beta_calls": ("distributions.reg_inc_beta",),
    "simulate.draws": ("simulate.sample_gaussian",),
}
PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "cli.parse_cells": "count",
    "cli.out_bytes": "B",
    "selection.self_s": "s",
    "selection.graphs": "count",
    "independence.self_s": "s",
    "independence.edge_tests": "count",
    "independence.tests_per_decision": "ratio",
    "estimators.self_s": "s",
    "estimators.covariances": "count",
    "matrices.self_s": "s",
    "matrices.pd_checks": "count",
    "matrices.cofactors": "count",
    "matrices.quadratics": "count",
    "matrices.determinants": "count",
    "distributions.self_s": "s",
    "distributions.quantile_calls": "count",
    "distributions.quantile_cold": "count",
    "distributions.inc_beta_calls": "count",
    "simulate.self_s": "s",
    "simulate.draws": "count",
    "trace_overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "concgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def setup_probe(env: dict) -> float:
    """Fresh interpreter start until ``import concgraph.cli`` returns."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", "import concgraph.cli, time; print(time.perf_counter())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0:
        raise BenchError(f"cannot import concgraph.cli: {out.stderr.strip()}")
    return float(out.stdout) - t0


def run_worker(calls, rundir: Path, tag: str, seconds: float, trace: bool, env: dict, cycle: int = 1) -> dict:
    outdir = rundir / tag
    outdir.mkdir()
    plan = {
        "calls": calls,
        "outdir": str(outdir),
        "seconds": seconds,
        "cycle": cycle,
        "trace": trace,
        "src": str(SRC),
        "result": str(rundir / f"{tag}-result.json"),
        "spans": str(rundir / f"{tag}-spans.json"),
    }
    plan_path = rundir / f"{tag}-plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    budget = (seconds or 60) + WORKER_GRACE_S
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan_path)], env=env)
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"timed process exceeded {budget} s") from None
    if code != 0:
        raise BenchError(f"timed process exited with code {code}")
    result = json.loads(Path(plan["result"]).read_text(encoding="utf-8"))
    if trace:
        result["spans"] = json.loads(Path(plan["spans"]).read_text(encoding="utf-8"))
    return result


def assess(calls, result) -> list[dict]:
    """Check every call's output; classify it as ok, failed or wrong."""
    outcomes = []
    for rec in result["records"]:
        call = calls[rec["call"]]
        item = {"rec": rec, "call": call, "ok": False, "wrong": False, "units": 0, "problems": []}
        if rec["crash"] is not None:
            item["wrong"] = True
            item["problems"] = [rec["crash"].strip().splitlines()[-1]]
        elif rec["code"] != 0:
            # The program reported its own failure through a documented
            # exit code: a failed call, but not a wrong answer.
            item["problems"] = [f"exit {rec['code']}: {rec['stderr'].strip()}"]
        else:
            with open(rec["out"], encoding="utf-8") as handle:
                doc = json.load(handle)
            item["problems"] = checks.check(doc, call)
            if item["problems"]:
                item["wrong"] = True
            else:
                item["ok"] = True
                item["units"] = checks.units(doc, call)
                item["out_bytes"] = os.path.getsize(rec["out"])
        outcomes.append(item)
    return outcomes


def relative(rec) -> float:
    """A call's wall time in units of the reference loop timed around it."""
    return rec["wall_s"] / statistics.fmean(rec["ref_s"])


def describe(item) -> str:
    call, rec = item["call"], item["rec"]
    where = ""
    if "file" in call:
        f = call["file"]
        where = f" {Path(f['path']).name} n={f['n']} {'raw' if f['raw'] else 'std'}"
    elif "mc" in call:
        where = f" {call['mc']['kind']} {call['mc']['method']} seed={call['mc']['seed']}"
    status = "ok" if item["ok"] else ("WRONG" if item["wrong"] else "failed")
    line = f"  {call['kind']}{where} {status} {rec['wall_s']:.4f}s = {relative(rec):.2f} ref"
    if item["problems"]:
        line += " | " + "; ".join(item["problems"][:3])
    return line


def end_to_end(outcomes, result, setup_samples) -> dict:
    good = [o for o in outcomes if o["ok"]]
    if not good:
        raise BenchError("no call succeeded, so no latency can be measured")
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ref": statistics.median(relative(o["rec"]) for o in good),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def span_tables(spans):
    """Self time per span and the op (root span) each span belongs to."""
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    duration = [e - s for s, e in zip(spans["start"], spans["end"])]
    self_ns = list(duration)
    root = [0] * len(duration)
    for k, p in enumerate(parent):
        if p >= 0:
            self_ns[p] -= duration[k]
            root[k] = root[p]
        else:
            root[k] = k
    return names, name_id, duration, self_ns, root


def per_layer(outcomes, traced, untraced) -> tuple[dict, list[str], list[dict]]:
    spans = traced["spans"]
    names, name_id, duration, self_ns, root = span_tables(spans)
    layer_self = {}
    counts_by_name = {}
    op_counts = {}
    for k, nid in enumerate(name_id):
        name = names[nid]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns[k]
        counts_by_name[name] = counts_by_name.get(name, 0) + 1
        per_op = op_counts.setdefault(root[k], {})
        per_op[name] = per_op.get(name, 0) + 1
    parse_ns = sum(duration[k] for k, nid in enumerate(name_id) if names[nid] == "cli.read_dataset_csv")

    values = {
        "cli.parse_s": parse_ns / 1e9,
        "cli.parse_cells": sum(spans["sizes"]["cells"].values()),
        "cli.out_bytes": sum(o.get("out_bytes", 0) for o in outcomes),
        "distributions.quantile_cold": sum(spans["sizes"]["cold"].values()),
    }
    for layer in tracer.LAYERS[1:]:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0) / 1e9
    for metric, fns in COUNTS.items():
        values[metric] = sum(counts_by_name.get(fn, 0) for fn in fns)

    # Coverage guard: a successful call must record at least one edge test
    # per decision it wrote, or some binding escaped the wrappers.
    problems, rows = [], []
    tests = decisions = 0
    for o in outcomes:
        counted = op_counts.get(o["rec"]["span"], {})
        row = {
            "edge_tests": sum(counted.get(fn, 0) for fn in EDGE_TESTS),
            "decisions": o["units"],
            **{metric: sum(counted.get(fn, 0) for fn in fns) for metric, fns in COUNTS.items()
               if metric != "independence.edge_tests"},
        }
        rows.append(row)
        if o["ok"]:
            tests += row["edge_tests"]
            decisions += row["decisions"]
            if row["edge_tests"] < row["decisions"]:
                problems.append(
                    f"{describe(o).strip()}: {row['edge_tests']} edge tests for {row['decisions']} decisions"
                )
    values["independence.tests_per_decision"] = tests / decisions if decisions else 0.0
    traced_wall = sum(r["wall_s"] for r in traced["records"])
    untraced_wall = sum(r["wall_s"] for r in untraced["records"])
    values["trace_overhead"] = traced_wall / untraced_wall
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    return metrics, problems, rows


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    rundir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir()
    env = child_env()
    try:
        calls, probe_calls = workloads.build(workload, seed, str(rundir))
        missed = checks.negative_control()
        probe = assess(probe_calls, run_worker(probe_calls, rundir, "probe", 0, False, env)) if probe_calls else []
        calibration_before = reference_s(CALIBRATION_ITERATIONS)
        if trace:
            calls = calls[: workloads.TRACE_CALLS[workload]]
            untraced = run_worker(calls, rundir, "untraced", 0, False, env)
            traced = run_worker(calls, rundir, "traced", 0, True, env)
            outcomes = assess(calls, untraced) + assess(calls, traced)
            traced_outcomes = outcomes[len(untraced["records"]):]
        else:
            setup_samples = [setup_probe(env) for _ in range(SETUP_PROBES)]
            cycle = workloads.CYCLES.get(workload, 1)
            result = run_worker(calls, rundir, "untraced", seconds, False, env, cycle)
            setup_samples += [setup_probe(env) for _ in range(SETUP_PROBES)]
            outcomes = assess(calls, result)
        calibration_after = reference_s(CALIBRATION_ITERATIONS)

        problems = [f"negative control: {m}" for m in missed]
        problems += [describe(o).strip() for o in outcomes + probe if o["wrong"]]
        if trace:
            metrics, guard, rows = per_layer(traced_outcomes, traced, untraced)
            problems += [f"coverage guard: {g}" for g in guard]
            (records / f"{workload}-spans.json").write_text(json.dumps(traced["spans"]), encoding="utf-8")
        else:
            metrics = end_to_end(outcomes, result, setup_samples)

        print(f"workload {workload}  seed {seed}  trace {int(trace)}")
        if probe:
            failed = sum(not o["ok"] for o in probe)
            print(f"known-defect probe (raw-unit files; not timed, not counted): {failed} of {len(probe)} failed")
            for o in probe:
                print(describe(o))
        for k, o in enumerate(outcomes):
            print(describe(o))
            if trace and k >= len(untraced["records"]):
                row = rows[k - len(untraced["records"])]
                print("    counts: " + ", ".join(f"{name}={v}" for name, v in row.items()))
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        if not trace:
            walls = [o["rec"]["wall_s"] for o in outcomes if o["ok"]]
            print(f"  {'(median call wall time)':34s} {statistics.median(walls):.6g} s")
        for p in problems:
            print(f"  PROBLEM {p}")
        doc = {
            "correct": not problems,
            "attempted": len(outcomes),
            "failed": sum(not o["ok"] for o in outcomes),
            "metrics": metrics,
        }
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": machine_record(),
            "calibration_s": {"before": calibration_before, "after": calibration_after},
            "defect_probe": [describe(o).strip() for o in probe],
            "result": doc,
        }
        print("record " + json.dumps({k: record[k] for k in ("machine", "calibration_s")}))
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (records / f"{workload}-s{seed}-t{int(trace)}-{stamp}-{os.getpid()}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8"
        )
        return doc
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="concgraph benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "concgraph" / "cli.py").is_file():
        sys.stderr.write(f"error: no program to measure: {SRC / 'concgraph'} is missing\n")
        return 2
    try:
        if args.workload == "all":
            docs = {}
            for name in workloads.NAMES:
                docs[name] = {f"trace{t}": run_one(name, args.seed, args.seconds, bool(t)) for t in (0, 1)}
            print(json.dumps(docs))
        else:
            print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
