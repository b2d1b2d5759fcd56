#!/usr/bin/env python3
"""Record the benchmark runs of a parent and a change in a BENCH_*.json
file, alternating the two checkouts:

    python scripts/bench_record.py PARENT CHANGE OUT

Runs, in each checkout with the interpreter that runs this script:

- ``perfbench/run.py --workload all --seed S --seconds 20`` for S = 1, 2
  and 3 (every workload, untraced and traced; about 2 minutes each);
- the calls of ``scripts/scale_timings.py --dims 200 1000`` (whole CLI
  processes on chain files, with each process's peak memory; several
  minutes).

Each perfbench step runs both checkouts back to back, and the one that
goes first alternates from step to step (the parent first at seed 1).
The scale calls are timed by ``scale_timings.timings`` on both
checkouts at once: both read one chain file per N, written once, each
run of a call times both checkouts back to back, and the one that goes
first alternates from run to run.  So the host's drift over the
recording falls on both trees alike.

OUT is a JSON object ``{"trees": [...]}``.  Each tree is one checkout's
``git_rev`` and ``src_sha256``, as ``run.py`` prints them on its
``record`` lines, with the list of its runs; its scale run holds what
``scale_timings.py`` prints on its last line.  Runs of a tree already in
OUT are appended to it.  OUT is rewritten after every run, so a failed
run keeps the ones before it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import scale_timings  # noqa: E402

SEEDS = (1, 2, 3)
SECONDS = 20
DIMS = (200, 1000)


def parse_perfbench(text: str, seed: int) -> tuple[dict, dict]:
    """The (machine, run) of ``run.py --workload all`` output: the machine
    of its ``record`` lines, and one entry per workload holding the
    untraced and traced results with the calibration of each."""
    lines = text.splitlines()
    records = []
    workload = None
    for line in lines:
        if line.startswith("workload "):
            # "workload NAME  seed S  trace T"
            fields = line.split()
            workload, trace = fields[1], fields[5]
        elif line.startswith("record "):
            records.append((workload, trace, json.loads(line[len("record "):])))
    docs = json.loads(lines[-1])
    machines = {json.dumps(rec["machine"], sort_keys=True) for _, _, rec in records}
    if len(machines) != 1:
        raise ValueError(f"expected one machine record, got {len(machines)}")
    workloads = {name: {} for name in docs}
    for name, trace, rec in records:
        workloads[name][f"trace{trace}"] = {
            "result": docs[name][f"trace{trace}"],
            "calibration_s": rec["calibration_s"],
        }
    return records[0][2]["machine"], {"kind": "perfbench", "seed": seed, "seconds": SECONDS, "workloads": workloads}


def add_run(doc: dict, machine: dict, run: dict) -> None:
    """Append a run to the tree of ``machine``'s git revision and src/
    hash, adding the tree when OUT has none."""
    key = {"git_rev": machine["git_rev"], "src_sha256": machine["src_sha256"]}
    for tree in doc["trees"]:
        if {k: tree[k] for k in key} == key:
            break
    else:
        tree = dict(key, runs=[])
        doc["trees"].append(tree)
    tree["runs"].append(dict(run, machine=machine))


def run(argv: list[str], cwd: Path) -> str:
    sys.stderr.write(f"running {' '.join(argv)} in {cwd}\n")
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def write(doc: dict, out: Path) -> None:
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, out)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 1
    parent, change, out = Path(argv[0]).resolve(), Path(argv[1]).resolve(), Path(argv[2])
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"trees": []}
    machines = {}
    for step, seed in enumerate(SEEDS):
        for checkout in (parent, change) if step % 2 == 0 else (change, parent):
            text = run(["perfbench/run.py", "--workload", "all", "--seed", str(seed), "--seconds", str(SECONDS)], checkout)
            machines[checkout], entry = parse_perfbench(text, seed)
            add_run(doc, machines[checkout], entry)
            write(doc, out)
    results = scale_timings.timings((parent, change) if len(SEEDS) % 2 == 0 else (change, parent), DIMS)
    if any(t["exit"] for result in results.values() for t in result["timings"]):
        raise SystemExit("error: a scale call exited with an error")
    for checkout, result in results.items():
        add_run(doc, machines[checkout], {"kind": "scale_timings", "result": result})
    write(doc, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
