"""Record the Monte Carlo results the benchmark checks its runs against.

    python3 perfbench/record_golden.py

Runs every (kind, method, seed) call the montecarlo workload can make
through ``concgraph.cli.main`` and writes montecarlo_golden.json beside
this file.  Run it only at a commit whose Monte Carlo output is trusted;
the benchmark then holds every later commit to the same counts.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import concgraph.cli as cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    entries = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out.json")
        for seed in range(workloads.MONTECARLO_SEEDS):
            for kind, method in workloads.MONTECARLO_COMBOS:
                call = workloads.montecarlo_call(kind, method, seed)
                if cli.main(call["argv"] + ["--out", out]) != 0:
                    raise SystemExit(f"montecarlo call failed: {call['argv']}")
                with open(out, encoding="utf-8") as handle:
                    doc = json.load(handle)
                reps = call["mc"]["reps"]
                entries.append(
                    {
                        **call["mc"],
                        "rejections": doc["per_method"][method.replace("-", "_")]["rejections"],
                        "null_rejections": None if kind == "size" else round(doc["null_rate"] * reps),
                        "ks_statistic": doc["ks_statistic"],
                    }
                )
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"calls": entries}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
