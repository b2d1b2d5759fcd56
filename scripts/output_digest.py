#!/usr/bin/env python3
"""Print one sha256 per fixed CLI call, so that a claim that a change
keeps every report byte-identical is one command and one diff:

    python scripts/output_digest.py > before.txt
    # ... change the program ...
    python scripts/output_digest.py > after.txt
    diff before.txt after.txt

Each line is ``<sha256 of stdout>  exit=<code>  <call>``.  The calls,
in order:

- the reference Monte Carlo, verify and size/power commands;
- ``select`` on two ``scripts/make_dataset.py`` files for every method,
  correction and output format, and ``verify --input`` on both files;
- an N = 30, n = 150 chain, selected with every method under
  ``--correction holm`` in json and tsv (435 pairs, all decided at the
  level where Holm's step-down stops);
- a file whose header names hold a tab and the control character
  U+0001, selected in every format;
- 1000-replication Monte Carlo runs: size and power for every method, an
  odd n - N (a half-integer shape), and master seeds of two, three and
  four 32-bit words, whose substream keys (seed, k) hash more entropy
  words than the others;
- ``verify --input`` on an N = 40, n = 160 chain whose first half of
  columns is scaled by 1e5 and second half by 1e-5;
- ``select`` in json and tsv and ``verify --input`` on a one-variable
  file, which has no pair, so that the empty tables are pinned;
- the N = 30 chain with every method under ``--correction none`` and
  ``bonferroni``, in json and tsv, and an N = 8, n = 20,000 chain (m near
  10^4, where the continued fraction takes the most steps) with every
  method in json and tsv;
- ``select --correction holm`` with every method in json and tsv on the
  one-variable file and on a ``make_dataset.py`` file of one strongly
  dependent pair, which Holm rejects at alpha itself;
- ``select`` in json with every method on the N = 30 chain with its odd
  columns scaled by 2^600 and its even ones by 2^-600, whose products
  overflow or underflow in the data's units: each line's hash is that of
  the unscaled chain's ``--correction none`` json line;
- ``select --method fisher --alpha 1e-300`` on the N = 30 chain, a level
  at which 1 - alpha/2 rounds to 1;
- ``select --alpha 5e-324`` on the N = 30 chain, the one level in (0, 1)
  whose half rounds to 0, which exits 1 with no output.

Every call runs in a fresh interpreter with ``src/`` first on the path.
"""

import argparse
import csv
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# make_dataset.py arguments of each input file: (name, arguments).
DATASETS = (
    ("chain6", ["--dim", "6", "--n", "40", "--rho", "0.6", "--seed", "3"]),
    ("edge12", ["--dim", "12", "--n", "90", "--rho", "0.35", "--seed", "11"]),
)
# One strongly dependent pair, which Holm rejects at alpha itself.
PAIR = ("pair2", ["--dim", "2", "--n", "40", "--rho", "0.6"])
# Written here with numpy alone, so the input does not depend on src/:
# (name, dim, n, seed, header names or None for v0, v1, ...).
CHAIN = ("chain30", 30, 150, 5, None)
CONTROL = ("control", 4, 30, 2, ("a\tb", "c\x01d", "e\\f", "g"))
MIXED = ("mixed40", 40, 160, 4, None)
# The chain again, odd columns scaled by 2^600 and even ones by 2^-600.
EXTREME = ("extreme30", 30, 150, 5, None)
ONE = ("one", 1, 12, 6, None)
TALL = ("tall8", 8, 20000, 7, None)
METHODS = ("umpu", "partial-corr", "fisher")
CORRECTIONS = ("none", "bonferroni", "holm")
FORMATS = ("json", "tsv", "dot")


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(argv: list[str]) -> tuple[str, int]:
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, check=False
    )
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def calls(workdir: str) -> list[tuple[str, list[str]]]:
    """(label, interpreter arguments) of every digested call."""
    out = [
        ("montecarlo --dim 5 --n 25 --reps 20000 --seed 7",
         ["-m", "concgraph", "montecarlo", "--dim", "5", "--n", "25", "--reps", "20000", "--seed", "7"]),
        ("verify --reps 2000 --seed 1",
         ["-m", "concgraph", "verify", "--reps", "2000", "--seed", "1"]),
        ("scripts/run_size_power.py --reps 1000",
         ["scripts/run_size_power.py", "--reps", "1000"]),
    ]
    for name, _ in DATASETS:
        path = os.path.join(workdir, f"{name}.csv")
        for method in METHODS:
            for correction in CORRECTIONS:
                for fmt in FORMATS:
                    flags = ["--method", method, "--correction", correction, "--format", fmt]
                    out.append((f"select {name} {' '.join(flags)}",
                                ["-m", "concgraph", "select", "--input", path, *flags]))
        out.append((f"verify --input {name}", ["-m", "concgraph", "verify", "--input", path]))
    for method in METHODS:
        for fmt in ("json", "tsv"):
            flags = ["--method", method, "--correction", "holm", "--format", fmt]
            out.append((f"select {CHAIN[0]} {' '.join(flags)}",
                        ["-m", "concgraph", "select", "--input", os.path.join(workdir, "chain30.csv"), *flags]))
    for fmt in FORMATS:
        out.append((f"select {CONTROL[0]} --format {fmt}",
                    ["-m", "concgraph", "select", "--input", os.path.join(workdir, "control.csv"),
                     "--format", fmt]))
    mc_runs = [
        [*kind, "--method", method, "--seed", "3"]
        for method in METHODS
        for kind in (["--n", "25"], ["--n", "50", "--rho", "0.3"])
    ]
    mc_runs += [
        ["--n", "26", "--method", "umpu", "--seed", "3"],
        ["--n", "25", "--seed", str(2**32)],
        ["--n", "50", "--rho", "0.3", "--method", "umpu", "--seed", str(2**64 + 5)],
        ["--n", "25", "--method", "umpu", "--seed", str(2**128 - 1)],
    ]
    for flags in mc_runs:
        argv = ["montecarlo", "--dim", "5", "--reps", "1000", *flags]
        out.append((" ".join(argv), ["-m", "concgraph", *argv]))
    out.append((f"verify --input {MIXED[0]}",
                ["-m", "concgraph", "verify", "--input", os.path.join(workdir, "mixed40.csv")]))
    one = os.path.join(workdir, f"{ONE[0]}.csv")
    for fmt in ("json", "tsv"):
        out.append((f"select {ONE[0]} --format {fmt}",
                    ["-m", "concgraph", "select", "--input", one, "--format", fmt]))
    out.append((f"verify --input {ONE[0]}", ["-m", "concgraph", "verify", "--input", one]))
    last = (
        (CHAIN[0], ("none", "bonferroni")),
        (TALL[0], ("none",)),
        (ONE[0], ("holm",)),
        (PAIR[0], ("holm",)),
    )
    for name, corrections in last:
        for method in METHODS:
            for correction in corrections:
                for fmt in ("json", "tsv"):
                    flags = ["--method", method, "--correction", correction, "--format", fmt]
                    out.append((f"select {name} {' '.join(flags)}",
                                ["-m", "concgraph", "select", "--input",
                                 os.path.join(workdir, f"{name}.csv"), *flags]))
    for method in METHODS:
        out.append((f"select {EXTREME[0]} --method {method} --format json",
                    ["-m", "concgraph", "select", "--input", os.path.join(workdir, "extreme30.csv"),
                     "--method", method, "--format", "json"]))
    out.append((f"select {CHAIN[0]} --method fisher --alpha 1e-300",
                ["-m", "concgraph", "select", "--input", os.path.join(workdir, "chain30.csv"),
                 "--method", "fisher", "--alpha", "1e-300"]))
    out.append((f"select {CHAIN[0]} --alpha 5e-324",
                ["-m", "concgraph", "select", "--input", os.path.join(workdir, "chain30.csv"),
                 "--alpha", "5e-324"]))
    return out


def write_chain(path: str, dim: int, n: int, seed: int, names, scale=1.0) -> None:
    """n draws of a Gaussian chain: precision 1 on the diagonal and -0.3
    between neighbours; column j is multiplied by scale[j]."""
    k = np.eye(dim)
    idx = np.arange(dim - 1)
    k[idx, idx + 1] = k[idx + 1, idx] = -0.3
    factor = np.linalg.cholesky(np.linalg.inv(k))
    values = np.random.default_rng(seed).standard_normal((n, dim)) @ factor.T * scale
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names or [f"v{j}" for j in range(dim)])
        writer.writerows([[repr(v) for v in row] for row in values.tolist()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        for name, args in (*DATASETS, PAIR):
            path = os.path.join(workdir, f"{name}.csv")
            subprocess.run(
                [sys.executable, "scripts/make_dataset.py", *args, "--out", path],
                cwd=ROOT, env=_env(), check=True,
            )
        for name, dim, n, seed, names in (CHAIN, CONTROL, ONE, TALL):
            write_chain(os.path.join(workdir, f"{name}.csv"), dim, n, seed, names)
        name, dim, n, seed, names = MIXED
        scale = np.where(np.arange(dim) < dim // 2, 1e5, 1e-5)
        write_chain(os.path.join(workdir, f"{name}.csv"), dim, n, seed, names, scale)
        name, dim, n, seed, names = EXTREME
        scale = np.where(np.arange(dim) % 2 == 1, 2.0**600, 2.0**-600)
        write_chain(os.path.join(workdir, f"{name}.csv"), dim, n, seed, names, scale)
        for label, args in calls(workdir):
            digest, code = _run(args)
            print(f"{digest}  exit={code}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
