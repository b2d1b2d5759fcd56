#!/usr/bin/env python3
"""Mutation study of `verify`: does it catch a wrong conditional route?

    python scripts/mutation_study.py

Each mutation replaces one piece of text in a copy of ``src/`` (the text
must occur exactly once).  The mutated copy then runs, each in a fresh
interpreter:

* ``verify --reps 2000 --seed 1``;
* ``verify --input`` on an N = 40, n = 160 chain written with numpy;
* ``verify --input`` on the mixed-unit N = 40 file that
  ``scripts/output_digest.py`` writes (half the columns scaled by 1e5,
  half by 1e-5).

One row per mutation gives, per call, the exit code, the counts of
decision disagreements (d) and raw-scale disagreements (raw), the
largest |t - r| (gap) and the largest |(1 - 2q) - c| (tgap); an exit without a report (2: the edge admits no
positive-definite completion) shows the code alone.  The script exits 1
when the unmutated copy fails any call, or when any mutation exits 0 on
any call: a mutation that verify lets pass is a bug it would not catch.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
INDEPENDENCE = "concgraph/independence.py"
MATRICES = "concgraph/matrices.py"

# (label, file under src/, text, replacement)
MUTATIONS = (
    ("q at alpha, not alpha/2", INDEPENDENCE,
     "q = beta_sym_quantile(alpha / 2.0,", "q = beta_sym_quantile(alpha,"),
    ("beta shape m + 1/2", INDEPENDENCE,
     "(n - s.dim) / 2.0)", "(n - s.dim + 1) / 2.0)"),
    ("x1 and x2 swapped", INDEPENDENCE,
     "scale * (x1 + width * q), scale * (x2 - width * q)",
     "scale * (x2 - width * q), scale * (x1 + width * q)"),
    ("s_ii read for s_ij", INDEPENDENCE,
     "threshold_reject(s.entries[i, j], c_lo, c_hi)",
     "threshold_reject(s.entries[i, i], c_lo, c_hi)"),
    ("scale factor dropped", INDEPENDENCE,
     "scale = np.sqrt(s.entries[i, i]) * np.sqrt(s.entries[j, j])", "scale = 1.0"),
    ("s_ii as the scale factor", INDEPENDENCE,
     "scale = np.sqrt(s.entries[i, i]) * np.sqrt(s.entries[j, j])",
     "scale = s.entries[i, i]"),
    ("half the interval width", INDEPENDENCE,
     "width = x2 - x1", "width = (x2 - x1) / 2.0"),
    ("-b for b in pd_interval's roots", MATRICES,
     "(b - root) / (2.0 * a), (b + root) / (2.0 * a)",
     "(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)"),
    ("x * 1.5 in t", INDEPENDENCE,
     "_lemma_coefficients(r, g, i, j), r[i, j])",
     "_lemma_coefficients(r, g, i, j), 1.5 * r[i, j])"),
    ("-a in the lemma", MATRICES,
     "return k, 2.0", "return -k, 2.0"),
    ("b's sign in the lemma", MATRICES,
     "2.0 * (g + k * r)", "-2.0 * (g + k * r)"),
    ("b without its 2 in the lemma", MATRICES,
     "2.0 * (g + k * r)", "(g + k * r)"),
    ("c without its 2 in the lemma", MATRICES,
     "1.0 - 2.0 * g * r - k * r * r", "1.0 - g * r - k * r * r"),
    ("k with +g**2 in the lemma", MATRICES,
     "k = table[i, i] * table[j, j] - g * g",
     "k = table[i, i] * table[j, j] + g * g"),
    ("G_ii read for G_ij", MATRICES,
     "g = table[i, j]", "g = table[i, i]"),
    ("G_ij * (1 + 1e-6)", MATRICES,
     "g = table[i, j]", "g = table[i, j] * (1.0 + 1e-6)"),
)

CHAIN = ("chain40", 40, 160, 4)


def mutate(src: Path, file: str, text: str, replacement: str) -> None:
    path = src / file
    code = path.read_text(encoding="utf-8")
    if code.count(text) != 1:
        raise SystemExit(f"{file}: {text!r} occurs {code.count(text)} times, not once")
    path.write_text(code.replace(text, replacement), encoding="utf-8")


def write_inputs(workdir: str) -> list[str]:
    """The two --input files: a chain and output_digest.py's mixed-unit
    file."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from output_digest import MIXED, write_chain

    name, dim, n, seed = CHAIN
    chain = os.path.join(workdir, f"{name}.csv")
    write_chain(chain, dim, n, seed, None)
    name, dim, n, seed, names = MIXED
    mixed = os.path.join(workdir, f"{name}.csv")
    write_chain(mixed, dim, n, seed, names, np.where(np.arange(dim) < dim // 2, 1e5, 1e-5))
    return [chain, mixed]


def run(src: Path, args: list[str]) -> tuple[int, str]:
    """Exit code and a short summary of one verify call."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "concgraph", "verify", *args],
        env=env, capture_output=True, text=True, check=False,
    )
    try:
        doc = json.loads(proc.stdout)
    except ValueError:
        return proc.returncode, str(proc.returncode)
    return proc.returncode, (
        f"{proc.returncode}, d {doc['disagreements']}, raw {doc['raw_scale_disagreements']}, "
        f"gap {doc['max_statistic_gap']:.1e}, tgap {doc['max_threshold_gap']:.1e}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        calls = [["--reps", "2000", "--seed", "1"]]
        calls += [["--input", path] for path in write_inputs(workdir)]
        print("| Mutation | reps 2000 | N = 40 chain | mixed units |")
        print("|---|---|---|---|")
        for label, file, text, replacement in (("none", None, None, None), *MUTATIONS):
            src = Path(workdir) / "src"
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            if file is not None:
                mutate(src, file, text, replacement)
            results = [run(src, args) for args in calls]
            codes = [code for code, _ in results]
            # The unmutated copy must pass everywhere, a mutation nowhere.
            failed |= any(codes) if file is None else not all(codes)
            print(f"| {label} | " + " | ".join(summary for _, summary in results) + " |",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
