"""Output checks that do not use the code under test.

Each check returns a list of problems; an empty list means the output is
correct.  Partial correlations come from numpy's inverse of the
correlation matrix, Holm decisions from a step-down recomputed here, and
Monte Carlo counts from values recorded by record_golden.py.
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np

import inputs

STATISTIC_TOL = 1e-9
KS_TOL = 1e-9
ALPHA = 0.05
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "montecarlo_golden.json")


def partial_correlations(values: np.ndarray) -> np.ndarray:
    """r_ij = -P_ij / sqrt(P_ii P_jj) with P the inverse correlation matrix."""
    precision = np.linalg.inv(np.corrcoef(values, rowvar=False))
    d = np.sqrt(np.diag(precision))
    return -precision / np.outer(d, d)


@functools.lru_cache(maxsize=None)
def expected_r(seed: int, tag: int, index: int, dim: int, n: int, raw: bool) -> np.ndarray:
    return partial_correlations(inputs.dataset(seed, tag, index, dim, n, raw))


def file_r(f: dict) -> np.ndarray:
    return expected_r(*f["key"])


def holm_rejections(pvalues: list[float], alpha: float) -> list[bool]:
    """Holm step-down: sort p ascending, reject while p <= alpha / (m - rank)."""
    m = len(pvalues)
    reject = [False] * m
    for rank, k in enumerate(sorted(range(m), key=lambda k: (pvalues[k], k))):
        if pvalues[k] > alpha / (m - rank):
            break
        reject[k] = True
    return reject


def _pairs(dim: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(dim) for j in range(i + 1, dim)]


def check_select(doc: dict, r: np.ndarray, call: dict) -> list[str]:
    f = call["file"]
    problems = []
    if (doc.get("n"), doc.get("N"), doc.get("correction")) != (f["n"], f["dim"], call["correction"]):
        return [f"header {doc.get('n')}, {doc.get('N')}, {doc.get('correction')} does not match the input"]
    decisions = doc["decisions"]
    if [(d["i"], d["j"]) for d in decisions] != _pairs(f["dim"]):
        return ["decisions do not cover every pair in order"]
    for d in decisions:
        gap = abs(d["statistic"] - r[d["i"], d["j"]])
        if not gap <= STATISTIC_TOL:
            problems.append(f"edge ({d['i']}, {d['j']}): statistic off by {gap:.3g}")
        if not 0.0 <= d["p_value"] <= 1.0:
            problems.append(f"edge ({d['i']}, {d['j']}): p-value {d['p_value']} outside [0, 1]")
    pvalues = [d["p_value"] for d in decisions]
    if call["correction"] == "holm":
        expected = holm_rejections(pvalues, doc["alpha"])
    else:
        expected = [p <= doc["alpha"] for p in pvalues]
    for d, want in zip(decisions, expected):
        if d["reject"] != want:
            problems.append(f"edge ({d['i']}, {d['j']}): reject is {d['reject']}, expected {want}")
    edges = [[d["i"], d["j"]] for d in decisions if d["reject"]]
    if doc["edges"] != edges:
        problems.append("edge list differs from the rejected decisions")
    return problems


def check_verify_input(doc: dict, r: np.ndarray, call: dict) -> list[str]:
    f = call["file"]
    problems = []
    if doc.get("equivalent") is not True:
        problems.append("equivalent is not true")
    rows = doc.get("edges", [])
    if doc.get("instances") != len(rows) or [(e["i"], e["j"]) for e in rows] != _pairs(f["dim"]):
        return problems + ["rows do not cover every pair in order"]
    for e in rows:
        gap = abs(e["r"] - r[e["i"], e["j"]])
        if not gap <= STATISTIC_TOL:
            problems.append(f"edge ({e['i']}, {e['j']}): r off by {gap:.3g}")
    return problems


@functools.lru_cache(maxsize=1)
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        entries = json.load(handle)["calls"]
    return {(e["kind"], e["method"], e["seed"]): e for e in entries}


def check_montecarlo(doc: dict, call: dict) -> list[str]:
    mc = call["mc"]
    want = golden().get((mc["kind"], mc["method"], mc["seed"]))
    if want is None:
        return [f"no recorded result for {mc}"]
    method = mc["method"].replace("-", "_")
    problems = []
    if doc.get("replications") != mc["reps"] or doc.get("methods") != [method]:
        return ["report does not describe the call"]
    got = doc["per_method"][method]["rejections"]
    if got != want["rejections"]:
        problems.append(f"{got} rejections, recorded {want['rejections']}")
    if mc["kind"] == "power":
        null_hits = round(doc["null_rate"] * mc["reps"])
        if null_hits != want["null_rejections"]:
            problems.append(f"{null_hits} null rejections, recorded {want['null_rejections']}")
    else:
        gap = abs(doc["ks_statistic"] - want["ks_statistic"])
        if not gap <= KS_TOL:
            problems.append(f"KS statistic off by {gap:.3g}")
    return problems


def check(doc: dict, call: dict) -> list[str]:
    kind = call["kind"]
    if kind == "select":
        return check_select(doc, file_r(call["file"]), call)
    if kind == "verify-input":
        return check_verify_input(doc, file_r(call["file"]), call)
    return check_montecarlo(doc, call)


def units(doc: dict, call: dict) -> int:
    """Decisions a successful call wrote: one per pair for select and
    verify --input, one per simulated replication for montecarlo."""
    kind = call["kind"]
    if kind == "select":
        return len(doc["decisions"])
    if kind == "verify-input":
        return len(doc["edges"])
    return call["mc"]["reps"] * (2 if call["mc"]["kind"] == "power" else 1)


def negative_control() -> list[str]:
    """Feed the checkers two corrupted reports they must flag: a select
    report with one statistic's sign flipped, and a Monte Carlo report
    with a rejection count off by one.  Returns what went unflagged."""
    missed = []
    f = {"n": 30, "dim": 4}
    r = partial_correlations(inputs.dataset(0, 0, 0, f["dim"], f["n"], False))
    pairs = _pairs(f["dim"])
    call = {"kind": "select", "correction": "none", "file": f}
    doc = {
        "n": f["n"], "N": f["dim"], "alpha": ALPHA, "correction": "none",
        "decisions": [
            {"i": i, "j": j, "statistic": float(r[i, j]), "p_value": 0.5, "reject": False}
            for i, j in pairs
        ],
        "edges": [],
    }
    if check_select(doc, r, call):
        missed.append("select checker rejects a correct report")
    k = int(np.argmax([abs(r[i, j]) for i, j in pairs]))
    doc["decisions"][k]["statistic"] = -doc["decisions"][k]["statistic"]
    if not check_select(doc, r, call):
        missed.append("select checker missed a flipped statistic")

    want = next(iter(golden().values()))
    method = want["method"].replace("-", "_")
    mc_call = {"kind": "montecarlo", "mc": {k: want[k] for k in ("kind", "method", "seed", "reps")}}
    report = {
        "replications": want["reps"], "methods": [method],
        "per_method": {method: {"rejections": want["rejections"] + 1}},
        "ks_statistic": want.get("ks_statistic"),
        "null_rate": None if want["null_rejections"] is None else want["null_rejections"] / want["reps"],
    }
    if not check_montecarlo(report, mc_call):
        missed.append("Monte Carlo checker missed a rejection count off by one")
    report["per_method"][method]["rejections"] -= 1
    if check_montecarlo(report, mc_call):
        missed.append("Monte Carlo checker rejects a correct report")
    return missed
