"""scripts/bench_record.py files canned ``perfbench/run.py --workload all``
output under the tree of its ``record`` lines, and alternates the parent
and the change step by step, without running perfbench."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = load_script()

MACHINE = {
    "nproc": 2, "cpu": "Test CPU", "python": "3.11.7", "numpy": "2.4.6",
    "git_rev": "f2a0881fdde7c6b30613318ad6d1e6564b146ecf", "src_sha256": "0123456789abcdef",
}


def doc(op_p50_ref):
    return {
        "correct": True, "attempted": 12, "failed": 0,
        "metrics": {"op_p50_ref": {"value": op_p50_ref, "unit": "ratio"}},
    }


def canned_output(machine=MACHINE):
    """Output of a two-workload run in run.py's format: per run a header,
    call lines, metric lines and a record line; last, the JSON of every
    run's result."""
    lines, docs = [], {}
    for k, name in enumerate(("select-tall", "montecarlo")):
        docs[name] = {}
        for trace in (0, 1):
            lines += [
                f"workload {name}  seed 2  trace {trace}",
                "  ok   select  0.0123 s",
                f"  op_p50_ref                         {k + 0.5:.6g} ratio",
                "record " + json.dumps({"machine": machine, "calibration_s": {"before": 0.025, "after": 0.026 + trace}}),
            ]
            docs[name][f"trace{trace}"] = doc(k + 0.5 + trace)
    return "\n".join(lines + [json.dumps(docs)]) + "\n"


def test_parses_every_workload_and_trace():
    machine, run = BENCH.parse_perfbench(canned_output(), seed=2)
    assert machine == MACHINE
    assert run["kind"] == "perfbench" and run["seed"] == 2 and run["seconds"] == 20
    assert sorted(run["workloads"]) == ["montecarlo", "select-tall"]
    montecarlo = run["workloads"]["montecarlo"]
    assert montecarlo["trace0"]["result"] == doc(1.5)
    assert montecarlo["trace1"]["result"] == doc(2.5)
    assert montecarlo["trace1"]["calibration_s"] == {"before": 0.025, "after": 1.026}


def test_runs_of_one_tree_are_appended_to_it():
    out = {"trees": []}
    child = dict(MACHINE, git_rev="abc", src_sha256="fedcba9876543210")
    for machine, seed in ((MACHINE, 1), (child, 1), (MACHINE, 2)):
        BENCH.add_run(out, *BENCH.parse_perfbench(canned_output(machine), seed))
    assert [(t["git_rev"], t["src_sha256"]) for t in out["trees"]] == [
        (MACHINE["git_rev"], MACHINE["src_sha256"]), ("abc", "fedcba9876543210"),
    ]
    assert [r["seed"] for r in out["trees"][0]["runs"]] == [1, 2]
    assert out["trees"][1]["runs"][0]["machine"] == child
    json.dumps(out)


def test_refuses_records_of_two_machines():
    text = canned_output().replace('"cpu": "Test CPU"', '"cpu": "Other CPU"', 1)
    with pytest.raises(ValueError, match="one machine record"):
        BENCH.parse_perfbench(text, seed=2)


def test_alternates_the_two_checkouts(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    revs = {parent: MACHINE, change: dict(MACHINE, git_rev="abc", src_sha256="fedcba9876543210")}
    calls = []

    def fake_run(argv, cwd):
        calls.append((cwd.name, argv[0]))
        if argv[0] == "scripts/scale_timings.py":
            return "N = 200\n" + json.dumps({"machine": {}, "timings": [cwd.name]}) + "\n"
        return canned_output(revs[cwd])

    monkeypatch.setattr(BENCH, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert BENCH.main([str(parent), str(change), str(out)]) == 0
    assert calls == [
        ("parent", "perfbench/run.py"), ("change", "perfbench/run.py"),
        ("change", "perfbench/run.py"), ("parent", "perfbench/run.py"),
        ("parent", "perfbench/run.py"), ("change", "perfbench/run.py"),
        ("change", "scripts/scale_timings.py"), ("parent", "scripts/scale_timings.py"),
    ]
    trees = json.loads(out.read_text(encoding="utf-8"))["trees"]
    assert [t["git_rev"] for t in trees] == [MACHINE["git_rev"], "abc"]
    for tree, name in zip(trees, ("parent", "change")):
        assert [r.get("seed") for r in tree["runs"]] == [1, 2, 3, None]
        assert tree["runs"][-1]["result"]["timings"] == [name]


def test_needs_both_checkouts_and_out(capsys):
    assert BENCH.main(["one", "out.json"]) == 1
    assert "PARENT CHANGE OUT" in capsys.readouterr().err
