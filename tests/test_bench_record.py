"""scripts/bench_record.py files canned ``perfbench/run.py --workload all``
output under the tree of its ``record`` lines, and alternates the parent
and the change step by step, and the scale calls run by run, without
running perfbench or the CLI."""

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


TIMING_KEYS = ["N", "n", "command", "exit", "runs", "seconds", "peak_rss_runs_mb", "peak_rss_mb"]


@pytest.fixture
def stub_scale(monkeypatch):
    """Stubs for scale_timings' chain writer and timer: the chains written
    and the (checkout, argv) of each timed run; the k-th run reads exit 0,
    k + 0.5 s and 10 k MB."""
    chains, timed = [], []

    def write_chain(path, dim, n):
        chains.append((Path(path).name, dim, n))
        Path(path).write_text("v0\n", encoding="utf-8")

    def time_call(argv, root):
        assert Path(argv[argv.index("--input") + 1]).exists()
        timed.append((root.name, argv))
        return 0, len(timed) + 0.5, 10.0 * len(timed)

    monkeypatch.setattr(BENCH.scale_timings, "write_chain_apart", write_chain)
    monkeypatch.setattr(BENCH.scale_timings, "time_call", time_call)
    return chains, timed


def test_scale_calls_alternate_run_by_run(tmp_path, stub_scale):
    chains, timed = stub_scale
    first, second = tmp_path / "first", tmp_path / "second"
    results = BENCH.scale_timings.timings((first, second), (5, 7))
    # one chain file per N, read by both trees
    assert chains == [("chain5.csv", 5, 20), ("chain7.csv", 7, 28)]
    # 2 N x 4 commands x 3 runs, each timing both trees; the tree that
    # goes first switches from run to run
    assert [name for name, _ in timed] == ["first", "second", "second", "first"] * 12
    assert all(a[1] == b[1] for a, b in zip(timed[::2], timed[1::2]))
    commands = [label for label, _ in BENCH.scale_timings.COMMANDS]
    for tree, name in ((first, "first"), (second, "second")):
        result = results[tree]
        assert sorted(result) == ["machine", "timings"]
        assert {"cpu", "nproc", "python", "numpy"} <= set(result["machine"])
        ks = [k + 1 for k, (who, _) in enumerate(timed) if who == name]
        assert len(result["timings"]) == 8
        for c, t in enumerate(result["timings"]):
            assert list(t) == TIMING_KEYS
            assert (t["N"], t["n"], t["command"], t["exit"]) == (
                (5, 20) if c < 4 else (7, 28)) + (commands[c % 4], 0)
            runs = ks[3 * c:3 * c + 3]
            assert t["runs"] == [k + 0.5 for k in runs]
            assert t["seconds"] == runs[1] + 0.5
            assert t["peak_rss_runs_mb"] == [10.0 * k for k in runs]
            assert t["peak_rss_mb"] == 10.0 * runs[1]
    json.dumps(results[first])


def test_alternates_the_two_checkouts(tmp_path, monkeypatch, stub_scale):
    parent, change = tmp_path / "parent", tmp_path / "change"
    revs = {parent: MACHINE, change: dict(MACHINE, git_rev="abc", src_sha256="fedcba9876543210")}
    calls = []

    def fake_run(argv, cwd):
        calls.append((cwd.name, argv[0]))
        return canned_output(revs[cwd])

    monkeypatch.setattr(BENCH, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert BENCH.main([str(parent), str(change), str(out)]) == 0
    assert calls == [
        ("parent", "perfbench/run.py"), ("change", "perfbench/run.py"),
        ("change", "perfbench/run.py"), ("parent", "perfbench/run.py"),
        ("parent", "perfbench/run.py"), ("change", "perfbench/run.py"),
    ]
    # the scale calls go on alternating, the change first
    chains, timed = stub_scale
    assert [dim for _, dim, _ in chains] == [200, 1000]
    assert [name for name, _ in timed] == ["change", "parent", "parent", "change"] * 12
    trees = json.loads(out.read_text(encoding="utf-8"))["trees"]
    assert [t["git_rev"] for t in trees] == [MACHINE["git_rev"], "abc"]
    for tree in trees:
        assert [r.get("seed") for r in tree["runs"]] == [1, 2, 3, None]
        scale = tree["runs"][-1]
        assert scale["kind"] == "scale_timings"
        assert [(t["N"], t["command"]) for t in scale["result"]["timings"]] == [
            (dim, label) for dim in (200, 1000) for label, _ in BENCH.scale_timings.COMMANDS
        ]


def test_a_failed_scale_call_is_not_recorded(tmp_path, monkeypatch, stub_scale):
    parent, change = tmp_path / "parent", tmp_path / "change"
    revs = {parent: MACHINE, change: dict(MACHINE, git_rev="abc", src_sha256="fedcba9876543210")}
    monkeypatch.setattr(BENCH, "run", lambda argv, cwd: canned_output(revs[cwd]))
    monkeypatch.setattr(BENCH.scale_timings, "time_call", lambda argv, root: (1, 0.5, 10.0))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="scale call"):
        BENCH.main([str(parent), str(change), str(out)])
    trees = json.loads(out.read_text(encoding="utf-8"))["trees"]
    assert [[r["seed"] for r in t["runs"]] for t in trees] == [[1, 2, 3], [1, 2, 3]]


def test_needs_both_checkouts_and_out(capsys):
    assert BENCH.main(["one", "out.json"]) == 1
    assert "PARENT CHANGE OUT" in capsys.readouterr().err
