import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(wall, rss, failed=0):
    return {"correct": failed == 0, "attempted": 4, "failed": failed, "metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def test_summary_gives_medians_quartiles_and_pair_wins():
    runs = {
        "parent": [_result(w, 50.0) for w in (1.0, 1.2, 0.9, 1.1, 1.3)],
        # pair 4 ties on wall_s; every pair ties on peak_rss_mb
        "change": [_result(w, 50.0) for w in (0.8, 1.0, 1.0, 1.1, 0.7)],
    }
    values = bench_pairs.run_values(runs)
    assert values["parent_wall_s"] == [1.0, 1.2, 0.9, 1.1, 1.3]
    assert values["change_failed"] == [0] * 5
    summary = bench_pairs.summarize(values)
    wall = summary["wall_s"]
    assert wall["parent_median"] == 1.1 and wall["change_median"] == 1.0
    # statistics.quantiles' exclusive method on five runs
    assert (wall["parent_q1"], wall["parent_q3"]) == (0.95, 1.25)
    assert (wall["change_q1"], wall["change_q3"]) == (0.75, 1.05)
    assert wall["parent_iqr"] == 0.3
    assert wall["change_pct"] == -9.09
    assert wall["change_wins"] == 3 and wall["pairs"] == 5
    assert summary["peak_rss_mb"]["change_wins"] == 0
    assert summary["peak_rss_mb"]["change_pct"] == 0.0


@pytest.mark.parametrize("parent, change", [([1.0], [1.0]), ([1.0, 1.0], [1.0] * 3)])
def test_summary_needs_two_pairs_on_each_side(parent, change):
    with pytest.raises(ValueError):
        bench_pairs.summarize({"parent_wall_s": parent, "change_wall_s": change})


def test_a_key_run_again_appends_its_pairs(tmp_path, monkeypatch):
    walls = iter([1.0, 0.9, 0.8, 1.1, 1.2, 1.0, 1.0, 0.9, 0.8, 1.3])
    order = []

    def run_once(checkout, workload, seed, warm=False):
        order.append(checkout.name)
        return {"commit": "abc", "seconds": 30.0}, _result(next(walls), 50.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "pairs.json"
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "certify", "--out", str(out), "--pairs"]
    assert bench_pairs.main(args + ["2"]) == 0
    assert bench_pairs.main(args + ["3"]) == 0
    assert order == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    doc = json.loads(out.read_text())
    runs = doc["runs"]["certify seed 1"]
    assert runs["batches"] == [2, 3]
    assert runs["parent_wall_s"] == [1.0, 1.1, 1.2, 0.9, 0.8]
    assert runs["change_wall_s"] == [0.9, 0.8, 1.0, 1.0, 1.3]
    assert doc["summary"]["certify seed 1"]["wall_s"]["pairs"] == 5
    assert doc["summary"]["certify seed 1"]["wall_s"]["change_wins"] == 3
    assert doc["facts"]["parent_commit"] == "abc"
    assert doc["facts"]["run_seconds"] == 30.0
    assert "--seconds" not in doc["commands"]["certify seed 1"]


def _fake_bench(monkeypatch, seen):
    def run(cmd, cwd, env, capture_output, text):
        seen.append((cmd, env))
        out = "facts: {}\n" + json.dumps(_result(0.5, 40.0))
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)


@pytest.mark.parametrize("warm", [False, True])
def test_runs_get_a_cold_or_warm_environment(tmp_path, monkeypatch, warm):
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    seen = []
    _fake_bench(monkeypatch, seen)
    for d in ("src", "bench"):
        (tmp_path / d).mkdir()
    if warm:
        (tmp_path / "src" / "__pycache__").mkdir()
    bench_pairs.run_once(tmp_path, "certify", 71, warm)
    [(cmd, env)] = seen
    assert cmd[1:] == [str(tmp_path / "bench" / "run.py"), "--workload", "certify",
                       "--seed", "71", "--trace", "0"]
    assert "PYTHONPYCACHEPREFIX" not in env
    assert env.get("PYTHONDONTWRITEBYTECODE") == (None if warm else "1")


def _checkouts(tmp_path):
    for side in ("parent", "change"):
        for d in ("src", "bench"):
            (tmp_path / side / d).mkdir(parents=True)
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "certify", "--out", str(tmp_path / "pairs.json")]


@pytest.mark.parametrize("cache", ["src/socbid/__pycache__", "bench/__pycache__"])
@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_checkout_holding_bytecode_is_refused_before_the_first_run(
    tmp_path, monkeypatch, side, cache
):
    seen = []
    _fake_bench(monkeypatch, seen)
    args = _checkouts(tmp_path)
    (tmp_path / side / cache).mkdir(parents=True)
    with pytest.raises(SystemExit, match="would read bytecode"):
        bench_pairs.main(args + ["--pairs", "2"])
    assert seen == []
    assert not (tmp_path / "pairs.json").exists()


def test_a_batch_leaving_one_pair_is_refused_before_the_first_run(tmp_path, monkeypatch):
    seen = []
    _fake_bench(monkeypatch, seen)
    with pytest.raises(SystemExit, match="fewer than two pairs"):
        bench_pairs.main(_checkouts(tmp_path) + ["--pairs", "1"])
    assert seen == []
    assert not (tmp_path / "pairs.json").exists()
