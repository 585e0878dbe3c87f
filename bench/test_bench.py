"""Smoke tests of the benchmark harness at tiny input sizes.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from workloads import WORKLOADS, Certify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_seed_fixes_the_inputs(tmp_path):
    def tapes(seed: int, name: str) -> bytes:
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir(exist_ok=True)
        workload = WORKLOADS["week-matrix"](seed, workdir, small=True)
        workload.setup()
        return (workdir / "rt.csv").read_bytes()

    assert tapes(7, "a") == tapes(7, "b")
    assert tapes(7, "a") != tapes(8, "a")


def test_raised_and_inaccurate_operations_count_as_failed(tmp_path):
    certify = Certify(1, tmp_path, small=True)
    attempted, failed, extras = certify.check([(99.9, 100.0), (90.0, 100.0), ValueError("x")])
    assert (attempted, failed) == (3, 2)
    assert extras["oracle_gap_pct"] == pytest.approx(10.0)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
