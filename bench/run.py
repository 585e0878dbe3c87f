"""socbid benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload week-matrix --seed 1 --seconds 30 --trace 0

Workloads are ``week-matrix``, ``year-settle`` and ``certify`` (see
workloads.py). With ``--trace 0`` the run repeats the workload's iteration
until ``--seconds`` would be overrun by more than half an iteration and
reports the end-to-end metrics ``wall_s`` (median iteration), ``setup_s``
(median of five set-ups) and ``peak_rss_mb``. With ``--trace 1`` it times one untraced iteration, then
repeats a traced one and reports the per-layer metrics of spans.py.

Readable lines and a ``facts:`` line come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Run from anywhere; the socbid sources are read from ``src/``
beside this directory, and the run exits 2 without a result when they are
missing. ``--small`` shrinks every input for a quick smoke run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["week-matrix", "year-settle", "certify"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for smoke tests")
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_setup(workload) -> float:
    """Median of repeated set-ups: a fresh interpreter's import, then input synthesis."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import socbid.cli"], env=env, check=True)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, plus the worst extra figure seen, over iterations."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.extras: dict[str, float] = {}

    def add(self, checked) -> None:
        attempted, failed, extras = checked
        self.attempted += attempted
        self.failed += failed
        for k, v in extras.items():
            self.extras[k] = max(v, self.extras.get(k, v))


def timed_iteration(workload, workers: int, tally: Tally) -> float:
    gc.collect()
    t0 = time.perf_counter()
    output = workload.iterate(workers)
    wall = time.perf_counter() - t0
    tally.add(workload.check(output))
    return wall


def measure(workload, seconds: float, trace: bool, tally: Tally) -> tuple[list[float], dict]:
    """Timed phase. Repeats while one more median iteration would end less than
    half an iteration past ``seconds``, so a run holds the same number of
    iterations whether they come out a little fast or a little slow."""
    begin = time.perf_counter()

    def more(walls):
        return time.perf_counter() - begin + statistics.median(walls) / 2 < seconds

    if not trace:
        walls = [timed_iteration(workload, workload.workers, tally)]
        while more(walls):
            walls.append(timed_iteration(workload, workload.workers, tally))
        return walls, {}

    import spans

    untraced = timed_iteration(workload, workload.workers, tally)
    same_workers = untraced
    if workload.traced_workers != workload.workers:
        same_workers = timed_iteration(workload, workload.traced_workers, tally)
    tracer = spans.Tracer(workload.file_rows)
    walls = []
    with tracer.installed():
        while not walls or more(walls):
            tracer.run = len(walls)
            walls.append(timed_iteration(workload, workload.traced_workers, tally))
    layers = spans.median_metrics([
        spans.iteration_metrics([s for s in tracer.spans if s.run == run])
        for run in range(len(walls))
    ])
    job_s = layers.pop("cli.job_s_sum")
    layers["cli.pool_efficiency"] = job_s / (workload.workers * untraced) if job_s else 0.0
    layers["oracle_gap_pct"] = tally.extras.get("oracle_gap_pct", 0.0)
    layers["trace.overhead_s"] = statistics.median(walls) - same_workers
    return walls, {name: (layers[name], unit) for name, unit in spans.PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "socbid" / "__init__.py").is_file():
        print(f"error: socbid sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.small)
        setup_s = timed_setup(workload)
        tally = Tally()
        walls, layers = measure(workload, args.seconds, bool(args.trace), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = layers
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    if "oracle_gap_pct" in tally.extras:
        print(f"oracle_gap_pct = {tally.extras['oracle_gap_pct']:.6g} % (worst seed)")
    print(f"iterations = {len(walls)}, wall_s per iteration = "
          + ", ".join(f"{w:.4f}" for w in walls))
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit(), "inputs": workload.facts(),
    }
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
