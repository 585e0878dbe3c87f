"""Run alternating parent/change pairs of the socbid benchmark and write a BENCH_*.json.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload year-settle --seed 1 --pairs 10 --out pairs.json

Each run is ``python3 <checkout>/bench/run.py --workload W --seed S --trace 0``
in a fresh process, so ``bench/run.py`` sets the run length. A run is cold: it
gets ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPYCACHEPREFIX``, and the tool
refuses to start it while the checkout's ``src`` or ``bench`` holds a
``__pycache__``, which Python would read (pytest or a warm batch leaves one).
With ``--warm`` each checkout's ``src`` and ``bench`` are byte-compiled first,
runs read that cache, and the results go under ``"<workload> seed <seed> warm"``.
Pair i runs the parent first when i is even and the change first when it is odd.
Every run's last line of output is read as its result; the first run that
reports ``failed > 0`` or exits non-zero stops the tool with exit status 1,
before anything is written.

The output file holds ``facts``, then ``runs`` and ``summary`` keyed by
``"<workload> seed <seed>"``. ``runs`` lists each side's values of every
metric in run order, and ``batches`` the pairs each invocation added;
``summary`` gives, over every pair, each side's median and quartiles per metric,
the parent's interquartile spread, the change in percent of the parent median
and the pairs the change won (lower is better; a tie counts for neither). An
existing output file is updated: a key run again gets its new pairs appended, so
every run made is kept and counted. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGITS = 4  # decimals kept of each value, median and quartile


def run_env(warm: bool) -> dict[str, str]:
    """One run's environment: a cold run writes no bytecode, and no run reads a pycache prefix."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")}
    return env if warm else env | {"PYTHONDONTWRITEBYTECODE": "1"}


def run_once(checkout: Path, workload: str, seed: int, warm: bool = False) -> tuple[dict, dict]:
    """One benchmark run: its ``facts:`` line and its last-line result, as dicts."""
    cached = [] if warm else sorted(
        str(p) for d in ("src", "bench") for p in (checkout / d).rglob("__pycache__"))
    if cached:
        raise SystemExit(f"{checkout}: a cold run would read bytecode; remove {' '.join(cached)}")
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=run_env(warm), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if result["failed"] > 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"{result['failed']} of {result['attempted']} operations")
    facts = next((json.loads(line[len("facts: "):]) for line in lines
                  if line.startswith("facts: ")), {})
    return facts, result


def run_values(runs: dict[str, list[dict]]) -> dict[str, list]:
    """Each side's value of every metric, and its failed count, in run order.

    ``runs`` maps ``"parent"`` and ``"change"`` to lists of last-line results,
    pair i being element i of each.
    """
    out = {}
    for side in SIDES:
        for name in runs[side][0]["metrics"]:
            out[f"{side}_{name}"] = [round(r["metrics"][name]["value"], DIGITS)
                                     for r in runs[side]]
        out[f"{side}_failed"] = [r["failed"] for r in runs[side]]
    return out


def summarize(values: dict[str, list]) -> dict[str, dict]:
    """Per-metric medians, quartiles and pair wins of paired runs in :func:`run_values`' layout.

    Lower values are better. Quartiles are ``statistics.quantiles``' default
    (exclusive) method, which needs at least two runs a side.
    """
    names = [key[len("parent_"):] for key in values
             if key.startswith("parent_") and key != "parent_failed"]
    summary = {}
    for name in names:
        sides = {side: values[f"{side}_{name}"] for side in SIDES}
        if len(sides["parent"]) != len(sides["change"]) or len(sides["parent"]) < 2:
            raise ValueError("need at least two pairs, the same number on each side")
        row = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(sides[side], n=4)
            row[f"{side}_median"] = round(median, DIGITS)
            row[f"{side}_q1"] = round(q1, DIGITS)
            row[f"{side}_q3"] = round(q3, DIGITS)
        row["parent_iqr"] = round(row["parent_q3"] - row["parent_q1"], DIGITS)
        base = statistics.median(sides["parent"])
        row["change_pct"] = round(100.0 * (statistics.median(sides["change"]) - base) / base, 2)
        row["change_wins"] = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        row["pairs"] = len(sides["parent"])
        summary[name] = row
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--warm", action="store_true",
                        help="byte-compile each checkout first and let runs read the cache")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    facts = {}
    if args.warm:
        for checkout in checkouts.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                           cwd=checkout, env=run_env(True), check=True)
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            run_facts, result = run_once(checkouts[side], args.workload, args.seed, args.warm)
            facts.setdefault(side, run_facts)
            runs[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            print(f"pair {pair + 1}/{args.pairs} {side}: wall_s {wall:.4f}", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("facts", {
        key: facts["parent"].get(key) for key in ("nproc", "cpu_model", "python", "numpy")
    } | {"parent_commit": facts["parent"].get("commit"),
         "run_seconds": facts["parent"].get("seconds")})
    key = f"{args.workload} seed {args.seed}" + (" warm" if args.warm else "")
    doc.setdefault("commands", {})[key] = (
        ("python3 -m compileall -q src bench, then " if args.warm else "PYTHONDONTWRITEBYTECODE=1 ")
        + f"python3 bench/run.py --workload {args.workload} --seed {args.seed} --trace 0; "
        "pair i runs the parent first when i is even"
    )
    kept = doc.setdefault("runs", {}).get(key, {})
    batches = kept.pop("batches", [len(kept["parent_failed"])] if kept else [])
    values = {name: kept.get(name, []) + new for name, new in run_values(runs).items()}
    doc["runs"][key] = values | {"batches": batches + [args.pairs]}
    doc.setdefault("summary", {})[key] = summarize(values)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["summary"][key]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
