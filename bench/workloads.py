"""The three benchmark workloads: inputs from a seed, one timed iteration, output checks.

Every workload is a batch, closed-loop run in one process: an iteration
starts when the previous one has returned. Inputs are synthesized here from
the seed and handed to socbid only as CSV files or ``PriceSeries``, so the
package's own tape generator never shapes the benchmark's inputs.

Checks read only ``summary.*``, ``total_profit``, ``soc_trajectory()`` and
``optimal_profit``, the parts of socbid's results that are public.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from socbid import cli, data_io, oracle, simulate, valuation
from socbid import bids as bids_mod
from socbid.model import PriceSeries, SoCGrid, StorageParams

START = datetime(2019, 1, 1, tzinfo=timezone.utc)
HOUR = timedelta(hours=1)
FIVE_MIN = timedelta(minutes=5)
DURATIONS = (1, 2, 4, 6, 12, 24, 72)
DEFAULT_SEED = 1
# The perfect-foresight SoC-bid case every utilization is measured against.
REFERENCE_CASE = "RT-SB-PF"
# sha256 of summary.csv from week-matrix at DEFAULT_SEED, full size.
WEEK_MATRIX_DIGEST = "8fc54dc869210f63bccf8d875aa4281a79cb0126f2c271161053f183fc53e503"


def square_wave(rng, n: int, step: timedelta, low: float, high: float, noise: float) -> np.ndarray:
    """Low for the first half of each day and high for the second, plus Gaussian noise."""
    hours = np.arange(n) * (step / HOUR)
    values = np.where(np.mod(hours, 24.0) < 12.0, low, high)
    return values + rng.normal(0.0, noise, size=n) if noise > 0 else values


def write_tapes(path: Path, step: timedelta, tapes: dict[str, np.ndarray]) -> int:
    """Write zones' tapes to one price CSV in socbid's schema; returns the row count."""
    n = max(v.size for v in tapes.values())
    stamps = [(START + i * step).isoformat() for i in range(n)]
    lines = ["timestamp,zone,price_usd_per_mwh\n"]
    for zone, values in tapes.items():
        lines.extend(f"{stamps[i]},{zone},{v!r}\n" for i, v in enumerate(values.tolist()))
    path.write_text("".join(lines))
    return len(lines) - 1


def _storage(duration_hours: float) -> StorageParams:
    return StorageParams(1.0, float(duration_hours), 0.9, 10.0)


def _grid(params: StorageParams, dt_hours: float) -> SoCGrid:
    # The CLI's sizing rule: the 1001-point default, raised where dt needs more.
    return SoCGrid.for_storage(params, dt_hours, max(1001, SoCGrid.min_points(params, dt_hours)))


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _raised(name: str, item) -> bool:
    """True, with the exception reported on stderr, when an operation raised."""
    if isinstance(item, Exception):
        print(f"{name}: operation failed: {item!r}", file=sys.stderr)
        return True
    return False


class Workload:
    """Base: ``setup`` writes inputs, ``iterate`` is timed, ``check`` scores it."""

    name = ""
    workers = 1  # pool workers of an untraced iteration
    traced_workers = 1

    def __init__(self, seed: int, workdir: Path, small: bool):
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.file_rows: dict[str, int] = {}

    def rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, sum(self.name.encode())])

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, workers: int):
        raise NotImplementedError

    def check(self, output) -> tuple[int, int, dict]:
        """(operations attempted, operations failed, extra figures) of one iteration."""
        raise NotImplementedError

    def facts(self) -> dict:
        raise NotImplementedError


class WeekMatrix(Workload):
    """``socbid sweep`` in-process: 2 zones x 7 durations x 6 cases on one-week CSV tapes."""

    name = "week-matrix"
    workers = 2
    zones = ("NORTH", "SOUTH")
    levels = {"NORTH": (15.0, 45.0), "SOUTH": (20.0, 60.0)}

    def setup(self) -> None:
        days = 2 if self.small else 7
        rng = self.rng()
        self.hours = days * 24
        da, rt = {}, {}
        for zone in self.zones:
            low, high = self.levels[zone]
            da[zone] = square_wave(rng, self.hours, HOUR, low, high, 2.0)
            rt[zone] = square_wave(rng, self.hours * 12, FIVE_MIN, low, high, 5.0)
        self.da_path = self.workdir / "da.csv"
        self.rt_path = self.workdir / "rt.csv"
        self.out = self.workdir / "out"
        self.file_rows = {
            str(self.da_path): write_tapes(self.da_path, HOUR, da),
            str(self.rt_path): write_tapes(self.rt_path, FIVE_MIN, rt),
        }

    def iterate(self, workers: int):
        argv = [
            "sweep", "--zones", *self.zones, "--durations", *map(str, DURATIONS),
            "--da-prices", str(self.da_path), "--rt-prices", str(self.rt_path),
            "--workers", str(workers), "--output-dir", str(self.out),
        ]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        except Exception as exc:  # a failed operation is scored, not fatal
            return exc

    def check(self, code) -> tuple[int, int, dict]:
        expected = {(z, float(d), c) for z in self.zones for d in DURATIONS for c in simulate.CASE_IDS}
        attempted = len(expected)
        if _raised(self.name, code) or code != 0:
            return attempted, attempted, {}
        csv_bytes = (self.out / "summary.csv").read_bytes()
        if self.seed == DEFAULT_SEED and not self.small:
            if hashlib.sha256(csv_bytes).hexdigest() != WEEK_MATRIX_DIGEST:
                return attempted, attempted, {}
        json_rows = json.loads((self.out / "summary.json").read_text())["rows"]
        json_profit = {(r["zone"], float(r["duration_hours"]), r["case_id"]): r["total_profit_usd"]
                       for r in json_rows}
        good = 0
        for row in csv.DictReader(io.StringIO(csv_bytes.decode())):
            key = (row["zone"], float(row["duration_hours"]), row["case_id"])
            figures = [float(row[k]) for k in
                       ("total_profit_usd", "utilization", "cycles", "discharged_mwh")]
            ok = (
                key in expected
                and _finite(*figures)
                and json_profit.get(key) == figures[0]
                and (key[2] != REFERENCE_CASE or figures[1] == 1.0)
            )
            if ok:
                expected.discard(key)
                good += 1
        return attempted, attempted - good, {}

    def facts(self) -> dict:
        grids = {
            f"{d}h": {"df": _grid(_storage(d), 1.0).num_points,
                      "pf": _grid(_storage(d), 1 / 12).num_points}
            for d in DURATIONS
        }
        return {
            "zones": len(self.zones), "durations": list(DURATIONS),
            "cases": len(simulate.CASE_IDS), "workers": self.workers,
            "da_periods": self.hours, "rt_intervals": self.hours * 12,
            "grid_points": grids, "soc_segments": {f"{d}h": 20 * d for d in DURATIONS},
        }


class YearSettle(Workload):
    """Full-year tapes: load both CSVs, then settle RT-PB-DF and RT-SB-DF at 1 h and 72 h."""

    name = "year-settle"
    zone = "WEST"
    cases = tuple((case, d) for d in (1, 72) for case in ("RT-PB-DF", "RT-SB-DF"))

    def setup(self) -> None:
        days = 3 if self.small else 365
        rng = self.rng()
        self.hours = days * 24
        self.da_path = self.workdir / "da.csv"
        self.rt_path = self.workdir / "rt.csv"
        da = square_wave(rng, self.hours, HOUR, 15.0, 45.0, 2.0)
        rt = square_wave(rng, self.hours * 12, FIVE_MIN, 15.0, 45.0, 5.0)
        self.file_rows = {
            str(self.da_path): write_tapes(self.da_path, HOUR, {self.zone: da}),
            str(self.rt_path): write_tapes(self.rt_path, FIVE_MIN, {self.zone: rt}),
        }

    def iterate(self, workers: int):
        da = data_io.load_prices(self.da_path, self.zone, HOUR)
        rt = data_io.load_prices(self.rt_path, self.zone, FIVE_MIN)
        results = []
        for case_id, duration in self.cases:
            params = _storage(duration)
            try:
                results.append(simulate.run_case(
                    simulate.CaseConfig(case_id), da, rt, params, _grid(params, 1.0)
                ))
            except Exception as exc:  # a failed operation is scored, not fatal
                results.append(exc)
        return results

    def check(self, results) -> tuple[int, int, dict]:
        failed = 0
        for (_, duration), result in zip(self.cases, results):
            if _raised(self.name, result):
                failed += 1
                continue
            params = _storage(duration)
            soc = result.soc_trajectory()
            ok = (
                soc.size == self.hours * 12 + 1
                and bool(np.all(soc >= params.soc_min - 1e-9))
                and bool(np.all(soc <= params.soc_max + 1e-9))
                and _finite(result.total_profit)
            )
            failed += not ok
        return len(self.cases), failed, {}

    def facts(self) -> dict:
        return {
            "da_periods": self.hours, "rt_intervals": self.hours * 12,
            "cases": [f"{c}@{d}h" for c, d in self.cases],
            "grid_points": {f"{d}h": _grid(_storage(d), 1.0).num_points for d in (1, 72)},
            "soc_segments": {"1h": 20, "72h": 1440},
        }


class Certify(Workload):
    """Criterion 1's unit on one-week 5-minute tapes: library route, then the grid-DP oracle."""

    name = "certify"
    params = StorageParams(0.5, 1.0, 0.9, 10.0)
    grid_points = 301
    action_points = 15
    tolerance = 0.005

    def setup(self) -> None:
        self.num_tapes = 1 if self.small else 4
        self.intervals = (1 if self.small else 7) * 24 * 12
        rng = self.rng()
        self.tapes = [
            PriceSeries("Z", START, FIVE_MIN,
                        square_wave(rng, self.intervals, FIVE_MIN, 15.0, 45.0, 5.0))
            for _ in range(self.num_tapes)
        ]
        self.grid = SoCGrid.for_storage(self.params, 1 / 12, self.grid_points)

    def iterate(self, workers: int):
        out = []
        for tape in self.tapes:
            try:
                out.append(self._certify(tape))
            except Exception as exc:  # a failed operation is scored, not fatal
                out.append(exc)
        return out

    def _certify(self, tape: PriceSeries) -> tuple[float, float]:
        # One tape per call, so that its surface and schedule are freed before
        # the next tape is valued: peak RSS then holds one surface, not two.
        surface = valuation.backward_induct(tape, self.params, self.grid)
        schedule = bids_mod.make_soc_bids(surface, self.params)
        settled = simulate.run_schedule(tape, schedule, self.params, 0.0, "RT-SB-PF")
        best = oracle.grid_dp_oracle(
            tape, self.params, self.grid, action_points=self.action_points
        )
        return settled.total_profit, best.optimal_profit

    def check(self, out) -> tuple[int, int, dict]:
        failed = 0
        worst = 0.0
        for item in out:
            if _raised(self.name, item):
                failed += 1
                continue
            profit, optimum = item
            gap = abs(profit - optimum) / optimum if optimum > 0 else math.inf
            worst = max(worst, gap)
            failed += not (_finite(profit, optimum) and gap <= self.tolerance)
        return len(out), failed, {"oracle_gap_pct": 100.0 * worst}

    def facts(self) -> dict:
        return {
            "tapes": self.num_tapes, "intervals": self.intervals,
            "grid_points": self.grid_points, "action_points": self.action_points,
            "soc_segments": round(20 * self.params.duration_hours),
        }


WORKLOADS = {w.name: w for w in (WeekMatrix, YearSettle, Certify)}
