"""Price CSV ingestion, synthetic tapes, and report writers.

The price file schema is fixed: ``timestamp,zone,price_usd_per_mwh`` with
ISO-8601 UTC timestamps (naive timestamps are read as UTC). Gaps are a hard
error by default because silently filled intervals bias profit metrics; an
explicit forward-fill policy is available and counts what it filled.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .bids import BidSchedule, bid_thresholds
from .model import DataValidationError, PriceSeries
from .simulate import SimulationResult, _intervals_per_bid
from .valuation import ValueSurface

PRICE_HEADER = ("timestamp", "zone", "price_usd_per_mwh")


def _read_csv(path: str | Path):
    """Yield the rows of a UTF-8 CSV file; another encoding, or a row the csv
    module cannot read (a field over 131,072 characters), is a DataValidationError."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield from csv.reader(fh)
        except UnicodeDecodeError as exc:
            raise DataValidationError(f"{path} is not UTF-8 text") from exc
        except csv.Error as exc:
            raise DataValidationError(f"{path} is not a readable CSV: {exc}") from exc


def _write_csv(path: str | Path, header, rows) -> None:
    """Write a header row and then ``rows`` to a CSV file, making its parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_timestamp(raw: str, row_num: int) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataValidationError(f"row {row_num}: unparseable timestamp {raw!r}") from exc
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_prices(
    path: str | Path,
    zone: str,
    expected_resolution: timedelta | None = None,
    fill: str = "error",
) -> PriceSeries:
    """Read one zone's prices from a CSV file into a validated series.

    ``expected_resolution``, when given, is the lattice the timestamps must
    sit on, and the file's finest step must equal it; otherwise the
    resolution is inferred from the first two rows. ``fill="previous"``
    forward-fills missing intervals instead of failing; the number of filled
    intervals is reported on the returned series.
    """
    if fill not in ("error", "previous"):
        raise DataValidationError(f"unknown fill policy {fill!r}")
    rows: list[tuple[datetime, float]] = []
    path = Path(path)
    for row_num, row in enumerate(_read_csv(path), start=1):
        if not row or (row_num == 1 and row[0].strip().lower() == "timestamp"):
            continue
        if len(row) < 3:
            raise DataValidationError(f"row {row_num}: expected 3 columns, got {len(row)}")
        if row[1].strip() != zone:
            continue
        ts = _parse_timestamp(row[0], row_num)
        try:
            price = float(row[2])
        except ValueError as exc:
            raise DataValidationError(f"row {row_num}: unparseable price {row[2]!r}") from exc
        rows.append((ts, price))
    if not rows:
        raise DataValidationError(f"no rows for zone {zone!r} in {path}")
    if expected_resolution is not None:
        resolution = expected_resolution
        # A first step off the lattice is a gap or another resolution; the
        # finest step tells which. Non-positive steps are reported below.
        if len(rows) > 1 and rows[1][0] - rows[0][0] != resolution:
            finest = min(b[0] - a[0] for a, b in zip(rows, rows[1:]))
            if finest > timedelta(0) and finest != resolution:
                raise DataValidationError(
                    f"resolution {finest} does not match expected {resolution}"
                )
    elif len(rows) == 1:
        raise DataValidationError("cannot infer resolution from a single row")
    else:
        resolution = rows[1][0] - rows[0][0]

    values = [rows[0][1]]
    filled = 0
    prev_ts = rows[0][0]
    for ts, price in rows[1:]:
        gap = ts - prev_ts
        if gap <= timedelta(0):
            raise DataValidationError(f"duplicate or out-of-order timestamp {ts.isoformat()}")
        elif gap == resolution:
            values.append(price)
        else:
            steps = gap / resolution
            if abs(steps - round(steps)) > 1e-9:
                raise DataValidationError(
                    f"timestamp {ts.isoformat()} is off the {resolution} lattice"
                )
            missing = int(round(steps)) - 1
            if fill == "error":
                gap_ts = prev_ts + resolution
                raise DataValidationError(
                    f"missing interval at {gap_ts.isoformat()} ({missing} interval(s) absent)"
                )
            values.extend([values[-1]] * missing)
            values.append(price)
            filled += missing
        prev_ts = ts
    return PriceSeries(zone, rows[0][0], resolution, np.asarray(values), gaps_filled=filled)


def save_prices(series: PriceSeries, path: str | Path) -> None:
    """Write a series in the canonical CSV schema (round-trips with load_prices)."""
    rows = (
        [series.timestamp(i).isoformat(), series.zone, repr(float(value))]
        for i, value in enumerate(series.values)
    )
    _write_csv(path, PRICE_HEADER, rows)


@dataclass(frozen=True, eq=False)
class DurationCurve:
    """Series values sorted descending, with top/bottom 1% quantile markers."""

    values: np.ndarray
    q01_index: int
    q99_index: int


def duration_curve(values: PriceSeries | np.ndarray) -> DurationCurve:
    """Sort values descending and mark the 1% and 99% quantile positions."""
    arr = values.values if isinstance(values, PriceSeries) else np.asarray(values, dtype=float)
    if arr.size == 0:
        raise DataValidationError("duration curve needs at least one value")
    ordered = np.sort(arr)[::-1].copy()
    n = arr.size
    return DurationCurve(
        values=ordered,
        q01_index=min(int(math.floor(0.01 * n)), n - 1),
        q99_index=min(int(math.floor(0.99 * n)), n - 1),
    )


def synthetic_tape(
    zone: str,
    start: datetime,
    resolution: timedelta,
    num_values: int,
    low: float = 15.0,
    high: float = 45.0,
    period_hours: float = 24.0,
    noise_std: float = 0.0,
    seed: int | None = None,
) -> PriceSeries:
    """Two-level square-wave price tape with optional seeded Gaussian noise.

    The wave spends the first half of each period at ``low`` and the second
    at ``high``. Used for tests and demos; no real market data ships with
    the package.
    """
    if num_values < 1:
        raise DataValidationError("num_values must be at least 1")
    dt_hours = resolution.total_seconds() / 3600.0
    hours = np.arange(num_values) * dt_hours
    phase = np.mod(hours, period_hours) / period_hours
    values = np.where(phase < 0.5, float(low), float(high))
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_std, size=num_values)
    return PriceSeries(zone, start, resolution, values)


def write_surface(surface: ValueSurface, path: str | Path) -> None:
    """Dump a value surface as long-format CSV: (period, soc_mwh, value_usd_per_mwh)."""
    pts = surface.grid.points()
    rows = (
        [t, repr(float(soc)), repr(float(val))]
        for t, curve in enumerate(surface.values) for soc, val in zip(pts, curve)
    )
    _write_csv(path, ["period", "soc_mwh", "marginal_value_usd_per_mwh"], rows)


def write_bid_schedule(schedule: BidSchedule, path: str | Path) -> None:
    """Dump a bid schedule as CSV, one row per period (power) or per segment (SoC)."""
    if schedule.kind == "power":
        header = ["period", "type", "discharge_bid", "charge_bid"]
        discharge, charge = bid_thresholds(schedule.values[:, 0], schedule.params)
        rows = (
            [t, "power", *map(repr, pair)]
            for t, pair in enumerate(zip(discharge.tolist(), charge.tolist()))
        )
    else:
        header = ["period", "segment_index", "soc_lo_mwh", "soc_hi_mwh", "value_usd_per_mwh"]
        bounds = [repr(b) for b in schedule.boundaries.tolist()]
        rows = (
            [t, j, bounds[j], bounds[j + 1], repr(value)]
            for t, row in enumerate(schedule.values.tolist()) for j, value in enumerate(row)
        )
    _write_csv(path, header, rows)


def write_trace(
    result: SimulationResult, prices: PriceSeries, path: str | Path
) -> None:
    """Per-interval dispatch trace: timestamp, price, powers, SoC, profit."""
    if len(result.profit) != len(prices):
        raise DataValidationError("trace length does not match the price series")
    header = ["timestamp", "price_usd_per_mwh", "discharge_mw", "charge_mw", "soc_mwh", "profit_usd"]
    columns = (prices.values, result.discharge, result.charge, result.soc, result.profit)
    rows = (
        [prices.timestamp(i).isoformat(), *map(repr, row)]
        for i, row in enumerate(zip(*(c.tolist() for c in columns)))
    )
    _write_csv(path, header, rows)


def write_duration_curves(
    prices: PriceSeries, schedule: BidSchedule, path: str | Path
) -> None:
    """Plot-ready duration-curve table for realized prices and power bids.

    Each column is independently sorted descending over the settlement
    horizon; the top/bottom 1% quantile rows carry a marker. Hourly bids are
    expanded to the price resolution first so the columns align.
    """
    if schedule.kind != "power":
        raise DataValidationError("duration-curve reports need power bids")
    per_bid = _intervals_per_bid(schedule.period_hours, len(schedule), prices)
    thresholds = bid_thresholds(schedule.values[:, 0], schedule.params)
    curve = duration_curve(prices)
    columns = (curve.values, *(np.sort(np.repeat(c, per_bid))[::-1] for c in thresholds))
    markers = {curve.q99_index: "q99", curve.q01_index: "q01"}  # q01 wins a shared row
    rows = (
        [i, markers.get(i, ""), *map(repr, row)]
        for i, row in enumerate(zip(*(c.tolist() for c in columns)))
    )
    _write_csv(path, ["rank", "quantile_marker", "price", "discharge_bid", "charge_bid"], rows)


SUMMARY_HEADER = (
    "zone",
    "duration_hours",
    "case_id",
    "total_profit_usd",
    "utilization",
    "cycles",
    "discharged_mwh",
)


def write_summary_csv(rows: list[dict], path: str | Path) -> None:
    """Summary table, one row per (zone, duration, case), in the order given."""
    _write_csv(path, SUMMARY_HEADER, ([_plain(r.get(k, "")) for k in SUMMARY_HEADER] for r in rows))


def write_summary_json(rows: list[dict], meta: dict, path: str | Path) -> None:
    """Machine-readable run summary: metadata plus the same rows as the CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": meta, "rows": rows}
    with path.open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _plain(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
