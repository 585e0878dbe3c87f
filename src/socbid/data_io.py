"""Price CSV ingestion, synthetic tapes, and report writers.

The price file schema is fixed: ``timestamp,zone,price_usd_per_mwh`` with
ISO-8601 UTC timestamps (naive timestamps are read as UTC). Gaps are a hard
error by default because silently filled intervals bias profit metrics;
``load_prices(..., fill_gaps=True)`` forward-fills them instead and counts
what it filled.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import closing
from datetime import datetime, timedelta, timezone
from itertools import islice
from operator import itemgetter, sub
from pathlib import Path

import numpy as np

from .bids import BidSchedule, bid_thresholds
from .model import DataValidationError, PriceSeries, StorageParams
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


def _utc(ts: datetime) -> datetime:
    """A stamp in UTC; a naive one is read as UTC."""
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts.astimezone(timezone.utc)


def _parse_timestamp(raw: str, row_num: int) -> datetime:
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise DataValidationError(f"row {row_num}: unparseable timestamp {raw!r}") from exc
    return _utc(ts)


def load_prices(
    path: str | Path, zone: str, resolution: timedelta, fill_gaps: bool = False
) -> PriceSeries:
    """Read one zone's prices from a CSV file into a validated series.

    Every timestamp must sit exactly on the ``resolution`` lattice from the
    first row, and the file's finest step must equal it. A missing interval
    is an error unless ``fill_gaps`` forward-fills it; the number of filled
    intervals is reported on the returned series. Of several faults, a row
    fault (a short row, an unparseable stamp or price, a non-finite price)
    is reported before a lattice fault (a gap, a duplicate, another step),
    and of each kind the first in file order; a reader fault (text that is not
    UTF-8, a field the csv module cannot read) after any row fault read before
    it. :func:`_read_csv` reads the file once, converted a block of rows at a time.
    """
    path = Path(path)
    with closing(_read_csv(path)) as rows:  # closes the file on a fault, too
        start, offsets, prices = _zone_tape(rows, path, zone, resolution)
    return _on_lattice(zone, start, offsets, prices, resolution, fill_gaps)


# Rows read and converted at a time. A year of 5-minute rows loaded in a median
# 0.10-0.11 s in blocks of 256 or 512 rows, 0.11-0.12 s in 1,024 and 0.12 s in
# 8,192; one zone of an interleaved 11-zone file loaded fastest in 512.
_CSV_ROWS = 1 << 9


def _zone_blocks(rows, zone: str):
    """Yield ``zone``'s stamps and prices from CSV rows, a block of rows at a time.

    A block's stamps and prices are converted at once; if that fails,
    :func:`_take_rows` converts them one at a time and names the fault. A reader
    fault is raised after any row fault read before it in its block.
    """
    row_num = 0
    while True:
        block = []
        try:
            block.extend(islice(rows, _CSV_ROWS))  # keeps the rows read before a fault
        except DataValidationError:
            _take_rows(enumerate(block, row_num + 1), zone)
            raise
        if not block:
            return
        kept = [row for row in block if len(row) < 3 or row[1].strip() == zone]
        try:
            if kept and min(map(len, kept)) < 3:
                raise ValueError("a short or blank row")
            stamps = list(map(datetime.fromisoformat, map(itemgetter(0), kept)))
            prices = np.fromiter(map(float, map(itemgetter(2), kept)), float, len(kept))
            if not np.isfinite(prices).all():
                raise ValueError("a non-finite price")
        except ValueError:
            stamps, prices = _take_rows(enumerate(block, row_num + 1), zone)
        yield stamps, prices
        row_num += len(block)


def _take_rows(rows, zone: str) -> tuple[list[datetime], np.ndarray]:
    """``zone``'s stamps, in UTC, and prices from numbered CSV rows, one row at a time;
    the first row fault in file order is a DataValidationError."""
    stamps: list[datetime] = []
    prices: list[float] = []
    for row_num, row in rows:
        if not row or (row_num == 1 and row[0].strip().lower() == "timestamp"):
            continue
        if len(row) < 3:
            raise DataValidationError(f"row {row_num}: expected 3 columns, got {len(row)}")
        if row[1].strip() != zone:
            continue
        stamps.append(_parse_timestamp(row[0], row_num))
        try:
            price = float(row[2])
        except ValueError as exc:
            raise DataValidationError(f"row {row_num}: unparseable price {row[2]!r}") from exc
        if not math.isfinite(price):
            raise DataValidationError(f"row {row_num}: price {row[2]!r} is not finite")
        prices.append(price)
    return stamps, np.array(prices, float)


_US = timedelta(microseconds=1)


def _zone_tape(rows, path: Path, zone: str, resolution: timedelta):
    """``zone``'s first stamp in UTC, its stamps' whole microseconds from it, and
    its prices, read a block at a time. The microseconds are None while every
    step is ``resolution``; from the first block with another step on, each
    stamp's are counted."""
    start = last = offsets = None
    count, pieces = 0, []
    for stamps, prices in _zone_blocks(rows, zone):
        if not stamps:
            continue
        if start is None:
            start = _utc(stamps[0])
        if offsets is None:
            run = stamps if last is None else [last, *stamps]
            try:
                regular = list(map(sub, run[1:], run)).count(resolution) == len(run) - 1
            except TypeError:  # naive stamps beside aware ones
                regular = False
            if not regular:
                offsets = [np.arange(count, dtype=np.int64) * (resolution // _US)]
        if offsets is not None:
            offsets.append(np.fromiter(
                ((_utc(ts) - start) // _US for ts in stamps), np.int64, len(stamps)
            ))
        last, count = stamps[-1], count + len(stamps)
        pieces.append(prices)
    if start is None:
        raise DataValidationError(f"no rows for zone {zone!r} in {path}")
    return start, None if offsets is None else np.concatenate(offsets), np.concatenate(pieces)


def _read_careful(
    path: Path, zone: str, resolution: timedelta, fill_gaps: bool
) -> PriceSeries:
    """Read any CSV file row by row with the csv module, reporting its first fault
    as :func:`load_prices` orders them, as a DataValidationError: the reference
    series and message the tests hold ``load_prices`` to."""
    stamps, prices = _take_rows(enumerate(_read_csv(path), start=1), zone)
    if not stamps:
        raise DataValidationError(f"no rows for zone {zone!r} in {path}")
    start = stamps[0]
    offsets = np.fromiter(((ts - start) // _US for ts in stamps), np.int64, len(stamps))
    return _on_lattice(zone, start, offsets, prices, resolution, fill_gaps)


def _on_lattice(
    zone: str, start: datetime, offsets, prices: np.ndarray, resolution: timedelta,
    fill_gaps: bool,
) -> PriceSeries:
    """The series of ``prices`` stamped ``offsets`` microseconds after ``start``
    (each ``resolution`` after the last where None), or the first lattice fault."""
    if offsets is None:
        return PriceSeries(zone, start, resolution, prices)
    steps = np.diff(offsets)
    res = resolution // _US
    # A first step off the lattice is a gap or another resolution; the finest
    # step tells which. Non-positive steps are reported below.
    if steps.size and steps[0] != res:
        finest = timedelta(microseconds=int(steps.min()))
        if timedelta(0) < finest != resolution:
            raise DataValidationError(f"resolution {finest} does not match expected {resolution}")
    bad = np.flatnonzero((steps <= 0) | (steps % res != 0) if fill_gaps else steps != res)
    if bad.size:
        i = int(bad[0])
        ts, step = start + int(offsets[i + 1]) * _US, int(steps[i])
        if step <= 0:
            raise DataValidationError(f"duplicate or out-of-order timestamp {ts.isoformat()}")
        if step % res:
            raise DataValidationError(f"timestamp {ts.isoformat()} is off the {resolution} lattice")
        raise DataValidationError(
            f"missing interval at {(start + int(offsets[i]) * _US + resolution).isoformat()}"
            f" ({step // res - 1} interval(s) absent)"
        )
    values = np.repeat(prices, np.append(steps // res, 1))
    return PriceSeries(zone, start, resolution, values, gaps_filled=values.size - len(prices))


def save_prices(series: PriceSeries, path: str | Path) -> None:
    """Write a series in the canonical CSV schema (round-trips with load_prices)."""
    rows = (
        [series.timestamp(i).isoformat(), series.zone, value]
        for i, value in enumerate(series.values.tolist())
    )
    _write_csv(path, PRICE_HEADER, rows)


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
    if not (0 < period_hours < math.inf and 0 <= noise_std < math.inf):
        raise DataValidationError(
            f"need finite period_hours > 0 and noise_std >= 0, got {period_hours}, {noise_std}"
        )
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
    pts = surface.grid.points().tolist()
    rows = (
        [t, soc, val]
        for t, curve in enumerate(surface.values) for soc, val in zip(pts, curve.tolist())
    )
    _write_csv(path, ["period", "soc_mwh", "marginal_value_usd_per_mwh"], rows)


def write_bid_schedule(schedule: BidSchedule, path: str | Path) -> None:
    """Dump a bid schedule's stored-energy values as CSV, one row per period and segment."""
    header = ["period", "segment_index", "soc_lo_mwh", "soc_hi_mwh", "value_usd_per_mwh"]
    bounds = schedule.boundaries.tolist()
    rows = (
        [t, j, bounds[j], bounds[j + 1], value]
        for t, row in enumerate(schedule.values) for j, value in enumerate(row.tolist())
    )
    _write_csv(path, header, rows)


def _power_thresholds(schedule: BidSchedule, params: StorageParams):
    """Discharge and charge price thresholds of a one-segment schedule, priced for ``params``."""
    if schedule.values.shape[1] != 1:
        raise DataValidationError("power-bid reports need a one-segment schedule")
    return bid_thresholds(schedule.values[:, 0], params)


def write_power_bids(schedule: BidSchedule, params: StorageParams, path: str | Path) -> None:
    """Dump a one-segment schedule as CSV, one discharge/charge price pair per period."""
    discharge, charge = _power_thresholds(schedule, params)
    rows = (
        [t, "power", *pair]
        for t, pair in enumerate(zip(discharge.tolist(), charge.tolist()))
    )
    _write_csv(path, ["period", "type", "discharge_bid", "charge_bid"], rows)


def write_trace(
    result: SimulationResult, prices: PriceSeries, path: str | Path
) -> None:
    """Per-interval dispatch trace: timestamp, price, powers, SoC, profit."""
    if len(result.profit) != len(prices):
        raise DataValidationError("trace length does not match the price series")
    header = ["timestamp", "price_usd_per_mwh", "discharge_mw", "charge_mw", "soc_mwh", "profit_usd"]
    columns = (prices.values, result.discharge, result.charge, result.soc, result.profit)
    rows = (
        [prices.timestamp(i).isoformat(), *row]
        for i, row in enumerate(zip(*(c.tolist() for c in columns)))
    )
    _write_csv(path, header, rows)


def write_duration_curves(
    prices: PriceSeries, schedule: BidSchedule, params: StorageParams, path: str | Path
) -> None:
    """Plot-ready duration-curve table for realized prices and one-segment bids.

    Each column is independently sorted descending over the settlement
    horizon; rows floor(0.01 n) and floor(0.99 n) of n carry the top/bottom 1%
    quantile markers. Hourly bids are expanded to the price resolution first
    so the columns align.
    """
    thresholds = _power_thresholds(schedule, params)
    per_bid = _intervals_per_bid(schedule.period_hours, len(schedule), prices)
    columns = (prices.values, *(np.repeat(c, per_bid) for c in thresholds))
    n = len(prices)
    markers = {math.floor(0.99 * n): "q99", math.floor(0.01 * n): "q01"}  # q01 wins a shared row
    rows = (
        [i, markers.get(i, ""), *row]
        for i, row in enumerate(zip(*(np.sort(c)[::-1].tolist() for c in columns)))
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
    _write_csv(path, SUMMARY_HEADER, ([r.get(k, "") for k in SUMMARY_HEADER] for r in rows))


def write_summary_json(rows: list[dict], meta: dict, path: str | Path) -> None:
    """Machine-readable run summary: metadata plus the same rows as the CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"meta": meta, "rows": rows}
    with path.open("w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
