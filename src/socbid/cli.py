"""Command-line front end: tape generation, valuation, bidding, and case sweeps.

Exit codes: 0 success, 1 usage error, 2 data validation error, file error or refused
memory allocation, 3 infeasible dispatch scenario. The SOCBID_OUTPUT_DIR environment
variable sets the output directory when neither --output-dir nor a manifest does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
import zlib
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import data_io
from .bids import DEFAULT_SEGMENTS_PER_HOUR, SoCBidCurve, bid_schedule, soc_bid
from .dispatch import (
    GeneratorOffer,
    InfeasibleMarketError,
    MarketInstance,
    StorageUnit,
    clear_soc_bid_ed,
)
from .model import DEFAULT_GRID_POINTS, DataValidationError, PriceSeries, SoCGrid, StorageParams
from .simulate import CASE_IDS, CaseConfig, run_cases, utilization
from .simulate import run_case  # noqa: F401 - unused here; bench/spans.py wraps cli.run_case
from .valuation import backward_induct

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

DEFAULT_DURATIONS = (1.0, 2.0, 4.0, 6.0, 12.0, 24.0, 72.0)
REFERENCE_CASE = "RT-SB-PF"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


@dataclass
class RunManifest:
    """Everything a sweep needs; may be loaded from JSON and overridden by flags."""

    zones: list[str] = field(default_factory=list)
    durations: list[float] = field(default_factory=lambda: list(DEFAULT_DURATIONS))
    cases: list[str] = field(default_factory=lambda: list(CASE_IDS))
    power_rating: float = 1.0
    efficiency_one_way: float = 0.9
    discharge_cost: float = 10.0
    grid_points: int = DEFAULT_GRID_POINTS
    segments_per_hour: int = DEFAULT_SEGMENTS_PER_HOUR
    initial_soc: float = 0.0
    da_prices: str | None = None
    rt_prices: str | None = None
    synthetic_days: float | None = None
    synthetic_low: float = 15.0
    synthetic_high: float = 45.0
    synthetic_noise: float = 5.0
    synthetic_period_hours: float = 24.0
    seed: int = 0
    output_dir: str = field(default_factory=lambda: os.environ.get("SOCBID_OUTPUT_DIR", "."))
    workers: int = 1
    fill_gaps: bool = False
    write_traces: bool = False

    def validate(self, from_manifest: bool) -> None:
        """Raise UsageError on a bad setting; ``from_manifest``: the command takes --manifest."""

        def where(name: str) -> str:
            flag = f"--{name.replace('_', '-')}"
            return f"set {flag} or the manifest field" if from_manifest else f"set {flag}"

        for name in ("zones", "durations", "cases"):
            items = getattr(self, name)
            if not items or len(set(items)) != len(items):
                raise UsageError(f"{name} must be non-empty, without repeats ({where(name)}), "
                                 f"got {items}")
        # Zone names become parts of output file names, so none may name a directory
        for zone in self.zones:
            if zone in ("", ".", "..") or {"/", "\0", os.sep, os.altsep} & set(zone):
                raise UsageError(
                    f"zone name {zone!r} is empty, '.', '..' or holds a separator or NUL"
                )
        if not all(0 < d < math.inf for d in self.durations):
            raise UsageError(f"durations must be positive, finite hours, got {self.durations}")
        for case in self.cases:
            if case not in CASE_IDS:
                raise UsageError(f"unknown case id {case!r}; valid: {', '.join(CASE_IDS)}")
        if bool(self.da_prices or self.rt_prices) == (self.synthetic_days is not None):
            raise UsageError("supply either --da-prices/--rt-prices or --synthetic-days, not both")
        for name, least in (("workers", 1), ("grid_points", 2), ("segments_per_hour", 1)):
            value = getattr(self, name)
            if value < least:
                raise UsageError(f"{name} must be at least {least} ({where(name)}), got {value}")


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a RunManifest field annotation (ints count as floats)."""
    options = typing.get_args(hint) or (hint,)  # "X | None" gives (X, NoneType)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, options[0]) for v in value)
    if float in options:
        options += (int,)
    return isinstance(value, options) and (bool in options or not isinstance(value, bool))


def _load_manifest(args: argparse.Namespace) -> RunManifest:
    manifest = RunManifest()
    hints = typing.get_type_hints(RunManifest)
    if getattr(args, "manifest", None):
        try:
            with open(args.manifest, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError:  # UnicodeDecodeError and JSONDecodeError both are
            data = None
        if not isinstance(data, dict):
            raise UsageError(f"manifest {args.manifest} is not a JSON object in UTF-8")
        unknown = set(data) - set(hints)
        if unknown:
            raise UsageError(f"unknown manifest keys: {', '.join(sorted(unknown))}")
        for key, value in data.items():
            if not _has_type(value, hints[key]):
                raise UsageError(f"manifest field {key!r} must be {hints[key]}, got {value!r}")
            setattr(manifest, key, value)
    # Flags override the manifest; each flag's dest is the field it sets.
    for key in hints:
        value = getattr(args, key, None)
        if value is not None:
            setattr(manifest, key, value)
    manifest.validate(from_manifest=hasattr(args, "manifest"))
    return manifest


def _storage_params(manifest: RunManifest, duration_hours: float) -> StorageParams:
    return StorageParams(
        power_rating=manifest.power_rating,
        energy_capacity=manifest.power_rating * duration_hours,
        efficiency_one_way=manifest.efficiency_one_way,
        discharge_cost=manifest.discharge_cost,
    )


def _synthetic_tapes(
    zone: str, days: float, low: float, high: float, period_hours: float, noise: float, seed: int
) -> tuple[PriceSeries, PriceSeries]:
    """Clean hourly day-ahead and noisy 5-minute real-time square-wave tapes for one zone.

    The noise seed offsets ``seed`` by a checksum of the zone name, which
    depends on character order: zones get different tapes ("AB" and "BA"
    included), and reruns reproduce them.
    """
    hours = int(round(days * 24)) if 0 < days < math.inf else 0
    if hours < 1:
        raise UsageError(
            f"--synthetic-days (synth --days) must be finite and round to 1 h or more, got {days}"
        )
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    start = datetime(2019, 1, 1, tzinfo=timezone.utc)
    wave = {"low": low, "high": high, "period_hours": period_hours}
    da = data_io.synthetic_tape(zone, start, timedelta(hours=1), hours, noise_std=0.0, **wave)
    rt = data_io.synthetic_tape(
        zone, start, timedelta(minutes=5), hours * 12,
        noise_std=noise, seed=seed + zlib.crc32(zone.encode()), **wave,
    )
    return da, rt


def _zone_series(
    manifest: RunManifest, zone: str, only: str | None = None
) -> tuple[PriceSeries | None, PriceSeries | None]:
    """Load or synthesize the day-ahead and real-time tapes for one zone; with
    ``only`` naming one source, the other's CSV is not read and its tape is None."""
    if manifest.synthetic_days is not None:
        return _synthetic_tapes(
            zone, manifest.synthetic_days, manifest.synthetic_low, manifest.synthetic_high,
            manifest.synthetic_period_hours, manifest.synthetic_noise, manifest.seed,
        )
    tapes = []
    for source, path, step in (("day_ahead", manifest.da_prices, timedelta(hours=1)),
                               ("real_time", manifest.rt_prices, timedelta(minutes=5))):
        tape = None
        if path and only in (None, source):
            tape = data_io.load_prices(path, zone, step, manifest.fill_gaps)
            if tape.gaps_filled:
                print(f"warning: forward-filled {tape.gaps_filled} {source.replace('_', '-')} "
                      f"interval(s) for zone {zone}", file=sys.stderr)
        tapes.append(tape)
    return tuple(tapes)


def _run_zone_duration(job: tuple) -> list[dict]:
    """Worker: run every requested case for one (manifest, zone, duration, da, rt) job."""
    manifest, zone, duration, da, rt = job
    params = _storage_params(manifest, duration)
    case_ids = list(dict.fromkeys((REFERENCE_CASE, *manifest.cases)))
    configs = [CaseConfig(case_id, initial_soc=manifest.initial_soc) for case_id in case_ids]
    results = dict(zip(case_ids, run_cases(
        configs, da, rt, params, manifest.grid_points,
        segments_per_hour_of_duration=manifest.segments_per_hour,
    )))
    reference = results[REFERENCE_CASE]
    rows = []
    for case_id in manifest.cases:
        result = results[case_id]
        rows.append(
            {
                "zone": zone,
                "duration_hours": duration,
                "case_id": case_id,
                "total_profit_usd": result.total_profit,
                "utilization": utilization(result, reference),
                "cycles": result.cycles,
                "discharged_mwh": result.discharged_energy,
            }
        )
        if manifest.write_traces:
            settled = da if CaseConfig(case_id).settlement_source == "day_ahead" else rt
            path = Path(manifest.output_dir) / f"trace_{zone}_{duration:g}h_{case_id}.csv"
            data_io.write_trace(result, settled, path)
    return rows


def _simulate(manifest: RunManifest) -> list[dict]:
    tapes = {zone: _zone_series(manifest, zone) for zone in manifest.zones}
    # Longest duration first: its grids are the finest, so no worker is
    # left running a long job alone at the end
    jobs = [
        (manifest, zone, duration, *tapes[zone])
        for duration in sorted(manifest.durations, reverse=True)
        for zone in manifest.zones
    ]
    if manifest.workers > 1 and len(jobs) > 1:
        # Imported here: only a pool run pays for the import. A pool forks all
        # max_workers processes at its first submit
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(manifest.workers, len(jobs))) as pool:
            results = list(pool.map(_run_zone_duration, jobs))
    else:
        results = [_run_zone_duration(job) for job in jobs]
    rows = [row for chunk in results for row in chunk]
    # The one row order: stdout and both summary files follow it
    rows.sort(key=lambda r: (r["zone"], r["duration_hours"], r["case_id"]))
    return rows


def _summary_meta(manifest: RunManifest) -> dict:
    # Worker count and output paths are excluded: identical inputs must give
    # byte-identical summaries regardless of parallelism.
    return {k: v for k, v in asdict(manifest).items() if k not in ("workers", "output_dir")}


def cmd_simulate(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args)
    rows = _simulate(manifest)
    out = Path(manifest.output_dir)
    data_io.write_summary_csv(rows, out / "summary.csv")
    data_io.write_summary_json(rows, _summary_meta(manifest), out / "summary.json")
    for row in rows:
        print(
            f"{row['zone']:>8} {row['duration_hours']:>6g}h {row['case_id']:<9}"
            f" profit={row['total_profit_usd']:.2f} utilization={row['utilization']:.4f}"
        )
    print(f"wrote {out / 'summary.csv'} and {out / 'summary.json'}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    args.cases = list(CASE_IDS)
    return cmd_simulate(args)


def _valuation_inputs(args: argparse.Namespace):
    """Yield (manifest, zone, duration, price tape, params) for ``value`` and ``bids``."""
    manifest = _load_manifest(args)
    for zone in manifest.zones:
        da, rt = _zone_series(manifest, zone, only=args.source)
        source = da if args.source == "day_ahead" else rt
        if source is None:
            raise DataValidationError(f"no {args.source} prices available for zone {zone}")
        for duration in manifest.durations:
            yield manifest, zone, duration, source, _storage_params(manifest, duration)


def cmd_value(args: argparse.Namespace) -> int:
    for manifest, zone, duration, source, params in _valuation_inputs(args):
        grid = SoCGrid.for_storage(params, source.resolution_hours, manifest.grid_points)
        surface = backward_induct(source, params, grid)
        path = Path(manifest.output_dir) / f"surface_{zone}_{duration:g}h.csv"
        data_io.write_surface(surface, path)
        print(f"wrote {path} ({surface.horizon + 1} curves)")
    return EXIT_OK


def cmd_bids(args: argparse.Namespace) -> int:
    for manifest, zone, duration, source, params in _valuation_inputs(args):
        schedule = bid_schedule(
            source, params, args.bid_model, manifest.grid_points, manifest.segments_per_hour
        )
        out = Path(manifest.output_dir)
        path = out / f"bids_{args.bid_model}_{zone}_{duration:g}h.csv"
        if args.bid_model == "power":
            data_io.write_power_bids(schedule, params, path)
        else:
            data_io.write_bid_schedule(schedule, path)
        print(f"wrote {path} ({len(schedule)} periods)")
        if args.bid_model == "power":
            dur_path = out / f"duration_{zone}_{duration:g}h.csv"
            data_io.write_duration_curves(source, schedule, params, dur_path)
            print(f"wrote {dur_path}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args)
    out = Path(manifest.output_dir)
    for zone in manifest.zones:
        da, rt = _zone_series(manifest, zone)
        data_io.save_prices(da, out / f"{zone}_da.csv")
        data_io.save_prices(rt, out / f"{zone}_rt.csv")
        print(f"wrote {out / (zone + '_da.csv')} and {out / (zone + '_rt.csv')}")
    return EXIT_OK


def _read_scenario(path: str) -> MarketInstance:
    """Parse a dispatch scenario CSV into a market instance.

    Row kinds: ``generator,<name>,<capacity>,<cost>`` (repeat for segments),
    one ``demand,,<mw>``, one ``storage,<name>,<P>,<E>,<eta>,<cost>,<soc>`` per
    name, and for each storage either one ``powerbid,<name>,<discharge_bid>,<charge_bid>``
    or ``socbid,<name>,<soc_lo>,<soc_hi>,<value>`` rows (repeat for segments).
    """
    gens: dict[str, list[tuple[float, float]]] = {}
    demand = None
    storage_rows: dict[str, tuple[float, ...]] = {}
    power_bids: dict[str, tuple[float, float]] = {}
    soc_rows: dict[str, list[tuple[float, float, float, int]]] = {}
    for row_num, row in enumerate(data_io._read_csv(path), start=1):
        if not row or row[0].strip().startswith("#"):
            continue
        kind = row[0].strip().lower()
        if kind not in ("generator", "demand", "storage", "powerbid", "socbid"):
            raise DataValidationError(f"row {row_num}: unknown row kind {kind!r}")
        if kind == "demand" and demand is not None:
            raise DataValidationError(f"row {row_num}: second 'demand' row")
        once = None  # (table, entry) of a row kind allowed once per name
        try:
            if kind == "generator":
                gens.setdefault(row[1], []).append((float(row[2]), float(row[3])))
            elif kind == "demand":
                demand = float(row[2])
            elif kind == "storage":
                p, e, eta, cost, soc = map(float, row[2:7])
                once = storage_rows, (p, e, eta, cost, soc)
            elif kind == "powerbid":
                once = power_bids, (float(row[2]), float(row[3]))
            else:
                soc_rows.setdefault(row[1], []).append(
                    (float(row[2]), float(row[3]), float(row[4]), row_num)
                )
        except (IndexError, ValueError) as exc:
            raise DataValidationError(f"row {row_num}: malformed {kind!r} row") from exc
        if once:
            table, entry = once
            if row[1] in table:
                raise DataValidationError(f"row {row_num}: second {kind!r} row for {row[1]}")
            table[row[1]] = entry
    if demand is None:
        raise DataValidationError("scenario has no demand row")
    orphans = sorted((set(power_bids) | set(soc_rows)) - set(storage_rows))
    if orphans:
        raise DataValidationError(f"bid rows name no storage row: {', '.join(orphans)}")
    storages = []
    for name, (p, e, eta, cost, soc) in storage_rows.items():
        if name in power_bids and name in soc_rows:
            raise DataValidationError(f"storage {name} has both powerbid and socbid rows")
        params = StorageParams(p, e, eta, cost)
        if name in power_bids:
            discharge, charge = power_bids[name]
            if not math.isfinite(discharge) or not math.isfinite(charge):
                raise DataValidationError(f"storage {name}: power bid thresholds must be finite")
            bid = SoCBidCurve([params.soc_min, params.soc_max], [discharge], [charge])
        elif name in soc_rows:
            rows = sorted(soc_rows[name])
            bounds = [rows[0][0]] + [r[1] for r in rows]
            gaps = [row_num for (lo, _, _, row_num), hi in zip(rows, bounds) if lo != hi]
            if gaps:
                raise DataValidationError(f"row {gaps[0]}: socbid rows of {name} do not tile")
            try:
                bid = soc_bid(bounds, [r[2] for r in rows], params)
            except DataValidationError as exc:
                raise DataValidationError(f"storage {name}: {exc}") from exc
        else:
            raise DataValidationError(f"storage {name} has no bid rows")
        storages.append(StorageUnit(name, params, soc, bid))
    offers = tuple(GeneratorOffer(name, tuple(segs)) for name, segs in gens.items())
    return MarketInstance(offers, demand, tuple(storages))


def cmd_dispatch_demo(args: argparse.Namespace) -> int:
    instance = _read_scenario(args.scenario)
    result = clear_soc_bid_ed(instance)
    print(f"clearing price: {result.price:.2f} $/MWh")
    for name, mw in sorted(result.generation.items()):
        print(f"  generator {name:<12} {mw:10.3f} MW")
    for name, decision in sorted(result.storage.items()):
        print(
            f"  storage   {name:<12} discharge={decision.discharge_power:.3f} MW "
            f"charge={decision.charge_power:.3f} MW soc_after={decision.soc_after:.3f} MWh"
        )
    total = (sum(result.generation.values())
             + sum(d.discharge_power for d in result.storage.values()))
    print(f"  balance: supply {total:.3f} MW = demand {instance.demand:.3f} MW "
          f"+ charging {result.cleared_charge:.3f} MW")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, sweeping: bool = False) -> None:
    parser.add_argument("--manifest", help="JSON file supplying any of the run settings")
    parser.add_argument("--zones", nargs="+", help="zone labels to process")
    parser.add_argument("--durations", nargs="+", type=float, help="storage durations in hours")
    if sweeping:
        parser.add_argument("--initial-soc", dest="initial_soc", type=float)
        parser.add_argument("--workers", type=int, help="parallel (zone, duration) workers")
        parser.add_argument("--trace", dest="write_traces", action="store_const", const=True,
                            help="also write per-interval dispatch traces")
    parser.add_argument("--fill-gaps", dest="fill_gaps", action="store_const", const=True,
                        help="forward-fill missing price intervals instead of failing")
    parser.add_argument("--power-rating", dest="power_rating", type=float)
    parser.add_argument("--efficiency", dest="efficiency_one_way", type=float, metavar="ETA",
                        help="one-way efficiency in (0, 1]")
    parser.add_argument("--discharge-cost", dest="discharge_cost", type=float)
    parser.add_argument("--grid-points", dest="grid_points", type=int,
                        help=f"fewest SoC grid points, at least 2 (default {DEFAULT_GRID_POINTS}); "
                             "the time step may raise it")
    parser.add_argument("--segments-per-hour", dest="segments_per_hour", type=int)
    parser.add_argument("--da-prices", dest="da_prices", help="day-ahead price CSV (hourly)")
    parser.add_argument("--rt-prices", dest="rt_prices", help="real-time price CSV (5-minute)")
    parser.add_argument("--synthetic-days", dest="synthetic_days", type=float,
                        help="generate synthetic tapes of this many days instead of loading files")
    parser.add_argument("--seed", type=int, help="seed for synthetic tapes")
    parser.add_argument("--output-dir", dest="output_dir",
                        help="where reports go (default: manifest, $SOCBID_OUTPUT_DIR, .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="socbid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic day-ahead and real-time tapes")
    # Each dest is a RunManifest field and keeps its default, but synth always synthesizes
    p.add_argument("--zones", nargs="+", required=True)
    p.add_argument("--days", dest="synthetic_days", type=float, default=7.0)
    p.add_argument("--low", dest="synthetic_low", type=float)
    p.add_argument("--high", dest="synthetic_high", type=float)
    p.add_argument("--period-hours", dest="synthetic_period_hours", type=float)
    p.add_argument("--noise", dest="synthetic_noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", dest="output_dir")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("value", help="dump marginal-value surfaces per (zone, duration)")
    _add_common(p)
    p.add_argument("--source", choices=["day_ahead", "real_time"], default="day_ahead")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("bids", help="dump bid schedules per (zone, duration)")
    _add_common(p)
    p.add_argument("--source", choices=["day_ahead", "real_time"], default="day_ahead")
    p.add_argument("--bid-model", dest="bid_model", choices=["power", "soc"], default="power")
    p.set_defaults(func=cmd_bids)

    p = sub.add_parser("simulate", help="run selected cases and write the summary table")
    _add_common(p, sweeping=True)
    p.add_argument("--cases", nargs="+", help="case ids to simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run all six cases; a manifest's cases are ignored")
    _add_common(p, sweeping=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dispatch-demo", help="clear a single-period market scenario")
    p.add_argument("--scenario", required=True, help="scenario CSV file")
    p.set_defaults(func=cmd_dispatch_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleMarketError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DataValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
