"""In-memory spans around the calls the benchmark makes into each socbid module.

A traced run replaces public functions at the module attributes their
callers look them up by, records one span per call (name, start, end,
parent id, run id and a few input sizes) and puts the originals back when
it ends. Nothing inside the package is edited, so the same benchmark code
measures any commit whose public function names are unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from socbid.model import PriceSeries, SoCGrid, StorageParams
from socbid.simulate import CaseConfig

# (module, attribute looked up by callers, span name)
WRAPPED = (
    ("socbid.data_io", "load_prices", "data_io.load_prices"),
    ("socbid.valuation", "backward_induct", "valuation.backward_induct"),
    ("socbid.bids", "make_soc_bids", "bids.make_soc_bids"),
    ("socbid.simulate", "bid_schedule_from_prices", "bids.fused"),
    ("socbid.simulate", "run_schedule", "simulate.run_schedule"),
    ("socbid.simulate", "run_case", "simulate.run_case"),
    ("socbid.cli", "run_case", "simulate.run_case"),
    ("socbid.cli", "_run_zone_duration", "cli.job"),
    ("socbid.oracle", "grid_dp_oracle", "oracle.grid_dp_oracle"),
)

# Grid sizes reported for the fused valuation and bid pass: the CLI default
# and the auto-sized grid of a 72 h storage valued on 5-minute prices.
FUSED_GRIDS = (1001, 9601)
# Settlement labels reported per interval: power bids, and SoC bids with the
# segment counts of a 1 h and a 72 h storage at 20 segments per hour.
SETTLE_LABELS = ("power", "soc_j20", "soc_j1440")

PER_LAYER = (
    ("bids.fused.passes", "count"),
    *((f"bids.fused.us_per_period.n{n}", "us") for n in FUSED_GRIDS),
    ("valuation.backward_induct.us_per_period", "us"),
    ("bids.make_soc_bids.us_per_period", "us"),
    ("oracle.grid_dp_oracle.us_per_period", "us"),
    *((f"simulate.run_schedule.us_per_interval.{label}", "us") for label in SETTLE_LABELS),
    ("simulate.run_case.rss_growth_mb", "MB"),
    ("simulate.run_case.self_s", "s"),
    ("data_io.load_prices.us_per_row", "us"),
    ("cli.jobs", "count"),
    ("cli.job_s_max", "s"),
    ("cli.pool_efficiency", "ratio"),
    ("oracle_gap_pct", "%"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def current_rss_bytes() -> int:
    """Resident set size of this process now (0 where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


class Tracer:
    """Collects spans for one process; ``run`` tags the iteration they belong to."""

    def __init__(self, file_rows: dict[str, int]):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._file_rows = {os.path.abspath(p): n for p, n in file_rows.items()}

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.run, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _attrs(self, args: dict) -> dict:
        """Input size of one call: rows of the file, periods or intervals of the
        tape, or horizon of the surface it was given first, and any grid size."""
        first, *rest = args.values()
        if isinstance(first, (str, os.PathLike)):
            attrs = {"size": self._file_rows.get(os.path.abspath(first), 0)}
        elif isinstance(first, PriceSeries):
            attrs = {"size": len(first)}
        else:
            attrs = {"size": getattr(first, "horizon", 0)}
        for value in rest:
            if isinstance(value, SoCGrid):
                attrs["grid"] = value.num_points
            elif isinstance(value, StorageParams) and isinstance(first, CaseConfig):
                per_hour = args["segments_per_hour_of_duration"]
                segments = max(1, round(per_hour * value.duration_hours))
                attrs["label"] = "power" if first.bid_model == "power" else f"soc_j{segments}"
        return attrs

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            with self.span(name, **self._attrs(bound.arguments)) as span:
                if name == "simulate.run_case":
                    rss_before = current_rss_bytes()
                    result = fn(*args, **kwargs)
                    span.attrs["rss_growth"] = current_rss_bytes() - rss_before
                    return result
                return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every wrapped function in, and restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _rate(spans: list[Span]) -> float:
    """Microseconds per unit of input size over the given spans."""
    size = sum(s.attrs["size"] for s in spans)
    return 1e6 * sum(s.seconds for s in spans) / size if size else 0.0


def iteration_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced iteration.

    A layer that the workload never calls reads 0.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds
    fused = by_name.get("bids.fused", [])
    cases = by_name.get("simulate.run_case", [])
    label_of = {s.span_id: s.attrs["label"] for s in cases}
    settles = by_name.get("simulate.run_schedule", [])
    jobs = by_name.get("cli.job", [])
    out = {"bids.fused.passes": float(len(fused))}
    for n in FUSED_GRIDS:
        out[f"bids.fused.us_per_period.n{n}"] = _rate(
            [s for s in fused if s.attrs["grid"] == n]
        )
    for name in ("valuation.backward_induct", "bids.make_soc_bids", "oracle.grid_dp_oracle"):
        out[f"{name}.us_per_period"] = _rate(by_name.get(name, []))
    for label in SETTLE_LABELS:
        out[f"simulate.run_schedule.us_per_interval.{label}"] = _rate(
            [s for s in settles if label_of.get(s.parent) == label]
        )
    out["simulate.run_case.rss_growth_mb"] = sum(s.attrs["rss_growth"] for s in cases) / 2**20
    out["simulate.run_case.self_s"] = sum(
        s.seconds - children.get(s.span_id, 0.0) for s in cases
    )
    out["data_io.load_prices.us_per_row"] = _rate(by_name.get("data_io.load_prices", []))
    out["cli.jobs"] = float(len(jobs))
    out["cli.job_s_max"] = max((s.seconds for s in jobs), default=0.0)
    out["cli.job_s_sum"] = sum(s.seconds for s in jobs)
    return out


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
