"""Turning marginal-value surfaces into market bids.

Two bid shapes are supported. An SoC bid is a piecewise-constant
marginal-value curve over equal-width SoC segments, so dispatch depends on
where the storage currently sits. A power bid is the one-segment SoC bid
over the whole SoC range, built from the SoC-average marginal value: one
discharge/charge price threshold pair per period, so the dispatcher needs
no SoC information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DataValidationError,
    PriceSeries,
    SoCGrid,
    StorageParams,
    check_soc_range,
    validate_params,
)
from .valuation import (
    ValueSurface,
    _backward_curves,
    _cell_edges,
    _cumulative,
    _integrals,
    _interp_plan,
    _require_non_increasing,
    _segment_means,
)


@dataclass(frozen=True)
class PowerBid:
    """SoC-blind price thresholds: discharge above the first, charge below the second."""

    discharge_bid: float
    charge_bid: float

    def __post_init__(self) -> None:
        if not np.isfinite([self.discharge_bid, self.charge_bid]).all():
            raise DataValidationError(f"power bid thresholds must be finite: {self}")


def _check_segments(boundaries, values, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of J+1 increasing boundaries and non-increasing rows of J values."""
    bounds = np.asarray(boundaries, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bounds.ndim != 1 or vals.ndim != ndim or bounds.size != vals.shape[-1] + 1:
        raise DataValidationError("need J+1 boundaries for J segment values")
    if vals.shape[-1] < 1:
        raise DataValidationError("an SoC bid needs at least one segment")
    if np.any(np.diff(bounds) <= 0):
        raise DataValidationError("segment boundaries must be strictly increasing")
    _require_non_increasing(vals)
    return bounds, vals


@dataclass(frozen=True, eq=False)
class SoCBidCurve:
    """Marginal stored-energy value ($/MWh) per SoC segment.

    ``boundaries`` has one more entry than ``segment_values`` and spans the
    bid's SoC range; values must be non-increasing (concave opportunity
    value), which is what makes greedy segment-by-segment dispatch optimal.
    """

    boundaries: np.ndarray
    segment_values: np.ndarray

    def __post_init__(self) -> None:
        bounds, vals = _check_segments(self.boundaries, self.segment_values, 1)
        bounds = bounds.copy()
        vals = vals.copy()
        bounds.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "segment_values", vals)


def bid_thresholds(values, params: StorageParams):
    """Discharge and charge price thresholds of stored-energy values ($/MWh).

    Discharging one MWh to the grid drains 1/eta MWh of stored value and
    costs c, so the break-even price is c + q/eta. Charging one MWh from the
    grid stores eta MWh, worth q*eta. Works on floats and arrays alike.
    """
    eta = params.efficiency_one_way
    return params.discharge_cost + values / eta, values * eta


def power_bid_from_average(q_bar: float, params: StorageParams) -> PowerBid:
    """Bid pair for one period given the SoC-average marginal value q_bar.

    The pair always satisfies charge_bid = eta^2 * (discharge_bid - c).
    """
    discharge, charge = bid_thresholds(q_bar, params)
    return PowerBid(discharge_bid=discharge, charge_bid=charge)


def threshold_table(
    bid: PowerBid | SoCBidCurve, params: StorageParams
) -> tuple[list[float], list[float], list[float]]:
    """Segment boundaries and per-segment (discharge, charge) price thresholds.

    A power bid is one segment over the SoC range carrying its own pair; an
    SoC bid curve must span that range and reads as its running minimum.
    """
    if isinstance(bid, PowerBid):
        return [params.soc_min, params.soc_max], [bid.discharge_bid], [bid.charge_bid]
    boundaries = bid.boundaries.tolist()
    check_soc_range(boundaries[0], boundaries[-1], params, "bid curve")
    discharge, charge = bid_thresholds(np.minimum.accumulate(bid.segment_values), params)
    return boundaries, discharge.tolist(), charge.tolist()


def booked_value(bid: PowerBid | SoCBidCurve, e_from: float, e_to: float) -> float:
    """Opportunity value ($) an SoC bid books when SoC moves from e_from to e_to.

    Power bids book none.
    """
    if isinstance(bid, PowerBid):
        return 0.0
    plan = _interp_plan(bid.boundaries, np.array([e_from, e_to]))
    (start,), (end,) = _integrals(plan, _cumulative(bid.boundaries, bid.segment_values))
    return float(end - start)


@dataclass(frozen=True, eq=False)
class BidSchedule:
    """Every period's bid as one table over SoC segments shared by all periods.

    ``values[t, j]`` is the stored-energy value ($/MWh) period t bids for
    segment j, between ``boundaries[j]`` and ``boundaries[j + 1]``; prices
    follow from ``params`` via :func:`bid_thresholds`. A power schedule
    (``kind="power"``) has the single segment [soc_min, soc_max] and books
    no opportunity value.
    """

    period_hours: float
    params: StorageParams
    boundaries: np.ndarray
    values: np.ndarray
    kind: str = "soc"

    def __post_init__(self) -> None:
        if self.period_hours <= 0:
            raise DataValidationError(f"period_hours must be positive, got {self.period_hours}")
        if self.kind not in ("power", "soc"):
            raise DataValidationError(f"unknown bid kind {self.kind!r}")
        bounds, vals = _check_segments(self.boundaries, self.values, 2)
        if vals.shape[0] < 1:
            raise DataValidationError("bid schedule is empty")
        if self.kind == "power" and vals.shape[1] != 1:
            raise DataValidationError("a power schedule has exactly one segment")
        check_soc_range(float(bounds[0]), float(bounds[-1]), self.params, "bid curve")
        bounds = bounds.copy()
        vals = vals.view()  # read-only without copying a year-long table
        bounds.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "boundaries", bounds)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, t: int) -> PowerBid | SoCBidCurve:
        if self.kind == "power":
            return power_bid_from_average(float(self.values[t, 0]), self.params)
        return SoCBidCurve(self.boundaries, self.values[t])


def soc_bid_boundaries(params: StorageParams, segments_per_hour_of_duration: int = 20) -> np.ndarray:
    """Equal-width segment boundaries covering the storage's SoC range."""
    if segments_per_hour_of_duration < 1:
        raise DataValidationError(
            f"segments_per_hour_of_duration must be >= 1, got {segments_per_hour_of_duration}"
        )
    num = max(1, int(round(segments_per_hour_of_duration * params.duration_hours)))
    return np.linspace(params.soc_min, params.soc_max, num + 1)


_BLOCK_FLOATS = 2**16  # cap on the entries of each temporary of a block of curves or counts


def _bid_blocks(
    curves, horizon: int, params: StorageParams, grid: SoCGrid, kinds: tuple[str, ...],
    segments_per_hour: int,
):
    """Each kind's segment boundaries, and a generator of (first period, means) blocks.

    ``curves`` yields (t, curve after period t) on ``grid`` for t = ``horizon``
    down to 0, as a backward pass does; it is buffered a block of rows at a
    time. Period t's dispatch trades against the value of energy left after
    it, so the bid of 0-indexed period t comes from the curve after period
    t+1; the pre-horizon curve (t = 0) sets no bid. Each block of curves is
    integrated once, and ``means[i]`` holds kind i's segment means for the
    block's periods, SoC axis first: ``(J, periods)``. A running minimum down
    that axis makes every bid exactly non-increasing: cumulative differences
    leave +-1-ulp bumps on flat runs, which must not decide a crossing.
    """
    validate_params(params)
    bounds = [
        np.array([params.soc_min, params.soc_max]) if kind == "power"
        else soc_bid_boundaries(params, segments_per_hour)
        for kind in kinds
    ]
    check_soc_range(grid.soc_min, grid.soc_max, params, "grid range")
    edges = _cell_edges(grid)
    plans = [_interp_plan(edges, b) for b in bounds]
    rows = max(1, _BLOCK_FLOATS // (max(grid.num_points, *(b.size for b in bounds)) + 1))

    def reduced():
        for first, block in _stream_blocks(curves, rows, grid.num_points, horizon):
            cum = _cumulative(edges, block)
            yield first, [
                np.minimum.accumulate(_segment_means(plan, cum), axis=0) for plan in plans
            ]

    return bounds, reduced()


def _bid_table(
    source: ValueSurface | PriceSeries, params: StorageParams, grid: SoCGrid,
    kind: str, segments_per_hour: int,
) -> BidSchedule:
    """The ``kind`` bid schedule of a value surface's rows or a forecast tape's backward pass."""
    if isinstance(source, ValueSurface):
        horizon, period_hours = source.horizon, source.step_hours
        curves = zip(range(horizon, -1, -1), source.values[::-1])
    else:
        horizon, period_hours = len(source), source.resolution_hours
        curves = _backward_curves(source, params, grid)
    (bounds,), blocks = _bid_blocks(curves, horizon, params, grid, (kind,), segments_per_hour)
    table = np.empty((horizon, bounds.size - 1))
    for first, (means,) in blocks:
        table[first : first + means.shape[1]] = means.T
    return BidSchedule(period_hours, params, bounds, table, kind)


def _stream_blocks(curves, rows: int, n: int, horizon: int):
    """Buffer a stream of (t, curve after t), t falling, into (first period, block) pairs.

    The buffer is reused, so each block must be consumed before the next is asked for.
    """
    block = np.empty((rows, n))
    for t, q in curves:
        if t > 0:
            block[(t - 1) % rows] = q
            if (t - 1) % rows == 0:
                yield t - 1, block[: horizon - t + 1]


def make_power_bids(surface: ValueSurface, params: StorageParams) -> BidSchedule:
    """One power bid per period: the one-segment SoC bid of the end-of-period curve.

    Period t's bid comes from curve t+1 of the surface.
    """
    return _bid_table(surface, params, surface.grid, "power", 1)


def make_soc_bids(
    surface: ValueSurface,
    params: StorageParams,
    segments_per_hour_of_duration: int = 20,
) -> BidSchedule:
    """One SoC bid curve per period: segment-wise averages of the end-of-period curve.

    Twenty segments per hour of storage duration by default, mirroring the
    usual cap on generator bid segments. Every row is exactly non-increasing.
    """
    return _bid_table(surface, params, surface.grid, "soc", segments_per_hour_of_duration)


def bid_schedule_from_prices(
    prediction: PriceSeries,
    params: StorageParams,
    grid: SoCGrid,
    bid_model: str,
    segments_per_hour_of_duration: int = 20,
) -> BidSchedule:
    """Valuation and bid reduction fused into one backward pass.

    Produces the same schedule as running the full backward induction and
    then ``make_power_bids`` or ``make_soc_bids``, but keeps only one curve
    and one block of curves in memory, which is what makes year-long 5-minute
    valuations practical for long-duration storage.
    """
    if bid_model not in ("power", "soc"):
        raise DataValidationError(f"unknown bid model {bid_model!r}")
    return _bid_table(prediction, params, grid, bid_model, segments_per_hour_of_duration)
