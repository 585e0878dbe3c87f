"""Turning marginal-value surfaces into market bids.

A bid is one type, :class:`SoCBidCurve`: a discharge and a charge price
threshold per SoC segment, so dispatch depends on where the storage
currently sits. An SoC bid averages the marginal-value curve over
equal-width SoC segments. A power bid is the one-segment bid over the whole
SoC range, built from the SoC-average marginal value: one discharge/charge
price threshold pair per period, so the dispatcher needs no SoC information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (DataValidationError, PriceSeries, SoCGrid, StorageParams, check_soc_range,
                    check_step)
from .valuation import ValueSurface, _backward_curves, _cell_edges, _non_increasing_rows


def _check_segments(boundaries, values, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """Float arrays of J+1 increasing boundaries and rows of J values, each floored."""
    bounds = np.asarray(boundaries, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bounds.ndim != 1 or vals.ndim != ndim or bounds.size != vals.shape[-1] + 1:
        raise DataValidationError("need J+1 boundaries for J segment values")
    if vals.shape[-1] < 1:
        raise DataValidationError("an SoC bid needs at least one segment")
    if np.any(np.diff(bounds) <= 0):
        raise DataValidationError("segment boundaries must be strictly increasing")
    return bounds, _non_increasing_rows(vals)


@dataclass(frozen=True, eq=False)
class SoCBidCurve:
    """Discharge and charge price thresholds ($/MWh) per SoC segment.

    ``boundaries`` has one more entry than each threshold array and spans the
    bid's SoC range. A price at or above a segment's ``discharge`` threshold
    discharges it, one below its ``charge`` threshold charges it. Thresholds
    are stored as their running minimum, so they never rise with SoC and
    greedy segment dispatch is optimal. A power bid is the one-segment curve
    over [soc_min, soc_max].
    """

    boundaries: np.ndarray
    discharge: np.ndarray
    charge: np.ndarray

    def __post_init__(self) -> None:
        bounds, discharge = _check_segments(self.boundaries, self.discharge, 1)
        _, charge = _check_segments(bounds, self.charge, 1)
        for name, array in (("boundaries", bounds), ("discharge", discharge), ("charge", charge)):
            array = array.copy()
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def bid_thresholds(values, params: StorageParams):
    """Discharge and charge price thresholds of stored-energy values ($/MWh).

    Discharging one MWh to the grid drains 1/eta MWh of stored value and
    costs c, so the break-even price is c + q/eta. Charging one MWh from the
    grid stores eta MWh, worth q*eta. Works on floats and arrays alike.
    """
    eta = params.efficiency_one_way
    return params.discharge_cost + values / eta, values * eta


def soc_bid(boundaries, values, params: StorageParams) -> SoCBidCurve:
    """The bid of per-segment stored-energy values ($/MWh), floored, as price thresholds."""
    bounds, vals = _check_segments(boundaries, values, 1)
    return SoCBidCurve(bounds, *bid_thresholds(vals, params))


@dataclass(frozen=True, eq=False)
class BidSchedule:
    """Every period's stored-energy values over SoC segments shared by all periods.

    ``values[t, j]`` is the value ($/MWh) period t bids for segment j, between
    ``boundaries[j]`` and ``boundaries[j + 1]``. A storage prices period t's bid
    as ``soc_bid(boundaries, values[t], params)``. A power schedule has the one
    segment [soc_min, soc_max]. Rows are stored as their running minimum; a
    table that never rises is held as it is.
    """

    period_hours: float
    boundaries: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        check_step(self.period_hours, what="period_hours")
        bounds, vals = _check_segments(self.boundaries, self.values, 2)
        if vals.shape[0] < 1:
            raise DataValidationError("bid schedule is empty")
        # read-only, the table as a view: no copy of a year-long table
        for name, array in (("boundaries", bounds.copy()), ("values", vals.view())):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return self.values.shape[0]


# Cap on the entries of a reduction pass's buffers of curves and of their integrals,
# of each buffer of bid means a sweep counts crossings on, and of each counting temporary.
_BLOCK_FLOATS = 2**16


def _segment_bounds(params: StorageParams, kind: str, segments_per_hour: int) -> np.ndarray:
    """Equal-width segment boundaries of a ``kind`` bid over the storage's SoC range.

    A ``"power"`` bid is one segment; an ``"soc"`` bid has ``segments_per_hour``
    per hour of duration, at least one.
    """
    if kind not in ("power", "soc"):
        raise DataValidationError(f"unknown bid model {kind!r}")
    if segments_per_hour < 1:
        raise DataValidationError(
            f"segments_per_hour_of_duration must be >= 1, got {segments_per_hour}"
        )
    segments = 1
    if kind == "soc":
        segments = max(1, int(round(segments_per_hour * params.duration_hours)))
    return np.linspace(params.soc_min, params.soc_max, segments + 1)


def _interp_plan(edges: np.ndarray, points: np.ndarray) -> tuple:
    """Where np.interp reads each point on ``edges``; a pass builds it once per bid kind.

    The points taken as they are (on an edge or past an end) and their edges,
    cells k and k + 1, and as columns the cell widths, offsets and point gaps.
    """
    j = np.clip(np.searchsorted(edges, points, side="right") - 1, 0, edges.size - 1)
    as_is = np.flatnonzero((edges[j] == points) | (j == edges.size - 1) | (points < edges[0]))
    k = np.minimum(j, edges.size - 2)
    width, offset = edges[k + 1] - edges[k], points - edges[k]
    return as_is, j[as_is], k, k + 1, width[:, None], offset[:, None], np.diff(points)[:, None]


def _segment_means(plan: tuple, cum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mean of each column of ``cum`` between consecutive points of ``plan`` into ``out``.

    ``cum`` holds running integrals over the edges, SoC axis first. Its columns are
    read at the points with np.interp's arithmetic, so each gets np.interp's bits:
    the integral as it is, else ``slope * (x - edges[k]) + cum[k]``.
    """
    as_is, at, k, after, width, offset, gaps = plan
    lo = cum.take(k, axis=0)
    ends = cum.take(after, axis=0)
    ends -= lo  # in place, in the order of (after - lo) / width * offset + lo
    ends /= width
    ends *= offset
    ends += lo
    ends[as_is] = cum.take(at, axis=0)
    np.subtract(ends[1:], ends[:-1], out=out)  # np.diff's bits, without its array
    out /= gaps
    return out


def _bid_blocks(curves, horizon: int, grid: SoCGrid, bounds: dict, held: dict):
    """Write the segment means of each bid shape into its caller's buffer as periods fall.

    ``curves`` yields (t, curve after period t) on ``grid`` for t = ``horizon``
    down to 0, as a backward pass does. Period t's dispatch trades against the
    value of energy left after it, so the bid of 0-indexed period t comes from
    the curve after period t+1; the pre-horizon curve (t = 0) sets no bid.
    The pass allocates two buffers once: a block of curves, weighted by cell
    width in place when full, and its running integrals, SoC axis first, each
    column a 1-D cumsum's bits. A block's segment means over ``bounds[key]``
    go straight into the caller's ``(J, width)`` buffer ``held[key]``, filled from
    its right end, and are floored there: cumulative differences leave +-1-ulp
    bumps on flat runs. Yields (key, first period, filled view) when a block would
    not fit, and once per key at the end; consume each view before the next. A
    width of ``_BLOCK_FLOATS // J`` or of ``horizon`` periods always fits a block.
    """
    edges = _cell_edges(grid)
    widths = np.diff(edges)
    plans = {key: _interp_plan(edges, b) for key, b in bounds.items()}
    rows = max(1, _BLOCK_FLOATS // (max(grid.num_points, *(b.size for b in bounds.values())) + 1))
    block = np.empty((rows, grid.num_points))
    cum = np.zeros((edges.size, rows))  # zero row kept, the integral at edges[0]
    free = {key: buffer.shape[1] for key, buffer in held.items()}
    for t, q in curves:
        if t > 0:
            block[(t - 1) % rows] = q
            if (t - 1) % rows == 0:
                size = min(rows, horizon - t + 1)
                part = np.multiply(block[:size], widths, out=block[:size])
                np.cumsum(part.T, axis=0, out=cum[1:, :size])
                for key, plan in plans.items():
                    if free[key] < size:
                        yield key, t - 1 + size, held[key][:, free[key] :]
                        free[key] = held[key].shape[1]
                    free[key] -= size
                    means = held[key][:, free[key] : free[key] + size]
                    _segment_means(plan, cum[:, :size], means)
                    np.minimum.accumulate(means, axis=0, out=means)
    for key, buffer in held.items():
        yield key, 0, buffer[:, free[key] :]


def _bid_table(
    source: ValueSurface | PriceSeries, params: StorageParams, grid: SoCGrid,
    kind: str, segments_per_hour: int,
) -> BidSchedule:
    """The ``kind`` bid schedule of a value surface's rows or a forecast tape's backward pass.

    :func:`_bid_blocks` writes the rows floored into the table, which the schedule holds as is.
    """
    if isinstance(source, ValueSurface):
        check_soc_range(grid.soc_min, grid.soc_max, params, "grid range")
        horizon, period_hours = source.horizon, source.step_hours
        curves = zip(range(horizon, -1, -1), source.values[::-1])
    else:
        horizon, period_hours = len(source), source.resolution_hours
        curves = _backward_curves(source, params, grid)
    bounds = _segment_bounds(params, kind, segments_per_hour)
    table = np.empty((horizon, bounds.size - 1))
    for _ in _bid_blocks(curves, horizon, grid, {kind: bounds}, {kind: table.T}):
        pass
    return BidSchedule(period_hours, bounds, table)


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
    return _bid_table(prediction, params, grid, bid_model, segments_per_hour_of_duration)
