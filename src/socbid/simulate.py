"""Sequential single-period dispatch of a price-taking storage against a price tape.

Each settlement interval is dispatched on its own: the storage acts on the
realized price and its standing bid, SoC carries over, and no look-ahead is
allowed. Six experiment cases combine the settlement market (day-ahead or
real-time), the bid shape (power or SoC), and the forecast used for
valuation (day-ahead prices as a naive forecast, or the realized prices
themselves).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import bids
from .bids import (DEFAULT_SEGMENTS_PER_HOUR, BidSchedule, SoCBidCurve, _bid_blocks,
                   _segment_bounds, bid_thresholds)
from .bids import bid_schedule as bid_schedule_from_prices  # noqa: F401 - bench/spans.py wraps it
from .model import (
    DEFAULT_GRID_POINTS,
    DataValidationError,
    DispatchDecision,
    PriceSeries,
    SoCGrid,
    StorageParams,
    check_initial_soc,
    check_soc_range,
    check_step,
)
from .valuation import _backward_curves

CASE_IDS = ("DA-PB-DF", "DA-SB-DF", "RT-PB-DF", "RT-SB-DF", "RT-PB-PF", "RT-SB-PF")


@dataclass(frozen=True)
class CaseConfig:
    """One cell of the experiment matrix, keyed by its case id.

    The id encodes settlement market (DA/RT), bid model (PB/SB), and
    forecast source (DF = day-ahead prices as forecast, PF = perfect
    foresight of the settlement prices).
    """

    case_id: str
    initial_soc: float = 0.0

    def __post_init__(self) -> None:
        if self.case_id not in CASE_IDS:
            raise DataValidationError(
                f"unknown case id {self.case_id!r}; expected one of {', '.join(CASE_IDS)}"
            )

    @property
    def bid_model(self) -> str:
        return "power" if self.case_id[3:5] == "PB" else "soc"

    @property
    def valuation_source(self) -> str:
        return "day_ahead" if self.case_id.endswith("DF") else "real_time"

    @property
    def settlement_source(self) -> str:
        return "day_ahead" if self.case_id.startswith("DA") else "real_time"


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Per-interval arrays (MW, MWh after the interval, $) and aggregates for one case."""

    case_id: str
    initial_soc: float
    discharge: np.ndarray
    charge: np.ndarray
    soc: np.ndarray
    profit: np.ndarray
    total_profit: float
    discharged_energy: float
    cycles: float

    def soc_trajectory(self) -> np.ndarray:
        """SoC after each interval, preceded by the initial SoC."""
        return np.concatenate(([self.initial_soc], self.soc))


def _clamp_soc(e: float, params: StorageParams) -> float:
    """Snap float overshoot, which grows with the SoC magnitude, back onto the bounds."""
    lo, hi = params.soc_min, params.soc_max
    tol = 1e-6 + 1e-9 * max(abs(lo), abs(hi))
    if lo - tol <= e <= hi + tol:
        return min(max(e, lo), hi)
    raise DataValidationError(f"SoC {e} left [{lo}, {hi}] by more than {tol:g} MWh")


def _crossings(
    values: np.ndarray, prices: np.ndarray, params: StorageParams
) -> tuple[np.ndarray, np.ndarray]:
    """Crossing counts of each settlement price against its period's bid.

    ``values`` holds one exactly non-increasing bid per period, SoC axis first
    (J, periods), as stored schedules and :func:`_bid_blocks` make them. Returns
    ``kd = count(price <= discharge thresholds)`` and ``kc = count(price
    < charge thresholds)`` shaped like ``prices``: prefix lengths, found by a
    branchless binary search down each column, a block of periods at a time;
    no temporary exceeds ``bids._BLOCK_FLOATS``.
    """
    per_bid = prices.shape[1]
    rows = max(1, bids._BLOCK_FLOATS // max(values.shape[0], 2 * per_bid))
    kd, kc = np.empty((2, *prices.shape), dtype=np.intp)
    for first in range(0, values.shape[1], rows):
        block = slice(first, first + rows)
        block_prices = prices[block]
        flat, periods = values[:, block].ravel(), block_prices.shape[0]
        # Flat index of the segment each price's search stands on, discharge then charge
        base = np.arange(periods)[:, None] + np.zeros((2, 1, per_bid), dtype=np.intp)
        beats = np.empty(base.shape, dtype=bool)
        n = values.shape[0]
        while n > 1:  # the first segment a price does not beat is at most n above base
            half = n // 2
            discharge, charge = bid_thresholds(flat.take(base + half * periods), params)
            np.less_equal(block_prices, discharge[0], out=beats[0])
            np.less(block_prices, charge[1], out=beats[1])
            base += beats * (half * periods)
            n -= half
        discharge, charge = bid_thresholds(flat.take(base), params)
        kd[block] = base[0] // periods + (block_prices <= discharge[0])
        kc[block] = base[1] // periods + (block_prices < charge[1])
    return kd, kc


def _settle(
    prices: list, boundaries: list, kd: list, kc: list, params: StorageParams, dt: float,
    e: float,
) -> tuple[list, list, list]:
    """Dispatch each interval in turn; returns discharge, charge and SoC-after lists.

    ``kd`` and ``kc`` are each interval's crossing counts against its bid
    (see :func:`_crossings`), counted on its exactly non-increasing bid, so
    a price beats the discharge thresholds of the segments from ``kd`` up and
    the charge thresholds of the segments below ``kc``. So a positive price
    discharges the unit down to ``boundaries[kd]`` when the SoC is above it;
    otherwise the unit charges up to ``boundaries[kc]`` when the SoC is below
    it. A positive price that beats every discharge threshold (``kd == 0``)
    never charges, even at ``soc_min``. The power rating and the SoC bounds
    cap the move.
    """
    check_initial_soc(e, params)
    eta = params.efficiency_one_way
    big_p = params.power_rating
    lo, hi = params.soc_min, params.soc_max
    # kd == J beats no segment and kc == 0 none, wherever the SoC sits
    floors = boundaries[:-1] + [math.inf]
    ceilings = [-math.inf] + boundaries[1:]
    n = len(prices)
    discharge = [0.0] * n
    charge = [0.0] * n
    soc = [0.0] * n
    for k, (price, down, up) in enumerate(zip(prices, kd, kc)):
        p = b = 0.0
        if price > 0.0 and e > floors[down]:
            p = min(big_p, (e - floors[down]) * eta / dt)
        elif (down or price <= 0.0) and e < ceilings[up]:
            b = min(big_p, (ceilings[up] - e) / (eta * dt))
        after = e - p * dt / eta + b * eta * dt
        if not lo <= after <= hi:
            after = _clamp_soc(after, params)
        discharge[k] = p
        charge[k] = b
        soc[k] = after
        e = after
    return discharge, charge, soc


def _cash(price, discharge, charge, params: StorageParams, dt: float):
    """Each interval's profit: the net discharge sold at the price, less the discharge
    cost. Takes floats or arrays; on arrays it books every interval at once."""
    return price * (discharge - charge) * dt - params.discharge_cost * discharge * dt


def step_soc_bid(
    e_prev: float,
    price: float,
    curve: SoCBidCurve,
    params: StorageParams,
    dt_hours: float,
) -> DispatchDecision:
    """Dispatch one interval under an SoC bid by a greedy marginal sweep.

    Discharges segment by segment while the price reaches the segment's
    discharge threshold, or charges upward while it is below the segment's
    charge threshold; movement stops at the first failing segment boundary,
    the power rating, or an SoC bound. With non-increasing thresholds this
    greedy sweep solves the one-interval problem exactly. Discharge is
    disabled at or below a price of 0. A power bid is the one-segment curve.
    """
    boundaries = curve.boundaries.tolist()
    check_soc_range(boundaries[0], boundaries[-1], params, "bid curve")
    check_step(dt_hours, price)
    kd = sum(price <= d for d in curve.discharge.tolist())
    kc = sum(price < c for c in curve.charge.tolist())
    (p,), (b,), (soc,) = _settle([price], boundaries, [kd], [kc], params, dt_hours, e_prev)
    return DispatchDecision(p, b, soc, _cash(price, p, b, params, dt_hours))


def _intervals_per_bid(period_hours: float, periods: int, prices: PriceSeries) -> int:
    """Settlement intervals each of ``periods`` bid periods covers on ``prices``."""
    dt = prices.resolution_hours
    ratio = period_hours / dt
    per_bid = round(ratio)
    if abs(ratio - per_bid) > 1e-9 or per_bid < 1:
        raise DataValidationError(
            f"bid period {period_hours} h is not a whole number of "
            f"{dt} h settlement intervals"
        )
    if len(prices) != periods * per_bid:
        raise DataValidationError(
            f"{len(prices)} settlement intervals do not match "
            f"{periods} bids x {per_bid} intervals each"
        )
    return per_bid


def _settled(
    case_id: str, prices: PriceSeries, boundaries: np.ndarray, kd: np.ndarray, kc: np.ndarray,
    params: StorageParams, initial_soc: float,
) -> SimulationResult:
    """Settle ``prices`` from their crossing counts and collect the result."""
    dt = prices.resolution_hours
    settled = _settle(
        prices.values.tolist(), boundaries.tolist(), kd.ravel().tolist(), kc.ravel().tolist(),
        params, dt, initial_soc,
    )
    discharge, charge, soc = (np.array(column, float) for column in settled)
    profit = _cash(prices.values, discharge, charge, params, dt)
    discharged = math.fsum((discharge * dt).tolist())
    return SimulationResult(
        case_id=case_id,
        initial_soc=initial_soc,
        discharge=discharge,
        charge=charge,
        soc=soc,
        profit=profit,
        total_profit=math.fsum(profit.tolist()),
        discharged_energy=discharged,
        cycles=discharged / params.energy_capacity,
    )


def run_schedule(
    prices: PriceSeries,
    schedule: BidSchedule,
    params: StorageParams,
    initial_soc: float,
    case_id: str = "",
) -> SimulationResult:
    """Settle a bid schedule against a price tape, carrying SoC forward.

    Each schedule entry covers a whole number of settlement intervals; an
    hourly schedule against 5-minute prices applies each bid to its twelve
    subintervals, with power limits per interval. ``params`` prices each row as
    :func:`~socbid.bids.soc_bid` does and settles it; rows settle as the
    schedule stores them, as their running minimum (see :class:`BidSchedule`).
    """
    per_bid = _intervals_per_bid(schedule.period_hours, len(schedule), prices)
    check_soc_range(*schedule.boundaries[[0, -1]].tolist(), params, "bid curve")
    settlement = prices.values.reshape(len(schedule), per_bid)
    kd, kc = _crossings(schedule.values.T, settlement, params)
    return _settled(case_id, prices, schedule.boundaries, kd, kc, params, initial_soc)


def run_cases(
    configs: Sequence[CaseConfig],
    da_prices: PriceSeries | None,
    rt_prices: PriceSeries | None,
    params: StorageParams,
    grid_points: int = DEFAULT_GRID_POINTS,
    segments_per_hour_of_duration: int = DEFAULT_SEGMENTS_PER_HOUR,
) -> list[SimulationResult]:
    """Run experiment cases end to end: valuation, bid design, settlement.

    Valuation runs at the native resolution of the forecast series (hourly
    day-ahead prices for DF cases, the settlement tape itself for PF cases)
    on a grid of at least ``grid_points`` points (``SoCGrid.for_storage``),
    bids are built per valuation period, and settlement runs at the
    settlement series' native resolution. Each forecast tape is
    valued once and reduced to every bid shape its cases use. Results follow
    the order of ``configs``. With perfect foresight and SoC bids this
    reproduces the multi-period optimum up to discretization.
    """
    series = {"day_ahead": da_prices, "real_time": rt_prices}
    for config in configs:
        for source in (config.valuation_source, config.settlement_source):
            if series[source] is None:
                raise DataValidationError(f"case {config.case_id} needs {source} prices")
    if da_prices is not None and rt_prices is not None:
        if (da_prices.start, da_prices.span) != (rt_prices.start, rt_prices.span):
            raise DataValidationError(
                f"day-ahead tape (start {da_prices.start}, span {da_prices.span}) and real-time "
                f"tape (start {rt_prices.start}, span {rt_prices.span}) must cover one horizon"
            )
    for config in configs:
        check_initial_soc(config.initial_soc, params)

    results: list[SimulationResult] = [None] * len(configs)
    for source in dict.fromkeys(config.valuation_source for config in configs):
        group = [config for config in configs if config.valuation_source == source]
        forecast = series[source]
        bounds = {c.bid_model: _segment_bounds(params, c.bid_model, segments_per_hour_of_duration)
                  for c in group}
        # One pair of crossing-count arrays per (bid model, settlement tape) the group
        # settles, counted a buffer of bid periods at a time; no bid table is kept.
        counts = {}
        for model, market in dict.fromkeys((c.bid_model, c.settlement_source) for c in group):
            per_bid = _intervals_per_bid(forecast.resolution_hours, len(forecast), series[market])
            prices = series[market].values.reshape(len(forecast), per_bid)
            counts[model, market] = (prices, *np.empty((2, *prices.shape), np.intp))
        budget = bids._BLOCK_FLOATS
        held = {m: np.empty((b.size - 1, min(len(forecast), max(1, budget // (b.size - 1)))))
                for m, b in bounds.items()}
        grid = SoCGrid.for_storage(params, forecast.resolution_hours, grid_points)
        curves = _backward_curves(forecast, params, grid)
        for model, first, means in _bid_blocks(curves, len(forecast), grid, bounds, held):
            for (held_model, _), (prices, kd, kc) in counts.items():
                if held_model == model:
                    rows = slice(first, first + means.shape[1])
                    kd[rows], kc[rows] = _crossings(means, prices[rows], params)
        for i, config in enumerate(configs):
            if config.valuation_source == source:
                _, kd, kc = counts[config.bid_model, config.settlement_source]
                results[i] = _settled(
                    config.case_id, series[config.settlement_source],
                    bounds[config.bid_model], kd, kc, params, config.initial_soc,
                )
    return results


def run_case(
    config: CaseConfig,
    da_prices: PriceSeries | None,
    rt_prices: PriceSeries | None,
    params: StorageParams,
    grid: SoCGrid,
    segments_per_hour_of_duration: int = DEFAULT_SEGMENTS_PER_HOUR,
) -> SimulationResult:
    # Kept for the benchmark: bench/workloads.py calls it and bench/spans.py wraps it
    check_soc_range(grid.soc_min, grid.soc_max, params, "grid range")
    (result,) = run_cases(
        (config,), da_prices, rt_prices, params, grid.num_points,
        segments_per_hour_of_duration=segments_per_hour_of_duration,
    )
    return result


def utilization(result: SimulationResult, reference: SimulationResult) -> float:
    """Profit of a case relative to the perfect-foresight SoC-bid reference."""
    if reference.total_profit <= 0:
        raise DataValidationError(
            f"reference profit {reference.total_profit} is not positive; "
            "utilization is undefined in a degenerate market"
        )
    return result.total_profit / reference.total_profit
