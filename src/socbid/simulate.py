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
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .bids import (
    BidSchedule,
    PowerBid,
    SoCBidCurve,
    bid_schedule_from_prices,
    booked_value,
    threshold_table,
)
from .model import (
    SOC_EPS,
    DataValidationError,
    DispatchDecision,
    PriceSeries,
    SoCGrid,
    StorageParams,
    check_soc_range,
    validate_params,
)
from .valuation import ValueCurve

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
    def settlement_market(self) -> str:
        return self.case_id[:2]

    @property
    def bid_model(self) -> str:
        return "power" if self.case_id[3:5] == "PB" else "soc"

    @property
    def valuation_source(self) -> str:
        return "day_ahead" if self.case_id.endswith("DF") else "real_time"

    @property
    def settlement_source(self) -> str:
        return "day_ahead" if self.settlement_market == "DA" else "real_time"


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Per-interval arrays (MW, MWh after the interval, $) and aggregates for one case.

    ``value_delta`` is the value-function change booked by SoC-bid dispatch
    (zero under power bids).
    """

    case_id: str
    initial_soc: float
    step_hours: float
    discharge: np.ndarray
    charge: np.ndarray
    soc: np.ndarray
    profit: np.ndarray
    value_delta: np.ndarray
    total_profit: float
    discharged_energy: float
    cycles: float

    @property
    def decisions(self) -> tuple[DispatchDecision, ...]:
        """The intervals as DispatchDecision records."""
        columns = (self.discharge, self.charge, self.soc, self.profit, self.value_delta)
        return tuple(DispatchDecision(*row) for row in zip(*(c.tolist() for c in columns)))

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


def _check_soc(e_prev: float, params: StorageParams) -> None:
    if e_prev < params.soc_min - SOC_EPS or e_prev > params.soc_max + SOC_EPS:
        raise DataValidationError(
            f"initial SoC {e_prev} outside [{params.soc_min}, {params.soc_max}]"
        )


def _settle(
    prices: list, boundaries: list, thresholds, per_bid: int, params: StorageParams, dt: float,
    e: float,
) -> tuple[list, list, list, list]:
    """Dispatch each interval in turn; returns discharge, charge, SoC-after and profit lists.

    ``thresholds`` yields each period's (discharge, charge) price thresholds
    for the segments between ``boundaries``; a period covers ``per_bid``
    intervals. When a non-negative price beats the discharge threshold of
    the segment just below the SoC (segment 0 at the bottom), the unit
    discharges down through the segments whose threshold the price beats;
    otherwise it charges up through those whose charge threshold is above
    the price. The power rating and the SoC bounds cap the move.
    """
    _check_soc(e, params)
    eta = params.efficiency_one_way
    c = params.discharge_cost
    big_p = params.power_rating
    lo, hi = params.soc_min, params.soc_max
    top = len(boundaries) - 1
    n = len(prices)
    discharge = [0.0] * n
    charge = [0.0] * n
    soc = [0.0] * n
    profit = [0.0] * n
    k = 0
    for dis, chg in thresholds:
        for price in prices[k : k + per_bid]:
            p = b = 0.0
            j = min(bisect_left(boundaries, e), top) - 1
            if price >= 0.0 and price > dis[max(j, 0)]:
                stop = e
                # Past the power-limited reach, deeper segments change nothing.
                while j >= 0 and price > dis[j] and (e - stop) * eta / dt < big_p:
                    stop = boundaries[j]
                    j -= 1
                if stop < e:
                    p = min(big_p, (e - stop) * eta / dt)
            else:
                j = max(bisect_right(boundaries, e) - 1, 0)
                stop = e
                while j < top and price < chg[j] and (stop - e) / (eta * dt) < big_p:
                    j += 1
                    stop = boundaries[j]
                if stop > e:
                    b = min(big_p, (stop - e) / (eta * dt))
            after = e - p * dt / eta + b * eta * dt
            if not lo <= after <= hi:
                after = _clamp_soc(after, params)
            discharge[k] = p
            charge[k] = b
            soc[k] = after
            profit[k] = price * (p - b) * dt - c * p * dt
            e = after
            k += 1
    return discharge, charge, soc, profit


def step_power_bid(
    e_prev: float,
    price: float,
    bid: PowerBid,
    params: StorageParams,
    dt_hours: float,
) -> DispatchDecision:
    """Dispatch one interval under a power bid.

    Discharge at full available power when the price clears the discharge
    bid, charge when it falls below the charge bid, otherwise idle. A price
    equal to either bid resolves to idle, and discharge is never taken at a
    negative price. Available power is capped so the SoC stays in bounds.
    """
    return step_soc_bid(e_prev, price, bid, params, dt_hours)


def step_soc_bid(
    e_prev: float,
    price: float,
    curve: SoCBidCurve | PowerBid,
    params: StorageParams,
    dt_hours: float,
) -> DispatchDecision:
    """Dispatch one interval under an SoC bid by a greedy marginal sweep.

    Discharges segment by segment while the price (net of discharge cost and
    efficiency) beats the segment's stored-energy value, or charges upward
    while the stored value beats the price; movement stops at the first
    failing segment boundary, the power rating, or an SoC bound. With
    non-increasing segment values this greedy sweep solves the one-interval
    problem exactly. Discharge is disabled at negative prices. A power bid
    settles as one segment carrying its own price pair.
    """
    boundaries, dis, chg = threshold_table(curve, params)
    settled = _settle([price], boundaries, [(dis, chg)], 1, params, dt_hours, e_prev)
    p, b, soc_after, profit = (column[0] for column in settled)
    return DispatchDecision(p, b, soc_after, profit, booked_value(curve, e_prev, soc_after))


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
    subintervals, with power limits per interval.
    """
    dt = prices.resolution_hours
    ratio = schedule.period_hours / dt
    per_bid = round(ratio)
    if abs(ratio - per_bid) > 1e-9 or per_bid < 1:
        raise DataValidationError(
            f"bid period {schedule.period_hours} h is not a whole number of "
            f"{dt} h settlement intervals"
        )
    if len(prices) != len(schedule) * per_bid:
        raise DataValidationError(
            f"{len(prices)} settlement intervals do not match "
            f"{len(schedule)} bids x {per_bid} intervals each"
        )
    boundaries = schedule.boundaries.tolist()
    check_soc_range(boundaries[0], boundaries[-1], params, "bid curve")
    settled = _settle(
        prices.values.tolist(), boundaries, schedule.thresholds(), per_bid, params, dt,
        initial_soc,
    )
    discharge, charge, soc, profit = (np.array(column) for column in settled)
    value_delta = schedule.value_deltas(np.concatenate(([initial_soc], soc)), per_bid)
    discharged = math.fsum(p * dt for p in settled[0])
    return SimulationResult(
        case_id=case_id,
        initial_soc=initial_soc,
        step_hours=dt,
        discharge=discharge,
        charge=charge,
        soc=soc,
        profit=profit,
        value_delta=value_delta,
        total_profit=math.fsum(settled[3]),
        discharged_energy=discharged,
        cycles=discharged / params.energy_capacity,
    )


def run_cases(
    configs: Sequence[CaseConfig],
    da_prices: PriceSeries | None,
    rt_prices: PriceSeries | None,
    params: StorageParams,
    grids: Mapping[str, SoCGrid],
    segments_per_hour_of_duration: int = 20,
    terminal: ValueCurve | None = None,
) -> list[SimulationResult]:
    """Run experiment cases end to end: valuation, bid design, settlement.

    Valuation runs at the native resolution of the forecast series (hourly
    day-ahead prices for DF cases, the settlement tape itself for PF cases)
    on ``grids[source]``, bids are built per valuation period, and settlement
    runs at the settlement series' native resolution. Each forecast tape is
    valued once and reduced to every bid shape its cases use. Results follow
    the order of ``configs``. With perfect foresight and SoC bids this
    reproduces the multi-period optimum up to discretization.
    """
    validate_params(params)
    series = {"day_ahead": da_prices, "real_time": rt_prices}
    for config in configs:
        for source in (config.valuation_source, config.settlement_source):
            if series[source] is None:
                raise DataValidationError(f"case {config.case_id} needs {source} prices")
    if da_prices is not None and rt_prices is not None:
        if abs((da_prices.span - rt_prices.span).total_seconds()) > 1e-6:
            raise DataValidationError(
                f"day-ahead span {da_prices.span} != real-time span {rt_prices.span}"
            )
    for config in configs:
        _check_soc(config.initial_soc, params)

    results: list[SimulationResult] = [None] * len(configs)
    for source in dict.fromkeys(config.valuation_source for config in configs):
        group = [i for i, config in enumerate(configs) if config.valuation_source == source]
        models = tuple(dict.fromkeys(configs[i].bid_model for i in group))
        schedules = dict(zip(models, bid_schedule_from_prices(
            series[source],
            params,
            grids[source],
            models,
            segments_per_hour_of_duration=segments_per_hour_of_duration,
            terminal=terminal,
        )))
        for i in group:
            config = configs[i]
            results[i] = run_schedule(
                series[config.settlement_source], schedules[config.bid_model], params,
                config.initial_soc, case_id=config.case_id,
            )
        del schedules  # free this tape's schedules before the next tape is valued
    return results


def run_case(
    config: CaseConfig,
    da_prices: PriceSeries | None,
    rt_prices: PriceSeries | None,
    params: StorageParams,
    grid: SoCGrid,
    segments_per_hour_of_duration: int = 20,
    terminal: ValueCurve | None = None,
) -> SimulationResult:
    """Run one experiment case end to end, valuing its forecast tape on ``grid``.

    The one-case form of :func:`run_cases`.
    """
    (result,) = run_cases(
        (config,), da_prices, rt_prices, params, {config.valuation_source: grid},
        segments_per_hour_of_duration=segments_per_hour_of_duration, terminal=terminal,
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


def windowed_profit(
    result: SimulationResult,
    skip_start_hours: float = 0.0,
    skip_end_hours: float = 0.0,
) -> float:
    """Profit excluding warm-up and cool-down windows at the tape's ends.

    Useful to neutralize the flat-zero terminal condition, which depresses
    value over roughly the last duration-worth of periods.
    """
    n = len(result.profit)
    lo = int(math.ceil(skip_start_hours / result.step_hours))
    hi = n - int(math.ceil(skip_end_hours / result.step_hours))
    if lo >= hi:
        raise DataValidationError("exclusion windows cover the whole horizon")
    return math.fsum(result.profit[lo:hi].tolist())
