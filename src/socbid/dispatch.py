"""Single-bus, single-period economic dispatch with storage participants.

A merit-order toy market: generator offers form the supply stack, storage
discharge bids join it as supply steps, and storage charge bids enter as
elastic demand blocks on top of the fixed load. Clearing is uniform-price.
Its purpose is to demonstrate that a price-taking storage's cleared dispatch
coincides with the single-interval arbitrage step evaluated at the clearing
price, which is what justifies backtesting with price tapes alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bids import PowerBid, SoCBidCurve, booked_value, threshold_table
from .model import (
    DataValidationError,
    DispatchDecision,
    StorageParams,
    validate_params,
)


class InfeasibleMarketError(RuntimeError):
    """Raised when fixed demand cannot be served by the offered supply."""


@dataclass(frozen=True)
class GeneratorOffer:
    """A generator's offer curve: (capacity MW, marginal cost $/MWh) segments."""

    name: str
    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise DataValidationError(f"offer {self.name} has no segments")
        last_cost = -math.inf
        for cap, cost in self.segments:
            if cap <= 0:
                raise DataValidationError(f"offer {self.name} has a non-positive capacity")
            if cost < last_cost:
                raise DataValidationError(
                    f"offer {self.name} has decreasing segment costs (non-convex)"
                )
            last_cost = cost

    @property
    def capacity(self) -> float:
        return sum(cap for cap, _ in self.segments)


@dataclass(frozen=True)
class StorageUnit:
    """A storage participant: physical parameters, current SoC, standing bid."""

    name: str
    params: StorageParams
    soc: float
    bid: PowerBid | SoCBidCurve

    def __post_init__(self) -> None:
        validate_params(self.params)
        if not self.params.soc_min <= self.soc <= self.params.soc_max:
            raise DataValidationError(
                f"storage {self.name} SoC {self.soc} outside "
                f"[{self.params.soc_min}, {self.params.soc_max}]"
            )
        if isinstance(self.bid, PowerBid) and self.bid.charge_bid > self.bid.discharge_bid:
            # A crossed pair would clear both directions at once in this
            # market; the sequential backtester handles that regime itself.
            raise DataValidationError(
                f"storage {self.name} has crossed power bids "
                f"(charge {self.bid.charge_bid} > discharge {self.bid.discharge_bid})"
            )


@dataclass(frozen=True)
class MarketInstance:
    """One clearing interval: generator offers, fixed demand, storage units."""

    offers: tuple[GeneratorOffer, ...]
    demand: float
    storages: tuple[StorageUnit, ...] = ()
    period_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise DataValidationError(f"demand must be non-negative, got {self.demand}")
        if self.period_hours <= 0:
            raise DataValidationError("period_hours must be positive")
        names = [o.name for o in self.offers] + [s.name for s in self.storages]
        if len(set(names)) != len(names):
            raise DataValidationError("participant names must be unique")


@dataclass(frozen=True, eq=False)
class ClearingResult:
    """Uniform clearing price and the dispatch of every participant."""

    price: float
    generation: dict[str, float]
    storage: dict[str, DispatchDecision]
    cleared_charge: float

    @property
    def total_generation(self) -> float:
        return sum(self.generation.values())

    @property
    def total_storage_discharge(self) -> float:
        return sum(d.discharge_power for d in self.storage.values())


@dataclass(frozen=True)
class _SupplyRow:
    cost: float
    capacity: float
    rank: int  # generators clear before storage on cost ties
    order: int
    owner: str
    is_storage: bool


@dataclass(frozen=True)
class _DemandRow:
    bid: float
    capacity: float
    owner: str


def _bid_rows(
    unit: StorageUnit, order: int, dt: float
) -> tuple[list[_SupplyRow], list[_DemandRow]]:
    """One supply step per segment below the SoC, one demand block per segment above.

    A power bid is one segment over the whole SoC range. Segment capacities
    are the segment's energy overlap converted to grid power; the unit-wide
    power rating is enforced during acceptance, not in the rows, so deeper
    segments stay available when shallow ones are thin.
    """
    bounds, discharge, charge = threshold_table(unit.bid, unit.params)
    eta = unit.params.efficiency_one_way
    supply = []
    demand = []
    for j in range(len(discharge)):
        below = max(0.0, min(unit.soc, bounds[j + 1]) - bounds[j])
        if below > 0:
            supply.append(_SupplyRow(discharge[j], below * eta / dt, 1, order, unit.name, True))
        above = max(0.0, bounds[j + 1] - max(unit.soc, bounds[j]))
        if above > 0:
            demand.append(_DemandRow(charge[j], above / (eta * dt), unit.name))
    return supply, demand


def _clear(
    instance: MarketInstance,
    supply: list[_SupplyRow],
    demand_blocks: list[_DemandRow],
    power_caps: dict[str, float],
) -> tuple[float, dict[str, float], dict[str, float]]:
    """Uniform-price clearing of the assembled stack.

    The clearing price is the lowest supply-step cost at which cumulative
    willing supply covers fixed demand plus the elastic blocks still willing
    to buy at that price; a demand block whose bid equals the price is
    rejected (ties resolve to no action). ``power_caps`` bounds the total MW
    accepted per storage owner in each direction, which, with monotone bid
    curves, reproduces the power-limited greedy sweep exactly.
    """
    supply = sorted(supply, key=lambda r: (r.cost, r.rank, r.order))

    def capped_sum(rows_mw: dict[str, float]) -> float:
        return sum(min(mw, power_caps.get(owner, math.inf)) for owner, mw in rows_mw.items())

    def willing_supply(price: float) -> float:
        per_owner: dict[str, float] = {}
        for r in supply:
            if r.cost <= price:
                per_owner[r.owner] = per_owner.get(r.owner, 0.0) + r.capacity
        return capped_sum(per_owner)

    def willing_elastic(price: float) -> float:
        per_owner: dict[str, float] = {}
        for b in demand_blocks:
            if b.bid > price:
                per_owner[b.owner] = per_owner.get(b.owner, 0.0) + b.capacity
        return capped_sum(per_owner)

    total_supply = willing_supply(math.inf)
    if total_supply + 1e-9 < instance.demand:
        raise InfeasibleMarketError(
            f"supply {total_supply} MW cannot serve fixed demand {instance.demand} MW"
        )

    price = None
    for cand in sorted({r.cost for r in supply}):
        if willing_supply(cand) >= instance.demand + willing_elastic(cand) - 1e-12:
            price = float(cand)
            break

    demand_by_owner: dict[str, float] = {}
    if price is None:
        # Supply exhausted while elastic blocks still bid above every supply
        # step: the marginal demand block sets the price, served partially.
        room = total_supply - instance.demand
        price = max(r.cost for r in supply)
        for block in sorted(demand_blocks, key=lambda b: -b.bid):
            budget = power_caps.get(block.owner, math.inf) - demand_by_owner.get(block.owner, 0.0)
            take = min(block.capacity, budget, room)
            if take <= 1e-12:
                continue
            demand_by_owner[block.owner] = demand_by_owner.get(block.owner, 0.0) + take
            room -= take
            price = float(block.bid)
            if room <= 1e-12:
                break
    else:
        for block in demand_blocks:
            if block.bid > price:
                budget = power_caps.get(block.owner, math.inf) - demand_by_owner.get(
                    block.owner, 0.0
                )
                take = min(block.capacity, budget)
                if take > 0:
                    demand_by_owner[block.owner] = demand_by_owner.get(block.owner, 0.0) + take

    target = instance.demand + sum(demand_by_owner.values())
    supply_by_owner: dict[str, float] = {}
    remaining = target
    for row in supply:
        if remaining <= 1e-12:
            break
        budget = power_caps.get(row.owner, math.inf) - supply_by_owner.get(row.owner, 0.0)
        take = min(row.capacity, budget, remaining)
        if take <= 0:
            continue
        supply_by_owner[row.owner] = supply_by_owner.get(row.owner, 0.0) + take
        remaining -= take
    return price, supply_by_owner, demand_by_owner


def _assemble_and_clear(instance: MarketInstance, bid_type: type) -> ClearingResult:
    dt = instance.period_hours
    supply: list[_SupplyRow] = []
    demand_blocks: list[_DemandRow] = []
    for order, offer in enumerate(instance.offers):
        for cap, cost in offer.segments:
            supply.append(_SupplyRow(cost, cap, 0, order, offer.name, False))
    for order, unit in enumerate(instance.storages):
        if not isinstance(unit.bid, bid_type):
            raise DataValidationError(
                f"storage {unit.name} carries a {type(unit.bid).__name__}, "
                f"expected {bid_type.__name__}"
            )
        rows = _bid_rows(unit, order, dt)
        supply.extend(rows[0])
        demand_blocks.extend(rows[1])

    power_caps = {unit.name: unit.params.power_rating for unit in instance.storages}
    price, supply_mw, demand_mw = _clear(instance, supply, demand_blocks, power_caps)

    generation = {}
    storage = {}
    for offer in instance.offers:
        generation[offer.name] = supply_mw.get(offer.name, 0.0)
    for unit in instance.storages:
        p = supply_mw.get(unit.name, 0.0)
        b = demand_mw.get(unit.name, 0.0)
        eta = unit.params.efficiency_one_way
        soc_after = unit.soc - p * dt / eta + b * eta * dt
        soc_after = min(max(soc_after, unit.params.soc_min), unit.params.soc_max)
        value_delta = booked_value(unit.bid, unit.soc, soc_after)
        profit = price * (p - b) * dt - unit.params.discharge_cost * p * dt
        storage[unit.name] = DispatchDecision(p, b, soc_after, profit, value_delta)
    cleared_charge = sum(d.charge_power for d in storage.values())
    return ClearingResult(price, generation, storage, cleared_charge)


def clear_power_bid_ed(instance: MarketInstance) -> ClearingResult:
    """Merit-order clearing with SoC-blind storage power bids.

    Storage discharge enters the stack at its discharge bid with SoC-limited
    capacity; charge enters as an elastic demand block at the charge bid.
    """
    return _assemble_and_clear(instance, PowerBid)


def clear_soc_bid_ed(instance: MarketInstance) -> ClearingResult:
    """Merit-order clearing with SoC-dependent piecewise bids.

    Each SoC segment below the current SoC contributes a supply step at
    cost + value/eta, each segment above a demand block at value * eta, with
    capacities set by the segment's energy and the power rating.
    """
    return _assemble_and_clear(instance, SoCBidCurve)
