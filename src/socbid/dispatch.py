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

from .bids import SoCBidCurve
from .model import (
    DataValidationError,
    DispatchDecision,
    StorageParams,
    check_initial_soc,
    check_soc_range,
)


class InfeasibleMarketError(RuntimeError):
    """Raised when the offered supply cannot serve fixed demand or set a price."""


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
            if not (0 < cap < math.inf and math.isfinite(cost)):
                raise DataValidationError(f"offer {self.name} needs finite cost and capacity > 0")
            if cost < last_cost:
                raise DataValidationError(
                    f"offer {self.name} has decreasing segment costs (non-convex)"
                )
            last_cost = cost


@dataclass(frozen=True)
class StorageUnit:
    """A storage participant: physical parameters, current SoC, standing bid."""

    name: str
    params: StorageParams
    soc: float
    bid: SoCBidCurve

    def __post_init__(self) -> None:
        check_initial_soc(self.soc, self.params, f"storage {self.name} SoC")
        bounds = self.bid.boundaries.tolist()
        check_soc_range(bounds[0], bounds[-1], self.params, "bid curve")
        thresholds = zip(bounds, bounds[1:], self.bid.discharge.tolist(), self.bid.charge.tolist())
        for j, (lo, hi, d, c) in enumerate(thresholds):
            d = max(d, 0.0)  # the price its supply step enters at, see _bid_rows
            if c > d:
                # A crossed segment would clear both ways at once. A stored value v
                # has c + v/eta >= v*eta if v >= 0 and v*eta < 0 if not: only
                # hand-given thresholds, such as a scenario's power pair, cross.
                raise DataValidationError(
                    f"storage {self.name} has a crossed bid in segment {j} [{lo}, {hi}] "
                    f"(charge {c} > discharge {d})"
                )


@dataclass(frozen=True)
class MarketInstance:
    """One one-hour clearing interval: generator offers, fixed demand, storage units.

    Over one hour a MW of power moves a MWh of energy.
    """

    offers: tuple[GeneratorOffer, ...]
    demand: float
    storages: tuple[StorageUnit, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.demand < math.inf:
            raise DataValidationError(f"demand must be non-negative and finite, got {self.demand}")
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


def _bid_rows(unit: StorageUnit) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """``(price, MW)`` supply steps for segments below the SoC, demand blocks above it.

    As in settlement, no unit discharges below a price of 0: supply steps
    enter at no less than 0 $/MWh, so at a price of 0 a step clears only if
    demand needs it. Capacities are the segments' energy in grid power, cut
    to the unit's power rating in the order the market takes them: supply
    steps by cost, then segment order; demand blocks in segment order,
    dearest first as charge thresholds are non-increasing. A step the rating
    empties stays at 0 MW, as its cost is still a candidate price.
    """
    bounds = unit.bid.boundaries.tolist()
    eta = unit.params.efficiency_one_way
    segments = list(zip(bounds, bounds[1:], unit.bid.discharge.tolist(), unit.bid.charge.tolist()))
    below = [(max(d, 0.0), (min(unit.soc, hi) - lo) * eta)
             for lo, hi, d, _ in segments if unit.soc > lo]
    above = [(c, (hi - max(unit.soc, lo)) / eta) for lo, hi, _, c in segments if hi > unit.soc]
    below.sort(key=lambda row: row[0])
    rating = unit.params.power_rating
    return list(_cut(below, rating)), list(_cut(above, rating))


def _cut(rows: list[tuple[float, float]], rating: float):
    """``(price, MW)`` rows in order, each cut so that the running MW stays within ``rating``."""
    used = 0.0
    for price, mw in rows:
        mw = max(0.0, min(mw, rating - used))
        used += mw
        yield price, mw


def _clear(
    demand: float, supply: list[tuple], demand_blocks: list[tuple]
) -> tuple[float, dict[str, float], dict[str, float]]:
    """Uniform-price clearing of the stack that :func:`clear_soc_bid_ed` builds.

    The clearing price is the lowest supply-step cost at which cumulative
    willing supply covers fixed demand plus the elastic blocks still willing
    to buy at that price; a demand block whose bid equals the price is
    rejected (ties resolve to no action). Power ratings are already in the
    row capacities, so each row clears up to its own MW.
    """
    supply = sorted(supply, key=lambda r: r[:2])
    total = sum(r[2] for r in supply)
    if total + 1e-9 < demand:
        raise InfeasibleMarketError(f"supply {total} MW cannot serve fixed demand {demand} MW")
    if not supply:
        raise InfeasibleMarketError("no supply step sets a price")

    charge: dict[str, float] = {}
    for cand in sorted({r[0] for r in supply}):
        willing = sum(r[2] for r in supply if r[0] <= cand)
        elastic = sum(mw for bid, mw, _ in demand_blocks if bid > cand)
        if willing >= demand + elastic - 1e-12:
            price = float(cand)
            for bid, mw, owner in demand_blocks:
                if bid > price:
                    charge[owner] = charge.get(owner, 0.0) + mw
            break
    else:
        # Supply exhausted while elastic blocks still bid above every supply
        # step: the marginal demand block sets the price, served partially.
        room = total - demand
        price = supply[-1][0]
        for bid, mw, owner in sorted(demand_blocks, key=lambda b: -b[0]):
            take = min(mw, room)
            if take <= 1e-12:
                continue
            charge[owner] = charge.get(owner, 0.0) + take
            room -= take
            price = float(bid)
            if room <= 1e-12:
                break

    dispatch: dict[str, float] = {}
    remaining = demand + sum(charge.values())
    for _, _, mw, owner in supply:
        if remaining <= 1e-12:
            break
        take = min(mw, remaining)
        dispatch[owner] = dispatch.get(owner, 0.0) + take
        remaining -= take
    return price, dispatch, charge


def clear_soc_bid_ed(instance: MarketInstance) -> ClearingResult:
    """Merit-order clearing with SoC-dependent piecewise bids.

    Each SoC segment below the current SoC contributes a supply step at its
    discharge threshold, each segment above a demand block at its charge
    threshold, with capacities set by the segment's energy and the power
    rating. A power bid is the one-segment curve over the SoC range.
    """
    supply = []  # (cost, order, MW, owner); generators come first, so they win cost ties
    demand_blocks = []  # (bid, MW, owner)
    for order, offer in enumerate(instance.offers):
        supply += [(cost, order, cap, offer.name) for cap, cost in offer.segments]
    for order, unit in enumerate(instance.storages, start=len(instance.offers)):
        steps, blocks = _bid_rows(unit)
        supply += [(cost, order, mw, unit.name) for cost, mw in steps]
        demand_blocks += [(bid, mw, unit.name) for bid, mw in blocks]

    price, supply_mw, demand_mw = _clear(instance.demand, supply, demand_blocks)

    generation = {}
    storage = {}
    for offer in instance.offers:
        generation[offer.name] = supply_mw.get(offer.name, 0.0)
    for unit in instance.storages:
        p = supply_mw.get(unit.name, 0.0)
        b = demand_mw.get(unit.name, 0.0)
        eta = unit.params.efficiency_one_way
        soc_after = unit.soc - p / eta + b * eta
        soc_after = min(max(soc_after, unit.params.soc_min), unit.params.soc_max)
        profit = price * (p - b) - unit.params.discharge_cost * p
        storage[unit.name] = DispatchDecision(p, b, soc_after, profit)
    cleared_charge = sum(d.charge_power for d in storage.values())
    return ClearingResult(price, generation, storage, cleared_charge)
