"""Shared fixtures: the micro storage unit, grids, and tape builders."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from socbid import PriceSeries, SoCBidCurve, SoCGrid, StorageParams

START = datetime(2019, 1, 1, tzinfo=timezone.utc)


@pytest.fixture
def micro_params() -> StorageParams:
    """0.5 MW / 1 MWh unit (2 h duration), 81% round trip, $10/MWh discharge cost."""
    return StorageParams(
        power_rating=0.5, energy_capacity=1.0, efficiency_one_way=0.9, discharge_cost=10.0
    )


@pytest.fixture
def unit_grid() -> SoCGrid:
    return SoCGrid(0.0, 1.0, 1001)


def hourly_series(values, zone="Z") -> PriceSeries:
    return PriceSeries(zone, START, timedelta(hours=1), np.asarray(values, dtype=float))


def five_min_series(values, zone="Z") -> PriceSeries:
    return PriceSeries(zone, START, timedelta(minutes=5), np.asarray(values, dtype=float))


def power_bid(discharge: float, charge: float, params: StorageParams) -> SoCBidCurve:
    """A hand-given power bid: one segment over the SoC range carrying its price pair."""
    return SoCBidCurve([params.soc_min, params.soc_max], [discharge], [charge])


def random_monotone_values(rng: np.random.Generator, n: int, lo=-20.0, hi=80.0) -> np.ndarray:
    """Non-increasing marginal-value samples; occasionally quantized into plateaus."""
    vals = np.sort(rng.uniform(lo, hi, size=n))[::-1]
    if rng.random() < 0.3:
        vals = np.round(vals / 5.0) * 5.0
    return vals
