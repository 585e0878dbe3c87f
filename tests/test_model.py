import math
from datetime import datetime, timedelta, timezone

import pytest

from socbid import (
    DataValidationError,
    DispatchDecision,
    PriceSeries,
    SoCGrid,
    StorageParams,
)


def test_six_hour_unit_params_are_valid():
    params = StorageParams(power_rating=1.0, energy_capacity=6.0)
    assert params.duration_hours == 6.0
    assert params.soc_max == 6.0  # defaults to the energy capacity


def test_lossless_free_storage_is_valid():
    StorageParams(1.0, 1.0, efficiency_one_way=1.0, discharge_cost=0.0)


def test_efficiency_above_one_rejected():
    with pytest.raises(DataValidationError, match="efficiency"):
        StorageParams(1.0, 1.0, efficiency_one_way=1.2)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(power_rating=0.0, energy_capacity=1.0), "power_rating"),
        (dict(power_rating=1.0, energy_capacity=-2.0), "energy_capacity"),
        (dict(power_rating=1.0, energy_capacity=1.0, discharge_cost=-1.0), "discharge_cost"),
        (dict(power_rating=1.0, energy_capacity=1.0, soc_min=1.0, soc_max=1.0), "soc_min"),
        (dict(power_rating=1.0, energy_capacity=1.0, soc_max=2.0), "soc_max"),
    ],
)
def test_invalid_params_name_the_field(kwargs, field):
    with pytest.raises(DataValidationError, match=field):
        StorageParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(soc_min=-math.inf), "soc_min"),
        (dict(soc_min=math.nan), "soc_min"),
        (dict(efficiency_one_way=1.5), "efficiency_one_way"),
        (dict(discharge_cost=math.inf), "discharge_cost"),
    ],
)
def test_storage_params_are_checked_when_built(kwargs, field):
    # no invalid StorageParams exists for a consumer to re-check
    with pytest.raises(DataValidationError, match=field):
        StorageParams(1.0, 1.0, **kwargs)


def test_grid_step_limit_enforced_at_construction():
    params = StorageParams(0.5, 1.0, 0.9, 10.0)
    # at hourly steps the rule asks for step <= 0.045 MWh, i.e. >= 24 points
    grid = SoCGrid.for_storage(params, 1.0, 1001)
    assert grid.num_points == 1001
    assert grid.step <= params.power_rating * params.efficiency_one_way / 10 + 1e-15
    # the point count asked for is a lower bound the step limit raises
    assert SoCGrid.min_points(params, 1.0) == 24
    assert SoCGrid.for_storage(params, 1.0, 20).num_points == 24


def test_grid_spans_ten_points_per_full_power_interval():
    params = StorageParams(0.5, 1.0, 0.9, 10.0)
    for dt in (1.0, 1.0 / 12.0):
        grid = SoCGrid.for_storage(params, dt, SoCGrid.min_points(params, dt))
        moved = params.power_rating * params.efficiency_one_way * dt
        assert moved / grid.step >= 10.0 - 1e-9


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
def test_grid_time_step_must_be_positive_and_finite(dt):
    params = StorageParams(1.0, 1.0)
    with pytest.raises(DataValidationError, match="dt_hours"):
        SoCGrid.min_points(params, dt)
    with pytest.raises(DataValidationError, match="dt_hours"):
        SoCGrid.for_storage(params, dt)


@pytest.mark.parametrize(
    "args, message",
    [((0.0, 1.0, 1), "num_points must be at least 2"), ((1.0, 1.0, 11), "soc_min < soc_max")],
    ids=["one-point", "empty-range"],
)
def test_grid_needs_two_points_and_a_range(args, message):
    with pytest.raises(DataValidationError, match=message):
        SoCGrid(*args)


@pytest.mark.parametrize(
    "values, resolution, message",
    [
        ([20.0, math.nan], timedelta(hours=1), "non-finite"),
        ([20.0, 30.0], timedelta(0), "resolution must be positive"),
    ],
    ids=["nan-price", "zero-resolution"],
)
def test_price_series_checks_its_values_and_resolution(values, resolution, message):
    with pytest.raises(DataValidationError, match=message):
        PriceSeries("Z", datetime(2019, 1, 1, tzinfo=timezone.utc), resolution, values)


def test_price_series_stores_a_naive_start_as_utc():
    series = PriceSeries("Z", datetime(2019, 1, 1), timedelta(hours=1), [20.0])
    assert series.start == datetime(2019, 1, 1, tzinfo=timezone.utc)
    assert series.start.tzinfo is timezone.utc


def test_dispatch_decision_rejects_simultaneous_action():
    with pytest.raises(DataValidationError, match="simultaneous"):
        DispatchDecision(discharge_power=0.1, charge_power=0.1, soc_after=0.5, realized_profit=0.0)
    with pytest.raises(DataValidationError):
        DispatchDecision(discharge_power=-0.5, charge_power=0.0, soc_after=0.5, realized_profit=0.0)
