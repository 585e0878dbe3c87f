import numpy as np
import pytest

from socbid import (
    DataValidationError,
    DispatchDecision,
    SoCGrid,
    StorageParams,
    validate_params,
)


def test_six_hour_unit_params_are_valid():
    params = StorageParams(power_rating=1.0, energy_capacity=6.0)
    assert validate_params(params) is params
    assert params.duration_hours == 6.0
    assert params.soc_max == 6.0  # defaults to the energy capacity


def test_lossless_free_storage_is_valid():
    validate_params(StorageParams(1.0, 1.0, efficiency_one_way=1.0, discharge_cost=0.0))


def test_efficiency_above_one_rejected():
    with pytest.raises(DataValidationError, match="efficiency"):
        validate_params(StorageParams(1.0, 1.0, efficiency_one_way=1.2))


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
        validate_params(StorageParams(**kwargs))


def test_soc_to_index_midpoint_and_boundaries():
    grid = SoCGrid(0.0, 1.0, 1001)
    assert grid.soc_to_index(0.5) == 500
    assert grid.soc_to_index(0.0) == 0
    assert grid.soc_to_index(1.0) == 1000


def test_soc_to_index_matches_linear_search():
    # Independent oracle: nearest point by exhaustive distance comparison,
    # ties toward the lower index.
    grid = SoCGrid(0.0, 1.0, 1001)
    pts = grid.points()
    rng = np.random.default_rng(7)
    for e in np.concatenate([rng.uniform(0, 1, 200), [0.50049, 0.0005, 0.99951]]):
        dist = np.abs(pts - e)
        expected = int(np.argmin(dist))  # argmin takes the first (lower) index on ties
        assert grid.soc_to_index(float(e)) == expected
    assert grid.soc_to_index(0.50049) == 500


def test_soc_to_index_round_trip_identity():
    for grid in (SoCGrid(0.0, 1.0, 1001), SoCGrid(0.2, 5.7, 301), SoCGrid(-1.0, 2.0, 17)):
        pts = grid.points()
        for i in range(grid.num_points):
            assert grid.soc_to_index(float(pts[i])) == i


def test_soc_to_index_exact_ties_round_down():
    grid = SoCGrid(0.0, 1.0, 11)  # step 0.1, midpoints at 0.05, 0.15, ...
    assert grid.soc_to_index(0.05) == 0
    assert grid.soc_to_index(0.15) == 1


def test_soc_to_index_out_of_range():
    grid = SoCGrid(0.0, 1.0, 11)
    with pytest.raises(DataValidationError):
        grid.soc_to_index(1.2)
    with pytest.raises(DataValidationError):
        grid.soc_to_index(-0.2)


def test_grid_step_limit_enforced_at_construction():
    params = StorageParams(0.5, 1.0, 0.9, 10.0)
    # at hourly steps the rule asks for step <= 0.045 MWh, i.e. >= 24 points
    grid = SoCGrid.for_storage(params, 1.0, 1001)
    assert grid.step <= params.power_rating * params.efficiency_one_way / 10 + 1e-15
    with pytest.raises(DataValidationError, match="grid step"):
        SoCGrid.for_storage(params, 1.0, 20)
    assert SoCGrid.min_points(params, 1.0) == 24
    SoCGrid.for_storage(params, 1.0, SoCGrid.min_points(params, 1.0))


def test_grid_spans_ten_points_per_full_power_interval():
    params = StorageParams(0.5, 1.0, 0.9, 10.0)
    for dt in (1.0, 1.0 / 12.0):
        grid = SoCGrid.for_storage(params, dt, SoCGrid.min_points(params, dt))
        moved = params.power_rating * params.efficiency_one_way * dt
        assert moved / grid.step >= 10.0 - 1e-9


def test_dispatch_decision_rejects_simultaneous_action():
    with pytest.raises(DataValidationError, match="simultaneous"):
        DispatchDecision(discharge_power=0.1, charge_power=0.1, soc_after=0.5, realized_profit=0.0)
    with pytest.raises(DataValidationError):
        DispatchDecision(discharge_power=-0.5, charge_power=0.0, soc_after=0.5, realized_profit=0.0)


def test_dispatch_decision_net_power():
    d = DispatchDecision(0.4, 0.0, 0.1, 8.0)
    assert d.net_power == pytest.approx(0.4)
