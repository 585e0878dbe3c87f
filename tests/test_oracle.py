import hashlib
from datetime import timedelta

import numpy as np
import pytest

from socbid import (
    DataValidationError,
    PriceSeries,
    SoCGrid,
    StorageParams,
    enumerate_tiny,
    grid_dp_oracle,
)
from socbid.oracle import _shift_counts

from conftest import START, hourly_series


def test_enumerate_two_period_spread(micro_params):
    assert enumerate_tiny(hourly_series([5.0, 30.0]), micro_params) == pytest.approx(
        5.6, abs=1e-9
    )


def test_enumerate_never_charges_into_a_loss(micro_params):
    # spread too small to recover the discharge cost and losses
    assert enumerate_tiny(hourly_series([30.0, 5.0]), micro_params) == pytest.approx(
        0.0, abs=1e-12
    )


def test_enumerate_negative_price_charging_is_paid(micro_params):
    assert enumerate_tiny(hourly_series([-10.0, 20.0]), micro_params) == pytest.approx(
        9.05, abs=1e-9
    )


def test_enumerate_horizon_guard(micro_params):
    with pytest.raises(DataValidationError, match="horizon"):
        enumerate_tiny(hourly_series([1.0] * 5), micro_params)
    with pytest.raises(DataValidationError, match="action_grid"):
        enumerate_tiny(hourly_series([1.0]), micro_params, action_grid=50)


def test_oracle_matches_enumeration_micro_cases(micro_params, unit_grid):
    for tape in ([5.0, 30.0], [-10.0, 20.0], [30.0, 5.0], [10.0, 10.0, 10.0]):
        prices = hourly_series(tape)
        dp = grid_dp_oracle(prices, micro_params, unit_grid).optimal_profit
        brute = enumerate_tiny(prices, micro_params)
        assert dp == pytest.approx(brute, abs=1e-9)


def test_oracle_single_period_full_discharge(micro_params, unit_grid):
    result = grid_dp_oracle(
        hourly_series([1000.0]), micro_params, unit_grid, initial_soc=1.0
    )
    # one-shot discharge: min(P, E*eta) = 0.5 MW at $1000 less $10 cost
    assert result.optimal_profit == pytest.approx((1000.0 - 10.0) * 0.5, abs=1e-9)
    assert result.discharge[0] == pytest.approx(0.5)


def test_oracle_takes_the_exact_move_to_the_soc_floor(micro_params, unit_grid):
    # From a full unit the optimum sells 0.4 MW at $55 and 0.5 MW at $70,
    # which ends exactly on the SoC floor. Without the move that lands there
    # the oracle stopped 0.0244 MWh short of it, at 47.01.
    prices = hourly_series([-2.0, 55.0, 70.0])
    assert enumerate_tiny(prices, micro_params, initial_soc=1.0) == pytest.approx(48.0)
    dp = grid_dp_oracle(prices, micro_params, unit_grid, initial_soc=1.0).optimal_profit
    assert dp >= 47.9


def test_oracle_matches_enumeration_on_random_short_tapes(micro_params, unit_grid):
    # Both sides are quantized (power levels on each side, value interpolation
    # in the DP), so the budget is one action-grid power step's worth of cash
    # over the tape. Neither side dominates the other.
    rng = np.random.default_rng(31)
    quantum = micro_params.power_rating / (11 - 1)
    for _ in range(25):
        tape = rng.uniform(-20.0, 80.0, size=3)
        prices = hourly_series(tape)
        dp = grid_dp_oracle(prices, micro_params, unit_grid, action_points=21).optimal_profit
        brute = enumerate_tiny(prices, micro_params, action_grid=11)
        tol = quantum * float(np.sum(np.abs(tape) + micro_params.discharge_cost))
        assert abs(dp - brute) <= tol


def test_oracle_gap_shrinks_with_action_resolution(micro_params, unit_grid):
    prices = hourly_series([22.81, 42.78, 66.43])
    brute_coarse = enumerate_tiny(prices, micro_params, action_grid=6)
    brute_fine = enumerate_tiny(prices, micro_params, action_grid=21)
    dp = grid_dp_oracle(prices, micro_params, unit_grid, action_points=201).optimal_profit
    assert abs(dp - brute_fine) < abs(dp - brute_coarse) + 1e-9
    assert brute_fine >= brute_coarse - 1e-12  # finer uniform grid is a superset


def test_oracle_schedule_is_feasible_and_consistent(micro_params, unit_grid):
    rng = np.random.default_rng(32)
    prices = hourly_series(rng.uniform(-10.0, 70.0, size=24))
    result = grid_dp_oracle(prices, micro_params, unit_grid)
    eta = micro_params.efficiency_one_way
    e = result.soc[0]
    profit = 0.0
    for t, (p, b, e_after) in enumerate(zip(result.discharge, result.charge, result.soc[1:])):
        assert p >= -1e-12 and b >= -1e-12
        assert not (p > 1e-12 and b > 1e-12)
        assert p <= micro_params.power_rating + 1e-9
        assert b <= micro_params.power_rating + 1e-9
        expected = e - p / eta + b * eta
        assert abs(e_after - expected) <= 1e-9
        assert -1e-9 <= e_after <= 1.0 + 1e-9
        if prices.values[t] < 0:
            assert p == 0.0
        profit += prices.values[t] * (p - b) - micro_params.discharge_cost * p
        e = e_after
    assert profit == pytest.approx(result.optimal_profit, abs=1e-9)


def test_oracle_profit_monotone_in_capability(unit_grid):
    # Grid step is held constant as the capacity grows, so the comparison is
    # not polluted by coarser value interpolation on the wider SoC range; the
    # tolerance covers the residual half-cell interpolation wobble.
    prices = hourly_series([5.0, 60.0, 8.0, 55.0, 12.0, 70.0])
    step = 0.001
    slack = step * float(np.abs(prices.values).max())
    profits_e = []
    for capacity in (0.5, 1.0, 2.0, 4.0):
        params = StorageParams(0.5, capacity, 0.9, 10.0)
        grid = SoCGrid(0.0, capacity, int(round(capacity / step)) + 1)
        profits_e.append(grid_dp_oracle(prices, params, grid).optimal_profit)
    assert all(b >= a - slack for a, b in zip(profits_e, profits_e[1:]))

    profits_eta = []
    for eta in (0.7, 0.8, 0.9, 1.0):
        params = StorageParams(0.5, 1.0, eta, 10.0)
        profits_eta.append(grid_dp_oracle(prices, params, SoCGrid(0.0, 1.0, 1001)).optimal_profit)
    assert all(b >= a - slack for a, b in zip(profits_eta, profits_eta[1:]))


def test_oracle_rejects_bad_action_points(micro_params, unit_grid):
    with pytest.raises(DataValidationError, match="action_points"):
        grid_dp_oracle(hourly_series([5.0]), micro_params, unit_grid, action_points=2)


def test_oracle_rejects_a_grid_off_the_storage_soc_range(micro_params):
    prices = hourly_series([5.0] * 4 + [60.0] * 4)
    full = grid_dp_oracle(prices, micro_params, SoCGrid(0.0, 1.0, 101))
    assert full.optimal_profit == pytest.approx(39.44, abs=0.01)
    # A grid over [0.2, 1] would value only part of the storage's SoC range.
    with pytest.raises(DataValidationError, match="grid range"):
        grid_dp_oracle(prices, micro_params, SoCGrid(0.2, 1.0, 81))


def _seeded_tape(seed, size, minutes, lo, hi):
    values = np.random.default_rng(seed).uniform(lo, hi, size=size)
    return PriceSeries("Z", START, timedelta(minutes=minutes), values)


def test_oracle_outputs_are_pinned(micro_params, unit_grid):
    """sha256 of discharge, charge and soc bytes plus repr(optimal_profit).

    The cases cover negative prices (two where discharging into one would
    pay), full-power moves that are not whole grid steps, a grid too coarse
    for any whole-step move, off-grid interior initial SoCs, a raised SoC
    floor and 3, 15 and 201 action points. The last two cases have a
    full-power move of exactly five grid steps each way, and full-power
    moves longer than a three-point grid.
    """
    grid_5min = SoCGrid.for_storage(micro_params, 1 / 12, 301)
    tape_5min = _seeded_tape(42, 600, 5, -20.0, 80.0)
    band = StorageParams(2.0, 7.0, 0.85, 3.0, soc_min=1.0, soc_max=6.5)
    coarse = SoCGrid(0.0, 1.0, 3)
    assert _shift_counts(micro_params, coarse, 1 / 12) == (0, 0)
    paid_to_charge = np.tile([-5.0, -100.0, -100.0, 60.0, -2.0, -90.0, 55.0, 70.0], 4)
    drawn = np.random.default_rng(0).choice([-100.0, -5.0, 1.0, 60.0], size=24)
    lossless = StorageParams(0.5, 1.0, 1.0, 10.0)
    assert _shift_counts(lossless, SoCGrid(0.0, 1.0, 11), 1.0) == (5, 5)
    fast = StorageParams(2.0, 1.0, 0.9, 10.0)
    cases = [
        ((_seeded_tape(41, 48, 60, -30.0, 90.0), micro_params, unit_grid, 15, 0.4321),
         "34bbbc0e0215ff5bddcae31ac1ec23916dfb7f677a2d9902d311b713fe5729b0"),
        ((tape_5min, micro_params, grid_5min, 3, 0.0),
         "ebe1edb30c6a97d93515e8491805758d370cb920edcdbaf0ba5d9e0b5248c047"),
        ((tape_5min, micro_params, grid_5min, 201, 0.61803),
         "7e503bb4035b18e030a52326027296ce5126c3caf3e50ab0f5ed10fb967467e7"),
        ((_seeded_tape(43, 200, 5, -20.0, 80.0), micro_params, coarse, 15, 0.25),
         "4e8041d3418d953d0ce8cc6c7690e4da64914af5f0f147e4f198d9769b38c401"),
        ((_seeded_tape(44, 300, 15, -40.0, 120.0), band, SoCGrid(1.0, 6.5, 457), 15, 3.14159),
         "262cae9cb324dba6403442e2a9a0e95b9b55ce4299c95e6349a028f2218023e1"),
        ((hourly_series(paid_to_charge), micro_params, unit_grid, 15, 1.0),
         "aeca17ce6a1b31c50544f0f0c7cfb73199e76a340fe60b3d1dd003905e7669ae"),
        ((hourly_series(drawn), micro_params, unit_grid, 15, 1.0),
         "0d17e3c3e35ede474a6665fd535af16dfbc30f8f85835d7b46df2208deeafe75"),
        ((_seeded_tape(45, 48, 60, -30.0, 90.0), lossless, SoCGrid(0.0, 1.0, 11), 15, 0.55),
         "3ccbba3fd684333fb0338acf8431401fed7aaadcce6cf6fdedec55051efdcbca"),
        ((_seeded_tape(46, 48, 60, -30.0, 90.0), fast, coarse, 15, 0.3),
         "e36ac13bdceb70e78cb94f2f08d385790f289d9bcce0c7e2c64da0cf5bfa3de0"),
    ]
    for (prices, params, grid, action_points, e0), expected in cases:
        result = grid_dp_oracle(prices, params, grid, action_points=action_points, initial_soc=e0)
        digest = hashlib.sha256()
        for arr in (result.discharge, result.charge, result.soc):
            digest.update(arr.tobytes())
        digest.update(repr(result.optimal_profit).encode())
        assert digest.hexdigest() == expected, (len(prices), grid.num_points, action_points, e0)
