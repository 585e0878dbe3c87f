import hashlib
from datetime import timedelta

import numpy as np
import pytest

from socbid import (
    BidSchedule,
    DataValidationError,
    PowerBid,
    PriceSeries,
    SoCBidCurve,
    SoCGrid,
    StorageParams,
    ValueCurve,
    ValueSurface,
    average_marginal,
    backward_induct,
    bid_schedule_from_prices,
    make_power_bids,
    make_soc_bids,
    update_step,
)
from socbid.bids import _BLOCK_FLOATS, booked_value, power_bid_from_average, soc_bid_boundaries
from socbid.cli import _synthetic_tapes

from conftest import START, hourly_series, random_monotone_values


def random_surface(rng, grid, horizon) -> ValueSurface:
    rows = np.stack(
        [random_monotone_values(rng, grid.num_points) for _ in range(horizon + 1)]
    )
    return ValueSurface(grid, 1.0, rows)


def test_power_bid_formulas(micro_params):
    bid = power_bid_from_average(5.0, micro_params)
    assert bid.discharge_bid == pytest.approx(10.0 + 5.0 / 0.9, abs=1e-12)
    assert bid.charge_bid == pytest.approx(4.5, abs=1e-12)
    # the algebraic identity linking the two sides
    assert bid.charge_bid == pytest.approx(0.9**2 * (bid.discharge_bid - 10.0), abs=1e-12)


def test_power_bid_zero_and_lossless_cases(micro_params):
    assert power_bid_from_average(0.0, micro_params) == PowerBid(10.0, 0.0)
    free = StorageParams(1.0, 1.0, efficiency_one_way=1.0, discharge_cost=0.0)
    assert power_bid_from_average(100.0, free) == PowerBid(100.0, 100.0)


def test_power_bids_from_surface_example(micro_params, unit_grid):
    # end-of-hour curve: 9 below 5/9, 0 above => q_bar ~= 5.0
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    surface = ValueSurface(unit_grid, 1.0, np.stack([curve.values, curve.values]))
    schedule = make_power_bids(surface, micro_params)
    assert len(schedule) == 1 and schedule.kind == "power"
    quantization = unit_grid.step * 9.0  # one cell of the 9-valued region
    assert schedule[0].discharge_bid == pytest.approx(10 + 5.0 / 0.9, abs=quantization)
    assert schedule[0].charge_bid == pytest.approx(4.5, abs=quantization)


def test_bid_identity_on_random_surfaces(micro_params, unit_grid):
    rng = np.random.default_rng(11)
    eta, c = 0.9, 10.0
    for _ in range(20):
        surface = random_surface(rng, unit_grid, horizon=8)
        schedule = make_power_bids(surface, micro_params)
        for bid in schedule:
            assert abs(bid.charge_bid - eta**2 * (bid.discharge_bid - c)) < 1e-9


def test_soc_bids_two_segment_example(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    surface = ValueSurface(unit_grid, 1.0, np.stack([curve.values, curve.values]))
    # 1 segment per hour of duration => J = 2 over [0, 1]
    schedule = make_soc_bids(surface, micro_params, segments_per_hour_of_duration=1)
    entry = schedule[0]
    assert entry.segment_values.size == 2
    np.testing.assert_allclose(entry.boundaries, [0.0, 0.5, 1.0])
    assert entry.segment_values[0] == pytest.approx(9.0, abs=1e-9)
    assert entry.segment_values[1] == pytest.approx(1.0, abs=2 * unit_grid.step * 9)


def test_single_segment_equals_power_bid_average(micro_params, unit_grid):
    rng = np.random.default_rng(12)
    surface = random_surface(rng, unit_grid, horizon=5)
    # duration is 2 h; half a segment per duration-hour gives J = 1
    ones = make_soc_bids(surface, micro_params, segments_per_hour_of_duration=1)
    assert ones[0].segment_values.size == 2
    boundaries = soc_bid_boundaries(micro_params, 1)
    assert boundaries.size == 3
    for t in range(5):
        q_bar = average_marginal(surface.curve(t + 1), 0.0, 1.0)
        widths = np.diff(ones[t].boundaries)
        weighted = float(np.sum(ones[t].segment_values * widths) / widths.sum())
        assert weighted == pytest.approx(q_bar, abs=1e-9)


def test_constant_curve_gives_constant_segments(micro_params, unit_grid):
    surface = ValueSurface(unit_grid, 1.0, np.full((3, unit_grid.num_points), 7.0))
    schedule = make_soc_bids(surface, micro_params, segments_per_hour_of_duration=20)
    for entry in schedule:
        assert entry.segment_values.size == 40
        np.testing.assert_allclose(entry.segment_values, 7.0, atol=1e-12)


def test_segment_values_monotone_on_random_surfaces(micro_params, unit_grid):
    rng = np.random.default_rng(13)
    for _ in range(10):
        surface = random_surface(rng, unit_grid, horizon=4)
        schedule = make_soc_bids(surface, micro_params)
        for entry in schedule:
            diffs = np.diff(entry.segment_values)
            assert np.all(diffs <= 1e-9 * (1 + np.abs(entry.segment_values).max()))


def test_refinement_consistency(micro_params, unit_grid):
    rng = np.random.default_rng(14)
    surface = random_surface(rng, unit_grid, horizon=3)
    q_bars = [average_marginal(surface.curve(t + 1), 0.0, 1.0) for t in range(3)]
    for segments_per_hour in (1, 3, 10, 20):
        schedule = make_soc_bids(surface, micro_params, segments_per_hour)
        for t, entry in enumerate(schedule):
            widths = np.diff(entry.boundaries)
            weighted = float(np.sum(entry.segment_values * widths) / widths.sum())
            assert weighted == pytest.approx(q_bars[t], abs=1e-9)


def test_no_self_crossing_for_nonnegative_average(micro_params):
    for q_bar in (0.0, 0.5, 7.0, 123.4):
        bid = power_bid_from_average(q_bar, micro_params)
        assert bid.discharge_bid >= bid.charge_bid


def test_negative_average_allowed(micro_params):
    bid = power_bid_from_average(-50.0, micro_params)
    assert bid.discharge_bid < 0
    assert bid.charge_bid < 0


def test_soc_bid_curve_validation():
    with pytest.raises(DataValidationError, match="non-increasing"):
        SoCBidCurve(np.array([0.0, 0.5, 1.0]), np.array([1.0, 9.0]))
    with pytest.raises(DataValidationError, match="strictly increasing"):
        SoCBidCurve(np.array([0.0, 0.0, 1.0]), np.array([9.0, 1.0]))
    with pytest.raises(DataValidationError, match="J"):
        SoCBidCurve(np.array([0.0, 1.0]), np.array([9.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bids_and_curves_are_rejected(bad, micro_params, unit_grid):
    # A NaN threshold loses every compare, so a bid carrying one never moves
    # the unit; -inf in last place leaves a row non-increasing. Rows past the
    # first block of a table are checked too.
    for make in (lambda: PowerBid(bad, 5.0), lambda: PowerBid(20.0, bad),
                 lambda: SoCBidCurve(np.array([0.0, 0.5, 1.0]), np.array([9.0, bad])),
                 lambda: ValueCurve(unit_grid, np.full(unit_grid.num_points, bad))):
        with pytest.raises(DataValidationError, match="finite"):
            make()
    table = np.zeros((600, 2))
    table[300, 1] = bad
    with pytest.raises(DataValidationError, match="finite; row 300 is not"):
        BidSchedule(1.0, micro_params, np.array([0.0, 0.5, 1.0]), table)
    surface = np.zeros((600, unit_grid.num_points))
    surface[599, -1] = bad
    with pytest.raises(DataValidationError, match="finite; row 599 is not"):
        ValueSurface(unit_grid, 1.0, surface)


def test_zero_segments_rejected(micro_params):
    with pytest.raises(DataValidationError, match="segments_per_hour"):
        soc_bid_boundaries(micro_params, 0)


def test_grid_must_span_the_storage_soc_range(micro_params):
    narrow = SoCGrid(0.0, 0.5, 101)
    surface = ValueSurface(narrow, 1.0, np.zeros((2, 101)))
    with pytest.raises(DataValidationError, match="grid range"):
        make_power_bids(surface, micro_params)
    with pytest.raises(DataValidationError, match="grid range"):
        bid_schedule_from_prices(hourly_series([5.0]), micro_params, narrow, "soc")


def test_streaming_builder_matches_surface_route(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0, -3.0, 18.0, 42.0])
    surface = backward_induct(prices, micro_params, unit_grid)
    for model, make in (("power", make_power_bids), ("soc", make_soc_bids)):
        direct = make(surface, micro_params)
        streamed = bid_schedule_from_prices(prices, micro_params, unit_grid, model)
        assert len(direct) == len(streamed) == 5
        for a, b in zip(direct, streamed):
            if model == "power":
                assert a == b  # bit-identical: same arithmetic on the same arrays
            else:
                np.testing.assert_array_equal(a.boundaries, b.boundaries)
                np.testing.assert_array_equal(a.segment_values, b.segment_values)


def test_booked_value_repeats_interp_bit_for_bit():
    # booked_value shares the bid reduction's np.interp arithmetic; np.interp
    # over the bid's cumulative integral is the reference. SoCs on boundaries,
    # inside segments, equal, and rows with signed zeros.
    rng = np.random.default_rng(12)
    for _ in range(300):
        segments = int(rng.integers(1, 30))
        bounds = np.cumsum(rng.uniform(0.1, 1.0, segments + 1))
        values = -np.sort(-rng.choice([-5.0, -0.0, 0.0, 20.0, 45.0], size=segments))
        cum = np.concatenate(([0.0], np.cumsum(values * np.diff(bounds))))
        points = rng.choice(np.concatenate((bounds, rng.uniform(bounds[0], bounds[-1], 4))), 2)
        start, end = np.interp(points, bounds, cum)
        booked = booked_value(SoCBidCurve(bounds, values), *points.tolist())
        assert np.float64(booked).tobytes() == np.float64(end - start).tobytes()


def test_bid_tables_are_pinned_across_block_edges():
    # Both routes reduce curves a block of rows at a time; on this grid a
    # block holds a few rows, 50 periods end in a partial block, and some
    # segment boundaries fall exactly on cell edges. The second tape's -0.0
    # prices at zero discharge cost put signed zeros into the curves.
    grid = SoCGrid(0.0, 4.0, 9641)
    rows = _BLOCK_FLOATS // (grid.num_points + 1)
    assert 1 < rows < 10 and 50 % rows != 0
    cases = (
        (StorageParams(1.0, 4.0, 0.9, 10.0),
         np.random.default_rng(45).uniform(-10.0, 70.0, size=50),
         "eb0add8487424b96f8a7279cfc8d4db599b334bf73a5de5d694239bc425700cb",
         "1736afd680e700b0e6fb96a037723bdd379fc10e1b4845f5f28106d720bb262b"),
        (StorageParams(1.0, 4.0, 0.9, 0.0),
         np.random.default_rng(46).choice([-10.0, -0.0, 30.0, 70.0], size=50),
         "d0e655f651fc4cdd828a865904d7f1ac65b07fa7b47fa8027e1b943d181ef68b",
         "8cf2cf1588038f82ea3ccd5a357127fc4029ff6a5ac24c47d400feafa47d5b74"),
    )
    for params, values, soc, power in cases:
        prices = PriceSeries("Z", START, timedelta(hours=1), values)
        surface = backward_induct(prices, params, grid)
        for schedule, expected in (
            (make_soc_bids(surface, params), soc),
            (bid_schedule_from_prices(prices, params, grid, "soc"), soc),
            (bid_schedule_from_prices(prices, params, grid, "power"), power),
        ):
            assert hashlib.sha256(schedule.values.tobytes()).hexdigest() == expected


@pytest.mark.parametrize("duration", [1, 12, 72])
def test_clean_tape_bid_rows_are_exactly_non_increasing(duration):
    # Flat runs of the curves on a noise-free tape came back from the
    # cumulative differences with +-1-ulp rises; no row may keep one.
    da, _ = _synthetic_tapes("AA", 7, 15, 45, 24, 5, 1)
    params = StorageParams(1.0, float(duration), 0.9, 10.0)
    grid = SoCGrid.for_storage(params, 1.0, max(1001, SoCGrid.min_points(params, 1.0)))
    for schedule in (
        bid_schedule_from_prices(da, params, grid, "soc"),
        make_soc_bids(backward_induct(da, params, grid), params),
    ):
        assert np.all(np.diff(schedule.values, axis=1) <= 0)
