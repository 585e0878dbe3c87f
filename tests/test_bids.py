import hashlib
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest

from socbid import (
    BidSchedule,
    DataValidationError,
    PriceSeries,
    SoCBidCurve,
    SoCGrid,
    StorageParams,
    ValueCurve,
    ValueSurface,
    backward_induct,
    bid_schedule_from_prices,
    make_power_bids,
    make_soc_bids,
    soc_bid,
    update_step,
)
from socbid import bids
from socbid.bids import (
    _BLOCK_FLOATS,
    _bid_blocks,
    _segment_bounds,
    _segment_means,
    bid_thresholds,
)
from socbid.cli import _synthetic_tapes
from socbid.valuation import _backward_curves, segment_averages

from conftest import START, hourly_series, random_monotone_values


def random_surface(rng, grid, horizon) -> ValueSurface:
    rows = np.stack(
        [random_monotone_values(rng, grid.num_points) for _ in range(horizon + 1)]
    )
    return ValueSurface(grid, 1.0, rows)


def average_bid(q_bar, params):
    """The one-segment bid of the SoC-average marginal value ``q_bar``."""
    return soc_bid([params.soc_min, params.soc_max], [q_bar], params)


def test_power_bid_formulas(micro_params):
    bid = average_bid(5.0, micro_params)
    (discharge,), (charge,) = bid.discharge, bid.charge
    np.testing.assert_array_equal(bid.boundaries, [0.0, 1.0])
    assert discharge == pytest.approx(10.0 + 5.0 / 0.9, abs=1e-12)
    assert charge == pytest.approx(4.5, abs=1e-12)
    # the algebraic identity linking the two sides
    assert charge == pytest.approx(0.9**2 * (discharge - 10.0), abs=1e-12)


def test_power_bid_zero_and_lossless_cases(micro_params):
    bid = average_bid(0.0, micro_params)
    assert (bid.discharge.tolist(), bid.charge.tolist()) == ([10.0], [0.0])
    free = StorageParams(1.0, 1.0, efficiency_one_way=1.0, discharge_cost=0.0)
    bid = average_bid(100.0, free)
    assert (bid.discharge.tolist(), bid.charge.tolist()) == ([100.0], [100.0])


def test_power_bids_from_surface_example(micro_params, unit_grid):
    # end-of-hour curve: 9 below 5/9, 0 above => q_bar ~= 5.0
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    surface = ValueSurface(unit_grid, 1.0, np.stack([curve.values, curve.values]))
    schedule = make_power_bids(surface, micro_params)
    assert len(schedule) == 1 and schedule.values.shape[1] == 1
    quantization = unit_grid.step * 9.0  # one cell of the 9-valued region
    bid = soc_bid(schedule.boundaries, schedule.values[0], micro_params)
    assert bid.discharge[0] == pytest.approx(10 + 5.0 / 0.9, abs=quantization)
    assert bid.charge[0] == pytest.approx(4.5, abs=quantization)


def test_bid_identity_on_random_surfaces(micro_params, unit_grid):
    rng = np.random.default_rng(11)
    eta, c = 0.9, 10.0
    for _ in range(20):
        surface = random_surface(rng, unit_grid, horizon=8)
        schedule = make_power_bids(surface, micro_params)
        for row in schedule.values:
            bid = soc_bid(schedule.boundaries, row, micro_params)
            assert abs(bid.charge[0] - eta**2 * (bid.discharge[0] - c)) < 1e-9


def test_soc_bids_two_segment_example(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    surface = ValueSurface(unit_grid, 1.0, np.stack([curve.values, curve.values]))
    # 1 segment per hour of duration => J = 2 over [0, 1]
    schedule = make_soc_bids(surface, micro_params, segments_per_hour_of_duration=1)
    entry = soc_bid(schedule.boundaries, schedule.values[0], micro_params)
    assert entry.discharge.size == entry.charge.size == 2
    np.testing.assert_allclose(entry.boundaries, [0.0, 0.5, 1.0])
    assert schedule.values[0, 0] == pytest.approx(9.0, abs=1e-9)
    assert schedule.values[0, 1] == pytest.approx(1.0, abs=2 * unit_grid.step * 9)
    np.testing.assert_array_equal(entry.charge, schedule.values[0] * 0.9)


def test_single_segment_equals_power_bid_average(micro_params, unit_grid):
    rng = np.random.default_rng(12)
    surface = random_surface(rng, unit_grid, horizon=5)
    # duration is 2 h; one segment per duration-hour gives J = 2, whose
    # width-weighted mean is the one-segment (power-bid) average
    ones = make_soc_bids(surface, micro_params, segments_per_hour_of_duration=1)
    assert ones.values.shape[1] == 2
    boundaries = _segment_bounds(micro_params, "soc", 1)
    assert boundaries.size == 3
    for t in range(5):
        (q_bar,) = segment_averages(ValueCurve(surface.grid, surface.values[t + 1]), [0.0, 1.0])
        widths = np.diff(ones.boundaries)
        weighted = float(np.sum(ones.values[t] * widths) / widths.sum())
        assert weighted == pytest.approx(q_bar, abs=1e-9)


def test_constant_curve_gives_constant_segments(micro_params, unit_grid):
    surface = ValueSurface(unit_grid, 1.0, np.full((3, unit_grid.num_points), 7.0))
    schedule = make_soc_bids(surface, micro_params, segments_per_hour_of_duration=20)
    assert schedule.values.shape == (2, 40)
    np.testing.assert_allclose(schedule.values, 7.0, atol=1e-12)


def test_segment_values_monotone_on_random_surfaces(micro_params, unit_grid):
    rng = np.random.default_rng(13)
    for _ in range(10):
        surface = random_surface(rng, unit_grid, horizon=4)
        schedule = make_soc_bids(surface, micro_params)
        for row in schedule.values:
            diffs = np.diff(row)
            assert np.all(diffs <= 1e-9 * (1 + np.abs(row).max()))


def test_refinement_consistency(micro_params, unit_grid):
    rng = np.random.default_rng(14)
    surface = random_surface(rng, unit_grid, horizon=3)
    q_bars = [segment_averages(ValueCurve(unit_grid, row), [0.0, 1.0])[0]
              for row in surface.values[1:]]
    for segments_per_hour in (1, 3, 10, 20):
        schedule = make_soc_bids(surface, micro_params, segments_per_hour)
        for t, row in enumerate(schedule.values):
            widths = np.diff(schedule.boundaries)
            weighted = float(np.sum(row * widths) / widths.sum())
            assert weighted == pytest.approx(q_bars[t], abs=1e-9)


def test_no_self_crossing_for_nonnegative_average(micro_params):
    for q_bar in (0.0, 0.5, 7.0, 123.4):
        bid = average_bid(q_bar, micro_params)
        assert bid.discharge[0] >= bid.charge[0]


def test_negative_average_allowed(micro_params):
    bid = average_bid(-50.0, micro_params)
    assert bid.discharge[0] < 0
    assert bid.charge[0] < 0


def test_soc_bid_curve_validation(micro_params):
    for make in (lambda b, v: soc_bid(b, v, micro_params),
                 lambda b, v: SoCBidCurve(b, v, [8.1, 0.9]),
                 lambda b, v: SoCBidCurve(b, [20.0, 11.1], v)):
        with pytest.raises(DataValidationError, match="non-increasing"):
            make(np.array([0.0, 0.5, 1.0]), np.array([1.0, 9.0]))
        with pytest.raises(DataValidationError, match="strictly increasing"):
            make(np.array([0.0, 0.0, 1.0]), np.array([9.0, 1.0]))
        with pytest.raises(DataValidationError, match="J"):
            make(np.array([0.0, 1.0]), np.array([9.0, 1.0]))


GRID_41 = SoCGrid(0.0, 1.0, 41)
BOUNDS_41 = np.linspace(0.0, 1.0, 42)
STORES = {
    # kind: (build from a table of rows on 41 points, its stored values, a reading of its last row)
    "ValueCurve": (
        lambda rows: ValueCurve(GRID_41, rows[-1]), lambda c: c.values,
        lambda c: segment_averages(c, GRID_41.points()[::4]),
    ),
    "ValueSurface": (
        lambda rows: ValueSurface(GRID_41, 1.0, rows), lambda s: s.values,
        lambda s: segment_averages(ValueCurve(s.grid, s.values[-1]), GRID_41.points()[::4]),
    ),
    "SoCBidCurve": (
        lambda rows: SoCBidCurve(BOUNDS_41, rows[-1], rows[-1]), lambda c: c.discharge,
        lambda c: c.charge,
    ),
    "BidSchedule": (
        lambda rows: BidSchedule(1.0, BOUNDS_41, rows),
        lambda s: s.values,
        lambda s: np.concatenate(bid_thresholds(s.values[-1], StorageParams(1.0, 1.0, 0.9, 10.0))),
    ),
}


@pytest.mark.parametrize("kind", list(STORES))
def test_curves_and_bids_are_stored_as_their_running_minimum(kind):
    build, stored, read = STORES[kind]
    rng = np.random.default_rng(31)
    exact = np.round(np.stack([random_monotone_values(rng, 41) for _ in range(300)]) / 5.0) * 5.0
    # Every level but the first of a plateau in the last row, past the first
    # block of 256 rows a check takes, rises 1e-10 relative above it.
    bumped = exact.copy()
    bumped[-1] += 1e-10 * (1.0 + np.abs(exact[-1])) * np.r_[False, np.diff(exact[-1]) == 0]
    assert np.any(np.diff(bumped[-1]) > 0)
    given = bumped.copy()
    floored = np.minimum.accumulate(bumped, axis=-1)
    assert np.array_equal(floored, exact)
    values = stored(build(given))
    want = floored if values.ndim == 2 else floored[-1]
    assert values.tobytes() == want.tobytes()
    assert given.tobytes() == bumped.tobytes()  # the caller's array is not written
    with pytest.raises(ValueError, match="read-only"):
        values[...] = 0.0
    if values.ndim == 2:  # a table that never rises is held as it is
        assert np.shares_memory(stored(build(exact)), exact)
    assert np.array_equal(read(build(bumped)), read(build(exact)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bids_and_curves_are_rejected(bad, micro_params, unit_grid):
    # A NaN threshold loses every compare, so a bid carrying one never moves
    # the unit; -inf in last place leaves a row non-increasing. Rows past the
    # first block of a table are checked too.
    for make in (lambda: SoCBidCurve([0.0, 1.0], [bad], [5.0]),
                 lambda: SoCBidCurve([0.0, 1.0], [20.0], [bad]),
                 lambda: soc_bid(np.array([0.0, 0.5, 1.0]), np.array([9.0, bad]), micro_params),
                 lambda: ValueCurve(unit_grid, np.full(unit_grid.num_points, bad))):
        with pytest.raises(DataValidationError, match="finite"):
            make()
    table = np.zeros((600, 2))
    table[300, 1] = bad
    with pytest.raises(DataValidationError, match="finite; row 300 is not"):
        BidSchedule(1.0, np.array([0.0, 0.5, 1.0]), table)
    surface = np.zeros((600, unit_grid.num_points))
    surface[599, -1] = bad
    with pytest.raises(DataValidationError, match="finite; row 599 is not"):
        ValueSurface(unit_grid, 1.0, surface)


@pytest.mark.parametrize("hours", [np.nan, np.inf, 0.0])
def test_bid_schedule_period_must_be_positive_and_finite(hours, micro_params):
    with pytest.raises(DataValidationError, match="period_hours"):
        BidSchedule(hours, np.array([0.0, 1.0]), np.zeros((3, 1)))


def test_zero_segments_rejected(micro_params):
    with pytest.raises(DataValidationError, match="segments_per_hour"):
        _segment_bounds(micro_params, "soc", 0)
    with pytest.raises(DataValidationError, match="at least one segment"):
        soc_bid([0.0], [], micro_params)
    with pytest.raises(DataValidationError, match="bid schedule is empty"):
        BidSchedule(1.0, [0.0, 1.0], np.zeros((0, 1)))


def test_unknown_bid_model_rejected(micro_params, unit_grid):
    # the kind is checked where its segment bounds are built, so no typo gets SoC bids
    with pytest.raises(DataValidationError, match="unknown bid model 'bogus'"):
        bid_schedule_from_prices(hourly_series([5.0]), micro_params, unit_grid, "bogus")
    with pytest.raises(DataValidationError, match="unknown bid model 'Power'"):
        _segment_bounds(micro_params, "Power", 20)


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
        for field in ("boundaries", "values"):
            # bit-identical: same arithmetic on the same arrays
            assert getattr(direct, field).tobytes() == getattr(streamed, field).tobytes()


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


def test_soc_bid_reduction_peak_allocation_is_bounded():
    # The shape of the certify benchmark: a one-week 5-minute surface on 301
    # points, reduced to 40 segments (20 per hour of a 2 h unit). A reduction
    # pass keeps one buffer of curves and one of their integrals. The bound,
    # output table included, is below the peak of a pass that allocates the
    # weighted curves and their integrals anew for every block.
    params = StorageParams(0.5, 1.0, 0.9, 10.0)
    _, rt = _synthetic_tapes("AA", 7, 15, 45, 24, 5, 1)
    grid = SoCGrid.for_storage(params, rt.resolution_hours, 301)
    surface = backward_induct(rt, params, grid)
    tracemalloc.start()
    try:
        schedule = make_soc_bids(surface, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schedule.values.shape == (2016, 40)
    assert peak <= 2.75 * 2**20


@pytest.mark.parametrize("duration", [1, 12, 72])
def test_clean_tape_bid_rows_are_exactly_non_increasing(duration, monkeypatch):
    # Flat runs of the curves on a noise-free tape came back from the
    # cumulative differences with +-1-ulp rises; no row may keep one, in a
    # stored schedule or in the buffers of bids a sweep counts crossings on.
    da, _ = _synthetic_tapes("AA", 7, 15, 45, 24, 5, 1)
    params = StorageParams(1.0, float(duration), 0.9, 10.0)
    grid = SoCGrid.for_storage(params, 1.0, 1001)
    tables = [
        bid_schedule_from_prices(da, params, grid, "soc").values,
        make_soc_bids(backward_induct(da, params, grid), params).values,
    ]
    raw = {}  # each bid shape's (J, periods) blocks as written, before the in-place floor

    def recorded(plan, cum, out):
        means = _segment_means(plan, cum, out)
        raw.setdefault(out.shape[0], []).append(means.copy())
        return means

    monkeypatch.setattr(bids, "_segment_means", recorded)
    bounds = {kind: _segment_bounds(params, kind, 20) for kind in ("power", "soc")}
    held = {kind: np.empty((b.size - 1, len(da))) for kind, b in bounds.items()}
    curves = _backward_curves(da, params, grid)
    views = list(_bid_blocks(curves, len(da), grid, bounds, held))
    # a buffer spanning the horizon is written whole and yielded once, at the end
    assert [(key, first, means.shape[1]) for key, first, means in views] == [
        ("power", 0, len(da)), ("soc", 0, len(da))
    ]
    tables += [means.T for _, _, means in views]
    for table in tables:
        assert np.all(np.diff(table, axis=1) <= 0)
    # the blocks are the raw means floored, and without the floor some would rise
    for _, _, means in views:
        blocks = raw[means.shape[0]]
        assert sum(block.shape[1] for block in blocks) == len(da)
        unfloored = np.concatenate(blocks[::-1], axis=1)  # periods fall block by block
        assert means.tobytes() == np.minimum.accumulate(unfloored, axis=0).tobytes()
    assert any(np.any(np.diff(block, axis=0) > 0) for blocks in raw.values() for block in blocks)
