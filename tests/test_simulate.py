from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from socbid import (
    CASE_IDS,
    BidSchedule,
    CaseConfig,
    DataValidationError,
    PriceSeries,
    SoCGrid,
    StorageParams,
    backward_induct,
    bid_schedule,
    grid_dp_oracle,
    run_schedule,
    soc_bid,
    step_soc_bid,
    utilization,
)
from socbid.bids import _crossings, bid_thresholds
from socbid.cli import _synthetic_tapes
from socbid.data_io import synthetic_tape
from socbid import bids
from socbid.model import check_initial_soc
from socbid.simulate import (
    _cash,
    _clamp_soc,
    _settle,
    run_cases,
)

from conftest import START, five_min_series, hourly_series, power_bid

from datetime import timedelta


MICRO = StorageParams(0.5, 1.0, 0.9, 10.0)  # the micro_params unit
MICRO_BID = power_bid(10 + 5.0 / 0.9, 4.5, MICRO)
TWO_SEG = soc_bid(np.array([0.0, 0.5, 1.0]), np.array([9.0, 1.0]), MICRO)


# ---------------------------------------------------------------------------
# step_soc_bid on a power bid
# ---------------------------------------------------------------------------

def test_power_step_soc_limited_discharge(micro_params):
    d = step_soc_bid(0.3, 30.0, MICRO_BID, micro_params, 1.0)
    assert d.discharge_power == pytest.approx(0.27, abs=1e-12)
    assert d.soc_after == pytest.approx(0.0, abs=1e-12)
    assert d.realized_profit == pytest.approx(5.4, abs=1e-9)


def test_power_step_idle_between_bids(micro_params):
    d = step_soc_bid(0.3, 10.0, MICRO_BID, micro_params, 1.0)
    assert d.discharge_power == 0.0 and d.charge_power == 0.0
    assert d.realized_profit == 0.0
    assert d.soc_after == 0.3


def test_power_step_power_limited_charge(micro_params):
    d = step_soc_bid(0.3, 2.0, MICRO_BID, micro_params, 1.0)
    assert d.charge_power == pytest.approx(0.5, abs=1e-12)
    assert d.soc_after == pytest.approx(0.75, abs=1e-12)
    assert d.realized_profit == pytest.approx(-1.0, abs=1e-12)


def test_power_step_tie_resolves_to_idle(micro_params):
    for price in (*MICRO_BID.discharge.tolist(), *MICRO_BID.charge.tolist()):
        d = step_soc_bid(0.5, price, MICRO_BID, micro_params, 1.0)
        assert d.discharge_power == d.charge_power == 0.0


def test_power_step_no_discharge_at_negative_price(micro_params):
    bid = power_bid(-20.0, -30.0, micro_params)  # deeply negative thresholds
    d = step_soc_bid(1.0, -5.0, bid, micro_params, 1.0)
    assert d.discharge_power == 0.0


def test_power_step_out_of_bounds_soc(micro_params):
    with pytest.raises(DataValidationError, match="SoC"):
        step_soc_bid(1.5, 30.0, MICRO_BID, micro_params, 1.0)


# ---------------------------------------------------------------------------
# step_soc_bid
# ---------------------------------------------------------------------------

def test_soc_step_power_limited_discharge_through_segments(micro_params):
    d = step_soc_bid(1.0, 30.0, TWO_SEG, micro_params, 1.0)
    assert d.discharge_power == pytest.approx(0.5, abs=1e-12)
    assert d.soc_after == pytest.approx(1.0 - 0.5 / 0.9, abs=1e-12)
    assert d.realized_profit == pytest.approx(10.0, abs=1e-9)


def test_soc_step_idle_at_boundary(micro_params):
    # (12-10)*0.9 = 1.8 beats neither 9 below nor charging against 1 above
    d = step_soc_bid(0.5, 12.0, TWO_SEG, micro_params, 1.0)
    assert d.discharge_power == d.charge_power == 0.0


def test_soc_step_charge_stops_at_segment_boundary(micro_params):
    d = step_soc_bid(0.4, 2.0, TWO_SEG, micro_params, 1.0)
    assert d.charge_power == pytest.approx(0.1 / 0.9, abs=1e-12)
    assert d.soc_after == pytest.approx(0.5, abs=1e-12)
    assert d.realized_profit == pytest.approx(-2.0 * 0.1 / 0.9, abs=1e-12)


def test_soc_step_no_discharge_at_negative_price(micro_params):
    low_curve = soc_bid(np.array([0.0, 1.0]), np.array([-40.0]), micro_params)
    d = step_soc_bid(1.0, -1.0, low_curve, micro_params, 1.0)
    assert d.discharge_power == 0.0


def test_soc_step_rejects_mismatched_curve_range(micro_params):
    half_curve = soc_bid(np.array([0.0, 0.5]), np.array([9.0]), micro_params)
    with pytest.raises(DataValidationError, match="bid curve spans"):
        step_soc_bid(0.2, 30.0, half_curve, micro_params, 1.0)


def test_soc_step_moves_soc_the_way_it_dispatches(micro_params):
    rng = np.random.default_rng(21)
    bounds = np.linspace(0.0, 1.0, 11)
    for _ in range(200):
        vals = np.sort(rng.uniform(0.0, 60.0, 10))[::-1]
        curve = soc_bid(bounds, vals, micro_params)
        e = rng.uniform(0.0, 1.0)
        price = rng.uniform(0.0, 120.0)
        d = step_soc_bid(e, price, curve, micro_params, 1.0)
        if d.discharge_power > 0:
            assert d.soc_after < e
        elif d.charge_power > 0:
            assert d.soc_after > e
        assert micro_params.soc_min <= d.soc_after <= micro_params.soc_max


def test_single_segment_equivalence_sample(micro_params):
    rng = np.random.default_rng(22)
    for _ in range(1000):
        q_bar = rng.uniform(-30.0, 80.0)
        e = rng.uniform(0.0, 1.0)
        price = rng.uniform(-50.0, 150.0)
        pair = power_bid(*bid_thresholds(q_bar, micro_params), micro_params)
        pb = step_soc_bid(e, price, pair, micro_params, 1.0)
        sb = step_soc_bid(e, price, soc_bid([0.0, 1.0], [q_bar], micro_params), micro_params, 1.0)
        assert pb.discharge_power == sb.discharge_power
        assert pb.charge_power == sb.charge_power
        assert pb.soc_after == sb.soc_after
        assert pb.realized_profit == sb.realized_profit


# ---------------------------------------------------------------------------
# run_cases, one case at a time
# ---------------------------------------------------------------------------

def test_case_config_decomposition():
    config = CaseConfig("RT-PB-DF")
    assert config.bid_model == "power"
    assert config.valuation_source == "day_ahead"
    assert config.settlement_source == "real_time"
    with pytest.raises(DataValidationError, match="case id"):
        CaseConfig("RT-XX-PF")


def test_run_case_two_period_optimum(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0])
    result = run_cases(
        [CaseConfig("RT-SB-PF")], prices, prices, micro_params, unit_grid.num_points
    )[0]
    assert result.total_profit == pytest.approx(5.6, abs=1e-9)
    assert result.charge[0] == pytest.approx(0.5)
    assert result.discharge[1] == pytest.approx(0.405)
    assert result.cycles == pytest.approx(0.405)


def test_run_case_constant_prices_no_dispatch(micro_params, unit_grid):
    prices = hourly_series([10.0] * 12)
    for case_id in CASE_IDS:
        result = run_cases(
            [CaseConfig(case_id)], prices, prices, micro_params, unit_grid.num_points
        )[0]
        assert result.total_profit == 0.0
        assert all(p == b == 0.0 for p, b in zip(result.discharge, result.charge))


def test_soc_bids_dominate_power_bids_with_perfect_foresight(micro_params, unit_grid):
    rng = np.random.default_rng(23)
    for trial in range(5):
        values = rng.uniform(-10.0, 80.0, 48)
        prices = hourly_series(values)
        sb = run_cases(
            [CaseConfig("RT-SB-PF")], None, prices, micro_params, unit_grid.num_points
        )[0]
        pb = run_cases(
            [CaseConfig("RT-PB-PF")], None, prices, micro_params, unit_grid.num_points
        )[0]
        assert sb.total_profit >= pb.total_profit - 1e-9


def test_run_case_hourly_bids_cover_five_minute_settlement(micro_params):
    da = hourly_series([5.0, 30.0])
    rt = five_min_series(np.repeat(da.values, 12))
    grid = SoCGrid.for_storage(micro_params, 1.0, 1001)
    result = run_cases([CaseConfig("RT-SB-DF")], da, rt, micro_params, grid.num_points)[0]
    assert len(result.discharge) == 24
    # same prices at 12x resolution: same energy moves, same profit
    assert result.total_profit == pytest.approx(5.6, abs=1e-6)


def test_run_case_horizon_mismatch(micro_params, unit_grid):
    da = hourly_series([5.0, 30.0])
    rt = five_min_series(np.repeat([5.0, 30.0], 12)[:-1])  # one interval short
    with pytest.raises(DataValidationError, match="span"):
        run_cases([CaseConfig("RT-PB-DF")], da, rt, micro_params, unit_grid.num_points)[0]


def test_run_cases_reject_tapes_that_start_apart(micro_params, unit_grid):
    # equal spans, but the real-time tape starts six hours late
    da = hourly_series([5.0, 30.0] * 12)
    rt = five_min_series(np.repeat(da.values, 12))
    late = PriceSeries("Z", START + timedelta(hours=6), rt.resolution, rt.values)
    assert late.span == da.span
    with pytest.raises(DataValidationError, match="start") as raised:
        run_cases([CaseConfig("RT-SB-DF")], da, late, micro_params, unit_grid.num_points)[0]
    assert str(da.start) in str(raised.value) and str(late.start) in str(raised.value)
    run_cases([CaseConfig("RT-SB-DF")], da, rt, micro_params, unit_grid.num_points)[0]


def test_run_case_missing_series(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0])
    with pytest.raises(DataValidationError, match="day_ahead"):
        run_cases([CaseConfig("RT-PB-DF")], None, prices, micro_params, unit_grid.num_points)[0]
    with pytest.raises(DataValidationError, match="real_time"):
        run_cases([CaseConfig("RT-SB-PF")], prices, None, micro_params, unit_grid.num_points)[0]


@pytest.mark.parametrize(
    "minutes, intervals, message",
    [(7, 17, "not a whole number"), (5, 36, "do not match")],
    ids=["step-does-not-divide-an-hour", "three-hours-for-two-bids"],
)
def test_run_schedule_rejects_a_tape_two_hourly_bids_do_not_tile(
    micro_params, minutes, intervals, message
):
    schedule = BidSchedule(1.0, np.array([0.0, 1.0]), np.array([[5.0], [6.0]]))
    prices = PriceSeries("Z", START, timedelta(minutes=minutes), np.full(intervals, 20.0))
    with pytest.raises(DataValidationError, match=message):
        run_schedule(prices, schedule, micro_params, 0.0)


def test_soc_conservation_and_bounds(micro_params, unit_grid):
    rt = synthetic_tape(
        "Z", START, timedelta(minutes=5), 3 * 288, low=10, high=50, noise_std=8.0, seed=3
    )
    da = hourly_series(np.repeat([10.0, 50.0], 36))
    result = run_cases([CaseConfig("RT-SB-DF")], da, rt, micro_params, unit_grid.num_points)[0]
    e = result.initial_soc
    eta = micro_params.efficiency_one_way
    for p, b, soc_after in zip(result.discharge, result.charge, result.soc):
        expected = e - p / eta / 12 + b * eta / 12
        assert abs(soc_after - expected) <= 1e-9
        assert micro_params.soc_min <= soc_after <= micro_params.soc_max
        e = soc_after


def test_run_case_honors_initial_soc(micro_params, unit_grid):
    prices = hourly_series([50.0])
    result = run_cases(
        [CaseConfig("RT-SB-PF", initial_soc=1.0)], prices, prices, micro_params, unit_grid.num_points
    )[0]
    # starts full: one power-limited discharge into the high price
    assert result.initial_soc == 1.0
    assert result.discharge[0] == pytest.approx(0.5)
    assert result.total_profit == pytest.approx((50.0 - 10.0) * 0.5, abs=1e-9)
    with pytest.raises(DataValidationError, match="initial SoC"):
        run_cases(
            [CaseConfig("RT-SB-PF", initial_soc=2.0)], prices, prices, micro_params, unit_grid.num_points
        )[0]


def test_utilization_basics(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0])
    ref = run_cases(
        [CaseConfig("RT-SB-PF")], prices, prices, micro_params, unit_grid.num_points
    )[0]
    assert utilization(ref, ref) == 1.0
    pb = run_cases([CaseConfig("RT-PB-PF")], prices, prices, micro_params, unit_grid.num_points)[0]
    assert 0.0 <= utilization(pb, ref) <= 1.0


def test_utilization_rejects_degenerate_reference(micro_params, unit_grid):
    flat = hourly_series([10.0, 10.0])
    ref = run_cases([CaseConfig("RT-SB-PF")], flat, flat, micro_params, unit_grid.num_points)[0]
    with pytest.raises(DataValidationError, match="reference profit"):
        utilization(ref, ref)


def test_power_step_crossed_pair_at_either_bound(micro_params):
    crossed = power_bid(7.0, 16.0, micro_params)  # charge threshold above the discharge threshold
    # a price above the discharge bid discharges, however crossed the pair
    assert step_soc_bid(0.5, 10.0, crossed, micro_params, 1.0).discharge_power > 0.0
    assert step_soc_bid(1.0, 10.0, crossed, micro_params, 1.0).discharge_power == 0.5
    # empty: the discharge rule still wins, so no charge either
    empty = step_soc_bid(0.0, 10.0, crossed, micro_params, 1.0)
    assert empty.discharge_power == empty.charge_power == 0.0 and empty.soc_after == 0.0
    # below both bids: charge, except when full
    assert step_soc_bid(0.0, 5.0, crossed, micro_params, 1.0).charge_power == 0.5
    full = step_soc_bid(1.0, 5.0, crossed, micro_params, 1.0)
    assert full.discharge_power == full.charge_power == 0.0 and full.soc_after == 1.0


def test_soc_clamp_tolerance_scales_with_soc_magnitude():
    huge = StorageParams(1e11, 1e11, 0.9, 10.0)
    # draining this state overshoots soc_min by ~2e-6 MWh of rounding
    d = step_soc_bid(9237717256.743671, 100.0, power_bid(50.0, 5.0, huge), huge, 1 / 12)
    assert d.soc_after == huge.soc_min
    with pytest.raises(DataValidationError, match="SoC"):
        _clamp_soc(-1.0, StorageParams(1.0, 1.0))


def week_tape(seed: int):
    rng = np.random.default_rng(seed)
    hours = np.arange(7 * 24 * 12) / 12.0
    values = np.where(np.mod(hours, 24.0) < 12.0, 15.0, 45.0) + rng.normal(0.0, 6.0, hours.size)
    return five_min_series(values)


def test_run_schedule_settles_like_single_steps(micro_params):
    # An hourly SoC schedule and a 5-minute power schedule, each walked
    # interval by interval against step_soc_bid
    prices = week_tape(32)
    da = hourly_series(prices.values.reshape(-1, 12).mean(axis=1))
    grid = SoCGrid.for_storage(micro_params, 1.0, 301)
    soc_schedule = bid_schedule(backward_induct(da, micro_params, grid), micro_params, "soc")
    power = bid_schedule(prices, micro_params, "power", 301)
    for schedule, per_bid in ((soc_schedule, 12), (power, 1)):
        result = run_schedule(prices, schedule, micro_params, 0.3)
        soc = result.soc_trajectory()
        assert result.discharge.any() and result.charge.any()
        for k, price in enumerate(prices.values.tolist()):
            bid = soc_bid(schedule.boundaries, schedule.values[k // per_bid], micro_params)
            d = step_soc_bid(soc[k], price, bid, micro_params, 1 / 12)
            assert d.discharge_power == result.discharge[k]
            assert d.charge_power == result.charge[k]
            assert d.soc_after == result.soc[k]
            assert d.realized_profit == result.profit[k]


def test_run_schedule_prices_the_table_for_the_unit_it_settles():
    # A value of 20 is a discharge threshold of 0 + 20 / 0.5 = 40 for this unit,
    # so a price of 35 holds it half full.
    unit = StorageParams(1.0, 1.0, 0.5, 0.0)
    schedule = BidSchedule(1.0, [0.0, 1.0], [[20.0]])
    result = run_schedule(hourly_series([35.0]), schedule, unit, 0.5)
    assert result.discharge.tolist() == result.charge.tolist() == [0.0]
    assert result.soc.tolist() == [0.5]


def test_a_schedule_settles_under_another_unit_as_its_rows_priced_for_it(micro_params):
    prices = week_tape(33)
    da = hourly_series(prices.values.reshape(-1, 12).mean(axis=1))
    grid = SoCGrid.for_storage(micro_params, 1.0, 301)
    schedule = bid_schedule(backward_induct(da, micro_params, grid), micro_params, "soc")
    other = StorageParams(0.8, micro_params.energy_capacity, 0.7, 3.0)
    result = run_schedule(prices, schedule, other, 0.3)
    own = run_schedule(prices, schedule, micro_params, 0.3)
    assert result.discharge.any() and result.charge.any()
    assert result.soc.tobytes() != own.soc.tobytes()
    e = 0.3
    for k, price in enumerate(prices.values.tolist()):
        bid = soc_bid(schedule.boundaries, schedule.values[k // 12], other)
        d = step_soc_bid(e, price, bid, other, 1 / 12)
        assert (d.discharge_power, d.charge_power) == (result.discharge[k], result.charge[k])
        assert (d.soc_after, d.realized_profit) == (result.soc[k], result.profit[k])
        e = d.soc_after


def reference_settle(
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
    check_initial_soc(e, params)
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
            if price > 0.0 and price > dis[max(j, 0)]:
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


def random_settlement(rng):
    """A random schedule of non-increasing rows with flat runs and negative values (so
    crossed thresholds), or of arbitrary one-segment pairs (values None); its thresholds;
    prices that hit thresholds, 0.0 and -0.0; and an SoC on a boundary, a bound or between."""
    pick = lambda options: float(rng.choice(options))  # noqa: E731
    params = StorageParams(
        pick([0.25, 0.5, 2.0]), 1.0, pick([0.8, 0.9, 1.0]), pick([0.0, 10.0]),
        soc_min=pick([0.0, 0.2]),
    )
    per_bid = int(rng.choice([1, 12]))
    periods = int(rng.integers(1, 4))
    segments = int(rng.choice([1, 2, 3, 7, 20]))
    boundaries = np.linspace(params.soc_min, params.soc_max, segments + 1)
    if segments > 2 and rng.random() < 0.5:
        boundaries[1:-1] = np.sort(rng.uniform(params.soc_min, params.soc_max, segments - 1))
    levels = rng.uniform(-30.0, 60.0, size=4)  # few levels, so rows have flat runs
    levels[0] = 0.0 if rng.random() < 0.3 else levels[0]
    values = -np.sort(-rng.choice(levels, size=(periods, segments)), axis=1)
    if segments == 1 and rng.random() < 0.5:  # an arbitrary power pair, crossed or not
        values = None
        pairs = rng.uniform(0.0, 40.0, size=(periods, 2))
        thresholds = [([d], [ch]) for d, ch in pairs.tolist()]
    else:
        thresholds = [(d.tolist(), ch.tolist()) for d, ch in zip(*bid_thresholds(values, params))]
    crossings = [x for dis, chg in thresholds for x in dis + chg]
    prices = rng.uniform(-20.0, 80.0, size=periods * per_bid)
    hits = rng.random(prices.size)
    prices = np.where(hits < 0.4, rng.choice(crossings, size=prices.size), prices)
    prices = np.where(hits > 0.9, rng.choice([0.0, -0.0], size=prices.size), prices)
    e = rng.choice([*boundaries.tolist(), params.soc_min, params.soc_max, rng.uniform(0.0, 1.0)])
    e = min(max(e, params.soc_min), params.soc_max)
    return params, per_bid, boundaries.tolist(), values, thresholds, prices.tolist(), float(e)


def test_settle_from_crossing_counts_repeats_the_segment_walk_byte_for_byte():
    rng = np.random.default_rng(61)
    for _ in range(3000):
        params, per_bid, boundaries, values, thresholds, prices, e = random_settlement(rng)
        dt = float(rng.choice([1.0, 1 / 12]))
        rows = [row for row in thresholds for _ in range(per_bid)]
        kd = [sum(price <= d for d in dis) for price, (dis, _) in zip(prices, rows)]
        kc = [sum(price < c for c in chg) for price, (_, chg) in zip(prices, rows)]
        if values is not None:
            counted = _crossings(values.T, np.reshape(prices, (-1, per_bid)), params)
            assert [a.ravel().tolist() for a in counted] == [kd, kc]
        expected = reference_settle(prices, boundaries, thresholds, per_bid, params, dt, e)
        settled = _settle(prices, boundaries, kd, kc, params, dt, e)
        # the cash of every interval, booked on arrays, repeats the walk's float one
        profit = _cash(np.array(prices), np.array(settled[0]), np.array(settled[1]), params, dt)
        for got, want in zip((*settled, profit), expected):
            assert np.array(got).tobytes() == np.array(want).tobytes()


def crossing_case(segments: int, per_bid: int):
    """Nine periods' bids, SoC axis first, and prices, with their plain crossing counts.

    Rows have flat runs and signed zeros; prices sit on thresholds, at 0.0
    and -0.0 and beyond both ends.
    """
    rng = np.random.default_rng(segments * 100 + per_bid)
    params = StorageParams(1.0, segments / 20, 0.9, 10.0)
    periods = 9
    levels = np.concatenate((rng.uniform(-30.0, 60.0, size=5), [0.0, -0.0]))
    values = -np.sort(-rng.choice(levels, size=(periods, segments)), axis=1)
    discharge, charge = bid_thresholds(values, params)
    on_rows = np.concatenate((discharge, charge), axis=1)
    prices = rng.uniform(-40.0, 90.0, size=(periods, per_bid))
    hits = rng.random(prices.shape)
    prices = np.where(
        hits < 0.4, on_rows[np.arange(periods)[:, None], rng.integers(0, 2 * segments, prices.shape)],
        prices,
    )
    prices = np.where(hits > 0.8, rng.choice([0.0, -0.0, -1e9, 1e9], size=prices.shape), prices)
    expected = [
        np.sum(prices[:, :, None] <= discharge[:, None, :], axis=2).tolist(),
        np.sum(prices[:, :, None] < charge[:, None, :], axis=2).tolist(),
    ]
    return params, np.ascontiguousarray(values.T), prices, expected


@pytest.mark.parametrize("per_bid", [1, 12])
@pytest.mark.parametrize("segments", [1, 2, 3, 20, 1023, 1024, 1440])
def test_crossing_counts_equal_a_plain_count(segments, per_bid):
    # The binary search counts on every shape, power-of-two segment counts and their
    # neighbours included, what a plain count over all segments gives.
    params, bids, prices, expected = crossing_case(segments, per_bid)
    assert [a.tolist() for a in _crossings(bids, prices, params)] == expected


@pytest.mark.parametrize("per_bid", [1, 12])
@pytest.mark.parametrize("segments", [1, 20, 1440])
def test_crossings_split_into_blocks_equal_a_plain_count(segments, per_bid, monkeypatch):
    # A cap of 2 x 4 x per_bid floats takes blocks of 4 periods where the bid is
    # no wider than 2 x per_bid, so the nine periods split as 4 + 4 + 1 and the
    # last block is partial; a wider bid takes blocks of one period.
    params, bids, prices, expected = crossing_case(segments, per_bid)
    monkeypatch.setattr("socbid.bids._BLOCK_FLOATS", 2 * 4 * per_bid)
    assert [a.tolist() for a in _crossings(bids, prices, params)] == expected


@pytest.mark.parametrize("segments", [4, 240])  # 12 prices a bid; searches of 2 and 8 halvings
def test_run_schedule_settles_a_rising_row_as_its_running_minimum(segments):
    # The schedule check admits a rise of 1e-12; settlement reads the row as
    # its running minimum, so a price inside the rise counts as it would on
    # the floored row, not as a count over the raw row would have it.
    params = StorageParams(float(segments), float(segments), 0.9, 10.0)
    boundaries = np.linspace(0.0, params.soc_max, segments + 1)
    row = np.linspace(30.0, 10.0, segments)
    rise = segments // 2
    row[rise] = row[rise - 1] + 1e-12
    floored = np.minimum.accumulate(row)
    discharge, charge = bid_thresholds(row, params)
    price = float(discharge[rise])
    assert price > discharge[rise - 1]
    tape = five_min_series(np.full(12, price))
    settled = [
        run_schedule(tape, BidSchedule(1.0, boundaries, bids[None]), params, params.soc_max)
        for bids in (row, floored)
    ]
    for name in ("discharge", "charge", "soc", "profit"):
        assert getattr(settled[0], name).tobytes() == getattr(settled[1], name).tobytes()
    step = step_soc_bid(params.soc_max, price, soc_bid(boundaries, row, params), params, 1 / 12)
    assert step.soc_after == settled[0].soc[0]  # a single step reads the curve the same way
    kd, kc = int(np.sum(price <= discharge)), int(np.sum(price < charge))
    raw = _settle([price] * 12, boundaries.tolist(), [kd] * 12, [kc] * 12, params, 1 / 12,
                  params.soc_max)
    assert raw[2] != settled[0].soc.tolist()


@pytest.mark.parametrize("duration", [1, 12, 72])
def test_run_cases_settle_from_counts_as_run_schedule_does_from_tables(duration):
    da, rt = _synthetic_tapes("AA", 3, 15, 45, 24, 5, 1)
    params = StorageParams(1.0, float(duration), 0.9, 10.0)
    series = {"day_ahead": da, "real_time": rt}
    configs = [CaseConfig(case_id, initial_soc=0.5 * duration) for case_id in CASE_IDS]
    for config, result in zip(configs, run_cases(configs, da, rt, params, 301)):
        forecast = series[config.valuation_source]
        schedule = bid_schedule(forecast, params, config.bid_model, 301)
        table = run_schedule(
            series[config.settlement_source], schedule, params, config.initial_soc
        )
        for name in ("discharge", "charge", "soc", "profit"):
            assert getattr(result, name).tobytes() == getattr(table, name).tobytes()
        assert result.total_profit == table.total_profit
        assert result.discharged_energy == table.discharged_energy


def test_run_cases_do_not_depend_on_the_block_size(monkeypatch):
    # A 72 h unit values its 5-minute tape on 9,601 points, in blocks of a few
    # periods that the bid pass holds until J-wide. With blocks of five such rows
    # the PF pass starts with a one-period block, spans several held blocks and
    # ends in a partial one; every settled array must keep its bytes.
    da, rt = _synthetic_tapes("AA", 2, 15, 45, 24, 5, 1)
    params = StorageParams(1.0, 72.0, 0.9, 10.0)
    points = SoCGrid.for_storage(params, rt.resolution_hours, 1001).num_points
    configs = [CaseConfig(case_id, initial_soc=36.0) for case_id in CASE_IDS]
    expected = run_cases(configs, da, rt, params, 1001)
    small = 5 * (points + 1)
    rows, held = small // (points + 1), small // 1440
    assert points == 9601 and len(rt) % rows == 1
    assert held < len(rt) and len(rt) % (held // rows * rows) != 0
    monkeypatch.setattr(bids, "_BLOCK_FLOATS", small)
    for one, two in zip(expected, run_cases(configs, da, rt, params, 1001)):
        assert one.case_id == two.case_id
        for name in ("discharge", "charge", "soc", "profit"):
            assert getattr(two, name).tobytes() == getattr(one, name).tobytes()


@pytest.mark.parametrize("duration", [1, 12, 72])
def test_doubling_prices_and_discharge_cost_doubles_every_profit(duration):
    # Doubling is exact in binary floating point, and every step from prices
    # to dispatch scales with them or compares them, so the dispatch must not
    # move by a bit and every dollar figure must double exactly. The real-time
    # tape is shifted down so that negative prices occur.
    configs = [CaseConfig(case_id) for case_id in CASE_IDS]
    for seed in (1, 2):
        da, rt = _synthetic_tapes("AA", 7, 15, 45, 24, 5, seed)
        rt = five_min_series(rt.values - 20.0)
        assert rt.values.min() < 0.0
        runs = []
        for scale in (1.0, 2.0):
            params = StorageParams(1.0, float(duration), 0.9, 10.0 * scale)
            tapes = [hourly_series(da.values * scale), five_min_series(rt.values * scale)]
            oracle = grid_dp_oracle(tapes[1], params, SoCGrid(0.0, float(duration), 301))
            runs.append((run_cases(configs, *tapes, params, 1001), oracle.optimal_profit))
        (base, base_optimum), (doubled, doubled_optimum) = runs
        assert doubled_optimum == 2.0 * base_optimum
        for one, two in zip(base, doubled):
            assert two.total_profit == 2.0 * one.total_profit
            assert two.profit.tobytes() == (2.0 * one.profit).tobytes()
            for column in ("discharge", "charge", "soc"):
                assert getattr(two, column).tobytes() == getattr(one, column).tobytes()
