import math

import numpy as np
import pytest

from socbid import (
    CASE_IDS,
    BidSchedule,
    CaseConfig,
    DataValidationError,
    PowerBid,
    SoCBidCurve,
    SoCGrid,
    StorageParams,
    backward_induct,
    bid_schedule_from_prices,
    make_soc_bids,
    run_case,
    run_schedule,
    step_power_bid,
    step_soc_bid,
    utilization,
)
from socbid.bids import power_bid_from_average
from socbid.data_io import expand_hourly_to_5min, synthetic_tape
from socbid.simulate import _clamp_soc, windowed_profit

from conftest import START, five_min_series, hourly_series

from datetime import timedelta


MICRO_BID = PowerBid(10 + 5.0 / 0.9, 4.5)
TWO_SEG = SoCBidCurve(np.array([0.0, 0.5, 1.0]), np.array([9.0, 1.0]))


# ---------------------------------------------------------------------------
# step_power_bid
# ---------------------------------------------------------------------------

def test_power_step_soc_limited_discharge(micro_params):
    d = step_power_bid(0.3, 30.0, MICRO_BID, micro_params, 1.0)
    assert d.discharge_power == pytest.approx(0.27, abs=1e-12)
    assert d.soc_after == pytest.approx(0.0, abs=1e-12)
    assert d.realized_profit == pytest.approx(5.4, abs=1e-9)


def test_power_step_idle_between_bids(micro_params):
    d = step_power_bid(0.3, 10.0, MICRO_BID, micro_params, 1.0)
    assert d.discharge_power == 0.0 and d.charge_power == 0.0
    assert d.realized_profit == 0.0
    assert d.soc_after == 0.3


def test_power_step_power_limited_charge(micro_params):
    d = step_power_bid(0.3, 2.0, MICRO_BID, micro_params, 1.0)
    assert d.charge_power == pytest.approx(0.5, abs=1e-12)
    assert d.soc_after == pytest.approx(0.75, abs=1e-12)
    assert d.realized_profit == pytest.approx(-1.0, abs=1e-12)


def test_power_step_tie_resolves_to_idle(micro_params):
    for price in (MICRO_BID.discharge_bid, MICRO_BID.charge_bid):
        d = step_power_bid(0.5, price, MICRO_BID, micro_params, 1.0)
        assert d.net_power == 0.0


def test_power_step_no_discharge_at_negative_price(micro_params):
    bid = PowerBid(-20.0, -30.0)  # deeply negative thresholds
    d = step_power_bid(1.0, -5.0, bid, micro_params, 1.0)
    assert d.discharge_power == 0.0


def test_power_step_out_of_bounds_soc(micro_params):
    with pytest.raises(DataValidationError, match="SoC"):
        step_power_bid(1.5, 30.0, MICRO_BID, micro_params, 1.0)


# ---------------------------------------------------------------------------
# step_soc_bid
# ---------------------------------------------------------------------------

def test_soc_step_power_limited_discharge_through_segments(micro_params):
    d = step_soc_bid(1.0, 30.0, TWO_SEG, micro_params, 1.0)
    assert d.discharge_power == pytest.approx(0.5, abs=1e-12)
    assert d.soc_after == pytest.approx(1.0 - 0.5 / 0.9, abs=1e-12)
    assert d.realized_profit == pytest.approx(10.0, abs=1e-9)
    assert d.opportunity_value_delta == pytest.approx(-1.0, abs=1e-9)


def test_soc_step_idle_at_boundary(micro_params):
    # (12-10)*0.9 = 1.8 beats neither 9 below nor charging against 1 above
    d = step_soc_bid(0.5, 12.0, TWO_SEG, micro_params, 1.0)
    assert d.net_power == 0.0
    assert d.opportunity_value_delta == 0.0


def test_soc_step_charge_stops_at_segment_boundary(micro_params):
    d = step_soc_bid(0.4, 2.0, TWO_SEG, micro_params, 1.0)
    assert d.charge_power == pytest.approx(0.1 / 0.9, abs=1e-12)
    assert d.soc_after == pytest.approx(0.5, abs=1e-12)
    assert d.realized_profit == pytest.approx(-2.0 * 0.1 / 0.9, abs=1e-12)
    assert d.opportunity_value_delta == pytest.approx(0.9, abs=1e-12)


def test_soc_step_no_discharge_at_negative_price(micro_params):
    low_curve = SoCBidCurve(np.array([0.0, 1.0]), np.array([-40.0]))
    d = step_soc_bid(1.0, -1.0, low_curve, micro_params, 1.0)
    assert d.discharge_power == 0.0


def test_soc_step_rejects_mismatched_curve_range(micro_params):
    half_curve = SoCBidCurve(np.array([0.0, 0.5]), np.array([9.0]))
    with pytest.raises(DataValidationError, match="bid curve spans"):
        step_soc_bid(0.2, 30.0, half_curve, micro_params, 1.0)


def test_soc_step_value_delta_sign_and_bound(micro_params):
    rng = np.random.default_rng(21)
    bounds = np.linspace(0.0, 1.0, 11)
    for _ in range(200):
        vals = np.sort(rng.uniform(0.0, 60.0, 10))[::-1]
        curve = SoCBidCurve(bounds, vals)
        e = rng.uniform(0.0, 1.0)
        price = rng.uniform(0.0, 120.0)
        d = step_soc_bid(e, price, curve, micro_params, 1.0)
        moved = abs(d.soc_after - e)
        if d.discharge_power > 0:
            assert d.opportunity_value_delta < 0
        elif d.charge_power > 0:
            assert d.opportunity_value_delta > 0
        assert abs(d.opportunity_value_delta) <= vals.max() * moved + 1e-9
        assert micro_params.soc_min <= d.soc_after <= micro_params.soc_max


def test_single_segment_equivalence_sample(micro_params):
    rng = np.random.default_rng(22)
    for _ in range(1000):
        q_bar = rng.uniform(-30.0, 80.0)
        e = rng.uniform(0.0, 1.0)
        price = rng.uniform(-50.0, 150.0)
        pb = step_power_bid(e, price, power_bid_from_average(q_bar, micro_params), micro_params, 1.0)
        sb = step_soc_bid(
            e, price, SoCBidCurve(np.array([0.0, 1.0]), np.array([q_bar])), micro_params, 1.0
        )
        assert pb.discharge_power == sb.discharge_power
        assert pb.charge_power == sb.charge_power
        assert pb.soc_after == sb.soc_after
        assert pb.realized_profit == sb.realized_profit


# ---------------------------------------------------------------------------
# run_case
# ---------------------------------------------------------------------------

def test_case_config_decomposition():
    config = CaseConfig("RT-PB-DF")
    assert config.settlement_market == "RT"
    assert config.bid_model == "power"
    assert config.valuation_source == "day_ahead"
    assert config.settlement_source == "real_time"
    with pytest.raises(DataValidationError, match="case id"):
        CaseConfig("RT-XX-PF")


def test_run_case_two_period_optimum(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0])
    result = run_case(CaseConfig("RT-SB-PF"), prices, prices, micro_params, unit_grid)
    assert result.total_profit == pytest.approx(5.6, abs=1e-9)
    assert result.decisions[0].charge_power == pytest.approx(0.5)
    assert result.decisions[1].discharge_power == pytest.approx(0.405)
    assert result.cycles == pytest.approx(0.405)


def test_run_case_constant_prices_no_dispatch(micro_params, unit_grid):
    prices = hourly_series([10.0] * 12)
    for case_id in CASE_IDS:
        result = run_case(CaseConfig(case_id), prices, prices, micro_params, unit_grid)
        assert result.total_profit == 0.0
        assert all(d.net_power == 0.0 for d in result.decisions)


def test_soc_bids_dominate_power_bids_with_perfect_foresight(micro_params, unit_grid):
    rng = np.random.default_rng(23)
    for trial in range(5):
        values = rng.uniform(-10.0, 80.0, 48)
        prices = hourly_series(values)
        sb = run_case(CaseConfig("RT-SB-PF"), None, prices, micro_params, unit_grid)
        pb = run_case(CaseConfig("RT-PB-PF"), None, prices, micro_params, unit_grid)
        assert sb.total_profit >= pb.total_profit - 1e-9


def test_run_case_hourly_bids_cover_five_minute_settlement(micro_params):
    da = hourly_series([5.0, 30.0])
    rt = expand_hourly_to_5min(da)
    grid = SoCGrid.for_storage(micro_params, 1.0, 1001)
    result = run_case(CaseConfig("RT-SB-DF"), da, rt, micro_params, grid)
    assert len(result.decisions) == 24
    # same prices at 12x resolution: same energy moves, same profit
    assert result.total_profit == pytest.approx(5.6, abs=1e-6)


def test_run_case_horizon_mismatch(micro_params, unit_grid):
    da = hourly_series([5.0, 30.0])
    rt = five_min_series(np.repeat([5.0, 30.0], 12)[:-1])  # one interval short
    with pytest.raises(DataValidationError, match="span"):
        run_case(CaseConfig("RT-PB-DF"), da, rt, micro_params, unit_grid)


def test_run_case_missing_series(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0])
    with pytest.raises(DataValidationError, match="day_ahead"):
        run_case(CaseConfig("RT-PB-DF"), None, prices, micro_params, unit_grid)
    with pytest.raises(DataValidationError, match="real_time"):
        run_case(CaseConfig("RT-SB-PF"), prices, None, micro_params, unit_grid)


def test_soc_conservation_and_bounds(micro_params, unit_grid):
    rt = synthetic_tape(
        "Z", START, timedelta(minutes=5), 3 * 288, low=10, high=50, noise_std=8.0, seed=3
    )
    da = hourly_series(np.repeat([10.0, 50.0], 36))
    result = run_case(CaseConfig("RT-SB-DF"), da, rt, micro_params, unit_grid)
    e = result.initial_soc
    eta = micro_params.efficiency_one_way
    for d in result.decisions:
        expected = e - d.discharge_power / eta / 12 + d.charge_power * eta / 12
        assert abs(d.soc_after - expected) <= 1e-9
        assert micro_params.soc_min <= d.soc_after <= micro_params.soc_max
        e = d.soc_after


def test_run_case_honors_initial_soc(micro_params, unit_grid):
    prices = hourly_series([50.0])
    result = run_case(
        CaseConfig("RT-SB-PF", initial_soc=1.0), prices, prices, micro_params, unit_grid
    )
    # starts full: one power-limited discharge into the high price
    assert result.initial_soc == 1.0
    assert result.decisions[0].discharge_power == pytest.approx(0.5)
    assert result.total_profit == pytest.approx((50.0 - 10.0) * 0.5, abs=1e-9)
    with pytest.raises(DataValidationError, match="initial SoC"):
        run_case(CaseConfig("RT-SB-PF", initial_soc=2.0), prices, prices, micro_params, unit_grid)


def test_utilization_basics(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0])
    ref = run_case(CaseConfig("RT-SB-PF"), prices, prices, micro_params, unit_grid)
    assert utilization(ref, ref) == 1.0
    pb = run_case(CaseConfig("RT-PB-PF"), prices, prices, micro_params, unit_grid)
    assert 0.0 <= utilization(pb, ref) <= 1.0


def test_utilization_rejects_degenerate_reference(micro_params, unit_grid):
    flat = hourly_series([10.0, 10.0])
    ref = run_case(CaseConfig("RT-SB-PF"), flat, flat, micro_params, unit_grid)
    with pytest.raises(DataValidationError, match="reference profit"):
        utilization(ref, ref)


def test_windowed_profit_excludes_edges(micro_params, unit_grid):
    prices = hourly_series([5.0, 30.0, 5.0, 30.0])
    result = run_case(CaseConfig("RT-SB-PF"), prices, prices, micro_params, unit_grid)
    full = windowed_profit(result)
    assert full == pytest.approx(result.total_profit)
    tail_cut = windowed_profit(result, skip_end_hours=1.0)
    assert tail_cut == pytest.approx(
        math.fsum(d.realized_profit for d in result.decisions[:-1])
    )
    with pytest.raises(DataValidationError):
        windowed_profit(result, skip_start_hours=2.0, skip_end_hours=2.0)


def test_power_step_crossed_pair_at_either_bound(micro_params):
    crossed = PowerBid(7.0, 16.0)  # charge threshold above the discharge threshold
    # a price above the discharge bid discharges, however crossed the pair
    assert step_power_bid(0.5, 10.0, crossed, micro_params, 1.0).discharge_power > 0.0
    assert step_power_bid(1.0, 10.0, crossed, micro_params, 1.0).discharge_power == 0.5
    # empty: the discharge rule still wins, so no charge either
    empty = step_power_bid(0.0, 10.0, crossed, micro_params, 1.0)
    assert empty.net_power == 0.0 and empty.soc_after == 0.0
    # below both bids: charge, except when full
    assert step_power_bid(0.0, 5.0, crossed, micro_params, 1.0).charge_power == 0.5
    full = step_power_bid(1.0, 5.0, crossed, micro_params, 1.0)
    assert full.net_power == 0.0 and full.soc_after == 1.0


def test_soc_clamp_tolerance_scales_with_soc_magnitude():
    huge = StorageParams(1e11, 1e11, 0.9, 10.0)
    # draining this state overshoots soc_min by ~2e-6 MWh of rounding
    d = step_power_bid(9237717256.743671, 100.0, PowerBid(50.0, 5.0), huge, 1 / 12)
    assert d.soc_after == huge.soc_min
    with pytest.raises(DataValidationError, match="SoC"):
        _clamp_soc(-1.0, StorageParams(1.0, 1.0))


def week_tape(seed: int):
    rng = np.random.default_rng(seed)
    hours = np.arange(7 * 24 * 12) / 12.0
    values = np.where(np.mod(hours, 24.0) < 12.0, 15.0, 45.0) + rng.normal(0.0, 6.0, hours.size)
    return five_min_series(values)


def test_power_schedule_settles_like_its_one_segment_soc_schedule(micro_params):
    prices = week_tape(31)
    grid = SoCGrid.for_storage(micro_params, 1 / 12, 301)
    power = bid_schedule_from_prices(prices, micro_params, grid, "power")
    one_segment = BidSchedule(power.period_hours, micro_params, power.boundaries, power.values)
    a = run_schedule(prices, power, micro_params, 0.0)
    b = run_schedule(prices, one_segment, micro_params, 0.0)
    assert a.discharge.any() and a.charge.any()
    for name in ("discharge", "charge", "soc", "profit"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not a.value_delta.any() and b.value_delta.any()


def test_run_schedule_books_the_value_deltas_of_single_steps(micro_params):
    prices = week_tape(32)
    da = hourly_series(prices.values.reshape(-1, 12).mean(axis=1))
    grid = SoCGrid.for_storage(micro_params, 1.0, 301)
    schedule = make_soc_bids(backward_induct(da, micro_params, grid), micro_params)
    result = run_schedule(prices, schedule, micro_params, 0.3)
    soc = result.soc_trajectory()
    assert result.value_delta.any()
    for k, price in enumerate(prices.values.tolist()):
        d = step_soc_bid(soc[k], price, schedule[k // 12], micro_params, 1 / 12)
        assert d.soc_after == result.soc[k]
        assert d.opportunity_value_delta == result.value_delta[k]
