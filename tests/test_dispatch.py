import itertools
from datetime import timedelta

import numpy as np
import pytest
from conftest import START, power_bid

from socbid import (
    DataValidationError,
    GeneratorOffer,
    InfeasibleMarketError,
    MarketInstance,
    SoCGrid,
    StorageParams,
    StorageUnit,
    clear_soc_bid_ed,
    soc_bid,
    step_soc_bid,
)
from socbid.bids import bid_schedule_from_prices, bid_thresholds
from socbid.data_io import synthetic_tape

G1 = GeneratorOffer("G1", ((100.0, 15.0),))
G2 = GeneratorOffer("G2", ((100.0, 40.0),))
BIG_STORAGE = StorageParams(10.0, 60.0, 0.9, 10.0)


def full_storage(discharge, charge):
    """A full BIG_STORAGE unit under a hand-given power bid."""
    return StorageUnit("S", BIG_STORAGE, 60.0, power_bid(discharge, charge, BIG_STORAGE))


def soc_unit(name, params, soc, bounds, values):
    return StorageUnit(name, params, soc, soc_bid(bounds, values, params))


def test_storage_sets_the_margin():
    instance = MarketInstance((G1, G2), 105.0, (full_storage(25.0, 5.0),))
    result = clear_soc_bid_ed(instance)
    assert result.price == 25.0
    assert result.generation == {"G1": 100.0, "G2": 0.0}
    assert result.storage["S"].discharge_power == pytest.approx(5.0)


def test_storage_inframarginal_under_high_demand():
    instance = MarketInstance((G1, G2), 150.0, (full_storage(25.0, 5.0),))
    result = clear_soc_bid_ed(instance)
    assert result.price == 40.0
    assert result.generation == {"G1": 100.0, "G2": 40.0}
    assert result.storage["S"].discharge_power == pytest.approx(10.0)


def test_storage_charges_from_cheap_generation():
    empty = StorageUnit("S", BIG_STORAGE, 0.0, power_bid(25.0, 20.0, BIG_STORAGE))
    result = clear_soc_bid_ed(MarketInstance((G1, G2), 90.0, (empty,)))
    assert result.price == 15.0
    assert result.generation["G1"] == pytest.approx(100.0)
    assert result.storage["S"].charge_power == pytest.approx(10.0)


def test_classic_merit_order_without_storage():
    result = clear_soc_bid_ed(MarketInstance((G1, G2), 130.0, ()))
    assert result.price == 40.0
    assert result.generation == {"G1": 100.0, "G2": 30.0}


def test_supply_demand_balance_exact():
    rng = np.random.default_rng(51)
    for _ in range(50):
        demand = float(rng.uniform(20.0, 180.0))
        soc = float(rng.uniform(0.0, 60.0))
        discharge_bid = float(rng.uniform(5.0, 50.0))
        charge_bid = min(float(rng.uniform(-5.0, 20.0)), discharge_bid)
        bid = power_bid(discharge_bid, charge_bid, BIG_STORAGE)
        instance = MarketInstance((G1, G2), demand, (StorageUnit("S", BIG_STORAGE, soc, bid),))
        result = clear_soc_bid_ed(instance)
        supplied = (sum(result.generation.values())
                    + sum(d.discharge_power for d in result.storage.values()))
        assert supplied == pytest.approx(demand + result.cleared_charge, abs=1e-9)


def test_crossed_power_bids_rejected_by_market():
    with pytest.raises(DataValidationError, match="crossed"):
        StorageUnit("S", BIG_STORAGE, 30.0, power_bid(7.0, 16.0, BIG_STORAGE))


def test_negative_soc_bid_values_never_discharge_below_a_price_of_0():
    # Segment 1's stored value -4 gives a discharge threshold of -5.71, so its
    # supply step enters at 0 $/MWh and its charge threshold -2.8 crosses nothing.
    params = StorageParams(5.0, 30.0, 0.7, 0.0)
    curve = soc_bid(np.array([0.0, 10.0, 30.0]), np.array([8.0, -4.0]), params)
    unit = StorageUnit("S1", params, 20.0, curve)
    for cost, discharge in ((-3.0, 0.0), (5.0, 5.0)):
        gen = GeneratorOffer("G", ((100.0, cost),))
        result = clear_soc_bid_ed(MarketInstance((gen,), 50.0, (unit,)))
        assert result.price == cost
        assert result.storage["S1"].discharge_power == discharge
        assert step_soc_bid(20.0, cost, curve, params, 1.0).discharge_power == discharge


def test_market_and_step_hold_at_a_price_of_exactly_0():
    # The discharge threshold -5.71 is below 0, where the supply step enters and
    # sets the price with no demand to serve; the step must not discharge at 0.
    params = StorageParams(5.0, 30.0, 0.7, 0.0)
    curve = soc_bid(np.array([0.0, 30.0]), np.array([-4.0]), params)
    result = clear_soc_bid_ed(MarketInstance((G1,), 0.0, (StorageUnit("S1", params, 20.0, curve),)))
    assert result.price == 0.0
    assert result.storage["S1"].discharge_power == 0.0
    step = step_soc_bid(20.0, 0.0, curve, params, 1.0)
    assert (step.discharge_power, step.charge_power, step.soc_after) == (0.0, 0.0, 20.0)


def test_storage_soc_within_the_float_tolerance_of_a_bound_is_accepted():
    # A market takes the SoC that step_soc_bid settles, within SOC_EPS of a
    # bound, and clears it the same way; past the tolerance it is rejected.
    params = StorageParams(5.0, 30.0, 0.7, 0.0)
    curve = soc_bid(np.array([0.0, 30.0]), np.array([8.0]), params)
    for soc in (30.0 + 1e-12, -1e-12):
        unit = StorageUnit("S1", params, soc, curve)
        cleared = clear_soc_bid_ed(MarketInstance((G1,), 50.0, (unit,))).storage["S1"]
        step = step_soc_bid(soc, 15.0, curve, params, 1.0)
        assert cleared.discharge_power == pytest.approx(step.discharge_power, abs=1e-9)
        assert cleared.charge_power == pytest.approx(step.charge_power, abs=1e-9)
    for soc in (30.0 + 1e-6, -1e-6):
        with pytest.raises(DataValidationError, match="S1 SoC"):
            StorageUnit("S1", params, soc, curve)


def test_market_agrees_with_the_step_on_engine_bids_at_negative_prices():
    """The engine's bids on a negative-price tape clear as step_soc_bid settles them."""
    tape = synthetic_tape("Z", START, timedelta(hours=1), 200, low=-15.0, noise_std=5.0, seed=3)
    rng = np.random.default_rng(19)
    demand = 2500.0
    checked = 0
    for cost, duration, model in itertools.product((0.0, 10.0), (1.0, 4.0), ("power", "soc")):
        params = StorageParams(1.0, duration, 0.9, cost)
        grid = SoCGrid.for_storage(params, 1.0, 301)
        schedule = bid_schedule_from_prices(tape, params, grid, model)
        for _ in range(400):
            row = schedule.values[int(rng.integers(len(schedule)))]
            bid = soc_bid(schedule.boundaries, row, params)
            soc = float(rng.uniform(0.0, duration))
            price = float(rng.uniform(-40.0, 60.0))
            clipped = np.maximum(bid.discharge, 0.0)
            if np.min(np.abs(np.concatenate([clipped, bid.charge]) - price)) < 1e-6:
                continue  # the price sits on a bid: partial dispatch, excluded
            unit = StorageUnit("S", params, soc, bid)
            gen = GeneratorOffer("G", ((2 * demand, price),))
            result = clear_soc_bid_ed(MarketInstance((gen,), demand, (unit,)))
            assert result.price == price
            cleared = result.storage["S"]
            step = step_soc_bid(soc, price, bid, params, 1.0)
            assert cleared.discharge_power == pytest.approx(step.discharge_power, abs=1e-9)
            assert cleared.charge_power == pytest.approx(step.charge_power, abs=1e-9)
            assert cleared.soc_after == pytest.approx(step.soc_after, abs=1e-9)
            checked += 1
    assert checked > 3000


def test_clearing_price_monotone_in_demand():
    prices = []
    for demand in (10.0, 60.0, 101.0, 140.0, 190.0):
        result = clear_soc_bid_ed(
            MarketInstance((G1, G2), demand, (full_storage(25.0, 5.0),))
        )
        prices.append(result.price)
    assert prices == sorted(prices)


def test_infeasible_demand_raises():
    with pytest.raises(InfeasibleMarketError):
        clear_soc_bid_ed(MarketInstance((G1, G2), 250.0, ()))


def test_rationed_charge_block_sets_the_price():
    # supply runs out while the charge bid still exceeds every supply step;
    # the partially served block becomes marginal and prices the market
    gen = GeneratorOffer("G", ((100.0, 15.0),))
    params = StorageParams(60.0, 500.0, 0.9, 10.0)
    hungry = StorageUnit("S", params, 0.0, power_bid(2000.0, 1000.0, params))
    result = clear_soc_bid_ed(MarketInstance((gen,), 50.0, (hungry,)))
    assert result.price == 1000.0
    assert result.storage["S"].charge_power == pytest.approx(50.0)
    assert sum(result.generation.values()) == pytest.approx(50.0 + result.cleared_charge)


def test_charge_block_with_no_room_left_takes_nothing():
    # G1 covers exactly the fixed demand while S1 still bids 36 $/MWh to charge:
    # rationing finds no room, so the block takes 0 MW and G1's step sets the price
    params = StorageParams(10.0, 20.0, 0.9, 10.0)
    unit = StorageUnit("S1", params, 0.0, soc_bid([0.0, 20.0], [40.0], params))
    result = clear_soc_bid_ed(MarketInstance((G1,), 100.0, (unit,)))
    assert result.price == 15.0
    assert result.storage["S1"].charge_power == 0.0
    assert result.generation == {"G1": 100.0}
    assert result.cleared_charge == 0.0


def test_step_emptied_by_the_power_rating_still_sets_the_price():
    # S's cheap shallow segment uses its whole 10 MW rating, so its 50 $/MWh
    # deep segment offers 0 MW; its cost is still the price at which the
    # 105 MW of demand clears without T's 40 $/MWh charge block.
    s = soc_unit("S", StorageParams(10.0, 40.0, 1.0, 0.0), 40.0, [0.0, 20.0, 40.0], [50.0, 10.0])
    t = soc_unit("T", StorageParams(10.0, 10.0, 1.0, 0.0), 0.0, [0.0, 10.0], [40.0])
    gen = GeneratorOffer("G", ((100.0, 30.0),))
    result = clear_soc_bid_ed(MarketInstance((gen,), 105.0, (s, t)))
    assert result.price == 50.0
    assert result.generation == {"G": 95.0}
    assert result.storage["S"].discharge_power == 10.0
    assert result.storage["T"].charge_power == 0.0


def test_two_units_each_clear_at_most_their_rating():
    # Each unit's cheap shallow segment holds more than its rating, so the
    # rating, taken in cost order, leaves its deep segment nothing to offer.
    s1 = soc_unit("S1", StorageParams(10.0, 60.0, 1.0, 0.0), 60.0, [0.0, 30.0, 60.0], [30.0, 5.0])
    s2 = soc_unit("S2", StorageParams(4.0, 20.0, 1.0, 0.0), 20.0, [0.0, 10.0, 20.0], [35.0, 8.0])
    result = clear_soc_bid_ed(MarketInstance((G1, G2), 110.0, (s1, s2)))
    assert result.price == 15.0
    assert result.generation == {"G1": 96.0, "G2": 0.0}
    assert result.storage["S1"].discharge_power == 10.0
    assert result.storage["S2"].discharge_power == 4.0
    # rationed charging: 10 MW of room, the first hungry unit takes its 8 MW
    hungry = [
        StorageUnit(name, params, 0.0, power_bid(2000.0, 1000.0, params))
        for name, params in (
            ("H1", StorageParams(8.0, 500.0, 0.9, 10.0)),
            ("H2", StorageParams(6.0, 500.0, 0.9, 10.0)),
        )
    ]
    result = clear_soc_bid_ed(MarketInstance((G1,), 90.0, tuple(hungry)))
    assert result.price == 1000.0
    assert result.storage["H1"].charge_power == 8.0
    assert result.storage["H2"].charge_power == pytest.approx(2.0)


@pytest.mark.parametrize(
    "storages",
    [(), (StorageUnit("S", BIG_STORAGE, 0.0, power_bid(25.0, 5.0, BIG_STORAGE)),)],
    ids=["empty-market", "empty-storage"],
)
def test_market_without_supply_steps_is_infeasible(storages):
    with pytest.raises(InfeasibleMarketError, match="no supply step sets a price"):
        clear_soc_bid_ed(MarketInstance((), 0.0, storages))


def test_generator_wins_cost_ties():
    storage = full_storage(15.0, 0.0)  # same cost as G1
    result = clear_soc_bid_ed(MarketInstance((G1, G2), 50.0, (storage,)))
    assert result.generation["G1"] == pytest.approx(50.0)
    assert result.storage["S"].discharge_power == 0.0


def test_soc_bid_single_segment_equals_power_bid_clearing():
    q_bar = 18.0
    params = BIG_STORAGE
    pb = power_bid(*bid_thresholds(q_bar, params), params)
    curve = soc_bid(np.array([0.0, 60.0]), np.array([q_bar]), params)
    for demand, soc in ((105.0, 60.0), (150.0, 30.0), (90.0, 0.0), (40.0, 10.0)):
        r_power = clear_soc_bid_ed(
            MarketInstance((G1, G2), demand, (StorageUnit("S", params, soc, pb),))
        )
        r_soc = clear_soc_bid_ed(
            MarketInstance((G1, G2), demand, (StorageUnit("S", params, soc, curve),))
        )
        assert r_power.price == r_soc.price
        assert r_power.generation == r_soc.generation
        dp, ds = r_power.storage["S"], r_soc.storage["S"]
        assert dp.discharge_power == pytest.approx(ds.discharge_power, abs=1e-9)
        assert dp.charge_power == pytest.approx(ds.charge_power, abs=1e-9)


def test_soc_bid_partial_dispatch_stops_at_segment_boundary():
    # Two segments valued 30 and 2: at a clearing price between the two
    # discharge thresholds only the deep segment clears, something a single
    # power bid cannot express.
    params = StorageParams(10.0, 20.0, 0.9, 10.0)
    unit = soc_unit("S", params, 14.0, [0.0, 10.0, 20.0], [30.0, 2.0])
    # thresholds: deep segment 10 + 30/0.9 = 43.3, shallow 10 + 2/0.9 = 12.2
    gen = GeneratorOffer("G", ((200.0, 20.0),))
    result = clear_soc_bid_ed(MarketInstance((gen,), 100.0, (unit,)))
    assert result.price == 20.0
    d = result.storage["S"]
    # only the energy above the 10 MWh boundary is offered below the price
    assert d.discharge_power == pytest.approx(4.0 * 0.9, abs=1e-9)
    assert d.soc_after == pytest.approx(10.0, abs=1e-9)


def test_soc_bid_no_storage_is_classic_merit_order():
    result = clear_soc_bid_ed(MarketInstance((G1, G2), 130.0, ()))
    assert result.price == 40.0
    assert result.generation == {"G1": 100.0, "G2": 30.0}


def test_price_taker_equivalence_random_instances(micro_params):
    """A tiny storage's cleared dispatch equals the arbitrage step at the price."""
    rng = np.random.default_rng(52)
    checked = 0
    while checked < 60:
        demand = float(rng.uniform(800.0, 1200.0))
        costs = np.sort(rng.uniform(1.0, 120.0, size=4))
        offers = tuple(
            GeneratorOffer(f"G{i}", ((demand, float(c)),)) for i, c in enumerate(costs)
        )
        soc = float(rng.uniform(0.0, 1.0))
        use_soc_bid = rng.random() < 0.5
        if use_soc_bid:
            vals = np.sort(rng.uniform(0.0, 90.0, size=4))[::-1]
            bid = soc_bid(np.linspace(0.0, 1.0, 5), vals, micro_params)
            unit = StorageUnit("S", micro_params, soc, bid)
            thresholds = np.concatenate(
                [10.0 + vals / 0.9, vals * 0.9]
            )
        else:
            q_bar = float(rng.uniform(0.0, 80.0))
            bid = soc_bid([0.0, 1.0], [q_bar], micro_params)
            unit = StorageUnit("S", micro_params, soc, bid)
            thresholds = np.concatenate([bid.discharge, bid.charge])
        result = clear_soc_bid_ed(MarketInstance(offers, demand, (unit,)))
        if np.min(np.abs(thresholds - result.price)) < 1e-6:
            continue  # price coincides with a bid: partial dispatch, excluded
        arb = step_soc_bid(soc, result.price, bid, micro_params, 1.0)
        cleared = result.storage["S"]
        assert cleared.discharge_power == pytest.approx(arb.discharge_power, abs=1e-9)
        assert cleared.charge_power == pytest.approx(arb.charge_power, abs=1e-9)
        assert cleared.soc_after == pytest.approx(arb.soc_after, abs=1e-9)
        checked += 1


def test_power_and_soc_bid_units_clear_in_one_market():
    s2 = soc_unit("S2", StorageParams(10.0, 20.0, 0.9, 10.0), 14.0, [0.0, 10.0, 20.0], [30.0, 2.0])
    gen = GeneratorOffer("G", ((200.0, 20.0),))
    result = clear_soc_bid_ed(
        MarketInstance((gen,), 100.0, (full_storage(25.0, 5.0), s2))
    )
    assert result.price == 20.0
    assert result.storage["S"].discharge_power == 0.0
    assert result.storage["S2"].discharge_power == pytest.approx(4.0 * 0.9, abs=1e-9)


def test_generator_offer_validation():
    with pytest.raises(DataValidationError, match="offer G has no segments"):
        GeneratorOffer("G", ())
    with pytest.raises(DataValidationError, match="non-convex"):
        GeneratorOffer("bad", ((10.0, 30.0), (10.0, 20.0)))
    with pytest.raises(DataValidationError, match="capacity"):
        GeneratorOffer("bad", ((0.0, 30.0),))
    with pytest.raises(DataValidationError, match="unique"):
        MarketInstance((G1, G1), 50.0, ())
