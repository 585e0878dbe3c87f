"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
printed lines on success). Criterion 9 needs real NYISO 2019 zonal price
CSVs and is skipped unless SOCBID_NYISO_DA and SOCBID_NYISO_RT point at
them; everything else runs on synthetic tapes.
"""

from __future__ import annotations

import math
import os
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from socbid import (
    CASE_IDS,
    CaseConfig,
    SoCBidCurve,
    SoCGrid,
    StorageParams,
    ValueCurve,
    ValueSurface,
    bid_schedule,
    enumerate_tiny,
    grid_dp_oracle,
    run_cases,
    soc_bid,
    step_soc_bid,
    update_step,
    utilization,
)
from socbid.bids import bid_thresholds
from socbid.cli import main as cli_main
from socbid.data_io import load_prices, synthetic_tape
from socbid.dispatch import GeneratorOffer, MarketInstance, StorageUnit, clear_soc_bid_ed
from socbid.valuation import StepCase, segment_averages, step_case_breakdown

from conftest import hourly_series, random_monotone_values
from test_valuation import jump_tolerance, oracle_marginal

START = datetime(2019, 1, 1, tzinfo=timezone.utc)
MICRO = StorageParams(0.5, 1.0, 0.9, 10.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def synthetic_pair(seed: int, hours: int, low=15.0, high=45.0, noise=5.0, period=24.0):
    """Clean hourly square wave as the day-ahead tape, noisy 5-minute realization."""
    da = synthetic_tape("Z", START, timedelta(hours=1), hours,
                        low=low, high=high, period_hours=period, noise_std=0.0)
    rt = synthetic_tape("Z", START, timedelta(minutes=5), hours * 12,
                        low=low, high=high, period_hours=period, noise_std=noise, seed=seed)
    return da, rt


def test_criterion_01_oracle_certification():
    """Perfect-foresight SoC-bid runs reproduce the DP optimum; the DP oracle
    itself agrees with brute-force enumeration on tiny horizons."""
    t0 = time.perf_counter()
    worst_rel = 0.0
    grid = SoCGrid.for_storage(MICRO, 1.0 / 12.0, 301)
    for seed in range(50):
        _, rt = synthetic_pair(seed, hours=7 * 24)
        sim = run_cases([CaseConfig("RT-SB-PF")], None, rt, MICRO, grid.num_points)[0]
        oracle = grid_dp_oracle(rt, MICRO, grid, action_points=15)
        rel = abs(sim.total_profit - oracle.optimal_profit) / oracle.optimal_profit
        worst_rel = max(worst_rel, rel)

    rng = np.random.default_rng(1)
    unit_grid = SoCGrid(0.0, 1.0, 1001)
    worst_tiny = 0.0
    quantum = MICRO.power_rating / 10.0  # one 11-level action-grid power step
    for horizon in (1, 2, 3):
        for _ in range(12):
            tape = rng.uniform(-20.0, 80.0, size=horizon)
            prices = hourly_series(tape)
            dp = grid_dp_oracle(prices, MICRO, unit_grid, action_points=21).optimal_profit
            brute = enumerate_tiny(prices, MICRO, action_grid=11)
            budget = quantum * float(np.sum(np.abs(tape) + MICRO.discharge_cost))
            worst_tiny = max(worst_tiny, abs(dp - brute) / max(budget, 1e-12))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst_rel <= 0.005 and worst_tiny <= 1.0 and elapsed < 30.0,
        f"worst sim/oracle gap {worst_rel:.4%} (tol 0.5%), tiny-horizon gap "
        f"{worst_tiny:.2f}x quantization budget, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_closed_form_micro_scenarios():
    grid = SoCGrid(0.0, 1.0, 1001)
    checks = []
    for tape, expected in (([5.0, 30.0], 5.6), ([-10.0, 20.0], 9.05)):
        prices = hourly_series(tape)
        checks.append(abs(enumerate_tiny(prices, MICRO) - expected) < 1e-9)
        checks.append(abs(grid_dp_oracle(prices, MICRO, grid).optimal_profit - expected) < 1e-9)
        sim = run_cases([CaseConfig("RT-SB-PF")], prices, prices, MICRO, grid.num_points)[0]
        checks.append(abs(sim.total_profit - expected) < 1e-9)
    for level in (0.0, 10.0, 43.21):
        prices = hourly_series([level] * 3)
        checks.append(enumerate_tiny(prices, MICRO) == 0.0)
        checks.append(grid_dp_oracle(prices, MICRO, grid).optimal_profit == 0.0)
    report(2, all(checks), "tapes [5,30] -> 5.6, [-10,20] -> 9.05, constants -> 0")


def test_criterion_03_perfect_foresight_soc_bids_dominate():
    rng = np.random.default_rng(3)
    grid_hourly = SoCGrid.for_storage(MICRO, 1.0, 301)
    grid_5min = SoCGrid.for_storage(MICRO, 1.0 / 12.0, 301)
    worst_violation = 0.0
    for seed in range(100):
        low = float(rng.uniform(0.0, 25.0))
        high = low + float(rng.uniform(10.0, 60.0))
        noise = float(rng.uniform(1.0, 10.0))
        period = float(rng.choice([12.0, 24.0, 48.0]))
        da, rt = synthetic_pair(seed, hours=48, low=low, high=high, noise=noise, period=period)
        profits = {}
        for case_id in CASE_IDS:
            config = CaseConfig(case_id)
            grid = grid_hourly if config.valuation_source == "day_ahead" else grid_5min
            profits[case_id] = run_cases([config], da, rt, MICRO, grid.num_points)[0].total_profit
        reference = profits["RT-SB-PF"]
        for case_id, profit in profits.items():
            worst_violation = max(worst_violation, profit - reference)
    report(3, worst_violation <= 0.0, f"worst excess over RT-SB-PF: {worst_violation:.3g} (must be <= 0)")


def test_criterion_04_single_segment_equivalence():
    rng = np.random.default_rng(4)
    bounds = np.array([MICRO.soc_min, MICRO.soc_max])
    mismatches = 0
    for _ in range(10_000):
        q_bar = float(rng.uniform(-30.0, 80.0))
        e = float(rng.uniform(0.0, 1.0))
        price = float(rng.uniform(-50.0, 150.0))
        dt = float(rng.choice([1.0, 1.0 / 12.0]))
        discharge, charge = bid_thresholds(q_bar, MICRO)
        pb = step_soc_bid(e, price, SoCBidCurve(bounds, [discharge], [charge]), MICRO, dt)
        sb = step_soc_bid(e, price, soc_bid(bounds, [q_bar], MICRO), MICRO, dt)
        if (
            pb.discharge_power != sb.discharge_power
            or pb.charge_power != sb.charge_power
            or pb.soc_after != sb.soc_after
            or pb.realized_profit != sb.realized_profit
        ):
            mismatches += 1
    report(4, mismatches == 0, f"{mismatches} mismatches in 10,000 fuzzed triples (exact comparison)")


def test_criterion_05_bid_algebra():
    rng = np.random.default_rng(5)
    grid = SoCGrid(0.0, 1.0, 1001)
    eta, c = MICRO.efficiency_one_way, MICRO.discharge_cost
    worst_identity = worst_weighted = 0.0
    monotone_ok = True
    for _ in range(25):
        rows = np.stack([random_monotone_values(rng, grid.num_points) for _ in range(7)])
        surface = ValueSurface(grid, 1.0, rows)
        power = bid_schedule(surface, MICRO, "power")
        soc = bid_schedule(surface, MICRO, "soc")  # 40 segments for the 2 h unit
        for t in range(6):
            bid = soc_bid(power.boundaries, power.values[t], MICRO)
            worst_identity = max(
                worst_identity, abs(bid.charge[0] - eta**2 * (bid.discharge[0] - c))
            )
            row = soc.values[t]
            rises = np.diff(row)
            monotone_ok &= bool(np.all(rises <= 1e-9 * (1 + np.abs(row).max())))
            next_curve = ValueCurve(grid, surface.values[t + 1])
            (q_bar,) = segment_averages(next_curve, [grid.soc_min, grid.soc_max])
            widths = np.diff(soc.boundaries)
            weighted = float(np.sum(row * widths) / widths.sum())
            worst_weighted = max(worst_weighted, abs(weighted - q_bar))
    report(
        5,
        worst_identity < 1e-9 and monotone_ok and worst_weighted < 1e-9,
        f"charge = eta^2 (discharge - c) to {worst_identity:.1e}; segments monotone; "
        f"width-weighted mean off by {worst_weighted:.1e}",
    )


def test_criterion_06_valuation_invariants():
    rng = np.random.default_rng(6)
    grid = SoCGrid(0.0, 1.0, 201)
    monotone_ok = True
    discharge_at_negative = 0
    for i in range(1000):
        values = random_monotone_values(rng, grid.num_points)
        price = float(rng.uniform(-60.0, 150.0))
        curve = ValueCurve(grid, values)
        out = update_step(curve, price, MICRO, 1.0).values
        monotone_ok &= bool(np.all(np.diff(out) <= 1e-9 * (1 + np.abs(out).max())))
        if price < 0:
            cases = step_case_breakdown(curve, price, MICRO, 1.0)
            discharge_at_negative += int(
                np.any((cases == StepCase.PARTIAL_DISCHARGE) | (cases == StepCase.FULL_DISCHARGE))
            )
    oracle_ok = True
    for _ in range(150):
        values = random_monotone_values(rng, grid.num_points)
        price = float(rng.uniform(-40.0, 120.0))
        got = update_step(ValueCurve(grid, values), price, MICRO, 1.0).values
        want = oracle_marginal(values, grid, price, MICRO)
        oracle_ok &= bool(np.all(np.abs(got - want) <= jump_tolerance(got, grid.step)))
    report(
        6,
        monotone_ok and discharge_at_negative == 0 and oracle_ok,
        "monotone on 1000 curves; no discharge case at negative prices; "
        "matches enumeration within 2 grid steps x local slope",
    )


def test_criterion_07_conservation_full_year():
    da, rt = synthetic_pair(7, hours=365 * 24)
    grid = SoCGrid.for_storage(MICRO, 1.0, 1001)
    result = run_cases([CaseConfig("RT-SB-DF")], da, rt, MICRO, grid.num_points)[0]
    assert len(result.discharge) == 365 * 24 * 12
    eta = MICRO.efficiency_one_way
    dt = 1.0 / 12.0
    e = result.initial_soc
    worst_evolution = 0.0
    bounds_ok = True
    columns = (result.discharge, result.charge, result.soc)
    for p, b, soc_after in zip(*(c.tolist() for c in columns)):
        expected = e - p * dt / eta + b * eta * dt
        worst_evolution = max(worst_evolution, abs(soc_after - expected))
        bounds_ok &= MICRO.soc_min <= soc_after <= MICRO.soc_max
        e = soc_after
    resummed = math.fsum(result.profit.tolist())
    profit_gap = abs(result.total_profit - resummed)
    report(
        7,
        worst_evolution <= 1e-9 and bounds_ok and profit_gap <= 1e-6,
        f"105120 intervals: worst SoC evolution error {worst_evolution:.1e} (tol 1e-9), "
        f"bounds exact, profit re-sum gap {profit_gap:.1e} (tol 1e-6)",
    )


def test_criterion_08_price_taker_equivalence():
    rng = np.random.default_rng(8)
    checked = 0
    failures = 0
    while checked < 100:
        demand = float(rng.uniform(900.0, 1100.0))
        costs = np.sort(rng.uniform(1.0, 120.0, size=4))
        offers = tuple(
            GeneratorOffer(f"G{i}", ((demand, float(c)),)) for i, c in enumerate(costs)
        )
        soc = float(rng.uniform(0.0, 1.0))
        # storage power 0.5 MW <= 0.1% of ~1000 MW demand
        if rng.random() < 0.5:
            vals = np.sort(rng.uniform(0.0, 90.0, size=5))[::-1]
            bid = soc_bid(np.linspace(0.0, 1.0, 6), vals, MICRO)
            thresholds = np.concatenate([10.0 + vals / 0.9, vals * 0.9])
        else:
            bid = soc_bid([MICRO.soc_min, MICRO.soc_max], [float(rng.uniform(0.0, 80.0))], MICRO)
            thresholds = np.concatenate([bid.discharge, bid.charge])
        unit = StorageUnit("S", MICRO, soc, bid)
        result = clear_soc_bid_ed(MarketInstance(offers, demand, (unit,)))
        if float(np.min(np.abs(thresholds - result.price))) < 1e-6:
            continue  # clearing price touches a bid: excluded by the criterion
        arb = step_soc_bid(soc, result.price, bid, MICRO, 1.0)
        cleared = result.storage["S"]
        if (
            abs(cleared.discharge_power - arb.discharge_power) > 1e-9
            or abs(cleared.charge_power - arb.charge_power) > 1e-9
            or abs(cleared.soc_after - arb.soc_after) > 1e-9
        ):
            failures += 1
        checked += 1
    report(8, failures == 0, f"{failures} disagreements in 100 cleared instances")


@pytest.mark.skipif(
    not (os.environ.get("SOCBID_NYISO_DA") and os.environ.get("SOCBID_NYISO_RT")),
    reason="needs NYISO 2019 zonal price CSVs (set SOCBID_NYISO_DA and SOCBID_NYISO_RT)",
)
def test_criterion_09_historical_utilization():
    """Data-dependent reproduction of the headline utilization findings."""
    zones = ("WEST", "NORTH", "NYC", "LONGIL")
    params_by_duration = {
        d: StorageParams(1.0, d, 0.9, 10.0) for d in (1.0, 12.0, 24.0, 72.0)
    }
    da_path, rt_path = os.environ["SOCBID_NYISO_DA"], os.environ["SOCBID_NYISO_RT"]
    long_ok = True
    sb_minus_pb = []
    da_means = {}
    for zone in zones:
        da = load_prices(da_path, zone, timedelta(hours=1))
        rt = load_prices(rt_path, zone, timedelta(minutes=5))
        zone_da_utils = []
        for duration, params in params_by_duration.items():
            grid_h = SoCGrid.for_storage(params, 1.0, 1001)
            grid_5 = SoCGrid.for_storage(params, 1 / 12, 1001)
            results = {}
            for case_id in CASE_IDS:
                config = CaseConfig(case_id)
                grid = grid_h if config.valuation_source == "day_ahead" else grid_5
                results[case_id] = run_cases([config], da, rt, params, grid.num_points)[0]
            ref = results["RT-SB-PF"]
            utils = {cid: utilization(r, ref) for cid, r in results.items()}
            if duration >= 12.0:
                long_ok &= utils["RT-SB-DF"] >= 0.75 and utils["RT-PB-DF"] >= 0.75
            sb_minus_pb.append(utils["RT-SB-DF"] - utils["RT-PB-DF"])
            sb_minus_pb.append(utils["DA-SB-DF"] - utils["DA-PB-DF"])
            zone_da_utils += [utils["DA-PB-DF"], utils["DA-SB-DF"]]
        da_means[zone] = float(np.mean(zone_da_utils))
    mean_gap = float(np.mean(sb_minus_pb))
    da_low_zones = sum(1 for v in da_means.values() if v < 0.45)
    report(
        9,
        long_ok and 0.02 <= mean_gap <= 0.08 and da_low_zones >= 3,
        f"long-duration DF utilization >= 75%: {long_ok}; SoC-bid edge {mean_gap:.3f} "
        f"(target 0.05 +/- 0.03); {da_low_zones}/4 zones with DA utilization < 45%",
    )


def test_criterion_10_deterministic_sweeps(tmp_path):
    args = [
        "sweep",
        "--zones", "AA", "BB",
        "--durations", "1", "2",
        "--synthetic-days", "2",
        "--grid-points", "301",
        "--seed", "17",
    ]
    digests = []
    for run_dir, workers in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / run_dir
        assert cli_main(args + ["--workers", workers, "--output-dir", str(out)]) == 0
        digests.append(
            ((out / "summary.csv").read_bytes(), (out / "summary.json").read_bytes())
        )
    identical = digests[0] == digests[1] == digests[2]
    report(10, identical, "summary bytes identical across reruns and worker counts")
