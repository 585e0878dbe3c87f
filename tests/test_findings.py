"""The source paper's three findings, checked on seeded one-week synthetic tapes.

The paper's abstract claims that (a) storage of 12 h or more passes 80%
utilization with naive day-ahead forecasts, while short storage depends on
forecast accuracy; (b) SoC bids raise utilization over power bids; and
(c) more negative prices (a higher renewable share) raise utilization.

Each test runs one zone's tapes from ``cli._synthetic_tapes`` through
``run_cases``, with utilization measured against ``RT-SB-PF``. Seeds, noise
levels and thresholds are fixed; a failure is a finding, not a reason to
re-seed. Only the real-time columns are asserted. The synthetic day-ahead
tape is noise-free, and a DF case values on that same tape, so a day-ahead
case settles on a perfect forecast: ``DA-PB-DF`` equals ``DA-SB-DF`` at
1-12 h, and the DA columns cannot show forecast error or finding (b).
"""

from datetime import timedelta

import numpy as np
import pytest

from socbid import CASE_IDS, CaseConfig, PriceSeries, StorageParams, utilization
from socbid.cli import _synthetic_tapes
from socbid.simulate import run_cases

DURATIONS = (1, 2, 4, 6, 12, 24, 72)
LOWS = (15, 0, -15)  # the square wave's low price, $/MWh; high stays 45
LOW_DURATIONS = (1, 4, 12, 72)  # durations swept over LOWS
NOISE_SEEDS = range(11, 16)
NOISE_STD = 10.0  # $/MWh


def tapes(low: float) -> tuple[PriceSeries, PriceSeries]:
    return _synthetic_tapes("AA", 7, low, 45, 24, 5, 1)


def utilizations(da, rt, duration, case_ids=CASE_IDS) -> dict[str, float]:
    """Utilization of each case (``RT-SB-PF`` among them) for one duration."""
    params = StorageParams(1.0, float(duration), 0.9, 10.0)
    results = run_cases([CaseConfig(c) for c in case_ids], da, rt, params, 1001)
    reference = results[case_ids.index("RT-SB-PF")]
    return {c: utilization(r, reference) for c, r in zip(case_ids, results)}


def hourly_forecast(rt: PriceSeries, noise_seed: int | None = None) -> PriceSeries:
    """The real-time tape's hourly mean, plus N(0, NOISE_STD^2) noise drawn from ``noise_seed``."""
    hourly = rt.values.reshape(-1, 12).mean(axis=1)  # twelve 5-minute intervals an hour
    if noise_seed is not None:
        hourly = hourly + np.random.default_rng(noise_seed).normal(0.0, NOISE_STD, hourly.size)
    return PriceSeries(rt.zone, rt.start, timedelta(hours=1), hourly)


@pytest.fixture(scope="module")
def table() -> dict[tuple[float, int], dict[str, float]]:
    """Utilization by (low, duration): every duration at low 15, LOW_DURATIONS at the rest."""
    out = {}
    for low in LOWS:
        da, rt = tapes(low)
        for duration in DURATIONS if low == 15 else LOW_DURATIONS:
            out[low, duration] = utilizations(da, rt, duration)
    return out


@pytest.mark.parametrize("duration", [12, 72])
def test_a_long_storage_passes_80_percent_on_naive_forecasts(table, duration):
    assert table[15, duration]["RT-SB-DF"] >= 0.80


def test_a_short_storage_loses_more_to_forecast_noise():
    _, rt = tapes(15)
    drops = {}
    for duration in (1, 12):
        def sb_df(forecast):
            return utilizations(forecast, rt, duration, ("RT-SB-PF", "RT-SB-DF"))["RT-SB-DF"]

        noisy = [sb_df(hourly_forecast(rt, seed)) for seed in NOISE_SEEDS]
        drops[duration] = sb_df(hourly_forecast(rt)) - float(np.mean(noisy))
    assert drops[1] > drops[12]


def test_b_soc_bids_match_or_beat_power_bids(table):
    for duration in DURATIONS:
        row = table[15, duration]
        assert row["RT-SB-DF"] >= row["RT-PB-DF"], duration
    for forecast in ("DF", "PF"):
        edges = [
            table[15, d][f"RT-SB-{forecast}"] - table[15, d][f"RT-PB-{forecast}"]
            for d in DURATIONS
        ]
        assert np.mean(edges) > 0, forecast


@pytest.mark.parametrize("duration", LOW_DURATIONS)
def test_c_more_negative_prices_raise_utilization(table, duration):
    soc_df = [table[low, duration]["RT-SB-DF"] for low in LOWS]
    assert soc_df == sorted(soc_df), soc_df
