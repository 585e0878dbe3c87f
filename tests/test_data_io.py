from datetime import timedelta

import numpy as np
import pytest

from socbid import DataValidationError, PriceSeries
from socbid.data_io import (
    duration_curve,
    expand_hourly_to_5min,
    load_prices,
    moving_stats,
    save_prices,
    synthetic_tape,
)

from conftest import START, hourly_series


def write_rows(path, rows, header=True):
    lines = ["timestamp,zone,price_usd_per_mwh"] if header else []
    lines += rows
    path.write_text("\n".join(lines) + "\n")


def test_load_well_formed_file(tmp_path):
    path = tmp_path / "prices.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00+00:00,NYC,31.5",
            "2019-01-01T01:00:00+00:00,NYC,-2.25",
            "2019-01-01T02:00:00+00:00,NYC,44.0",
        ],
    )
    series = load_prices(path, "NYC", timedelta(hours=1))
    assert len(series) == 3
    assert series.resolution == timedelta(hours=1)
    np.testing.assert_allclose(series.values, [31.5, -2.25, 44.0])
    assert series.gaps_filled == 0


def test_load_filters_by_zone(tmp_path):
    path = tmp_path / "prices.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,WEST,10",
            "2019-01-01T00:00:00Z,NYC,20",
            "2019-01-01T01:00:00Z,WEST,11",
            "2019-01-01T01:00:00Z,NYC,21",
        ],
    )
    west = load_prices(path, "WEST")
    np.testing.assert_allclose(west.values, [10.0, 11.0])


def test_load_gap_is_an_error_naming_the_timestamp(tmp_path):
    path = tmp_path / "gappy.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,Z,10",
            "2019-01-01T00:05:00Z,Z,11",
            "2019-01-01T00:15:00Z,Z,13",
        ],
    )
    with pytest.raises(DataValidationError, match="00:10:00"):
        load_prices(path, "Z")


def test_load_forward_fill_counts_gaps(tmp_path):
    path = tmp_path / "gappy.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,Z,10",
            "2019-01-01T00:05:00Z,Z,11",
            "2019-01-01T00:15:00Z,Z,13",
        ],
    )
    series = load_prices(path, "Z", fill="previous")
    assert series.gaps_filled == 1
    np.testing.assert_allclose(series.values, [10.0, 11.0, 11.0, 13.0])


def test_load_gap_at_second_row_uses_the_expected_lattice(tmp_path):
    path = tmp_path / "gappy.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,Z,10",
            "2019-01-01T02:00:00Z,Z,12",
            "2019-01-01T03:00:00Z,Z,13",
        ],
    )
    series = load_prices(path, "Z", timedelta(hours=1), fill="previous")
    assert series.gaps_filled == 1
    np.testing.assert_allclose(series.values, [10.0, 10.0, 12.0, 13.0])
    with pytest.raises(DataValidationError, match="missing interval"):
        load_prices(path, "Z", timedelta(hours=1))


def test_load_duplicate_timestamp_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,Z,10",
            "2019-01-01T00:00:00Z,Z,11",
        ],
    )
    with pytest.raises(DataValidationError, match="duplicate"):
        load_prices(path, "Z")


def test_load_resolution_mismatch(tmp_path):
    path = tmp_path / "hourly.csv"
    write_rows(path, ["2019-01-01T00:00:00Z,Z,10", "2019-01-01T01:00:00Z,Z,11"])
    with pytest.raises(DataValidationError, match="resolution"):
        load_prices(path, "Z", timedelta(minutes=5))


def test_load_unparseable_row_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, ["2019-01-01T00:00:00Z,Z,10", "2019-01-01T01:00:00Z,Z,not-a-price"])
    with pytest.raises(DataValidationError, match="row 3"):
        load_prices(path, "Z")


def test_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(61)
    series = PriceSeries("LONGIL", START, timedelta(minutes=5), rng.normal(30, 20, 288))
    path = tmp_path / "rt.csv"
    save_prices(series, path)
    back = load_prices(path, "LONGIL", timedelta(minutes=5))
    np.testing.assert_array_equal(back.values, series.values)
    assert back.start == series.start
    save_prices(back, tmp_path / "rt2.csv")
    assert (tmp_path / "rt.csv").read_bytes() == (tmp_path / "rt2.csv").read_bytes()


def test_expand_hourly_repeats_each_value_twelve_times():
    series = hourly_series([10.0, 20.0])
    out = expand_hourly_to_5min(series)
    assert len(out) == 24
    assert out.resolution == timedelta(minutes=5)
    np.testing.assert_array_equal(out.values[:12], 10.0)
    np.testing.assert_array_equal(out.values[12:], 20.0)
    assert out.values.mean() == series.values.mean()


def test_expand_preserves_block_means_exactly():
    rng = np.random.default_rng(62)
    series = hourly_series(rng.normal(40, 25, 100))
    out = expand_hourly_to_5min(series)
    blocks = out.values.reshape(100, 12)
    # every subinterval carries the hour's value bit-identically, so the
    # block mean is the hourly value by construction
    np.testing.assert_array_equal(blocks, np.broadcast_to(series.values[:, None], (100, 12)))


def test_expand_rejects_non_hourly():
    series = PriceSeries("Z", START, timedelta(minutes=5), np.array([1.0, 2.0]))
    with pytest.raises(DataValidationError, match="hourly"):
        expand_hourly_to_5min(series)


def test_moving_stats_constant_series():
    series = hourly_series([25.0] * 72)
    mean, deviation = moving_stats(series, timedelta(days=1))
    np.testing.assert_allclose(mean.values, 25.0)
    np.testing.assert_allclose(deviation.values, 0.0, atol=1e-12)
    assert deviation.resolution == timedelta(days=1)


def test_moving_stats_square_wave_daily_deviation():
    # alternating +1/-1 inside every day: population std is exactly 1
    values = np.tile([1.0, -1.0], 12 * 3)  # three days hourly
    series = hourly_series(values)
    _, deviation = moving_stats(series, timedelta(days=1))
    np.testing.assert_allclose(deviation.values, 1.0)


def test_moving_stats_trailing_mean_matches_bruteforce():
    rng = np.random.default_rng(63)
    series = hourly_series(rng.normal(0, 10, 60))
    mean, _ = moving_stats(series, timedelta(hours=7))
    for i in range(60):
        lo = max(0, i - 6)
        assert mean.values[i] == pytest.approx(series.values[lo : i + 1].mean())


def test_moving_stats_window_too_long():
    with pytest.raises(DataValidationError, match="window"):
        moving_stats(hourly_series([1.0, 2.0]), timedelta(days=2))


def test_duration_curve_sorts_descending():
    curve = duration_curve(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_array_equal(curve.values, [3.0, 2.0, 1.0])


def test_duration_curve_is_a_permutation():
    rng = np.random.default_rng(64)
    values = rng.normal(0, 50, 500)
    curve = duration_curve(values)
    np.testing.assert_array_equal(np.sort(curve.values), np.sort(values))


def test_duration_curve_quantile_markers():
    values = np.arange(1000, dtype=float)
    curve = duration_curve(values)
    assert curve.q01_index == 10
    assert curve.q99_index == 990
    flat = duration_curve(np.full(5, 7.0))
    np.testing.assert_array_equal(flat.values, 7.0)
    assert flat.q01_index == 0 and flat.q99_index == 4


def test_write_duration_curves(tmp_path):
    from socbid import StorageParams
    from socbid.bids import BidSchedule
    from socbid.data_io import write_duration_curves

    series = hourly_series([30.0, 10.0, 20.0, 40.0])
    # lossless and free, so each period's discharge bid is its value
    params = StorageParams(1.0, 1.0, efficiency_one_way=1.0, discharge_cost=0.0)
    values = np.array([[15.0 + i] for i in range(4)])
    schedule = BidSchedule(1.0, params, np.array([0.0, 1.0]), values, "power")
    path = tmp_path / "duration.csv"
    write_duration_curves(series, schedule, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,quantile_marker,price,discharge_bid,charge_bid"
    prices = [float(line.split(",")[2]) for line in lines[1:]]
    assert prices == sorted(prices, reverse=True)
    discharges = [float(line.split(",")[3]) for line in lines[1:]]
    assert discharges == [18.0, 17.0, 16.0, 15.0]
    assert lines[1].split(",")[1] == "q01"  # floor(0.01*4) = 0
    with pytest.raises(DataValidationError, match="power bids"):
        soc_schedule = BidSchedule(1.0, params, np.array([0.0, 1.0]), np.array([[5.0]]))
        write_duration_curves(hourly_series([1.0]), soc_schedule, path)


def test_synthetic_tape_is_seeded_and_square():
    a = synthetic_tape("Z", START, timedelta(minutes=5), 288, noise_std=4.0, seed=9)
    b = synthetic_tape("Z", START, timedelta(minutes=5), 288, noise_std=4.0, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    clean = synthetic_tape("Z", START, timedelta(hours=1), 24, low=15, high=45)
    np.testing.assert_array_equal(clean.values[:12], 15.0)
    np.testing.assert_array_equal(clean.values[12:], 45.0)
