from datetime import timedelta

import numpy as np
import pytest

from socbid import DataValidationError, PriceSeries
from socbid.data_io import (
    duration_curve,
    load_prices,
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
    west = load_prices(path, "WEST", timedelta(hours=1))
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
        load_prices(path, "Z", timedelta(minutes=5))


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
    series = load_prices(path, "Z", timedelta(minutes=5), fill_gaps=True)
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
    series = load_prices(path, "Z", timedelta(hours=1), fill_gaps=True)
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
        load_prices(path, "Z", timedelta(hours=1))


@pytest.mark.parametrize("fill_gaps", [False, True])
def test_load_one_microsecond_off_the_lattice_is_rejected(tmp_path, fill_gaps):
    # 1 us is 2.8e-10 of an hour: a float tolerance on steps would let it pass
    path = tmp_path / "off.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,Z,1",
            "2019-01-01T01:00:00Z,Z,2",
            "2019-01-01T02:00:00.000001Z,Z,3",
            "2019-01-01T03:00:00Z,Z,4",
        ],
    )
    with pytest.raises(DataValidationError, match=r"02:00:00\.000001\+00:00 is off the 1:00:00"):
        load_prices(path, "Z", timedelta(hours=1), fill_gaps=fill_gaps)


def test_load_offset_and_naive_timestamps_match_their_utc_twin(tmp_path):
    utc_rows = [f"2019-01-01T{h:02d}:00:00+00:00,Z,{10 + h}" for h in (0, 1, 2, 4)]
    mixed_rows = [
        "2019-01-01T05:00:00+05:00,Z,10",
        "2019-01-01T01:00:00,Z,11",
        "2019-01-01T02:00:00Z,Z,12",
        "2019-01-01T09:00:00+05:00,Z,14",
    ]
    write_rows(tmp_path / "utc.csv", utc_rows)
    write_rows(tmp_path / "mixed.csv", mixed_rows)
    utc = load_prices(tmp_path / "utc.csv", "Z", timedelta(hours=1), fill_gaps=True)
    mixed = load_prices(tmp_path / "mixed.csv", "Z", timedelta(hours=1), fill_gaps=True)
    np.testing.assert_array_equal(mixed.values, utc.values)
    np.testing.assert_array_equal(utc.values, [10.0, 11.0, 12.0, 12.0, 14.0])
    assert mixed.start == utc.start == START
    assert mixed.gaps_filled == utc.gaps_filled == 1


def test_load_resolution_mismatch(tmp_path):
    path = tmp_path / "hourly.csv"
    write_rows(path, ["2019-01-01T00:00:00Z,Z,10", "2019-01-01T01:00:00Z,Z,11"])
    with pytest.raises(DataValidationError, match="resolution"):
        load_prices(path, "Z", timedelta(minutes=5))


def test_load_unparseable_row_reports_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    write_rows(path, ["2019-01-01T00:00:00Z,Z,10", "2019-01-01T01:00:00Z,Z,not-a-price"])
    with pytest.raises(DataValidationError, match="row 3"):
        load_prices(path, "Z", timedelta(hours=1))


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


def test_write_duration_curves_needs_a_schedule_that_tiles_the_tape(tmp_path):
    from socbid import StorageParams
    from socbid.bids import BidSchedule
    from socbid.data_io import write_duration_curves

    params = StorageParams(1.0, 1.0)
    hourly = BidSchedule(1.0, params, np.array([0.0, 1.0]), np.array([[5.0], [6.0]]), "power")
    # two hourly bids on 30 five-minute intervals: 15 per bid would tile the count,
    # but a bid covers 12 intervals
    prices = PriceSeries("Z", START, timedelta(minutes=5), np.full(30, 20.0))
    with pytest.raises(DataValidationError, match="do not match"):
        write_duration_curves(prices, hourly, tmp_path / "duration.csv")
    assert not (tmp_path / "duration.csv").exists()


def test_synthetic_tape_is_seeded_and_square():
    a = synthetic_tape("Z", START, timedelta(minutes=5), 288, noise_std=4.0, seed=9)
    b = synthetic_tape("Z", START, timedelta(minutes=5), 288, noise_std=4.0, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    clean = synthetic_tape("Z", START, timedelta(hours=1), 24, low=15, high=45)
    np.testing.assert_array_equal(clean.values[:12], 15.0)
    np.testing.assert_array_equal(clean.values[12:], 45.0)
