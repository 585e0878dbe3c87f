import csv
import io
import os
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from socbid import BidSchedule, DataValidationError, PriceSeries, StorageParams, run_schedule
from socbid import data_io
from socbid.data_io import (
    _read_careful,
    load_prices,
    save_prices,
    synthetic_tape,
    write_bid_schedule,
    write_duration_curves,
    write_power_bids,
    write_trace,
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


@pytest.mark.parametrize("price", ["nan", "1e400", "-inf"])
def test_load_non_finite_price_names_its_row(tmp_path, price):
    path = tmp_path / "bad.csv"
    write_rows(path, ["2019-01-01T00:00:00Z,Z,10", f"2019-01-01T01:00:00Z,Z,{price}"])
    with pytest.raises(DataValidationError, match=f"^row 3: price '{price}' is not finite$"):
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


def test_row_faults_are_reported_before_lattice_faults(tmp_path):
    # Row 4 skips an hour and row 5 holds no price: the row fault is reported,
    # though the gap comes first in the file
    path = tmp_path / "both.csv"
    write_rows(
        path,
        [
            "2019-01-01T00:00:00Z,Z,10",
            "2019-01-01T01:00:00Z,Z,11",
            "2019-01-01T03:00:00Z,Z,13",
            "2019-01-01T04:00:00Z,Z,abc",
        ],
    )
    with pytest.raises(DataValidationError, match="^row 5: unparseable price 'abc'$"):
        load_prices(path, "Z", timedelta(hours=1))


FIVE_MIN = timedelta(minutes=5)


def noisy_tape(n=700, zone="AA", seed=3):
    return synthetic_tape(zone, START, FIVE_MIN, n, noise_std=5.0, seed=seed)


def tape_lines(series):
    """The lines ``save_prices`` writes for ``series``, header first, without endings."""
    rows = (
        f"{series.timestamp(i).isoformat()},{series.zone},{value!r}"
        for i, value in enumerate(series.values.tolist())
    )
    return [",".join(data_io.PRICE_HEADER), *rows]


def retimed(tz):
    """Tape lines with every stamp written in ``tz`` (naive where None)."""
    lines = list(LINES)
    for k in range(1, len(lines)):
        stamp, rest = lines[k].split(",", 1)
        ts = datetime.fromisoformat(stamp).astimezone(tz or timezone.utc)
        lines[k] = (ts.replace(tzinfo=None) if tz is None else ts).isoformat() + "," + rest
    return lines


def quoted(lines, zone=None):
    """Tape lines written again by csv.writer with every field quoted, renaming the zone."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL)
    for line in lines:
        row = line.split(",")
        writer.writerow(row if zone is None or row[1] == "zone" else [row[0], zone, row[2]])
    return buffer.getvalue()


def interleaved(zones, n=200):
    """One file with ``zones``' tapes interleaved row by row, header first."""
    tapes = [tape_lines(noisy_tape(n, zone, seed)) for seed, zone in enumerate(zones)]
    return [tapes[0][0], *(tape[k] for k in range(1, n + 1) for tape in tapes)]


def joined(lines, end="\n"):
    return end.join(lines) + end


def lone_cr():
    """Two zones' rows, the last of AA's after a lone CR that ends a BB row of four
    fields: split on newlines alone, that AA row would end the BB row."""
    lines = interleaved(["BB", "AA"])
    return joined(lines[:-2]) + lines[-2] + ",x\r" + lines[-1] + "\n"


LINES = tape_lines(noisy_tape())
NEXT_ROW = f"{(START + (len(LINES) - 1) * FIVE_MIN).isoformat()},AA,13.0"  # one step after LINES
BAD_PRICE = LINES[650] + "x"
# Each file, as text or bytes, and the zone and fill_gaps it is read with
READER_FILES = {
    "save_prices": (joined(LINES, "\r\n"), "AA", False),
    "lf": (joined(LINES), "AA", False),
    "crlf-blank-lines": ("\r\n" + joined(LINES, "\r\n") + "\r\n", "AA", False),
    "lone-cr": (lone_cr(), "AA", False),
    "quote-all": (quoted(LINES), "AA", False),
    "quoted-comma-zone": (quoted(LINES, zone="A,B"), "A,B", False),
    "quoted-newline": (
        joined(LINES[:-1]) + LINES[-1] + ',"\n' + NEXT_ROW + ',"\n', "AA", False,
    ),
    "blank-lines": ("\n" + joined(LINES[:5]) + "\n\n" + joined(LINES[5:]) + "\n", "AA", False),
    "nul": (joined([*LINES[:9], LINES[9] + ",\0", *LINES[10:]]), "AA", False),
    "long-field": (joined([*LINES[:9], LINES[9] + "," + "x" * 131_073, *LINES[10:]]), "AA", False),
    "spaces": (joined(" " + line.replace(",", " , ") + " " for line in LINES), "AA", False),
    "short-row-of-another-zone": (
        joined([*LINES[:9], "2019-01-01T00:00:00+00:00,BB", *LINES[9:]]), "AA", False,
    ),
    "short-row": (joined([*LINES[:9], LINES[9].rsplit(",", 1)[0], *LINES[10:]]), "AA", False),
    "spaced-zone-at-the-end": (
        joined([*LINES[:600], *(line.replace(",AA,", ", AA ,") for line in LINES[600:])]),
        "AA", False,
    ),
    "fourth-column": (joined(line + ",extra" for line in LINES), "AA", False),
    "interleaved": (joined(interleaved(["AA", "BB"])), "BB", False),
    "z-stamps": (joined(LINES).replace("+00:00", "Z"), "AA", False),
    "offset-stamps": (joined(retimed(timezone(timedelta(hours=5)))), "AA", False),
    "naive-stamps": (joined(retimed(None)), "AA", False),
    "naive-and-aware": (
        joined([*LINES[:400], *retimed(None)[400:]]), "AA", False,
    ),
    "gap": (joined([*LINES[:500], *LINES[501:]]), "AA", False),
    "gap-filled": (joined([*LINES[:500], *LINES[501:]]), "AA", True),
    "duplicate": (joined([*LINES[:500], *LINES[499:]]), "AA", False),
    "not-utf8": (joined(LINES).encode() + b"2019-01-03T10:20:00+00:00,\xff,1\n", "AA", False),
    # The bad price is read more than 8 KiB before the undecodable byte, in one
    # block with it: the price, not the encoding, is the first fault
    "bad-price-then-not-utf8": (
        joined([*LINES[:100], LINES[100] + "x", *LINES[101:350]]).encode()
        + b"\xff" + joined(LINES[350:]).encode(),
        "AA", False,
    ),
    # So is a bad price in one block with a later field the csv module cannot read
    "bad-price-then-long-field": (
        joined([*LINES[:100], LINES[100] + "x", *LINES[101:105],
                LINES[105] + "," + "x" * 131_073, *LINES[106:]]),
        "AA", False,
    ),
    # Row numbers run on across blank lines and across blocks
    "blank-lines-then-bad-price": (
        "\n" + joined(LINES[:5]) + "\n\n" + joined([*LINES[5:650], BAD_PRICE, *LINES[651:]]),
        "AA", False,
    ),
    "quote-then-bad-price": (
        joined([*LINES[:300], LINES[300] + ',"x"', *LINES[301:650], BAD_PRICE, *LINES[651:]]),
        "AA", False,
    ),
}


def write_content(path, content):
    if isinstance(content, str):
        path.write_text(content, newline="")
    else:
        path.write_bytes(content)


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("name", sorted(READER_FILES))
def test_load_prices_reads_as_the_careful_reader(tmp_path, monkeypatch, name, blocks):
    # Blocks of three rows carry blank lines, faults and lattice steps across blocks
    if blocks == "small":
        monkeypatch.setattr(data_io, "_CSV_ROWS", 3)
    content, zone, fill_gaps = READER_FILES[name]
    path = tmp_path / "prices.csv"
    write_content(path, content)
    try:
        reference = _read_careful(path, zone, FIVE_MIN, fill_gaps)
    except DataValidationError as exc:
        with pytest.raises(DataValidationError) as raised:
            load_prices(path, zone, FIVE_MIN, fill_gaps)
        assert str(raised.value) == str(exc)
        return
    series = load_prices(path, zone, FIVE_MIN, fill_gaps)
    assert series.values.tobytes() == reference.values.tobytes()
    assert (series.start, series.start.tzinfo) == (reference.start, reference.start.tzinfo)
    assert series.gaps_filled == reference.gaps_filled


def refuse(*args):
    raise AssertionError("read row by row")


@pytest.mark.parametrize("name", ["save_prices", "lf", "gap-filled", "interleaved-11"])
def test_clean_files_are_never_read_row_by_row(tmp_path, monkeypatch, name):
    # The block conversion must fire on the files it is for, not only read as
    # the careful reader does; a gap is filled without a second read
    path = tmp_path / "prices.csv"
    if name == "save_prices":
        save_prices(noisy_tape(), path)
        assert path.read_bytes() == READER_FILES[name][0].encode()
        zone, fill_gaps = "AA", False
    elif name == "interleaved-11":
        path.write_text(joined(interleaved([f"Z{k}" for k in range(11)])))
        zone, fill_gaps = "Z7", False
    else:
        content, zone, fill_gaps = READER_FILES[name]
        write_content(path, content)
    reference = _read_careful(path, zone, FIVE_MIN, fill_gaps)
    monkeypatch.setattr(data_io, "_take_rows", refuse)
    monkeypatch.setattr(data_io, "_read_careful", refuse)
    series = load_prices(path, zone, FIVE_MIN, fill_gaps)
    assert series.values.tobytes() == reference.values.tobytes()
    assert series.gaps_filled == reference.gaps_filled == (name == "gap-filled")


@pytest.mark.parametrize(
    "name", ["not-utf8", "long-field", "bad-price-then-not-utf8", "bad-price-then-long-field"]
)
def test_a_reader_fault_is_named_without_a_second_read(tmp_path, monkeypatch, name):
    content, zone, fill_gaps = READER_FILES[name]
    path = tmp_path / "prices.csv"
    write_content(path, content)
    with pytest.raises(DataValidationError) as reference:
        _read_careful(path, zone, FIVE_MIN, fill_gaps)
    monkeypatch.setattr(data_io, "_read_careful", refuse)
    with pytest.raises(DataValidationError) as raised:
        load_prices(path, zone, FIVE_MIN, fill_gaps)
    assert str(raised.value) == str(reference.value)


def test_a_faulty_block_alone_is_read_row_by_row(tmp_path, monkeypatch):
    # A stamp that needs stripping sends its own block row by row, not the file
    lines = tape_lines(noisy_tape(7000))
    lines[6000] = " " + lines[6000]
    path = tmp_path / "prices.csv"
    path.write_text(joined(lines))
    reference = _read_careful(path, "AA", FIVE_MIN, False)
    taken = []
    take_rows = data_io._take_rows

    def counted(rows, zone):
        stamps, prices = take_rows(rows, zone)
        taken.append(len(stamps))
        return stamps, prices

    monkeypatch.setattr(data_io, "_take_rows", counted)
    series = load_prices(path, "AA", FIVE_MIN)
    assert series.values.tobytes() == reference.values.tobytes()
    assert len(taken) == 1 and 0 < taken[0] < 1000


def test_load_prices_peak_allocation_is_bounded(tmp_path):
    # A half year of 5-minute rows. Reading every row into Python lists before
    # converting them peaked at 6.1 MiB; 512 rows at a time it peaks at 0.85 MiB,
    # the tape's values and their copy in the series included.
    path = tmp_path / "half-year.csv"
    save_prices(synthetic_tape("AA", START, FIVE_MIN, 52_560, noise_std=5.0, seed=5), path)
    tracemalloc.start()
    try:
        series = load_prices(path, "AA", FIVE_MIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 52_560
    assert peak <= 3 * 2**20


def test_write_bid_schedule_peak_allocation_is_bounded():
    # 200 periods of a 72 h unit's 1,440 segments, a 2.2 MiB table. Turning the
    # whole table into Python lists before writing peaked at 9.0 MiB; one row
    # at a time it peaks at 0.24 MiB.
    values = -np.sort(np.random.default_rng(7).uniform(0.0, 50.0, (200, 1440)), axis=1)
    schedule = BidSchedule(1.0, np.linspace(0.0, 72.0, 1441), values)
    tracemalloc.start()
    try:
        write_bid_schedule(schedule, os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values.nbytes / 4


def duration_table(tmp_path, prices):
    """Markers and price column of the duration CSV of an hourly tape under zero bids."""
    series = hourly_series(prices)
    schedule = BidSchedule(1.0, np.array([0.0, 1.0]), np.zeros((len(series), 1)))
    path = tmp_path / "duration.csv"
    write_duration_curves(series, schedule, StorageParams(1.0, 1.0), path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(len(series)))
    return [row[1] for row in rows], np.array([float(row[2]) for row in rows])


def test_duration_curve_sorts_descending(tmp_path):
    _, prices = duration_table(tmp_path, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(prices, [3.0, 2.0, 1.0])


def test_duration_curve_is_a_permutation(tmp_path):
    rng = np.random.default_rng(64)
    values = rng.normal(0, 50, 500)
    _, prices = duration_table(tmp_path, values)
    np.testing.assert_array_equal(np.sort(prices), np.sort(values))


def test_duration_curve_quantile_markers(tmp_path):
    markers, _ = duration_table(tmp_path, np.arange(1000, dtype=float))
    assert {i: m for i, m in enumerate(markers) if m} == {10: "q01", 990: "q99"}
    markers, prices = duration_table(tmp_path, np.full(5, 7.0))
    np.testing.assert_array_equal(prices, 7.0)
    assert markers == ["q01", "", "", "", "q99"]
    markers, _ = duration_table(tmp_path, [7.0])
    assert markers == ["q01"]  # q01 wins the row it shares with q99


def test_write_duration_curves(tmp_path):
    series = hourly_series([30.0, 10.0, 20.0, 40.0])
    # lossless and free, so each period's discharge bid is its value
    params = StorageParams(1.0, 1.0, efficiency_one_way=1.0, discharge_cost=0.0)
    values = np.array([[15.0 + i] for i in range(4)])
    schedule = BidSchedule(1.0, np.array([0.0, 1.0]), values)
    path = tmp_path / "duration.csv"
    write_duration_curves(series, schedule, params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,quantile_marker,price,discharge_bid,charge_bid"
    prices = [float(line.split(",")[2]) for line in lines[1:]]
    assert prices == sorted(prices, reverse=True)
    discharges = [float(line.split(",")[3]) for line in lines[1:]]
    assert discharges == [18.0, 17.0, 16.0, 15.0]
    assert lines[1].split(",")[1] == "q01"  # floor(0.01*4) = 0
    two_segments = BidSchedule(1.0, np.array([0.0, 0.5, 1.0]), np.array([[5.0, 4.0]]))
    with pytest.raises(DataValidationError, match="one-segment"):
        write_duration_curves(hourly_series([1.0]), two_segments, params, path)
    with pytest.raises(DataValidationError, match="one-segment"):
        write_power_bids(two_segments, params, tmp_path / "bids.csv")


def test_write_duration_curves_needs_a_schedule_that_tiles_the_tape(tmp_path):
    params = StorageParams(1.0, 1.0)
    hourly = BidSchedule(1.0, np.array([0.0, 1.0]), np.array([[5.0], [6.0]]))
    # two hourly bids on 30 five-minute intervals: 15 per bid would tile the count,
    # but a bid covers 12 intervals
    prices = PriceSeries("Z", START, timedelta(minutes=5), np.full(30, 20.0))
    with pytest.raises(DataValidationError, match="do not match"):
        write_duration_curves(prices, hourly, params, tmp_path / "duration.csv")
    assert not (tmp_path / "duration.csv").exists()


def test_write_trace_needs_a_result_of_the_tape_length(tmp_path):
    params = StorageParams(1.0, 1.0)
    schedule = BidSchedule(1.0, np.array([0.0, 1.0]), np.array([[5.0], [6.0]]))
    result = run_schedule(hourly_series([20.0, 30.0]), schedule, params, 0.0)
    with pytest.raises(DataValidationError, match="trace length does not match"):
        write_trace(result, hourly_series([20.0, 30.0, 40.0]), tmp_path / "trace.csv")
    assert not (tmp_path / "trace.csv").exists()


def test_synthetic_tape_needs_a_value():
    with pytest.raises(DataValidationError, match="num_values must be at least 1"):
        synthetic_tape("Z", START, timedelta(hours=1), 0)


def test_synthetic_tape_is_seeded_and_square():
    a = synthetic_tape("Z", START, timedelta(minutes=5), 288, noise_std=4.0, seed=9)
    b = synthetic_tape("Z", START, timedelta(minutes=5), 288, noise_std=4.0, seed=9)
    np.testing.assert_array_equal(a.values, b.values)
    clean = synthetic_tape("Z", START, timedelta(hours=1), 24, low=15, high=45)
    np.testing.assert_array_equal(clean.values[:12], 15.0)
    np.testing.assert_array_equal(clean.values[12:], 45.0)
