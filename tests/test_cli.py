import csv
import hashlib
import json
import math

import numpy as np
import pytest

from socbid import cli, data_io, simulate
from socbid.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main

SCENARIO = """\
generator,G1,100,15
generator,G2,100,40
demand,,105
storage,S1,10,60,0.9,10,60
powerbid,S1,25,5
"""


BOTH_SOURCES = "supply either --da-prices/--rt-prices or --synthetic-days, not both"


def run(args):
    return main(args)


def test_synth_writes_both_tapes(tmp_path, capsys):
    code = run(["synth", "--zones", "AA", "--days", "2", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    da = (tmp_path / "AA_da.csv").read_text().splitlines()
    rt = (tmp_path / "AA_rt.csv").read_text().splitlines()
    assert len(da) == 1 + 48
    assert len(rt) == 1 + 48 * 12
    # each flag sets its manifest field: the CSVs hold the tapes a sweep synthesizes
    wave = ["--low", "-15", "--high", "50", "--period-hours", "12", "--noise", "2", "--seed", "4"]
    out = tmp_path / "wave"
    assert run(["synth", "--zones", "AA", "--days", "2", *wave, "--output-dir", str(out)]) == 0
    manifest = cli.RunManifest(synthetic_days=2.0, synthetic_low=-15.0, synthetic_high=50.0,
                               synthetic_period_hours=12.0, synthetic_noise=2.0, seed=4)
    for tape, suffix in zip(cli._zone_series(manifest, "AA"), ("da", "rt")):
        written = data_io.load_prices(out / f"AA_{suffix}.csv", "AA", tape.resolution)
        assert written.values.tobytes() == tape.values.tobytes()
    twice = tmp_path / "twice"
    assert run(["synth", "--zones", "AA", "AA", "--output-dir", str(twice)]) == EXIT_USAGE
    err = capsys.readouterr().err
    # synth takes no manifest file, so its message names the flag alone
    assert "zones must be non-empty, without repeats (set --zones)" in err
    assert "manifest" not in err
    assert not twice.exists()


def test_simulate_summary_rows(tmp_path):
    code = run(
        [
            "simulate",
            "--zones", "AA", "BB",
            "--durations", "1", "2",
            "--cases", "RT-SB-PF", "RT-PB-PF",
            "--synthetic-days", "2",
            "--grid-points", "301",
            "--seed", "5",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # header + zones x durations x cases
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert len(doc["rows"]) == 8
    reference_rows = [r for r in doc["rows"] if r["case_id"] == "RT-SB-PF"]
    assert all(r["utilization"] == 1.0 for r in reference_rows)
    others = [r for r in doc["rows"] if r["case_id"] != "RT-SB-PF"]
    assert all(r["utilization"] <= 1.0 + 1e-9 for r in others)


def test_sweep_runs_all_six_cases(tmp_path):
    code = run(
        [
            "sweep",
            "--zones", "AA",
            "--durations", "1",
            "--synthetic-days", "2",
            "--grid-points", "301",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 6


def test_determinism_across_runs_and_workers(tmp_path):
    base = [
        "simulate",
        "--zones", "AA", "BB",
        "--durations", "1", "2",
        "--cases", "RT-SB-PF", "RT-SB-DF",
        "--synthetic-days", "2",
        "--grid-points", "301",
        "--seed", "11",
    ]
    outs = []
    for name, workers in (("one", "1"), ("again", "1"), ("two", "2")):
        out = tmp_path / name
        code = run(base + ["--workers", workers, "--output-dir", str(out)])
        assert code == EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
        # JSON embeds the manifest; worker count must not leak into it
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[2] == outs[4]
    assert outs[1] == outs[3] == outs[5]


def test_sweep_jobs_are_submitted_longest_first(tmp_path, monkeypatch):
    received = []
    job = cli._run_zone_duration

    def recorded(args):
        received.append((args[2], args[1]))
        return job(args)

    monkeypatch.setattr(cli, "_run_zone_duration", recorded)
    code = run(
        [
            "simulate",
            "--zones", "AA", "BB",
            "--durations", "2", "1", "4",
            "--cases", "RT-SB-DF",
            "--synthetic-days", "1",
            "--grid-points", "101",
            "--workers", "1",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    assert received == [(4, "AA"), (4, "BB"), (2, "AA"), (2, "BB"), (1, "AA"), (1, "BB")]


def test_sweep_pool_forks_no_more_workers_than_jobs(tmp_path, monkeypatch):
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    code = run(
        [
            "sweep", "--zones", "AA", "--durations", "1", "2", "--synthetic-days", "1",
            "--grid-points", "101", "--workers", "64", "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    assert asked == [2]


def test_value_writes_surface(tmp_path):
    code = run(
        [
            "value",
            "--zones", "AA",
            "--durations", "1",
            "--synthetic-days", "2",
            "--grid-points", "101",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "surface_AA_1h.csv").read_text().splitlines()
    assert len(lines) == 1 + 49 * 101  # header + (T+1) curves x grid points


def test_bids_writes_schedule(tmp_path):
    code = run(
        [
            "bids",
            "--zones", "AA",
            "--durations", "2",
            "--synthetic-days", "1",
            "--bid-model", "soc",
            "--segments-per-hour", "10",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "bids_soc_AA_2h.csv").read_text().splitlines()
    assert len(lines) == 1 + 24 * 20  # header + periods x segments


def test_bids_power_model_includes_duration_curves(tmp_path):
    code = run(
        [
            "bids",
            "--zones", "AA",
            "--durations", "1",
            "--synthetic-days", "1",
            "--bid-model", "power",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    assert (tmp_path / "bids_power_AA_1h.csv").exists()
    duration_lines = (tmp_path / "duration_AA_1h.csv").read_text().splitlines()
    assert len(duration_lines) == 1 + 24
    prices = [float(line.split(",")[2]) for line in duration_lines[1:]]
    assert prices == sorted(prices, reverse=True)


def test_manifest_file_supplies_settings(tmp_path):
    manifest = {
        "zones": ["AA"],
        "durations": [1.0],
        "cases": ["RT-SB-PF"],
        "synthetic_days": 1.0,
        "grid_points": 301,
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    assert run(["simulate", "--manifest", str(path)]) == EXIT_OK
    assert (tmp_path / "summary.csv").exists()


def test_usage_errors(tmp_path):
    # no zones
    assert run(["simulate", "--synthetic-days", "1"]) == EXIT_USAGE
    # unknown case id
    assert (
        run(["simulate", "--zones", "A", "--cases", "BOGUS", "--synthetic-days", "1"])
        == EXIT_USAGE
    )
    # no input source at all
    assert run(["simulate", "--zones", "A"]) == EXIT_USAGE
    # argparse-level unknown flag
    assert run(["simulate", "--bogus-flag"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, manifest, code, message",
    [
        (["sweep", "--synthetic-days", "nan"], {}, EXIT_USAGE, "--synthetic-days"),
        (["sweep", "--synthetic-days", "inf"], {}, EXIT_USAGE, "--synthetic-days"),
        (["sweep", "--synthetic-days", "0"], {}, EXIT_USAGE, "--synthetic-days"),
        (["sweep", "--synthetic-days", "0.01"], {}, EXIT_USAGE, "--synthetic-days"),
        (["synth", "--days", "0.01"], None, EXIT_USAGE, "--days"),
        (["synth", "--days", "nan"], None, EXIT_USAGE, "--days"),
        (["synth", "--days", "inf"], None, EXIT_USAGE, "--days"),
        (["synth", "--days", "-1"], None, EXIT_USAGE, "--days"),
        (["sweep", "--synthetic-days", "1"], {"synthetic_period_hours": 0}, EXIT_DATA,
         "period_hours"),
        (["synth", "--period-hours", "0"], None, EXIT_DATA, "period_hours"),
        (["sweep", "--synthetic-days", "1"], {"synthetic_period_hours": math.inf}, EXIT_DATA,
         "period_hours"),
        (["sweep", "--synthetic-days", "1"], {"synthetic_noise": -1.0}, EXIT_DATA, "noise_std"),
        (["synth", "--noise", "nan"], None, EXIT_DATA, "noise_std"),
        (["sweep", "--synthetic-days", "1", "--seed", "-9999999999"], {}, EXIT_USAGE, "--seed"),
        (["synth", "--seed", "-1"], None, EXIT_USAGE, "--seed"),
        (["sweep", "--synthetic-days", "1", "--grid-points", "-3"], {}, EXIT_USAGE,
         "grid_points must be at least 2 (set --grid-points"),
        (["sweep", "--synthetic-days", "1"], {"grid_points": 1}, EXIT_USAGE,
         "grid_points must be at least 2"),
        (["sweep", "--synthetic-days", "1", "--segments-per-hour", "0"], {}, EXIT_USAGE,
         "segments_per_hour must be at least 1 (set --segments-per-hour"),
        (["sweep", "--synthetic-days", "1"], {"segments_per_hour": -2}, EXIT_USAGE,
         "segments_per_hour must be at least 1"),
        # a run names price CSVs or synthesizes tapes, and is refused before reading a file
        (["sweep", "--synthetic-days", "1", "--da-prices", "da.csv", "--rt-prices", "rt.csv"],
         {}, EXIT_USAGE, BOTH_SOURCES),
        (["sweep", "--synthetic-days", "1", "--rt-prices", "rt.csv"], {"da_prices": "da.csv"},
         EXIT_USAGE, BOTH_SOURCES),
        (["value", "--source", "day_ahead", "--synthetic-days", "1", "--da-prices", "da.csv"],
         {}, EXIT_USAGE, BOTH_SOURCES),
        (["sweep", "--synthetic-days", "1"], {"zonez": ["AA"]}, EXIT_USAGE,
         "unknown manifest keys: zonez"),
    ],
    ids=[
        "sweep-days-nan", "sweep-days-inf", "sweep-days-0", "sweep-days-0.01", "synth-days-0.01",
        "synth-days-nan", "synth-days-inf", "synth-days-negative", "sweep-period-0",
        "synth-period-0", "sweep-period-inf", "sweep-noise-negative", "synth-noise-nan",
        "sweep-seed-negative", "synth-seed-negative", "sweep-grid-points-flag",
        "sweep-grid-points-manifest", "sweep-segments-flag", "sweep-segments-manifest",
        "sweep-csv-flags-and-days", "sweep-csv-manifest-and-days", "value-csv-and-days",
        "manifest-unknown-key",
    ],
)
def test_bad_synthetic_tape_settings_exit_with_a_documented_code(
    tmp_path, capsys, argv, manifest, code, message
):
    if manifest is not None:  # sweep settings without a flag of their own
        path = tmp_path / "run.json"
        path.write_text(json.dumps(manifest))
        argv = [*argv, "--durations", "1", "--manifest", str(path)]
    out = tmp_path / "out"
    assert run([*argv, "--zones", "AA", "--output-dir", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, manifest, field",
    [
        (["--zones", "AA", "AA"], {}, "zones"),
        (["--zones", "AA", "--durations", "1", "1.0"], {}, "durations"),
        (["--zones", "AA"], {"durations": []}, "durations"),
        (["--zones", "AA"], {"cases": []}, "cases"),
        (["--zones", "AA"], {"cases": ["RT-SB-PF", "RT-SB-PF"]}, "cases"),
    ],
    ids=["zones-repeated", "durations-repeated", "durations-empty", "cases-empty",
         "cases-repeated"],
)
def test_empty_or_repeated_run_lists_are_usage_errors(tmp_path, capsys, flags, manifest, field):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"durations": [1], **manifest}))
    out = tmp_path / "out"
    argv = ["simulate", "--manifest", str(path), "--synthetic-days", "1", "--output-dir", str(out)]
    assert run([*argv, *flags]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{field} must be non-empty, without repeats (set --{field} or the manifest" in err
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "manifest"])
@pytest.mark.parametrize("duration", ["0", "-1", "nan", "inf"])
def test_durations_that_are_not_positive_and_finite_are_usage_errors(
    tmp_path, capsys, via, duration
):
    out = tmp_path / "out"
    argv = ["sweep", "--zones", "AA", "--synthetic-days", "1", "--output-dir", str(out)]
    if via == "flag":
        argv += ["--durations", duration]
    else:  # json writes and reads nan and inf as NaN and Infinity
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"durations": [float(duration)]}))
        argv += ["--manifest", str(path)]
    assert run(argv) == EXIT_USAGE
    assert "durations must be positive, finite hours" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_real_time_csv_that_starts_an_hour_late(tmp_path, capsys):
    # two days of each tape, the real-time one cut from an hour later
    assert run(["synth", "--zones", "AA", "--days", "3", "--output-dir", str(tmp_path)]) == EXIT_OK
    da = (tmp_path / "AA_da.csv").read_text().splitlines(keepends=True)
    rt = (tmp_path / "AA_rt.csv").read_text().splitlines(keepends=True)
    (tmp_path / "da.csv").write_text("".join(da[: 1 + 48]))
    (tmp_path / "rt.csv").write_text("".join(rt[:1] + rt[1 + 12 : 1 + 12 + 48 * 12]))
    capsys.readouterr()
    code = run(
        [
            "sweep", "--zones", "AA", "--durations", "1", "--grid-points", "301",
            "--da-prices", str(tmp_path / "da.csv"), "--rt-prices", str(tmp_path / "rt.csv"),
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert "2019-01-01 00:00:00+00:00" in err and "2019-01-01 01:00:00+00:00" in err


def test_missing_price_file_is_data_error(tmp_path):
    code = run(
        [
            "simulate",
            "--zones", "A",
            "--durations", "1",
            "--da-prices", str(tmp_path / "absent.csv"),
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_DATA


def test_a_refused_allocation_is_a_data_error(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 18.2 TiB for an array with shape (25, 100000000000)"

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "backward_induct", refuse)
    argv = ["value", "--zones", "AA", "--durations", "1", "--synthetic-days", "1"]
    assert run(argv + ["--output-dir", str(tmp_path)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


@pytest.mark.parametrize(
    "setting",
    [
        ["--durations", "1e308"],  # 20 segments per hour of an infinite duration
        ["--durations", "1", "--efficiency", "1e-320"],  # an infinite grid
        ["--durations", "1", "--grid-points", "100000000000000000000"],  # past any array
    ],
)
def test_a_setting_too_large_for_any_array_is_a_data_error(tmp_path, capsys, setting):
    argv = ["sweep", "--zones", "AA", "--synthetic-days", "1", *setting]
    assert run(argv + ["--output-dir", str(tmp_path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: number out of range: ")
    assert "Traceback" not in err


def test_dispatch_demo(tmp_path, capsys):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text(SCENARIO)
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "clearing price: 25.00" in out
    assert "G1" in out and "S1" in out


@pytest.mark.parametrize(
    "rows, printed",
    [
        # c = 0: the charge threshold -2.8 sits above the discharge threshold
        # -5.71, but below the 0 $/MWh its supply step enters at
        (
            "generator,G1,100,15\ndemand,,0\nstorage,S1,5,30,0.7,0,20\nsocbid,S1,0,30,-4\n",
            "clearing price: 0.00",
        ),
        (
            "generator,G1,10000,-3\ndemand,,5000\nstorage,S1,5,30,0.7,0,30\nsocbid,S1,0,30,-4\n",
            "clearing price: -3.00",
        ),
        # c = 10: the discharge threshold -12.2 is not crossed, but is below 0
        (
            "generator,G1,10000,-5\ndemand,,5000\nstorage,S1,5,30,0.9,10,30\n"
            "socbid,S1,0,30,-20\n",
            "clearing price: -5.00",
        ),
    ],
    ids=["crossed-at-c0", "negative-price-c0", "negative-price-c10"],
)
def test_dispatch_demo_never_discharges_below_a_price_of_0(tmp_path, capsys, rows, printed):
    scenario = tmp_path / "negative.csv"
    scenario.write_text(rows)
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert printed in out and "S1           discharge=0.000" in out


def test_dispatch_demo_clears_power_and_soc_bid_units_together(tmp_path, capsys):
    scenario = tmp_path / "mixed.csv"
    scenario.write_text(
        "generator,G1,200,20\ndemand,,100\n"
        "storage,S1,10,60,0.9,10,60\npowerbid,S1,25,5\n"
        "storage,S2,10,20,0.9,10,14\nsocbid,S2,0,10,30\nsocbid,S2,10,20,2\n"
    )
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "clearing price: 20.00" in out
    assert "S1           discharge=0.000" in out and "S2           discharge=3.600" in out


def test_dispatch_demo_infeasible(tmp_path):
    scenario = tmp_path / "overload.csv"
    scenario.write_text("generator,G1,100,15\ndemand,,500\n")
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_INFEASIBLE


@pytest.mark.parametrize(
    "scenario",
    ["demand,,0\n", "demand,,0\nstorage,S1,10,60,0.9,10,0\npowerbid,S1,25,5\n"],
    ids=["demand-only", "empty-storage-only"],
)
def test_dispatch_demo_without_supply_steps_is_infeasible(tmp_path, capsys, scenario):
    path = tmp_path / "no_supply.csv"
    path.write_text(scenario)
    assert run(["dispatch-demo", "--scenario", str(path)]) == EXIT_INFEASIBLE
    assert "no supply step sets a price" in capsys.readouterr().err


def test_trace_flag_writes_per_interval_files(tmp_path):
    code = run(
        [
            "simulate",
            "--zones", "AA",
            "--durations", "1",
            "--cases", "RT-SB-PF", "DA-PB-DF",
            "--synthetic-days", "1",
            "--grid-points", "301",
            "--trace",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    rt_trace = (tmp_path / "trace_AA_1h_RT-SB-PF.csv").read_text().splitlines()
    da_trace = (tmp_path / "trace_AA_1h_DA-PB-DF.csv").read_text().splitlines()
    assert len(rt_trace) == 1 + 288  # 5-minute settlement
    assert len(da_trace) == 1 + 24  # hourly settlement


def test_fill_gaps_flag_recovers_gappy_file(tmp_path, capsys):
    lines = ["timestamp,zone,price_usd_per_mwh"]
    lines += [f"2019-01-01T{h:02d}:00:00Z,AA,{20 + h}" for h in range(24) if h != 5]
    (tmp_path / "da.csv").write_text("\n".join(lines) + "\n")
    rt_lines = ["timestamp,zone,price_usd_per_mwh"]
    rt_lines += [
        f"2019-01-01T{m // 60:02d}:{m % 60:02d}:00Z,AA,{20 + m / 60:.3f}"
        for m in range(0, 24 * 60, 5)
    ]
    (tmp_path / "rt.csv").write_text("\n".join(rt_lines) + "\n")
    args = [
        "simulate",
        "--zones", "AA",
        "--durations", "1", "2", "4",
        "--cases", "RT-SB-PF",
        "--grid-points", "301",
        "--da-prices", str(tmp_path / "da.csv"),
        "--rt-prices", str(tmp_path / "rt.csv"),
        "--output-dir", str(tmp_path / "out"),
    ]
    assert run(args) == EXIT_DATA  # gap is a hard error by default
    capsys.readouterr()
    assert run(args + ["--fill-gaps"]) == EXIT_OK
    # the zone's tapes are loaded once for all three durations, so it warns once
    assert capsys.readouterr().err.count("forward-filled 1 day-ahead interval(s)") == 1


def test_dispatch_demo_soc_bids(tmp_path, capsys):
    scenario = tmp_path / "soc.csv"
    scenario.write_text(
        "generator,G1,200,20\n"
        "demand,,100\n"
        "storage,S1,10,20,0.9,10,14\n"
        "socbid,S1,0,10,30\n"
        "socbid,S1,10,20,2\n"
    )
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "clearing price: 20.00" in out


@pytest.mark.parametrize(
    "rows, message",
    [
        # a storage row needs P, E, eta, discharge cost and SoC
        ("storage,S1,10,60,0.9\npowerbid,S1,25,5\n", "row 3: malformed 'storage' row"),
        # [0, 20] then [40, 60] leaves a hole, which must not become [20, 60]
        (
            "storage,S1,10,60,0.9,10,30\nsocbid,S1,0,20,50\nsocbid,S1,40,60,5\n",
            "row 5: socbid rows of S1 do not tile",
        ),
        (
            "storage,S1,10,60,0.9,10,30\nsocbid,S1,0,40,50\nsocbid,S1,20,60,5\n",
            "row 5: socbid rows of S1 do not tile",
        ),
        ("storage,S1,10,60,0.9,10,60\npowerbid,S1,25,5\npowerbid,S2,25,5\n", "no storage row: S2"),
        ("storage,S1,10,20,0.9,10,14\nsocbid,S1,0,20,3\nsocbid,S2,0,10,3\n", "no storage row: S2"),
        # a second row for a name must not overwrite the first
        (
            "storage,S1,10,60,0.9,10,60\nstorage,S1,10,60,0.9,10,0\npowerbid,S1,25,5\n",
            "row 4: second 'storage' row for S1",
        ),
        (
            "storage,S1,10,60,0.9,10,60\npowerbid,S1,25,5\npowerbid,S1,50,5\n",
            "row 5: second 'powerbid' row for S1",
        ),
        ("demand,,50\n", "row 3: second 'demand' row"),
        # the socbid rows must not be silently ignored
        (
            "storage,S1,10,60,0.9,10,60\npowerbid,S1,25,5\nsocbid,S1,0,60,3\n",
            "storage S1 has both powerbid and socbid rows",
        ),
        ("storage,S1,5,30,0.7,0,20\npowerbid,S1,7,16\n", "storage S1 has a crossed bid"),
        ("storage,S1,10,60,0.9,10,60\n", "storage S1 has no bid rows"),
    ],
    ids=[
        "short-storage-row", "hole", "overlap", "orphan-powerbid", "orphan-socbid",
        "second-storage", "second-powerbid", "second-demand", "powerbid-and-socbid",
        "crossed-power-pair", "storage-without-bids",
    ],
)
def test_dispatch_demo_rejects_malformed_storage_rows(tmp_path, capsys, rows, message):
    scenario = tmp_path / "bad.csv"
    scenario.write_text("generator,G1,100,15\ndemand,,105\n" + rows)
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, message",
    [
        ("generator,G1,100,nan\ndemand,,50\n", "offer G1 needs finite cost and capacity > 0"),
        ("generator,G1,nan,15\ndemand,,50\n", "offer G1 needs finite cost and capacity > 0"),
        ("generator,G1,100,15\ndemand,,nan\n", "demand must be non-negative and finite"),
        ("generator,G1,100,15\ndemand,,inf\n", "demand must be non-negative and finite"),
        (
            "generator,G1,100,15\ndemand,,50\nstorge,S1,10,60,0.9,10,60\n",
            "row 3: unknown row kind 'storge'",
        ),
        # a NaN threshold or value beats no price, so the unit would never move
        (
            "generator,G1,100,15\ndemand,,50\nstorage,S1,10,60,0.9,10,30\npowerbid,S1,nan,5\n",
            "power bid thresholds must be finite",
        ),
        (
            "generator,G1,100,15\ndemand,,50\nstorage,S1,10,60,0.9,10,30\npowerbid,S1,25,inf\n",
            "power bid thresholds must be finite",
        ),
        (
            "generator,G1,100,15\ndemand,,50\nstorage,S1,10,60,0.9,10,30\nsocbid,S1,0,60,nan\n",
            "values must be finite",
        ),
        ("generator,G1,100,15\n", "scenario has no demand row"),
    ],
    ids=[
        "nan-cost", "nan-capacity", "nan-demand", "inf-demand", "unknown-kind",
        "nan-powerbid", "inf-powerbid", "nan-socbid", "no-demand",
    ],
)
def test_dispatch_demo_rejects_non_finite_numbers_and_unknown_kinds(
    tmp_path, capsys, scenario, message
):
    path = tmp_path / "bad.csv"
    path.write_text(scenario)
    assert run(["dispatch-demo", "--scenario", str(path)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert message in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize(
    "rows, message",
    [
        ("storage,S1,10,60,1.5,10,60\npowerbid,S1,25,5\n",
         "efficiency_one_way must lie in (0, 1], got 1.5"),
        ("storage,S1,10,60,0.9,10,60.0000001\npowerbid,S1,25,5\n",
         "storage S1 SoC 60.0000001 outside [0.0, 60.0]"),
        ("storage,S1,10,60,0.9,10,30\nsocbid,S1,0,30,5\nsocbid,S1,30,60,9\n",
         "storage S1: values must be non-increasing in SoC; row 0 rises at index 0"),
    ],
    ids=["efficiency-1.5", "soc-past-capacity", "rising-socbid"],
)
def test_dispatch_demo_storage_errors_name_the_fault(tmp_path, capsys, rows, message):
    scenario = tmp_path / "bad.csv"
    scenario.write_text("generator,G1,100,15\ndemand,,105\n" + rows)
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_DATA
    assert f"error: {message}\n" == capsys.readouterr().err


def test_nan_initial_soc_is_rejected_before_valuation(tmp_path, capsys, monkeypatch):
    def no_valuation(*args, **kwargs):
        raise AssertionError("valuation ran")

    monkeypatch.setattr(simulate, "_backward_curves", no_valuation)
    code = run(
        [
            "sweep", "--zones", "AA", "--durations", "1", "--synthetic-days", "1",
            "--initial-soc", "nan", "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_DATA
    assert "initial SoC" in capsys.readouterr().err


def test_manifest_value_of_the_wrong_type_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"zones": ["AA"], "durations": "4", "synthetic_days": 1}))
    assert run(["simulate", "--manifest", str(path)]) == EXIT_USAGE
    assert "durations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b"[]", b"3", b"{bad", b'"x"', b'{"zones": ["\xff"]}'],
    ids=["list", "number", "not-json", "string", "not-utf8"],
)
def test_manifest_that_is_not_a_json_object_is_a_usage_error(tmp_path, capsys, content):
    path = tmp_path / "run.json"
    path.write_bytes(content)
    assert run(["simulate", "--manifest", str(path)]) == EXIT_USAGE
    assert f"manifest {path} is not a JSON object" in capsys.readouterr().err


def test_sweep_runs_all_six_cases_whatever_the_cases_flag_or_manifest_say(tmp_path):
    flags = ["--zones", "AA", "--durations", "1", "--synthetic-days", "1", "--grid-points", "301"]
    assert run(["sweep", *flags, "--cases", "BOGUS", "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert not (tmp_path / "summary.csv").exists()
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({"cases": ["RT-SB-PF"]}))
    code = run(["sweep", *flags, "--manifest", str(manifest), "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize(
    "flags, last_row, message",
    [
        ([], "2019-01-01T02:00:00Z,AA", "row 4: expected 3 columns, got 2"),
        ([], "yesterday,AA,22", "row 4: unparseable timestamp 'yesterday'"),
        (["--zones", "BB"], "2019-01-01T02:00:00Z,AA,22", "no rows for zone 'BB'"),
        (["--source", "real_time"], "2019-01-01T02:00:00Z,AA,22",
         "no real_time prices available for zone AA"),
    ],
    ids=["two-columns", "unparseable-timestamp", "absent-zone", "absent-source"],
)
def test_price_csv_faults_are_data_errors_naming_them(tmp_path, capsys, flags, last_row, message):
    path = tmp_path / "da.csv"
    path.write_text("timestamp,zone,price_usd_per_mwh\n2019-01-01T00:00:00Z,AA,20\n"
                    f"2019-01-01T01:00:00Z,AA,21\n{last_row}\n")
    out = tmp_path / "out"
    argv = ["value", "--zones", "AA", "--durations", "1", "--da-prices", str(path), *flags]
    assert run([*argv, "--output-dir", str(out)]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_price_file_is_a_data_error_naming_it(tmp_path, capsys):
    path = tmp_path / "da.csv"
    path.write_bytes(b"timestamp,zone,price_usd_per_mwh\n2019-01-01T00:00:00,A\xe9,1.0\n")
    code = run(["simulate", "--zones", "A", "--durations", "1", "--da-prices", str(path),
                "--output-dir", str(tmp_path)])
    assert code == EXIT_DATA
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


def test_oversized_price_field_is_a_data_error_naming_it(tmp_path, capsys):
    path = tmp_path / "da.csv"
    price = "0" * 200_000  # over the csv module's 131,072-character field limit
    path.write_text(f"timestamp,zone,price_usd_per_mwh\n2019-01-01T00:00:00,A,{price}\n")
    code = run(["simulate", "--zones", "A", "--durations", "1", "--da-prices", str(path),
                "--output-dir", str(tmp_path)])
    assert code == EXIT_DATA
    assert f"{path} is not a readable CSV" in capsys.readouterr().err


def test_non_utf8_scenario_is_a_data_error_naming_it(tmp_path, capsys):
    path = tmp_path / "scenario.csv"
    path.write_bytes(SCENARIO.encode() + b"# caf\xe9\n")
    assert run(["dispatch-demo", "--scenario", str(path)]) == EXIT_DATA
    assert f"{path} is not UTF-8 text" in capsys.readouterr().err


def test_synthetic_tapes_depend_on_zone_character_order(tmp_path):
    assert run(["synth", "--zones", "AB", "BA", "--days", "1", "--output-dir", str(tmp_path)]) == 0

    def prices(zone):
        lines = (tmp_path / f"{zone}_rt.csv").read_text().splitlines()[1:]
        return [line.split(",")[2] for line in lines]

    assert prices("AB") != prices("BA")


def write_csv_tapes(da_path, rt_path, days=2):
    """Two days of noisy square-wave prices for zone AA, from a fixed seed."""
    rng = np.random.default_rng(20190101)
    da = ["timestamp,zone,price_usd_per_mwh"]
    rt = ["timestamp,zone,price_usd_per_mwh"]
    for h in range(days * 24):
        stamp = f"2019-01-{1 + h // 24:02d}T{h % 24:02d}"
        level = 18.0 if h % 24 < 12 else 52.0
        da.append(f"{stamp}:00:00Z,AA,{level + rng.normal(0.0, 3.0)!r}")
        for m in range(0, 60, 5):
            rt.append(f"{stamp}:{m:02d}:00Z,AA,{level + rng.normal(0.0, 8.0)!r}")
    da_path.write_text("\n".join(da) + "\n")
    rt_path.write_text("\n".join(rt) + "\n")


def test_csv_sweep_summary_is_pinned(tmp_path):
    write_csv_tapes(tmp_path / "da.csv", tmp_path / "rt.csv")
    code = run(
        [
            "sweep",
            "--zones", "AA",
            "--durations", "1", "4",
            "--da-prices", str(tmp_path / "da.csv"),
            "--rt-prices", str(tmp_path / "rt.csv"),
            "--grid-points", "301",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_OK
    digest = hashlib.sha256((tmp_path / "out" / "summary.csv").read_bytes()).hexdigest()
    assert digest == "d32797581b4e2837d15d0797f8796c8dd1129a8b4fac9dc03fe73dddb9720f0e"


def test_negative_price_sweep_summary_is_pinned(tmp_path):
    # Prices down to -15 $/MWh put negative values and crossed segments into
    # the SoC bids, which the positive CSV tapes above never do.
    (tmp_path / "manifest.json").write_text(json.dumps({"synthetic_low": -15}))
    code = run(
        [
            "sweep",
            "--manifest", str(tmp_path / "manifest.json"),
            "--zones", "AA",
            "--durations", "1", "4", "72",
            "--synthetic-days", "7",
            "--seed", "1",
            "--grid-points", "301",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_OK
    digest = hashlib.sha256((tmp_path / "out" / "summary.csv").read_bytes()).hexdigest()
    assert digest == "f0735ff9988b9d1768c24e732dcf100b0386b00484e653f3f912f3da0b1854b3"


def test_sweep_values_each_forecast_tape_once(tmp_path, monkeypatch):
    # Six cases per (zone, duration) value two tapes: day-ahead for the four
    # DF cases and real-time for the two PF cases.
    calls = []
    passes = simulate._backward_curves

    def counted(prediction, *args, **kwargs):
        calls.append(prediction.resolution_hours)
        return passes(prediction, *args, **kwargs)

    monkeypatch.setattr(simulate, "_backward_curves", counted)
    write_csv_tapes(tmp_path / "da.csv", tmp_path / "rt.csv")
    code = run(
        [
            "sweep",
            "--zones", "AA",
            "--durations", "1", "4",
            "--da-prices", str(tmp_path / "da.csv"),
            "--rt-prices", str(tmp_path / "rt.csv"),
            "--grid-points", "301",
            "--output-dir", str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_OK
    assert sorted(calls) == [1 / 12, 1 / 12, 1.0, 1.0]


def test_clean_week_soc_bids_reach_the_monotone_utilization(tmp_path):
    # The noise-free day-ahead tape puts flat runs into the value curves. With
    # every bid row exactly non-increasing, 12 h SoC bids on it earn what power
    # bids earn; while +-1-ulp bumps in the rows stopped the segment walk,
    # DA-SB-DF reached 0.926288.
    code = run(
        [
            "sweep",
            "--zones", "AA",
            "--durations", "12",
            "--synthetic-days", "7",
            "--seed", "1",
            "--output-dir", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    with (tmp_path / "summary.csv").open() as fh:
        rows = {row["case_id"]: row for row in csv.DictReader(fh)}
    assert float(rows["DA-SB-DF"]["utilization"]) == pytest.approx(0.930656, abs=1e-6)
    assert rows["DA-SB-DF"]["total_profit_usd"] == rows["DA-PB-DF"]["total_profit_usd"]


def test_output_dir_flag_beats_manifest_beats_environment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOCBID_OUTPUT_DIR", "from_env")
    settings = {"zones": ["AA"], "durations": [1.0], "cases": ["RT-SB-PF"],
                "synthetic_days": 1.0, "grid_points": 301}
    (tmp_path / "bare.json").write_text(json.dumps(settings))
    (tmp_path / "run.json").write_text(json.dumps({**settings, "output_dir": "from_manifest"}))
    assert run(["simulate", "--manifest", "run.json", "--output-dir", "from_flag"]) == EXIT_OK
    assert run(["simulate", "--manifest", "run.json"]) == EXIT_OK
    assert not (tmp_path / "from_env").exists()
    assert run(["simulate", "--manifest", "bare.json"]) == EXIT_OK
    assert run(["synth", "--zones", "AA", "--days", "1"]) == EXIT_OK
    for where in ("from_flag", "from_manifest", "from_env"):
        assert (tmp_path / where / "summary.csv").exists()
    assert (tmp_path / "from_env" / "AA_da.csv").exists()


@pytest.mark.parametrize("zone", ["a/../../escaped", "..", ".", "", "a\0b"])
def test_zone_names_unfit_for_file_names_are_usage_errors(tmp_path, monkeypatch, capsys, zone):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    sweep = ["sweep", "--zones", zone, "--durations", "1", "--synthetic-days", "1", "--trace"]
    assert run([*sweep, "--output-dir", "out"]) == EXIT_USAGE
    assert run(["synth", "--zones", zone, "--days", "1", "--output-dir", "out"]) == EXIT_USAGE
    assert capsys.readouterr().err.count("zone name") == 2
    assert list(tmp_path.rglob("*")) == [work]


def test_value_and_bids_read_only_the_source_tape(tmp_path, capsys):
    write_csv_tapes(tmp_path / "da.csv", tmp_path / "rt.csv", days=1)
    rt_lines = (tmp_path / "rt.csv").read_text().splitlines()
    (tmp_path / "rt.csv").write_text("\n".join(rt_lines[:4] + rt_lines[5:]) + "\n")
    flags = ["--zones", "AA", "--durations", "1", "--grid-points", "101",
             "--da-prices", str(tmp_path / "da.csv"), "--rt-prices", str(tmp_path / "rt.csv"),
             "--output-dir", str(tmp_path / "out")]
    assert run(["value", "--source", "day_ahead", *flags]) == EXIT_OK
    assert run(["bids", "--source", "day_ahead", *flags]) == EXIT_OK
    assert capsys.readouterr().err == ""
    # the gap is still found when the real-time tape is the one valued
    assert run(["value", "--source", "real_time", *flags]) == EXIT_DATA
    assert "missing interval at 2019-01-01T00:15:00+00:00" in capsys.readouterr().err
