import csv
import hashlib
import json

import numpy as np
import pytest

from socbid import cli, simulate
from socbid.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main

SCENARIO = """\
generator,G1,100,15
generator,G2,100,40
demand,,105
storage,S1,10,60,0.9,10,60
powerbid,S1,25,5
"""


def run(args):
    return main(args)


def test_synth_writes_both_tapes(tmp_path):
    code = run(["synth", "--zones", "AA", "--days", "2", "--output-dir", str(tmp_path)])
    assert code == EXIT_OK
    da = (tmp_path / "AA_da.csv").read_text().splitlines()
    rt = (tmp_path / "AA_rt.csv").read_text().splitlines()
    assert len(da) == 1 + 48
    assert len(rt) == 1 + 48 * 12


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


def test_dispatch_demo(tmp_path, capsys):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text(SCENARIO)
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "clearing price: 25.00" in out
    assert "G1" in out and "S1" in out


def test_dispatch_demo_infeasible(tmp_path):
    scenario = tmp_path / "overload.csv"
    scenario.write_text("generator,G1,100,15\ndemand,,500\n")
    assert run(["dispatch-demo", "--scenario", str(scenario)]) == EXIT_INFEASIBLE


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
    ],
    ids=[
        "short-storage-row", "hole", "overlap", "orphan-powerbid", "orphan-socbid",
        "second-storage", "second-powerbid",
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
    ],
    ids=[
        "nan-cost", "nan-capacity", "nan-demand", "inf-demand", "unknown-kind",
        "nan-powerbid", "inf-powerbid", "nan-socbid",
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
