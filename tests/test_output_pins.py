"""Byte pins on what ``socbid bids`` writes and what ``dispatch-demo`` prints.

The digests and texts were recorded from the commands below; a change that
moves one byte of these outputs must show here.
"""

import hashlib

import pytest

from socbid.cli import EXIT_OK, main

BIDS = ["bids", "--zones", "AA", "--durations", "2", "--synthetic-days", "2", "--seed", "1"]


@pytest.mark.parametrize(
    "model, digests",
    [
        (
            "power",
            {
                "bids_power_AA_2h.csv":
                    "4743593a242bb10f0acbaea714bad9cc7a6476d0119630124d2d6595a4e6a20d",
                "duration_AA_2h.csv":
                    "373d53efdbef05af478d7c9c584fa7690a596718ecfdf667df8b0b2989e17999",
            },
        ),
        (
            "soc",
            {
                "bids_soc_AA_2h.csv":
                    "117d3c4743521a0f108bc76be2a65c5b48db52e6f5daf2a6f11eb287cc332a0f",
            },
        ),
    ],
)
def test_bid_files_are_pinned(tmp_path, model, digests):
    assert main(BIDS + ["--bid-model", model, "--output-dir", str(tmp_path)]) == EXIT_OK
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


SCENARIOS = {
    "scenario": (
        "# name, capacity MW, cost $/MWh (repeat rows for segments)\n"
        "generator,G1,100,15\ngenerator,G2,100,40\ndemand,,105\n"
        "# name, P, E, eta, discharge cost, current SoC\n"
        "storage,S1,10,60,0.9,10,60\n"
        "# or socbid,S1,<lo>,<hi>,<value> rows, one per segment\n"
        "powerbid,S1,25,5\n",
        "clearing price: 25.00 $/MWh\n"
        "  generator G1              100.000 MW\n"
        "  generator G2                0.000 MW\n"
        "  storage   S1           discharge=5.000 MW charge=0.000 MW soc_after=54.444 MWh\n"
        "  balance: supply 105.000 MW = demand 105.000 MW + charging 0.000 MW\n",
    ),
    "soc_scenario": (
        "generator,G1,200,20\ndemand,,100\n"
        "storage,S1,10,20,0.9,10,14\nsocbid,S1,0,10,30\nsocbid,S1,10,20,2\n",
        "clearing price: 20.00 $/MWh\n"
        "  generator G1               96.400 MW\n"
        "  storage   S1           discharge=3.600 MW charge=0.000 MW soc_after=10.000 MWh\n"
        "  balance: supply 100.000 MW = demand 100.000 MW + charging 0.000 MW\n",
    ),
    "mixed_scenario": (
        "generator,G1,200,20\ndemand,,100\n"
        "storage,S1,10,60,0.9,10,60\npowerbid,S1,25,5\n"
        "storage,S2,10,20,0.9,10,14\nsocbid,S2,0,10,30\nsocbid,S2,10,20,2\n",
        "clearing price: 20.00 $/MWh\n"
        "  generator G1               96.400 MW\n"
        "  storage   S1           discharge=0.000 MW charge=0.000 MW soc_after=60.000 MWh\n"
        "  storage   S2           discharge=3.600 MW charge=0.000 MW soc_after=10.000 MWh\n"
        "  balance: supply 100.000 MW = demand 100.000 MW + charging 0.000 MW\n",
    ),
    "negative_scenario": (
        "generator,G1,10000,-5\ndemand,,5000\n"
        "storage,S1,5,30,0.9,10,30\nsocbid,S1,0,30,-20\n",
        "clearing price: -5.00 $/MWh\n"
        "  generator G1             5000.000 MW\n"
        "  storage   S1           discharge=0.000 MW charge=0.000 MW soc_after=30.000 MWh\n"
        "  balance: supply 5000.000 MW = demand 5000.000 MW + charging 0.000 MW\n",
    ),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_dispatch_demo_output_is_pinned(tmp_path, capsys, name):
    rows, printed = SCENARIOS[name]
    path = tmp_path / f"{name}.csv"
    path.write_text(rows)
    assert main(["dispatch-demo", "--scenario", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == printed
