"""Golden-file tests pinning what the CLI prints.

The byte-exact files are CLI stdout with each ``elapsed_ms`` value masked
to 0; any change to a report, a case count, a witness or a rendering shows
up as a diff here.
"""

import json
import re
from pathlib import Path

import pytest

import checker_traps
import g_side
import orbit
from trunclog.cli import main

GOLDEN = Path(__file__).parent / "golden"

_ELAPSED = re.compile(r'("elapsed_ms": |elapsed_ms=)\d+')


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_show_glog_p3_matches_golden(capsys):
    got = run_json(capsys, "show", "glog", "--prime", "3", "--format", "json")
    want = json.loads((GOLDEN / "show_glog_p3.json").read_text())
    assert got == want


def test_verify_symmetry_p3_matches_golden(capsys):
    got = run_json(
        capsys, "verify", "--prime", "3", "--theorem", "Symmetry", "--format", "json"
    )
    got["elapsed_ms"] = 0
    want = json.loads((GOLDEN / "verify_symmetry_p3.json").read_text())
    assert got == want


@pytest.mark.parametrize(
    "name, argv",
    [
        ("verify_p3-13.json", ["verify", "--prime", "3..13", "--format", "json"]),
        ("verify_p3-13.txt", ["verify", "--prime", "3..13"]),
        (
            "verify_ccoefficients_p17-23.json",
            ["verify", "--prime", "17..23", "--theorem", "CCoefficients", "--format", "json"],
        ),
        ("show_all_p7.txt", ["show", "all", "--prime", "7"]),
        ("show_all_p7.json", ["show", "all", "--prime", "7", "--format", "json"]),
        ("show_polylog_p7_dlog2.txt", ["show", "polylog", "--prime", "7", "--dlog", "2"]),
        ("table_b_roots_p11.csv", ["table", "b-roots", "--prime", "11"]),
    ],
)
def test_stdout_matches_golden_bytes(capsys, name, argv):
    code = main(argv)
    out = _ELAPSED.sub(r"\g<1>0", capsys.readouterr().out)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_g_side_trap_reports_match_golden_bytes():
    # the JSON reports of LeftInverse, RightInverse, PowerFormula and
    # Reciprocal under each mutation of tests/g_side.py, elapsed_ms masked
    assert g_side.golden_text() == (GOLDEN / "g_side_traps_p5-7.json").read_text()


def test_orbit_trap_reports_match_golden_bytes():
    # the JSON reports of TruncBinomialRules, JacobiLink and JacobiShift
    # under each mutation of tests/orbit.py, elapsed_ms masked
    assert orbit.golden_text() == (GOLDEN / "orbit_traps_p5-7.json").read_text()


def test_checker_trap_reports_match_golden_bytes():
    # the JSON reports of the multi-case checkers under each mutation of
    # tests/checker_traps.py at p = 7, elapsed_ms masked
    text = (GOLDEN / "checker_traps_p7.json").read_text()
    assert checker_traps.golden_text() == text
    # every multi-case checker fails after its first case under some mutation
    late = {
        r["theorem"]
        for entry in json.loads(text)
        for r in entry["reports"]
        if r["status"] == "fail" and r["cases"] >= 2
    }
    assert late == set(checker_traps.MULTI_CASE)
