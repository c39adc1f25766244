"""Reports for fixed seeds stay byte-identical (apart from wall time).

The fixtures under `fixtures/golden/` are stripped reports. Filtration
traces hold every sampled flag, map and basis, so they pin the RNG stream
and the result of each exact reduction, over both fields. The sweep reports
pin the verdict counts and the `extra` counters of every sweep command;
crosscheck is pinned over both fields.
"""

import json
from pathlib import Path

import pytest

from fultoncheck import cli
from fultoncheck.reports import strip_volatile, to_json_str

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

FILTRATION_PROBLEMS = ["1,4@4;2,3@4", "2,4@5;2,4@5;1,3@5;2,5@5", "1,3@4;1,3@4;2,4@4"]


def _stripped_report(tmp_path, argv) -> str:
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    assert code == 0
    return to_json_str(strip_volatile(json.loads(out.read_text())))


@pytest.mark.parametrize("field", ["prime", "rational"])
@pytest.mark.parametrize("problem", FILTRATION_PROBLEMS)
def test_filtration_report_matches_golden(tmp_path, problem, field):
    slug = problem.replace(";", "_").replace("@", "at")
    want = (GOLDEN / f"filtration-{slug}-{field}.json").read_text()
    got = _stripped_report(
        tmp_path, ["filtration", "--problem", problem, "--seed", "3", "--field", field]
    )
    assert got == want


def test_crosscheck_report_matches_golden(tmp_path):
    want = (GOLDEN / "crosscheck-r2-n5-s3-seed5.json").read_text()
    got = _stripped_report(
        tmp_path,
        ["crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3", "--seed", "5"],
    )
    assert got == want


def test_crosscheck_rational_report_matches_golden(tmp_path):
    want = (GOLDEN / "crosscheck-r2-n5-s3-seed5-rational.json").read_text()
    got = _stripped_report(
        tmp_path,
        ["crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3", "--seed", "5",
         "--field", "rational"],
    )
    assert got == want


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "semistable-r3-n6-s4-seed5",
            ["semistable", "--r-max", "3", "--n-max", "6", "--s-max", "4", "--seed", "5"],
        ),
        (
            "fulton-r2-size6-n2,3",
            ["fulton", "--r-max", "2", "--size-max", "6", "--n-list", "2,3"],
        ),
        (
            "saturation-r2-size6-n2,3",
            ["saturation", "--r-max", "2", "--size-max", "6", "--n-list", "2,3"],
        ),
    ],
)
def test_sweep_report_matches_golden(tmp_path, name, argv):
    want = (GOLDEN / f"{name}.json").read_text()
    assert _stripped_report(tmp_path, argv) == want
