"""Reports for fixed seeds stay byte-identical (apart from wall time).

The fixtures under `fixtures/golden/` are stripped reports. Filtration
traces hold every sampled flag, map and basis, so they pin the RNG stream
and the result of each exact reduction, over both fields. The sweep reports
pin the verdict counts and the `extra` counters of every sweep command;
crosscheck is pinned over both fields. Three failing reports under planted
faults pin the order, `index` and `problem` of every record of the two
problem sweeps.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from conftest import slope
from fultoncheck import cli, homspace, semistability
from fultoncheck.cohomology import nonvanishing_positions
from fultoncheck.linalg import SamplingError
from fultoncheck.partitions import IndexSet, SchubertProblem
from fultoncheck.reports import strip_volatile, to_json_str
from fultoncheck.semistability import SlopeViolation, total_slope

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

# The last three pin the edge cases of the certificate audits: a quotient of
# dimension zero, whose flags and inverses are 0 x 0, and an injective map.
FILTRATION_PROBLEMS = [
    "1,4@4;2,3@4", "2,4@5;2,4@5;1,3@5;2,5@5", "1,3@4;1,3@4;2,4@4", "1,2@2", "1@1", "3,4@4",
]


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


# Planted faults whose failing reports are pinned record by record: the order,
# `index` and `problem` of every record, padded copies of a failing core
# included.  The fixtures were captured before the two problem sweeps shared
# one body, and are never recaptured to match a new one.


def _plant_crosscheck_faults(patch: pytest.MonkeyPatch) -> None:
    """`generic_hom_dim` raises a solver fault on the core `1@3` and reports
    one dimension too many on every other problem."""
    real = homspace.generic_hom_dim
    target = SchubertProblem.parse("1@3")

    def faulty(problem, *args, **kwargs):
        if problem == target:
            raise SamplingError("planted sampler fault")
        result = real(problem, *args, **kwargs)
        return dataclasses.replace(result, dim=result.dim + 1)

    patch.setattr(homspace, "generic_hom_dim", faulty)


def _plant_positive_clinchers(patch: pytest.MonkeyPatch) -> None:
    """Every nonvanishing position tuple gets clincher value 1."""
    patch.setattr(semistability, "clinchers",
                  lambda problem, d: [1] * len(nonvanishing_positions(d, problem.r, problem.s)))


def _plant_slope_violations(patch: pytest.MonkeyPatch) -> None:
    """`find_violations` reports one violation for every weight table: the
    line at the first position of every flag."""
    def one_violation(weights):
        positions = tuple(IndexSet(weights.r, (1,)) for _ in weights.rows)
        return [SlopeViolation(1, positions, slope(positions, weights), total_slope(weights))]

    patch.setattr(semistability, "find_violations", one_violation)


_PLANTED_RANGE = ["--r-max", "3", "--n-max", "5", "--s-max", "3"]


@pytest.mark.parametrize(
    "name, plant, argv",
    [
        ("crosscheck-r2-n5-s3-seed5-planted-faults", _plant_crosscheck_faults,
         ["crosscheck", "--r-max", "2", "--n-max", "5", "--s-max", "3", "--seed", "5"]),
        ("semistable-r3-n5-s3-positive-clinchers", _plant_positive_clinchers,
         ["semistable", *_PLANTED_RANGE]),
        ("semistable-r3-n5-s3-slope-violations", _plant_slope_violations,
         ["semistable", *_PLANTED_RANGE]),
    ],
)
def test_failing_sweep_report_matches_golden(tmp_path, monkeypatch, name, plant, argv):
    plant(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 1
    got = to_json_str(strip_volatile(json.loads(out.read_text())))
    assert got == (GOLDEN / f"{name}.json").read_text()
