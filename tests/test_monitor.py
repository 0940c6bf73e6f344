"""The executor's monitor against the stateless full check, at every check.

The monitor re-measures only the pairs whose safe-until time has come; a
check of every pair must give the same verdict, and when colliding the same
witness and minimum, at every monitor tick of every run here, including runs
that halt with arms parked in contact.
"""

import json
from pathlib import Path

import pytest

from multiarm import fixture_path, run
from multiarm.harness import FIXTURES, scenario_from_dict

from conftest import monitor_oracle

DATA = Path(__file__).parent / "data"


def run_checked(data, mode, **params):
    data["params"] = {**data.get("params", {}), **params}
    scenario = scenario_from_dict(data)
    with monitor_oracle(scenario.scene) as counts:
        result = run(scenario, mode)
    assert counts["checks"] > 0
    return counts, result


@pytest.mark.parametrize("period", [1, 5])
@pytest.mark.parametrize("check_static", [True, False])
@pytest.mark.parametrize("mode", ["async", "sync"])
@pytest.mark.parametrize("name", FIXTURES)
def test_monitor_matches_the_full_check_on_the_fixtures(name, mode, check_static, period):
    data = json.loads(fixture_path(name).read_text())
    run_checked(data, mode, check_static=check_static, monitor_period=period)


@pytest.mark.parametrize("check_static", [True, False])
def test_monitor_matches_the_full_check_on_the_ring(check_static):
    data = json.loads((DATA / "ring16_901.json").read_text())
    counts, result = run_checked(data, "async", check_static=check_static)
    # every colliding check halts every running arm on its tick
    assert counts["colliding"] == result.metrics.collision_halts == (0 if check_static else 4)


def test_monitor_skips_checks_on_the_fixtures():
    """Far-apart arms sleep: on the crossing cell most checks measure nothing."""
    data = json.loads(fixture_path("crossing.json").read_text())
    counts, _ = run_checked(data, "async")
    assert 0 < counts["skipped"] < counts["checks"]
