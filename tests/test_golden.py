"""Pinned event logs of the shipped fixtures, of one 16-arm ring and of one batch.

The fixture digests were recorded before the collision checks moved onto the
flat clearance kernel, the ring's before every check placed its scene through
`Layout.place`, the batch's before the reach-sphere cull and the requeue
sweep that runs only after a change. Every fixture is a two-arm cell; the
ring (`data/ring16_901.json`, 16 planar arms, 80 tasks) is the one log with
admissions checked against several running arms and against several parked
arms at once. The batch (`data/batch_small.json`, the `disjoint` arms with 20
tasks each at t=0, each moving joint 0 by 0.5 rad) backlogs and requeues every
task behind its group's chain head, 380 times in all. No shipped log halts,
so the ring is also run with the check against parked arms off, at monitor
periods 1 and 5: arms then drive into parked neighbours and the monitor
halts them, 16 times in 184 lines each; these digests were recorded before
the monitor skipped pairs that cannot have come within the margin. Any
change that moves a verdict, a witness, a printed clearance or a check count
changes a digest; such a change must be a documented behaviour change, with
the digests re-recorded.

Each run's `replay_min_clearance` is pinned too, exactly: the values were
recorded before the audit read its motions through `collision.Timeline`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from multiarm import fixture_path, load_scenario, replay_min_clearance, run
from multiarm.executor import Event
from multiarm.harness import scenario_from_dict

from conftest import PINNED_RUNS, announcing, pinned_scenario

DIGESTS = {
    ("disjoint.json", "async"): "9656a6cd909545bde0935daa4ab139104f43e3d5adde33c11872b6df2b279e13",
    ("disjoint.json", "sync"): "0f2c54c6b35e0e766f37572d12a45e0246afc418350d85ca3d0faa034ed58da0",
    ("crossing.json", "async"): "0e87ed3fbca8e5c5a2f32ead33b03d9827c1d7de4ac1e63b3618f5e9e710ce3d",
    ("crossing.json", "sync"): "a96945e55819d6fe3c1435f4d244504b26c36f43dff920ad19d521d75cd63e18",
    ("timeout.json", "async"): "47b29c2945e2bafb035d56191690341d54ee8d8eb1bd9ff54e5bb2f6fa72ec75",
    ("timeout.json", "sync"): "3e465dfbdffd33a69c3e98ee2ae745cbe71881648c1ecb23f2fa32d56bcfa554",
    ("panda_like_shared.json", "async"): "1b897b5e73511ddf8492ff2e9ed1d4fa57a75c3d2f8d651091a9dee98f34867e",
    ("panda_like_shared.json", "sync"): "20fe7f416d424f8d38c5e8944a29a7c5d82ac1293fcc389437d1300d53e4b336",
}

RING16_901 = "c444fe98459147437a505c3ecaf9bd00ad8dd716108ffea30ff3713cce449b82"
BATCH_SMALL = "d620ccaad308e7c1f2dd85b5e5749257737960585cb03236f1c1a1c23fe6d257"
# the ring with check_static false, by monitor period
RING16_901_HALTING = {
    1: "646e83073b1e3bfe119d8c14b9877804869990c75a8f032443384cfda62be93f",
    5: "fae932818b77a49510c4f9e628afac91972b9983f3d24f79b59e172627be8cf0",
}

# replay_min_clearance of each of PINNED_RUNS
REPLAY = {
    ("disjoint.json", "async", None): 7.9,
    ("disjoint.json", "sync", None): 7.9,
    ("crossing.json", "async", None): 0.162206497953232,
    ("crossing.json", "sync", None): 0.162206497953232,
    ("timeout.json", "async", None): 0.3207354924039482,
    ("timeout.json", "sync", None): 0.3207354924039482,
    ("panda_like_shared.json", "async", None): 0.19042568379450792,
    ("panda_like_shared.json", "sync", None): 0.1904336766501195,
    ("ring16_901.json", "async", None): 0.06785707339149935,
    ("batch_small.json", "async", None): 7.9,
    ("ring16_901.json", "async", 1): 0.0490926578701412,
    ("ring16_901.json", "async", 5): 0.030176763014563464,
}

DATA = Path(__file__).parent / "data"


def digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def log_digest(path, mode):
    return digest(run(load_scenario(path), mode).lines)


@pytest.mark.parametrize("name, mode", sorted(DIGESTS))
def test_fixture_event_log_matches_pinned_digest(name, mode):
    assert log_digest(fixture_path(name), mode) == DIGESTS[(name, mode)]


def test_ring16_event_log_matches_pinned_digest():
    assert log_digest(DATA / "ring16_901.json", "async") == RING16_901


def test_batch_event_log_matches_pinned_digest():
    assert log_digest(DATA / "batch_small.json", "async") == BATCH_SMALL


@pytest.mark.parametrize("period", sorted(RING16_901_HALTING))
def test_halting_ring16_event_log_matches_pinned_digest(period):
    data = json.loads((DATA / "ring16_901.json").read_text())
    data["params"].update(check_static=False, monitor_period=period)
    lines = run(scenario_from_dict(data), "async").lines
    assert sum(Event.parse(line).kind == "COLLISION_HALT" for line in lines) == 16
    assert digest(lines) == RING16_901_HALTING[period]


@pytest.mark.parametrize("name, mode, period", PINNED_RUNS)
def test_replay_audit_matches_pinned_value(name, mode, period):
    scenario = pinned_scenario(name, period)
    assert replay_min_clearance(scenario, run(scenario, mode)) == REPLAY[(name, mode, period)]


def pinned_digest(name, mode, period):
    if name == "ring16_901.json":
        return RING16_901 if period is None else RING16_901_HALTING[period]
    return BATCH_SMALL if name == "batch_small.json" else DIGESTS[(name, mode)]


@pytest.mark.parametrize("announce", [False, True])
@pytest.mark.parametrize("name, mode, period", PINNED_RUNS)
def test_announcing_the_plan_or_not_changes_no_line(name, mode, period, announce):
    """`run` announces its plan when the run checks parked arms: the log is
    the same with the plan never announced, and with it always announced."""
    with announcing(announce):
        lines = run(pinned_scenario(name, period), mode).lines
    assert digest(lines) == pinned_digest(name, mode, period)
