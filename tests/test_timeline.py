"""The one rule every check reads arm motion by: `collision.Timeline.at`.

Admission reads the running and parked arms at `now` plus its grid, the
monitor's window reads every arm at its check instants, and the replay audit
reads the executed motion rebuilt from the log. Each read is compared with
the builder it replaced (`oracles.sweep_reads`, `oracles.monitor_window`,
`oracles.replay_motions`) over every pinned run; the scheduler property test
compares the first two over its random sequences too.
"""

from unittest import mock

import numpy as np
import pytest

from multiarm import JointState, RunningRecord, Timeline, replay_min_clearance, run
from multiarm.executor import Event

from conftest import (
    PINNED_RUNS,
    monitor_oracle,
    pinned_scenario,
    planar_arm,
    same_bits,
    sweep_traj,
    timeline_oracle,
)
from oracles import replay_motions, state_at

# the most the replay's read of a completed run can move (2.2e-16 rad): the
# old builder read it at its logged stop - start, a difference of clocks
# printed to 6 decimals, which can fall an ulp below its duration
REPLAY_ULP = np.finfo(float).eps


def test_at_reads_held_posture_then_runs_then_their_stops():
    arm = planar_arm("arm")
    first = sweep_traj(arm, [0.0, 0.0], [1.0, 0.5], "first")
    second = sweep_traj(arm, [0.4, 0.2], [-1.0, 0.0], "second")
    timeline = Timeline({"arm": JointState("arm", [0.0, 0.0]), "idle": JointState("idle", [0.3, 0.3])})
    timeline.runs["arm"] += [RunningRecord(first, 1.0, stop=1.5, elapsed=0.4),  # halted at 1.5
                             RunningRecord(second, 2.0)]
    times = np.array([0.0, 0.5, 1.0, 1.25, 1.5, 1.9, 2.0, 2.5, 9.0])
    q = timeline.at(["arm", "idle"], times)
    want = [[0.0, 0.0], [0.0, 0.0], state_at(first, 0.0).positions, state_at(first, 0.25).positions]
    want += [state_at(first, 0.4).positions] * 2
    want += [state_at(second, t).positions for t in (0.0, 0.5, 7.0)]
    assert same_bits(q["arm"], np.array(want))
    assert q["idle"].shape == (1, 2) and same_bits(q["idle"], [0.3, 0.3])
    # held from the first instant on: one row, at the stop's elapsed time
    held = timeline.at(["arm"], [0.0, 0.1], since=1.6)["arm"]
    assert held.shape == (1, 2) and same_bits(held, state_at(first, 0.4).positions)
    # `since` shifts the instants, and a run is read (since - start) + times in
    moving = timeline.at(["arm"], [0.0, 0.25], since=2.25)["arm"]
    assert same_bits(moving, [state_at(second, 0.25).positions, state_at(second, 0.5).positions])


def replay_reads(scenario, result):
    """The sample times, and every arm's rows, that replay_min_clearance reads."""
    calls = []
    at = Timeline.at

    def spy(self, groups, times, since=0.0):
        q = at(self, groups, times, since)
        calls.append((times, q))
        return q

    with mock.patch.object(Timeline, "at", spy):
        replay_min_clearance(scenario, result)
    ts = np.concatenate([t for t, _ in calls])
    rows = {g: np.concatenate([np.broadcast_to(q[g], (len(t), q[g].shape[1])) for t, q in calls])
            for g in calls[0][1]}
    return ts, rows


def completed_early(scenario, result, ts):
    """By group, the samples at which the old builder read a completed run at
    its logged stop - start below its duration, until the arm's next run."""
    starts, stops = {}, {}
    for e in map(Event.parse, result.lines):
        if e.kind == "ADMITTED":
            starts[e.trajectory_id] = e.clock
        elif e.kind == "COMPLETED":
            stops[e.trajectory_id] = e.clock
    early = {g: np.zeros(len(ts), dtype=bool) for g in scenario.scene.robots}
    for g in early:
        runs = [t for t in starts if result.trajectories[t].group_id == g]
        for tid, after in zip(runs, [starts[t] for t in runs[1:]] + [np.inf]):
            if tid in stops and stops[tid] - starts[tid] < result.trajectories[tid].duration:
                early[g] |= (ts >= stops[tid]) & (ts < after)
    return early


@pytest.mark.parametrize("name, mode, period", PINNED_RUNS)
def test_timeline_reads_match_the_builders_they_replaced(name, mode, period):
    scenario = pinned_scenario(name, period)
    with monitor_oracle(scenario.scene) as checks, timeline_oracle() as counts:
        result = run(scenario, mode)
    # a monitor whose box table retired every due pair has no window to read
    assert counts["admission"] > 0
    assert counts["window"] > 0 or checks["skipped"] + checks["retired"] == checks["checks"]
    ts, got = replay_reads(scenario, result)
    want_ts, want = replay_motions(scenario, result)
    assert same_bits(ts, want_ts)
    early = completed_early(scenario, result, ts)
    moved = 0
    for g, rows in got.items():
        differ = (rows.view(np.uint64) != want[g].view(np.uint64)).any(axis=1)
        assert not np.any(differ & ~early[g]), g
        assert np.abs(rows - want[g]).max() <= REPLAY_ULP
        moved += int(differ.sum())
    print(f"{name} {mode} {period}: {sum(counts.values())} admission and window arm reads "
          f"bit-identical ({counts}), {moved} of {len(ts) * len(got)} replay rows moved")
