"""Property test: scheduler invariants over random submit/cancel/tick sequences.

Two facing arms share a workspace, so random goals conflict at admission
and block each other while parked. With the check against parked arms off,
the monitor halts arms that drive into each other instead. Tasks are
chained per group like the harness plans them; a cancel or abort upstream
breaks the chain, so later tasks of that group end as mismatched starts.
Timeouts include values below one tick. Cancels park arms mid-motion, so
every monitor check is also compared with a check of every pair, and every
timeline read of admission and of the monitor's window with the builder it
replaced. The same sequences, driven through a manager told every
trajectory first (`announce`), must log the same lines.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiarm import CheckParams, ExecutionManager, StatusKind

from conftest import facing_pair, monitor_oracle, scene_of, sweep_traj, timeline_oracle

TICK = 0.05
IDLE = {"left": [np.pi / 2 - 1.0, 0.0], "right": [-np.pi / 2, 0.0]}
# goal 0 is the idle posture; half of all parked left/right goal pairs collide
GOALS = {
    "left": [IDLE["left"], [np.pi / 2, 0.0], [np.pi / 2 + 0.5, -0.6], [np.pi / 2 - 0.5, 0.6]],
    "right": [IDLE["right"], [-np.pi / 2 + 1.0, 0.0], [-np.pi / 2 - 0.5, -0.6],
              [-np.pi / 2 + 0.5, 0.6]],
}
TIMEOUTS = [0.02, 0.05, 0.3, 1.0, 3.0, 30.0]

submit = st.tuples(
    st.just("submit"), st.sampled_from(sorted(GOALS)), st.integers(0, 3), st.sampled_from(TIMEOUTS)
)
cancel = st.tuples(st.just("cancel"), st.integers(0, 63))
tick = st.tuples(st.just("tick"), st.integers(1, 30))
# cancels are drawn half as often as submits and ticks: each one also ends
# the rest of its group's chain as mismatched starts
ops = st.lists(st.one_of(submit, submit, tick, tick, cancel), max_size=25)


def check_live_invariants(mgr, handles):
    statuses = [mgr.status(h) for h in handles]
    running = [h.group_id for h, s in zip(handles, statuses) if s.kind is StatusKind.RUNNING]
    assert len(running) == len(set(running))
    assert sorted(running) == sorted(mgr.running_records())
    assert mgr.all_terminal() == all(s.terminal for s in statuses)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.booleans(), ops)
def test_random_submit_cancel_tick_sequences_keep_scheduler_invariants(check_static, sequence):
    models = facing_pair(gap=1.2)
    scene = scene_of(models, [IDLE["left"], IDLE["right"]])
    with monitor_oracle(scene), timeline_oracle():
        drive(scene, check_static, sequence)


def test_a_run_read_an_ulp_short_of_its_stop_is_held_at_its_end():
    """`right` starts a 0.6 s run at 1.2000000000000002 and stops at 1.8. At
    `left`'s admission check at 1.25, row 11 of the grid reads the run at
    0.05 + 0.55 = 0.5999999999999999 s, an ulp short of its duration, at an
    instant past its stop. Both the timeline and `timeline_oracle` must read
    the run's end there."""
    scene = scene_of(facing_pair(gap=1.2), [IDLE["left"], IDLE["right"]])
    with monitor_oracle(scene), timeline_oracle() as counts:
        drive(scene, True, [("tick", 23), ("submit", "left", 1, 0.3), ("submit", "right", 2, 0.3)])
    assert counts["admission"] > 0


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.booleans(), ops)
def test_announcing_the_sequence_changes_no_line(check_static, sequence):
    """Two managers driven alike, one told every trajectory of the sequence
    before it starts, log the same lines after every operation."""
    scene = scene_of(facing_pair(gap=1.2), [IDLE["left"], IDLE["right"]])
    plan = planned(scene, sequence)
    told, untold = manager(scene, check_static), manager(scene, check_static)
    told.announce([op[1] for op in plan if op[0] == "submit"])
    handles = []
    for op in plan:
        if op[0] == "submit":
            handles.append(told.submit(*op[1:]))
            assert untold.submit(*op[1:]) == handles[-1]
        elif op[0] == "cancel" and handles:
            told.cancel(handles[op[1] % len(handles)])
            untold.cancel(handles[op[1] % len(handles)])
        for _ in range(op[1] if op[0] == "tick" else 0):
            told.tick()
            untold.tick()
        assert told.event_lines() == untold.event_lines()
    for _ in range(20_000):
        if told.all_terminal():
            break
        told.tick()
        untold.tick()
    assert told.all_terminal() and untold.all_terminal()
    assert told.event_lines() == untold.event_lines()


def manager(scene, check_static):
    return ExecutionManager(
        scene,
        params=CheckParams(dt=TICK, margin=0.02),
        tick_length=TICK,
        monitor_period=2,
        check_static=check_static,
    )


def planned(scene, sequence):
    """The sequence with each submit's trajectory planned, ids p0, p1, ...:
    each task of an arm starts at its last goal, as the harness chains them."""
    cursor, plan, n = dict(IDLE), [], 0
    for op in sequence:
        if op[0] == "submit":
            _, g, goal, timeout = op
            plan.append(("submit", sweep_traj(scene.robots[g], cursor[g], GOALS[g][goal], f"p{n}"), timeout))
            cursor[g], n = GOALS[g][goal], n + 1
        else:
            plan.append(op)
    return plan


def drive(scene, check_static, sequence):
    """Run one generated sequence, checking the scheduler invariants as it goes."""
    mgr = manager(scene, check_static)
    handles, deadlines, budget = [], {}, 1.0
    for op in planned(scene, sequence):
        if op[0] == "submit":
            _, traj, timeout = op
            handles.append(mgr.submit(traj, timeout))
            deadlines[traj.id] = mgr.clock + timeout
            budget += traj.duration + timeout
        elif op[0] == "cancel":
            if handles:
                mgr.cancel(handles[op[1] % len(handles)])
        else:
            for _ in range(op[1]):
                mgr.tick()
                check_live_invariants(mgr, handles)
        check_live_invariants(mgr, handles)

    max_tick = mgr.tick_index + int(budget / TICK) + 10
    while not mgr.all_terminal():
        assert mgr.tick_index < max_tick, "handles not terminal within the tick budget"
        mgr.tick()
        check_live_invariants(mgr, handles)
    assert all(mgr.status(h).terminal for h in handles)

    admitted = {g: [] for g in scene.robots}
    for e in mgr.events:
        if e.kind == "ADMITTED":
            assert e.clock + 1e-9 < deadlines[e.trajectory_id]
            k = int(e.trajectory_id[1:])
            admitted[handles[k].group_id].append(k)
    for order in admitted.values():
        assert order == sorted(order)
