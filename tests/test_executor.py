import re

import numpy as np
import pytest

from multiarm import (
    CheckParams,
    ExecutionManager,
    JointState,
    JointTrajectory,
    StatusKind,
    UnknownGroup,
    UnknownHandle,
    ValidationFailed,
    fixture_path,
    load_scenario,
)
from multiarm.executor import EVENT_KINDS, Event

from conftest import facing_pair, planar_arm, scene_of, sweep_traj
from oracles import state_at


def manager(scene, **kwargs):
    kwargs.setdefault("params", CheckParams(dt=0.05, margin=0.02))
    return ExecutionManager(scene, **kwargs)


def disjoint_setup():
    left = planar_arm("left", (0, 0, 0), lengths=(1.0, 1.0))
    right = planar_arm("right", (10, 0, 0), lengths=(1.0, 1.0))
    scene = scene_of([left, right], [[0, 0], [0, 0]])
    return left, right, scene


def crossing_setup():
    left, right = facing_pair(gap=1.5)
    ql0 = [np.pi / 2 - 1.0, 0.0]
    qr0 = [-np.pi / 2 + 1.0, 0.0]
    scene = scene_of([left, right], [ql0, qr0])
    tl = sweep_traj(left, ql0, [np.pi / 2 + 1.0, 0.0], "tl")
    tr = sweep_traj(right, qr0, [-np.pi / 2 - 1.0, 0.0], "tr")
    return left, right, scene, tl, tr


def tick_until(mgr, pred, limit=5000):
    for _ in range(limit):
        mgr.tick()
        if pred():
            return
    raise AssertionError("condition not reached within tick limit")


def test_empty_system_runs_next_tick():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    h = mgr.submit(sweep_traj(left, [0, 0], [1, 0], "t"), timeout=10.0)
    assert mgr.status(h).kind is StatusKind.PENDING
    mgr.tick()
    st = mgr.status(h)
    assert st.kind is StatusKind.RUNNING
    assert st.start_time == pytest.approx(0.01)


def test_busy_group_backlogs_with_own_trajectory_as_blocker():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    h1 = mgr.submit(sweep_traj(left, [0, 0], [1, 0], "first"), timeout=10.0)
    mgr.tick()
    h2 = mgr.submit(sweep_traj(left, [1, 0], [2, 0], "second"), timeout=10.0)
    mgr.tick()
    st = mgr.status(h2)
    assert st.kind is StatusKind.BACKLOGGED
    assert st.blockers == frozenset({"first"})


def test_colliding_candidate_backlogged_with_blocker():
    left, right, scene, tl, tr = crossing_setup()
    mgr = manager(scene)
    mgr.submit(tl, timeout=30.0)
    h = mgr.submit(tr, timeout=30.0)
    mgr.tick()
    st = mgr.status(h)
    assert st.kind is StatusKind.BACKLOGGED
    assert st.blockers == frozenset({"tl"})


def test_disjoint_pair_runs_in_parallel():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    h1 = mgr.submit(sweep_traj(left, [0, 0], [2, 0], "a"), timeout=30.0)  # 2 s
    h2 = mgr.submit(sweep_traj(right, [0, 0], [3, 0], "b"), timeout=30.0)  # 3 s
    mgr.tick()
    assert mgr.status(h1).kind is StatusKind.RUNNING
    assert mgr.status(h2).kind is StatusKind.RUNNING
    tick_until(mgr, lambda: mgr.all_terminal())
    assert mgr.status(h1).kind is StatusKind.SUCCEEDED
    assert abs(mgr.status(h2).finish - 3.0) <= 0.02


def test_backlogged_starts_within_a_tick_of_blocker_completion():
    left, right, scene, tl, tr = crossing_setup()
    mgr = manager(scene)
    h1 = mgr.submit(tl, timeout=30.0)
    h2 = mgr.submit(tr, timeout=30.0)
    tick_until(mgr, lambda: mgr.all_terminal())
    finish_1 = mgr.status(h1).finish
    start_2 = mgr.status(h2).start_time
    assert 0.0 <= start_2 - finish_1 <= 0.01 + 1e-9
    assert abs(mgr.status(h2).finish - (tl.duration + tr.duration)) <= 0.03


def blocked_corridor_setup():
    """Slow left arm holds the shared corridor for 10 s from the first tick."""
    left, right = facing_pair(gap=1.5)
    slow = planar_arm("left", (0.0, -0.75, 0.0), vlim=0.2)
    qr0 = [-np.pi / 2 + 1.0, 0.0]
    scene = scene_of([slow, right], [[np.pi / 2, 0.0], qr0])
    tl_slow = sweep_traj(slow, [np.pi / 2, 0.0], [np.pi / 2 + 2.0, 0.0], "tl")  # 10 s
    tr = sweep_traj(right, qr0, [-np.pi / 2 - 1.0, 0.0], "tr")
    return scene, tl_slow, tr


def test_timeout_abort_at_deadline():
    scene, tl_slow, tr = blocked_corridor_setup()
    mgr = manager(scene)
    mgr.submit(tl_slow, timeout=30.0)
    h = mgr.submit(tr, timeout=2.0)
    tick_until(mgr, lambda: mgr.status(h).terminal)
    st = mgr.status(h)
    assert st.kind is StatusKind.ABORTED_TIMEOUT
    assert abs(st.at - 2.0) <= 0.01 + 1e-9


def test_no_admission_at_or_past_deadline_when_blocker_completes_on_that_tick():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    mgr.submit(sweep_traj(left, [0, 0], [2, 0], "first"), timeout=30.0)  # 2 s from 0.01
    h = mgr.submit(sweep_traj(left, [2, 0], [3, 0], "second"), timeout=2.009999)
    tick_until(mgr, lambda: mgr.status(h).terminal)
    st = mgr.status(h)
    assert st.kind is StatusKind.ABORTED_TIMEOUT
    assert st.at == pytest.approx(2.01)
    assert not any(e.kind in ("REQUEUED", "ADMITTED") and e.trajectory_id == "second" for e in mgr.events)


def test_timeout_shorter_than_a_tick_aborts_before_admission():
    left, right, scene = disjoint_setup()
    mgr = manager(scene, tick_length=0.05)
    h = mgr.submit(sweep_traj(left, [0, 0], [1, 0], "t"), timeout=0.02)
    mgr.tick()
    st = mgr.status(h)
    assert st.kind is StatusKind.ABORTED_TIMEOUT
    assert st.at == pytest.approx(0.05)
    assert [e.kind for e in mgr.events] == ["SUBMITTED", "TIMEOUT_ABORT"]
    assert mgr.all_terminal()


def test_cancel_backlogged_and_terminal():
    left, right, scene, tl, tr = crossing_setup()
    mgr = manager(scene)
    h1 = mgr.submit(tl, timeout=30.0)
    h2 = mgr.submit(tr, timeout=30.0)
    mgr.tick()
    assert mgr.cancel(h2).kind is StatusKind.CANCELLED
    tick_until(mgr, lambda: mgr.all_terminal())
    assert mgr.status(h1).kind is StatusKind.SUCCEEDED
    # cancelling a terminal handle is a no-op
    assert mgr.cancel(h1).kind is StatusKind.SUCCEEDED


def test_cancel_running_freezes_at_interpolated_state():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    traj = sweep_traj(left, [0, 0], [2, 0], "t")
    h = mgr.submit(traj, timeout=30.0)
    for _ in range(100):
        mgr.tick()
    st = mgr.status(h)
    assert st.kind is StatusKind.RUNNING
    mgr.cancel(h)
    frozen = mgr.current_states()["left"]
    expected = state_at(traj, mgr.clock - st.start_time)
    assert np.allclose(frozen.positions, expected.positions, atol=1e-12)


@pytest.mark.parametrize("bad", ["nan_position", "nan_final_time", "inf_final_time"])
def test_submit_refuses_non_finite_trajectories(bad):
    # each used to be accepted, and the next tick raised partway through its
    # steps, with the entry in neither the queue nor the backlog: placement on
    # the NaN position, the completion tick on the NaN or infinite final time
    scenario = load_scenario(fixture_path("crossing.json"))
    mgr = manager(scenario.scene)
    q0 = scenario.scene.idle_postures["left"].positions
    q1 = np.where(np.arange(len(q0)) == 0, np.nan if bad == "nan_position" else q0[0], q0)
    end = {"nan_position": 1.0, "nan_final_time": np.nan, "inf_final_time": np.inf}[bad]
    with pytest.raises(ValidationFailed) as info:
        mgr.submit(JointTrajectory("left", [0.0, end], [q0, q1]), timeout=5.0)
    assert [v.kind for v in info.value.violations] == ["NonFinite"]
    mgr.tick()
    assert mgr.events == [] and mgr.all_terminal()


def test_submit_validation_errors():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    ghost = planar_arm("ghost")
    with pytest.raises(UnknownGroup):
        mgr.submit(sweep_traj(ghost, [0, 0], [1, 0]), timeout=5.0)
    bad = JointTrajectory("left", [0.0, 1.0, 1.0], [[0, 0], [1, 0], [2, 0]])
    with pytest.raises(ValidationFailed):
        mgr.submit(bad, timeout=5.0)
    for timeout in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            mgr.submit(sweep_traj(left, [0, 0], [1, 0]), timeout=timeout)
    for bad in ({"tick_length": 0.0}, {"tick_length": float("nan")},
                {"tick_length": float("inf")}, {"monitor_period": 0},
                {"monitor_period": 2.7}, {"monitor_period": True}):
        with pytest.raises(ValueError):
            manager(scene, **bad)
    with pytest.raises(UnknownHandle):
        from multiarm import ExecHandle

        mgr.status(ExecHandle("nope", "left"))


def test_mismatched_start_cancelled():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    # no predecessor explains starting away from the idle posture
    h = mgr.submit(sweep_traj(left, [1.0, 0.0], [2.0, 0.0], "t"), timeout=10.0)
    mgr.tick()
    assert mgr.status(h).kind is StatusKind.CANCELLED
    assert any(e.kind == "CANCELLED" and e.fields["reason"] == "mismatched_start" for e in mgr.events)


def test_chained_tasks_defer_to_predecessor():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    h1 = mgr.submit(sweep_traj(left, [0, 0], [1, 0], "t1"), timeout=30.0)
    h2 = mgr.submit(sweep_traj(left, [1, 0], [2, 0], "t2"), timeout=30.0)
    mgr.tick()
    assert mgr.status(h1).kind is StatusKind.RUNNING
    assert mgr.status(h2).kind is StatusKind.BACKLOGGED
    tick_until(mgr, lambda: mgr.all_terminal())
    assert mgr.status(h2).kind is StatusKind.SUCCEEDED
    assert mgr.status(h2).start_time >= mgr.status(h1).finish


@pytest.mark.parametrize("leave", ["cancel", "timeout"])
def test_chain_head_blocks_a_later_entry_after_the_middle_one_left(leave):
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    h1 = mgr.submit(sweep_traj(left, [0, 0], [1, 0], "head"), timeout=30.0)
    middle_timeout = 0.5 if leave == "timeout" else 30.0
    h2 = mgr.submit(sweep_traj(left, [1, 0], [2, 0], "middle"), timeout=middle_timeout)
    mgr.tick()
    assert mgr.status(h2).kind is StatusKind.BACKLOGGED
    if leave == "cancel":
        mgr.cancel(h2)
        assert mgr.status(h2).kind is StatusKind.CANCELLED
    else:
        tick_until(mgr, lambda: mgr.status(h2).terminal)
        assert mgr.status(h2).kind is StatusKind.ABORTED_TIMEOUT
    assert mgr.status(h1).kind is StatusKind.RUNNING
    h3 = mgr.submit(sweep_traj(left, [1, 0], [0, 0], "last"), timeout=30.0)
    mgr.tick()
    assert mgr.status(h3).blockers == frozenset({"head"})

    handles = (h1, h2, h3)
    while True:
        assert not mgr.all_terminal()
        mgr.tick()
        ended = all(mgr.status(h).terminal for h in handles)
        assert mgr.all_terminal() == ended
        if ended:
            break
        assert mgr.tick_index < 1000
    assert mgr.status(h3).kind is StatusKind.SUCCEEDED
    assert mgr.status(h3).finish == mgr.clock
    requeues = [(e.clock, e.fields["trigger"]) for e in mgr.events
                if e.kind == "REQUEUED" and e.trajectory_id == "last"]
    assert requeues == [(mgr.status(h1).finish, "head")]


@pytest.mark.parametrize("leave", ["cancel", "timeout"])
def test_a_head_that_ends_without_running_requeues_the_next_tick(leave):
    # the head never runs, so no arm moves when it ends; its end alone must
    # requeue the entry behind it, on the next tick
    left, right, scene, tl, tr = crossing_setup()
    mgr = manager(scene)
    mgr.submit(tr, timeout=30.0)
    head = mgr.submit(tl, timeout=30.0 if leave == "cancel" else 0.5)
    mgr.submit(sweep_traj(left, tl.positions[0], [np.pi / 2, 0.0], "next"), timeout=30.0)
    mgr.tick()
    assert mgr.status(head).blockers == frozenset({"tr"})
    mgr.tick()  # a tick on which nothing ends or moves
    if leave == "cancel":
        mgr.cancel(head)
    else:
        tick_until(mgr, lambda: mgr.status(head).terminal)
    ended = mgr.clock
    mgr.tick()
    requeues = [(e.clock, e.fields["trigger"]) for e in mgr.events
                if e.kind == "REQUEUED" and e.trajectory_id == "next"]
    assert requeues == [(ended + mgr.tick_length, "tl")]


def hub_and_pokes_setup():
    """A hub arm sweeps the centre while two side arms wait to poke into it.

    Both pokes conflict with the hub's sweep but not with each other, so
    they are requeued together when the hub finishes (parked pointing +y,
    clear of both extended pokes).
    """
    hub = planar_arm("hub", (0, 0, 0), lengths=(0.45,), radius=0.04)
    left = planar_arm("poke_l", (-1.15, 0, 0), radius=0.04)
    right = planar_arm("poke_r", (1.15, 0, 0), radius=0.04)
    scene = scene_of([hub, left, right], [[-3.0], [0.0, 2.9], [np.pi, -2.9]])
    t0 = JointTrajectory(
        "hub", [0.0, 6.0, 6.0 + 3.0 - np.pi / 2], [[-3.0], [3.0], [np.pi / 2]], id="t0"
    )
    t1 = sweep_traj(left, [0.0, 2.9], [0.0, 0.0], "t1")
    t2 = sweep_traj(right, [np.pi, -2.9], [np.pi, 0.0], "t2")
    return scene, (t0, t1, t2)


def test_fifo_fairness_among_requeued():
    scene, (t0, t1, t2) = hub_and_pokes_setup()
    mgr = manager(scene)
    mgr.submit(t0, timeout=60.0)
    h_a = mgr.submit(t1, timeout=60.0)
    h_b = mgr.submit(t2, timeout=60.0)
    mgr.tick()
    assert mgr.status(h_a).kind is StatusKind.BACKLOGGED
    assert mgr.status(h_b).kind is StatusKind.BACKLOGGED
    tick_until(mgr, lambda: mgr.all_terminal(), limit=10000)
    ordered = [
        (e.kind, e.trajectory_id)
        for e in mgr.events
        if e.kind in ("REQUEUED", "ADMITTED") and e.trajectory_id in ("t1", "t2")
    ]
    # both re-enter the queue on the hub's completion tick and are
    # re-checked in original submission order
    assert ordered.index(("REQUEUED", "t1")) < ordered.index(("REQUEUED", "t2"))
    assert ordered.index(("ADMITTED", "t1")) < ordered.index(("ADMITTED", "t2"))
    assert mgr.status(h_a).kind is StatusKind.SUCCEEDED
    assert mgr.status(h_b).kind is StatusKind.SUCCEEDED


def test_mutual_exclusion_per_group():
    left, right, scene, tl, tr = crossing_setup()
    mgr = manager(scene)
    # second left task: reverse sweep back home
    tl2 = sweep_traj(left, [np.pi / 2 + 1.0, 0.0], [np.pi / 2 - 1.0, 0.0], "tl2")
    mgr.submit(tl, timeout=60.0)
    mgr.submit(tl2, timeout=60.0)
    mgr.submit(tr, timeout=60.0)
    seen_running = []
    while not mgr.all_terminal():
        mgr.tick()
        groups = list(mgr.running_records())
        assert len(groups) == len(set(groups))
        seen_running.append(tuple(sorted(mgr.running_records())))
        assert mgr.tick_index < 20000
    assert any(len(g) >= 1 for g in seen_running)


def test_monitor_halts_on_unchecked_conflict():
    # disable the static-admission check so a candidate drives into a parked
    # arm; the online monitor must halt it
    left, right, scene, tl, tr = crossing_setup()
    scene.idle_postures["left"] = JointState("left", [np.pi / 2, 0.0])  # parked across centre
    mgr = manager(scene, check_static=False, monitor_period=5)
    h = mgr.submit(tr, timeout=30.0)
    tick_until(mgr, lambda: mgr.status(h).terminal)
    st = mgr.status(h)
    assert st.kind is StatusKind.ABORTED_COLLISION
    assert st.witness is not None
    halt_events = [e for e in map(Event.parse, mgr.event_lines()) if e.kind == "COLLISION_HALT"]
    assert len(halt_events) == 1
    # monitor soundness: the reported clearance is at or below the margin
    assert halt_events[0].fields["clearance"] <= mgr.params.margin + 1e-12
    # the arm froze at its interpolated state, not the goal
    frozen = mgr.current_states()["right"].positions
    assert not np.allclose(frozen, tr.positions[-1])


def test_monitor_period_controls_check_instant():
    left, right, scene, tl, tr = crossing_setup()
    scene.idle_postures["left"] = JointState("left", [np.pi / 2, 0.0])
    mgr = manager(scene, check_static=False, monitor_period=25)
    h = mgr.submit(tr, timeout=30.0)
    tick_until(mgr, lambda: mgr.status(h).terminal)
    halt = next(e for e in mgr.events if e.kind == "COLLISION_HALT")
    ticks = round(halt.clock / 0.01)
    assert ticks % 25 == 0


def test_event_log_format():
    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    mgr.submit(sweep_traj(left, [0, 0], [0.5, 0], "t"), timeout=10.0)
    tick_until(mgr, lambda: mgr.all_terminal())
    for line in mgr.event_lines():
        event = Event.parse(line)
        assert event.kind in EVENT_KINDS and event.line() == line
        assert re.match(r"\d+\.\d{6}\t", line)
        assert event.trajectory_id == "t"


def test_determinism_identical_logs():
    def one_run():
        left, right, scene, tl, tr = crossing_setup()
        mgr = manager(scene)
        mgr.submit(tl, timeout=30.0)
        mgr.submit(tr, timeout=30.0)
        while not mgr.all_terminal():
            mgr.tick()
        return mgr.event_lines()

    assert one_run() == one_run()


def test_concurrent_submit_and_status_smoke():
    import threading

    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    h1 = mgr.submit(sweep_traj(left, [0, 0], [2, 0], "a"), timeout=30.0)
    errors = []

    def poll():
        try:
            for _ in range(400):
                mgr.status(h1)
                mgr.current_states()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pollers = [threading.Thread(target=poll) for _ in range(3)]
    for t in pollers:
        t.start()
    for _ in range(250):
        mgr.tick()
    for t in pollers:
        t.join()
    assert not errors
    assert mgr.status(h1).kind is StatusKind.SUCCEEDED


def test_submit_cancel_and_status_from_a_second_thread_while_ticking():
    """`tick()` takes the lock by hand. A second thread submits, cancels and
    polls while the main thread ticks: nothing raises, every entry ends, and
    every log line reads back as it was written."""
    import threading
    import time

    left, right, scene = disjoint_setup()
    mgr = manager(scene)
    handles, submit_ticks, errors, done = [], [], [], threading.Event()

    def client():
        try:
            for i in range(60):
                arm = (left, right)[i % 2]
                q0, q1 = ([0, 0], [1, 0]) if i // 2 % 2 == 0 else ([1, 0], [0, 0])
                handles.append(mgr.submit(sweep_traj(arm, q0, q1, f"t{i}"), timeout=5.0))
                submit_ticks.append(mgr.tick_index)
                if i % 3 == 2:
                    mgr.cancel(handles[-1])
                for handle in handles:
                    mgr.status(handle)
                time.sleep(0.001)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=client)
    thread.start()
    while not (done.is_set() and mgr.all_terminal()):
        mgr.tick()
        assert mgr.tick_index < 10**6
    thread.join()
    assert not errors
    assert len(set(submit_ticks)) > 1  # the submits interleaved with the ticks
    assert all(mgr.status(h).terminal for h in handles)
    lines = mgr.event_lines()
    assert [Event.parse(line).line() for line in lines] == lines
    assert {Event.parse(line).kind for line in lines} >= {"ADMITTED", "COMPLETED", "CANCELLED"}


def test_liveness_bound():
    scene, tl_slow, tr = blocked_corridor_setup()
    mgr = manager(scene)
    submissions = [
        (mgr.submit(tl_slow, timeout=40.0), 40.0, tl_slow.duration),
        (mgr.submit(tr, timeout=3.0), 3.0, tr.duration),
    ]
    while not mgr.all_terminal():
        mgr.tick()
        assert mgr.tick_index < 10000
    for handle, timeout, duration in submissions:
        st = mgr.status(handle)
        terminal_clock = st.finish if st.finish is not None else st.at
        assert terminal_clock is not None
        assert terminal_clock <= timeout + duration + 2 * 0.01 + 1e-9
