"""The idle-tick fast path and the integer ticks it rests on.

A tick before the manager's wake tick only advances the clock. `FullTicks`
is a manager that runs the five steps, step 2's backlog sweep included, on
every tick. Driven side by side with a plain manager on the same
submit, cancel and tick sequences, the two must log the same lines and report
the same statuses after every operation. On the generated sequences, every
monitor tick at which an arm runs and every timeline read is also checked
against its oracle (`monitor_oracle`, `timeline_oracle`).

Each scheduler time becomes a tick by one rule, `executor._tick_at`. The
property tests compare it with the float rules it replaced, kept in
`oracles`, at the extremes the loader accepts.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiarm import (
    CheckParams,
    ExecutionManager,
    JointTrajectory,
    PlacedPrimitive,
    Sphere,
    composite_state_check,
    run,
)
from multiarm.executor import EVENT_KINDS, Event, _tick_at
from multiarm.geometry import segment_aabbs
from multiarm.harness import FIXTURES, _MAX_TICKS

from conftest import (
    facing_pair,
    monitor_oracle,
    pinned_scenario,
    planar_arm,
    scene_of,
    sweep_traj,
    timeline_oracle,
    work_counts,
)
from oracles import _end_tick, deadline_passed, stop_tick_search, submit_due
from test_scheduler_properties import GOALS, IDLE, TICK, ops


class FullTicks(ExecutionManager):
    """A manager whose every tick runs steps 1-5, step 2's backlog sweep
    included, whether or not a requeue is due. The steps start by reading
    `clock`; `clock_reads` counts the reads."""

    clock_reads = 0

    @property
    def clock(self):
        self.clock_reads += 1
        return super().clock

    def tick(self):
        with self._lock:
            self._tick_index += 1
            self._requeue_due = True
            return self._tick_locked()


class Twins:
    """A plain manager and a `FullTicks` on one scene, driven alike; after
    every operation both must have logged the same lines, and every handle
    must have the same status in both."""

    def __init__(self, scene, **kwargs):
        self.fast = ExecutionManager(scene, **kwargs)
        self.full = FullTicks(scene, **kwargs)
        self.handles = []
        self.skippable = 0  # ticks the plain manager takes by the fast path

    def check(self):
        assert self.fast.event_lines() == self.full.event_lines()
        assert [self.fast.status(h) for h in self.handles] == [self.full.status(h) for h in self.handles]

    def submit(self, traj, timeout):
        handle = self.fast.submit(traj, timeout)
        assert self.full.submit(traj, timeout) == handle
        self.handles.append(handle)
        self.check()

    def cancel(self, k, live=False):
        """Cancel handle k (modulo their count), or with `live` the k-th of
        those that have not ended."""
        handles = [h for h in self.handles if not live or not self.fast.status(h).terminal]
        if handles:
            handle = handles[k % len(handles)]
            assert self.fast.cancel(handle) == self.full.cancel(handle)
            self.check()

    def tick(self, n=1):
        for _ in range(n):
            self.skippable += self.fast.tick_index + 1 < self.fast._wake
            reads = self.full.clock_reads
            assert self.fast.tick() == self.full.tick()
            assert self.full.clock_reads > reads
            self.check()

    def finish(self, limit=20_000):
        for _ in range(limit):
            if self.fast.all_terminal():
                assert self.full.all_terminal()
                return
            self.tick()
        raise AssertionError("not every entry ended within the tick limit")


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), ops)
def test_fast_path_logs_what_full_ticks_log_on_generated_sequences(check_static, sequence):
    scene = scene_of(facing_pair(gap=1.2), [IDLE["left"], IDLE["right"]])
    cursor = dict(IDLE)
    with monitor_oracle(scene), timeline_oracle():
        twins = Twins(scene, params=CheckParams(dt=TICK, margin=0.02), tick_length=TICK,
                      monitor_period=2, check_static=check_static)
        for op in sequence:
            if op[0] == "submit":
                _, g, goal, timeout = op
                traj = sweep_traj(scene.robots[g], cursor[g], GOALS[g][goal], f"p{len(twins.handles)}")
                cursor[g] = GOALS[g][goal]
                twins.submit(traj, timeout)
            elif op[0] == "cancel":
                twins.cancel(op[1])
            else:
                twins.tick(op[1])
        twins.finish()


def random_cell(rng, across=False):
    """2-4 two-link arms facing each other across a ring, folded at rest,
    0-2 spherical obstacles inside it, and the manager's settings. With
    `across`, the ring is smaller, arm a0 rests stretched out across its
    centre, in its neighbours' way, and the check against parked arms is on."""
    n = int(rng.integers(2, 5))
    ring = float(rng.uniform(0.85, 0.95) if across else rng.uniform(1.1, 1.5))
    models, idle = [], []
    for i in range(n):
        a = 2 * np.pi * i / n
        models.append(planar_arm(f"a{i}", (ring * np.cos(a), ring * np.sin(a), 0.0), (0.5, 0.4),
                                 0.04, float(rng.uniform(0.5, 2.0)), base_rpy=(0.0, 0.0, a + np.pi)))
        idle.append([float(rng.uniform(-0.3, 0.3)), float(rng.uniform(1.2, 2.0))])
    if across:
        idle[0] = [float(v) for v in rng.uniform(-0.1, 0.1, 2)]
    obstacles = [PlacedPrimitive(Sphere(center=[*rng.uniform(-0.6, 0.6, 2), 0.0], radius=0.05),
                                 ("static", k))
                 for k in range(int(rng.integers(0, 3)))]
    tick = float(rng.choice([0.01, 0.02, 0.05]))
    settings_ = dict(
        params=CheckParams(dt=tick, margin=0.02),
        tick_length=tick,
        monitor_period=int(rng.choice([1, 5])),
        check_static=bool(rng.integers(0, 2)) or across,
        serialized=bool(rng.integers(0, 2)),
    )
    return scene_of(models, idle, obstacles), idle, settings_


def drive_random_cell(seed, twins_class=Twins, across=False):
    """Random submits, cancels and ticks on `random_cell(seed, across)`, run to the end."""
    rng = np.random.default_rng(1700 + seed)
    scene, idle, kwargs = random_cell(rng, across)
    twins = twins_class(scene, **kwargs)
    tick = kwargs["tick_length"]
    cursor = dict(zip(sorted(scene.robots), idle))
    groups = sorted(scene.robots)
    # timeouts below one tick, of a few ticks, and long enough to wait a motion out
    timeouts = [0.4 * tick, tick, 3 * tick, 1.0, 5.0, 30.0]
    if across:  # a1 stretches out through the centre, and waits on a0; then a0 bends its elbow
        opening = [("a1", [float(rng.uniform(-0.1, 0.1)), 0.0]),
                   ("a0", [cursor["a0"][0], float(rng.choice([-0.5, 0.5]))])]
        for g, goal in opening:
            twins.submit(sweep_traj(scene.robots[g], cursor[g], goal, f"open_{g}"), 30.0)
            cursor[g] = goal
            twins.tick(int(rng.integers(1, 4)))
    for step in range(int(rng.integers(8, 20))):
        op = rng.choice(["submit", "submit", "tick", "tick", "cancel"])
        if op == "submit":
            g = groups[int(rng.integers(len(groups)))]
            goal = np.clip(np.asarray(cursor[g]) + rng.uniform(-2.0, 2.0, 2), -4.0, 4.0)
            twins.submit(sweep_traj(scene.robots[g], cursor[g], goal, f"c{step}"),
                         float(rng.choice(timeouts)))
            cursor[g] = goal
        elif op == "cancel":
            twins.cancel(int(rng.integers(64)), live=True)
        else:
            twins.tick(int(rng.integers(1, 60)))
    twins.finish()
    return twins


def test_fast_path_logs_what_full_ticks_log_in_random_cells():
    kinds, skippable, ticks = set(), 0, 0
    for seed in range(100):
        twins = drive_random_cell(seed)
        kinds.update(e.kind for e in twins.fast.events)
        skippable += twins.skippable
        ticks += twins.fast.tick_index
    # every way an entry ends, and most ticks skippable
    assert kinds == set(EVENT_KINDS)
    assert skippable > ticks / 2


def admission_requeues(events):
    """The REQUEUED events whose trigger `idle:g` an admission of arm g made
    stale: g's last event before them is an ADMITTED."""
    group, last, found = {}, {}, []
    for e in events:
        if e.kind == "SUBMITTED":
            group[e.trajectory_id] = e.fields["group"]
            continue
        if e.kind == "REQUEUED" and e.values[0].startswith("idle:") and last.get(e.values[0][5:]) == "ADMITTED":
            found.append(e)
        last[group[e.trajectory_id]] = e.kind
    return found


def test_fast_path_logs_what_full_ticks_log_in_cells_with_an_arm_parked_across():
    """An entry waits on `idle:a0`, and a0's admission alone can requeue it on
    the next tick; a manager that left that requeue for a later trigger
    would log it later than `FullTicks` does."""
    requeues = sum(len(admission_requeues(drive_random_cell(seed, across=True).fast.events))
                   for seed in range(40))
    assert requeues >= 20


class BoxedTwins(Twins):
    """Twins that also check, after every operation, that each arm's capsules
    at the clock lie in its rows of each manager's box table, that each arm
    the table holds is placed where the table keeps it, and collect the
    kinds of row they checked."""

    def __init__(self, scene, **kwargs):
        super().__init__(scene, **kwargs)
        self.kinds = set()

    def check(self):
        super().check()
        for mgr in (self.fast, self.full):
            monitor, layout = mgr._monitor, mgr.scene.layout
            p0, p1 = layout.spread(layout.place(mgr._timeline.at(layout.groups, [mgr.clock])))
            lo, hi = segment_aabbs(p0[0], p1[0], layout.radii)
            assert np.all(lo >= monitor.boxes[:, :3]) and np.all(hi <= monitor.boxes[:, 3:]), mgr.clock
            for g, (e0, e1) in monitor.held.items():  # the endpoints a sweep pairs in place of placing g
                rows = slice(layout.rows[g].start, layout.rows[g].stop)
                assert np.array_equal(e0[0], p0[0, rows]) and np.array_equal(e1[0], p1[0, rows])
            for g in layout.groups:
                ran = bool(mgr._timeline.runs.get(g))
                held = ", held" if g in monitor.held else ""
                self.kinds.add("running" if g in mgr._running else ("stopped" if ran else "never run") + held)


def test_the_box_table_holds_every_arm_after_every_operation_in_random_cells():
    kinds, events = set(), set()
    for seed in range(40):
        twins = drive_random_cell(seed, BoxedTwins)
        kinds |= twins.kinds
        events.update(e.kind for e in twins.fast.events)
    assert kinds == {"never run", "never run, held", "running", "stopped", "stopped, held"}
    assert "COLLISION_HALT" in events and "CANCELLED" in events


def test_the_tick_after_a_cancel_sweeps_the_backlog():
    """Cancelling a running head leaves nothing running and its follower
    backlogged until a far deadline, so only the cancel itself can make the
    next tick requeue the follower (which then ends as a mismatched start)."""
    left, right = facing_pair(gap=1.5)
    q0, q1 = [np.pi / 2 - 1.0, 0.0], [np.pi / 2 + 1.0, 0.0]
    scene = scene_of([left, right], [q0, [-np.pi / 2 + 1.0, 0.0]])
    twins = Twins(scene, tick_length=0.01, monitor_period=7)
    twins.submit(sweep_traj(left, q0, q1, "head"), 30.0)
    twins.submit(sweep_traj(left, q1, q0, "next"), 30.0)
    twins.tick(3)
    twins.cancel(0)
    twins.tick()
    assert [Event.parse(line).kind for line in twins.fast.event_lines()[-2:]] == ["REQUEUED", "CANCELLED"]


def test_the_tick_after_an_admission_sweeps_the_entries_it_unblocked():
    """The right arm is parked across the left arm's goal, so the left entry
    waits on it (`idle:right`). The right entry admitted on the same tick
    moves the arm away, which only admission can make the next tick see."""
    left, right = facing_pair(gap=1.5)
    scene = scene_of([left, right], [[0.0, 0.0], [-np.pi / 2, 0.0]])
    twins = Twins(scene, tick_length=0.01, monitor_period=7)
    twins.submit(sweep_traj(left, [0.0, 0.0], [np.pi / 2, 0.0], "across"), 30.0)
    twins.submit(sweep_traj(right, [-np.pi / 2, 0.0], [-np.pi, 0.0], "away"), 30.0)
    twins.tick(2)
    assert [(e.kind, e.trajectory_id, e.values[0]) for e in twins.fast.events[2:]] == [
        ("BACKLOGGED", "across", "idle:right"), ("ADMITTED", "away", 0.01),
        ("REQUEUED", "across", "idle:right"), ("ADMITTED", "across", 0.02)]
    twins.finish()


def test_a_cancel_that_parks_an_arm_in_a_running_path_rearms_the_monitor():
    """The right arm leaves the left arm's path before the left arm gets
    there, so the first check puts every pair to sleep for good, and the
    wake tick keeps no monitor term. Cancelled mid-motion, the right arm
    parks in the left arm's path: its pairs wake, and the left arm must halt
    at the first monitor tick at which the full check collides, as it does
    on a manager that runs every step on every tick."""
    left, right = facing_pair(vlims=(1.0, 2.0))
    idle_l, idle_r = [np.pi / 2 - 2.0, 0.0], [-np.pi / 2, 0.0]
    scene = scene_of([left, right], [idle_l, idle_r])
    margin, period = 0.02, 5
    twins = Twins(scene, params=CheckParams(dt=0.01, margin=margin), monitor_period=period)
    twins.submit(sweep_traj(right, idle_r, [-np.pi / 2 + 1.5, 0.0], "away"), 10.0)
    twins.submit(sweep_traj(left, idle_l, [np.pi / 2 + 0.5, 0.0], "sweep"), 10.0)
    twins.tick(10)
    fast = twins.fast
    assert fast._monitor.next_due == math.inf
    assert fast._wake == min(r.stop_tick for r in fast.running_records().values())
    twins.cancel(0)
    first = None  # the first monitor tick at which the full check collides
    ran = []  # the ticks at which the plain manager runs the steps
    while not fast.all_terminal():
        if fast.tick_index + 1 >= fast._wake:
            ran.append(fast.tick_index + 1)
        twins.tick()
        k = fast.tick_index
        if first is None and k % period == 0:
            if composite_state_check(fast.current_states(), scene, margin).colliding:
                first = k
    halt = Event.parse(fast.event_lines()[-1])
    assert (halt.kind, halt.trajectory_id) == ("COLLISION_HALT", "sweep")
    assert first is not None and halt.clock == first * fast.tick_length
    # the tick after the cancel sweeps the backlog, the next monitor tick
    # measures the woken pairs, and every tick from then to the halt is idle
    assert ran == [11, 15, first] and first > 15 + period


# Mutation checks, each on a copy of the library, each failing tests of this
# module: the deadline tick that the recomputed wake uses made one tick late
# (both random drives fail); `submit` not lowering the wake (the cancel test
# and the float-rules test fail); `_finish` making a requeue due without
# lowering the wake (the cancel test fails); admission never making a requeue
# due (the parked-across cells' differential check, the admission test and
# the ring16 count fail); admission always making one (both counts fail); and
# `FullTicks` forcing full ticks from inside `_tick_locked`, which the fast
# path in `tick()` never reaches (its clock-read check fails in every test
# that drives `Twins`). And three of the monitor term: a wake that ignores
# `next_due` lowered by `Monitor.wake` (the re-arm test fails); the term one
# monitor period late, and a conversion that can land past the exact tick,
# `int(next_due / tick) + 1` (each fails the re-arm test, the four other
# differential checks on random cells and generated sequences, and a
# halting-ring digest).


def test_a_run_stops_and_an_entry_aborts_on_the_tick_the_float_rules_chose():
    left, right = facing_pair(gap=1.5)
    q0 = [np.pi / 2 - 1.0, 0.0]
    scene = scene_of([left, right], [q0, [-np.pi / 2 + 1.0, 0.0]])
    twins = Twins(scene, tick_length=0.01, monitor_period=7)
    twins.submit(sweep_traj(left, q0, [np.pi / 2 + 1.0, 0.0], "long"), 30.0)
    twins.tick(3)
    twins.submit(sweep_traj(left, [np.pi / 2 + 1.0, 0.0], q0, "late"), 0.123)
    twins.tick()
    rec = twins.fast.running_records()["left"]
    assert rec.stop_tick == 201 and rec.stop == 201 * 0.01
    entry = twins.fast._entries["s1"]
    assert entry.deadline_tick == 16 and deadline_passed(0.16, entry.deadline)
    assert not deadline_passed(0.15, entry.deadline)
    twins.finish()
    lines = twins.fast.event_lines()
    assert lines[-1].startswith("2.010000\tCOMPLETED\tlong")
    assert any(line.startswith("0.160000\tTIMEOUT_ABORT\tlate") for line in lines)


def test_an_endless_timeout_never_aborts():
    left, right = facing_pair(gap=1.5)
    scene = scene_of([left, right], [[0.0, 0.0], [0.0, 0.0]])
    mgr = ExecutionManager(scene)
    mgr.submit(sweep_traj(left, [0.0, 0.0], [0.5, 0.0]), math.inf)
    assert mgr._entries["s0"].deadline_tick == 2**53
    for _ in range(60):
        mgr.tick()
    assert mgr.all_terminal()


# tick lengths from 1e-300 s to 1e300 s, and times of up to _MAX_TICKS of them,
# down to 1e-300 s: the range the loader accepts
def scaled(exponents):
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.999), exponents)


@st.composite
def tick_and_time(draw, clock_ticks=3 * _MAX_TICKS):
    """A tick length, a clock of up to `clock_ticks` of its ticks, and a time
    span of at most _MAX_TICKS ticks."""
    e = draw(st.integers(-300, 299))
    tick = draw(st.one_of(scaled(st.just(e)), st.sampled_from([0.01, 0.05, 1e-300, 1e300])))
    k0 = draw(st.one_of(st.integers(0, clock_ticks), st.integers(0, 20)))
    span = draw(st.one_of(scaled(st.integers(-300, e + 5)), st.just(1e-300),
                          st.floats(0.0, 1.0).map(lambda f: f * _MAX_TICKS * tick)))
    return tick, k0, min(span, _MAX_TICKS * tick)


def first_accepted(rule, k):
    """Whether k is the first tick that `rule` accepts: the rule holds at k and
    not at k - 1. Each rule is monotone in the tick."""
    return rule(k) and (k == 0 or not rule(k - 1))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(tick_and_time(), st.floats(0.0, 1.0))
def test_each_tick_is_the_first_the_float_rule_accepts(case, fraction):
    tick, k0, span = case
    clock = k0 * tick
    # a deadline: a clock plus a timeout
    deadline = clock + max(span, 1e-300)
    k = _tick_at(deadline, tick)
    assert first_accepted(lambda j: deadline_passed(j * tick, deadline), k)
    # a stop: a run's end, searched from the clock of its admission
    assert _tick_at(clock + span, tick, k0) == stop_tick_search(k0, tick, clock + span)
    # a submit time, from 0 up to _MAX_TICKS ticks
    submit = fraction * _MAX_TICKS * tick
    assert first_accepted(lambda j: submit_due(j * tick, submit), _tick_at(submit, tick))


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tick_and_time(clock_ticks=20), st.floats(0.0, 40.0), st.floats(1e-300, 40.0),
       st.one_of(st.integers(1, 7), st.integers(1, 10**18)))
def test_a_manager_at_extreme_scales_keeps_the_float_rules(case, moves, waits, period):
    """A move of `moves` ticks and a second entry with a timeout of `waits`
    ticks, both submitted at tick k0, on a manager whose ticks are `tick` long
    and whose monitor period may be far beyond any run."""
    tick, k0, _ = case
    arm = planar_arm("solo", lengths=(0.5,), vlim=1.0)
    scene = scene_of([arm], [[0.0]])
    twins = Twins(scene, tick_length=tick, monitor_period=period, params=CheckParams(dt=tick))
    twins.tick(k0)
    duration = max(moves * tick, 5e-324)
    move = JointTrajectory("solo", [0.0, duration], [[0.0], [min(duration, 0.5)]])
    twins.submit(move, 60 * tick)
    twins.submit(JointTrajectory("solo", [0.0], [[min(duration, 0.5)]]), max(waits * tick, 1e-300))
    second = twins.fast._entries["s1"]
    assert first_accepted(lambda j: deadline_passed(j * tick, second.deadline), second.deadline_tick)
    twins.tick()
    rec = twins.fast.running_records().get("solo")
    if rec is not None:
        assert rec.stop_tick == _end_tick(twins.fast, rec) and rec.stop == rec.stop_tick * tick
    twins.finish(limit=200)


# the most ticks that run the steps: on the 8 runs of the shipped fixtures
# (async and sync) together, and on two pinned runs; a wake whose monitor
# term was every monitor tick while an arm ran took 876, 294 and 221
FULL_TICKS = {"fixtures": 55, "ring16_901.json": 144, "batch_small.json": 41}


@pytest.mark.parametrize("name", FULL_TICKS)
def test_only_ticks_at_which_a_step_can_act_run_the_steps(monkeypatch, name):
    """A tick runs the five steps only if it logs, if it follows a tick that
    logged, if it is a monitor tick at or after the monitor's `next_due`
    while an arm runs, or if a submission came before it. Ticking through a
    run still takes one `tick()` per tick."""
    logged, monitor, submitted = set(), set(), set()
    tick, submit = ExecutionManager.tick, ExecutionManager.submit

    def spy_tick(mgr):
        k = mgr.tick_index + 1
        if (mgr.running_records() and k % mgr.monitor_period == 0
                and k * mgr.tick_length >= mgr._monitor.next_due):
            monitor.add(k)
        events = tick(mgr)
        if events:
            logged.add(k)
        return events

    def spy_submit(mgr, *args):
        submitted.add(mgr.tick_index + 1)
        return submit(mgr, *args)

    monkeypatch.setattr(ExecutionManager, "tick", spy_tick)
    monkeypatch.setattr(ExecutionManager, "submit", spy_submit)
    runs = [(name, "async")]
    if name == "fixtures":
        runs = [(f, mode) for f in FIXTURES for mode in ("async", "sync")]
    full_ticks = 0
    for run_name, mode in runs:
        for ticks in (logged, monitor, submitted):
            ticks.clear()
        scenario = pinned_scenario(run_name)
        with work_counts() as counts:
            result = run(scenario, mode)
        last = Event.parse(result.lines[-1]).clock
        assert counts["ticks"] == round(last / scenario.params.tick_length)
        followers = {k + 1 for k in logged}
        assert len(logged) <= counts["full_ticks"] <= len(logged | followers | monitor | submitted)
        full_ticks += counts["full_ticks"]
    assert full_ticks <= FULL_TICKS[name]
