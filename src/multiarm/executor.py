"""Asynchronous trajectory execution manager on a deterministic tick clock.

New submissions enter a continuous queue. On every tick the manager, in fixed
order: completes finished trajectories, moves backlog entries whose blockers
terminated back into the queue unless their deadline has come, aborts backlog
entries at or past their deadline, drains the queue through the collision
gate (admit or backlog; a new submission whose timeout ran out before its
first tick aborts), and runs the periodic composite-state monitor. Every
arm's motion is one `collision.Timeline`: admission adds a run that stops at
the tick that completes it, and a cancel or halt stops it there and then.
The monitor measures only the pairs that may have come within the margin
since they were last measured (`collision.Monitor`). Once some pair is due,
the manager hands it a window: the check instants from now to the first one
at or after the last stop of the involved arms, with the timeline read at
them. Admission makes every pair of the admitted arm due and hands the
monitor the run's link boxes, and a stop off the plan (a cancel or a halt)
makes them due too; a completion parks the arm where the window already has
it. Admission may fail against a running trajectory
(blocker = its id), against another arm parked in the way (blocker
"idle:<group>", re-checked when that arm's posture changes), or against a
static obstacle (blocker "static", which only a timeout clears).

Each group keeps a chain: its unfinished entries in submission order. Only
the head of a chain may run; any later entry that reaches the gate is
backlogged behind the head, so a group's tasks never overtake each other.
An entry leaves its chain when it ends, whichever way it ends, and the run
is over when every chain is empty. An arm leaves the running set, by
completion, cancel or halt, parked where its trajectory has it.

The clock is simulated: controllers track trajectories perfectly and the
clock advances only through tick(). Identical inputs produce byte-identical
event logs.
"""

from __future__ import annotations

import logging
import math
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

# composite_state_check is not called here: the monitor runs Monitor.check.
# It stays imported only because perfbench's tests look it up here. The
# benchmark's collision.composite_state_check trace site and its run_share
# metric are stale: they read 0 because they wrap a function the monitor no
# longer calls, not because the monitor got cheaper.
from .collision import (
    CheckParams,
    Monitor,
    Placed,
    RunningRecord,
    Scene,
    Timeline,
    candidate_sweep,
    composite_state_check,
    required_margin,
)
from .errors import UnknownGroup, UnknownHandle, ValidationFailed
from .geometry import Owner, owner_str
from .kinematics import JointState, _is_index
from .trajectory import JointTrajectory, grid_size, validate

log = logging.getLogger(__name__)

EVENT_KINDS = (
    "SUBMITTED",
    "ADMITTED",
    "BACKLOGGED",
    "REQUEUED",
    "TIMEOUT_ABORT",
    "COLLISION_HALT",
    "COMPLETED",
    "CANCELLED",
)

# Absolute slack for clock comparisons (ticks are >= 1e-3 s in practice).
_CLOCK_EPS = 1e-9

# Tolerance for the first-waypoint-equals-held-posture admission rule.
_START_TOL = 1e-9


class StatusKind(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    BACKLOGGED = "Backlogged"
    SUCCEEDED = "Succeeded"
    ABORTED_TIMEOUT = "AbortedTimeout"
    ABORTED_COLLISION = "AbortedCollision"
    CANCELLED = "Cancelled"


_TERMINAL = {
    StatusKind.SUCCEEDED,
    StatusKind.ABORTED_TIMEOUT,
    StatusKind.ABORTED_COLLISION,
    StatusKind.CANCELLED,
}


@dataclass(frozen=True)
class ExecStatus:
    kind: StatusKind
    start_time: float | None = None
    blockers: frozenset[str] = frozenset()
    finish: float | None = None
    at: float | None = None
    witness: tuple[Owner, Owner] | None = None

    @property
    def terminal(self) -> bool:
        return self.kind in _TERMINAL


@dataclass(frozen=True)
class ExecHandle:
    id: str
    group_id: str


@dataclass(frozen=True)
class Event:
    clock: float
    kind: str
    trajectory_id: str
    detail: str

    def line(self) -> str:
        return f"{self.clock:.6f}\t{self.kind}\t{self.trajectory_id}\t{self.detail}"


# Blocker tokens: ("traj", entry) | ("idle", group, its last run) | ("static",);
# an idle token is stale once admission or a stop replaced the group's last run.
# `placed` keeps the trajectory's placement across its sweeps until it leaves
# the backlog for good.
@dataclass(eq=False)
class _Entry:
    handle: ExecHandle
    trajectory: JointTrajectory
    seq: int
    deadline: float
    status: ExecStatus
    blocker_tokens: tuple = ()
    placed: Placed | None = None


def _token_label(token) -> str:
    if token[0] == "traj":
        return token[1].trajectory.id
    if token[0] == "idle":
        return f"idle:{token[1]}"
    return "static"


class ExecutionManager:
    """Single-threaded event loop over a simulated clock.

    `serialized=True` emulates the synchronous baseline: a trajectory is
    admitted only when nothing is running.
    """

    def __init__(
        self,
        scene: Scene,
        params: CheckParams | None = None,
        tick_length: float = 0.01,
        monitor_period: int = 5,
        check_static: bool = True,
        serialized: bool = False,
    ):
        if not 0.0 < tick_length < math.inf:
            raise ValueError("tick_length must be finite and > 0")
        if not _is_index(monitor_period) or monitor_period < 1:
            raise ValueError("monitor_period must be an integer >= 1")
        self.scene = scene
        self.params = params or CheckParams()
        self.tick_length = float(tick_length)
        self.monitor_period = int(monitor_period)
        self.check_static = check_static
        self.serialized = serialized

        self._tick_index = 0
        self._seq = 0
        self._entries: dict[str, _Entry] = {}
        self._queue: deque[_Entry] = deque()
        self._backlog: list[_Entry] = []
        self._chains: dict[str, deque[_Entry]] = {g: deque() for g in scene.robots}
        self._running: dict[str, _Entry] = {}
        self._timeline = Timeline(dict(scene.idle_postures))
        # a requeue trigger can fire only after an entry ended or a posture
        # changed; set by _finish, _stop and admission, cleared by step 2
        self._requeue_due = False
        self._monitor = Monitor(scene.layout, self.params.margin)
        self.events: list[Event] = []
        # serializes external callers (submit/cancel/status) against tick()
        self._lock = threading.Lock()

        # the largest required_margin of any arm or pair of arms: that of the
        # two fastest arms (or of the only arm)
        fastest = sorted(scene.robots.values(), key=lambda m: m.max_cartesian_speed_bound, reverse=True)
        a, b = (fastest + [None, None])[:2]
        self.margin_bound = 0.0 if a is None else required_margin(a, b, self.params.dt)
        if self.params.margin < self.margin_bound - 1e-12:
            log.warning(
                "margin %.4f m is below the discrete-check soundness bound %.4f m "
                "for dt=%.3f s; collisions between samples may go undetected",
                self.params.margin,
                self.margin_bound,
                self.params.dt,
            )

    @property
    def clock(self) -> float:
        return self._tick_index * self.tick_length

    @property
    def tick_index(self) -> int:
        return self._tick_index

    def running_records(self) -> dict[str, RunningRecord]:
        with self._lock:
            return {g: self._timeline.runs[g][-1] for g in self._running}

    def event_lines(self) -> list[str]:
        with self._lock:
            return [e.line() for e in self.events]

    def all_terminal(self) -> bool:
        with self._lock:
            return not any(self._chains.values())

    def current_states(self) -> dict[str, JointState]:
        """Consolidated state: every arm as the timeline has it now."""
        with self._lock:
            q = self._timeline.at(self.scene.robots, [self.clock])
            return {g: JointState(g, q[g][0]) for g in self.scene.robots}

    def submit(self, traj: JointTrajectory, timeout: float) -> ExecHandle:
        """Queue a trajectory; it is considered for admission on the next tick."""
        if traj.group_id not in self.scene.robots:
            raise UnknownGroup(f"no robot group '{traj.group_id}' in scene")
        if not timeout > 0.0:
            raise ValueError("timeout must be > 0")
        problems = validate(traj, self.scene.robots[traj.group_id])
        if problems:
            raise ValidationFailed(problems)
        with self._lock:
            handle = ExecHandle(id=f"s{self._seq}", group_id=traj.group_id)
            entry = _Entry(
                handle=handle,
                trajectory=traj,
                seq=self._seq,
                deadline=self.clock + timeout,
                status=ExecStatus(StatusKind.PENDING),
            )
            self._seq += 1
            self._entries[handle.id] = entry
            self._chains[traj.group_id].append(entry)
            self._queue.append(entry)
            self._event("SUBMITTED", entry, f"group={traj.group_id};timeout={timeout:.6f}")
            return handle

    def status(self, handle: ExecHandle) -> ExecStatus:
        with self._lock:
            return self._lookup(handle).status

    def cancel(self, handle: ExecHandle) -> ExecStatus:
        """Cancel an entry; a running arm freezes at its current state."""
        with self._lock:
            entry = self._lookup(handle)
            if entry.status.terminal:
                return entry.status
            start_time = entry.status.start_time
            if entry.status.kind is StatusKind.RUNNING:
                self._stop(entry.handle.group_id, self.clock - start_time)
            elif entry.status.kind is StatusKind.PENDING:
                self._queue.remove(entry)
            elif entry.status.kind is StatusKind.BACKLOGGED:
                self._backlog.remove(entry)
            self._finish(entry, "CANCELLED", "reason=user", StatusKind.CANCELLED,
                         start_time=start_time)
            return entry.status

    def tick(self) -> list[Event]:
        """Advance the clock one tick and run the scheduler steps in order.

        Never re-entrant; external submit/cancel/status calls serialize
        against it on the internal lock.
        """
        with self._lock:
            return self._tick_locked()

    def _tick_locked(self) -> list[Event]:
        self._tick_index += 1
        clock = self.clock
        first_new = len(self.events)

        # 1) complete running trajectories at the stop their admission set
        for g, entry in list(self._running.items()):
            run = self._timeline.runs[g][-1]
            if run.stop <= clock:
                self._stop(g, run.trajectory.duration)
                self._finish(entry, "COMPLETED", f"finish={clock:.6f}", StatusKind.SUCCEEDED,
                             start_time=run.start_time, finish=clock)

        # 2) re-queue backlog entries whose blockers went away; an entry at
        # or past its deadline stays for step 3 to abort. No blocker can have
        # gone away unless an entry ended or a posture changed since the
        # last sweep.
        if self._requeue_due:
            self._requeue_due = False
            triggered = []
            for entry in self._backlog:
                if clock + _CLOCK_EPS >= entry.deadline:
                    continue
                trigger = self._requeue_trigger(entry)
                if trigger is not None:
                    triggered.append((entry.seq, entry, trigger))
            for _, entry, trigger in sorted(triggered, key=lambda item: item[0]):
                self._backlog.remove(entry)
                entry.status = ExecStatus(StatusKind.PENDING)
                entry.blocker_tokens = ()
                self._queue.append(entry)
                self._event("REQUEUED", entry, f"trigger={trigger}")

        # 3) abort backlog entries past their deadline
        for entry in list(self._backlog):
            if clock + _CLOCK_EPS >= entry.deadline:
                self._backlog.remove(entry)
                self._timeout(entry, clock)

        # 4) drain the continuous queue through the collision gate
        while self._queue:
            self._try_admit(self._queue.popleft(), clock)

        # 5) periodic composite-state monitor
        if self._running and self._tick_index % self.monitor_period == 0:
            report = self._monitor.check(clock, self._window)
            if report.colliding:
                witness = f"{owner_str(report.witness[0])}|{owner_str(report.witness[1])}"
                detail = f"witness={witness};clearance={report.min_clearance_seen:.9f}"
                for g, entry in list(self._running.items()):
                    self._stop(g, clock - entry.status.start_time)
                    self._finish(entry, "COLLISION_HALT", detail, StatusKind.ABORTED_COLLISION,
                                 start_time=entry.status.start_time, at=clock, witness=report.witness)

        return self.events[first_new:]

    # internal helpers

    def _lookup(self, handle: ExecHandle) -> _Entry:
        entry = self._entries.get(handle.id)
        if entry is None:
            raise UnknownHandle(f"unknown handle '{handle.id}'")
        return entry

    def _event(self, kind: str, entry: _Entry, detail: str):
        self.events.append(
            Event(clock=self.clock, kind=kind, trajectory_id=entry.trajectory.id, detail=detail)
        )

    def _stop(self, g: str, elapsed: float):
        """Take group g off the running set, parked `elapsed` s into its run;
        parked before its end, it left the motion the monitor's last window
        planned for it, so its pairs are due again."""
        del self._running[g]
        self._timeline.park(g, self.clock, elapsed)
        self._requeue_due = True
        if elapsed < self._timeline.runs[g][-1].trajectory.duration:
            self._monitor.wake(g)

    def _window(self, groups: list[str], limit: int):
        """The monitor's look-ahead (see `collision.Monitor.check`): the check
        instants from now to the first at or after the last stop among the
        running arms of `groups`, cut to `limit` (the third value says whether
        they were), each bit for bit the clock of its live check, and the
        timeline read at them."""
        stops = [self._timeline.runs[g][-1].stop for g in groups if g in self._running]
        k0, period = self._tick_index, self.monitor_period
        last = k0 + -(-(round(max(stops, default=self.clock) / self.tick_length) - k0) // period) * period
        end = min(last, k0 + (limit - 1) * period)
        times = np.arange(k0, end + 1, period) * self.tick_length
        return times, self._timeline.at(groups, times), last > end

    def _finish(self, entry: _Entry, event: str, detail: str, kind: StatusKind, **status):
        """The one terminal transition: final status, out of the chain, logged."""
        entry.status = ExecStatus(kind, **status)
        entry.placed = None
        self._chains[entry.handle.group_id].remove(entry)
        self._requeue_due = True
        self._event(event, entry, detail)

    def _requeue_trigger(self, entry: _Entry) -> str | None:
        for token in entry.blocker_tokens:
            if token[0] == "traj" and token[1].status.terminal:
                return token[1].trajectory.id
            if token[0] == "idle" and self._timeline.runs.get(token[1], [None])[-1] is not token[2]:
                return f"idle:{token[1]}"
        return None

    def _to_backlog(self, entry: _Entry, tokens: tuple, checks: int, states: int):
        labels = [_token_label(t) for t in tokens]
        entry.blocker_tokens = tokens
        entry.status = ExecStatus(StatusKind.BACKLOGGED, blockers=frozenset(labels))
        self._backlog.append(entry)
        self._event(
            "BACKLOGGED",
            entry,
            f"blockers={','.join(labels)};deadline={entry.deadline:.6f}"
            f";checks={checks};states={states}",
        )

    def _timeout(self, entry: _Entry, clock: float):
        self._finish(entry, "TIMEOUT_ABORT", f"deadline={entry.deadline:.6f}",
                     StatusKind.ABORTED_TIMEOUT, at=clock)

    def _try_admit(self, entry: _Entry, clock: float):
        g = entry.handle.group_id

        # step 2 requeues only entries before their deadline, so this is a
        # new submission with a timeout shorter than the wait for its tick
        if clock + _CLOCK_EPS >= entry.deadline:
            self._timeout(entry, clock)
            return

        # one controller per group, in per-group submission order: an entry
        # is blocked by the head of its group's chain (running or not), so
        # later submissions never overtake a group's task chain
        head = self._chains[g][0]
        if head is not entry:
            self._to_backlog(entry, (("traj", head),), 0, 0)
            return
        # synchronous baseline: anything running blocks admission
        if self.serialized and self._running:
            tokens = tuple(("traj", other) for other in self._running.values())
            self._to_backlog(entry, tokens, 0, 0)
            return
        # the arm must be parked where the trajectory expects to start;
        # anything else means the chain was broken (abort/cancel upstream)
        # and the trajectory needs replanning
        if np.abs(entry.trajectory.positions[0] - self._timeline.at([g], [clock])[g]).max() > _START_TOL:
            self._finish(entry, "CANCELLED", "reason=mismatched_start", StatusKind.CANCELLED)
            return

        # one sweep against every running arm, then the obstacles and parked
        # arms; the log still counts a check and a time grid per running arm
        # plus one for the static scene, as when each was a separate check
        running = list(self._running)
        parked = None
        if self.check_static:
            parked = [h for h in self.scene.robots if h != g and h not in self._running]
        duration, dt = entry.trajectory.duration, self.params.dt
        checks = len(running) + (parked is not None)
        states = sum(grid_size(max(duration, run.trajectory.duration - (clock - run.start_time)), dt)
                     for run in (self._timeline.runs[h][-1] for h in running))
        states += grid_size(duration, dt) if parked is not None else 0
        reports = []
        if checks:
            entry.placed = entry.placed or Placed()
            reports = candidate_sweep(entry.trajectory, clock, self.params, self.scene.layout,
                                      self._timeline, running, parked, entry.placed)
        tokens = [("traj", self._running[h]) for h, rep in zip(running, reports) if rep.colliding]
        if parked is not None and reports[-1].colliding:
            blocking_owner = reports[-1].witness[1]
            if blocking_owner[0] == "static":
                tokens.append(("static",))
            else:
                other_group = blocking_owner[0]
                tokens.append(("idle", other_group, self._timeline.runs.get(other_group, [None])[-1]))

        if tokens:
            self._to_backlog(entry, tuple(tokens), checks, states)
            return
        # the run stops at the first tick at or after its end, whose step 1 completes it
        end = clock + duration
        k = max(self._tick_index, math.floor((end - _CLOCK_EPS) / self.tick_length) - 1)
        while end > k * self.tick_length + _CLOCK_EPS:
            k += 1
        box = entry.placed and entry.placed.run_box(self.scene.robots[g], self.params)
        run = RunningRecord(entry.trajectory, clock, k * self.tick_length, duration, box)
        entry.placed = None
        self._timeline.runs[g].append(run)
        self._running[g] = entry
        self._requeue_due = True
        self._monitor.admit(g, box)
        entry.status = ExecStatus(StatusKind.RUNNING, start_time=clock)
        self._event("ADMITTED", entry, f"start={clock:.6f};checks={checks};states={states}")
