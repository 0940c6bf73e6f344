"""Asynchronous trajectory execution manager on a deterministic tick clock.

New submissions enter a continuous queue. On every tick the manager, in fixed
order: (1) completes finished trajectories, (2) moves backlog entries whose
blockers terminated back into the queue unless their deadline has come, (3)
aborts backlog entries at or past their deadline, (4) drains the queue through
the collision gate (admit or backlog; a new submission whose timeout ran out
before its first tick aborts), and (5) runs the periodic composite-state
monitor. Every arm's motion is one `collision.Timeline`: admission adds a run
that stops at the tick that completes it, and a cancel or halt stops it there
and then. The monitor measures only the pairs that may have come within the
margin since they were last measured (`collision.Monitor`). Admission may fail
against a running trajectory (blocker = its id), another arm parked in the
way (blocker "idle:<group>", re-checked when that arm's posture changes), or
a static obstacle (blocker "static", which only a timeout clears).

Each group keeps a chain: its unfinished entries in submission order. Only
the head of a chain may run; any later entry that reaches the gate is
backlogged behind the head, so a group's tasks never overtake each other.
An entry leaves its chain when it ends, whichever way it ends, and the run
is over when every chain is empty. An arm leaves the running set, by
completion, cancel or halt, parked where its trajectory has it.

Each scheduler time becomes a tick once, by the float rule of `_tick_at`: an
entry's deadline tick, a run's stop tick, the harness's submit ticks. The
steps compare ticks; the float clock is what the log prints. A tick below the
wake tick `_wake` only advances the clock; that one comparison is the whole
rule for skipping a tick. Step 1 acts only at a stop tick, 3 only at a
deadline tick, 4 only on a queued entry, 2 only when a requeue is due, and 5
only at a monitor tick at or after the monitor's `next_due` while an arm runs
(before it, `Monitor.check` finds no pair due). So a tick that runs the steps
and leaves no requeue due sets `_wake` to the earliest stop tick of a running
arm, deadline tick of a backlog entry and, while an arm runs, the first
monitor tick at or after `next_due` (none while it is inf); and `submit`
(which queues) and whatever makes a requeue due (an end, or an admission that
moves an arm a backlog entry waits on) lower it to the next tick. Only two
calls lower `next_due`, and each is followed by a recompute: `Monitor.admit`
runs in step 4, before the recompute of its tick; `Monitor.wake` runs only
when a cancel or a halt stops an arm before its end, and the `_finish` that
follows makes a requeue due, so the next tick runs the steps and recomputes.
A tick below the wake is thus one at which no step could act. Controllers
track trajectories perfectly, so identical inputs produce byte-identical
event logs. An event keeps typed values, formatted only when its line is
read, by `EVENT_FIELDS`: the one schema by which `Event.line` writes each
kind and `Event.parse` reads it.

`announce` names trajectories a caller will submit later (the harness names
its whole plan when the run checks parked arms), each validated as `submit`
validates it, and not again when submitted, so a bad plan raises before the
run and not inside a tick. The monitor then places each arm's announced
trajectories in one call, at the first sweep that needs one of them, and an
entry that ends without being admitted drops its placement; no event,
verdict or status depends on whether or what was announced.
"""

from __future__ import annotations

import logging
import math
import re
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# composite_state_check is not called here (the monitor runs Monitor.check),
# only looked up here by perfbench's tests; the benchmark's trace site and
# run_share metric for it read 0 for that reason, not for a cheaper monitor.
from .collision import (
    CheckParams,
    Monitor,
    RunningRecord,
    Scene,
    Timeline,
    composite_state_check,
    required_margin,
)
from .errors import LogInvalid, UnknownGroup, UnknownHandle, ValidationFailed
from .geometry import Owner, owner_str
from .kinematics import JointState, _is_index
from .trajectory import JointTrajectory, grid_size, validate

log = logging.getLogger(__name__)

# The event schema: each kind's detail fields in log order, with the printf
# format each value is written in (and its type: "f" float, "d" int, "s" str).
EVENT_FIELDS = {
    "SUBMITTED": {"group": "s", "timeout": ".6f"},
    "ADMITTED": {"start": ".6f", "checks": "d", "states": "d"},
    "BACKLOGGED": {"blockers": "s", "deadline": ".6f", "checks": "d", "states": "d"},
    "REQUEUED": {"trigger": "s"},
    "TIMEOUT_ABORT": {"deadline": ".6f"},
    "COLLISION_HALT": {"witness": "s", "clearance": ".9f"},
    "COMPLETED": {"finish": ".6f"},
    "CANCELLED": {"reason": "s"},
}
EVENT_KINDS = tuple(EVENT_FIELDS)
# by kind: the format of its line, the pattern that reads its detail back, each value's type
_SCHEMA = {kind: (f"%.6f\t{kind}\t%s\t" + ";".join(f"{k}=%{f}" for k, f in spec.items()),
                  re.compile(";".join(f"{k}=([^;]*)" for k in spec)),
                  [{"f": float, "d": int, "s": str}[f[-1]] for f in spec.values()])
           for kind, spec in EVENT_FIELDS.items()}

# Absolute slack for clock comparisons (ticks are >= 1e-3 s in practice).
_CLOCK_EPS = 1e-9

# Tolerance for the first-waypoint-equals-held-posture admission rule.
_START_TOL = 1e-9


def _tick_at(t: float, tick_length: float, k: int = 0) -> int:
    """The first tick from k on whose clock + _CLOCK_EPS >= t, or 2**53, which
    no run reaches, if that comes first: the one float rule of scheduler time."""
    k = max(k, math.floor(min((t - _CLOCK_EPS) / tick_length, 2**53)) - 1)
    while k < 2**53 and k * tick_length + _CLOCK_EPS < t:
        k += 1
    return k


def check_clock(tick_length: float, monitor_period: int) -> None:
    """The one check of a clock: a finite tick > 0 and a monitor period of whole ticks >= 1."""
    if not 0.0 < tick_length < math.inf:
        raise ValueError(f"tick must be finite and > 0, got {tick_length!r}")
    if not _is_index(monitor_period) or monitor_period < 1:
        raise ValueError(f"monitor_period must be an integer >= 1, got {monitor_period!r}")


class StatusKind(str, Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    BACKLOGGED = "Backlogged"
    SUCCEEDED = "Succeeded"
    ABORTED_TIMEOUT = "AbortedTimeout"
    ABORTED_COLLISION = "AbortedCollision"
    CANCELLED = "Cancelled"


_TERMINAL = set(StatusKind) - {StatusKind.PENDING, StatusKind.RUNNING, StatusKind.BACKLOGGED}


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


class Event(NamedTuple):
    """One log line; `values` are its kind's `EVENT_FIELDS`, in order."""

    clock: float
    kind: str
    trajectory_id: str
    values: tuple

    @property
    def fields(self) -> dict:
        return dict(zip(EVENT_FIELDS[self.kind], self.values, strict=True))

    @property
    def detail(self) -> str:
        return self.line().split("\t", 3)[3]

    def line(self) -> str:
        return _SCHEMA[self.kind][0] % (self.clock, self.trajectory_id, *self.values)

    @classmethod
    def parse(cls, line: str) -> Event:
        """`line`'s inverse, each value read by its format; `LogInvalid` if the schema has no such line."""
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 4 or cols[1] not in _SCHEMA:
            raise LogInvalid(f"not 4 tab-separated columns with a known event kind: {line!r}")
        clock, kind, trajectory_id, detail = cols
        match = _SCHEMA[kind][1].fullmatch(detail)
        if match is None:
            raise LogInvalid(f"{kind} needs the keys {list(EVENT_FIELDS[kind])} in this order: {line!r}")
        try:
            values = tuple([t(v) for t, v in zip(_SCHEMA[kind][2], match.groups())])
            return cls(float(clock), kind, trajectory_id, values)
        except ValueError as exc:
            raise LogInvalid(f"{exc}: {line!r}") from None


# Blocker tokens: ("traj", entry) | ("idle", group, its last run) | ("static",);
# an idle token is stale once admission or a stop replaced the group's last run.
@dataclass(eq=False)
class _Entry:
    handle: ExecHandle
    trajectory: JointTrajectory
    seq: int
    deadline: float
    deadline_tick: int
    status: ExecStatus
    blocker_tokens: tuple = ()


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
        check_clock(tick_length, monitor_period)
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
        # changed; set by _requeue_soon, cleared by step 2
        self._requeue_due = False
        self._wake = math.inf  # no step acts before this tick (see the module docstring)
        self._monitor = Monitor(scene.layout, self.params)
        self._announced: set[JointTrajectory] = set()  # validated by `announce`
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

    def announce(self, trajectories) -> None:
        """Name trajectories to be submitted later, each validated here as
        `submit` validates it (and not again when it is submitted), so that
        admission places each arm's announced ones at once (see the module
        docstring). An announced trajectory must not change: the monitor may
        place it at any later sweep. Changes no event, verdict or status."""
        trajectories = list(trajectories)
        for traj in trajectories:
            self._validate(traj)
        with self._lock:
            self._announced.update(trajectories)
            self._monitor.announce(trajectories)

    def submit(self, traj: JointTrajectory, timeout: float) -> ExecHandle:
        """Queue a trajectory; it is considered for admission on the next tick."""
        if traj not in self._announced:
            self._validate(traj)
        if not timeout > 0.0:
            raise ValueError("timeout must be > 0")
        with self._lock:
            handle = ExecHandle(id=f"s{self._seq}", group_id=traj.group_id)
            entry = _Entry(
                handle=handle,
                trajectory=traj,
                seq=self._seq,
                deadline=self.clock + timeout,
                deadline_tick=_tick_at(self.clock + timeout, self.tick_length),
                status=ExecStatus(StatusKind.PENDING),
            )
            self._seq += 1
            self._entries[handle.id] = entry
            self._chains[traj.group_id].append(entry)
            self._queue.append(entry)
            self._wake = min(self._wake, self._tick_index + 1)  # for step 4 to drain it
            self._event("SUBMITTED", entry, traj.group_id, timeout)
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
            self._finish(entry, "CANCELLED", StatusKind.CANCELLED, "user", start_time=start_time)
            return entry.status

    def tick(self) -> list[Event]:
        """Advance the clock one tick and run the scheduler steps in order.

        Never re-entrant; external submit/cancel/status calls serialize
        against it on the internal lock.
        """
        # taken by hand: on CPython 3.11 `with` costs an idle tick ~150 ns more
        self._lock.acquire()
        try:
            self._tick_index += 1
            if self._tick_index < self._wake:
                return []
            return self._tick_locked()
        finally:
            self._lock.release()

    def _tick_locked(self) -> list[Event]:
        k = self._tick_index
        clock = self.clock
        first_new = len(self.events)

        # 1) complete running trajectories at the stop their admission set
        for g, entry in list(self._running.items()):
            run = self._timeline.runs[g][-1]
            if run.stop_tick <= k:
                self._stop(g, run.trajectory.duration)
                self._finish(entry, "COMPLETED", StatusKind.SUCCEEDED, clock,
                             start_time=run.start_time, finish=clock)

        # 2) re-queue backlog entries whose blockers went away; an entry at
        # or past its deadline stays for step 3 to abort. No blocker can have
        # gone away unless an entry ended or a posture changed since the
        # last sweep.
        if self._requeue_due:
            self._requeue_due = False
            triggered = []
            for entry in self._backlog:
                if k >= entry.deadline_tick:
                    continue
                trigger = self._requeue_trigger(entry)
                if trigger is not None:
                    triggered.append((entry.seq, entry, trigger))
            for _, entry, trigger in sorted(triggered, key=lambda item: item[0]):
                self._backlog.remove(entry)
                entry.status = ExecStatus(StatusKind.PENDING)
                entry.blocker_tokens = ()
                self._queue.append(entry)
                self._event("REQUEUED", entry, trigger)

        # 3) abort backlog entries past their deadline
        for entry in list(self._backlog):
            if k >= entry.deadline_tick:
                self._backlog.remove(entry)
                self._finish(entry, "TIMEOUT_ABORT", StatusKind.ABORTED_TIMEOUT, entry.deadline, at=clock)

        # 4) drain the continuous queue through the collision gate
        while self._queue:
            self._try_admit(self._queue.popleft(), clock)

        # 5) periodic composite-state monitor
        if self._running and k % self.monitor_period == 0:
            report = self._monitor.check(clock, self._window)
            if report.colliding:
                halt = ("|".join(map(owner_str, report.witness)), report.min_clearance_seen)
                for g, entry in list(self._running.items()):
                    self._stop(g, clock - entry.status.start_time)
                    self._finish(entry, "COLLISION_HALT", StatusKind.ABORTED_COLLISION, *halt,
                                 start_time=entry.status.start_time, at=clock, witness=report.witness)

        # a tick that leaves a requeue due leaves the recompute to the next
        # tick, which runs the steps anyway (and keeps it off completion ticks)
        if not self._requeue_due:
            ticks = [self._timeline.runs[g][-1].stop_tick for g in self._running]
            next_due = self._monitor.next_due
            if ticks and next_due < math.inf:
                # a finite next_due is a window instant, bit for bit a monitor
                # tick's clock, so the division lands on that tick or one below
                tl, period = self.tick_length, self.monitor_period
                due = k + 1 if next_due < (k + 1) * tl else int(next_due / tl)
                ticks.append(-(-due // period) * period)
            self._wake = min(ticks + [e.deadline_tick for e in self._backlog], default=math.inf)
        return self.events[first_new:]

    # internal helpers

    def _validate(self, traj: JointTrajectory):
        if traj.group_id not in self.scene.robots:
            raise UnknownGroup(f"no robot group '{traj.group_id}' in scene")
        problems = validate(traj, self.scene.robots[traj.group_id])
        if problems:
            raise ValidationFailed(problems)

    def _lookup(self, handle: ExecHandle) -> _Entry:
        entry = self._entries.get(handle.id)
        if entry is None:
            raise UnknownHandle(f"unknown handle '{handle.id}'")
        return entry

    def _event(self, kind: str, entry: _Entry, *values):
        self.events.append(Event(self.clock, kind, entry.trajectory.id, values))

    def _stop(self, g: str, elapsed: float):
        """Take group g off the running set, parked `elapsed` s into its run;
        parked before its end, it left the motion the monitor's last window
        planned for it, so its pairs are due again."""
        del self._running[g]
        self._timeline.park(g, self.clock, elapsed, self._tick_index)
        if elapsed < self._timeline.runs[g][-1].trajectory.duration:
            self._monitor.wake(g)

    def _window(self, groups: list[str], limit: int):
        """The monitor's look-ahead (see `collision.Monitor.check`): the check
        instants from now to the first at or after the last stop among the
        running arms of `groups`, cut to `limit` (the third value says whether
        they were), each bit for bit the clock of its live check, and the
        timeline read at them."""
        stops = [self._timeline.runs[g][-1].stop_tick for g in groups if g in self._running]
        k0, period = self._tick_index, self.monitor_period
        last = k0 + -(-(max(stops, default=k0) - k0) // period) * period
        end = min(last, k0 + (limit - 1) * period)
        times = np.arange(k0, end + 1, period) * self.tick_length
        return times, self._timeline.at(groups, times), last > end

    def _finish(self, entry: _Entry, event: str, kind: StatusKind, *values, **status):
        """The one terminal transition: final status, out of the chain, logged;
        an entry never admitted drops its placement."""
        if entry.status.kind is not StatusKind.RUNNING:
            self._monitor.drop(entry.trajectory)
        entry.status = ExecStatus(kind, **status)
        self._chains[entry.handle.group_id].remove(entry)
        self._requeue_soon()
        self._event(event, entry, *values)

    def _requeue_soon(self):
        """Make a requeue due, and the next tick one that runs the steps."""
        self._requeue_due = True
        if self._wake > self._tick_index:
            self._wake = self._tick_index + 1

    def _requeue_trigger(self, entry: _Entry) -> str | None:
        for token in entry.blocker_tokens:
            if (token[0] == "traj" and token[1].status.terminal
                    or token[0] == "idle" and self._timeline.runs.get(token[1], [None])[-1] is not token[2]):
                return _token_label(token)
        return None

    def _to_backlog(self, entry: _Entry, tokens: tuple, checks: int, states: int):
        labels = [_token_label(t) for t in tokens]
        entry.blocker_tokens = tokens
        entry.status = ExecStatus(StatusKind.BACKLOGGED, blockers=frozenset(labels))
        self._backlog.append(entry)
        self._event("BACKLOGGED", entry, ",".join(labels), entry.deadline, checks, states)

    def _try_admit(self, entry: _Entry, clock: float):
        g = entry.handle.group_id

        # step 2 requeues only entries before their deadline, so this is a
        # new submission with a timeout shorter than the wait for its tick
        if self._tick_index >= entry.deadline_tick:
            self._finish(entry, "TIMEOUT_ABORT", StatusKind.ABORTED_TIMEOUT, entry.deadline, at=clock)
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
        if np.abs(entry.trajectory.positions[0] - self._timeline.rest(g)).max() > _START_TOL:
            self._finish(entry, "CANCELLED", StatusKind.CANCELLED, "mismatched_start")
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
        # a sweep with nothing to check still places the candidate, to box its run
        reports = self._monitor.sweep(entry.trajectory, clock, self._timeline, running, parked)
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
        k = _tick_at(clock + duration, self.tick_length, self._tick_index)
        run = RunningRecord(entry.trajectory, clock, k * self.tick_length, duration, k)
        self._timeline.runs[g].append(run)
        self._running[g] = entry
        # the new run makes stale only an idle token on this arm
        if any(t[0] == "idle" and t[1] == g for e in self._backlog for t in e.blocker_tokens):
            self._requeue_soon()
        self._monitor.admit(g, entry.trajectory)
        entry.status = ExecStatus(StatusKind.RUNNING, start_time=clock)
        self._event("ADMITTED", entry, clock, checks, states)
