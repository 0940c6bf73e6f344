"""Scenario files, a straight-line joint planner, run drivers, and metrics.

A scenario is a JSON document with top-level keys `robots`, `obstacles`,
`tasks`, `params` (lengths in meters, angles in radians). Tasks are
planned as straight joint-space segments chained per group (each task starts
at the previous task's goal) and submitted to the execution manager at their
submit times. `run` drives either the asynchronous manager or the serialized
synchronous baseline and reports metrics recomputed purely from the event
log, so emitted numbers are reproducible from the log alone.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .collision import PAIR_SAMPLES, CheckParams, RunningRecord, Scene, Timeline, pair_clearances
from .errors import JointLimitViolation, ScenarioInvalid, TickBudgetExceeded
from .executor import Event, ExecutionManager, ExecStatus, ExecHandle, _tick_at, check_clock
from .geometry import Capsule, PlacedPrimitive, Sphere
from .kinematics import JointSpec, JointState, LinkGeometry, RobotModel, pose, within_limits
from .trajectory import JointTrajectory, time_grid

CSV_HEADER = [
    "mode",
    "makespan_s",
    "mean_wait_s",
    "backlog_entries",
    "timeout_aborts",
    "collision_halts",
    "pairwise_checks",
    "state_evaluations",
    "overhead_s",
]

FIXTURES = ("disjoint.json", "crossing.json", "timeout.json", "panda_like_shared.json")

# samples per admission check, whose grid spans at most the longest planned
# task: crossing.json at 100 000 samples per check (its longest, 2 s move at
# a 2e-5 s step) runs in ~1 s and peaks at ~165 MB on a 2-vCPU x86-64 VM; a
# finer time_step is refused before it exhausts memory
_MAX_GRID = 100_000

# ticks a run may take to cover any time it states (its last submit_time, its
# longest planned motion, its longest timeout): the clock advances one tick
# per step, and 1 000 000 idle ticks take ~1 s on a 2-vCPU x86-64 VM; a longer
# stated time or a finer tick is refused before the run starts
_MAX_TICKS = 1_000_000


@dataclass(frozen=True, eq=False)
class Task:
    group_id: str
    goal: JointState
    submit_time: float = 0.0
    timeout: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.submit_time < math.inf:
            raise ValueError(f"a task of {self.group_id!r} needs a finite submit_time >= 0")
        if self.timeout is not None and not 0.0 < self.timeout < math.inf:
            raise ValueError(f"a task of {self.group_id!r} needs a finite timeout > 0")


@dataclass(frozen=True)
class RunParams:
    check: CheckParams = field(default_factory=CheckParams)
    tick_length: float = 0.01
    monitor_period: int = 5
    default_timeout: float = 30.0
    check_static: bool = True

    def __post_init__(self):
        check_clock(self.tick_length, self.monitor_period)
        if not 0.0 < self.default_timeout < math.inf:
            raise ValueError("default_timeout must be finite and > 0")
        if not isinstance(self.check_static, bool):
            raise ValueError(f"check_static must be true or false, got {self.check_static!r}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A scene, the tasks its arms run and the run's settings; `ValueError`
    if a task names an arm the scene lacks or a goal that arm cannot take."""

    scene: Scene
    tasks: tuple[Task, ...]
    params: RunParams = field(default_factory=RunParams)

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        for i, task in enumerate(self.tasks):
            if not isinstance(task.group_id, str) or task.group_id not in self.scene.robots:
                raise ValueError(f"task {i} references unknown group '{task.group_id}'")
            model = self.scene.robots[task.group_id]
            if task.goal.positions.shape != (model.n_joints,):
                raise ValueError(f"task {i} goal needs {model.n_joints} joint values")
            if not within_limits(model, task.goal):
                raise ValueError(f"task {i} goal outside joint limits")


@dataclass
class Metrics:
    mode: str
    makespan: float
    mean_wait: float
    backlog_entries: int
    timeout_aborts: int
    collision_halts: int
    pairwise_checks: int
    state_evaluations: int
    overhead: float

    def row(self) -> list[str]:
        """The CSV row: the times to the microsecond, the counts as integers."""
        return [f"{v:.6f}" if isinstance(v, float) else str(v) for v in vars(self).values()]


@dataclass(eq=False)
class RunResult:
    metrics: Metrics
    lines: list[str]
    trajectories: dict[str, JointTrajectory]
    statuses: dict[str, ExecStatus]


def plan_joint_line(
    model: RobotModel, q_start: JointState, q_goal: JointState, traj_id: str | None = None
) -> JointTrajectory:
    """Straight joint-space segment at the binding joint's velocity limit.

    Duration is max_j |goal_j - start_j| / vlim_j; every other joint moves
    proportionally slower. A zero-length move yields a single waypoint.
    """
    for q in (q_start, q_goal):
        if not within_limits(model, q, tol=1e-9):
            raise JointLimitViolation(f"{model.group_id}: endpoint outside joint limits")
    delta = np.abs(q_goal.positions - q_start.positions)
    duration = float(np.max(delta / model.joint_velocity_limits)) if delta.size else 0.0
    if duration == 0.0:
        times = [0.0]
        positions = [q_start.positions]
    else:
        times = [0.0, duration]
        positions = [q_start.positions, q_goal.positions]
    kwargs = {} if traj_id is None else {"id": traj_id}
    return JointTrajectory(group_id=model.group_id, times=times, positions=positions, **kwargs)


def plan_tasks(scenario: Scenario) -> list[JointTrajectory]:
    """Chained straight-line trajectories, one per task, ids t0, t1, ..."""
    cursors = {g: scenario.scene.idle_postures[g] for g in scenario.scene.robots}
    planned = []
    for i, task in enumerate(scenario.tasks):
        model = scenario.scene.robots[task.group_id]
        traj = plan_joint_line(model, cursors[task.group_id], task.goal, traj_id=f"t{i}")
        cursors[task.group_id] = task.goal
        planned.append(traj)
    return planned


def run(scenario: Scenario, mode: str = "async") -> RunResult:
    """Execute a scenario end to end and collect metrics from the event log."""
    if mode not in ("async", "sync"):
        raise ScenarioInvalid(f"mode must be 'async' or 'sync', got '{mode}'")
    trajectories = plan_tasks(scenario)
    p = scenario.params
    longest = max((t.duration for t in trajectories), default=0.0)
    if longest > _MAX_GRID * p.check.dt:
        raise ScenarioInvalid(
            f"time_step {p.check.dt} needs over {_MAX_GRID} samples per check of a {longest:g} s task"
        )
    last_submit = max((t.submit_time for t in scenario.tasks), default=0.0)
    timeouts = [t.timeout or p.default_timeout for t in scenario.tasks]
    for what, s in (("submit_time", last_submit), ("motion", longest),
                    ("timeout", max(timeouts, default=0.0))):
        if s > _MAX_TICKS * p.tick_length:
            raise ScenarioInvalid(
                f"{what} {s:g} s needs over {_MAX_TICKS} ticks of {p.tick_length:g} s"
            )
    mgr = ExecutionManager(
        scenario.scene,
        params=p.check,
        tick_length=p.tick_length,
        monitor_period=p.monitor_period,
        check_static=p.check_static,
        serialized=(mode == "sync"),
    )
    # with the check against parked arms off, arms that drive into parked
    # ones are halted and the rest of their programs never reach the gate,
    # so their trajectories are not placed ahead of their sweeps
    if p.check_static:
        mgr.announce(trajectories)
    order = sorted(range(len(scenario.tasks)), key=lambda i: scenario.tasks[i].submit_time)
    submit_ticks = [_tick_at(scenario.tasks[i].submit_time, mgr.tick_length) for i in order]
    handles: list[ExecHandle] = []
    idx, n = 0, len(order)
    budget = sum(t.duration for t in trajectories) + sum(timeouts) + (last_submit + 1.0)
    max_ticks = int(budget / p.tick_length) + 10
    # k mirrors mgr.tick_index: each tick() advances it by exactly one
    k, tick = mgr.tick_index, mgr.tick
    # an entry ends only on a tick that logs it, so ask only after such ticks
    logged = True
    while True:
        while idx < n and submit_ticks[idx] <= k:
            handles.append(mgr.submit(trajectories[order[idx]], timeouts[order[idx]]))
            idx += 1
        if idx == n and logged and mgr.all_terminal():
            break
        if k == max_ticks:
            raise TickBudgetExceeded("scenario did not quiesce within the tick budget")
        logged = tick()
        k += 1
    lines = mgr.event_lines()
    statuses = {h.id: mgr.status(h) for h in handles}
    return RunResult(
        metrics=metrics_from_events(lines, mode),
        lines=lines,
        trajectories={t.id: t for t in trajectories},
        statuses=statuses,
    )


def metrics_from_events(lines, mode: str) -> Metrics:
    """Recompute all metrics purely from event-log lines.

    The per-group execution lower bound (for the overhead column) uses
    admitted-to-completed spans, so everything derives from the log. A line
    the event schema does not describe raises `LogInvalid`.
    """
    events = [Event.parse(line) for line in lines]
    submitted: dict[str, float] = {}
    groups: dict[str, str] = {}
    admitted: dict[str, float] = {}
    completed: dict[str, float] = {}
    for e in events:
        if e.kind == "SUBMITTED":
            submitted.setdefault(e.trajectory_id, e.clock)
            groups[e.trajectory_id] = e.fields["group"]
        elif e.kind == "ADMITTED":
            admitted.setdefault(e.trajectory_id, e.clock)
        elif e.kind == "COMPLETED":
            completed[e.trajectory_id] = e.clock
    kinds = [e.kind for e in events]
    attempts = [e.fields for e in events if e.kind in ("ADMITTED", "BACKLOGGED")]

    makespan = 0.0
    if submitted and completed:
        makespan = max(completed.values()) - min(submitted.values())
    waits = [admitted[t] - submitted[t] for t in admitted if t in submitted]
    mean_wait = float(np.mean(waits)) if waits else 0.0
    per_group_exec: dict[str, float] = {}
    for t, finish in completed.items():
        if t in admitted:
            g = groups.get(t, "")
            per_group_exec[g] = per_group_exec.get(g, 0.0) + (finish - admitted[t])
    lower_bound = max(per_group_exec.values(), default=0.0)
    return Metrics(
        mode=mode,
        makespan=makespan,
        mean_wait=mean_wait,
        backlog_entries=kinds.count("BACKLOGGED"),
        timeout_aborts=kinds.count("TIMEOUT_ABORT"),
        collision_halts=len({e.clock for e in events if e.kind == "COLLISION_HALT"}),
        pairwise_checks=sum(f["checks"] for f in attempts),
        state_evaluations=sum(f["states"] for f in attempts),
        overhead=makespan - lower_bound,
    )


def write_metrics(metrics, path) -> None:
    """Write one CSV row per Metrics with the fixed header."""
    rows = metrics if isinstance(metrics, (list, tuple)) else [metrics]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for m in rows:
            writer.writerow(m.row())


def write_events(lines, path) -> None:
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def replay_min_clearance(scenario: Scenario, result: RunResult, factor: int = 10) -> float:
    """Dense post-hoc audit of an executed run.

    Rebuilds the executed motion from the event log as a Timeline (a run per
    admission, parked by its completion, halt or cancellation), samples it at
    tick_length/factor, and returns the minimum cross-robot / robot-static
    clearance over the whole run. Self-collision pairs are not part of this
    audit. Returns +inf for runs with no sampled interaction. `factor` must be
    finite and > 0. A line the event schema does not describe raises `LogInvalid`.
    """
    if not 0 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 0, got {factor!r}")
    events = [Event.parse(line) for line in result.lines]
    if not events:
        return float("inf")
    end = max(e.clock for e in events)
    timeline = Timeline(dict(scenario.scene.idle_postures))
    for e in events:
        traj = result.trajectories[e.trajectory_id]
        run = timeline.runs.get(traj.group_id, [None])[-1]
        if e.kind == "ADMITTED":
            timeline.runs[traj.group_id].append(RunningRecord(traj, e.clock))
        elif e.kind in ("COMPLETED", "COLLISION_HALT", "CANCELLED") and run and run.trajectory is traj:
            elapsed = traj.duration if e.kind == "COMPLETED" else e.clock - run.start_time
            timeline.park(traj.group_id, e.clock, elapsed)

    # all cross-robot and robot-static pairs of the scene's layout, unfiltered
    # (infinite margin), a bounded number of samples per kernel call
    ts = time_grid(end, scenario.params.tick_length / factor) if end > 0 else np.zeros(1)
    layout = scenario.scene.layout
    ii, jj = layout.ii[layout.n_self :], layout.jj[layout.n_self :]
    step = max(1, PAIR_SAMPLES // max(1, len(ii)))
    best = float("inf")
    for lo in range(0, len(ts), step):
        p0, p1 = layout.spread(layout.place(timeline.at(layout.groups, ts[lo : lo + step])))
        clear = pair_clearances(p0, p1, layout.radii, ii, jj, math.inf)
        if clear.size:
            best = min(best, float(clear.min()))
    return best


# scenario (de)serialization


def _number(value, what: str) -> float:
    """A JSON number, which a boolean is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioInvalid(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(values, what: str) -> list[float]:
    """A JSON array of numbers."""
    return [_number(v, what) for v in values]


def _shape_from_dict(d: dict):
    if "capsule" in d:
        c = d["capsule"]
        return Capsule(p0=_numbers(c["p0"], "p0"), p1=_numbers(c["p1"], "p1"),
                       radius=_number(c["radius"], "radius"))
    if "sphere" in d:
        s = d["sphere"]
        return Sphere(center=_numbers(s["center"], "center"), radius=_number(s["radius"], "radius"))
    raise ScenarioInvalid(f"shape must be 'capsule' or 'sphere', got keys {sorted(d)}")


def robot_from_dict(d: dict) -> tuple[RobotModel, JointState]:
    joints = []
    vlimits = []
    for j in d["joints"]:
        joints.append(
            JointSpec.from_xyz_rpy(
                axis=_numbers(j["axis"], "axis"),
                xyz=_numbers(j.get("origin_xyz", (0.0, 0.0, 0.0)), "origin_xyz"),
                rpy=_numbers(j.get("origin_rpy", (0.0, 0.0, 0.0)), "origin_rpy"),
                limits=_numbers(j.get("position_limits", (-np.pi, np.pi)), "position_limits"),
            )
        )
        vlimits.append(_number(j["velocity_limit"], "velocity_limit"))
    links = [LinkGeometry(frame=l["joint"], shape=_shape_from_dict(l)) for l in d["links"]]
    base = d.get("base_pose", {})
    model = RobotModel(
        group_id=d["group_id"],
        base_pose=pose(_numbers(base.get("xyz", (0, 0, 0)), "base_pose.xyz"),
                       _numbers(base.get("rpy", (0, 0, 0)), "base_pose.rpy")),
        joints=joints,
        links=links,
        joint_velocity_limits=vlimits,
        allowed_pairs={tuple(p) for p in d.get("allowed_pairs", [])},
    )
    idle = JointState(d["group_id"], _numbers(d["idle_posture"], "idle_posture"))
    return model, idle


def scenario_from_dict(data: dict) -> Scenario:
    try:
        if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
            raise ScenarioInvalid("a scenario and its params must be JSON objects")
        robots = {}
        idles = {}
        for rd in data["robots"]:
            model, idle = robot_from_dict(rd)
            if model.group_id in robots:
                raise ScenarioInvalid(f"group_id {model.group_id!r} names two robots")
            robots[model.group_id] = model
            idles[model.group_id] = idle
        obstacles = [
            PlacedPrimitive(shape=_shape_from_dict(od), owner=("static", k))
            for k, od in enumerate(data.get("obstacles", []))
        ]
        scene = Scene(robots=robots, idle_postures=idles, static_obstacles=obstacles)
        tasks = [
            Task(
                group_id=td["group_id"],
                goal=JointState(td["group_id"], _numbers(td["goal"], "goal")),
                submit_time=_number(td.get("submit_time", 0.0), "submit_time"),
                timeout=_number(td["timeout"], "timeout") if "timeout" in td else None,
            )
            for td in data.get("tasks", [])
        ]
        pd = data.get("params", {})
        params = RunParams(
            check=CheckParams(
                dt=_number(pd.get("time_step", 0.05), "time_step"),
                margin=_number(pd.get("margin", 0.02), "margin"),
            ),
            tick_length=_number(pd.get("tick", 0.01), "tick"),
            monitor_period=pd.get("monitor_period", 5),
            default_timeout=_number(pd.get("default_timeout", 30.0), "default_timeout"),
            check_static=pd.get("check_static", True),
        )
        return Scenario(scene=scene, tasks=tasks, params=params)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioInvalid(f"malformed scenario: {exc}") from exc


def load_scenario(path, params=None) -> Scenario:
    """The one reader of scenario files: a UTF-8 JSON file, each key of `params`
    written over its own params; `ScenarioInvalid` if it cannot be read or
    is not a scenario."""
    try:
        text = Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # no such file, or a name no file can have (a NUL byte)
        raise ScenarioInvalid(f"cannot read the scenario {str(path)!r}: {exc}") from exc
    try:
        data = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
        raise ScenarioInvalid(f"{path} is not a JSON document: {exc}") from exc
    if params and isinstance(data, dict) and isinstance(data.get("params", {}), dict):
        data["params"] = {**data.get("params", {}), **params}
    return scenario_from_dict(data)


def fixture_path(name: str) -> Path:
    """Path of one of the shipped scenario files (see FIXTURES)."""
    return Path(str(resources.files("multiarm").joinpath("scenarios", name)))
