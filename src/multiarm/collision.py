"""Time-dependent collision checking for trajectories and composite states.

Every check reads arm motion through one rule, `Timeline.at`, and runs
through one kernel, `pair_clearances`. The arms a check involves are placed
(`Layout.place`) and spread with the static obstacles into flat (T, S, 3)
segment-endpoint arrays (T sampled times, S primitives; `Layout.spread`). The
check is a list of index pairs into them, and one call returns the signed
clearance (segment distance minus radii) of every pair at every sample. A
pair whose AABBs, inflated by margin/2, do not overlap reads infinitely
clear (`FAR`), which is sound because its clearance exceeds the margin.

The cull, and all other collision state a manager keeps between calls,
has one owner: its `Monitor`, whose admission sweeps (`Monitor.sweep`) and
checks both read its box table. Each row's box, inflated by margin/2, holds
the row at every instant until the next admission of its arm: an
obstacle's is fixed; an arm that never ran is unbounded until a sweep
places its idle posture, then boxed there; a running arm has its run's box
(`Monitor.admit`); a stopped arm keeps that box until a sweep places its
held row, then has that row's. A candidate's links are boxed over its motion
alike. A pair whose boxes are apart on some axis is one the AABB test prunes
at every instant, so it reads `FAR` unmeasured, and an arm left with no pair
is neither read nor placed.

A configuration is *colliding* when the minimum clearance is <= margin. The
witness of a colliding check is the first pair, in the check's pair order,
that attains the minimum at the first colliding sample. Culling keeps the
pair order and drops only pairs whose clearance exceeds the margin, so it
changes neither verdicts nor witnesses, nor the minimum of a colliding check.

`Monitor.check` also skips pairs over time. A check that finds pairs
due puts to sleep for good those the cull drops (an admission, which
replaces its arm's boxes, wakes them), measures the rest at every remaining
check instant of the planned motion at once, its window, and puts each to
sleep until its first instant at or below the margin: for good if there is
none, as the arms are still from the window's last instant on, or until that
instant if the window was cut short to bound its memory. A window sample is
the value a live check at that instant computes, so a pair the monitor skips
at a check was measured above the margin at exactly that instant. An arm
that leaves its plan (a new motion, or a stop before its end) wakes its pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, JointLimitViolation, MissingGroupState, UnknownGroup
from .geometry import FAR, Owner, PlacedPrimitive, pair_clearances, segment_aabbs, segments_of
from .kinematics import _LIMIT_SLACK, ArmStack, JointState, RobotModel, within_limits
from .trajectory import JointTrajectory, grid_size, states_at, time_grid

# pair-samples per kernel call of the monitor's window and of the replay
# audit (and row-samples per placement of a window), to bound their memory
PAIR_SAMPLES = 100_000


@dataclass(eq=False)
class Scene:
    """Robot models, their idle postures, and static obstacles.

    Not edited once checked: the checks' layout is built on first use and kept.
    """

    robots: dict[str, RobotModel]
    idle_postures: dict[str, JointState]
    static_obstacles: list[PlacedPrimitive]

    def __post_init__(self):
        if set(self.robots) != set(self.idle_postures):
            raise ValueError("idle_postures must cover exactly the robot groups")
        for g, model in self.robots.items():
            q = self.idle_postures[g]
            if q.positions.shape != (model.n_joints,):
                raise ValueError(f"idle posture for {g} has wrong dimension")
            if not within_limits(model, q):
                raise ValueError(f"idle posture of '{g}' outside joint limits")
        for prim in self.static_obstacles:
            if prim.owner[0] != "static":
                raise ValueError("static obstacles must be owned by 'static'")

    @cached_property
    def layout(self) -> Layout:
        return Layout(self.robots, self.static_obstacles)


@dataclass(frozen=True, eq=False)
class RunningRecord:
    """A trajectory run from the absolute `start_time`, held `elapsed` s in from `stop` on."""

    trajectory: JointTrajectory
    start_time: float
    stop: float = math.inf
    elapsed: float = math.inf
    stop_tick: int | None = None  # the index of the executor's tick at `stop`, if known

    def __post_init__(self):
        if self.start_time < 0.0:
            raise ValueError("start_time must be >= 0")

    @cached_property
    def held(self) -> np.ndarray:
        """The (1, J) row the arm holds from `stop` on."""
        return states_at(self.trajectory, [self.elapsed])


@dataclass(eq=False)
class Timeline:
    """Each arm's held posture, and the runs it makes from it in start order,
    each stopped before the next starts. Every check reads arm motion through
    `at`, by one rule: at an instant, an arm is in the last run it started by
    then, read `(since - start_time) + times` into its trajectory and at
    `elapsed` from `stop` on, or before its first run at its held posture."""

    held: dict[str, JointState]
    runs: dict[str, list[RunningRecord]] = field(default_factory=lambda: defaultdict(list))

    def park(self, g: str, stop: float, elapsed: float, stop_tick: int | None = None):
        """Hold arm g `elapsed` s into its last run from `stop` (tick `stop_tick`) on."""
        run = self.runs[g][-1]  # built directly: `dataclasses.replace` costs twice as much
        self.runs[g][-1] = RunningRecord(run.trajectory, run.start_time, stop, elapsed, stop_tick)

    def rest(self, g: str, k: int | None = None) -> np.ndarray:
        """The (1, J) row arm g holds after its first k runs (all of them by
        default): the last one's held row, or its posture before any."""
        if k is None:
            k = len(self.runs.get(g, ()))
        return self.runs[g][k - 1].held if k else self.held[g].positions[None]

    def at(self, groups, times, since: float = 0.0) -> dict[str, np.ndarray]:
        """Each arm's (n, J) positions at the instants `since + times` (ascending),
        or one (1, J) row if it is held at all of them."""
        times = np.asarray(times, dtype=float)
        q = {}
        for g in groups:
            runs = self.runs.get(g, [])
            # the runs from the last one stopped by the first instant on
            k = next((k for k in range(len(runs), 0, -1) if since + times[0] >= runs[k - 1].stop), 0)
            rows = self.rest(g, k)
            for run in runs[k:]:
                e = (since - run.start_time) + times
                if e[-1] < 0.0:
                    break
                if since + times[-1] >= run.stop:
                    e = np.where(since + times >= run.stop, run.elapsed, e)
                read = states_at(run.trajectory, e if e[0] >= 0.0 else np.maximum(e, 0.0))
                rows = read if e[0] >= 0.0 else np.where((e >= 0.0)[:, None], read, rows)
            q[g] = rows
        return q


@dataclass(frozen=True)
class CollisionReport:
    colliding: bool
    first_collision_time: float | None
    witness: tuple[Owner, Owner] | None
    min_clearance_seen: float


_CLEAR = CollisionReport(False, None, None, FAR)


@dataclass(frozen=True)
class CheckParams:
    """Discretization step and clearance threshold for all checks."""

    dt: float = 0.05
    margin: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0.0 <= self.margin < math.inf:
            raise ValueError("margin must be finite and >= 0")


def required_margin(model_a: RobotModel, model_b: RobotModel | None, dt: float) -> float:
    """Smallest margin making discrete checking at step dt conservative.

    With both bodies bounded by their cartesian speed bounds, clearance can
    shrink by at most (v_a + v_b) * dt between samples; requiring
    margin >= 2 * (v_a + v_b) * dt guarantees a clearance that ever reaches
    zero is seen at or below the margin on the sample grid.
    """
    combined = model_a.max_cartesian_speed_bound
    if model_b is not None:
        combined += model_b.max_cartesian_speed_bound
    return 2.0 * combined * dt


def _report(times, clear, owners, ii, jj, margin) -> CollisionReport:
    """Verdict of a (T, P) clearance block; the witness is the first pair, in
    pair order, that attains the minimum at the first colliding sample."""
    if clear.size == 0:
        return _CLEAR
    min_seen = float(clear.min())
    if min_seen > margin:
        return CollisionReport(False, None, None, min_seen)
    k = int(np.nonzero(clear.min(axis=1) <= margin)[0][0])
    j = int(np.argmin(clear[k]))
    return CollisionReport(True, float(times[k]), (owners[ii[j]], owners[jj[j]]), min_seen)


class Layout:
    """Flat segment layout of a set of arms and the static obstacles.

    Rows are the arms' links, arm by arm in sorted group order (`rows[g]`),
    then the static obstacles (`static_rows`); `owners` and `radii` cover
    every row. Arms that share joint count and link frames are placed
    together by one ArmStack. The monitor's pair list is fixed here, in the
    order that defines its witness: the self pairs of each arm not exempted
    by allowed_pairs (arms in sorted order), then the cross pairs of arms
    gi < gj (links of gi major), then each arm's links against every
    obstacle. The first `n_self` pairs are the self pairs. `arm` is each
    row's arm, by index into `groups` (`index`); obstacles get the last index.
    """

    def __init__(self, robots: dict[str, RobotModel], static_obstacles: list[PlacedPrimitive]):
        self.robots = robots
        self.groups = sorted(robots)
        by_structure: dict[tuple, list[str]] = {}
        for g in self.groups:
            by_structure.setdefault((robots[g].n_joints, robots[g]._frames.tobytes()), []).append(g)
        self._slot: dict[str, tuple[ArmStack, int]] = {}
        for members in by_structure.values():
            stack = ArmStack([robots[g] for g in members])
            self._slot.update((g, (stack, i)) for i, g in enumerate(members))
        starts = np.cumsum([0] + [robots[g].n_links for g in self.groups])
        self.rows = {g: range(a, b) for g, a, b in zip(self.groups, starts, starts[1:])}
        self.static_rows = range(starts[-1], starts[-1] + len(static_obstacles))
        s0, s1, sr = segments_of(static_obstacles)
        self._static_ends = s0, s1
        self.owners = [o for g in self.groups for o in robots[g].owners()]
        self.owners += [p.owner for p in static_obstacles]
        self.radii = np.concatenate([robots[g]._radii for g in self.groups] + [sr])
        rows = [self.rows[g] for g in self.groups]
        pairs = [
            (r[i], r[j])
            for g, r in zip(self.groups, rows)
            for i in range(len(r))
            for j in range(i + 1, len(r))
            if (i, j) not in robots[g].allowed_pairs
        ]
        self.n_self = len(pairs)
        pairs += [(i, j) for a, ra in enumerate(rows) for rb in rows[a + 1 :] for i in ra for j in rb]
        pairs += [(i, j) for r in rows for i in r for j in self.static_rows]
        self.ii, self.jj = np.array(pairs, dtype=int).reshape(-1, 2).T

        self.index = {g: k for k, g in enumerate(self.groups)}
        counts = [robots[g].n_links for g in self.groups] + [len(static_obstacles)]
        self.arm = np.repeat(np.arange(len(counts)), counts)

    def place(self, q: dict[str, np.ndarray]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each arm's links placed: {g: (e0, e1)}, each (m, L, 3) with row
        min(t, m - 1) the arm at sample t (`spread`'s rule).

        q[g] is an (n, J) batch of configurations of arm g, or a (1, J)
        configuration held at every sample; each must fit the arm's joint
        count and limits (with the rounding slack that interpolated states
        need). Each ArmStack places its arms in one call, each arm's rows
        up to its trailing run of bit-identical rows, so a held tail is placed
        once and m is the count of rows up to it.
        """
        batches: dict[ArmStack, list[str]] = {}
        for g, qg in q.items():
            if g not in self.robots:
                raise UnknownGroup(f"no robot model for group '{g}'")
            if np.shape(qg)[1:] != (self.robots[g].n_joints,) or not len(qg):
                raise DimensionMismatch(f"{g}: expected rows of {self.robots[g].n_joints} joint values")
            batches.setdefault(self._slot[g][0], []).append(g)
        placed = {}
        for stack, groups in batches.items():
            qs = [_distinct_rows(q[g]) for g in groups]
            kept = np.array([len(qg) for qg in qs])
            member = np.repeat(np.arange(len(groups)), kept)  # each row's index into groups
            arms, qs = np.array([self._slot[g][1] for g in groups])[member], np.concatenate(qs)
            lo, hi = (stack.arrays[name][arms] for name in ("_lo", "_hi"))
            ok = (qs >= lo - _LIMIT_SLACK) & (qs <= hi + _LIMIT_SLACK)
            if not ok.all():
                bad = np.flatnonzero(~ok.all(axis=1))[0]
                raise JointLimitViolation(f"{groups[member[bad]]}: state outside joint limits")
            a0, a1 = stack.place(qs, arms)
            ends = np.cumsum(kept)
            placed.update((g, (a0[b - m : b], a1[b - m : b])) for g, b, m in zip(groups, ends, kept))
        return placed

    def spread(self, placed: dict[str, tuple]) -> tuple[np.ndarray, np.ndarray]:
        """The kernel's endpoints (n, S, 3): the static rows at every sample,
        and each arm of `placed`, given as `place` gives it, at sample t its
        row min(t, m - 1). n is the most rows of any arm (1 if none), so no
        sample past every arm's held tail is built: it would repeat the last.
        The rows of other arms are NaN, so a check must not pair them."""
        n = max([1] + [len(e0) for e0, _ in placed.values()])
        p0 = np.full((n, len(self.owners), 3), np.nan)
        p1 = np.full((n, len(self.owners), 3), np.nan)
        p0[:, self.static_rows], p1[:, self.static_rows] = self._static_ends
        for g, (e0, e1) in placed.items():
            at = slice(None) if len(e0) in (1, n) else np.minimum(np.arange(n), len(e0) - 1)
            rows = slice(self.rows[g].start, self.rows[g].stop)
            p0[:, rows], p1[:, rows] = e0[at], e1[at]
        return p0, p1


def _distinct_rows(q) -> np.ndarray:
    """q up to and including the first row of its trailing run of bit-identical rows."""
    q = np.ascontiguousarray(q, dtype=float)
    changed = np.flatnonzero((q[1:].view(np.uint64) != q[:-1].view(np.uint64)).any(axis=1))
    return q[: changed[-1] + 2 if changed.size else 1]


def _box(e0, e1, radii, inflate: float) -> np.ndarray:
    """(L, 6) boxes (lo xyz, hi xyz), each around one capsule of endpoint rows
    (m, L, 3) at every row, as `pair_clearances` boxes it at a margin of 2 * inflate."""
    lo, hi = segment_aabbs(e0, e1, radii, inflate)
    return np.concatenate([lo.min(axis=0), hi.max(axis=0)], axis=1)


# an unbounded box (lo xyz, hi xyz), and the sign of each column's growth
_OPEN = np.array([[-math.inf] * 3 + [math.inf] * 3])
_SIGN = np.repeat([-1.0, 1.0], 3)


def _apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether boxes a and b (..., 6), broadcast together, are apart on some axis (NaN: never)."""
    return (np.maximum(a[..., :3], b[..., :3]) > np.minimum(a[..., 3:], b[..., 3:])).any(axis=-1)


def _motion_times(duration: float, dt: float) -> np.ndarray:
    """The instants at which a grid of step dt over any horizon >= `duration`
    reads a trajectory of that duration: the multiples of dt below it, then
    the end, which every later instant reads too."""
    k = grid_size(duration, dt) - 1
    if k * dt < duration:  # a multiple a hair below the end, which only a longer grid keeps
        k += 1
    return np.append(np.arange(k) * dt, duration)


class Monitor:
    """All of a manager's collision state, for one layout at one CheckParams;
    the module docstring states the rules it keeps.

    - `boxes` (S, 6): the cull's box of each row (lo xyz, hi xyz), inflated
      by margin/2. `held[g]`: the placed endpoints (e0, e1), each (1, L, 3),
      of the row a parked arm g holds (`hold`).
    - `candidates[g]`: `(trajectory, e0, e1, box)`, the trajectory arm g last
      swept, placed at every instant a sweep's grid reads it (`_motion_times`,
      cut at a held tail as `Layout.place` cuts), and its (L, 6) link boxes.
    - `safe_until`: a time for each pair of the layout's list. A pair is due
      at a check whose clock has reached it; a new monitor has every pair
      due. `next_due`, the earliest (-inf after a wake or an admission, inf
      once every pair sleeps for good), lets a check before it find nothing
      due, and the executor leave idle the monitor ticks before it.
    """

    def __init__(self, layout: Layout, params: CheckParams):
        self.layout, self.params, self.ii, self.jj = layout, params, layout.ii, layout.jj
        self.boxes = _OPEN.repeat(len(layout.owners), axis=0)
        s = slice(layout.static_rows.start, layout.static_rows.stop)
        self.boxes[s] = _box(*(e[None] for e in layout._static_ends), layout.radii[s], params.margin / 2.0)
        self.held: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.candidates: dict[str, tuple] = {}
        self._a, self._b = layout.arm[self.ii], layout.arm[self.jj]
        self._pairs = {g: np.flatnonzero((self._a == k) | (self._b == k))
                       for k, g in enumerate(layout.groups)}
        self.safe_until = np.full(len(self.ii), -math.inf)
        self.next_due = -math.inf if len(self.ii) else math.inf

    def hold(self, g: str, e0: np.ndarray, e1: np.ndarray):
        """Arm g is parked, until its next admission, at the row placed as `e0`, `e1`."""
        rows = self.layout.rows[g]
        self.boxes[rows.start : rows.stop] = _box(e0, e1, self.layout.radii[rows], self.params.margin / 2.0)
        self.held[g] = e0.copy(), e1.copy()  # not the block of the call that placed it

    def wake(self, g: str):
        """Make g's pairs due, for an arm that leaves the motion the last window saw."""
        if self._pairs[g].size:
            self.safe_until[self._pairs[g]] = self.next_due = -math.inf

    def admit(self, g: str, trajectory: JointTrajectory):
        """Arm g runs `trajectory`, the candidate it last swept, whose placement
        goes: wake g's pairs, and box each link at every instant of the run by
        its box over the placed rows (at most dt apart in time), grown by the
        farthest a point of the arm moves in dt / 2, with slack for rounding."""
        if self.candidates.get(g, (None,))[0] is not trajectory:
            raise ValueError(f"admit only the trajectory that arm '{g}' last swept")
        _, _, _, box = self.candidates.pop(g)
        margin = self.params.margin
        pad = self.layout.robots[g].max_cartesian_speed_bound * (1.0 + 1e-6) * self.params.dt / 2.0 + 1e-9
        self.boxes[self.layout.rows[g]] = box + (pad - margin / 2.0) * _SIGN + margin / 2.0 * _SIGN
        self.held.pop(g, None)
        self.wake(g)

    def sweep(
        self,
        candidate: JointTrajectory,
        now: float,
        timeline: Timeline,
        running: list[str],
        parked: list[str] | None = None,
    ) -> list[CollisionReport]:
        """Check a candidate starting at `now` against everything else in one sweep.

        The candidate is sampled at params.dt on one grid over the longest
        horizon (its duration or a running arm's remaining motion), held at its
        end past it, and the other arms are read from `timeline` at `now` plus
        the grid. The candidate's links are paired with the links of every
        `running` arm, then with the static obstacles and the `parked` arms (in
        sorted group order), and one kernel call gives all clearances.

        A candidate that is not its arm's entry in `candidates` is placed and
        kept there, in one call with each parked arm not `held` yet, which is
        then held. One test of the candidate's link boxes against `boxes`
        drops, in order, the pairs the cull drops, and a sweep left with no
        pair calls no kernel; one more call places the running arms left with
        a pair.

        Returns one report per running arm, in order, then, unless `parked` is
        None, one for the static obstacles and the parked arms together; a
        block with no pair left is reported clear at `FAR`, as the full sweep
        reports it. Times in the reports are relative to the candidate start.
        """
        layout, params, fixed = self.layout, self.params, sorted(parked or ())
        groups = [candidate.group_id] + list(running) + fixed
        unknown = set(groups) - set(layout.robots)
        if unknown:
            raise UnknownGroup(f"no robot model for groups {sorted(unknown)}")
        runs = [timeline.runs[g][-1] for g in running]
        if len(set(groups)) < len(groups) or any(run.start_time > now for run in runs):
            raise ValueError("the candidate, running and parked arms must be distinct groups, "
                             "and running arms must have started their runs by `now`")
        g0, margin = candidate.group_id, params.margin
        remaining = [run.trajectory.duration - max(0.0, now - run.start_time) for run in runs]
        times = time_grid(max([candidate.duration, 0.0] + remaining), params.dt)
        # the candidate's placement, unless it is kept, in one call with every
        # parked arm not held yet
        fresh = [g for g in fixed if g not in self.held]
        q = {} if self.candidates.get(g0, (None,))[0] is candidate else {
            g0: states_at(candidate, _motion_times(candidate.duration, params.dt))}
        if fresh:
            q.update(timeline.at(fresh, times, since=now))
        if q:
            put = layout.place(q)
            for g in fresh:
                self.hold(g, *put[g])
            if g0 in put:
                box = _box(*put[g0], layout.radii[layout.rows[g0]], margin / 2.0)
                self.candidates[g0] = (candidate, *put[g0], box)
        _, e0, e1, box = self.candidates[g0]
        # each row's body in pair order (-1: not in the sweep): the running arms,
        # then the obstacles, then the parked arms; then the pairs of candidate
        # link i and row j whose boxes overlap, body by body and i major
        rank = np.full(len(layout.groups) + 1, -1)
        rank[[layout.index[g] for g in running]] = np.arange(len(running))
        if parked is not None:
            rank[[-1] + [layout.index[g] for g in fixed]] = len(running) + np.arange(len(fixed) + 1)
        body = rank[layout.arm]
        i, jj = ((body >= 0) & ~_apart(box[:, None], self.boxes[None])).nonzero()
        order = body[jj].argsort(kind="stable")
        ii, jj = layout.rows[g0].start + i[order], jj[order]
        blocks = len(running) + (parked is not None)
        bounds = np.minimum(body[jj], len(running)).searchsorted(np.arange(blocks + 1))
        if not ii.size:
            return [_CLEAR] * blocks

        # place only the running arms left with a pair
        touched = set(layout.arm[jj].tolist())
        put = {g0: (e0, e1)}
        if len(times) < len(e0):  # the grid's rows: all below its end, then the end
            sel = np.append(np.arange(len(times) - 1), len(e0) - 1)
            put[g0] = e0[sel], e1[sel]
        put.update((g, self.held[g]) for g in fixed if layout.index[g] in touched)
        moving = [g for g in running if layout.index[g] in touched]
        if moving:
            put.update(layout.place(timeline.at(moving, times, since=now)))
        p0, p1 = layout.spread(put)
        clear = pair_clearances(p0, p1, layout.radii, ii, jj, margin)
        return [
            _report(times, clear[:, a:b], layout.owners, ii[a:b], jj[a:b], margin)
            for a, b in zip(bounds, bounds[1:])
        ]

    def check(self, clock: float, window) -> CollisionReport:
        """One check at `clock`, reported from the state at `clock` alone (a
        colliding report's first_collision_time is 0.0, relative to `clock`).

        A due pair that the cull of `boxes` drops (see the module docstring)
        sleeps for good. For the pairs left, if any, `window(groups, limit)`
        gives the look-ahead of their arms: `(times, q, cut)`, at most
        `limit` check instants from `clock` on, each arm's positions at them
        as `Timeline.at` gives them, and whether the instants stop short of
        the end of those arms' motions. Places
        (and checks the limits of) only those arms, and measures the pairs at
        every instant in one kernel call at the margin, whose AABB test reads
        a pair it prunes as `FAR`. Each sleeps until its first instant at or
        below the margin, otherwise until the last instant if the window was
        cut, or for good; a clear report's minimum covers the pairs the AABB
        test kept only. The window is cut so that neither the pair-samples
        nor the placed row-samples exceed PAIR_SAMPLES.
        """
        if clock < self.next_due:
            return _CLEAR
        due = np.flatnonzero(self.safe_until <= clock)
        apart = _apart(self.boxes[self.ii[due]], self.boxes[self.jj[due]])
        self.safe_until[due[apart]] = math.inf
        due = due[~apart]
        if not due.size:
            self.next_due = float(self.safe_until.min())
            return _CLEAR
        involved = np.zeros(len(self.layout.groups) + 1, dtype=bool)
        involved[self._a[due]] = involved[self._b[due]] = True
        groups = [g for g, m in zip(self.layout.groups, involved.tolist()) if m]
        limit = max(1, PAIR_SAMPLES // max(due.size, len(self.layout.owners)))
        times, q, cut = window(groups, limit)
        layout, ii, jj, margin = self.layout, self.ii[due], self.jj[due], self.params.margin
        p0, p1 = layout.spread(layout.place(q))
        clear = pair_clearances(p0, p1, layout.radii, ii, jj, margin)
        below = clear <= margin
        self.safe_until[due] = np.where(below.any(axis=0), times[below.argmax(axis=0)],
                                        times[-1] if cut else math.inf)
        self.next_due = float(self.safe_until.min())
        return _report(np.zeros(1), clear[:1], layout.owners, ii, jj, margin)


def composite_state_check(
    states: dict[str, JointState], scene: Scene, margin: float
) -> CollisionReport:
    """One discrete check of the consolidated multi-robot state: a new
    `Monitor`, every pair due, whose window is the one instant 0.0. Needs one
    state per robot group, and a margin that CheckParams accepts; a
    colliding report's first_collision_time is 0.0."""
    missing = set(scene.robots) - set(states)
    if missing:
        raise MissingGroupState(f"missing states for groups: {sorted(missing)}")
    extra = set(states) - set(scene.robots)
    if extra:
        raise UnknownGroup(f"states for unknown groups: {sorted(extra)}")
    return Monitor(scene.layout, CheckParams(margin=margin)).check(
        0.0, lambda groups, limit: (np.zeros(1), {g: states[g].positions[None] for g in groups}, False)
    )
