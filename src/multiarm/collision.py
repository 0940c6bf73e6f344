"""Time-dependent collision checking for trajectories and composite states.

Every check runs through one kernel, `pair_clearances`. The bodies a check
involves are placed into flat (T, S, 3) segment-endpoint arrays (T sampled
times, S primitives), the check itself is a precomputed list of index pairs
into them, and one call returns the signed clearance (segment distance minus
radii) of every pair at every sample. A pair whose AABBs, inflated by
margin/2, do not overlap is reported as infinitely clear, which is sound
because such a pair's clearance exceeds the margin.

Before any placement, a broadphase that holds at every configuration culls
whole pairs: every row of the layout lies within a fixed sphere (an arm's
links around its first joint origin, an obstacle around its midpoint), so
the gap between two spheres bounds the pair's clearance from below. A pair
whose gap exceeds the margin is never paired, and an arm that can reach
nothing in a check is never placed. Such pairs are reported as `FAR`, as
pairs the AABB test prunes are.

A configuration is *colliding* when the minimum clearance is <= margin. The
witness of a colliding check is the first pair, in the check's pair order,
that attains the minimum at the first colliding sample. Culling keeps the
pair order and drops only pairs whose clearance exceeds the margin, so it
changes neither verdicts nor witnesses, nor the minimum of a colliding check.

The periodic `Monitor` also skips pairs over time. No point of a moving arm
is faster than its cartesian speed bound v, and parked arms and obstacles do
not move, so a pair at clearance c > margin at time t stays above the margin
until t + (c - margin)/(v_a + v_b) (Schwarzer, Saha & Latombe, T-RO 2005). A
check measures only the pairs whose such time has come. The others are above
the margin, and the measured ones keep the pair order, so the verdict, the
witness and a colliding minimum are those of a check of every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, JointLimitViolation, MissingGroupState, UnknownGroup
from .geometry import FAR, Owner, PlacedPrimitive, pair_clearances, segments_of
from .kinematics import _LIMIT_SLACK, ArmStack, JointState, RobotModel
from .trajectory import JointTrajectory, states_at, time_grid


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
        for prim in self.static_obstacles:
            if prim.owner[0] != "static":
                raise ValueError("static obstacles must be owned by 'static'")

    @cached_property
    def layout(self) -> Layout:
        return Layout(self.robots, self.static_obstacles)


@dataclass(frozen=True, eq=False)
class RunningRecord:
    """A trajectory currently executing, with its absolute start time."""

    trajectory: JointTrajectory
    start_time: float

    def __post_init__(self):
        if self.start_time < 0.0:
            raise ValueError("start_time must be >= 0")


@dataclass(frozen=True)
class CollisionReport:
    colliding: bool
    first_collision_time: float | None
    witness: tuple[Owner, Owner] | None
    min_clearance_seen: float


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
        return CollisionReport(False, None, None, FAR)
    min_seen = float(clear.min())
    if min_seen > margin:
        return CollisionReport(False, None, None, min_seen)
    k = int(np.nonzero(clear.min(axis=1) <= margin)[0][0])
    j = int(np.argmin(clear[k]))
    return CollisionReport(True, float(times[k]), (owners[ii[j]], owners[jj[j]]), min_seen)


@dataclass(frozen=True, eq=False)
class Cull:
    """A layout's pairs that can come within one margin.

    `ii`, `jj` is the monitor's pair list cut to those pairs, in its order.
    `arms[g]` are the other arms, and `statics[g]` the static rows, that arm
    g can reach.
    """

    ii: np.ndarray
    jj: np.ndarray
    arms: dict[str, frozenset[str]]
    statics: dict[str, list[int]]


class Layout:
    """Flat segment layout of a set of arms and the static obstacles.

    Rows are the arms' links, arm by arm in sorted group order (`rows[g]`),
    then the static obstacles (`static_rows`); `owners` and `radii` cover
    every row. Arms that share joint count and link frames are placed
    together by one ArmStack. The monitor's pair list is fixed here, in the
    order that defines its witness: the self pairs of each arm not exempted
    by allowed_pairs (arms in sorted order), then the cross pairs of arms
    gi < gj (links of gi major), then each arm's links against every
    obstacle. The first `n_self` pairs are the self pairs.

    `gap[i, j]` is a lower bound on the clearance of rows i and j at any
    configuration: each row lies within `reach` of a fixed centre (an arm's
    first joint origin, or an obstacle's midpoint), so the rows are at least
    the centres' distance minus both reaches apart. `cull(margin)` keeps,
    once per margin, what can come within it; everything else is `FAR`.
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

        # a link of frame f lies within the offsets of joints 1..f, plus its
        # farthest surface point, of its arm's first joint origin (the bound
        # of RobotModel._speed_bound for joint 0); an obstacle within half its
        # length plus its radius of its midpoint
        centres, reach = [], []
        for g in self.groups:
            m = robots[g]
            if m.links:
                chain = np.append(0.0, np.cumsum(np.linalg.norm(m._t_off[1:], axis=1)))
                origin = (m.base_pose @ m.joints[0].origin_offset)[:3, 3]
                centres.append(np.tile(origin, (m.n_links, 1)))
                reach.append(chain[m._frames] + m._far)
        centres.append((s0 + s1) / 2.0)
        reach.append(np.linalg.norm(s1 - s0, axis=1) / 2.0 + sr)
        centres, reach = np.concatenate(centres), np.concatenate(reach)
        distance = np.linalg.norm(centres[:, None] - centres[None], axis=-1)
        self.gap = distance - reach[:, None] - reach[None]
        self._culls: dict[float, Cull] = {}

    def cull(self, margin: float) -> Cull:
        """What can come within `margin` of what, memoised per margin."""
        cull = self._culls.get(margin)
        if cull is None:
            near = self.gap <= margin + 1e-9
            keep = near[self.ii, self.jj]
            reached = {g: near[rows].any(axis=0) for g, rows in self.rows.items()}
            cull = self._culls[margin] = Cull(
                self.ii[keep],
                self.jj[keep],
                arms={g: frozenset(h for h in self.groups if h != g and reached[g][self.rows[h]].any())
                      for g in self.groups},
                statics={g: [j for j in self.static_rows if reached[g][j]] for g in self.groups},
            )
        return cull

    def place(self, q: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """World endpoints (n, S, 3) of every row at n samples.

        q[g] is an (n, J) batch of configurations of arm g, or a (1, J)
        configuration held at every sample; each must fit the arm's joint
        count and limits (with the rounding slack that interpolated states
        need). The static rows are filled at every sample. The rows of arms
        not in q stay NaN, so a check must not pair them.
        """
        batches: dict[tuple[ArmStack, int], list[str]] = {}
        for g, qg in q.items():
            if g not in self.robots:
                raise UnknownGroup(f"no robot model for group '{g}'")
            if np.shape(qg)[-1] != self.robots[g].n_joints:
                raise DimensionMismatch(f"{g}: expected {self.robots[g].n_joints} joint values")
            batches.setdefault((self._slot[g][0], len(qg)), []).append(g)
        n = max((len(qg) for qg in q.values()), default=1)
        p0 = np.full((n, len(self.owners), 3), np.nan)
        p1 = np.full((n, len(self.owners), 3), np.nan)
        p0[:, self.static_rows], p1[:, self.static_rows] = self._static_ends
        for (stack, length), groups in batches.items():
            arms = [self._slot[g][1] for g in groups]
            qs = np.stack([q[g] for g in groups])
            lo, hi = (stack.arrays[name][arms][:, None] for name in ("_lo", "_hi"))
            fits = (qs >= lo - _LIMIT_SLACK) & (qs <= hi + _LIMIT_SLACK)
            bad = np.nonzero(~np.all(fits, axis=(1, 2)))[0]
            if bad.size:
                raise JointLimitViolation(f"{groups[bad[0]]}: state outside joint limits")
            a0, a1 = stack.place(qs, arms)
            rows = [i for g in groups for i in self.rows[g]]
            p0[:, rows] = a0.swapaxes(0, 1).reshape(length, -1, 3)
            p1[:, rows] = a1.swapaxes(0, 1).reshape(length, -1, 3)
        return p0, p1


def candidate_sweep(
    candidate: JointTrajectory,
    now: float,
    params: CheckParams,
    layout: Layout,
    running: list[RunningRecord],
    parked: dict[str, JointState] | None = None,
) -> list[CollisionReport]:
    """Check a candidate starting at `now` against everything else in one sweep.

    The candidate and every running trajectory are sampled at params.dt on
    one grid over the longest horizon (the candidate's duration or a running
    trajectory's remaining motion); past either end the held final state
    applies, so a shorter check's extra samples repeat its endpoint. The
    candidate's links are paired with the links of every running arm it can
    reach, then with the static obstacles and the `parked` arms (in sorted
    group order) it can reach, and one kernel call gives all clearances.
    Running and parked arms out of reach are not placed.

    Returns one report per running record, in order, then, unless `parked`
    is None, one for the static obstacles and the parked arms together; a
    running arm out of reach is reported clear at `FAR`. Times in the reports
    are relative to the candidate start.
    """
    fixed = sorted(parked or ())
    groups = [candidate.group_id] + [rec.trajectory.group_id for rec in running] + fixed
    if len(set(groups)) < len(groups) or any(rec.start_time > now + 1e-9 for rec in running):
        raise ValueError("the candidate, running and parked arms must be distinct groups, "
                         "and running records must have started by `now`")
    unknown = set(groups) - set(layout.robots)
    if unknown:
        raise UnknownGroup(f"no robot model for groups {sorted(unknown)}")
    cull = layout.cull(params.margin)
    reach = cull.arms[candidate.group_id]
    offsets = [max(0.0, now - rec.start_time) for rec in running]
    remaining = [rec.trajectory.duration - o for rec, o in zip(running, offsets)]
    # the grid spans every running arm, in reach or not, so that it does not
    # depend on what the cull left out
    times = time_grid(max([candidate.duration, 0.0] + remaining), params.dt)
    q = {candidate.group_id: states_at(candidate, times)}
    q.update((rec.trajectory.group_id, states_at(rec.trajectory, o + times))
             for rec, o in zip(running, offsets) if rec.trajectory.group_id in reach)
    fixed = [g for g in fixed if g in reach]
    q.update((g, parked[g].positions[None]) for g in fixed)
    p0, p1 = layout.place(q)
    blocks = [[layout.rows[g]] if g in reach else [] for g in groups[1 : len(running) + 1]]
    if parked is not None:
        blocks.append([cull.statics[candidate.group_id]] + [layout.rows[g] for g in fixed])
    own = layout.rows[candidate.group_id]
    pairs, bounds = [], [0]
    for block in blocks:
        pairs += [(i, j) for body in block for i in own for j in body]
        bounds.append(len(pairs))
    ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
    clear = pair_clearances(p0, p1, layout.radii, ii, jj, params.margin)
    return [
        _report(times, clear[:, a:b], layout.owners, ii[a:b], jj[a:b], params.margin)
        for a, b in zip(bounds, bounds[1:])
    ]


class Monitor:
    """The composite-state check of a layout at one margin, over time.

    Keeps a `safe_until` time for each pair in reach (the Cull's, in order),
    and a speed per arm: from `start(g)`, when g starts a motion, its speed
    bound plus room for the slack `validate` allows; from `stop(g)`, 0.
    `start(g)` also makes g's pairs due. A pair at or below the margin stays
    due. A new monitor has every pair due.
    """

    def __init__(self, layout: Layout, margin: float):
        cull = layout.cull(margin)
        self.layout, self.margin, self.ii, self.jj = layout, margin, cull.ii, cull.jj
        # each row's arm, by index into layout.groups; obstacles get the last
        # index, whose speed stays 0
        arm = np.full(len(layout.owners), len(layout.groups))
        for k, g in enumerate(layout.groups):
            arm[layout.rows[g]] = k
        self._a, self._b = arm[self.ii], arm[self.jj]
        self._arm = {g: k for k, g in enumerate(layout.groups)}
        self._pairs = {g: np.flatnonzero((self._a == k) | (self._b == k))
                       for g, k in self._arm.items()}
        self._speed = np.zeros(len(layout.groups) + 1)
        self.safe_until = np.full(len(self.ii), -math.inf)

    def start(self, g: str):
        self._speed[self._arm[g]] = self.layout.robots[g].max_cartesian_speed_bound * (1.0 + 1e-6)
        self.safe_until[self._pairs[g]] = -math.inf

    def stop(self, g: str):
        self._speed[self._arm[g]] = 0.0

    def check(self, clock: float, states_of) -> CollisionReport:
        """One check at `clock`; `states_of(groups)` gives those arms' states.

        Places (and checks the limits of) only the arms of due pairs, and
        measures those pairs exactly (an infinite margin prunes nothing) for
        their next safe-until times; a clear report's minimum covers them only.
        """
        due = np.flatnonzero(self.safe_until <= clock)
        if not due.size:
            return CollisionReport(False, None, None, FAR)
        a, b = self._a[due], self._b[due]
        involved = np.zeros(len(self._speed), dtype=bool)
        involved[a] = involved[b] = True
        groups = [g for g, m in zip(self.layout.groups, involved.tolist()) if m]
        states = states_of(groups)
        layout, ii, jj = self.layout, self.ii[due], self.jj[due]
        p0, p1 = layout.place({g: states[g].positions[None] for g in groups})
        clear = pair_clearances(p0, p1, layout.radii, ii, jj, math.inf)
        above = clear[0] - self.margin
        with np.errstate(divide="ignore", invalid="ignore"):
            wait = above / (self._speed[a] + self._speed[b])  # inf if neither arm moves
        self.safe_until[due] = np.where(above > 0.0, clock + wait, -math.inf)
        return _report(np.zeros(1), clear, layout.owners, ii, jj, self.margin)


def composite_state_check(
    states: dict[str, JointState], scene: Scene, margin: float
) -> CollisionReport:
    """One discrete check of the consolidated multi-robot state: a new
    `Monitor`, every pair due. Needs one state per robot group; a colliding
    report's first_collision_time is 0.0."""
    missing = set(scene.robots) - set(states)
    if missing:
        raise MissingGroupState(f"missing states for groups: {sorted(missing)}")
    extra = set(states) - set(scene.robots)
    if extra:
        raise UnknownGroup(f"states for unknown groups: {sorted(extra)}")
    return Monitor(scene.layout, margin).check(0.0, lambda groups: states)
