"""Independent oracles the tests check the library against, and the scalar
per-primitive views of its kernels that only the tests use.

The oracles do not reuse the library's closest-point construction: segment
distances come from brute-force grid refinement over the two segment
parameters (the distance is convex in (s, t), so the refined grid converges
to the true minimum), and planar kinematics comes from the textbook
cumulative-angle formula. `segment_segment_distance`, `primitive_clearance`
and `forward_kinematics` are thin scalar wrappers of the library's batched
kernels (`segment_distance`, `ArmStack.place`), so that tests can compare one
pair or one arm against the oracles.

`deadline_passed`, `stop_tick_search` and `submit_due` are the float rules by
which the scheduler placed its times on the tick clock before it kept them as
integer ticks: the abort test of a deadline, admission's search for the tick
that completes a run, and the harness's test for a due submission.

`sweep_reads`, `monitor_window` and `replay_motions` are the three builders
of arm motion that `collision.Timeline` replaced, as they were: admission's
reads of the running arms, the monitor's look-ahead window, and the replay
audit's motions. `sweep_reads` alone gained one rule since: from a run's
stop on, it reads the run's `elapsed`, as the old window builder did. Without
it, an offset `now - start + t` that falls an ulp short of a run's duration
read the trajectory there and not at its end. `state_at` is the scalar view
of `states_at`.
`loop_validate` is `trajectory.validate` as it was before its checks became
array tests: waypoint by waypoint.
"""

import math
from dataclasses import dataclass

import numpy as np

from multiarm.errors import JointLimitViolation, MultiArmError
from multiarm.executor import _CLOCK_EPS, Event
from multiarm.geometry import Capsule, PlacedPrimitive, Sphere, segment_distance, segment_of
from multiarm.kinematics import _LIMIT_SLACK, ArmStack, JointState, within_limits
from multiarm.trajectory import _VEL_SLACK, Violation, states_at, time_grid


class NonFiniteInput(MultiArmError):
    """A geometric input contains NaN or infinity."""


@dataclass(frozen=True)
class Clearance:
    """Signed surface-to-surface distance; negative means penetration."""

    signed_distance: float
    witness: tuple | None = None


def segment_segment_distance(a0, a1, b0, b1) -> float:
    """The library's segment distance for one pair, with finiteness checking."""
    pts = np.array([a0, a1, b0, b1], dtype=float)
    if pts.shape != (4, 3):
        raise ValueError("segment endpoints must be 3-vectors")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("segment endpoints must be finite")
    return float(segment_distance(pts[0], pts[1], pts[2], pts[3]))


def _canonical_key(shape) -> tuple:
    p0, p1, r = segment_of(shape)
    return (*p0.tolist(), *p1.tolist(), r)


def primitive_clearance(a: PlacedPrimitive, b: PlacedPrimitive) -> Clearance:
    """Signed surface-to-surface clearance between two placed primitives.

    The operand order is canonicalized before the distance computation so that
    primitive_clearance(a, b) and primitive_clearance(b, a) are bit-identical.
    """
    pa, pb = a.shape, b.shape
    if _canonical_key(pb) < _canonical_key(pa):
        pa, pb = pb, pa
    a0, a1, ra = segment_of(pa)
    b0, b1, rb = segment_of(pb)
    axis = segment_segment_distance(a0, a1, b0, b1)
    return Clearance(signed_distance=axis - ra - rb, witness=(a.owner, b.owner))


def forward_kinematics(model, q) -> list[PlacedPrimitive]:
    """World-frame placement of every link primitive of one arm at configuration q."""
    if not within_limits(model, q, tol=_LIMIT_SLACK):
        raise JointLimitViolation(f"{model.group_id}: configuration outside joint limits")
    p0, p1 = ArmStack([model]).place(q.positions[None], [0])
    placed = []
    for i, link in enumerate(model.links):
        radius = float(model._radii[i])
        if isinstance(link.shape, Sphere):
            shape = Sphere(center=p0[0, i], radius=radius)
        else:
            shape = Capsule(p0=p0[0, i], p1=p1[0, i], radius=radius)
        placed.append(PlacedPrimitive(shape=shape, owner=(model.group_id, i)))
    return placed


def grid_segment_distance(a0, a1, b0, b1, n=33, rounds=6):
    """Grid-refined min distance between two segments (single pair)."""
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    u = a1 - a0
    v = b1 - b0
    s_lo, s_hi, t_lo, t_hi = 0.0, 1.0, 0.0, 1.0
    best = np.inf
    for _ in range(rounds):
        s = np.linspace(s_lo, s_hi, n)
        t = np.linspace(t_lo, t_hi, n)
        p = a0 + s[:, None] * u
        q = b0 + t[:, None] * v
        d = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=-1)
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        best = float(d[i, j])
        ds = (s_hi - s_lo) / (n - 1)
        dt = (t_hi - t_lo) / (n - 1)
        s_lo, s_hi = max(0.0, s[i] - 2 * ds), min(1.0, s[i] + 2 * ds)
        t_lo, t_hi = max(0.0, t[j] - 2 * dt), min(1.0, t[j] + 2 * dt)
    return best


def grid_segment_distance_dense(a0, a1, b0, b1):
    """The heavyweight variant: 1000x1000 grid plus local refinement."""
    return grid_segment_distance(a0, a1, b0, b1, n=1001, rounds=3)


def grid_segment_distance_batch(a0, a1, b0, b1, n=17, rounds=7, chunk=2000):
    """Vectorized grid refinement over many segment pairs at once."""
    a0, a1, b0, b1 = (np.asarray(x, dtype=float) for x in (a0, a1, b0, b1))
    m = a0.shape[0]
    out = np.empty(m)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        out[lo:hi] = _grid_batch_chunk(a0[lo:hi], a1[lo:hi], b0[lo:hi], b1[lo:hi], n, rounds)
    return out


def _grid_batch_chunk(a0, a1, b0, b1, n, rounds):
    m = a0.shape[0]
    u = a1 - a0
    v = b1 - b0
    s_lo = np.zeros(m)
    s_hi = np.ones(m)
    t_lo = np.zeros(m)
    t_hi = np.ones(m)
    lin = np.linspace(0.0, 1.0, n)
    best = np.full(m, np.inf)
    for _ in range(rounds):
        s = s_lo[:, None] + lin[None, :] * (s_hi - s_lo)[:, None]
        t = t_lo[:, None] + lin[None, :] * (t_hi - t_lo)[:, None]
        p = a0[:, None, :] + s[:, :, None] * u[:, None, :]
        q = b0[:, None, :] + t[:, :, None] * v[:, None, :]
        diff = p[:, :, None, :] - q[:, None, :, :]
        d = np.sqrt(np.einsum("mijk,mijk->mij", diff, diff))
        flat = d.reshape(m, -1)
        k = np.argmin(flat, axis=1)
        best = flat[np.arange(m), k]
        i, j = np.unravel_index(k, (n, n))
        ds = (s_hi - s_lo) / (n - 1)
        dt = (t_hi - t_lo) / (n - 1)
        s_ctr = s[np.arange(m), i]
        t_ctr = t[np.arange(m), j]
        s_lo = np.maximum(0.0, s_ctr - 2 * ds)
        s_hi = np.minimum(1.0, s_ctr + 2 * ds)
        t_lo = np.maximum(0.0, t_ctr - 2 * dt)
        t_hi = np.minimum(1.0, t_ctr + 2 * dt)
    return best


def planar_chain_points(base_xy, lengths, q):
    """Closed-form joint/tip positions of a planar revolute chain."""
    angles = np.cumsum(np.asarray(q, dtype=float))
    pts = [np.asarray(base_xy, dtype=float)]
    for length, a in zip(lengths, angles):
        pts.append(pts[-1] + length * np.array([np.cos(a), np.sin(a)]))
    return pts


def exhaustive_close_pairs(set_a, set_b, margin):
    """All index pairs whose signed clearance is <= margin, by brute force."""
    from multiarm.geometry import segments_of

    a0, a1, ra = segments_of(set_a)
    b0, b1, rb = segments_of(set_b)
    na, nb = len(set_a), len(set_b)
    ii, jj = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    dist = grid_segment_distance_batch(a0[ii], a1[ii], b0[jj], b1[jj])
    clear = dist - ra[ii] - rb[jj]
    return [(int(i), int(j)) for i, j, c in zip(ii, jj, clear) if c <= margin]


def dense_running_sweep(candidate, running, now, models, step):
    """Dense clearance profile of a candidate against a running trajectory.

    Replicates the admission check's time alignment at an arbitrary fine
    step, computing full pairwise clearances with no broadphase. Returns
    (times relative to candidate start, min clearance at each time).
    """
    from multiarm.geometry import segment_distance
    from multiarm.kinematics import ArmStack
    from multiarm.trajectory import states_at

    model_c = models[candidate.group_id]
    model_r = models[running.trajectory.group_id]
    offset = now - running.start_time
    horizon = max(candidate.duration, running.trajectory.duration - offset)
    horizon = max(horizon, 0.0)
    n = int(np.ceil(horizon / step)) if horizon > 0 else 0
    ts = np.minimum(np.arange(n + 1) * step, horizon)
    rows = np.zeros(len(ts), dtype=int)
    a0, a1 = ArmStack([model_c]).place(states_at(candidate, ts), rows)
    b0, b1 = ArmStack([model_r]).place(states_at(running.trajectory, offset + ts), rows)
    d = segment_distance(a0[:, :, None, :], a1[:, :, None, :], b0[:, None, :, :], b1[:, None, :, :])
    clear = d - model_c._radii[:, None] - model_r._radii[None, :]
    return ts, clear.reshape(len(ts), -1).min(axis=1)


def loop_placed_segments(model, q_batch):
    """Forward kinematics of one arm, joint by joint, with no batching over arms.

    The library's batched placement does the same arithmetic per arm and
    must match this bit for bit.
    """
    from multiarm.kinematics import rotation_about_axis

    q_batch = np.asarray(q_batch, dtype=float)
    n = len(q_batch)
    rot = np.broadcast_to(model.base_pose[:3, :3], (n, 3, 3))
    trans = np.broadcast_to(model.base_pose[:3, 3], (n, 3))
    rots, origins = [], []
    for j, joint in enumerate(model.joints):
        trans = trans + np.einsum("nij,j->ni", rot, model._t_off[j])
        rot = rot @ model._r_off[j] @ rotation_about_axis(joint.axis, q_batch[:, j])
        rots.append(rot)
        origins.append(trans)
    frames = [link.frame for link in model.links]
    r = np.stack(rots, axis=1)[:, frames]
    t = np.stack(origins, axis=1)[:, frames]
    p0 = t + np.einsum("nlij,lj->nli", r, model._local_p0)
    p1 = t + np.einsum("nlij,lj->nli", r, model._local_p1)
    return p0, p1


def loop_speed_bound(model) -> float:
    """The speed bound sum_j vlim_j * reach_j by a joint x link double loop:
    reach_j is the largest, over the links of a frame f >= j, of the offset
    norms of joints j+1..f summed plus the link's farthest surface point."""
    if not model.links:
        return 0.0
    offsets = np.linalg.norm(model._t_off, axis=1)
    far = np.maximum(
        np.linalg.norm(model._local_p0, axis=1), np.linalg.norm(model._local_p1, axis=1)
    ) + model._radii
    bound = 0.0
    for j in range(len(model.joints)):
        reach = 0.0
        for k, link in enumerate(model.links):
            if link.frame >= j:
                reach = max(reach, offsets[j + 1 : link.frame + 1].sum() + far[k])
        bound += float(model.joint_velocity_limits[j]) * reach
    return float(bound)


def all_pairs_margin_bound(models, dt) -> float:
    """The largest required_margin of any arm alone or any pair of arms."""
    from multiarm import required_margin

    models = sorted(models, key=lambda m: m.group_id)
    worst = 0.0
    for i, a in enumerate(models):
        worst = max(worst, required_margin(a, None, dt))
        for b in models[i + 1 :]:
            worst = max(worst, required_margin(a, b, dt))
    return worst


def finite_difference_speeds(model, q, qdot, h=1e-6):
    """Endpoint speeds of every link primitive via finite differences."""
    from multiarm.kinematics import ArmStack

    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    p0a, p1a = ArmStack([model]).place(q[None], [0])
    p0b, p1b = ArmStack([model]).place((q + h * qdot)[None], [0])
    v0 = np.linalg.norm(p0b - p0a, axis=-1) / h
    v1 = np.linalg.norm(p1b - p1a, axis=-1) / h
    return np.maximum(v0, v1)[0]


def first_hit(times, clear, owners, ii, jj, margin):
    """(colliding, first time, witness, minimum) of a (T, P) clearance block:
    the witness is the first pair, in pair order, at the minimum of the first
    sample at or below the margin."""
    if clear.size == 0 or clear.min() > margin:
        return False, None, None, float(clear.min()) if clear.size else np.inf
    k = int(np.nonzero(clear.min(axis=1) <= margin)[0][0])
    j = int(np.argmin(clear[k]))
    return True, float(times[k]), (owners[ii[j]], owners[jj[j]]), float(clear.min())


def unculled_monitor(states, scene, margin):
    """The composite check over the layout's full pair list, every arm placed."""
    from multiarm.geometry import pair_clearances

    layout = scene.layout
    p0, p1 = layout.spread(layout.place({g: states[g].positions[None] for g in layout.groups}))
    clear = pair_clearances(p0, p1, layout.radii, layout.ii, layout.jj, margin)
    return first_hit(np.zeros(1), clear, layout.owners, layout.ii, layout.jj, margin)


def unculled_sweep(candidate, now, params, layout, running, parked):
    """The admission sweep with every running and parked arm and every obstacle
    placed and paired: one block per running record, in order, then the
    obstacles followed by the parked arms in sorted order."""
    from multiarm.geometry import pair_clearances
    from multiarm.trajectory import _VEL_SLACK, Violation, states_at, time_grid

    offsets = [max(0.0, now - rec.start_time) for rec in running]
    remaining = [rec.trajectory.duration - o for rec, o in zip(running, offsets)]
    times = time_grid(max([candidate.duration, 0.0] + remaining), params.dt)
    q = {candidate.group_id: states_at(candidate, times)}
    for rec, o in zip(running, offsets):
        q[rec.trajectory.group_id] = states_at(rec.trajectory, o + times)
    for g in sorted(parked):
        q[g] = parked[g].positions[None]
    p0, p1 = layout.spread(layout.place(q))
    own = layout.rows[candidate.group_id]
    blocks = [[layout.rows[rec.trajectory.group_id]] for rec in running]
    blocks.append([layout.static_rows] + [layout.rows[g] for g in sorted(parked)])
    reports = []
    for block in blocks:
        pairs = [(i, j) for body in block for i in own for j in body]
        ii, jj = np.array(pairs, dtype=int).reshape(-1, 2).T
        clear = pair_clearances(p0, p1, layout.radii, ii, jj, params.margin)
        reports.append(first_hit(times, clear, layout.owners, ii, jj, params.margin))
    return reports


def state_at(traj, t: float) -> JointState:
    """Linear interpolation between bracketing waypoints; held state past the end."""
    return JointState(group_id=traj.group_id, positions=states_at(traj, [t])[0])


def sweep_reads(candidate, now, params, running):
    """Admission's time grid, and each running record's positions on it,
    held `elapsed` s in from its stop on."""
    offsets = [max(0.0, now - rec.start_time) for rec in running]
    remaining = [rec.trajectory.duration - o for rec, o in zip(running, offsets)]
    times = time_grid(max([candidate.duration, 0.0] + remaining), params.dt)
    return times, {rec.trajectory.group_id:
                   states_at(rec.trajectory, np.where(now + times >= rec.stop, rec.elapsed, o + times))
                   for rec, o in zip(running, offsets)}


def deadline_passed(clock: float, deadline: float) -> bool:
    """Whether an entry is at or past its deadline at `clock`."""
    return clock + _CLOCK_EPS >= deadline


def stop_tick_search(k0: int, tick_length: float, end: float) -> int:
    """The first tick from k0 on at whose clock a run that ends at `end` is over."""
    k = max(k0, math.floor((end - _CLOCK_EPS) / tick_length) - 1)
    while end > k * tick_length + _CLOCK_EPS:
        k += 1
    return k


def submit_due(clock: float, submit_time: float) -> bool:
    """Whether a task is due for submission at `clock`."""
    return submit_time <= clock + 1e-9


def _end_tick(mgr, rec) -> int:
    """The tick whose step 1 completes `rec`, which is running now."""
    return stop_tick_search(mgr._tick_index, mgr.tick_length, rec.start_time + rec.trajectory.duration)


def monitor_window(mgr, running, postures, groups, limit):
    """The monitor's look-ahead for `groups` on manager `mgr`, given its running
    records and the parked postures of the other arms, by group."""
    running = {g: running[g] for g in groups if g in running}
    ends = {g: _end_tick(mgr, rec) for g, rec in running.items()}
    k0, period = mgr._tick_index, mgr.monitor_period
    last = k0 + -(-(max(ends.values(), default=k0) - k0) // period) * period
    end = min(last, k0 + (limit - 1) * period)
    ticks = np.arange(k0, end + 1, period)
    times = ticks * mgr.tick_length
    q = {g: postures[g].positions[None] for g in groups if g not in running}
    for g, rec in running.items():
        elapsed = np.where(ticks >= ends[g], rec.trajectory.duration, times - rec.start_time)
        q[g] = states_at(rec.trajectory, elapsed)
    return times, q, last > end


def replay_motions(scenario, result, factor: int = 10):
    """The replay audit's sample times and every group's executed motion at them."""
    events = [Event.parse(line) for line in result.lines]
    end = max(e.clock for e in events)
    starts: dict[str, float] = {}
    stops: dict[str, float] = {}
    for e in events:
        if e.kind == "ADMITTED":
            starts[e.trajectory_id] = e.clock
        elif e.kind in ("COMPLETED", "COLLISION_HALT", "CANCELLED") and e.trajectory_id in starts:
            stops[e.trajectory_id] = e.clock

    ts = time_grid(end, scenario.params.tick_length / factor) if end > 0 else np.zeros(1)
    groups = sorted(scenario.scene.robots)
    motions: dict[str, np.ndarray] = {}
    for g in groups:
        q0 = scenario.scene.idle_postures[g].positions
        qs = np.tile(q0, (len(ts), 1))
        segs = sorted(
            (starts[t], stops.get(t, end), t)
            for t in starts
            if result.trajectories[t].group_id == g
        )
        for t_start, t_stop, tid in segs:
            traj = result.trajectories[tid]
            rel = np.clip(ts - t_start, 0.0, max(0.0, t_stop - t_start))
            vals = states_at(traj, rel)
            mask = ts >= t_start
            qs = np.where(mask[:, None], vals, qs)
        motions[g] = qs
    return ts, motions


def loop_validate(traj, model) -> list:
    """Every problem of `traj` on `model`, found waypoint by waypoint."""
    problems = []
    if traj.positions.shape[1] != model.n_joints:
        problems.append(
            Violation("DimensionMismatch",
                      f"{traj.positions.shape[1]} joint values, model has {model.n_joints}")
        )
        return problems
    if not (np.isfinite(traj.times).all() and np.isfinite(traj.positions).all()):
        return [Violation("NonFinite", "waypoint times and positions must be finite")]

    if traj.times[0] != 0.0:
        problems.append(Violation("NonZeroStart", f"first waypoint at t={traj.times[0]}"))
    bad = np.nonzero(np.diff(traj.times) <= 0.0)[0]
    for k in bad:
        problems.append(
            Violation("NonMonotonicTime",
                      f"waypoint {k + 1} at t={traj.times[k + 1]} after t={traj.times[k]}")
        )

    lo, hi = model._lo, model._hi
    for k, q in enumerate(traj.positions):
        if np.any(q < lo) or np.any(q > hi):
            problems.append(Violation("JointLimitViolation", f"waypoint {k} outside limits"))

    if not bad.size:
        dq = np.abs(np.diff(traj.positions, axis=0))
        dt = np.diff(traj.times)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.where(dt > 0, dq / dt, 0.0)
        limit = model.joint_velocity_limits * (1.0 + _VEL_SLACK)
        for k in np.nonzero(np.any(speed > limit, axis=1))[0]:
            worst = float(speed[k].max())
            problems.append(
                Violation("VelocityLimit", f"segment {k} average speed {worst:.3f} rad/s")
            )
    return problems
