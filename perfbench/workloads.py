"""Seeded inputs for the benchmark workloads.

Importing this module pins the BLAS thread pools to one thread (numpy starts
a second thread by default on a 2-core machine) and puts the checkout's
`src/` first on `sys.path`, so the benchmark always measures the sources it
sits next to. Both must happen before numpy or multiarm is imported.

Workloads:

- `fixtures`: the four shipped scenarios, each in `async` and `sync` mode.
  Inputs are fixed files; the seed is not used.
- `ring16`: 16 planar 3-link arms on a ring. Every arm runs the same
  five-task program; the seed jitters each goal and submit time. Neighbours
  reach into their shared gap on the same program step, so admissions
  conflict on every step and arms wait on each other.
- `batch_queue`: the `disjoint` fixture's two arms, each handed a batch of
  150 tasks at t=0. Every task moves joint 0 by exactly `BATCH_STEP` rad in
  a seeded direction, so task durations (and the makespan) do not depend on
  the seed, only the goals do.

The shapes below are fixed constants, not options, so that figures stay
comparable across commits.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import json  # noqa: E402
import math  # noqa: E402

import numpy as np  # noqa: E402

import multiarm  # noqa: E402
from multiarm import fixture_path, load_scenario  # noqa: E402
from multiarm.harness import FIXTURES, scenario_from_dict  # noqa: E402

if not Path(multiarm.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"multiarm was imported from {multiarm.__file__}, not from {SRC}")

WORKLOADS = ("fixtures", "ring16", "batch_queue")

# ring16: 16 arms on a ring of radius RING_RADIUS, bases facing the centre.
RING_ARMS = 16
RING_RADIUS = 2.0
RING_LINKS = (0.35, 0.3, 0.25)
RING_LINK_RADIUS = 0.04
RING_VLIM = 0.5
RING_LIMITS = ((-1.6, 1.6), (-1.3, 1.3), (-1.3, 1.3))
# margin >= the engine's soundness bound for this arm pair (0.0473 m at
# dt 0.013 s), so an admission verdict of "Clear" is sound. Below the bound
# a "Clear" check can miss a contact between samples, and the monitor then
# halts the whole cell; the fixtures keep the shipped, below-bound regime.
RING_PARAMS = {
    "time_step": 0.013,
    "margin": 0.05,
    "tick": 0.01,
    "monitor_period": 5,
    "default_timeout": 30.0,
}
RING_PERIOD = 2.5  # s between one arm's program steps; odd arms lag half a period
RING_TIMEOUT = 6.0
RING_GOAL_JITTER = 0.03  # rad, uniform on every joint
RING_SUBMIT_JITTER = 0.1  # s, uniform, added to each submit time
# Postures as (sway, elbow, wrist). Negative sway turns an arm toward its
# successor on the ring, positive toward its predecessor. REACH_NEXT of arm
# i and REACH_PREV of arm i+1 overlap in their shared gap; every other pair
# of program postures is clear of the neighbours at the margin. All lie in
# a joint box that is free of self-collision (tested), and straight joint
# lines stay inside that box, because admission does not check self-collision.
_REACH_NEXT = (-0.15, -0.2, -0.2)
_REACH_PREV = (0.15, 0.2, 0.2)
_S_BEND = (0.0, 0.6, -0.6)
_S_BEND_SMALL = (0.0, 0.4, -0.4)
_HOME = (0.0, 0.0, 0.0)
RING_PROGRAM = {
    0: (_REACH_NEXT, _S_BEND, _REACH_PREV, _S_BEND_SMALL, _HOME),
    1: (_REACH_PREV, _S_BEND, _REACH_NEXT, _S_BEND_SMALL, _HOME),
}

# batch_queue: BATCH_SIZE tasks per arm, all submitted at t=0.
BATCH_SIZE = 150
BATCH_STEP = 0.5  # rad moved by joint 0 in every task
BATCH_JOINT0_SPAN = 3.0  # joint 0 stays within +-this (limits are +-3.2)
BATCH_JOINT1_SPAN = 1.0
BATCH_TIMEOUT = 120.0  # longer than the 75 s it takes to drain a batch


def ring16_dict(seed: int) -> dict:
    """Scenario dict of the ring workload for one seed."""
    rng = np.random.default_rng(seed)
    robots = []
    tasks = []
    for i in range(RING_ARMS):
        angle = 2.0 * math.pi * i / RING_ARMS
        joints = []
        links = []
        offset = 0.0
        for k, length in enumerate(RING_LINKS):
            joints.append(
                {
                    "axis": [0, 0, 1],
                    "origin_xyz": [offset, 0.0, 0.0],
                    "position_limits": list(RING_LIMITS[k]),
                    "velocity_limit": RING_VLIM,
                }
            )
            links.append(
                {
                    "joint": k,
                    "capsule": {"p0": [0, 0, 0], "p1": [length, 0, 0], "radius": RING_LINK_RADIUS},
                }
            )
            offset = length
        group = f"arm{i:02d}"
        robots.append(
            {
                "group_id": group,
                "base_pose": {
                    "xyz": [RING_RADIUS * math.cos(angle), RING_RADIUS * math.sin(angle), 0.0],
                    "rpy": [0.0, 0.0, angle + math.pi],
                },
                "joints": joints,
                "links": links,
                "idle_posture": list(_HOME),
            }
        )
        lag = (i % 2) * RING_PERIOD / 2.0
        for step, posture in enumerate(RING_PROGRAM[i % 2]):
            jitter = rng.uniform(-RING_GOAL_JITTER, RING_GOAL_JITTER, size=3)
            tasks.append(
                {
                    "group_id": group,
                    "goal": [float(v) for v in np.add(posture, jitter)],
                    "submit_time": step * RING_PERIOD + lag + float(rng.uniform(0.0, RING_SUBMIT_JITTER)),
                    "timeout": RING_TIMEOUT,
                }
            )
    return {
        "seed": seed,
        "params": dict(RING_PARAMS),
        "robots": robots,
        "obstacles": [],
        "tasks": tasks,
    }


def batch_queue_dict(seed: int) -> dict:
    """The disjoint fixture with a seeded batch of tasks per arm, all at t=0."""
    data = json.loads(fixture_path("disjoint.json").read_text())
    rng = np.random.default_rng(seed)
    tasks = []
    for robot in data["robots"]:
        q0, q1 = (float(v) for v in robot["idle_posture"])
        for _ in range(BATCH_SIZE):
            step = BATCH_STEP if rng.random() < 0.5 else -BATCH_STEP
            if abs(q0 + step) > BATCH_JOINT0_SPAN:
                step = -step
            q0 += step
            # |change of joint 1| <= BATCH_STEP keeps joint 0 the binding joint
            lo = max(-BATCH_JOINT1_SPAN, q1 - BATCH_STEP)
            hi = min(BATCH_JOINT1_SPAN, q1 + BATCH_STEP)
            q1 = float(rng.uniform(lo, hi))
            tasks.append(
                {
                    "group_id": robot["group_id"],
                    "goal": [q0, q1],
                    "submit_time": 0.0,
                    "timeout": BATCH_TIMEOUT,
                }
            )
    data["seed"] = seed
    data["tasks"] = tasks
    return data


def load(workload: str, seed: int) -> list[tuple[str, object, str]]:
    """The runs of one pass of a workload, as (label, Scenario, mode)."""
    if workload == "fixtures":
        runs = []
        for name in FIXTURES:
            scenario = load_scenario(fixture_path(name))
            runs += [(f"{name}:{mode}", scenario, mode) for mode in ("async", "sync")]
        return runs
    if workload == "ring16":
        return [("ring16:async", scenario_from_dict(ring16_dict(seed)), "async")]
    if workload == "batch_queue":
        return [("batch_queue:async", scenario_from_dict(batch_queue_dict(seed)), "async")]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
