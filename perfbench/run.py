#!/usr/bin/env python3
"""Benchmark of the multiarm engine on one seeded workload.

    python3 perfbench/run.py --workload ring16 --seed 1 --seconds 30 --trace 0

Runs every scenario of the workload through `multiarm.run` once per pass,
in passes while another fits in `--seconds` (at least two), checks the
outputs untimed, and prints readable `#` lines followed by one JSON line

    {"correct": ..., "attempted": <runs>, "failed": <runs that raised>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json. With
`--trace 1` plain and traced passes (tracer.py) alternate, and the metrics
are the per-layer ones. The exit code is 1 if any correctness check fails.

Host timings are medians over the passes. Every pass repeats the same
deterministic work (the gate checks that the event logs are identical), so
tick k of one pass does the same work as tick k of every other pass. Each
tick's time is its median over the passes; `run_s` is the pass rebuilt from
those medians, and the tick and decision percentiles are taken over them.
A burst of contention from other tenants of a shared machine then moves a
tick only if it hits that tick in most passes. A slow spell that lasts
longer than the run moves every tick alike, so the end-to-end host times
are then scaled to a nominal host speed: every pass by the speed of the
reference kernel of reference.py, sampled between its ticks. The unscaled
times are printed too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import contextmanager
from pathlib import Path

import workloads  # first: pins BLAS threads and puts ../src on sys.path

import numpy as np  # noqa: E402

from multiarm import (  # noqa: E402
    ExecutionManager,
    StatusKind,
    metrics_from_events,
    replay_min_clearance,
    run,
)
from reference import Speedometer  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_PASSES = 2
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "tick_us_p50": "us",
    "tick_us_p99": "us",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "sim_makespan_s": "sim_s",
    "sim_mean_wait_s": "sim_s",
    "succeeded_frac": "frac",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".ms", ".self_ms")):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_frac", "_share")):
        return "frac"
    if name.endswith("_s"):
        return "s"
    return "count"


def _decides(kind: str, detail: str) -> bool:
    """An event that settles an admission attempt."""
    return kind in ("ADMITTED", "BACKLOGGED") or (
        kind == "CANCELLED" and detail == "reason=mismatched_start"
    )


class TickTimer:
    """Host time of every ExecutionManager.tick(), and which ticks decided.

    If `scaled`, the reference kernel is sampled between ticks, so that the
    pass's times can be scaled to the nominal host speed; `kernel_s` is the
    time the kernel took, which is not the program's.
    """

    def __init__(self, scaled: bool = False):
        self.tick_s = array("d")
        self.decided = array("b")
        self.speed = Speedometer() if scaled else None
        self.kernel_s = 0.0

    @contextmanager
    def installed(self):
        tick = ExecutionManager.tick
        ticks, decided, speed = self.tick_s, self.decided, self.speed

        def timed_tick(mgr):
            t0 = time.perf_counter()
            events = tick(mgr)
            t1 = time.perf_counter()
            ticks.append(t1 - t0)
            decided.append(any(_decides(e.kind, e.detail) for e in events))
            if speed is not None:
                self.kernel_s += speed.after_tick(t1)
            return events

        ExecutionManager.tick = timed_tick
        try:
            yield self
        finally:
            ExecutionManager.tick = tick


class _WarningCount(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@contextmanager
def counted_warnings():
    """Count the executor's warnings instead of printing them to stderr."""
    logger = logging.getLogger("multiarm.executor")
    handler = _WarningCount()
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate


class Gate:
    """Untimed correctness checks over every pass of one workload."""

    def __init__(self):
        self.runs = None  # runs and results of the first pass
        self.first = None
        self.rss_mb = 0.0
        self.digests: list[str] = []
        self.problems: list[str] = []
        self.attempted = 0

    def check_pass(self, runs, results):
        if self.first is None:
            # peak resident set of the first pass, before samples pile up
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.runs, self.first = runs, results
        digest = hashlib.sha256()
        for (label, _, mode), result in zip(runs, results):
            digest.update(f"{label}\n".encode())
            digest.update("".join(line + "\n" for line in result.lines).encode())
            if not all(status.terminal for status in result.statuses.values()):
                self.problems.append(f"{label}: a handle did not end terminal")
            if metrics_from_events(result.lines, mode) != result.metrics:
                self.problems.append(f"{label}: metrics differ from the event log")
        self.digests.append(digest.hexdigest())
        if len(set(self.digests)) > 1:
            self.problems.append(f"pass {len(self.digests)}: event log differs from pass 1")

    def check_clearance(self):
        """Dense replay of each scenario's first run: arms never touched."""
        for (label, scenario, _), result in zip(self.runs, self.first):
            clearance = replay_min_clearance(scenario, result)
            if not clearance > 0.0:
                self.problems.append(f"{label}: replayed clearance {clearance:.6f} m")


def timed_pass(runs, gate: Gate) -> float:
    """Host seconds of one pass; results go through the gate, untimed."""
    gc.collect()
    seconds = 0.0
    results = []
    for _, scenario, mode in runs:
        gate.attempted += 1
        t0 = time.perf_counter()
        results.append(run(scenario, mode))
        seconds += time.perf_counter() - t0
    gate.check_pass(runs, results)
    return seconds


def passes(load, gate, seconds, probe_types, between_rounds=lambda: None):
    """Rounds of one pass per probe type while another round fits in `seconds`.

    At least MIN_PASSES passes run in all. Each pass runs freshly loaded
    scenarios, so nothing the program caches on them carries over. Probe
    types alternate pass by pass, so a slow spell of the machine falls on
    both sides of a comparison. Returns [(probe, pass seconds)] per type.
    """
    out = [[] for _ in probe_types]
    start = time.perf_counter()
    round_s = 0.0
    while (
        len(out[-1]) * len(probe_types) < MIN_PASSES
        or time.perf_counter() - start + round_s <= seconds
    ):
        between_rounds()
        round_start = time.perf_counter()
        for probe_type, done in zip(probe_types, out):
            runs = load()
            probe = probe_type()
            with probe.installed():
                done.append((probe, timed_pass(runs, gate)))
        round_s = time.perf_counter() - round_start
    return out


class SetupProbes:
    """Set-up times (import, generate, load) of fresh interpreters.

    The probes are spread over the run, one before a round of passes at most
    every `seconds / SETUP_REPEATS`, so that their median does not hang on
    the few seconds in which they would otherwise all run.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.interval = seconds / SETUP_REPEATS
        self.samples: list[float] = []
        self._last = -float("inf")

    def _probe(self):
        done = subprocess.run(self.command, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(done.stdout.split()[-1]))

    def between_rounds(self):
        now = time.perf_counter()
        if len(self.samples) < SETUP_REPEATS and now - self._last >= self.interval:
            self._last = now
            self._probe()

    def median(self) -> float:
        while len(self.samples) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.samples)


def median_times(measured, scales) -> tuple[np.ndarray, float]:
    """Each tick's median time over the passes, and the median non-tick rest,
    after every time of pass p is multiplied by scales[p]."""
    if len({len(timer.tick_s) for timer, _ in measured}) != 1:
        raise ValueError("passes ran different numbers of ticks")
    ticks = np.array([timer.tick_s for timer, _ in measured])
    rest = np.array([seconds - timer.kernel_s for timer, seconds in measured]) - ticks.sum(axis=1)
    return np.median(ticks * scales[:, None], axis=0), float(np.median(rest * scales))


def log_counts(results) -> dict[str, float]:
    """Scheduler counts of one pass, read from the event logs."""
    backlogged = requeued = requeue_admitted = decisions = 0
    for result in results:
        pending = set()
        for line in result.lines:
            _, kind, traj, detail = line.split("\t")
            if _decides(kind, detail):
                decisions += 1
            if kind == "BACKLOGGED":
                backlogged += 1
            elif kind == "REQUEUED":
                requeued += 1
                pending.add(traj)
            if kind == "ADMITTED" and traj in pending:
                requeue_admitted += 1
            if kind in ("ADMITTED", "BACKLOGGED", "CANCELLED", "TIMEOUT_ABORT"):
                pending.discard(traj)
    return {
        "executor.decisions": decisions,
        "executor.backlogged": backlogged,
        "executor.requeued": requeued,
        "executor.requeue_admit_frac": requeue_admitted / requeued if requeued else 0.0,
        "collision.state_evaluations": sum(r.metrics.state_evaluations for r in results),
    }


def host_times(measured, scales) -> dict[str, float]:
    ticks, rest = median_times(measured, scales)
    decisions = ticks[np.array(measured[0][0].decided, dtype=bool)]
    return {
        "run_s": rest + float(ticks.sum()),
        "tick_us_p50": float(np.percentile(ticks, 50)) * 1e6,
        "tick_us_p99": float(np.percentile(ticks, 99)) * 1e6,
        "decision_ms_p50": float(np.percentile(decisions, 50)) * 1e3,
        "decision_ms_p90": float(np.percentile(decisions, 90)) * 1e3,
    }


def end_to_end(gate, measured, setup_s) -> dict[str, float]:
    results = gate.first
    admitted = [sum(line.split("\t", 2)[1] == "ADMITTED" for line in r.lines) for r in results]
    statuses = [s for r in results for s in r.statuses.values()]
    timer = measured[0][0]
    print(f"# samples: passes={len(measured)} ticks={len(timer.tick_s)} decision_ticks={sum(timer.decided)}")
    print("# pass seconds: " + " ".join(f"{s - t.kernel_s:.3f}" for t, s in measured))
    # each pass is scaled by the kernel's speed in the seconds it ran
    scales = np.array([t.speed.scale() for t, _ in measured])
    unscaled = {"setup_s": setup_s, **host_times(measured, np.ones(len(measured)))}
    print(
        f"# reference kernel: {statistics.median(t.speed.kernel_s() for t, _ in measured) * 1e3:.4f} ms"
        f" (median over passes); pass scales {scales.min():.4f} to {scales.max():.4f}"
    )
    print("# unscaled host times: " + " ".join(f"{n}={v:.6g}" for n, v in unscaled.items()))
    return {
        "setup_s": setup_s * float(np.median(scales)),
        **host_times(measured, scales),
        "sim_makespan_s": sum(r.metrics.makespan for r in results),
        "sim_mean_wait_s": sum(r.metrics.mean_wait * n for r, n in zip(results, admitted))
        / max(1, sum(admitted)),
        "succeeded_frac": sum(s.kind is StatusKind.SUCCEEDED for s in statuses) / len(statuses),
        "peak_rss_mb": gate.rss_mb,
    }


def per_layer(gate, plain, traced, absent, warnings) -> dict[str, float]:
    median = statistics.median
    out = {}
    for prefix, *_ in SITES:
        out[f"{prefix}.calls"] = traced[0][0].stats[prefix].calls
        out[f"{prefix}.ms"] = median(t.stats[prefix].seconds for t, _ in traced) * 1e3
        out[f"{prefix}.self_ms"] = median(t.stats[prefix].self_seconds for t, _ in traced) * 1e3
    stats = traced[0][0].stats
    for prefix in ("collision.trajectory_vs_running", "collision.trajectory_vs_static"):
        calls = stats[prefix].calls
        out[f"{prefix}.colliding_frac"] = stats[prefix].counts["colliding"] / calls if calls else 0.0
    counts = log_counts(gate.first)

    def per_second(prefix, count):
        ms = out[f"{prefix}.ms"]
        return stats[prefix].counts[count] / (ms / 1e3) if ms > 0 else 0.0

    configs = stats["kinematics.placed_segments"].counts["configs"]
    out["kinematics.placed_segments.configs"] = configs
    out["kinematics.placed_segments.configs_per_s"] = per_second("kinematics.placed_segments", "configs")
    out["kinematics.placed_segments.configs_per_decision"] = (
        configs / counts["executor.decisions"] if counts["executor.decisions"] else 0.0
    )
    out["geometry.segment_distance.pairs"] = stats["geometry.segment_distance"].counts["pairs"]
    out["geometry.segment_distance.pairs_per_s"] = per_second("geometry.segment_distance", "pairs")
    out["trajectory.states_at.samples"] = stats["trajectory.states_at"].counts["samples"]
    out["collision.composite_state_check.run_share"] = median(
        t.stats["collision.composite_state_check"].seconds / s for t, s in traced
    )
    out.update(counts)
    out["executor.below_bound_warnings"] = warnings / (len(plain) + len(traced))
    out["trace.run_s"] = median(s for _, s in traced)
    out["trace.overhead_frac"] = out["trace.run_s"] / median(s for _, s in plain) - 1.0
    out["trace.absent_sites"] = len(absent)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        f" nproc={len(os.sched_getaffinity(0))} cpython={platform.python_version()}"
        f" numpy={np.__version__}"
    )

    def load():
        return workloads.load(args.workload, args.seed)

    gate = Gate()
    failed = 0
    metrics: dict[str, float] = {}
    try:
        with counted_warnings() as warned:
            if args.trace:
                plain, traced = passes(load, gate, args.seconds, (TickTimer, Tracer))
                absent = traced[0][0].absent
                if absent:
                    print(f"# absent (not traced): {', '.join(absent)}")
                metrics = per_layer(gate, plain, traced, absent, warned.count)
            else:
                setup = SetupProbes(args.workload, args.seed, args.seconds)
                (measured,) = passes(
                    load, gate, args.seconds, (lambda: TickTimer(scaled=True),), setup.between_rounds
                )
                metrics = end_to_end(gate, measured, setup.median())
            print(f"# executor below-bound warnings: {warned.count} in {len(gate.digests)} passes")
        gate.check_clearance()
    except Exception as exc:  # the run itself failed: report it as a failed operation
        traceback.print_exc()
        failed = 1
        gate.problems.append(f"raised {exc!r}")
    correct = not gate.problems
    print(f"# event-log sha256: {gate.digests[0] if gate.digests else '-'}")
    for problem in gate.problems:
        print(f"# CHECK FAILED: {problem}")
    units = END_TO_END_UNITS if not args.trace else {n: per_layer_unit(n) for n in metrics}
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
