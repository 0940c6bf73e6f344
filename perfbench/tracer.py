"""Per-layer call tracing by wrapping multiarm functions where callers look them up.

A module that does `from .collision import composite_state_check` calls the
function through its own global, so wrapping only the defining module would
miss it. `Tracer.installed()` therefore replaces the function in every loaded
`multiarm` module that binds it (and methods on their class), and restores
every original on exit. A function missing from its module, say after a
refactor merged it away, is listed in `Tracer.absent` instead of failing.

Each wrapped call adds its wall time to `Stat.seconds` (inclusive) and its
wall time minus the time of the wrapped calls it made to `Stat.self_seconds`.
Nested calls are tracked on a stack, so the self times of all sites sum to at
most the wall time of the traced region.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _configs(stat, args, result):
    stat.counts["configs"] += len(args[1])


def _pairs(stat, args, result):
    stat.counts["pairs"] += result.size


def _samples(stat, args, result):
    stat.counts["samples"] += len(result)


def _colliding(stat, args, result):
    stat.counts["colliding"] += bool(result.colliding)


# (metric prefix, defining module, attribute path, extra counter)
SITES = (
    ("executor.tick", "multiarm.executor", "ExecutionManager.tick", None),
    ("executor.submit", "multiarm.executor", "ExecutionManager.submit", None),
    ("collision.composite_state_check", "multiarm.collision", "composite_state_check", None),
    ("collision.trajectory_vs_running", "multiarm.collision", "trajectory_vs_running", _colliding),
    ("collision.trajectory_vs_static", "multiarm.collision", "trajectory_vs_static", _colliding),
    ("kinematics.placed_segments", "multiarm.kinematics", "placed_segments", _configs),
    ("geometry.segment_distance", "multiarm.geometry", "segment_distance", _pairs),
    ("geometry.segment_aabbs", "multiarm.geometry", "segment_aabbs", None),
    ("trajectory.states_at", "multiarm.trajectory", "states_at", _samples),
    ("trajectory.validate", "multiarm.trajectory", "validate", None),
    ("harness.plan_tasks", "multiarm.harness", "plan_tasks", None),
    ("harness.metrics_from_events", "multiarm.harness", "metrics_from_events", None),
)


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counts: dict[str, int] = field(
        default_factory=lambda: {"configs": 0, "pairs": 0, "samples": 0, "colliding": 0}
    )


def _bindings(module_name: str, path: str):
    """(namespace, attribute, original) for every place the target is bound.

    Empty when the target no longer exists.
    """
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if original is None:
        return []
    if isinstance(owner, type):
        return [(owner, attr, original)]
    found = []
    for name, mod in list(sys.modules.items()):
        if (name == "multiarm" or name.startswith("multiarm.")) and getattr(mod, attr, None) is original:
            found.append((mod, attr, original))
    return found


class Tracer:
    def __init__(self, sites=SITES):
        self.sites = sites
        self.stats = {prefix: Stat() for prefix, *_ in sites}
        self.absent: list[str] = []
        self._stack: list[float] = []

    def _wrap(self, fn, stat: Stat, extra):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                children = stack.pop()
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if extra is not None:
                extra(stat, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site for the duration of the block, then restore."""
        self.absent = []
        patched = []
        try:
            for prefix, module_name, path, extra in self.sites:
                bound = _bindings(module_name, path)
                if not bound:
                    self.absent.append(prefix)
                    continue
                wrapper = self._wrap(bound[0][2], self.stats[prefix], extra)
                for namespace, attr, original in bound:
                    setattr(namespace, attr, wrapper)
                    patched.append((namespace, attr, original))
            yield self
        finally:
            for namespace, attr, original in reversed(patched):
                setattr(namespace, attr, original)
