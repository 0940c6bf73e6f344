"""A fixed reference kernel that measures how fast the host runs right now.

The host times of a shared machine drift with the load of other tenants: on
a 2-vCPU cloud host the same `ring16` pass took 5 s in one minute and 8 s a
few minutes later. Medians over one run cannot remove a slow spell that
lasts longer than the run. So the benchmark times this kernel while each
pass runs and scales the pass's host times by `NOMINAL_S / median kernel
time`: the figures then read as seconds on a host where one kernel call
takes exactly `NOMINAL_S`. The kernel is the benchmark's own code and
never calls multiarm, so a change of the program does not move it.

Its mix follows the program's: small-array numpy arithmetic shaped like a
capsule clearance sweep, and pure-Python object and dict bookkeeping shaped
like a scheduler tick, the numpy part taking a little more time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1e-3
INTERVAL_S = 0.02  # least host time between two kernel calls

_P0, _P1, _Q0, _Q1 = np.random.default_rng(20231012).random((4, 24, 3))
_SHIFTS = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
_BOOKKEEPING = 160


class _Entry:
    __slots__ = ("key", "group", "time")

    def __init__(self, key, group, time):
        self.key = key
        self.group = group
        self.time = time


def kernel() -> float:
    """One fixed unit of work; returns a value so that nothing is skipped."""
    acc = 0.0
    for shift in _SHIFTS:
        d1 = _P1 - _P0
        d2 = _Q1 - _Q0 + shift
        r = _P0 - _Q0
        a = np.einsum("...i,...i->...", d1, d1)
        e = np.einsum("...i,...i->...", d2, d2)
        f = np.einsum("...i,...i->...", d2, r)
        c = np.einsum("...i,...i->...", d1, r)
        b = np.einsum("...i,...i->...", d1, d2)
        s = np.clip((b * f - c * e) / np.maximum(a * e - b * b, 1e-12), 0.0, 1.0)
        t = np.clip((b * s + f) / e, 0.0, 1.0)
        diff = (_P0 + s[:, None] * d1) - (_Q0 + t[:, None] * d2)
        acc += float(np.sqrt(np.einsum("...i,...i->...", diff, diff)).min())
    backlog: dict[str, list[_Entry]] = {}
    for i in range(_BOOKKEEPING):
        entry = _Entry(f"arm{i % 8}/{i}", f"arm{i % 8}", i * 0.01)
        backlog.setdefault(entry.group, []).append(entry)
    for group, entries in backlog.items():
        entries.sort(key=lambda x: -x.time)
        acc += entries[0].time + len(group)
    return acc


class Speedometer:
    """Kernel times sampled evenly over one timed pass, and the scale they give.

    The timer of the program's ticks calls `after_tick` after each tick; at
    most every `INTERVAL_S` that times one kernel call. So the samples fall
    in the same seconds as the program's work, not only between passes.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def after_tick(self, now: float) -> float:
        """Time one kernel call if it is due; return the seconds spent here."""
        if now < self._next:
            return 0.0
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._next = t1 + INTERVAL_S
        return t1 - now

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that turns host seconds into seconds at the nominal speed."""
        return NOMINAL_S / self.kernel_s()
