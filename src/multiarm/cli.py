"""Command-line driver: run a scenario file and emit metrics / event logs.

Exit codes: 0 clean completion, 2 if any trajectory aborted (timeout or
cancellation), 3 if the online monitor halted execution.
"""

from __future__ import annotations

import argparse
import sys

from .errors import MultiArmError
from .executor import StatusKind
from .harness import load_scenario, run, write_events, write_metrics

# scenario params keys, each overridden by the option whose argparse dest it is
PARAMS = ("time_step", "tick", "margin", "default_timeout", "monitor_period")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiarm", description="Asynchronous multi-arm trajectory execution"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a scenario file")
    runp.add_argument("--scenario", required=True, help="scenario JSON file")
    runp.add_argument("--mode", choices=("async", "sync"), default="async")
    runp.add_argument("--time-step", type=float, default=None,
                      help="collision-check discretization step [s]")
    runp.add_argument("--tick", type=float, default=None, help="simulation tick length [s]")
    runp.add_argument("--margin", type=float, default=None, help="clearance margin [m]")
    runp.add_argument("--backlog-timeout", dest="default_timeout", type=float, default=None,
                      help="default backlog timeout for tasks without one [s]")
    runp.add_argument("--monitor-period", type=int, default=None,
                      help="online monitor period [ticks]")
    runp.add_argument("--metrics-out", default=None, help="write metrics CSV here")
    runp.add_argument("--events-out", default=None, help="write event log here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = {key: getattr(args, key) for key in PARAMS if getattr(args, key) is not None}
    try:
        result = run(load_scenario(args.scenario, given), mode=args.mode)
        for write, data, path in ((write_metrics, result.metrics, args.metrics_out),
                                  (write_events, result.lines, args.events_out)):
            try:
                if path:
                    write(data, path)
            except ValueError as exc:  # a name no file can have, such as one with a NUL byte
                raise OSError(f"cannot write {path!r}: {exc}") from exc
    except (MultiArmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    m = result.metrics
    print(
        f"mode={m.mode} makespan={m.makespan:.3f}s mean_wait={m.mean_wait:.3f}s "
        f"backlog={m.backlog_entries} timeouts={m.timeout_aborts} halts={m.collision_halts}"
    )
    kinds = {s.kind for s in result.statuses.values()}
    if StatusKind.ABORTED_COLLISION in kinds or m.collision_halts > 0:
        return 3
    if StatusKind.ABORTED_TIMEOUT in kinds or StatusKind.CANCELLED in kinds:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
