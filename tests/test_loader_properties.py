"""Property test: every scenario dict either loads or raises ScenarioInvalid.

Inputs are the `crossing` fixture with one to three of its values replaced
by odd JSON values (wrong types, nested lists, booleans, NaN, infinities,
huge magnitudes, empty containers) or deleted. Whatever loads must also run
without any error but the library's own (the CLI turns those into exit 1).
The huge values reach the extent bound of the shapes and poses and `run`'s
guards on run cost. No value is a tiny positive number: a tick that small
passes the guards with a run of up to a million ticks, about a second each,
which would slow the test down.
"""

import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multiarm import MultiArmError, ScenarioInvalid, fixture_path, run
from multiarm.harness import scenario_from_dict

BASE = json.loads(fixture_path("crossing.json").read_text())
DELETE = object()
ODD = [None, True, False, 0, -1, 0.5, 2.57, 1e7, 1e150, -1e308, math.nan, math.inf, -math.inf,
       "1", [], [0.0], [[2.57, 0.0]], {}, DELETE]


def paths(node, prefix=()):
    """The path of every value below `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


PATHS = list(paths(BASE))
edits = st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(ODD)), min_size=1, max_size=3)


def edited(edits):
    """BASE with each edit applied where its path still leads after the earlier ones."""
    data = json.loads(json.dumps(BASE))
    for path, value in edits:
        parent = data
        for key in path[:-1]:
            try:
                parent = parent[key]
            except (KeyError, IndexError, TypeError):
                break
        else:
            key = path[-1]
            if isinstance(parent, list) and not (isinstance(key, int) and key < len(parent)):
                continue
            if not isinstance(parent, (dict, list)):
                continue
            if value is not DELETE:
                parent[key] = value
            elif key in parent or isinstance(parent, list):
                del parent[key]
    return data


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edits, st.sampled_from(["async", "sync"]))
# a huge time reaches `run`'s tick guard on three paths only (the submit times and
# the default timeout), which few of the random edits hit
@example([(("tasks", 0, "submit_time"), 1e7)], "async")
@example([(("params", "default_timeout"), 1e150)], "sync")
def test_every_scenario_dict_loads_or_is_invalid(edits, mode):
    data = edited(edits)
    try:
        scenario = scenario_from_dict(data)
    except ScenarioInvalid:
        return
    try:
        run(scenario, mode)
    except MultiArmError:
        pass
