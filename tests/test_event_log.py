"""The event schema: `executor.EVENT_FIELDS` is the one definition of every
log line, `Event.line` writes by it and `Event.parse` is its exact inverse.

Round trips: generated events through `line` and `parse`, and every line of
every pinned run through `parse` and `line`. Malformed logs: `Event.parse`,
and through it `metrics_from_events` and `replay_min_clearance`, refuse each
with `LogInvalid`. Docs: the README's table of fields is the schema's.
"""

import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiarm import LogInvalid, metrics_from_events, replay_min_clearance, run
from multiarm.executor import EVENT_FIELDS, EVENT_KINDS, Event

from conftest import PINNED_RUNS, pinned_scenario

README = Path(__file__).resolve().parent.parent / "README.md"

# text with none of the separators of a line: tab, newline and `;`
TEXT = st.text(st.characters(exclude_characters="\t\n;"), max_size=12)


def printed(fmt):
    """Values of one format, each as the log prints it."""
    if fmt == "d":
        return st.integers(-(10**12), 10**12)
    if fmt == "s":
        return TEXT
    return st.floats(-1e6, 1e6).map(lambda x: float(f"{x:{fmt}}"))


events = st.sampled_from(EVENT_KINDS).flatmap(
    lambda kind: st.builds(
        Event,
        clock=st.floats(0.0, 1e6).map(lambda x: float(f"{x:.6f}")),
        kind=st.just(kind),
        trajectory_id=TEXT,
        values=st.tuples(*map(printed, EVENT_FIELDS[kind].values())),
    )
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(events)
def test_parse_inverts_line_on_generated_events(event):
    assert Event.parse(event.line()) == event
    assert [type(v) for v in Event.parse(event.line()).values] == [type(v) for v in event.values]


@pytest.mark.parametrize("name, mode, period", PINNED_RUNS)
def test_line_inverts_parse_on_every_pinned_line(name, mode, period):
    lines = run(pinned_scenario(name, period), mode).lines
    assert lines and [Event.parse(line).line() for line in lines] == lines


def test_fields_name_the_values_in_schema_order():
    event = Event.parse("0.010000\tBACKLOGGED\tt1\tblockers=t0,static;deadline=2.500000;checks=2;states=41")
    assert event.fields == {"blockers": "t0,static", "deadline": 2.5, "checks": 2, "states": 41}
    assert list(event.fields) == list(EVENT_FIELDS["BACKLOGGED"])
    assert event.detail == "blockers=t0,static;deadline=2.500000;checks=2;states=41"


ADMITTED = "0.010000\tADMITTED\tt0\tstart=0.010000;checks=1;states=41"
KEYS = r"ADMITTED needs the keys \['start', 'checks', 'states'\] in this order"
COLUMNS = "not 4 tab-separated columns with a known event kind"
# each fault: a line with it, and what LogInvalid says about that line
MALFORMED = {
    "unknown kind": ("0.010000\tPAUSED\tt0\tstart=0.010000", COLUMNS),
    "missing key": ("0.010000\tADMITTED\tt0\tstart=0.010000;checks=1", KEYS),
    "extra key": (ADMITTED + ";blocker=t1", KEYS),
    "reordered keys": ("0.010000\tADMITTED\tt0\tstart=0.010000;states=41;checks=1", KEYS),
    "key without a value": ("0.010000\tADMITTED\tt0\tstart=0.010000;checks;states=41", KEYS),
    "non-integer checks": ("0.010000\tADMITTED\tt0\tstart=0.010000;checks=1.5;states=41",
                           "invalid literal for int"),
    "non-float clock": ("soon\tADMITTED\tt0\tstart=0.010000;checks=1;states=41",
                        "could not convert string to float"),
    "a fifth column": (ADMITTED + "\tlate", COLUMNS),
    "three columns": ("0.010000\tADMITTED\tt0", COLUMNS),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED))
def test_parse_names_what_is_wrong_with_a_line(fault):
    line, message = MALFORMED[fault]
    assert Event.parse(ADMITTED).values == (0.01, 1, 41)
    with pytest.raises(LogInvalid, match=message):
        Event.parse(line)


@pytest.fixture(scope="module")
def crossing():
    scenario = pinned_scenario("crossing.json")
    return scenario, run(scenario, "async")


@pytest.mark.parametrize("fault", ["unknown kind", "missing key", "reordered keys", "non-integer checks"])
def test_log_readers_refuse_a_malformed_line(crossing, fault):
    (scenario, result), (line, message) = crossing, MALFORMED[fault]
    lines = result.lines[:2] + [line] + result.lines[2:]
    with pytest.raises(LogInvalid, match=message):
        metrics_from_events(lines, "async")
    with pytest.raises(LogInvalid, match=message):
        replay_min_clearance(scenario, dataclasses.replace(result, lines=lines))


def test_readme_lists_the_schema():
    section = README.read_text().split("## Event log and metrics")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([A-Z_]+)` \| (.*) \|$", section, re.MULTILINE)
    listed = [(kind, re.findall(r"`(\w+)` \(`([.\w]+)`\)", cells)) for kind, cells in rows]
    assert listed == [(kind, list(fields.items())) for kind, fields in EVENT_FIELDS.items()]
