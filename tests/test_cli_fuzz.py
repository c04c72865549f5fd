"""Fuzz the scenario front door: `check` and `run` on scenario text built from
a token vocabulary, in-process.

Whatever the text, no exception escapes `main`, the exit code is one of the
documented ones, and a scenario `check` accepts runs: `run` exits 0. Port
ranges span at most 64 ports and repetition counts stay small, so each
example runs in milliseconds.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_scenario_cli import NOTHING_CAPTURED

from cloaknic.cli import main
from cloaknic.demos import TEST_KEY_HEX
from cloaknic.scenario import NODE_KINDS, SECTIONS


def pick(good, bad=()):
    """A token, wrong about one time in ten when `bad` ones are given."""
    return st.sampled_from(list(good) * 9 + list(bad))


GOOD_INTS, BAD_INTS = ["0", "1", "2", "22", "65535"], ["-1", "65536", "x"]
# thousands of firings would be slow; a period is at least one tick
REPEAT = ["count=0", "count=1", "count=2", "period=1", "period=2"]

name = pick(["a", "b", "c"], ["ghost"])
kind = pick(NODE_KINDS, ["router"])
port = pick(GOOD_INTS, BAD_INTS)
ip = pick(["10.0.0.1", "10.0.0.2", "10.0.0.3"], ["10.0.0.256", "1.2.3"])
mac = pick(["aa:00:00:00:00:01", "aa:00:00:00:00:02"], ["aa:00:00:00:01", "zz:00:00:00:00:00"])
port_range = pick(["1-64", "65472-65535", "22-22"], ["0-5", "5-2", "7", "1-65536"])
key = pick([TEST_KEY_HEX], ["00", "zz"])
services = st.lists(pick(["services=22", "services=22,65535"],
                         ["services=65536", "services=-1", "count=1"]), max_size=1)
repeat = st.lists(pick(REPEAT, ["count=-1", "period=0", "period=x", "cnt=1", "services=22"]),
                  max_size=2)
HEADERS = [f"[{s}]" for s in SECTIONS] + ["[bogus]"]
VOCABULARY = (["a", "b", "ghost", "router", "-1", "0", "65535", "65536", "x", "10.0.0.1",
               "aa:00:00:00:00:01", "1-64", "5-2", "count=1", "cnt=1", "services=65536", "00",
               "send", "ping", "attack", "tcp", "icmp", "portscan", "arppoison", "macspoof",
               "knockreplay", "nmap", TEST_KEY_HEX] + list(NODE_KINDS) + HEADERS)


def line(*parts, opts=st.just([])):
    """A line of the given tokens, then the options `opts` draws."""
    return st.tuples(*parts, opts).map(lambda t: " ".join(t[:-1] + tuple(t[-1])))


program = st.one_of(
    line(st.just("portscan"), name, port_range),
    line(st.just("arppoison"), name, ip, mac, opts=repeat),
    line(st.just("macspoof"), name, opts=repeat),
    line(st.just("knockreplay")),
    line(st.just("ping"), name),
    line(pick(["nmap", "portscan", "arppoison"])),
)
when = pick(["0", "1", "5", "30"], BAD_INTS)
step = st.one_of(
    line(when, st.just("send"), name, name, pick(["tcp", "udp"], ["icmp"]), port, port),
    line(when, st.just("ping"), name, name),
    line(when, st.just("attack"), name, program),
)
soup = st.lists(st.sampled_from(VOCABULARY), max_size=7).map(" ".join)


def block(header, lines, max_size):
    return st.lists(lines, max_size=max_size).map(lambda ls: "\n".join([header] + ls))


def nodes_abc(kinds):
    return [f"{n} {k} 10.0.0.{i} aa:00:00:00:00:0{i} services=22"
            for i, (n, k) in enumerate(zip("abc", kinds), 1)]


# nodes a, b and c of random kinds, then perhaps one more node line
extra_node = line(pick(["d"], ["a"]), kind, ip, mac, opts=services)
nodes = st.tuples(st.lists(kind, min_size=3, max_size=3), st.lists(extra_node, max_size=1)).map(
    lambda t: "\n".join(["[nodes]"] + nodes_abc(t[0]) + t[1]))
structured = st.tuples(
    nodes,
    block("[keys]", line(name, name, key), 3),
    block("[protected]", line(name, name), 1),
    block("[steps]", step, 6),
    block("[horizon]", pick(["60"], BAD_INTS), 1),
).map("\n".join)
scrambled = st.lists(st.one_of(st.sampled_from(HEADERS), step, soup), max_size=12).map("\n".join)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.txt"


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(structured, structured, scrambled))  # two in three are structured
@example(text=NOTHING_CAPTURED)  # random examples seldom replay with nothing captured
def test_check_and_run_are_total_and_agree(scenario_path, text):
    scenario_path.write_text(text)
    check_rc = quiet_main(["check", "--scenario", str(scenario_path)])
    run_rc = quiet_main(["run", "--quiet", "--scenario", str(scenario_path)])
    assert check_rc in (0, 1, 2, 3) and run_rc in (0, 1, 2, 3)
    if check_rc == 0:
        assert run_rc == 0
