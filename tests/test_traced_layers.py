"""Every layer the benchmark's tracer wraps is still reached through the name it wraps.

`perfbench/tracer.py:instrument` replaces module globals and class
attributes by name. A refactor that inlines one of them into its caller, or
calls a private copy, leaves the traced run with no spans for that layer,
while a ratio such as `parses_per_wire_frame <= 1.0` still holds at zero.
This test counts calls through the same names on one scenario that runs
every node kind, and requires each to be called.
"""

import pathlib
import sys

import pytest

from cloaknic import frames, knock, netsim, nic, scenario
from cloaknic.demos import TEST_KEY_HEX
from cloaknic.frames import Ipv4Address, MacAddress, make_icmp_echo, serialize_frame

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# The names `perfbench/tracer.py:instrument` patches, listed literally, in
# the order of its `fn(...)` and `meth(...)` calls;
# `test_the_lists_are_what_instrument_patches` checks that they agree.
TRACED_FUNCTIONS = [
    (frames, "parse_frame"),
    (frames, "serialize_frame"),
    (frames, "internet_checksum"),
    (frames, "make_ipv4_frame"),
    (knock, "seal_knock"),
    (knock, "open_knock"),
    (knock, "prf"),
    (netsim, "describe_frame"),
    (scenario, "parse_scenario"),
    (scenario, "validate_scenario"),
    (scenario, "build_segment"),
]
TRACED_METHODS = [
    (nic.CloakingNic, "on_wire_receive"),
    (nic.CloakingNic, "on_host_transmit"),
    (nic.FilterTable, "lookup"),
    (nic.FilterTable, "insert"),
    (netsim.Segment, "run"),
    (netsim.Segment, "step"),
    (netsim.PlainHostNode, "receive"),
    (netsim.AttackerNode, "receive"),
    (netsim.AttackerNode, "observe"),
    (netsim.AttackerNode, "frames_for"),
    (netsim.ClientNode, "perform"),
    (netsim.TraceRecord, "format_line"),
    (netsim.Metrics, "to_text"),
]

# All four node kinds: a client's send to the cloaked server (ARP, knock,
# SYN), a scan of the plain host, a replayed knock and a client's ping.
SCENARIO = f"""\
[nodes]
server cloaked 10.0.0.2 aa:00:00:00:00:02 services=22
client client 10.0.0.5 aa:00:00:00:00:05
plain plainhost 10.0.0.3 aa:00:00:00:00:03 services=22
mallory attacker 10.0.0.66 aa:00:00:00:00:66
[keys]
client server {TEST_KEY_HEX}
[protected]
client server
[steps]
5 send client server tcp 40000 22
20 attack mallory portscan plain 20-23
30 attack mallory knockreplay
40 ping client plain
[horizon]
80
"""


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of each traced name, patched where `instrument` patches it."""
    counts = {}

    def counting(name, original):
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, attr in TRACED_FUNCTIONS:
        original = getattr(module, attr)
        wrapper = counting(f"{module.__name__}.{attr}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "cloaknic" and getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, wrapper)
    for cls, attr in TRACED_METHODS:
        monkeypatch.setattr(cls, attr, counting(f"{cls.__name__}.{attr}", cls.__dict__[attr]))
    return counts


def test_every_traced_layer_is_reached(calls):
    sc = scenario.parse_scenario(SCENARIO)
    scenario.validate_scenario(sc)
    seg = scenario.build_segment(sc, seed=1)
    # a frame that arrives as bytes, as the benchmark's forged knocks do, is parsed
    forged = serialize_frame(make_icmp_echo(
        MacAddress.from_str("aa:00:00:00:00:66"), MacAddress.from_str("aa:00:00:00:00:02"),
        Ipv4Address.from_str("10.0.0.5"), Ipv4Address.from_str("10.0.0.2"),
        b"KNCK\x01\x00" + bytes(40)))
    seg.inject(50, forged, "mallory")
    seg.run(sc.horizon)
    lines = [r.format_line(with_hex=True) for r in seg.trace]
    metrics = seg.metrics
    metrics.to_text()

    assert not [name for name, n in calls.items() if n == 0]
    wire_frames = sum(m.tx for m in metrics.nodes.values()) + 1
    assert 1 <= calls["cloaknic.frames.parse_frame"] <= wire_frames
    assert calls["cloaknic.netsim.describe_frame"] == wire_frames  # once per frame
    # every line, a passer-by's too, renders through the method the tracer wraps
    assert calls["TraceRecord.format_line"] == len(lines)
    # the layers did their work: a delivery, a replay refused, a plain host's replies
    assert any("delivered | tcp 10.0.0.5:40000->10.0.0.2:22 syn" in line for line in lines)
    assert any("BadKnock Replayed" in line for line in lines)
    assert any("BadKnock BadTag" in line for line in lines)
    assert metrics.node("plain").tx == 5 and metrics.node("mallory").tx == 5


def test_the_lists_are_what_instrument_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    class Recorder:
        """Takes `instrument`'s patch calls without patching anything."""

        def __init__(self):
            self.functions, self.methods = [], []

        def patch_function(self, module, attr, name, **kw):
            self.functions.append((module, attr))

        def patch_method(self, cls, attr, name, **kw):
            self.methods.append((cls, attr))

    recorder = Recorder()
    try:
        tracer.instrument(recorder, tracer.NicGauges())
    finally:
        sys.modules.pop("tracer", None)
    assert recorder.functions == TRACED_FUNCTIONS
    assert recorder.methods == TRACED_METHODS
