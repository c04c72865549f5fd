"""The trace keeps each frame's wire bytes, not their hex, and `run` writes it line by line.

A record holds the very bytes object its frame was carried in, so a forged
frame costs the log two entries of five slots, not a hex string per
receiver; frames with the same text share one description; the log keeps
each line's fields, not a record object; and the CLI renders one line at a
time, so writing a trace needs memory for a line, not for the whole text.
The bounds fail on a log that keeps hex text, a description per frame or a
record per line, or on a CLI that joins the trace into one string.
"""

import argparse
import gc
import random
import tracemalloc
from itertools import islice

from cloaknic import frames
from cloaknic.cli import _write_outputs
from cloaknic.demos import TEST_KEY_HEX
from cloaknic.netsim import FIELDS, DropRecord, PlainHostNode, Segment
from cloaknic.scenario import build_segment, parse_scenario, run_scenario

FORGED = 2000
# Log growth per trace line over a run of forged knocks, ten to a tick
# (Python 3.11): about 41 B when they share one description and the log
# keeps fields; 57 B with a record per line, shared by the passers-by of a
# tick; 135 B with a description and a record each; and about 250 B when
# records also keep the frame's 224-character hex.
BYTES_PER_LINE = 80
# The same, one knock to a tick: about 41 B with fields in the log, 96 B
# with a record per line, 135 B with a description per frame as well.
BYTES_PER_LINE_ONE_PER_TICK = 120
# Log growth per trace line over the scan below, whose every frame has its
# own bytes and description: about 102 B with fields in the log, 157 B with
# a record per line.
SCAN_BYTES_PER_LINE = 120
# What writing a trace may hold at once beyond its starting size: some
# buffered lines, far below the ~6 MB of text of the scan below.
WRITE_PEAK = 1 << 20
# Log growth per frame sent to a MAC no node has (Python 3.11): about 42 B
# when every such frame shares its origin's plan and tuple of names; 90 B
# with a plan, and a 1-tuple of names, built for each frame.
BYTES_PER_UNKNOWN_MAC_FRAME = 45

SEGMENT = f"""\
[nodes]
server cloaked 10.0.0.2 aa:00:00:00:00:02 services=22
client client 10.0.0.5 aa:00:00:00:00:05
mallory attacker 10.0.0.66 aa:00:00:00:00:66
[keys]
client server {TEST_KEY_HEX}
[protected]
client server
[horizon]
300
"""

SCAN = """\
[nodes]
server cloaked 10.0.0.2 aa:00:00:00:00:02 services=22
plain plainhost 10.0.0.3 aa:00:00:00:00:03 services=22
mallory attacker 10.0.0.66 aa:00:00:00:00:66
[steps]
5 attack mallory portscan server 1-4096
5 attack mallory portscan plain 1-4096
[horizon]
60
"""


def forged_knocks(n):
    """`n` knocks from mallory's MAC in the client's name, with random tags."""
    rng = random.Random(1)
    mallory, server = (frames.MacAddress.from_str(f"aa:00:00:00:00:{b}") for b in ("66", "02"))
    client_ip, server_ip = (frames.Ipv4Address.from_str(f"10.0.0.{b}") for b in (5, 2))
    return [frames.serialize_frame(frames.make_icmp_echo(
        mallory, server, client_ip, server_ip, b"KNCK\x01\x00" + rng.randbytes(40)))
        for _ in range(n)]


def run_forged(forged, per_tick):
    """The segment after `forged` ran, `per_tick` to a tick, and what its run grew."""
    seg = build_segment(parse_scenario(SEGMENT), seed=1)
    for i, wire in enumerate(forged):
        seg.inject(5 + i // per_tick, wire, "mallory")
    return seg, grown_by_run(seg)


def grown_by_run(seg):
    """The memory `seg.run()` leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        seg.run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return grown


def test_records_hold_the_injected_bytes_and_no_hex():
    forged = forged_knocks(FORGED)
    seg, grown = run_forged(forged, per_tick=10)
    rejected = [r for r in seg.trace if type(r.event) is DropRecord and r.event.detail == "BadTag"]
    assert len(rejected) == FORGED
    assert all(r.raw is wire for r, wire in zip(rejected, forged))
    assert rejected[0].raw_hex == forged[0].hex()
    lines = len(seg.trace)
    assert lines == 2 * FORGED  # the server's drop and the client's ignored line
    assert grown / lines < BYTES_PER_LINE


def test_one_forged_knock_per_tick_shares_its_description():
    seg, grown = run_forged(forged_knocks(FORGED), per_tick=1)
    lines = len(seg.trace)
    assert lines == 2 * FORGED
    assert grown / lines < BYTES_PER_LINE_ONE_PER_TICK


def test_a_scan_leaves_each_lines_fields_not_a_record():
    seg = build_segment(parse_scenario(SCAN), seed=1)
    grown = grown_by_run(seg)
    lines = len(seg.trace)
    assert lines == 9 * 4096  # per port: 3 lines for the probe of the server, 6 of the plain host
    assert grown / lines < SCAN_BYTES_PER_LINE


def test_frames_to_unknown_macs_share_one_plan_and_its_names():
    seg = Segment()
    for i in (0, 1):
        seg.attach(PlainHostNode(f"n{i}", frames.MacAddress(bytes([0xAA, 0, 0, 0, 0, i])),
                                 frames.Ipv4Address(bytes([10, 0, 0, i])), set()))
    count = 10_000
    src = seg.node("n0").mac
    for i in range(count):
        dst = frames.MacAddress(b"\x02" + i.to_bytes(5, "big"))
        seg.inject(i, frames.serialize_frame(frames.EthernetFrame(dst, src, 0x88B5, b"x")), "n0")
    grown = grown_by_run(seg)
    passers_by = list(islice(seg._log, 1, None, FIELDS))
    assert len(passers_by) == count and passers_by[0] == ("n1",)
    assert len({id(names) for names in passers_by}) == 1
    assert grown / count < BYTES_PER_UNKNOWN_MAC_FRAME


def test_writing_a_trace_holds_no_more_than_a_few_lines(tmp_path):
    trace, metrics = run_scenario(parse_scenario(SCAN))
    args = argparse.Namespace(trace=str(tmp_path / "trace"), metrics=str(tmp_path / "metrics"),
                              hex=True, quiet=True)
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        _write_outputs(args, trace, metrics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = (tmp_path / "trace").stat().st_size
    assert written > 5 * WRITE_PEAK
    assert peak - start < WRITE_PEAK
