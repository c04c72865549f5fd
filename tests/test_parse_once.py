"""Each wire frame is parsed at most once, and the frame it carries is its parse.

A frame enters the segment as one `Wire` value (bytes, parse, hex), with its
description beside it, that the segment hands to every receiver, so no
layer parses it again.
"""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloaknic import frames
from cloaknic.demos import DEMOS
from cloaknic.frames import (
    ARP_REQUEST,
    MAC_ZERO,
    PROTO_ICMP,
    PROTO_UDP,
    FrameError,
    IcmpMessage,
    Ipv4Address,
    MacAddress,
    Oversize,
    Wire,
    make_arp,
    make_ipv4_frame,
    parse_frame,
    serialize_frame,
)
from cloaknic.netsim import PlainHostNode, Segment, describe_frame
from cloaknic.scenario import build_segment, parse_scenario

MAC_A = MacAddress.from_str("aa:00:00:00:00:01")
MAC_B = MacAddress.from_str("bb:00:00:00:00:02")
IP_A = Ipv4Address.from_str("192.168.0.1")
IP_B = Ipv4Address.from_str("192.168.0.2")


@pytest.fixture
def parse_count(monkeypatch):
    """Counts `parse_frame` calls made through any cloaknic module."""
    calls = [0]
    original = frames.parse_frame

    def counting(wire):
        calls[0] += 1
        return original(wire)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cloaknic" and getattr(module, "parse_frame", None) is original:
            monkeypatch.setattr(module, "parse_frame", counting)
    return calls


def run_demo(name):
    sc = parse_scenario(DEMOS[name])
    seg = build_segment(sc)
    seg.run(sc.horizon)
    return seg


@pytest.mark.parametrize("name", ["port-scan", "baseline-comparison"])
def test_at_most_one_parse_per_wire_frame(name, parse_count):
    seg = run_demo(name)
    wire_frames = sum(m.tx for m in seg.metrics.nodes.values())
    assert wire_frames > 1000
    assert parse_count[0] <= wire_frames


def test_injected_bytes_are_parsed_once_for_all_receivers(parse_count):
    seg = Segment()
    for i in range(1, 5):
        seg.attach(PlainHostNode(f"h{i}", MacAddress(bytes([0xAA, 0, 0, 0, 0, i])),
                                 Ipv4Address(bytes([10, 0, 0, i])), set()))
    request = make_arp(ARP_REQUEST, MAC_A, IP_A, MAC_ZERO, Ipv4Address.from_str("10.0.0.9"))
    seg.inject(0, serialize_frame(request), "h1")
    seg.step()
    assert {r.node for r in seg.trace} == {"h2", "h3", "h4"}
    assert parse_count[0] == 1


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_carried_frame_equals_its_parse(name, monkeypatch):
    carried = []
    inject = Segment.inject

    def recording(self, time, wire, origin, described=None):
        wire = Wire.wrap(wire)
        carried.append((wire, described))
        inject(self, time, wire, origin, described)

    monkeypatch.setattr(Segment, "inject", recording)
    run_demo(name)
    assert carried
    for wire, described in carried:
        assert isinstance(wire, Wire)
        assert wire.frame == parse_frame(wire.data)
        assert described in (None, describe_frame(wire.data))


def test_malformed_wire_parses_once_and_raises_on_every_access(parse_count):
    wire = Wire(b"\x00" * 13)
    for _ in range(3):
        with pytest.raises(frames.TooShort):
            wire.frame
    assert parse_count[0] == 1


icmp_bodies = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda t, ident, data: IcmpMessage(t, 0, ident, 0, data).to_bytes(),
              st.integers(0, 255), st.integers(0, 0xFFFF), st.binary(max_size=56)),
)


@given(icmp_bodies)
def test_make_ipv4_frame_icmp_bytes_match_round_trip(body):
    try:
        expected = parse_frame(serialize_frame(
            frames.EthernetFrame(MAC_B, MAC_A, frames.ETHERTYPE_IPV4,
                                 frames.Ipv4Packet(IP_A, IP_B, PROTO_ICMP, body))))
    except FrameError as exc:
        with pytest.raises(type(exc)):
            make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_ICMP, body)
        return
    assert make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_ICMP, body) == expected


def test_make_ipv4_frame_icmp_message_under_other_protocol():
    icmp = IcmpMessage(8, 0, 1, 2, b"hi")
    f = make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_UDP, icmp)
    assert f == parse_frame(serialize_frame(f))
    assert f.payload.payload == icmp.to_bytes()


def test_oversize_ipv4_frame_fails_to_go_on_the_wire():
    Wire.from_frame(make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_UDP, b"\x00" * 1480))
    with pytest.raises(Oversize):
        Wire.from_frame(make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_UDP, b"\x00" * 1481))
