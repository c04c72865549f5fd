"""Each wire frame is read and parsed at most once, and the frame it carries is its parse.

A frame enters the segment as one `Wire` value (bytes, header, parse), with
its description beside it, that the segment hands to every receiver, so no
layer reads or parses it again. A cloaked NIC, the trace and an attacker's
tap read every frame from its header, so the frames they handle are never
parsed.
"""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloaknic import frames
from cloaknic.demos import DEMOS, TEST_KEY_HEX
from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    FrameError,
    IcmpMessage,
    Ipv4Address,
    EthernetFrame,
    MacAddress,
    Oversize,
    Wire,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    parse_frame,
    read_header,
    serialize_frame,
    tcp_segment,
)
from cloaknic.knock import KnockFields, SharedKey, seal_knock
from cloaknic.netsim import PlainHostNode, Segment, describe_frame
from cloaknic.nic import ArpCacheUpdate, Delivered, DropReason, DropRecord
from cloaknic.scenario import build_segment, parse_scenario

MAC_A = MacAddress.from_str("aa:00:00:00:00:01")
MAC_B = MacAddress.from_str("bb:00:00:00:00:02")
IP_A = Ipv4Address.from_str("192.168.0.1")
IP_B = Ipv4Address.from_str("192.168.0.2")


def count_calls(monkeypatch, function):
    """Counts calls of the `frames` function named `function` made through
    any cloaknic module."""
    calls = [0]
    original = getattr(frames, function)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cloaknic" and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, counting)
    return calls


@pytest.fixture
def parse_count(monkeypatch):
    return count_calls(monkeypatch, "parse_frame")


@pytest.fixture
def read_count(monkeypatch):
    return count_calls(monkeypatch, "read_header")


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
    """Every frame a node sends carries the header and parse its bytes give,
    and is described as its bytes are."""
    carried = []
    transmit = Segment._transmit

    def recording(self, origin, wires, now):
        carried.extend(wires)
        transmit(self, origin, wires, now)

    monkeypatch.setattr(Segment, "_transmit", recording)
    run_demo(name)
    assert carried
    for wire in carried:
        assert isinstance(wire, Wire)
        assert wire.header == read_header(wire.data)
        assert wire.frame == parse_frame(wire.data)
        assert describe_frame(wire) == describe_frame(wire.data)


CLOAKED = """\
[nodes]
server cloaked 10.0.0.2 aa:00:00:00:00:02 services=22
client client 10.0.0.5 aa:00:00:00:00:05
mallory attacker 10.0.0.66 aa:00:00:00:00:66
[keys]
client server {key}
"""
SERVER_MAC, CLIENT_MAC, MALLORY_MAC = (MacAddress.from_str(f"aa:00:00:00:00:{b}")
                                       for b in ("02", "05", "66"))
SERVER_IP, CLIENT_IP, MALLORY_IP = (Ipv4Address.from_str(f"10.0.0.{b}") for b in (2, 5, 66))
KEY = SharedKey.from_hex(TEST_KEY_HEX)


def knock(src_mac, src_ip, payload):
    return serialize_frame(make_icmp_echo(src_mac, SERVER_MAC, src_ip, SERVER_IP, payload))


def syn(src_mac, src_ip, port):
    return serialize_frame(make_ipv4_frame(src_mac, SERVER_MAC, src_ip, SERVER_IP, PROTO_TCP,
                                           tcp_segment(port, 22)))


def server_verdicts(wires):
    """The server's verdict on each frame, injected as bytes from mallory one tick apart."""
    seg = build_segment(parse_scenario(CLOAKED.format(key=TEST_KEY_HEX)))
    for t, wire in enumerate(wires, 1):
        seg.inject(t, wire, "mallory")
    seg.run()
    return [(r.time, r.event) for r in seg.trace if r.node == "server"]


def test_a_cloaked_server_rejects_bytes_from_their_header_alone(parse_count, read_count):
    forged = knock(MALLORY_MAC, CLIENT_IP, b"KNCK\x01\x00" + bytes(40))
    unkeyed = knock(MALLORY_MAC, MALLORY_IP, seal_knock(KEY, bytes(8),
                                                         KnockFields(MALLORY_IP, 40000, 3)))
    probe = syn(MALLORY_MAC, MALLORY_IP, 50000)
    echo = serialize_frame(make_icmp_echo(MALLORY_MAC, SERVER_MAC, MALLORY_IP, SERVER_IP, b"hi"))
    arp_reply = serialize_frame(make_arp(ARP_REPLY, MALLORY_MAC, CLIENT_IP, SERVER_MAC, SERVER_IP))
    arp_other = serialize_frame(make_arp(ARP_REQUEST, MALLORY_MAC, MALLORY_IP, MAC_ZERO,
                                         Ipv4Address.from_str("10.0.0.9")))
    spoof = serialize_frame(EthernetFrame(MAC_BROADCAST, CLIENT_MAC, 0x88B5, b"spoof"))
    bad_tag = DropRecord(DropReason.BAD_KNOCK, 2, "BadTag")
    no_match = DropRecord(DropReason.NO_FILTER_MATCH, 1)
    wires = [forged, unkeyed, probe, echo, arp_reply, arp_other, spoof]
    assert server_verdicts(wires) == \
        [(1, bad_tag), (2, bad_tag), (3, no_match), (4, no_match),
         (5, DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1)),
         (6, DropRecord(DropReason.NO_FILTER_MATCH, 1, "arp-other-ip")),
         (7, DropRecord(DropReason.NO_FILTER_MATCH, 1, "non-ip ethertype"))]
    assert parse_count[0] == 0
    # one read per frame, shared by its description and every receiver
    assert read_count[0] == len(wires)


def test_an_attackers_tap_captures_a_knock_from_its_header(parse_count):
    genuine = knock(CLIENT_MAC, CLIENT_IP, seal_knock(KEY, bytes(8),
                                                      KnockFields(CLIENT_IP, 40000, 1)))
    seg = build_segment(parse_scenario(CLOAKED.format(key=TEST_KEY_HEX)))
    seg.inject(1, genuine, "client")
    seg.run()
    assert seg.node("mallory").last_knock.data is genuine
    assert parse_count[0] == 0


def test_bytes_that_pass_the_filter_are_admitted():
    genuine = knock(CLIENT_MAC, CLIENT_IP, seal_knock(KEY, bytes(8),
                                                      KnockFields(CLIENT_IP, 40000, 1)))
    assert server_verdicts([genuine, syn(CLIENT_MAC, CLIENT_IP, 40000)]) == \
        [(1, ArpCacheUpdate(CLIENT_IP, CLIENT_MAC)), (2, Delivered())]


def test_malformed_wire_is_read_once_and_raises_on_every_access(read_count):
    wire = Wire(b"\x00" * 13)
    for _ in range(3):
        with pytest.raises(frames.TooShort):
            wire.frame
        with pytest.raises(frames.TooShort):
            wire.header
    assert read_count[0] == 1


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
