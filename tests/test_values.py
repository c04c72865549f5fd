"""The guarantees a per-frame value keeps however it is built.

Parsed frames, their addresses and the run's records are immutable, and
equal and hash by value: a value that parse builds from bytes is
indistinguishable from one a constructor builds, and the constructors
still check what they are given.
"""

import ast
import pathlib

import pytest

import cloaknic
from cloaknic.demos import DEMOS, TEST_KEY_HEX
from cloaknic.frames import (
    ARP_REPLY,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    ArpPacket,
    EthernetFrame,
    IcmpMessage,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    TransportView,
    parse_frame,
    serialize_frame,
    tcp_segment,
)
from cloaknic.knock import SharedKey
from cloaknic.netsim import FrameEvent, TraceRecord
from cloaknic.nic import Actions, ArpCacheUpdate, DropReason, DropRecord, verdict
from cloaknic.scenario import parse_scenario, run_scenario

MAC_A = MacAddress(bytes.fromhex("aa0000000001"))
MAC_B = MacAddress(bytes.fromhex("bb0000000002"))
IP_A = Ipv4Address(bytes([10, 0, 0, 5]))
IP_B = Ipv4Address(bytes([10, 0, 0, 2]))

# each frame built by constructors alone, as parse would build it from its bytes
BUILT = {
    "arp": EthernetFrame(MAC_A, MAC_B, ETHERTYPE_ARP,
                         ArpPacket(ARP_REPLY, MAC_B, IP_B, MAC_A, IP_A)),
    "icmp": EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4,
                          Ipv4Packet(IP_A, IP_B, PROTO_ICMP, IcmpMessage(8, 0, 7, 9, b"ping"),
                                     identification=3)),
    "tcp": EthernetFrame(MAC_B, MAC_A, ETHERTYPE_IPV4,
                         Ipv4Packet(IP_A, IP_B, PROTO_TCP, tcp_segment(40000, 22))),
    "opaque": EthernetFrame(MAC_B, MAC_A, 0x88B5, b"spoof"),
}


def values_of(frame):
    """The frame and every value nested in it."""
    out, todo = [], [frame]
    while todo:
        value = todo.pop()
        out.append(value)
        todo += [v for v in value if isinstance(v, tuple)]
    return out


def assert_immutable(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_parsed_frame_equals_and_hashes_like_the_built_one(kind):
    built = BUILT[kind]
    parsed = parse_frame(serialize_frame(built))
    assert parsed == built
    assert hash(parsed) == hash(built)
    assert {built: kind}[parsed] == kind
    for parsed_value, built_value in zip(values_of(parsed), values_of(built)):
        assert type(parsed_value) is type(built_value)
        assert parsed_value == built_value and hash(parsed_value) == hash(built_value)


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_parsed_frame_and_its_values_are_immutable(kind):
    for value in values_of(parse_frame(serialize_frame(BUILT[kind]))):
        assert_immutable(value)


def test_transport_view_is_immutable():
    view = BUILT["tcp"].payload.transport_view()
    assert view == TransportView(40000, 22, "tcp", True)
    assert_immutable(view)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_records_are_immutable_and_equal_by_value(name):
    trace, _ = run_scenario(parse_scenario(DEMOS[name]))
    for record in trace:
        assert_immutable(record)
        if isinstance(record.event, tuple):
            assert_immutable(record.event)
        copy = TraceRecord(*record)
        assert copy == record and hash(copy) == hash(record)
    assert any(type(r.event) is DropRecord for r in trace)


def test_events_equal_and_hash_by_value():
    drop = DropRecord(DropReason.BAD_KNOCK, 2, "BadTag")
    assert drop == DropRecord(DropReason.BAD_KNOCK, 2, "BadTag")
    assert hash(drop) == hash(DropRecord(DropReason.BAD_KNOCK, 2, "BadTag"))
    assert drop != DropRecord(DropReason.BAD_KNOCK, 2, "Replayed")
    assert DropRecord(DropReason.MALFORMED, 1) == DropRecord(DropReason.MALFORMED, 1, None)
    update = ArpCacheUpdate(IP_A, MAC_A)
    assert update == ArpCacheUpdate(Ipv4Address(bytes([10, 0, 0, 5])), MAC_A)
    assert hash(update) == hash(ArpCacheUpdate(IP_A, MAC_A))
    record = TraceRecord(4, "server", drop, "icmp-knock 10.0.0.66->10.0.0.2")
    assert record.summary == "BadKnock BadTag | icmp-knock 10.0.0.66->10.0.0.2"
    assert record.stage_count == 2
    assert record == TraceRecord(4, "server", drop, "icmp-knock 10.0.0.66->10.0.0.2", None)
    assert record != TraceRecord(4, "server", FrameEvent.IGNORED, record.frame)
    for value in (drop, update, record):
        assert_immutable(value)


def test_a_verdict_shares_one_record():
    # a run repeats few verdicts, so the NIC keeps one immutable value of each
    first = verdict(DropReason.BAD_KNOCK, 2, "BadTag")
    assert first is verdict(DropReason.BAD_KNOCK, 2, "BadTag")
    assert first == Actions(drops=(DropRecord(DropReason.BAD_KNOCK, 2, "BadTag"),))
    assert verdict(DropReason.MALFORMED, 1, None).drops == (DropRecord(DropReason.MALFORMED, 1),)
    assert_immutable(first)


def test_every_verdict_call_passes_its_three_arguments_by_position():
    """`verdict`'s cache keys a call by its arguments as given, so a call
    that named an argument would be a second entry, and a second value, of
    its drop."""
    calls = [node for path in pathlib.Path(cloaknic.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and "verdict" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None))]
    assert len(calls) > 10
    assert [ast.unparse(call) for call in calls if len(call.args) != 3 or call.keywords] == []


def test_shared_key_is_equal_by_its_bytes_alone():
    key = SharedKey.from_hex(TEST_KEY_HEX)
    assert key == SharedKey.from_hex(TEST_KEY_HEX) and hash(key) == hash(SharedKey(key.key_bytes))
    assert key != SharedKey(bytes(32))
    assert repr(key) == f"SharedKey(key_bytes={key.key_bytes!r})"
    with pytest.raises(AttributeError):
        key.key_bytes = bytes(32)
