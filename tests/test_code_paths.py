"""The paper's "minimal code execution paths", measured.

What a frame from a sender with no key reaches at the cloaking NIC is a
short, reviewed list of functions: the NIC's attack surface. Each frame
arrives as bytes and is described first, as `Segment.step` does, so each
receiver runs only what it runs in a segment; the description reads the
header that every receiver then shares, and is the same work for either.
Where the plain software stack answers a frame (the IPv4 rows), the NIC
also runs fewer lines of cloaknic than that stack does; line counts differ
between Python versions, so only the inequality is asserted. Nor does any
such frame cost the cloaked NIC more than one HMAC, and every cloaked NIC
gives such a frame one shared verdict value, so judging it allocates
nothing.
"""

import os
import sys

import pytest

import cloaknic
from cloaknic import frames, knock, netsim, nic
from cloaknic.demos import TEST_KEY_HEX
from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
    PROTO_TCP,
    TCP_FLAG_ACK,
    EthernetFrame,
    Ipv4Address,
    MacAddress,
    Wire,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    serialize_frame,
    tcp_segment,
)
from cloaknic.knock import KnockFields, SharedKey, seal_knock
from cloaknic.netsim import AttackerNode, CloakedServerNode, PlainHostNode, describe_frame
from cloaknic.nic import CloakingNic, NicConfig

PACKAGE = os.path.dirname(cloaknic.__file__)
KEY = SharedKey.from_hex(TEST_KEY_HEX)
# one host, cloaked or plain: the same addresses, so each gets the same frame
HOST_MAC = MacAddress.from_str("aa:00:00:00:00:02")
HOST_IP = Ipv4Address.from_str("10.0.0.2")
CLIENT_MAC = MacAddress.from_str("aa:00:00:00:00:05")
CLIENT_IP = Ipv4Address.from_str("10.0.0.5")  # the key holder
MALLORY_MAC = MacAddress.from_str("aa:00:00:00:00:66")
MALLORY_IP = Ipv4Address.from_str("10.0.0.66")
NOW = 3


def echo(src_ip, payload):
    return serialize_frame(make_icmp_echo(MALLORY_MAC, HOST_MAC, src_ip, HOST_IP, payload))


# The IPv4 frames the plain stack answers: a SYN-ACK or RST, or an echo reply.
ANSWERED = {
    "syn-probe": serialize_frame(make_ipv4_frame(MALLORY_MAC, HOST_MAC, MALLORY_IP, HOST_IP,
                                                 PROTO_TCP, tcp_segment(50000, 22))),
    "echo-probe": echo(MALLORY_IP, b"hi"),
    "knock-unkeyed-ip": echo(MALLORY_IP, seal_knock(KEY, bytes(8),
                                                    KnockFields(MALLORY_IP, 40000, NOW))),
    "forged-knock-keyed-ip": echo(CLIENT_IP, b"KNCK\x01\x00" + bytes(40)),
}
UNAUTHENTICATED = {
    **ANSWERED,
    "forged-arp-reply": serialize_frame(make_arp(ARP_REPLY, MALLORY_MAC, CLIENT_IP,
                                                 HOST_MAC, HOST_IP)),
    "arp-request-other-ip": serialize_frame(make_arp(ARP_REQUEST, MALLORY_MAC, MALLORY_IP,
                                                     MAC_ZERO, Ipv4Address.from_str("10.0.0.9"))),
    "ethertype-0x88b5": serialize_frame(EthernetFrame(MAC_BROADCAST, CLIENT_MAC, 0x88B5,
                                                      b"spoof")),
    # ethertype 0x0800 with 6 bytes of body: too short for an IPv4 header
    "short-ipv4": HOST_MAC.octets + MALLORY_MAC.octets + b"\x08\x00" + bytes(6),
}


def code_objects(function):
    """`function`'s code and the code nested in it: its comprehensions,
    which are functions of their own before Python 3.12 (PEP 709)."""
    todo, found = [function.__code__], set()
    while todo:
        code = todo.pop()
        found.add(code)
        todo += [const for const in code.co_consts if type(const) is type(code)]
    return found


# The cloaked NIC's attack surface: every function of cloaknic that a frame
# from a sender with no key may run once it is described. Review a change
# to this list as a change to what an attacker can reach.
ATTACK_SURFACE = [
    netsim.CloakedServerNode.receive,  # the node hands the frame to its NIC
    nic.CloakingNic.on_wire_receive,   # dispatch on the header's type
    frames.Wire.header.fget,           # the header the description already read
    nic.CloakingNic._receive_arp,      # an ARP request's target, a reply's parked frames
    nic.CloakingNic._receive_ipv4,     # the knock magic, then the filter
    knock.is_knock_payload,
    nic.CloakingNic._receive_knock,    # a keyed sender's knock
    knock.open_knock,                  # its tag check, with one HMAC
    knock.prf,
    nic.FilterTable.lookup,            # the default-drop filter
    nic.verdict.__wrapped__,           # a drop's shared value, run on a cache miss only
]
ALLOWED = set().union(*map(code_objects, ATTACK_SURFACE))


def run_traced(receiver, data):
    """The line events in cloaknic's source, and the code objects called
    there, while `receiver` takes the frame `data`, arrived as bytes and
    already described."""
    wire = Wire(data)
    describe_frame(wire)
    count, called = 0, set()

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        if os.path.dirname(frame.f_code.co_filename) != PACKAGE:
            return None
        called.add(frame.f_code)
        return local

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        receiver.receive(wire, NOW)
    finally:
        sys.settrace(previous)
    return count, called


def cloaked_server():
    return CloakedServerNode("server", HOST_MAC, HOST_IP, CloakingNic(
        NicConfig(HOST_MAC, HOST_IP, role_keys={CLIENT_IP: KEY})))


@pytest.mark.parametrize("name", sorted(UNAUTHENTICATED))
def test_an_unauthenticated_frame_reaches_only_the_attack_surface(name):
    _, called = run_traced(cloaked_server(), UNAUTHENTICATED[name])
    assert sorted(code.co_name for code in called - ALLOWED) == []


def test_every_function_of_the_attack_surface_is_reached():
    """The list holds no function that no such frame runs, but `verdict`,
    whose body runs only the first time a drop is asked for."""
    called = set().union(*(run_traced(cloaked_server(), data)[1]
                           for data in UNAUTHENTICATED.values()))
    unreached = {fn.__name__ for fn in ATTACK_SURFACE if not code_objects(fn) & called}
    assert unreached <= {"verdict"}


@pytest.mark.parametrize("name", sorted(ANSWERED))
def test_the_cloaked_nic_runs_fewer_lines_than_the_plain_stack(name):
    data = ANSWERED[name]
    plain = PlainHostNode("server", HOST_MAC, HOST_IP, {22})
    assert run_traced(cloaked_server(), data)[0] < run_traced(plain, data)[0]


@pytest.mark.parametrize("name", sorted(UNAUTHENTICATED))
def test_the_cloaked_nic_runs_at_most_one_hmac(name, monkeypatch):
    """Only a knock from a keyed IP reaches the tag check, and a forged tag
    stops there, before the keystream is derived."""
    calls = []
    prf = knock.prf

    def counted(key, message):
        calls.append(message)
        return prf(key, message)

    monkeypatch.setattr(knock, "prf", counted)
    cloaked_server().receive(Wire(UNAUTHENTICATED[name]), NOW)
    assert len(calls) <= 1


@pytest.mark.parametrize("name", sorted(UNAUTHENTICATED))
def test_every_cloaked_nic_gives_the_frame_one_shared_verdict(name):
    data = UNAUTHENTICATED[name]
    first = cloaked_server().receive(Wire(data), NOW)
    assert first.tx_frames == () and first.host_events == () and len(first.drops) == 1
    assert cloaked_server().receive(Wire(data), NOW) is first


def test_a_delivery_a_closed_port_and_an_attacker_share_one_verdict_each():
    syn = serialize_frame(make_ipv4_frame(CLIENT_MAC, HOST_MAC, CLIENT_IP, HOST_IP,
                                          PROTO_TCP, tcp_segment(40000, 22)))
    delivered = []
    for _ in range(2):
        server = cloaked_server()
        server.nic.filter.insert(CLIENT_IP, 40000, NOW)
        delivered.append(server.receive(Wire(syn), NOW))
    assert delivered[0] is delivered[1] and delivered[0].drops == ()
    ack = serialize_frame(make_ipv4_frame(MALLORY_MAC, HOST_MAC, MALLORY_IP, HOST_IP, PROTO_TCP,
                                          tcp_segment(50000, 23, TCP_FLAG_ACK)))
    closed = [PlainHostNode("server", HOST_MAC, HOST_IP, {22}).receive(Wire(ack), NOW)
              for _ in range(2)]
    assert closed[0] is closed[1] and closed[0].drops[0].detail == "tcp-closed"
    attackers = [AttackerNode("mallory", MALLORY_MAC, MALLORY_IP).receive(Wire(syn), NOW)
                 for _ in range(2)]
    assert attackers[0] is attackers[1] and attackers[0] == ((), (), ())
