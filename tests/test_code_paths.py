"""The paper's "minimal code execution paths", measured.

On every class of frame that a sender with no key can put on the wire, the
cloaking NIC runs fewer lines of cloaknic than the plain software stack it
replaces. Each frame arrives as bytes and is described first, as
`Segment.step` does, so each receiver runs only what it runs in a segment.
Line counts differ between Python versions, so only the inequality is
asserted. Nor does any such frame cost the cloaked NIC more than one HMAC,
and every cloaked NIC gives such a frame one shared verdict value, so
judging it allocates nothing.
"""

import os
import sys

import pytest

import cloaknic
from cloaknic import knock
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


UNAUTHENTICATED = {
    "syn-probe": serialize_frame(make_ipv4_frame(MALLORY_MAC, HOST_MAC, MALLORY_IP, HOST_IP,
                                                 PROTO_TCP, tcp_segment(50000, 22))),
    "echo-probe": echo(MALLORY_IP, b"hi"),
    "knock-unkeyed-ip": echo(MALLORY_IP, seal_knock(KEY, bytes(8),
                                                    KnockFields(MALLORY_IP, 40000, NOW))),
    "forged-knock-keyed-ip": echo(CLIENT_IP, b"KNCK\x01\x00" + bytes(40)),
    "forged-arp-reply": serialize_frame(make_arp(ARP_REPLY, MALLORY_MAC, CLIENT_IP,
                                                 HOST_MAC, HOST_IP)),
    "arp-request-other-ip": serialize_frame(make_arp(ARP_REQUEST, MALLORY_MAC, MALLORY_IP,
                                                     MAC_ZERO, Ipv4Address.from_str("10.0.0.9"))),
    "ethertype-0x88b5": serialize_frame(EthernetFrame(MAC_BROADCAST, CLIENT_MAC, 0x88B5,
                                                      b"spoof")),
}
# ethertype 0x0800 with 6 bytes of body: too short for an IPv4 header. The
# cloaked NIC runs at most one line fewer on it than the plain host, and which
# verdicts are already cached decides that line, so the line count test
# leaves it out.
SHORT_IPV4 = HOST_MAC.octets + MALLORY_MAC.octets + b"\x08\x00" + bytes(6)


def lines_run(receiver, data):
    """The line events in cloaknic's source while `receiver` takes the frame
    `data`, arrived as bytes and already described."""
    wire = Wire(data)
    describe_frame(wire)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if os.path.dirname(frame.f_code.co_filename) == PACKAGE else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        receiver.receive(wire, NOW)
    finally:
        sys.settrace(previous)
    return count


def cloaked_server():
    return CloakedServerNode("server", HOST_MAC, HOST_IP, CloakingNic(
        NicConfig(HOST_MAC, HOST_IP, role_keys={CLIENT_IP: KEY})))


@pytest.mark.parametrize("name", sorted(UNAUTHENTICATED))
def test_the_cloaked_nic_runs_fewer_lines_than_the_plain_stack(name):
    data = UNAUTHENTICATED[name]
    plain = PlainHostNode("server", HOST_MAC, HOST_IP, {22})
    assert lines_run(cloaked_server(), data) < lines_run(plain, data)


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


@pytest.mark.parametrize("name", sorted(UNAUTHENTICATED) + ["short-ipv4"])
def test_every_cloaked_nic_gives_the_frame_one_shared_verdict(name):
    data = SHORT_IPV4 if name == "short-ipv4" else UNAUTHENTICATED[name]
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
