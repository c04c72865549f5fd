"""The paper's "minimal code execution paths", measured.

On every class of frame that a sender with no key can put on the wire, the
cloaking NIC runs fewer lines of cloaknic than the plain software stack it
replaces. Each frame arrives as bytes and is described first, as
`Segment.step` does, so each receiver runs only what it runs in a segment.
Line counts differ between Python versions, so only the inequality is
asserted.
"""

import os
import sys

import pytest

import cloaknic
from cloaknic.demos import TEST_KEY_HEX
from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
    PROTO_TCP,
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
from cloaknic.netsim import CloakedServerNode, PlainHostNode, describe_frame
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


@pytest.mark.parametrize("name", sorted(UNAUTHENTICATED))
def test_the_cloaked_nic_runs_fewer_lines_than_the_plain_stack(name):
    data = UNAUTHENTICATED[name]
    cloaked = CloakedServerNode("server", HOST_MAC, HOST_IP, CloakingNic(
        NicConfig(HOST_MAC, HOST_IP, role_keys={CLIENT_IP: KEY})))
    plain = PlainHostNode("server", HOST_MAC, HOST_IP, {22})
    assert lines_run(cloaked, data) < lines_run(plain, data)
