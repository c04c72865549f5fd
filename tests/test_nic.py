import pytest

from cloaknic import frames
from cloaknic.demos import DEMOS
from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_ZERO,
    PROTO_TCP,
    ArpPacket,
    EthernetFrame,
    IcmpMessage,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    internet_checksum,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    parse_frame,
    serialize_frame,
    tcp_segment,
    udp_datagram,
)
from cloaknic.knock import (
    FRESHNESS_SECONDS,
    REPLAY_WINDOW_SECONDS,
    KnockFields,
    RejectReason,
    ReplayCache,
    SharedKey,
    open_knock,
    prf,
    seal_knock,
)
from cloaknic.nic import (
    FILTER_TABLE_CAP,
    FILTER_TTL_SECONDS,
    Actions,
    ArpCacheUpdate,
    ByteFifo,
    CloakingNic,
    Delivered,
    DropReason,
    DropRecord,
    FilterTable,
    NicConfig,
    NicError,
    UnknownPeerKey,
)
from cloaknic.scenario import build_segment, parse_scenario

SERVER_MAC = MacAddress.from_str("aa:00:00:00:00:02")
SERVER_IP = Ipv4Address.from_str("10.0.0.2")
CLIENT_MAC = MacAddress.from_str("aa:00:00:00:00:05")
CLIENT_IP = Ipv4Address.from_str("10.0.0.5")
ATTACKER_MAC = MacAddress.from_str("de:ad:be:ef:00:66")
ATTACKER_IP = Ipv4Address.from_str("10.0.0.66")
KEY = SharedKey(bytes(range(32)))


def server_nic(**overrides) -> CloakingNic:
    cfg = NicConfig(mac=SERVER_MAC, ip=SERVER_IP,
                    role_keys={CLIENT_IP: KEY}, **overrides)
    return CloakingNic(cfg)


def client_nic(**overrides) -> CloakingNic:
    cfg = NicConfig(mac=CLIENT_MAC, ip=CLIENT_IP,
                    role_keys={SERVER_IP: KEY},
                    protected_peers={SERVER_IP}, **overrides)
    return CloakingNic(cfg)


def knock_wire(now: int, nonce: bytes = bytes(8), src_ip=CLIENT_IP,
               src_mac=CLIENT_MAC, port: int = 40000, key: SharedKey = KEY) -> bytes:
    payload = seal_knock(key, nonce, KnockFields(src_ip, port, now))
    return serialize_frame(make_icmp_echo(src_mac, SERVER_MAC, src_ip, SERVER_IP, payload))


def syn_wire(src_ip=CLIENT_IP, src_mac=CLIENT_MAC, src_port=40000, dst_port=22) -> bytes:
    return serialize_frame(make_ipv4_frame(
        src_mac, SERVER_MAC, src_ip, SERVER_IP, PROTO_TCP,
        tcp_segment(src_port, dst_port)))


class TestInit:
    def test_missing_ip(self):
        with pytest.raises(TypeError):
            CloakingNic(NicConfig(mac=SERVER_MAC))

    def test_default_drop_on_fresh_nic(self):
        nic = server_nic()
        for port in (1, 22, 80, 65535):
            assert not nic.filter.lookup(CLIENT_IP, port, now=0)

    def test_independent_state(self):
        cfg = NicConfig(mac=SERVER_MAC, ip=SERVER_IP)
        a, b = CloakingNic(cfg), CloakingNic(cfg)
        a.filter.insert(CLIENT_IP, 1, 0)
        assert len(b.filter) == 0


def test_replay_window_outlasts_every_fresh_knock():
    # a nonce forgotten one window after it was accepted can only come back stale
    assert REPLAY_WINDOW_SECONDS >= 2 * FRESHNESS_SECONDS


class TestFilterTable:
    def test_insert_then_lookup(self):
        t = FilterTable()
        t.insert(CLIENT_IP, 40000, now=0)
        assert t.lookup(CLIENT_IP, 40000, now=0)

    def test_exact_match_key(self):
        t = FilterTable()
        t.insert(CLIENT_IP, 40000, now=0)
        assert not t.lookup(CLIENT_IP, 40001, now=0)
        assert not t.lookup(ATTACKER_IP, 40000, now=0)

    def test_ttl_boundary(self):
        t = FilterTable()
        t.insert(CLIENT_IP, 40000, now=0)
        t.insert(CLIENT_IP, 40001, now=0)
        assert t.lookup(CLIENT_IP, 40000, now=60)
        assert not t.lookup(CLIENT_IP, 40001, now=61)

    def test_reinsert_refreshes_without_duplicating(self):
        t = FilterTable()
        t.insert(CLIENT_IP, 40000, now=0)
        t.insert(CLIENT_IP, 40000, now=30)
        assert len(t) == 1
        assert t.lookup(CLIENT_IP, 40000, now=90)

    def test_lookup_refreshes_expiry(self):
        t = FilterTable()
        t.insert(CLIENT_IP, 40000, now=0)
        assert t.lookup(CLIENT_IP, 40000, now=50)
        assert t.lookup(CLIENT_IP, 40000, now=105)

    def test_capacity_1024(self):
        t = FilterTable()
        for i in range(1024):
            t.insert(Ipv4Address(bytes([10, 1, i >> 8, i & 0xFF])), 1, now=0)
        # a new key at capacity is refused and writes nothing
        assert t.insert(Ipv4Address(bytes([10, 2, 0, 0])), 1, now=60) is False
        assert len(t) == 1024
        assert not t.lookup(Ipv4Address(bytes([10, 2, 0, 0])), 1, now=60)
        # refreshing an existing key is still allowed at capacity
        assert t.insert(Ipv4Address(bytes([10, 1, 0, 0])), 1, now=10) is True
        assert len(t) == 1024

    def test_expired_entries_do_not_count_against_capacity(self):
        t = FilterTable()
        for i in range(1024):
            t.insert(Ipv4Address(bytes([10, 1, i >> 8, i & 0xFF])), 1, now=0)
        t.insert(Ipv4Address(bytes([10, 1, 0, 0])), 1, now=10)  # refreshed, still live
        t.insert(Ipv4Address(bytes([10, 2, 0, 0])), 1, now=61)
        assert list(t.entries) == [(Ipv4Address(bytes([10, 1, 0, 0])), 1),
                                   (Ipv4Address(bytes([10, 2, 0, 0])), 1)]


class TestByteFifo:
    def test_two_max_frames_fill_it(self):
        fifo = ByteFifo()
        assert fifo.push(b"\x00" * 1518)
        assert fifo.push(b"\x00" * 1518)
        assert fifo.buffered == 3036

    def test_third_frame_overflows_pop_resumes(self):
        fifo = ByteFifo()
        fifo.push(b"\x00" * 1518)
        fifo.push(b"\x00" * 1518)
        assert not fifo.push(b"\x00" * 64)
        assert fifo.buffered == 3036  # prior contents intact
        assert fifo.pop() == b"\x00" * 1518
        assert fifo.push(b"\x00" * 64)

    def test_single_oversize_frame(self):
        fifo = ByteFifo()
        assert not fifo.push(b"\x00" * 3037)
        assert fifo.buffered == 0

    def test_pop_empty(self):
        assert ByteFifo().pop() is None


class TestArpProcessing:
    def test_request_for_nic_ip_gets_reply(self):
        nic = server_nic()
        wire = serialize_frame(make_arp(ARP_REQUEST, CLIENT_MAC, CLIENT_IP, MAC_ZERO, SERVER_IP))
        actions = nic.on_wire_receive(wire, now=0)
        assert len(actions.tx_frames) == 1
        reply = actions.tx_frames[0].payload
        assert isinstance(reply, ArpPacket)
        assert reply.operation == ARP_REPLY
        assert reply.sender_mac == SERVER_MAC
        assert reply.sender_ip == SERVER_IP
        assert actions.tx_frames[0].dst == CLIENT_MAC  # unicast
        assert actions.host_events == [] and actions.drops == []

    def test_request_for_other_ip_silently_dropped(self):
        nic = server_nic()
        wire = serialize_frame(make_arp(ARP_REQUEST, CLIENT_MAC, CLIENT_IP, MAC_ZERO, ATTACKER_IP))
        actions = nic.on_wire_receive(wire, now=0)
        assert actions.tx_frames == [] and actions.host_events == []
        assert actions.drops == [DropRecord(DropReason.NO_FILTER_MATCH, 1, "arp-other-ip")]

    def test_gratuitous_reply_never_reaches_host(self):
        nic = server_nic()
        forged = make_arp(ARP_REPLY, ATTACKER_MAC, Ipv4Address.from_str("10.0.0.1"),
                          SERVER_MAC, SERVER_IP)
        actions = nic.on_wire_receive(serialize_frame(forged), now=0)
        assert actions.host_events == []
        assert actions.drops[0].reason is DropReason.UNSOLICITED_ARP_REPLY

    def test_non_ethernet_ipv4_arp_request_is_not_answered(self):
        # htype 6, ptype 0x86dd, hlen 8, plen 16: the addresses are not where
        # an Ethernet/IPv4 body keeps them, so the request names no IP of ours
        wire = bytearray(serialize_frame(
            make_arp(ARP_REQUEST, CLIENT_MAC, CLIENT_IP, MAC_ZERO, SERVER_IP)))
        wire[14:20] = bytes.fromhex("000686dd0810")
        actions = server_nic().on_wire_receive(bytes(wire), now=0)
        assert actions == Actions(drops=[DropRecord(DropReason.MALFORMED, 1, "UnsupportedArp")])

    def test_arp_answers_are_stateless(self):
        nic = server_nic()
        request = serialize_frame(make_arp(ARP_REQUEST, CLIENT_MAC, CLIENT_IP, MAC_ZERO, SERVER_IP))
        first = nic.on_wire_receive(request, now=0)
        assert first.tx_frames
        assert nic.on_wire_receive(request, now=1) == first
        reply = serialize_frame(make_arp(ARP_REPLY, CLIENT_MAC, CLIENT_IP, SERVER_MAC, SERVER_IP))
        assert nic.on_wire_receive(reply, now=2).tx_frames == []


class TestKnockAdmission:
    def test_valid_knock_then_syn(self):
        nic = server_nic()
        first = nic.on_wire_receive(knock_wire(now=100), now=100)
        assert first.host_events == [ArpCacheUpdate(CLIENT_IP, CLIENT_MAC)]
        assert first.tx_frames == [] and first.drops == []
        second = nic.on_wire_receive(syn_wire(), now=101)
        assert len(second.host_events) == 1
        assert isinstance(second.host_events[0], Delivered)

    def test_fragment_of_an_admitted_pair_is_not_delivered(self):
        # MF set, offset 185: the "ports" of a non-first fragment are data
        nic = server_nic()
        nic.on_wire_receive(knock_wire(now=100), now=100)
        wire = bytearray(syn_wire())
        wire[20:22] = (0x2000 | 185).to_bytes(2, "big")
        wire[24:26] = b"\x00\x00"
        wire[24:26] = internet_checksum(bytes(wire[14:34])).to_bytes(2, "big")
        actions = nic.on_wire_receive(bytes(wire), now=101)
        assert actions == Actions(drops=[DropRecord(DropReason.MALFORMED, 1, "Fragment")])
        assert nic.on_wire_receive(syn_wire(), now=102).host_events[0].stage_count == 2

    def test_arp_cache_update_uses_outer_source_mac(self):
        nic = server_nic()
        actions = nic.on_wire_receive(knock_wire(now=0, src_mac=ATTACKER_MAC), now=0)
        assert actions.host_events == [ArpCacheUpdate(CLIENT_IP, ATTACKER_MAC)]

    def test_syn_without_knock_is_silent(self):
        nic = server_nic()
        actions = nic.on_wire_receive(syn_wire(), now=0)
        assert actions.tx_frames == [] and actions.host_events == []
        assert actions.drops == [actions.drops[0]]
        assert actions.drops[0].reason is DropReason.NO_FILTER_MATCH
        assert actions.drops[0].stage_count == 1

    def test_bad_knock_emits_nothing(self):
        nic = server_nic()
        wire = knock_wire(now=0, key=SharedKey(bytes(32)))  # wrong key
        actions = nic.on_wire_receive(wire, now=0)
        assert actions.tx_frames == [] and actions.host_events == []
        assert actions.drops[0].reason is DropReason.BAD_KNOCK
        assert actions.drops[0].detail == RejectReason.BAD_TAG.value
        assert len(nic.filter) == 0

    def test_knock_from_unknown_peer(self):
        nic = server_nic()
        wire = knock_wire(now=0, src_ip=ATTACKER_IP, src_mac=ATTACKER_MAC)
        actions = nic.on_wire_receive(wire, now=0)
        assert actions.drops[0].reason is DropReason.BAD_KNOCK
        assert len(nic.filter) == 0

    def test_replayed_knock(self):
        nic = server_nic()
        wire = knock_wire(now=0)
        nic.on_wire_receive(wire, now=0)
        expiry = dict(nic.filter.entries)
        actions = nic.on_wire_receive(wire, now=5)
        assert actions.drops[0].detail == RejectReason.REPLAYED.value
        assert nic.filter.entries == expiry  # neither extended nor refreshed

    def test_plain_echo_is_dropped_by_default(self):
        nic = server_nic()
        wire = serialize_frame(make_icmp_echo(CLIENT_MAC, SERVER_MAC, CLIENT_IP,
                                              SERVER_IP, b"ping"))
        actions = nic.on_wire_receive(wire, now=0)
        assert actions.tx_frames == []
        assert actions.drops[0].reason is DropReason.NO_FILTER_MATCH

    def test_malformed_frame(self):
        nic = server_nic()
        actions = nic.on_wire_receive(b"\x00" * 13, now=0)
        assert actions.drops[0].reason is DropReason.MALFORMED

    def test_oversize_buffer_is_malformed_at_stage_1(self):
        nic = server_nic()
        padded = syn_wire()
        padded += bytes(1514 - len(padded))  # the largest frame still parses
        assert nic.on_wire_receive(padded, now=0).drops == [
            DropRecord(DropReason.NO_FILTER_MATCH, 1)]
        actions = nic.on_wire_receive(padded + b"\x00", now=0)
        assert actions == Actions(drops=[DropRecord(DropReason.MALFORMED, 1, "Oversize")])

    @pytest.mark.parametrize("wire, reason", [
        (syn_wire()[:14] + bytes([0x46]) + syn_wire()[15:], "UnsupportedIpHeader"),
        (syn_wire()[:-1], "BadTotalLength"),
        (syn_wire()[:33], "TooShort"),
        (serialize_frame(make_arp(ARP_REQUEST, CLIENT_MAC, CLIENT_IP, MAC_ZERO,
                                  SERVER_IP))[:41], "TooShort"),
    ])
    def test_unreadable_ip_or_arp_is_malformed_at_stage_1(self, wire, reason):
        actions = server_nic().on_wire_receive(wire, now=0)
        assert actions == Actions(drops=[DropRecord(DropReason.MALFORMED, 1, reason)])

    def test_knock_sealing_another_ip_is_refused(self):
        nic = server_nic()
        payload = seal_knock(KEY, bytes(8), KnockFields(ATTACKER_IP, 40000, 0))
        wire = serialize_frame(make_icmp_echo(CLIENT_MAC, SERVER_MAC, CLIENT_IP,
                                              SERVER_IP, payload))
        actions = nic.on_wire_receive(wire, now=0)
        assert actions == Actions(drops=[DropRecord(DropReason.BAD_KNOCK, 2, "IpMismatch")])
        assert len(nic.filter) == 0
        assert not nic.filter.lookup(ATTACKER_IP, 40000, now=1)

    def test_non_canonical_knock_is_refused_not_raised(self):
        # a key holder's hand-sealed knock for port 0 once raised out of the NIC
        keystream = prf(KEY, bytes(8) + b"\x01")[:16]
        block = CLIENT_IP.octets + bytes(4) + (0).to_bytes(8, "big")
        sealed = b"KNCK\x01\x00" + bytes(8) + bytes(p ^ k for p, k in zip(block, keystream))
        payload = sealed + prf(KEY, sealed)[:16]
        wire = serialize_frame(make_icmp_echo(CLIENT_MAC, SERVER_MAC, CLIENT_IP,
                                              SERVER_IP, payload))
        nic = server_nic()
        assert nic.on_wire_receive(wire, now=0) == Actions(
            drops=[DropRecord(DropReason.BAD_KNOCK, 2, RejectReason.NON_CANONICAL.value)])
        assert len(nic.filter) == 0 and len(nic.replay_cache) == 0

    def test_knock_into_a_full_filter_is_refused_and_spent(self):
        nic = server_nic()
        for port in range(FILTER_TABLE_CAP):
            nic.filter.insert(CLIENT_IP, port, now=0)
        wire = knock_wire(now=1, port=50000)
        assert nic.on_wire_receive(wire, now=1) == Actions(
            drops=[DropRecord(DropReason.BAD_KNOCK, 2, "TableFull")])
        assert len(nic.filter) == FILTER_TABLE_CAP
        assert not nic.filter.lookup(CLIENT_IP, 50000, now=1)
        # the knock was authentic, so its nonce is spent
        assert nic.on_wire_receive(wire, now=2) == Actions(
            drops=[DropRecord(DropReason.BAD_KNOCK, 2, RejectReason.REPLAYED.value)])


class TestCloakingSweep:
    def test_port_sweep_and_echo_elicit_zero_bytes(self):
        nic = server_nic()
        for port in range(1, 1025):
            actions = nic.on_wire_receive(
                syn_wire(src_ip=ATTACKER_IP, src_mac=ATTACKER_MAC,
                         src_port=50000, dst_port=port), now=port)
            assert actions.tx_frames == [] and actions.host_events == []
            assert actions.drops[0].stage_count == 1
        echo = serialize_frame(make_icmp_echo(ATTACKER_MAC, SERVER_MAC,
                                              ATTACKER_IP, SERVER_IP, b"x"))
        actions = nic.on_wire_receive(echo, now=2000)
        assert actions.tx_frames == []

    def test_udp_probe_is_silent(self):
        nic = server_nic()
        wire = serialize_frame(make_ipv4_frame(ATTACKER_MAC, SERVER_MAC, ATTACKER_IP,
                                               SERVER_IP, frames.PROTO_UDP,
                                               udp_datagram(1234, 53)))
        actions = nic.on_wire_receive(wire, now=0)
        assert actions.tx_frames == []


class TestHostTransmit:
    def syn_frame(self, nic, dst_mac=SERVER_MAC, dst_ip=SERVER_IP, src_port=40000):
        return make_ipv4_frame(nic.mac, dst_mac, nic.ip, dst_ip, PROTO_TCP,
                               tcp_segment(src_port, 22))

    def test_knock_precedes_first_transport_frame(self):
        nic = client_nic()
        actions = nic.on_host_transmit(self.syn_frame(nic), now=5)
        assert len(actions.tx_frames) == 2
        knock, syn = actions.tx_frames
        pkt = knock.payload
        assert isinstance(pkt, Ipv4Packet) and isinstance(pkt.payload, IcmpMessage)
        assert pkt.payload.payload[:4] == b"KNCK"
        assert len(pkt.payload.payload) == 46
        assert syn.payload.transport_view().is_syn

    def test_second_segment_has_no_knock(self):
        nic = client_nic()
        nic.on_host_transmit(self.syn_frame(nic), now=5)
        actions = nic.on_host_transmit(self.syn_frame(nic), now=6)
        assert len(actions.tx_frames) == 1

    def test_reknock_after_ttl_expiry(self):
        nic = client_nic()
        nic.on_host_transmit(self.syn_frame(nic), now=0)
        actions = nic.on_host_transmit(self.syn_frame(nic), now=61)
        assert len(actions.tx_frames) == 2

    def test_unprotected_peer_passthrough(self):
        nic = client_nic()
        other_ip = Ipv4Address.from_str("10.0.0.7")
        frame = make_ipv4_frame(nic.mac, ATTACKER_MAC, nic.ip, other_ip,
                                PROTO_TCP, tcp_segment(1, 2))
        actions = nic.on_host_transmit(frame, now=0)
        assert actions.tx_frames == [frame]

    def test_unknown_peer_key(self):
        cfg = NicConfig(mac=CLIENT_MAC, ip=CLIENT_IP, protected_peers={SERVER_IP})
        nic = CloakingNic(cfg)
        with pytest.raises(UnknownPeerKey):
            nic.on_host_transmit(self.syn_frame(nic), now=0)

    def test_wrong_source_mac_rejected(self):
        nic = client_nic()
        frame = make_ipv4_frame(ATTACKER_MAC, SERVER_MAC, nic.ip, SERVER_IP,
                                PROTO_TCP, tcp_segment(1, 2))
        with pytest.raises(NicError):
            nic.on_host_transmit(frame, now=0)

    def test_unresolved_mac_triggers_arp_then_knock(self):
        nic = client_nic()
        actions = nic.on_host_transmit(self.syn_frame(nic, dst_mac=MAC_ZERO), now=5)
        assert len(actions.tx_frames) == 1
        assert isinstance(actions.tx_frames[0].payload, ArpPacket)
        reply = serialize_frame(make_arp(ARP_REPLY, SERVER_MAC, SERVER_IP,
                                         CLIENT_MAC, CLIENT_IP))
        actions = nic.on_wire_receive(reply, now=7)
        assert actions.host_events == []  # wire ARP never reaches the host
        kinds = [type(f.payload).__name__ for f in actions.tx_frames]
        assert len(actions.tx_frames) == 2  # knock then SYN, now resolved
        assert all(f.dst == SERVER_MAC for f in actions.tx_frames)


def send_unresolved(nic: CloakingNic, now: int, port: int = 40000):
    """The frames the client NIC sends for a SYN to the server whose MAC the host left zero."""
    return nic.on_host_transmit(make_ipv4_frame(CLIENT_MAC, MAC_ZERO, CLIENT_IP, SERVER_IP,
                                                PROTO_TCP, tcp_segment(port, 22)), now).tx_frames


def arp_reply_to_client(sender_ip: Ipv4Address, sender_mac: MacAddress) -> bytes:
    return serialize_frame(make_arp(ARP_REPLY, sender_mac, sender_ip, CLIENT_MAC, CLIENT_IP))


def is_arp_request_for_server(tx) -> bool:
    arp = tx[0].payload if len(tx) == 1 else None
    return isinstance(arp, ArpPacket) and (arp.operation, arp.target_ip) == (ARP_REQUEST, SERVER_IP)


UNSOLICITED = DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1)
CONSUMED = DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1, "consumed by resolver")


class TestResolverTable:
    """The client NIC keeps a peer's MAC only from a reply to its own live request.

    Wire ARP is unauthenticated, so no other reply writes the table: not an
    unsolicited one, a forged one, or one after the parked frames expired.
    An entry lives FILTER_TTL_SECONDS from its write, and a send to a live
    entry asks the wire nothing.
    """

    def resolved_client(self) -> CloakingNic:
        """A client NIC that asked for the server's MAC at 0 and was answered at 2."""
        nic = client_nic()
        assert is_arp_request_for_server(send_unresolved(nic, now=0))
        actions = nic.on_wire_receive(arp_reply_to_client(SERVER_IP, SERVER_MAC), now=2)
        assert actions.drops == [CONSUMED]
        assert [f.dst for f in actions.tx_frames] == [SERVER_MAC, SERVER_MAC]  # knock, SYN
        assert dict(nic.resolver.entries) == {SERVER_IP: (2 + FILTER_TTL_SECONDS, SERVER_MAC)}
        return nic

    def test_unsolicited_reply_never_writes(self):
        nic = client_nic()
        actions = nic.on_wire_receive(arp_reply_to_client(SERVER_IP, SERVER_MAC), now=0)
        assert actions == Actions(drops=[UNSOLICITED])
        assert len(nic.resolver) == 0
        assert is_arp_request_for_server(send_unresolved(nic, now=1))

    def test_forged_reply_never_writes(self):
        nic = self.resolved_client()
        entries = dict(nic.resolver.entries)
        # the poison program's reply: the server's IP at the attacker's MAC
        for forged_ip in (SERVER_IP, ATTACKER_IP):
            actions = nic.on_wire_receive(arp_reply_to_client(forged_ip, ATTACKER_MAC), now=3)
            assert actions == Actions(drops=[UNSOLICITED])
        assert dict(nic.resolver.entries) == entries
        assert [f.dst for f in send_unresolved(nic, now=4)] == [SERVER_MAC]

    def test_reply_after_the_parked_frames_expired_never_writes(self):
        nic = client_nic()
        send_unresolved(nic, now=0)  # parked until tick 2
        actions = nic.on_wire_receive(arp_reply_to_client(SERVER_IP, SERVER_MAC), now=3)
        assert actions == Actions(drops=[UNSOLICITED])
        assert len(nic.resolver) == 0
        assert is_arp_request_for_server(send_unresolved(nic, now=4))

    def test_expired_entry_is_never_used(self):
        nic = self.resolved_client()
        # a duplicate reply a tick later answers nothing, so it does not extend the entry
        nic.on_wire_receive(arp_reply_to_client(SERVER_IP, SERVER_MAC), now=3)
        last_live = 2 + FILTER_TTL_SECONDS
        assert [f.dst for f in send_unresolved(nic, now=last_live)] == [SERVER_MAC]
        assert is_arp_request_for_server(send_unresolved(nic, now=last_live + 1))
        assert SERVER_IP in nic._pending_arp

    def test_send_within_the_lifetime_uses_the_cached_mac(self):
        nic = self.resolved_client()
        # a later reply claiming the server's IP changes nothing
        nic.on_wire_receive(arp_reply_to_client(SERVER_IP, ATTACKER_MAC), now=10)
        syn, = send_unresolved(nic, now=30)  # the port's knock is still live
        assert syn.dst == SERVER_MAC and syn.payload.transport_view().is_syn
        knock, syn = send_unresolved(nic, now=31, port=40001)
        assert (knock.dst, syn.dst) == (SERVER_MAC, SERVER_MAC)
        # with no ARP round trip, the knock is sealed at the send tick
        sealed = open_knock(KEY, knock.payload.payload.payload, 31, ReplayCache())
        assert sealed == KnockFields(CLIENT_IP, 40001, 31)
        assert not nic._pending_arp

    def test_wire_arp_never_writes_a_server_cache(self):
        # criterion 5: the poison barrage neither updates the server's host
        # cache nor its resolver, which only its own requests could fill
        sc = parse_scenario(DEMOS["arp-poison"])
        seg = build_segment(sc)
        seg.run(sc.horizon)
        assert seg.metrics.node("server").arp_cache_writes == 0
        assert len(seg.node("server").nic.resolver) == 0
        nic = server_nic()
        for wire in (arp_reply_to_client(Ipv4Address.from_str("10.0.0.1"), ATTACKER_MAC),
                     serialize_frame(make_arp(ARP_REPLY, ATTACKER_MAC, CLIENT_IP,
                                              SERVER_MAC, SERVER_IP))):
            assert nic.on_wire_receive(wire, now=0) == Actions(drops=[UNSOLICITED])
        assert len(nic.resolver) == 0


class TestExpiryOnWrite:
    """Each NIC table drops its expired entries when it is next written."""

    def test_filter_insert_drops_expired(self):
        nic = server_nic()
        nic.filter.insert(CLIENT_IP, 40000, now=40)
        nic.filter.insert(CLIENT_IP, 40001, now=100)  # 40000 is live until 100
        assert len(nic.filter) == 2
        nic.filter.insert(CLIENT_IP, 40002, now=101)
        assert list(nic.filter.entries) == [(CLIENT_IP, 40001), (CLIENT_IP, 40002)]

    def test_knock_keeps_live_state(self):
        nic = server_nic()
        nic.on_wire_receive(knock_wire(now=0), now=0)
        nic.on_wire_receive(knock_wire(now=30, nonce=bytes(7) + b"\x01", port=40001), now=30)
        assert dict(nic.filter.entries) == {(CLIENT_IP, 40000): 60, (CLIENT_IP, 40001): 90}
        assert dict(nic.replay_cache.seen) == {bytes(8): 60, bytes(7) + b"\x01": 90}

    def test_knock_drops_expired_state(self):
        nic = server_nic()
        nic.on_wire_receive(knock_wire(now=0), now=0)
        nic.on_wire_receive(knock_wire(now=61, nonce=bytes(7) + b"\x01", port=40001), now=61)
        assert dict(nic.filter.entries) == {(CLIENT_IP, 40001): 121}
        assert dict(nic.replay_cache.seen) == {bytes(7) + b"\x01": 121}

    def test_client_knock_map_drops_expired(self):
        nic = client_nic()
        for port, now in ((40000, 0), (40001, 60), (40002, 61)):
            nic.on_host_transmit(make_ipv4_frame(nic.mac, SERVER_MAC, nic.ip, SERVER_IP,
                                                 PROTO_TCP, tcp_segment(port, 22)), now)
        assert dict(nic._knocked) == {(40001, SERVER_IP): 120, (40002, SERVER_IP): 121}


class TestConservation:
    def test_every_frame_has_exactly_one_fate(self):
        import random

        rng = random.Random(42)
        nic = server_nic()
        wires = []
        for i in range(300):
            kind = rng.randrange(5)
            if kind == 0:
                wires.append(serialize_frame(make_arp(
                    ARP_REQUEST, CLIENT_MAC, CLIENT_IP, MAC_ZERO,
                    rng.choice([SERVER_IP, ATTACKER_IP]))))
            elif kind == 1:
                wires.append(knock_wire(now=i, nonce=rng.randbytes(8)))
            elif kind == 2:
                wires.append(syn_wire(src_port=rng.randrange(1, 65536)))
            elif kind == 3:
                wires.append(rng.randbytes(rng.randrange(0, 80)))
            else:
                wires.append(serialize_frame(EthernetFrame(
                    SERVER_MAC, ATTACKER_MAC, 0x88B5, rng.randbytes(20))))
        for i, wire in enumerate(wires):
            actions = nic.on_wire_receive(wire, now=i)
            fates = (len(actions.tx_frames) + len(actions.drops)
                     + sum(1 for e in actions.host_events
                           if isinstance(e, (Delivered, ArpCacheUpdate))))
            assert fates == 1, f"frame {i} had {fates} fates"

    def test_delivered_implies_prior_knock(self):
        nic = server_nic()
        delivered_before_knock = nic.on_wire_receive(syn_wire(), now=0)
        assert not any(isinstance(e, Delivered) for e in delivered_before_knock.host_events)
        nic.on_wire_receive(knock_wire(now=1), now=1)
        after = nic.on_wire_receive(syn_wire(), now=2)
        assert any(isinstance(e, Delivered) for e in after.host_events)
