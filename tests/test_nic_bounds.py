"""NIC state stays within its stated bounds however long a run lasts.

Each NIC table expires where it is written, so a long run keeps only live
entries: a regression run past the filter's capacity, and hypothesis state
machines that check a server NIC's and a client NIC's invariants after every
input. A property test drives the filter's admission check on its own: a
bit-flipped SYN of a live pair is delivered only if it is that pair's
canonical frame.
"""

import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cloaknic.demos import TEST_KEY_HEX
from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_ZERO,
    PROTO_TCP,
    PROTO_UDP,
    ArpPacket,
    EthernetFrame,
    FrameError,
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
    SharedKey,
    seal_knock,
)
from cloaknic.nic import (
    ARP_TIMEOUT_TICKS,
    FILTER_TABLE_CAP,
    FILTER_TTL_SECONDS,
    RESOLVER_TABLE_CAP,
    Actions,
    ArpCacheUpdate,
    CloakingNic,
    Delivered,
    DropReason,
    DropRecord,
    NicConfig,
)
from cloaknic.scenario import build_segment, parse_scenario

PORTS = 1100


def test_long_run_of_distinct_ports_keeps_every_table_live():
    # one client knocks from 1,100 ports two ticks apart: at most 31 are live
    # at once, but over the run more pairs are used than the filter can hold
    steps = "".join(f"{2 * i} send client server tcp {40000 + i} 22\n" for i in range(PORTS))
    sc = parse_scenario(
        "[nodes]\n"
        "server cloaked 10.0.0.2 aa:00:00:00:00:02 services=22\n"
        "client client 10.0.0.5 aa:00:00:00:00:05\n"
        f"[keys]\nclient server {TEST_KEY_HEX}\n"
        "[protected]\nclient server\n"
        f"[steps]\n{steps}"
        f"[horizon]\n{2 * PORTS + 10}\n")
    seg = build_segment(sc)
    seg.run(sc.horizon)
    server = seg.metrics.node("server")
    assert server.delivered == PORTS
    assert sum(server.dropped_by_reason.values()) == 0
    live_max = FILTER_TTL_SECONDS // 2 + 1
    assert len(seg.node("server").nic.filter) <= live_max
    assert len(seg.node("server").nic.replay_cache) <= live_max
    assert len(seg.node("client").nic._knocked) <= live_max


def test_frames_for_an_ip_that_never_answers_arp_are_forgotten():
    # 1,000 sends to an attacker, which never answers ARP, one tick apart;
    # then a forged reply for its IP must not release the unanswered frames
    sends = 1000
    steps = "".join(f"{t} send client mallory udp 5000 53\n" for t in range(sends))
    sc = parse_scenario(
        "[nodes]\n"
        "client client 10.0.0.5 aa:00:00:00:00:05\n"
        "mallory attacker 10.0.0.66 aa:00:00:00:00:66\n"
        f"[steps]\n{steps}"
        f"{sends + 5} attack mallory arppoison client 10.0.0.66 de:ad:be:ef:00:66\n"
        f"[horizon]\n{sends + 10}\n")
    seg = build_segment(sc)
    seg.run(sc.horizon)
    client = seg.metrics.node("client")
    assert client.tx == sends  # one ARP request per send, and nothing released
    assert client.dropped_by_reason == {"UnsolicitedArpReply": 1}
    last = list(seg.trace)[-1]
    assert (last.node, last.event) == ("client", DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1))
    assert parse_frame(bytes.fromhex(last.raw_hex)).payload.sender_ip == STRANGER_IP
    # at most the frames parked in the last ARP_TIMEOUT_TICKS + 1 ticks are kept
    assert parked_frames(seg.node("client").nic) <= ARP_TIMEOUT_TICKS + 1


def parked_frames(nic):
    return sum(map(len, nic._pending_arp.values()))


def test_a_burst_of_sends_in_one_tick_parks_in_linear_time():
    # a send forgets only the expired oldest parked frames, so a burst of
    # 10,000 sends at one tick takes well under a second; a later reply still
    # releases exactly the live frames parked for the answering IP
    client_ip, client_mac = CLIENTS[0][:2]
    nic = CloakingNic(NicConfig(mac=client_mac, ip=client_ip))

    def send(dst_ip, now):
        nic.on_host_transmit(make_ipv4_frame(client_mac, MAC_ZERO, client_ip, dst_ip,
                                             PROTO_UDP, udp_datagram(5000, 53)), now)

    send(STRANGER_IP, now=0)
    start = time.perf_counter()
    for _ in range(10_000):
        send(SERVER_IP, now=1)
    assert time.perf_counter() - start < 1.0

    def reply(ip, mac, now):
        return nic.on_wire_receive(serialize_frame(make_arp(
            ARP_REPLY, mac, ip, client_mac, client_ip)), now)

    # at tick 3 the burst is live until its last tick, the stranger's frame is not
    assert reply(STRANGER_IP, STRANGER_MAC, now=3).tx_frames == []
    released = reply(SERVER_IP, SERVER_MAC, now=3).tx_frames
    assert len(released) == 10_000 and {f.dst for f in released} == {SERVER_MAC}
    assert len(nic._pending_arp) == 0


def test_replies_with_frames_parked_cost_only_the_frames_they_release():
    # frames park per target IP, so each of 5,000 replies from an IP with
    # nothing parked takes constant time however many frames wait for
    # another IP; the answering IP's reply then releases them all
    client_ip, client_mac = CLIENTS[0][:2]
    nic = CloakingNic(NicConfig(mac=client_mac, ip=client_ip))
    n = 5_000
    for _ in range(n):
        nic.on_host_transmit(make_ipv4_frame(client_mac, MAC_ZERO, client_ip, SERVER_IP,
                                             PROTO_UDP, udp_datagram(5000, 53)), 1)

    def reply(ip, mac):
        return serialize_frame(make_arp(ARP_REPLY, mac, ip, client_mac, client_ip))

    stranger = reply(STRANGER_IP, STRANGER_MAC)
    start = time.perf_counter()
    for _ in range(n):
        actions = nic.on_wire_receive(stranger, 2)
        assert actions.drops == [DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1)]
    assert time.perf_counter() - start < 1.0
    assert parked_frames(nic) == n
    released = nic.on_wire_receive(reply(SERVER_IP, SERVER_MAC), 3).tx_frames
    assert len(released) == n and {f.dst for f in released} == {SERVER_MAC}
    assert parked_frames(nic) == 0


SERVER_MAC = MacAddress.from_str("aa:00:00:00:00:02")
SERVER_IP = Ipv4Address.from_str("10.0.0.2")
CLIENTS = [(Ipv4Address.from_str(f"10.0.0.{i}"), MacAddress.from_str(f"aa:00:00:00:00:0{i}"),
            SharedKey(bytes([i]) * 32)) for i in (5, 6, 7)]
STRANGER_IP = Ipv4Address.from_str("10.0.0.66")
STRANGER_MAC = MacAddress.from_str("de:ad:be:ef:00:66")
SENDERS = [(ip, mac) for ip, mac, _ in CLIENTS] + [(STRANGER_IP, STRANGER_MAC)]
CLIENT_PORTS = [40000, 40001, 40002]


def syn_wire(ip: Ipv4Address, port: int) -> bytes:
    mac = next(m for i, m in SENDERS if i == ip)
    return serialize_frame(make_ipv4_frame(mac, SERVER_MAC, ip, SERVER_IP, PROTO_TCP,
                                           tcp_segment(port, 22)))


class NicMachine(RuleBasedStateMachine):
    """A cloaked server NIC fed knocks, replays, SYNs, mutated SYNs, ARP and noise.

    `admitted` models the filter, <ip, port> -> last live tick, and
    `accepted` the replay cache, nonce -> last tick in the window. Both are
    pruned of expired entries exactly when the NIC writes the table.
    """

    def __init__(self):
        super().__init__()
        self.nic = CloakingNic(NicConfig(mac=SERVER_MAC, ip=SERVER_IP,
                                         role_keys={ip: key for ip, _, key in CLIENTS}))
        self.now = 0
        self.nonce = 0
        self.knocks = []  # (wire, timestamp) of every admitted knock
        self.admitted = {}
        self.accepted = {}

    def receive(self, wire: bytes) -> Actions:
        actions = self.nic.on_wire_receive(wire, self.now)
        assert len(actions.tx_frames) + len(actions.host_events) + len(actions.drops) == 1
        for frame in actions.tx_frames:
            arp = frame.payload
            assert isinstance(arp, ArpPacket)
            assert (arp.operation, arp.sender_ip) == (ARP_REPLY, SERVER_IP)
        return actions

    def write(self, model, key, expires):
        for k in [k for k, e in model.items() if self.now > e]:
            del model[k]
        model[key] = expires

    def seal(self, sealed_ip, key) -> bytes:
        self.nonce += 1
        return seal_knock(key, self.nonce.to_bytes(8, "big"),
                          KnockFields(sealed_ip, self.port, self.now))

    @rule(dt=st.integers(0, 80))
    def advance(self, dt):
        self.now += dt

    @rule(client=st.sampled_from(CLIENTS), port=st.sampled_from(CLIENT_PORTS))
    def fresh_knock(self, client, port):
        ip, mac, key = client
        self.port = port
        wire = serialize_frame(make_icmp_echo(mac, SERVER_MAC, ip, SERVER_IP,
                                              self.seal(ip, key)))
        assert self.receive(wire) == Actions(host_events=[ArpCacheUpdate(ip, mac)])
        self.write(self.admitted, (ip, port), self.now + FILTER_TTL_SECONDS)
        self.write(self.accepted, self.nonce.to_bytes(8, "big"),
                   self.now + REPLAY_WINDOW_SECONDS)
        self.knocks.append((wire, self.now))
        assert min(self.nic.filter.entries.values()) >= self.now
        assert min(self.nic.replay_cache.seen.values()) >= self.now

    @rule(i=st.integers(0, len(CLIENTS) - 1), shift=st.integers(1, len(CLIENTS) - 1))
    def knock_sealing_another_ip(self, i, shift):
        ip, mac, key = CLIENTS[i]
        other_ip = CLIENTS[(i + shift) % len(CLIENTS)][0]
        self.port = CLIENT_PORTS[0]
        wire = serialize_frame(make_icmp_echo(mac, SERVER_MAC, ip, SERVER_IP,
                                              self.seal(other_ip, key)))
        assert self.receive(wire) == Actions(
            drops=[DropRecord(DropReason.BAD_KNOCK, 2, "IpMismatch")])
        # the knock was authentic, so its nonce is spent
        self.write(self.accepted, self.nonce.to_bytes(8, "big"),
                   self.now + REPLAY_WINDOW_SECONDS)
        assert min(self.nic.replay_cache.seen.values()) >= self.now

    @precondition(lambda self: self.knocks)
    @rule(data=st.data())
    def replay(self, data):
        wire, stamp = data.draw(st.sampled_from(self.knocks))
        detail = "Stale" if self.now - stamp > FRESHNESS_SECONDS else "Replayed"
        assert self.receive(wire) == Actions(drops=[DropRecord(DropReason.BAD_KNOCK, 2, detail)])

    @rule(ip=st.sampled_from([ip for ip, _ in SENDERS]), port=st.sampled_from(CLIENT_PORTS))
    def syn(self, ip, port):
        self.syn_from(ip, port)

    @precondition(lambda self: self.admitted)
    @rule(data=st.data())
    def syn_from_admitted_pair(self, data):
        ip, port = data.draw(st.sampled_from(sorted(self.admitted, key=str)))
        self.syn_from(ip, port)

    @precondition(lambda self: self.admitted)
    @rule(data=st.data())
    def mutated_syn_from_admitted_pair(self, data):
        ip, port = data.draw(st.sampled_from(sorted(self.admitted, key=str)))
        wire = bytearray(syn_wire(ip, port))
        for _ in range(data.draw(st.integers(1, 3))):
            # the Ethernet and IPv4 headers and the TCP ports
            wire[data.draw(st.integers(0, 37))] = data.draw(st.integers(0, 0xFF))
        if data.draw(st.booleans()):
            wire[24:26] = bytes(2)
            wire[24:26] = internet_checksum(bytes(wire[14:34])).to_bytes(2, "big")
        wire = bytes(wire)
        if self.receive(wire).host_events != [Delivered()]:
            return
        # delivered: a canonical frame from a live admission, whose TTL it refreshed
        frame = parse_frame(wire)
        assert serialize_frame(frame) == wire
        key = (frame.payload.src, frame.payload.transport_view().src_port)
        assert self.now <= self.admitted.get(key, -1)
        self.admitted[key] = self.now + FILTER_TTL_SECONDS

    def syn_from(self, ip, port):
        actions = self.receive(syn_wire(ip, port))
        if self.now <= self.admitted.get((ip, port), -1):
            assert [type(e) for e in actions.host_events] == [Delivered]
            self.admitted[(ip, port)] = self.now + FILTER_TTL_SECONDS
        else:
            assert actions.drops == [DropRecord(DropReason.NO_FILTER_MATCH, 1)]

    @rule(own=st.booleans())
    def arp_request(self, own):
        target = SERVER_IP if own else STRANGER_IP
        actions = self.receive(serialize_frame(make_arp(
            ARP_REQUEST, CLIENTS[0][1], CLIENTS[0][0], MAC_ZERO, target)))
        if own:
            assert len(actions.tx_frames) == 1
        else:
            assert actions.drops == [DropRecord(DropReason.NO_FILTER_MATCH, 1, "arp-other-ip")]

    @rule(data=st.binary(max_size=80))
    def noise(self, data):
        self.receive(data)

    @invariant()
    def tables_match_the_model(self):
        assert dict(self.nic.filter.entries) == self.admitted
        assert dict(self.nic.replay_cache.seen) == self.accepted
        assert len(self.nic.filter) <= FILTER_TABLE_CAP


NicMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestNicMachine = NicMachine.TestCase


PEERS = [(SERVER_IP, SERVER_MAC)] + [
    (Ipv4Address.from_str(f"10.0.0.{i}"), MacAddress.from_str(f"aa:00:00:00:00:0{i}"))
    for i in (3, 4)]
CONSUMED = DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1, "consumed by resolver")
UNSOLICITED = DropRecord(DropReason.UNSOLICITED_ARP_REPLY, 1)


def udp_to(ip: Ipv4Address) -> EthernetFrame:
    """A client host's datagram to `ip`, whose MAC it leaves to the NIC."""
    client_ip, client_mac = CLIENTS[0][:2]
    return make_ipv4_frame(client_mac, MAC_ZERO, client_ip, ip, PROTO_UDP, udp_datagram(5000, 53))


def reply_to_client(ip: Ipv4Address, mac: MacAddress) -> bytes:
    client_ip, client_mac = CLIENTS[0][:2]
    return serialize_frame(make_arp(ARP_REPLY, mac, ip, client_mac, client_ip))


class ResolverMachine(RuleBasedStateMachine):
    """A client NIC's resolver table fed sends, genuine and forged ARP replies and time.

    `resolved` models the table, peer IP -> (last live tick, MAC), oldest
    write first, pruned of expired entries exactly when the NIC writes it.
    `asked` holds, per peer IP, the last tick a frame parked for it is live.
    ARP carries no proof of origin, so the first reply to a live request is
    the one kept, whoever sent it; a reply to no live request writes nothing.
    """

    def __init__(self):
        super().__init__()
        client_ip, client_mac = CLIENTS[0][:2]
        self.nic = CloakingNic(NicConfig(mac=client_mac, ip=client_ip))
        self.now = 0
        self.resolved = {}
        self.asked = {}

    @rule(dt=st.integers(0, 80))
    def advance(self, dt):
        self.now += dt

    @rule(peer=st.sampled_from(PEERS))
    def send(self, peer):
        frame = udp_to(peer[0])
        tx = self.nic.on_host_transmit(frame, self.now).tx_frames
        expires, mac = self.resolved.get(peer[0], (-1, None))
        if self.now <= expires:
            assert tx == [EthernetFrame(mac, frame.src, frame.ethertype, frame.payload)]
            return
        request, = tx
        assert (request.payload.operation, request.payload.target_ip) == (ARP_REQUEST, peer[0])
        self.asked[peer[0]] = self.now + ARP_TIMEOUT_TICKS

    @rule(peer=st.sampled_from(PEERS), forged=st.booleans())
    def reply(self, peer, forged):
        ip, mac = peer
        mac = STRANGER_MAC if forged else mac
        actions = self.nic.on_wire_receive(reply_to_client(ip, mac), self.now)
        if self.now > self.asked.pop(ip, -1):
            assert actions == Actions(drops=[UNSOLICITED])
            return
        assert actions.drops == [CONSUMED] and {f.dst for f in actions.tx_frames} == {mac}
        self.resolved.pop(ip, None)
        for key in [k for k, (expires, _) in self.resolved.items() if self.now > expires]:
            del self.resolved[key]
        if len(self.resolved) >= RESOLVER_TABLE_CAP:
            del self.resolved[next(iter(self.resolved))]
        self.resolved[ip] = (self.now + FILTER_TTL_SECONDS, mac)
        assert min(expires for expires, _ in self.nic.resolver.entries.values()) >= self.now

    @rule()
    def stranger_reply(self):
        # a reply for an IP this NIC never asked about
        actions = self.nic.on_wire_receive(reply_to_client(STRANGER_IP, STRANGER_MAC), self.now)
        assert actions == Actions(drops=[UNSOLICITED])

    @invariant()
    def table_matches_the_model(self):
        assert list(self.nic.resolver.entries.items()) == list(self.resolved.items())
        assert len(self.nic.resolver) <= RESOLVER_TABLE_CAP


ResolverMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestResolverMachine = ResolverMachine.TestCase


def test_a_resolver_write_at_capacity_evicts_the_oldest_peer():
    client_ip, client_mac = CLIENTS[0][:2]
    nic = CloakingNic(NicConfig(mac=client_mac, ip=client_ip))
    peers = [(Ipv4Address.from_str(f"10.0.{1 + i // 200}.{1 + i % 200}"),
              MacAddress(bytes([0xaa, 0, 0, 0, i >> 8, i & 0xFF])))
             for i in range(RESOLVER_TABLE_CAP + 1)]
    # every peer is answered in one tick, so none has expired
    for ip, mac in peers:
        nic.on_host_transmit(udp_to(ip), 0)
        assert nic.on_wire_receive(reply_to_client(ip, mac), 0).drops == [CONSUMED]
    assert list(nic.resolver.entries) == [ip for ip, _ in peers[1:]]
    (oldest, _), (second, second_mac) = peers[:2]
    request, = nic.on_host_transmit(udp_to(oldest), 1).tx_frames
    assert (request.payload.operation, request.payload.target_ip) == (ARP_REQUEST, oldest)
    assert [f.dst for f in nic.on_host_transmit(udp_to(second), 1).tx_frames] == [second_mac]


LIVE_PAIR = (CLIENTS[0][0], CLIENT_PORTS[0])


def nic_admitting_live_pair() -> CloakingNic:
    """A server NIC that admitted LIVE_PAIR at tick 0."""
    ip, mac, key = CLIENTS[0]
    nic = CloakingNic(NicConfig(mac=SERVER_MAC, ip=SERVER_IP, role_keys={ip: key}))
    knock = seal_knock(key, bytes(8), KnockFields(ip, LIVE_PAIR[1], 0))
    actions = nic.on_wire_receive(
        serialize_frame(make_icmp_echo(mac, SERVER_MAC, ip, SERVER_IP, knock)), 0)
    assert actions.host_events == [ArpCacheUpdate(ip, mac)]
    return nic


@settings(max_examples=400, deadline=None)
@given(bits=st.lists(st.sampled_from(range(8 * 38)), min_size=1, max_size=3, unique=True),
       fix_checksum=st.booleans())
def test_bit_flipped_syn_of_a_live_pair_is_delivered_only_if_canonical(bits, fix_checksum):
    # flip bits of the Ethernet and IPv4 headers and the TCP ports of the pair's SYN;
    # it is delivered exactly when its bytes are a canonical TCP frame from the pair
    wire = bytearray(syn_wire(*LIVE_PAIR))
    for bit in bits:
        wire[bit // 8] ^= 0x80 >> bit % 8
    if fix_checksum:
        wire[24:26] = bytes(2)
        wire[24:26] = internet_checksum(bytes(wire[14:34])).to_bytes(2, "big")
    wire = bytes(wire)
    events = nic_admitting_live_pair().on_wire_receive(wire, 1).host_events
    delivered = [type(e) for e in events] == [Delivered]
    try:
        frame = parse_frame(wire)
    except FrameError:
        assert not delivered
        return
    view = frame.payload.transport_view() if isinstance(frame.payload, Ipv4Packet) else None
    from_pair = view is not None and (frame.payload.src, view.src_port) == LIVE_PAIR
    assert delivered == (from_pair and serialize_frame(frame) == wire)
