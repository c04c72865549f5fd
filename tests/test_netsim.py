import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    PROTO_UDP,
    TCP_FLAG_ACK,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
    ArpPacket,
    EthernetFrame,
    FrameError,
    IcmpMessage,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    Wire,
    arp_wire,
    icmp_echo_wire,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    parse_frame,
    serialize_frame,
    tcp_segment,
    tcp_wire,
    udp_datagram,
)
from cloaknic.netsim import (
    PLAIN_STAGE_IP,
    PLAIN_STAGE_LINK,
    PLAIN_STAGE_TRANSPORT,
    ArpPoison,
    AttackerNode,
    ClientNode,
    CloakedServerNode,
    DuplicateHandle,
    FrameEvent,
    KnockReplay,
    MacSpoof,
    Ping,
    PlainHostNode,
    PortScan,
    QUEUE_SLOTS,
    Segment,
    TraceRecord,
    describe_frame,
)
from cloaknic.nic import (
    Actions,
    ArpCacheUpdate,
    CloakingNic,
    Delivered,
    DropReason,
    DropRecord,
    NicConfig,
    verdict,
)
from cloaknic.demos import DEMOS
from cloaknic.knock import is_knock_payload
from cloaknic.scenario import parse_scenario, run_scenario, build_segment
from test_frames import any_wire

MAC = MacAddress.from_str
IP = Ipv4Address.from_str


def plain(name, ip, mac, services=()):
    return PlainHostNode(name, MAC(mac), IP(ip), set(services))


def attacker(name="mallory", ip="10.0.0.66", mac="de:ad:be:ef:00:66"):
    return AttackerNode(name, MAC(mac), IP(ip))


class TestAttach:
    def test_broadcast_reaches_all_but_origin(self):
        seg = Segment()
        a = seg.attach(plain("a", "10.0.0.1", "aa:00:00:00:00:01"))
        seg.attach(plain("b", "10.0.0.2", "aa:00:00:00:00:02"))
        seg.attach(plain("c", "10.0.0.3", "aa:00:00:00:00:03"))
        wire = serialize_frame(make_arp(ARP_REQUEST, a.mac, a.ip, MAC_ZERO, IP("10.0.0.9")))
        seg.inject(0, wire, "a")
        seg.step()
        receivers = {r.node for r in seg.trace}
        assert receivers == {"b", "c"}

    def test_duplicate_mac_allowed(self):
        seg = Segment()
        seg.attach(plain("a", "10.0.0.1", "aa:00:00:00:00:01"))
        seg.attach(plain("b", "10.0.0.2", "aa:00:00:00:00:01"))  # spoofed twin

    def test_duplicate_name_rejected(self):
        seg = Segment()
        seg.attach(plain("a", "10.0.0.1", "aa:00:00:00:00:01"))
        with pytest.raises(DuplicateHandle):
            seg.attach(plain("a", "10.0.0.9", "aa:00:00:00:00:09"))

    def test_empty_queue_step_is_noop(self):
        seg = Segment()
        seg.step()
        assert list(seg.trace) == []


class TestStep:
    def test_arp_request_yields_one_reply_event(self):
        seg = Segment()
        nic = CloakingNic(NicConfig(mac=MAC("aa:00:00:00:00:02"), ip=IP("10.0.0.2")))
        seg.attach(CloakedServerNode("server", nic.mac, nic.ip, nic))
        seg.attach(attacker())
        wire = serialize_frame(make_arp(ARP_REQUEST, MAC("aa:00:00:00:00:05"),
                                        IP("10.0.0.5"), MAC_ZERO, IP("10.0.0.2")))
        seg.inject(0, wire, "mallory")
        seg.step()
        assert seg.metrics.node("server").tx == 1
        assert seg.pending == 1  # exactly one ARP reply pending

    def test_deterministic_trace(self):
        def run_once():
            sc = parse_scenario(DEMOS["happy-path"])
            trace, _ = run_scenario(sc, seed=3)
            return [r.format_line(with_hex=True) for r in trace]

        assert run_once() == run_once()


class TestPlainHost:
    def test_poisonable_cache(self):
        seg = Segment()
        victim = plain("victim", "10.0.0.3", "aa:00:00:00:00:03")
        seg.attach(victim)
        mal = seg.attach(attacker())
        seg.schedule(0, mal.name, ArpPoison("victim", IP("10.0.0.1"),
                                            MAC("de:ad:be:ef:00:01"), count=3))
        seg.run()
        assert victim.arp_cache[IP("10.0.0.1")] == MAC("de:ad:be:ef:00:01")
        assert seg.metrics.node("victim").arp_cache_writes == 3

    def test_scan_gets_responses_at_stage_3(self):
        seg = Segment()
        seg.attach(plain("victim", "10.0.0.3", "aa:00:00:00:00:03", services={22}))
        mal = seg.attach(attacker())
        seg.schedule(0, mal.name, PortScan("victim", 1, 32))
        seg.schedule(0, mal.name, Ping("victim"))
        seg.run()
        m = seg.metrics.node("victim")
        assert m.tx == 33  # 32 RST/SYN-ACK + echo reply
        assert set(m.cep_histogram) == {3}

    @pytest.mark.parametrize("frame, reason, stage, detail", [
        (None, DropReason.MALFORMED, 1, "TooShort"),
        (EthernetFrame(MAC("aa:00:00:00:00:03"), MAC("de:ad:be:ef:00:66"), 0x88B5, b"x"),
         DropReason.NO_FILTER_MATCH, 1, "unknown-ethertype"),
        (make_icmp_echo(MAC("de:ad:be:ef:00:66"), MAC("aa:00:00:00:00:03"), IP("10.0.0.66"),
                        IP("10.0.0.3"), reply=True),
         DropReason.NO_FILTER_MATCH, 3, "icmp-other"),
        (make_ipv4_frame(MAC("de:ad:be:ef:00:66"), MAC("aa:00:00:00:00:03"), IP("10.0.0.66"),
                         IP("10.0.0.3"), 99, b"xyz"),
         DropReason.NO_FILTER_MATCH, 2, "unknown-proto"),
        (make_ipv4_frame(MAC("de:ad:be:ef:00:66"), MAC("aa:00:00:00:00:03"), IP("10.0.0.66"),
                         IP("10.0.0.3"), PROTO_UDP, udp_datagram(5000, 22)),
         DropReason.NO_FILTER_MATCH, 3, "udp-closed"),
        (make_ipv4_frame(MAC("de:ad:be:ef:00:66"), MAC("aa:00:00:00:00:03"), IP("10.0.0.66"),
                         IP("10.0.0.3"), PROTO_TCP, tcp_segment(5000, 22, TCP_FLAG_ACK)),
         DropReason.NO_FILTER_MATCH, 3, "tcp-closed"),
    ], ids=["malformed", "unknown-ethertype", "icmp-other", "unknown-proto", "udp-closed",
            "tcp-closed"])
    def test_each_drop_has_its_stage(self, frame, reason, stage, detail):
        host = plain("victim", "10.0.0.3", "aa:00:00:00:00:03", services={22})
        wire = Wire(b"\x00" * 13) if frame is None else Wire(serialize_frame(frame))
        assert host.receive(wire, now=0) == Actions(drops=(DropRecord(reason, stage, detail),))


class TypedPlainHost(PlainHostNode):
    """The plain host as it was when it read every frame from its typed
    parse: the oracle of `PlainHostNode.receive`, which reads the header,
    as `HubSegment` is dispatch's."""

    def receive(self, wire, now):
        try:
            frame = parse_frame(wire.data)
        except FrameError as exc:
            return verdict(DropReason.MALFORMED, PLAIN_STAGE_LINK, type(exc).__name__)
        p = frame.payload
        if type(p) is Ipv4Packet:
            return self._receive_typed_ipv4(frame, p)
        if type(p) is not ArpPacket:
            return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "unknown-ethertype")
        if p.operation == ARP_REQUEST:
            if p.target_ip != self.ip:
                return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "arp-other-ip")
            return Actions((arp_wire(ARP_REPLY, self.mac, self.ip, p.sender_mac, p.sender_ip),))
        if p.operation != ARP_REPLY:
            return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "arp-other-op")
        self.arp_cache[p.sender_ip] = p.sender_mac
        return Actions(host_events=(ArpCacheUpdate(p.sender_ip, p.sender_mac),))

    def _receive_typed_ipv4(self, frame, p):
        delivered = (Delivered(PLAIN_STAGE_TRANSPORT),)
        icmp = p.payload
        if type(icmp) is IcmpMessage:
            if icmp.icmp_type != ICMP_ECHO_REQUEST:
                return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_TRANSPORT, "icmp-other")
            return Actions((icmp_echo_wire(self.mac, frame.src, self.ip, p.src, icmp.payload,
                                           icmp.identifier, icmp.sequence, reply=True),),
                           delivered)
        view = p.transport_view()
        if view is None:
            return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_IP, "unknown-proto")
        if view.kind == "tcp" and view.is_syn:
            flags = TCP_FLAG_SYN if view.dst_port in self.services else TCP_FLAG_RST
            return Actions((tcp_wire(self.mac, frame.src, self.ip, p.src, view.dst_port,
                                     view.src_port, flags | TCP_FLAG_ACK),), delivered)
        return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_TRANSPORT, f"{view.kind}-closed")


@given(st.lists(any_wire, min_size=1, max_size=4), st.booleans())
def test_the_plain_host_answers_as_the_typed_stack_does(wires, addressed):
    """From its header alone, the plain host sends, reports, drops and
    caches what it did from the typed parse. `addressed` gives the host the
    first frame's ARP target IP and TCP destination port as its IP and
    service, so ARP requests are answered and SYNs find an open port."""
    ip, services = IP("10.0.0.3"), {22}
    if addressed and len(wires[0]) >= 42:
        ip, services = Ipv4Address(wires[0][38:42]), {int.from_bytes(wires[0][36:38], "big")}
    host = PlainHostNode("plain", MAC("aa:00:00:00:00:03"), ip, services)
    oracle = TypedPlainHost("plain", host.mac, ip, services)
    for data in wires:
        got, want = host.receive(Wire(data), now=0), oracle.receive(Wire(data), now=0)
        assert [(w.data, w.header) for w in got.tx_frames] == \
            [(w.data, w.header) for w in want.tx_frames]
        assert (got.host_events, got.drops) == (want.host_events, want.drops)
    assert host.arp_cache == oracle.arp_cache


class TestAttackPrograms:
    def test_knock_replay_without_capture(self):
        seg = Segment()
        mal = seg.attach(attacker())
        seg.schedule(0, mal.name, KnockReplay())
        seg.run()
        # nothing captured, so nothing is sent and no line is logged
        assert list(seg.trace) == []
        assert seg.metrics.node(mal.name).tx == 0

    def test_attacker_captures_knocks_promiscuously(self):
        sc = parse_scenario(DEMOS["replay"])
        seg = build_segment(sc)
        seg.run(sc.horizon)
        mal = seg.node("mallory")
        # the client's knock: origin exclusion hides the attacker's own replay
        knocks = [r.raw_hex for r in seg.trace if r.node == "client" and r.direction == "tx"
                  and r.summary.startswith("icmp-knock")]
        assert knocks and mal.last_knock.data.hex() == knocks[-1]

    def test_macspoof_emits_victim_source_mac(self):
        seg = Segment()
        victim = seg.attach(plain("victim", "10.0.0.3", "aa:00:00:00:00:03"))
        seg.attach(plain("other", "10.0.0.4", "aa:00:00:00:00:04"))
        mal = seg.attach(attacker())
        frames_out = mal.frames_for(MacSpoof("victim"))
        assert frames_out[0].data[6:12] == victim.mac.octets

    def test_each_firing_queues_the_next(self):
        sc = parse_scenario(DEMOS["replay"].replace(
            "20 attack mallory knockreplay", "0 attack mallory macspoof server count=200000"))
        seg = build_segment(sc)
        assert seg.pending == 2  # the client's send and the program's first firing
        seg.run(sc.horizon)
        assert seg.metrics.node("mallory").tx == sc.horizon + 1
        # the next tick holds the next firing, queued when the last one ran,
        # and then the last firing's frame, which it transmitted after that
        assert seg.pending == 2 and list(seg._queue) == [sc.horizon + 1]
        queued = seg._queue[sc.horizon + 1]
        assert QUEUE_SLOTS == 3 and len(queued) == 2 * QUEUE_SLOTS
        firing, frame = queued[:QUEUE_SLOTS], queued[QUEUE_SLOTS:]
        assert firing == [None, "mallory", MacSpoof("server", count=200000 - sc.horizon - 1)]
        assert isinstance(frame[0], Wire) and frame[1] == "mallory"

    def test_zero_count_fires_nothing(self):
        seg = Segment()
        seg.attach(plain("victim", "10.0.0.3", "aa:00:00:00:00:03"))
        mal = seg.attach(attacker())
        seg.schedule(0, mal.name, MacSpoof("victim", count=0))
        assert seg.pending == 0
        seg.run()
        assert list(seg.trace) == []

    def test_zero_period_is_refused(self):
        seg = Segment()
        mal = seg.attach(attacker())
        with pytest.raises(ValueError, match="period"):
            seg.schedule(0, mal.name, MacSpoof("victim", count=10**8, period=0))
        assert seg.pending == 0

    def test_repeated_firings_keep_their_order_at_equal_times(self):
        seg = Segment()
        victim = seg.attach(plain("victim", "10.0.0.3", "aa:00:00:00:00:03"))
        mal = seg.attach(attacker())
        # tick 0's first poison transmits its frame into tick 1 before the
        # spoof's first firing runs and queues the second, and the second
        # poison is scheduled at tick 1 before either: so at tick 1 the
        # second poison runs first, then the first poison's frame arrives,
        # and only then does the spoof fire again
        seg.schedule(0, mal.name, ArpPoison("victim", IP("10.0.0.2"),
                                            MAC("de:ad:be:ef:00:02")))
        seg.schedule(0, mal.name, MacSpoof("victim", count=2, period=1))
        seg.schedule(1, mal.name, ArpPoison("victim", IP("10.0.0.1"),
                                            MAC("de:ad:be:ef:00:01")))
        seg.run()
        tick1 = [(r.node, r.direction, r.frame) for r in seg.trace if r.time == 1]
        assert tick1 == [("mallory", "tx", "arp-reply 10.0.0.1 is-at de:ad:be:ef:00:01"),
                         ("victim", "host_event", "arp-reply 10.0.0.2 is-at de:ad:be:ef:00:02"),
                         ("mallory", "tx", "ethertype=0x88b5 (19 bytes)"),
                         ("victim", "drop", "ethertype=0x88b5 (19 bytes)")]
        sent = [(r.time, r.summary.split(" ")[0]) for r in seg.trace if r.direction == "tx"]
        assert sent == [(0, "arp-reply"), (0, "ethertype=0x88b5"), (1, "arp-reply"),
                        (1, "ethertype=0x88b5")]
        assert victim.arp_cache[IP("10.0.0.1")] == MAC("de:ad:be:ef:00:01")
        assert victim.arp_cache[IP("10.0.0.2")] == MAC("de:ad:be:ef:00:02")

    def test_portscan_covers_range(self):
        seg = Segment()
        seg.attach(plain("victim", "10.0.0.3", "aa:00:00:00:00:03"))
        mal = seg.attach(attacker())
        out = mal.frames_for(PortScan("victim", 10, 20))
        assert len(out) == 11


class TestEndToEnd:
    def test_happy_path_metrics(self):
        sc = parse_scenario(DEMOS["happy-path"])
        seg = build_segment(sc)
        seg.run(sc.horizon)
        server = seg.metrics.node("server")
        assert server.delivered == 1
        assert server.arp_cache_writes == 1
        assert sum(server.dropped_by_reason.values()) == 0
        assert len(seg.node("server").nic.filter) == 1
        assert (IP("10.0.0.5"), 40000) in seg.node("server").nic.filter.entries

    def test_the_65536th_send_wraps_its_identification(self):
        # the IPv4 identification is 16 bits: after 65,535 sends it wraps to 0
        sc = parse_scenario(DEMOS["happy-path"])
        seg = build_segment(sc)
        seg.node("client")._ident = 0xFFFF
        seg.run(sc.horizon)
        sent = [parse_frame(bytes.fromhex(r.raw_hex)).payload for r in seg.trace
                if r.node == "client" and r.event is FrameEvent.TX]
        assert [p.identification for p in sent if getattr(p, "protocol", None) == PROTO_TCP] == [0]
        assert seg.metrics.node("server").delivered == 1

    def test_port_scan_silence(self):
        sc = parse_scenario(DEMOS["port-scan"])
        _, metrics = run_scenario(sc)
        server = metrics.node("server")
        assert server.tx == 0
        assert server.delivered == 0
        assert server.dropped_by_reason["NoFilterMatch"] == 1025

    def test_poison_differential(self):
        sc = parse_scenario(DEMOS["arp-poison"])
        _, metrics = run_scenario(sc)
        assert metrics.node("server").arp_cache_writes == 0
        assert metrics.node("plain").arp_cache_writes >= 1

    def test_replay_rejected_without_filter_mutation(self):
        sc = parse_scenario(DEMOS["replay"])
        seg = build_segment(sc)
        server = seg.node("server")
        expiry_after_knock = None
        while seg.pending:
            seg.step()
            if expiry_after_knock is None and len(server.nic.filter) == 1:
                expiry_after_knock = dict(server.nic.filter.entries)
        assert seg.metrics.node("server").dropped_by_reason["BadKnock"] == 1
        assert dict(server.nic.filter.entries) == expiry_after_knock

    def test_cloaking_end_to_end_no_keyless_scenario_leaks(self):
        # with no attacker holding a key, server emits nothing but ARP replies
        for name in ("port-scan", "arp-poison", "baseline-comparison"):
            sc = parse_scenario(DEMOS[name])
            trace, metrics = run_scenario(sc)
            for rec in trace:
                if rec.node == "server" and rec.direction == "tx":
                    assert rec.summary.startswith("arp-reply")

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_records_hold_text_not_frames(self, name):
        trace, _ = run_scenario(parse_scenario(DEMOS[name]))
        values = [v for r in trace for v in r]
        values += [v for r in trace if isinstance(r.event, tuple) for v in r.event]
        assert not [v for v in values if isinstance(v, (Wire, EthernetFrame))]
        # one description object per distinct text, shared by every record of it
        assert len({id(r.frame) for r in trace}) == len({r.frame for r in trace})

    def test_conservation_per_receiving_node(self):
        sc = parse_scenario(DEMOS["replay"])
        trace, _ = run_scenario(sc)
        # every rx offering ends in exactly one terminal record; terminal
        # directions for a received frame are rx/drop/host_event
        from collections import Counter

        terminals = Counter((r.time, r.node) for r in trace if r.direction != "tx")
        tx_count = sum(1 for r in trace if r.direction == "tx")
        assert tx_count > 0
        assert all(v >= 1 for v in terminals.values())


def _summary(data: bytes) -> str:
    """The description of a frame as its typed parse reads it: the oracle
    for `describe_frame`, which reads an IPv4 frame from its header."""
    try:
        frame = parse_frame(data)
    except FrameError as exc:
        return f"malformed ({type(exc).__name__}, {len(data)} bytes)"
    p = frame.payload
    kind = type(p)
    if kind is Ipv4Packet:
        body = p.payload
        if type(body) is IcmpMessage:
            if is_knock_payload(body.payload):
                return f"icmp-knock {p.src}->{p.dst}"
            return f"icmp type={body.icmp_type} {p.src}->{p.dst}"
        view = p.transport_view()
        if view is not None:
            flag = " syn" if view.is_syn else ""
            return f"{view.kind} {p.src}:{view.src_port}->{p.dst}:{view.dst_port}{flag}"
        return f"ipv4 proto={p.protocol} {p.src}->{p.dst}"
    if kind is ArpPacket:
        if p.operation == ARP_REQUEST:
            return f"arp-request who-has {p.target_ip} tell {p.sender_ip}"
        if p.operation == ARP_REPLY:
            return f"arp-reply {p.sender_ip} is-at {p.sender_mac}"
        return f"arp op={p.operation} {p.sender_ip}->{p.target_ip}"
    return f"ethertype=0x{frame.ethertype:04x} ({len(data)} bytes)"


@given(any_wire)
def test_describe_frame_reads_bytes_as_the_typed_parse_does(data):
    assert describe_frame(data) == _summary(data)


def test_describe_frame_is_total():
    assert "malformed" in describe_frame(b"\x00")
    assert "arp-request" in describe_frame(serialize_frame(make_arp(
        ARP_REQUEST, MAC("aa:00:00:00:00:01"), IP("10.0.0.1"), MAC_ZERO, IP("10.0.0.2"))))


@pytest.mark.parametrize("operation", [0, 3, 0xFFFF])
def test_an_arp_operation_neither_request_nor_reply_is_named_as_it_is(operation):
    data = serialize_frame(make_arp(operation, MAC("aa:00:00:00:00:66"), IP("10.0.0.66"),
                                    MAC("aa:00:00:00:00:02"), IP("10.0.0.2")))
    assert describe_frame(data) == f"arp op={operation} 10.0.0.66->10.0.0.2"
    nic = CloakingNic(NicConfig(MAC("aa:00:00:00:00:02"), IP("10.0.0.2")))
    cloaked = CloakedServerNode("server", nic.mac, nic.ip, nic).receive(Wire(data), now=0)
    host = plain("server", "10.0.0.2", "aa:00:00:00:00:02")
    assert cloaked.drops == (DropRecord(DropReason.NO_FILTER_MATCH, 1, "arp-other-op"),)
    assert host.receive(Wire(data), now=0) is cloaked
    assert host.arp_cache == {}


class TestMetricsNode:
    def test_an_unattached_name_is_refused_and_adds_no_node(self):
        sc = parse_scenario(DEMOS["happy-path"])
        seg = build_segment(sc)
        seg.run(sc.horizon)
        metrics = seg.metrics
        text = metrics.to_text()
        with pytest.raises(KeyError):
            metrics.node("srever")
        assert metrics.to_text() == text
        assert [line for line in text.splitlines() if line.startswith("node ")] == \
            ["node client", "node server"]


KNOCK = "icmp-knock 10.0.0.66->10.0.0.2"
SYN = "tcp 10.0.0.5:40000->10.0.0.2:22 syn"
ARP_ASK = "arp-request who-has 10.0.0.2 tell 10.0.0.5"


class TestExactText:
    """Each line and description class, letter for letter."""

    @pytest.mark.parametrize("record, plain_line, hex_line", [
        (TraceRecord(7, "client", FrameEvent.TX, SYN, bytes.fromhex("ab12")),
         f"t=7 node=client dir=tx stage=0 info={SYN}",
         f"t=7 node=client dir=tx stage=0 info={SYN} hex=ab12"),
        (TraceRecord(7, "plain", FrameEvent.IGNORED, SYN, bytes.fromhex("ab12")),
         f"t=7 node=plain dir=rx stage=0 info=ignored (other dst) | {SYN}",
         f"t=7 node=plain dir=rx stage=0 info=ignored (other dst) | {SYN} hex=ab12"),
        (TraceRecord(7, "plain", FrameEvent.IGNORED, SYN),
         f"t=7 node=plain dir=rx stage=0 info=ignored (other dst) | {SYN}",
         f"t=7 node=plain dir=rx stage=0 info=ignored (other dst) | {SYN}"),
        (TraceRecord(7, "server", FrameEvent.PROCESSED, ARP_ASK, bytes.fromhex("ab12")),
         f"t=7 node=server dir=rx stage=1 info=processed | {ARP_ASK}",
         f"t=7 node=server dir=rx stage=1 info=processed | {ARP_ASK} hex=ab12"),
        (TraceRecord(7, "server", DropRecord(DropReason.BAD_KNOCK, 2, "BadTag"), KNOCK,
                     bytes.fromhex("ab12")),
         f"t=7 node=server dir=drop stage=2 info=BadKnock BadTag | {KNOCK}",
         f"t=7 node=server dir=drop stage=2 info=BadKnock BadTag | {KNOCK} hex=ab12"),
        (TraceRecord(7, "server", DropRecord(DropReason.NO_FILTER_MATCH, 1), SYN,
                     bytes.fromhex("ab12")),
         f"t=7 node=server dir=drop stage=1 info=NoFilterMatch | {SYN}",
         f"t=7 node=server dir=drop stage=1 info=NoFilterMatch | {SYN} hex=ab12"),
        (TraceRecord(7, "server", Delivered(), SYN, bytes.fromhex("ab12")),
         f"t=7 node=server dir=host_event stage=2 info=delivered | {SYN}",
         f"t=7 node=server dir=host_event stage=2 info=delivered | {SYN} hex=ab12"),
        (TraceRecord(7, "server", ArpCacheUpdate(IP("10.0.0.5"), MAC("aa:00:00:00:00:05")),
                     "icmp-knock 10.0.0.5->10.0.0.2", bytes.fromhex("ab12")),
         "t=7 node=server dir=host_event stage=2 info=arp-cache-update 10.0.0.5 is-at "
         "aa:00:00:00:00:05",
         "t=7 node=server dir=host_event stage=2 info=arp-cache-update 10.0.0.5 is-at "
         "aa:00:00:00:00:05"),
        (TraceRecord(7, "client", FrameEvent.TX, SYN),
         f"t=7 node=client dir=tx stage=0 info={SYN}",
         f"t=7 node=client dir=tx stage=0 info={SYN}"),
    ], ids=["tx", "ignored", "ignored-record", "processed", "drop-detail", "drop-bare",
            "delivered", "arp-cache-update", "tx-no-hex"])
    def test_format_line(self, record, plain_line, hex_line):
        assert record.format_line() == plain_line
        assert record.format_line(with_hex=True) == hex_line

    A, B = MAC("aa:00:00:00:00:05"), MAC("aa:00:00:00:00:02")
    IP_A, IP_B = IP("10.0.0.5"), IP("10.0.0.2")

    @pytest.mark.parametrize("frame, text", [
        (make_arp(ARP_REQUEST, A, IP_A, MAC_ZERO, IP_B), ARP_ASK),
        (make_arp(ARP_REPLY, B, IP_B, A, IP_A), "arp-reply 10.0.0.2 is-at aa:00:00:00:00:02"),
        (make_icmp_echo(A, B, IP_A, IP_B, b"KNCK\x01\x00" + bytes(40)),
         "icmp-knock 10.0.0.5->10.0.0.2"),
        (make_icmp_echo(A, B, IP_A, IP_B, b"ping", reply=True), "icmp type=0 10.0.0.5->10.0.0.2"),
        (make_ipv4_frame(A, B, IP_A, IP_B, PROTO_TCP, tcp_segment(40000, 22)), SYN),
        (make_ipv4_frame(A, B, IP_A, IP_B, PROTO_TCP, tcp_segment(40000, 22, TCP_FLAG_ACK)),
         "tcp 10.0.0.5:40000->10.0.0.2:22"),
        (make_ipv4_frame(A, B, IP_A, IP_B, PROTO_UDP, udp_datagram(5353, 53)),
         "udp 10.0.0.5:5353->10.0.0.2:53"),
        (make_ipv4_frame(A, B, IP_A, IP_B, PROTO_TCP, b"short"), "ipv4 proto=6 10.0.0.5->10.0.0.2"),
        (EthernetFrame(MAC_BROADCAST, A, 0x88B5, b"spoof"), "ethertype=0x88b5 (19 bytes)"),
        (None, "malformed (TooShort, 13 bytes)"),
    ], ids=["arp-request", "arp-reply", "icmp-knock", "icmp-other", "tcp-syn", "tcp-ack", "udp",
            "ipv4-proto", "ethertype", "malformed"])
    def test_describe_frame(self, frame, text):
        data = b"\x00" * 13 if frame is None else serialize_frame(frame)
        assert describe_frame(data) == text
        wire = Wire(data) if frame is None else Wire(serialize_frame(frame))
        assert describe_frame(wire) == text
