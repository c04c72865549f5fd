"""The segment's indexed dispatch is the hub it models, and its queue the heap.

`HubSegment` below is the literal hub: it offers every frame to every node
but its origin, in attach order, and logs one ignored entry per node the
frame passes by. It queues events on its own heap ordered by (time, seq),
seq counting every event it queues, and a repeated program's firing queues
the next through `schedule` when it runs, with a fresh seq. On generated
segments with colliding MACs and a promiscuous attacker, given frames and
repeated programs that share ticks, and frames injected at the current tick
part-way through it, `Segment` must render the same `--hex` lines and
metrics, count the same trace lines, and show its taps the same frames, both
after each step and at the end of the run.
Frames to unknown MACs must not grow its plan cache, a run of nodes a
frame passes by must be one log entry, and the log must hold each entry's
fields, never a record object.
"""

import heapq
from dataclasses import replace

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
    PROTO_TCP,
    PROTO_UDP,
    TCP_FLAG_SYN,
    EthernetFrame,
    Ipv4Address,
    MacAddress,
    Wire,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    serialize_frame,
    tcp_segment,
    udp_datagram,
)
from cloaknic.netsim import (
    ArpPoison,
    AttackerNode,
    CloakedServerNode,
    FIELDS,
    FrameEvent,
    MacSpoof,
    PlainHostNode,
    Segment,
    TraceRecord,
    describe_frame,
)
from cloaknic.nic import CloakingNic, NicConfig

MACS = [MacAddress(bytes([0xAA, 0, 0, 0, 0, i])) for i in range(1, 4)]  # few, so they collide
UNKNOWN_MAC = MacAddress.from_str("02:00:00:00:00:99")


class HubSegment(Segment):
    """Offers each frame to every node but its origin, in attach order, and
    runs events in (time, seq) order from one heap."""

    def __init__(self):
        super().__init__()
        # (time, seq, wire, origin, None) for a frame, and
        # (time, seq, None, node, step) for a step
        self._heap = []
        self._seq = 0

    def inject(self, time, wire, origin):
        heapq.heappush(self._heap, (time, self._seq, wire, origin, None))
        self._seq += 1

    def schedule(self, time, node, step):
        if step.count > 0:  # the steps drawn here are repeated programs
            heapq.heappush(self._heap, (time, self._seq, None, node, step))
            self._seq += 1

    @property
    def pending(self):
        return len(self._heap)

    def run(self):
        while self._heap:
            self.step()

    def _transmit(self, origin, wires, now):
        for wire in wires:
            self._log.extend((now, origin.name, FrameEvent.TX, describe_frame(wire), wire.data))
            self.inject(now + 1, wire, origin.name)

    def step(self):
        time, _, wire, origin, program = heapq.heappop(self._heap)
        self.clock = time
        if wire is None:  # a program's firing, which queues the next
            self.schedule(time + program.period, origin, replace(program, count=program.count - 1))
            node = self.node(origin)
            self._transmit(node, node.perform(program, time), time)
            return
        if not isinstance(wire, Wire):  # an injected frame's bytes, as `Segment.step` wraps them
            wire = Wire(wire)
        described = describe_frame(wire)
        dst = wire.data[:6] if len(wire.data) >= 6 else None
        for node in self.nodes:
            if node.name == origin:
                continue
            if node.promiscuous:
                node.observe(wire, time)
            if dst is not None and dst != node.mac.octets and dst != MAC_BROADCAST.octets:
                self._log.extend((time, (node.name,), FrameEvent.IGNORED, described, None))
                continue
            actions = node.receive(wire, time)
            for event in actions.drops + actions.host_events or [FrameEvent.PROCESSED]:
                self._log.extend((time, node.name, event, described, wire.data))
            self._transmit(node, actions.tx_frames, time)


class Tap(AttackerNode):
    """An attacker that logs every frame it observes."""

    def observe(self, wire, now):
        self.observed.append((now, self.name, wire.data))
        super().observe(wire, now)


def build(segment_type, specs):
    seg = segment_type()
    seg.observed = []
    for i, (kind, mac) in enumerate(specs):
        name, ip = f"n{i}", Ipv4Address(bytes([10, 0, 0, i + 1]))
        if kind == "plain":
            seg.attach(PlainHostNode(name, mac, ip, {22}))
        elif kind == "cloaked":
            seg.attach(CloakedServerNode(name, mac, ip, CloakingNic(NicConfig(mac=mac, ip=ip))))
        else:
            seg.attach(Tap(name, mac, ip)).observed = seg.observed
    return seg


node_specs = st.lists(
    st.tuples(st.sampled_from(["plain", "cloaked", "attacker"]), st.sampled_from(MACS)),
    min_size=1, max_size=7,
).map(lambda specs: specs + [("attacker", MACS[0])])


@st.composite
def offered_frames(draw, n_nodes):
    """(time, origin, bytes): to broadcast, to a known or an unknown MAC, or too short."""
    time = draw(st.integers(0, 6))
    origin = draw(st.sampled_from([f"n{i}" for i in range(n_nodes)] + ["outside"]))
    return time, origin, draw(frame_bytes())


@st.composite
def frame_bytes(draw):
    src = draw(st.sampled_from(MACS))
    src_ip = Ipv4Address(bytes([10, 0, 0, draw(st.integers(1, 9))]))
    dst_ip = Ipv4Address(bytes([10, 0, 0, draw(st.integers(1, 9))]))
    dst = draw(st.sampled_from(MACS + [MAC_BROADCAST, UNKNOWN_MAC]))
    kind = draw(st.sampled_from(["arp-request", "arp-reply", "ping", "syn", "udp", "raw",
                                 "short"]))
    if kind == "short":
        return draw(st.binary(max_size=5))
    if kind == "arp-request":
        frame = make_arp(ARP_REQUEST, src, src_ip, MAC_ZERO, dst_ip)
        frame = EthernetFrame(dst, frame.src, frame.ethertype, frame.payload)
    elif kind == "arp-reply":
        frame = make_arp(ARP_REPLY, src, src_ip, dst, dst_ip)
    elif kind == "ping":
        frame = make_icmp_echo(src, dst, src_ip, dst_ip, b"ping")
    elif kind == "syn":
        frame = make_ipv4_frame(src, dst, src_ip, dst_ip, PROTO_TCP,
                                tcp_segment(40000, draw(st.sampled_from([22, 80])), TCP_FLAG_SYN))
    elif kind == "udp":
        frame = make_ipv4_frame(src, dst, src_ip, dst_ip, PROTO_UDP, udp_datagram(5000, 53))
    else:
        frame = EthernetFrame(dst, src, 0x88B5, b"raw")
    return serialize_frame(frame)


@st.composite
def scheduled_programs(draw, n_nodes):
    """(time, attacker, program): a repeated forged ARP reply or spoofed frame,
    its firings on the ticks the offered frames use."""
    time = draw(st.integers(0, 6))
    victim = f"n{draw(st.integers(0, n_nodes - 1))}"
    count, period = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        program = ArpPoison(victim, Ipv4Address(bytes([10, 0, 0, draw(st.integers(1, 9))])),
                            draw(st.sampled_from(MACS)), period=period, count=count)
    else:
        program = MacSpoof(victim, count=count, period=period)
    return time, f"n{n_nodes - 1}", program  # the last node is an attacker


def offered_events(n_nodes):
    """Frames and programs, queued in the order drawn."""
    return st.lists(st.one_of(offered_frames(n_nodes), scheduled_programs(n_nodes)),
                    min_size=1, max_size=12)


def queue(seg, offers):
    for time, origin, offer in offers:
        if isinstance(offer, bytes):
            seg.inject(time, offer, origin)
        else:
            seg.schedule(time, origin, offer)


def entries(seg):
    """The log's entries, each its `FIELDS` slots as one tuple."""
    slots = iter(seg._log)
    return list(zip(*[slots] * FIELDS))


def outputs(seg, offers):
    queue(seg, offers)
    seg.run()
    lines = [record.format_line(with_hex=True) for record in seg.trace]
    return lines, seg.metrics.to_text(), len(seg.trace), seg.observed


# half again the loaded profile's examples: 150, or 3,000 under `deep`
@settings(max_examples=settings.default.max_examples * 3 // 2, deadline=None)
@given(st.data())
def test_indexed_dispatch_renders_what_the_hub_renders(data):
    specs = data.draw(node_specs)
    offers = data.draw(offered_events(len(specs)))
    indexed = outputs(build(Segment, specs), offers)
    hub = outputs(build(HubSegment, specs), offers)
    assert indexed == hub
    assert indexed[2] == len(indexed[0])


def lines_so_far(seg):
    lines = [record.format_line(with_hex=True) for record in seg.trace]
    return lines, len(seg.trace)


@settings(deadline=None)
@given(st.data())
def test_every_step_leaves_the_trace_the_hub_leaves(data):
    specs = data.draw(node_specs)
    offers = data.draw(offered_events(len(specs)))
    # frames injected at the current tick, each after the step it names
    origins = [f"n{i}" for i in range(len(specs))] + ["outside"]
    midway = dict(data.draw(st.lists(st.tuples(st.integers(1, 30), st.tuples(
        st.sampled_from(origins), frame_bytes())), max_size=4)))
    indexed, hub = build(Segment, specs), build(HubSegment, specs)
    for seg in (indexed, hub):
        queue(seg, offers)
    steps = 0
    while hub.pending:
        assert indexed.step() is None
        hub.step()
        steps += 1
        assert indexed.clock == hub.clock
        if steps in midway:
            origin, frame = midway[steps]
            for seg in (indexed, hub):
                seg.inject(seg.clock, frame, origin)
        assert indexed.pending == hub.pending
        lines, count = lines_so_far(indexed)
        assert (lines, count) == lines_so_far(hub)
        assert count == len(lines)
    assert not indexed.pending
    indexed.step()  # a step with nothing queued does nothing
    assert lines_so_far(indexed) == lines_so_far(hub)


def test_an_event_before_the_clock_is_refused():
    specs = [("plain", MACS[0]), ("attacker", MACS[1])]
    seg = build(Segment, specs)
    frame = serialize_frame(EthernetFrame(MACS[0], MACS[1], 0x88B5, b"x"))
    seg.inject(3, frame, "n1")
    seg.step()
    assert seg.clock == 3 and not seg.pending
    for queue_one in (lambda: seg.inject(2, frame, "n1"),
                      lambda: seg.schedule(2, "n1", MacSpoof("n0"))):
        with pytest.raises(ValueError, match="before the clock"):
            queue_one()
    assert not seg.pending
    seg.inject(3, frame, "n1")  # at the clock: it runs next
    seg.run()
    assert [r.time for r in seg.trace] == [3, 3]


def test_frames_to_unknown_macs_do_not_grow_the_plan_cache():
    specs = [("plain", MACS[0]), ("cloaked", MACS[1]), ("plain", MACS[1]), ("attacker", MACS[2])]
    seg = build(Segment, specs)
    for i in range(10_000):
        dst = MacAddress(b"\x02" + i.to_bytes(5, "big"))
        seg.inject(i, serialize_frame(EthernetFrame(dst, MACS[0], 0x88B5, b"x")),
                   f"n{i % len(specs)}")
    for i, dst in enumerate(MACS + [MAC_BROADCAST]):
        for origin in range(len(specs)):
            seg.inject(10_000 + i, serialize_frame(EthernetFrame(dst, MACS[0], 0x88B5, b"x")),
                       f"n{origin}")
    seg.run()
    # n0 passes by the 7,500 unknown-MAC frames the others sent, and the 6 they
    # sent to the two MACs that are not its own
    assert seg.metrics.node("n0").ignored == 7_506
    assert len(seg._plans) <= len(specs) * (len(seg._macs) + 2)


@pytest.mark.parametrize("receiver_at", ["first", "last"])
@pytest.mark.parametrize("k", [1, 2, 15])
def test_a_run_of_passers_by_is_one_log_entry(k, receiver_at):
    passers = [("plain", MacAddress(bytes([0xAA, 0, 0, 0, 1, i]))) for i in range(k)]
    receiver = [("plain", MACS[0])]
    specs = receiver + passers if receiver_at == "first" else passers + receiver
    names = tuple(f"n{i}" for i, spec in enumerate(specs) if spec[1] != MACS[0])
    frame = serialize_frame(EthernetFrame(MACS[0], UNKNOWN_MAC, 0x88B5, b"x"))
    indexed, hub = build(Segment, specs), build(HubSegment, specs)
    for seg in (indexed, hub):
        seg.inject(0, frame, "outside")
        seg.step()
    # one entry for the receiver's drop, one for the k nodes the frame passed by
    assert len(indexed._log) == 2 * FIELDS
    (passed,) = [TraceRecord(*e) for e in entries(indexed) if e[2] is FrameEvent.IGNORED]
    assert passed.node == names and passed.raw is None
    lines, count = lines_so_far(indexed)
    assert count == k + 1
    assert sum("ignored (other dst)" in line for line in lines) == k
    assert (lines, count) == lines_so_far(hub)


def test_the_log_holds_fields_not_records():
    passer = [("plain", MacAddress(bytes([0xAA, 0, 0, 0, 1, i]))) for i in range(3)]
    specs = passer[:1] + [("plain", MACS[0])] + passer[1:]  # a lone passer-by, then a run
    lone, run = ("n0",), ("n2", "n3")

    def frame(payload):
        return serialize_frame(EthernetFrame(MACS[0], UNKNOWN_MAC, 0x88B5, payload))

    # b"x" and b"y" are one text, b"xy" another; the text comes back after
    # another at tick 0, and tick 1 repeats one
    offers = [(0, "outside", frame(p)) for p in (b"x", b"y", b"xy", b"x")]
    offers += [(1, "outside", frame(p)) for p in (b"x", b"y")]
    indexed, hub = build(Segment, specs), build(HubSegment, specs)
    assert outputs(indexed, offers) == outputs(hub, offers)

    assert not any(isinstance(slot, TraceRecord) for slot in indexed._log)
    passers = [e for e in entries(indexed) if e[2] is FrameEvent.IGNORED]
    for node in (lone, run):
        assert sum(e[1] == node for e in passers) == len(offers)
    assert len(passers) == 2 * len(offers)
