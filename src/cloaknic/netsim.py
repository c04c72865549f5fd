"""Deterministic discrete-event Ethernet broadcast segment.

The medium is a hub: every frame is offered to every attached node except
its origin, in attach order, one time unit of latency per hop, no loss and
no jitter. Identical scenarios therefore produce byte-identical traces.
The segment keeps these semantics through an index: it offers a frame only
to the nodes its destination MAC addresses, from a plan cached per origin
and destination, and the promiscuous taps observe every frame. The nodes
a frame passes by are logged in attach order, a run of them as one
`IgnoredSpan`, and their `ignored (other dst)` lines are rendered from that
order when the trace is read.

Node kinds: cloaked servers and clients (backed by `CloakingNic`), a plain
software-stack baseline host (answers ARP and pings, RSTs closed ports,
and accepts unsolicited ARP replies into its cache -- the poisonable
reference point), and attackers running the layer-2 attack programs.

Stage counts model code-execution-path length: the cloaking NIC rejects at
stage 1, its filter; the plain host carries every probe through link (1),
IP (2) and transport/ICMP (3) before its verdict.

The trace is the run's one account: each `TraceRecord` holds a typed event
and its frame's text, never the frame. The event is a verdict exactly as a
node returned it (a `DropRecord`, `Delivered` or `ArpCacheUpdate`), or a
`FrameEvent` where no node gives one; every event carries its own stage.
`Segment.trace` is a read-only view of the log with one record per line,
and `Segment.metrics` folds the log, counting a span's nodes in bulk.

Describing, dispatching and recording run once per frame, so they keep to
these rules:

- records and spans are built with `tuple.__new__`, not through their
  Python-level constructors, and payloads and events are dispatched on
  `type(x) is`;
- the benchmark's tracer wraps `describe_frame`, `Segment.step`,
  `Segment.run` (which calls `self.step()`), the nodes' `receive`,
  `observe`, `perform` and `frames_for`, `TraceRecord.format_line` and
  `Metrics.to_text`, so each is reached through its module global or
  class attribute and none is inlined into its caller;
- nothing is cached by frame bytes; the two text caches, an address's
  dotted quad (`frames.Ipv4Address`) and an event's line head
  (`_line_head`), are bounded.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import chain, islice, repeat
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from . import frames
from .frames import (
    ARP_REPLY,
    ARP_REQUEST,
    ICMP_ECHO_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
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
)
from .knock import is_knock_payload
from .nic import (
    Actions,
    ArpCacheUpdate,
    CloakingNic,
    Delivered,
    DropReason,
    DropRecord,
)

# Distinct line heads `TraceRecord.format_line` keeps: those of the shared
# verdicts are a few dozen; cache writes, one per knock, cycle through the rest.
LINE_HEAD_CACHE = 256

PLAIN_STAGE_LINK = 1
PLAIN_STAGE_IP = 2
PLAIN_STAGE_TRANSPORT = 3
_PLAIN_DELIVERED = Delivered(PLAIN_STAGE_TRANSPORT)  # one value shared by the trace


class SimError(Exception):
    pass


class DuplicateHandle(SimError):
    """Two nodes with the same name (duplicate MAC/IP is deliberately legal)."""


class NothingCaptured(SimError):
    """Knock replay requested before any knock was observed on the wire."""


class FrameEvent(Enum):
    """A frame's fate where no node gives a verdict: (direction, summary prefix, stage)."""

    TX = ("tx", "", 0)
    IGNORED = ("rx", "ignored (other dst) | ", 0)  # addressed to another node
    PROCESSED = ("rx", "processed | ", 1)          # consumed with no verdict, e.g. answered

    def __init__(self, direction: str, prefix: str, stage_count: int):
        self.direction, self.prefix, self.stage_count = direction, prefix, stage_count

    # Members are singletons that compare by identity, so identity hashing
    # agrees with equality; `Enum.__hash__` is a Python-level call, made for
    # every line's `_line_head` lookup.
    __hash__ = object.__hash__


Event = Union[FrameEvent, DropRecord, Delivered, ArpCacheUpdate]


class TraceRecord(NamedTuple):
    """One node's account of one frame, the run's only record. `frame` is the
    frame's description: one string, shared by every record of that frame."""

    time: int
    node: str
    event: Event
    frame: str
    raw_hex: Optional[str] = None

    @property
    def stage_count(self) -> int:
        return self.event.stage_count

    def _text(self) -> Tuple[str, str, Optional[str]]:
        """The record's direction (rx, tx, drop or host_event), summary and the
        hex its line shows: a cache write's line shows neither frame nor hex."""
        event = self.event
        kind = type(event)
        if kind is FrameEvent:
            return event.direction, event.prefix + self.frame, self.raw_hex
        if kind is DropRecord:
            detail = f" {event.detail}" if event.detail else ""
            return "drop", f"{event.reason._value_}{detail} | {self.frame}", self.raw_hex
        if kind is Delivered:
            return "host_event", "delivered | " + self.frame, self.raw_hex
        return "host_event", f"arp-cache-update {event.ip} is-at {event.mac}", None

    @property
    def direction(self) -> str:
        return self._text()[0]

    @property
    def summary(self) -> str:
        return self._text()[1]

    def format_line(self, with_hex: bool = False) -> str:
        time, node, event, frame, raw_hex = self
        if type(event) is ArpCacheUpdate:
            return f"t={time} node={node} {_line_head(event)}"
        if with_hex and raw_hex:
            return f"t={time} node={node} {_line_head(event)}{frame} hex={raw_hex}"
        return f"t={time} node={node} {_line_head(event)}{frame}"


@lru_cache(maxsize=LINE_HEAD_CACHE)
def _line_head(event: Event) -> str:
    """A line's text from its direction up to the frame's description. Every
    summary but a cache write's ends with the frame's text, so an event's
    head is its summary with no frame. The events a node shares (drop
    records, `Delivered`, `FrameEvent`) come from the code's few literals,
    and a cache write's head holds only two addresses, so the cache is small."""
    direction, summary, _ = TraceRecord(0, "", event, "")._text()
    return f"dir={direction} stage={event.stage_count} info={summary}"


class IgnoredRecord(TraceRecord):
    """The line of a node that a frame passed by: its event is `FrameEvent.IGNORED`
    and it shows no hex."""

    __slots__ = ()

    def format_line(self, with_hex: bool = False) -> str:
        return (f"t={self.time} node={self.node} dir=rx stage=0 "
                f"info=ignored (other dst) | {self.frame}")


# (time, node, event, frame, raw_hex) -> TraceRecord, and (time, node,
# FrameEvent.IGNORED, frame, None) -> IgnoredRecord, with no Python frame
_record = partial(tuple.__new__, TraceRecord)
_ignored_record = partial(tuple.__new__, IgnoredRecord)
_IGNORED = FrameEvent.IGNORED
_PROCESSED_ONLY = (FrameEvent.PROCESSED,)  # the events of a receiver that gave no verdict
_TX = FrameEvent.TX
_tuple_new = tuple.__new__


class IgnoredSpan(NamedTuple):
    """Two or more nodes in a row, in attach order, that one frame passed by."""

    time: int
    names: Tuple[str, ...]
    frame: str

    def records(self) -> Iterator[IgnoredRecord]:
        """The span's lines, one record per node."""
        return map(_ignored_record, zip(repeat(self.time), self.names, repeat(_IGNORED),
                                        repeat(self.frame), repeat(None)))


LogEntry = Union[TraceRecord, IgnoredSpan]


class TraceView:
    """Read-only lines of a segment's log from `start` to `stop` (its end, if
    None): each `IgnoredSpan` reads as one record per node. `spans` holds the
    log index of every span. An index or slice reads every line first."""

    __slots__ = ("_log", "_spans", "_start", "_stop")

    def __init__(self, log: List[LogEntry], spans: List[int], start: int = 0,
                 stop: Optional[int] = None):
        self._log, self._spans, self._start, self._stop = log, spans, start, stop

    def _span_range(self) -> Tuple[int, List[int]]:
        stop = len(self._log) if self._stop is None else self._stop
        spans = self._spans
        return stop, spans[bisect_left(spans, self._start):bisect_left(spans, stop)]

    def _pieces(self) -> Iterator[Iterable[TraceRecord]]:
        """The runs of records between spans, and each span's records. The runs
        share one iterator over the log, with no copy: `chain` exhausts each
        piece before it asks for the next, so a run starts where the last ended."""
        log, at = self._log, self._start
        stop, spans = self._span_range()
        entries = islice(log, at, stop)
        for i in spans:
            yield islice(entries, i - at)
            next(entries)  # the span, read as its records
            yield log[i].records()
            at = i + 1
        yield entries

    def __iter__(self) -> Iterator[TraceRecord]:
        return chain.from_iterable(self._pieces())

    def __len__(self) -> int:
        stop, spans = self._span_range()
        log = self._log
        return stop - self._start + sum(len(log[i].names) - 1 for i in spans)

    def __getitem__(self, index):
        return list(self)[index]


@dataclass
class NodeMetrics:
    delivered: int = 0
    tx: int = 0
    arp_cache_writes: int = 0
    dropped_by_reason: Counter = field(default_factory=Counter)
    cep_histogram: Counter = field(default_factory=Counter)
    ignored: int = 0


class Metrics:
    """Per-node counters of the named nodes, folded from a segment's log."""

    def __init__(self, trace: Iterable[LogEntry], names: Iterable[str]):
        self.nodes: Dict[str, NodeMetrics] = {name: NodeMetrics() for name in names}
        tx, ignored = FrameEvent.TX, FrameEvent.IGNORED
        spans = []
        for record in trace:
            if type(record) is IgnoredSpan:
                spans.append(record.names)
                continue
            m, event = self.nodes[record.node], record.event
            if event is tx:
                m.tx += 1
            elif event is ignored:
                m.ignored += 1
            else:
                m.cep_histogram[event.stage_count] += 1
                kind = type(event)
                if kind is Delivered:
                    m.delivered += 1
                elif kind is ArpCacheUpdate:
                    m.arp_cache_writes += 1
                elif kind is DropRecord:
                    m.dropped_by_reason[event.reason._value_] += 1
        for name, n in Counter(chain.from_iterable(spans)).items():
            self.nodes[name].ignored += n

    def node(self, name: str) -> NodeMetrics:
        """The counters of an attached node; a KeyError for any other name."""
        return self.nodes[name]

    def to_text(self) -> str:
        out = []
        for name, m in sorted(self.nodes.items()):
            out += [f"node {name}", f"  delivered {m.delivered}", f"  tx {m.tx}",
                    f"  arp_cache_writes {m.arp_cache_writes}", f"  ignored {m.ignored}"]
            out += [f"  drop {reason} {n}" for reason, n in sorted(m.dropped_by_reason.items())]
            out += [f"  cep {stage} {n}" for stage, n in sorted(m.cep_histogram.items())]
        return "\n".join(out) + "\n"


def describe_frame(wire: Union[Wire, bytes]) -> str:
    """One-line human summary of a frame for trace records."""
    if not isinstance(wire, Wire):
        wire = Wire(wire)
    try:
        frame = wire.frame
    except FrameError as exc:
        return f"malformed ({type(exc).__name__}, {len(wire.data)} bytes)"
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
        return f"arp-reply {p.sender_ip} is-at {p.sender_mac}"
    return f"ethertype=0x{frame.ethertype:04x} ({len(wire.data)} bytes)"


# --------------------------------------------------------------------------
# attack programs, and the steps a scenario schedules

@dataclass
class ArpPoison:
    victim: str            # node whose cache the forged mapping targets
    claimed_ip: Ipv4Address
    claimed_mac: MacAddress
    period: int = 1
    count: int = 1


@dataclass
class MacSpoof:
    victim: str            # node whose source MAC is forged
    count: int = 1
    period: int = 1


@dataclass
class KnockReplay:
    pass


@dataclass
class PortScan:
    victim: str            # node whose ports are probed
    port_lo: int = 1
    port_hi: int = 1024


AttackProgram = Union[ArpPoison, MacSpoof, KnockReplay, PortScan]


@dataclass
class Send:                # a client's TCP SYN or UDP datagram, through its NIC
    dst: str
    proto: str             # tcp | udp
    src_port: int
    dst_port: int


@dataclass
class Ping:                # an ICMP echo request
    dst: str


@dataclass
class Attack:              # one firing of an attacker's program
    program: AttackProgram


Step = Union[Send, Ping, Attack]


# --------------------------------------------------------------------------
# nodes

class Node:
    """Base: owns a name/mac/ip; subclasses produce `Actions` per frame."""

    promiscuous = False
    lookup: Callable[[str], "Node"]  # name -> attached node, set by `Segment.attach`

    def __init__(self, name: str, mac: MacAddress, ip: Ipv4Address):
        self.name = name
        self.mac = mac
        self.ip = ip

    def receive(self, wire: Wire, now: int) -> Actions:
        raise NotImplementedError

    def observe(self, wire: Wire, now: int) -> None:
        """Promiscuous tap; called for every frame regardless of address."""

    def perform(self, step: Step, now: int) -> List[Wire]:
        """The frames a scheduled scenario step transmits."""
        raise NotImplementedError


class CloakedServerNode(Node):
    def __init__(self, name, mac, ip, nic: CloakingNic):
        super().__init__(name, mac, ip)
        self.nic = nic

    def receive(self, wire: Wire, now: int) -> Actions:
        return self.nic.on_wire_receive(wire, now)


class ClientNode(CloakedServerNode):
    """A cloaked host that also performs scripted steps; its sends go through the NIC."""

    _ident = 0  # the IPv4 identification of its last send, a 16-bit field

    def perform(self, step: Union[Send, Ping], now: int) -> List[Wire]:
        dst = self.lookup(step.dst)
        if isinstance(step, Ping):
            frame = frames.make_icmp_echo(self.mac, dst.mac, self.ip, dst.ip, b"ping")
        else:
            if step.proto == "tcp":
                payload = frames.tcp_segment(step.src_port, step.dst_port, TCP_FLAG_SYN)
                proto_num = PROTO_TCP
            else:
                payload = frames.udp_datagram(step.src_port, step.dst_port)
                proto_num = PROTO_UDP
            self._ident = (self._ident + 1) & 0xFFFF
            # dst MAC left zero: the NIC resolves it from its table, or parks the frame and asks ARP
            frame = frames.make_ipv4_frame(self.mac, MAC_ZERO, self.ip, dst.ip, proto_num,
                                           payload, identification=self._ident)
        return [Wire.from_frame(f) for f in self.nic.on_host_transmit(frame, now).tx_frames]


class PlainHostNode(Node):
    """Baseline software stack: the host the paper's NIC replaces.

    Answers ARP for its IP, replies to echo, RSTs closed ports, SYN-ACKs
    open ones, and accepts any ARP reply into its cache.
    """

    def __init__(self, name, mac, ip, services=frozenset()):
        super().__init__(name, mac, ip)
        self.services = set(services)
        self.arp_cache: Dict[Ipv4Address, MacAddress] = {}

    def receive(self, wire: Wire, now: int) -> Actions:
        actions = Actions()
        try:
            frame = wire.frame
        except FrameError as exc:
            return actions.drop(DropReason.MALFORMED, PLAIN_STAGE_LINK, type(exc).__name__)
        p = frame.payload
        kind = type(p)
        if kind is Ipv4Packet:
            return self._receive_ipv4(actions, frame, p)
        if kind is ArpPacket:
            if p.operation == ARP_REQUEST and p.target_ip == self.ip:
                actions.tx_frames.append(frames.make_arp(
                    ARP_REPLY, self.mac, self.ip, p.sender_mac, p.sender_ip))
            elif p.operation == ARP_REPLY:
                # no request/reply matching: the classic poisonable cache
                self.arp_cache[p.sender_ip] = p.sender_mac
                actions.host_events.append(ArpCacheUpdate(p.sender_ip, p.sender_mac))
            else:
                actions.drop(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "arp-other-ip")
            return actions
        return actions.drop(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "unknown-ethertype")

    def _receive_ipv4(self, actions: Actions, frame: EthernetFrame, p: Ipv4Packet) -> Actions:
        icmp = p.payload
        if type(icmp) is IcmpMessage:
            if icmp.icmp_type == ICMP_ECHO_REQUEST:
                actions.tx_frames.append(frames.make_icmp_echo(
                    self.mac, frame.src, self.ip, p.src, icmp.payload,
                    icmp.identifier, icmp.sequence, reply=True))
                actions.host_events.append(_PLAIN_DELIVERED)
            else:
                actions.drop(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_TRANSPORT, "icmp-other")
            return actions
        view = p.transport_view()
        if view is None:
            return actions.drop(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_IP, "unknown-proto")
        if view.kind == "tcp" and view.is_syn:
            flags = TCP_FLAG_SYN | TCP_FLAG_ACK if view.dst_port in self.services \
                else TCP_FLAG_RST | TCP_FLAG_ACK
            seg = frames.tcp_segment(view.dst_port, view.src_port, flags)
            actions.tx_frames.append(frames.make_ipv4_frame(
                self.mac, frame.src, self.ip, p.src, PROTO_TCP, seg))
            actions.host_events.append(_PLAIN_DELIVERED)
            return actions
        return actions.drop(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_TRANSPORT,
                            f"{view.kind}-closed")


class AttackerNode(Node):
    """Passive eavesdropper turned active: captures knocks, forges frames."""

    promiscuous = True

    def __init__(self, name, mac, ip):
        super().__init__(name, mac, ip)
        self.last_knock: Optional[Wire] = None  # the one a replay resends

    def observe(self, wire: Wire, now: int) -> None:
        try:
            frame = wire.frame
        except FrameError:
            return
        p = frame.payload
        if (isinstance(p, Ipv4Packet) and isinstance(p.payload, IcmpMessage)
                and is_knock_payload(p.payload.payload)):
            self.last_knock = wire

    def receive(self, wire: Wire, now: int) -> Actions:
        return Actions()  # attackers never answer traffic aimed at them

    def perform(self, step: Union[Ping, Attack], now: int) -> List[Wire]:
        if isinstance(step, Attack):
            return self.frames_for(step.program, self.lookup)
        target = self.lookup(step.dst)
        return [Wire.from_frame(frames.make_icmp_echo(
            self.mac, target.mac, self.ip, target.ip, b"probe"))]

    def frames_for(self, program: AttackProgram, lookup) -> List[Wire]:
        """Wire frames for one firing of a program; `lookup(name) -> Node`."""
        if isinstance(program, ArpPoison):
            victim = lookup(program.victim)
            forged = frames.make_arp(ARP_REPLY, program.claimed_mac,
                                     program.claimed_ip, victim.mac, victim.ip)
            return [Wire.from_frame(forged)]
        if isinstance(program, MacSpoof):
            victim = lookup(program.victim)
            # any frame with the victim's source MAC hijacks switch learning
            spoofed = EthernetFrame(MAC_BROADCAST, victim.mac, 0x88B5, b"spoof")
            return [Wire.from_frame(spoofed)]
        if isinstance(program, KnockReplay):
            if self.last_knock is None:
                raise NothingCaptured(f"{self.name} has observed no knock to replay")
            return [self.last_knock]
        if isinstance(program, PortScan):
            target = lookup(program.victim)
            out = []
            for i, port in enumerate(range(program.port_lo, program.port_hi + 1)):
                seg = frames.tcp_segment(50000 + (i % 10000), port, TCP_FLAG_SYN)
                out.append(Wire.from_frame(frames.make_ipv4_frame(
                    self.mac, target.mac, self.ip, target.ip, PROTO_TCP, seg,
                    identification=i & 0xFFFF)))
            return out
        raise SimError(f"unknown attack program {program!r}")


# --------------------------------------------------------------------------
# the segment

# A dispatch plan: the taps, then each node in attach order as a receiver
# (a `Node`), a lone node the frame passes by (its name) or a run of them
# (a tuple of names).
Plan = Tuple[Tuple[Node, ...], Tuple[Union[Node, str, Tuple[str, ...]], ...]]


class Segment:
    def __init__(self):
        self.nodes: List[Node] = []
        self._by_name: Dict[str, Node] = {}
        self._by_mac: Dict[bytes, List[int]] = {}  # MAC octets -> attach indices
        self._plans: Dict[Tuple[str, bytes], Plan] = {}  # (origin, dst MAC) -> plan
        self.clock = 0
        self._queue: List[tuple] = []  # (time, seq, kind, payload)
        self._seq = 0
        self._log: List[LogEntry] = []
        self._spans: List[int] = []  # the log index of each IgnoredSpan

    @property
    def trace(self) -> TraceView:
        """The run's records, one per trace line, in order."""
        return TraceView(self._log, self._spans)

    @property
    def metrics(self) -> Metrics:
        """The attached nodes' counters, folded from the log."""
        return Metrics(self._log, (node.name for node in self.nodes))

    def attach(self, node: Node) -> Node:
        if node.name in self._by_name:
            raise DuplicateHandle(f"node {node.name!r} already attached")
        self._by_mac.setdefault(node.mac.octets, []).append(len(self.nodes))
        self.nodes.append(node)
        self._by_name[node.name] = node
        self._plans.clear()
        node.lookup = self.node
        return node

    def node(self, name: str) -> Node:
        return self._by_name[name]

    def _plan(self, origin: str, dst: Optional[bytes]) -> Plan:
        """Who a frame from `origin` to `dst` reaches; `dst` None (a frame too
        short to hold one) reaches every node. Only a plan for broadcast or an
        attached MAC, from an attached origin, is cached, so frames to unknown
        MACs cannot grow the cache. `attach` empties the cache."""
        if dst is None or dst == MAC_BROADCAST.octets:
            receivers = range(len(self.nodes))
        else:
            receivers = self._by_mac.get(dst, ())
        steps: List[Union[Node, str, Tuple[str, ...]]] = []
        passed: List[str] = []
        for i, node in enumerate(self.nodes):
            if node.name == origin:
                continue
            if i not in receivers:
                passed.append(node.name)
                continue
            if passed:
                steps.append(passed[0] if len(passed) == 1 else tuple(passed))
                passed = []
            steps.append(node)
        if passed:
            steps.append(passed[0] if len(passed) == 1 else tuple(passed))
        taps = tuple(node for node in self.nodes if node.promiscuous and node.name != origin)
        plan = (taps, tuple(steps))
        if dst is not None and origin in self._by_name \
                and (dst == MAC_BROADCAST.octets or dst in self._by_mac):
            self._plans[origin, dst] = plan
        return plan

    def _push(self, time: int, kind: str, *payload) -> None:
        heappush(self._queue, (time, self._seq, kind, payload))
        self._seq += 1

    def inject(self, time: int, wire: Union[Wire, bytes], origin: str,
               described: Optional[str] = None) -> None:
        """Queue a frame; `described` is its description, if already made."""
        self._push(time, "frame", Wire.wrap(wire), origin, described)

    def schedule(self, time: int, node: str, step: Step) -> None:
        """Queue a step; an attack queues its first firing, and each firing the next."""
        program = getattr(step, "program", None)
        if getattr(program, "period", 1) < 1:
            raise ValueError(f"attack period must be >= 1, got {program.period}")
        if getattr(program, "count", 1) > 0:
            self._push(time, "action", node, step)

    # -- the event loop ------------------------------------------------------

    def _transmit(self, origin: Node, wires: Iterable[Wire], now: int) -> None:
        for wire in wires:
            described = describe_frame(wire)
            self._log.append(_record((now, origin.name, _TX, described, wire.hex)))
            self.inject(now + 1, wire, origin.name, described)

    def step(self) -> TraceView:
        """Process the next event; the view holds the records it appended."""
        log = self._log
        mark = len(log)
        if not self._queue:
            return TraceView(log, self._spans, mark, mark)
        time, seq, kind, payload = heappop(self._queue)
        self.clock = time
        if kind == "frame":
            wire, origin, described = payload
            described = described or describe_frame(wire)
            data = wire.data
            dst = data[:6] if len(data) >= 6 else None
            taps, steps = self._plans.get((origin, dst)) or self._plan(origin, dst)
            # a tap only reads the frame, so observing first keeps the hub's effects
            for tap in taps:
                tap.observe(wire, time)
            append = log.append
            for item in steps:
                shape = type(item)
                if shape is str:
                    append(_ignored_record((time, item, _IGNORED, described, None)))
                elif shape is tuple:
                    self._spans.append(len(log))
                    append(_tuple_new(IgnoredSpan, (time, item, described)))
                else:
                    # the node's verdicts as it gave them, then its answers
                    actions = item.receive(wire, time)
                    events = actions.drops
                    if actions.host_events:
                        events = events + actions.host_events
                    name, raw_hex = item.name, wire.hex
                    for event in events or _PROCESSED_ONLY:
                        append(_record((time, name, event, described, raw_hex)))
                    if actions.tx_frames:
                        self._transmit(item, map(Wire.from_frame, actions.tx_frames), time)
        else:
            name, step = payload
            if isinstance(step, Attack):
                # the program's remaining firings keep its seq, so they order
                # among equal times as if every firing had been queued up front
                rest = getattr(step.program, "count", 1) - 1
                if rest > 0:
                    heappush(self._queue, (time + step.program.period, seq, kind,
                                           (name, Attack(replace(step.program, count=rest)))))
            node = self._by_name[name]
            self._transmit(node, node.perform(step, time), time)
        return TraceView(log, self._spans, mark, len(log))

    def run(self, horizon: Optional[int] = None) -> None:
        queue = self._queue
        while queue:
            if horizon is not None and queue[0][0] > horizon:
                break
            self.step()
