"""Deterministic discrete-event Ethernet broadcast segment.

The medium is a hub: every frame is offered to every attached node except
its origin, in attach order, one time unit of latency per hop, no loss and
no jitter. Identical scenarios therefore produce byte-identical traces.
The segment keeps these semantics through an index: it offers a frame only
to the nodes its destination MAC addresses, from a plan cached per origin
and destination (one for every MAC no node has), and the promiscuous taps
observe every frame. Each run of nodes a frame passes by, in attach order,
is one `FrameEvent.IGNORED` entry with no bytes whose `node` is the plan's
tuple of their names, one name or many, read back as one
`ignored (other dst)` line per name.

Events run in time order, and the events of one tick in the order they
were queued, as in a discrete-event scheduler such as ns-3. The queue keeps
one flat list per pending tick, each event in `QUEUE_SLOTS` consecutive
slots appended in queueing order, and a heap of those ticks: a frame is
`wire, origin, description or None`, its wire a `Wire` or the bytes it was
injected as, wrapped when it is delivered; a step is `None, node, step`. A
repeated program's next firing is queued when its previous firing runs, so
it runs after every event already queued for its tick. A tick's list is
taken whole when its first event runs, and an event queued for that tick
while it runs starts a new list, taken once the first is done. An event
before the clock is refused with a `ValueError`.

Node kinds: cloaked servers and clients (backed by `CloakingNic`), a plain
software-stack baseline host (answers ARP and pings, RSTs closed ports,
and accepts unsolicited ARP replies into its cache -- the poisonable
reference point), and attackers running the layer-2 attack programs. A
step is the value a node performs: a `Send`, a `Ping`, or an attack program
itself, which carries its own `count` and `period` if it repeats.

Stage counts model code-execution-path length: the cloaking NIC rejects at
stage 1, its filter; the plain host carries every probe through link (1),
IP (2) and transport/ICMP (3) before its verdict.

The trace is the run's one account. The log is one flat list that holds
each entry's five fields, `(time, node, event, frame, raw)`, in consecutive
slots, and no record objects: the event is typed, the frame is its
description and raw its wire bytes, never the parsed frame, and a line
renders the bytes as hex only when it is written. The event is one of a
verdict's events as a node returned it (a `DropRecord`, `Delivered` or
`ArpCacheUpdate`), or a `FrameEvent` where no node gives one; every event
carries its own stage. `Segment.trace` is the one way to read a run: a
read-only view of the whole log that builds one `TraceRecord` per line as
it is read. `Segment.step()` returns nothing, and `Segment.metrics` folds
the log's node and event slots with one count of their distinct pairs.

Describing, dispatching and recording run once per frame, so they keep to
these rules:

- an entry is appended with one `list.extend` of its five fields, records
  are built on read with `tuple.__new__`, not through their Python-level
  constructor, and payloads and events are dispatched on `type(x) is`;
- a frame is described, judged by every receiver and searched for a knock
  by a tap from its checked header (`Wire.header`) and fixed offsets of its
  bytes, so no node parses a frame into typed values;
- a node's verdict is an immutable `Actions`, one shared value when it
  sends and reports nothing, else built at return with `tuple.__new__`;
- every frame a node sends is a `Wire` packed as bytes and header in one
  step by a `frames` builder: a TCP one (a client's SYN, a scan's probe,
  the plain host's answer) by `tcp_wire`, and a client's UDP send, a knock,
  a ping or its answer, an ARP frame and a spoofed frame by `udp_wire`,
  `icmp_echo_wire`, `arp_wire` and `opaque_wire`. None is serialized from
  typed values, and none has its header read back from its bytes;
- queueing an event is an append to its tick's list, so its cost does not
  grow with the events in flight, and a queued event is its slots, with no
  tuple of its own;
- the benchmark's tracer wraps `describe_frame`, `Segment.step`,
  `Segment.run` (which calls `self.step()`), the nodes' `receive`,
  `observe`, `perform` and `frames_for`, `TraceRecord.format_line` and
  `Metrics.to_text`, so each is reached through its module global or
  class attribute and none is inlined into its caller;
- nothing is cached by frame bytes, and every cache is bounded: an
  address's dotted quad (`frames.Ipv4Address`), an event's line head
  (`_line_head`) and the one object per description text (`describe_frame`).
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache, partial
from heapq import heappop, heappush
from itertools import groupby, islice
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple, Union)

from . import frames
from .frames import (
    ARP_REPLY,
    ARP_REQUEST,
    ICMP_ECHO_REQUEST,
    MAC_BROADCAST,
    MAC_ZERO,
    TCP_FLAG_ACK,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
    ArpPacket,
    FrameError,
    Ipv4Address,
    Ipv4Header,
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
    verdict,
)

# Distinct line heads `TraceRecord.format_line` keeps: those of the shared
# verdicts are a few dozen; cache writes, one per knock, cycle through the rest.
LINE_HEAD_CACHE = 256
# Distinct description texts `describe_frame` keeps, least recently used out.
DESCRIPTION_CACHE = 1024

PLAIN_STAGE_LINK = 1
PLAIN_STAGE_IP = 2
PLAIN_STAGE_TRANSPORT = 3
_PLAIN_DELIVERED = (Delivered(PLAIN_STAGE_TRANSPORT),)  # an answer's events, shared by the trace
_NO_ACTIONS = Actions()  # an attacker's every verdict
_actions = partial(tuple.__new__, Actions)  # (tx_frames, host_events, drops) -> Actions
_mac = partial(tuple.__new__, MacAddress)  # (octets,) -> MacAddress, of 6 bytes read from a frame
_ECHO_IDS = struct.Struct(">HH")  # an ICMP echo's identifier and sequence, 4 bytes into it


class SimError(Exception):
    pass


class DuplicateHandle(SimError):
    """Two nodes with the same name (duplicate MAC/IP is deliberately legal)."""


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
    """One node's account of one frame: one trace line, as `Segment.trace`
    reads it. The log keeps no records, only their fields, so each is built
    when its line is read. `frame` is the frame's description and `raw` its
    wire bytes; each is one object, shared by every line of that frame, and
    a description also by the frames with its text."""

    time: int
    node: str
    event: Event
    frame: str
    raw: Optional[bytes] = None

    @property
    def stage_count(self) -> int:
        return self.event.stage_count

    @property
    def raw_hex(self) -> Optional[str]:
        raw = self.raw
        return None if raw is None else raw.hex()

    def _text(self) -> Tuple[str, str]:
        """The record's direction (rx, tx, drop or host_event) and summary: a
        cache write's summary shows no frame."""
        event = self.event
        kind = type(event)
        if kind is FrameEvent:
            return event.direction, event.prefix + self.frame
        if kind is DropRecord:
            detail = f" {event.detail}" if event.detail else ""
            return "drop", f"{event.reason._value_}{detail} | {self.frame}"
        if kind is Delivered:
            return "host_event", "delivered | " + self.frame
        return "host_event", f"arp-cache-update {event.ip} is-at {event.mac}"

    @property
    def direction(self) -> str:
        return self._text()[0]

    @property
    def summary(self) -> str:
        return self._text()[1]

    def format_line(self, with_hex: bool = False) -> str:
        """The record's trace line; `with_hex` appends its wire bytes, if any,
        as hex. A cache write's line shows neither frame nor hex."""
        time, node, event, frame, raw = self
        if raw is None and event is _IGNORED:  # a passer-by's line, the most common
            return f"t={time} node={node} {_IGNORED_HEAD}{frame}"
        if type(event) is ArpCacheUpdate:
            return f"t={time} node={node} {_line_head(event)}"
        if with_hex and raw:
            return f"t={time} node={node} {_line_head(event)}{frame} hex={raw.hex()}"
        return f"t={time} node={node} {_line_head(event)}{frame}"


@lru_cache(maxsize=LINE_HEAD_CACHE)
def _line_head(event: Event) -> str:
    """A line's text from its direction up to the frame's description. Every
    summary but a cache write's ends with the frame's text, so an event's
    head is its summary with no frame. The events a node shares (drop
    records, `Delivered`, `FrameEvent`) come from the code's few literals,
    and a cache write's head holds only two addresses, so the cache is small."""
    direction, summary = TraceRecord(0, "", event, "")._text()
    return f"dir={direction} stage={event.stage_count} info={summary}"


_IGNORED_HEAD = _line_head(FrameEvent.IGNORED)

# (time, node, event, frame, raw) -> TraceRecord, with no Python frame
_record = partial(tuple.__new__, TraceRecord)
FIELDS = len(TraceRecord._fields)  # the log's slots per entry
_IGNORED = FrameEvent.IGNORED
_PROCESSED_ONLY = (FrameEvent.PROCESSED,)  # the events of a receiver that gave no verdict
_TX = FrameEvent.TX
QUEUE_SLOTS = 3  # a queued event's slots: (wire or None, origin, description or step)


class TraceView:
    """Read-only lines of a segment's whole log, one `TraceRecord` per line,
    each built as it is read from its entry's `FIELDS` slots: a passers-by
    entry, whose `node` is a tuple of names, reads as one record per name."""

    __slots__ = ("_log",)

    def __init__(self, log: list):
        self._log = log

    def __iter__(self) -> Iterator[TraceRecord]:
        it = iter(self._log)
        for entry in zip(it, it, it, it, it):
            if type(entry[1]) is tuple:
                time, names, event, frame, raw = entry
                for name in names:
                    yield _record((time, name, event, frame, raw))
            else:
                yield _record(entry)

    def __len__(self) -> int:
        return sum(len(node) if type(node) is tuple else 1
                   for node in islice(self._log, 1, None, FIELDS))


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

    def __init__(self, log: list, names: Iterable[str]):
        self.nodes: Dict[str, NodeMetrics] = {name: NodeMetrics() for name in names}
        tx = FrameEvent.TX
        # Each distinct (node, event) pair of the log's node and event slots
        # is folded once, times its count. A passers-by entry gives (names,
        # IGNORED): each of its names is ignored.
        pairs = zip(islice(log, 1, None, FIELDS), islice(log, 2, None, FIELDS))
        for (node, event), n in Counter(pairs).items():
            if type(node) is tuple:
                for name in node:
                    self.nodes[name].ignored += n
                continue
            m = self.nodes[node]
            if event is tx:
                m.tx += n
            else:
                m.cep_histogram[event.stage_count] += n
                kind = type(event)
                if kind is Delivered:
                    m.delivered += n
                elif kind is ArpCacheUpdate:
                    m.arp_cache_writes += n
                elif kind is DropRecord:
                    m.dropped_by_reason[event.reason._value_] += n

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


# The one object `describe_frame` returns for each text. On a miss the cache
# calls `str`, which returns a `str` itself, so it keeps a text's first
# object and returns it for every equal text after. Frames repeat a text
# soon or not at all (a scan's, one per port, never do), so the least
# recently used text goes first. Only which object a record holds depends on
# the cache, never a line.
_shared_text = lru_cache(maxsize=DESCRIPTION_CACHE)(str)


def describe_frame(wire: Union[Wire, bytes]) -> str:
    """One-line human summary of a frame for trace records; equal summaries
    are one object while the text stays in a bounded cache.

    A frame is described from its checked header (`Wire.header`) and fixed
    offsets of its bytes (the ICMP type, the ethertype), never from its
    typed parse, so a frame that arrives as bytes is not parsed for it.
    """
    if not isinstance(wire, Wire):
        wire = Wire(wire)
    data = wire.data
    try:
        header = wire.header
    except FrameError as exc:
        return _shared_text(f"malformed ({type(exc).__name__}, {len(data)} bytes)")
    kind = type(header)
    if kind is Ipv4Header:
        src, dst, protocol, _, _, _, icmp, view = header
        if icmp is not None:
            if is_knock_payload(icmp):
                text = f"icmp-knock {src}->{dst}"
            else:
                text = f"icmp type={data[frames.IPV4_BODY_AT]} {src}->{dst}"
        elif view is not None:
            flag = " syn" if view.is_syn else ""
            text = f"{view.kind} {src}:{view.src_port}->{dst}:{view.dst_port}{flag}"
        else:
            text = f"ipv4 proto={protocol} {src}->{dst}"
    elif kind is not ArpPacket:
        text = f"ethertype=0x{data[12:14].hex()} ({len(data)} bytes)"
    elif header.operation == ARP_REQUEST:
        text = f"arp-request who-has {header.target_ip} tell {header.sender_ip}"
    elif header.operation == ARP_REPLY:
        text = f"arp-reply {header.sender_ip} is-at {header.sender_mac}"
    else:
        text = f"arp op={header.operation} {header.sender_ip}->{header.target_ip}"
    return _shared_text(text)


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


Step = Union[Send, Ping, ArpPoison, MacSpoof, KnockReplay, PortScan]


# --------------------------------------------------------------------------
# nodes

class Node:
    """Base: owns a name/mac/ip; subclasses give one immutable `Actions` per frame."""

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

    def perform(self, step: Step, now: int) -> Sequence[Wire]:
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

    def perform(self, step: Union[Send, Ping], now: int) -> Tuple[Wire, ...]:
        dst = self.lookup(step.dst)
        if isinstance(step, Ping):
            wire = frames.icmp_echo_wire(self.mac, dst.mac, self.ip, dst.ip, b"ping")
        else:
            self._ident = ident = (self._ident + 1) & 0xFFFF
            # dst MAC left zero: the NIC resolves it from its table, or parks the frame and asks ARP
            if step.proto == "tcp":
                wire = frames.tcp_wire(self.mac, MAC_ZERO, self.ip, dst.ip, step.src_port,
                                       step.dst_port, TCP_FLAG_SYN, ident)
            else:
                wire = frames.udp_wire(self.mac, MAC_ZERO, self.ip, dst.ip, step.src_port,
                                       step.dst_port, ident)
        return self.nic.on_host_transmit(wire, now).tx_frames


class PlainHostNode(Node):
    """Baseline software stack: the host the paper's NIC replaces.

    Answers ARP for its IP, replies to echo, RSTs closed ports, SYN-ACKs
    open ones, and accepts any ARP reply into its cache. It reads a frame as
    the NIC does, from its header and fixed offsets of its bytes, so the two
    differ in what they do with a frame, not in how they read it.
    """

    def __init__(self, name, mac, ip, services=frozenset()):
        super().__init__(name, mac, ip)
        self.services = set(services)
        self.arp_cache: Dict[Ipv4Address, MacAddress] = {}

    def receive(self, wire: Wire, now: int) -> Actions:
        try:
            p = wire.header
        except FrameError as exc:
            return verdict(DropReason.MALFORMED, PLAIN_STAGE_LINK, type(exc).__name__)
        kind = type(p)
        if kind is Ipv4Header:
            return self._receive_ipv4(wire.data, p)
        if kind is not ArpPacket:
            return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "unknown-ethertype")
        if p.operation == ARP_REQUEST:
            if p.target_ip != self.ip:
                return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "arp-other-ip")
            return _actions(((frames.arp_wire(
                ARP_REPLY, self.mac, self.ip, p.sender_mac, p.sender_ip),), (), ()))
        if p.operation != ARP_REPLY:
            return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_LINK, "arp-other-op")
        # no request/reply matching: the classic poisonable cache
        self.arp_cache[p.sender_ip] = p.sender_mac
        return _actions(((), (ArpCacheUpdate(p.sender_ip, p.sender_mac),), ()))

    def _receive_ipv4(self, data: bytes, header: Ipv4Header) -> Actions:
        """An IPv4 frame's verdict and answer, from its header and fixed
        offsets of its bytes: the sender's MAC, and an echo's type,
        identifier and sequence."""
        icmp = header.icmp
        if icmp is not None:
            if data[frames.IPV4_BODY_AT] != ICMP_ECHO_REQUEST:
                return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_TRANSPORT, "icmp-other")
            ident, seq = _ECHO_IDS.unpack_from(data, frames.IPV4_BODY_AT + 4)
            return _actions(((frames.icmp_echo_wire(
                self.mac, _mac((data[6:12],)), self.ip, header.src, icmp, ident, seq,
                reply=True),), _PLAIN_DELIVERED, ()))
        view = header.view
        if view is None:
            return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_IP, "unknown-proto")
        if view.kind == "tcp" and view.is_syn:
            flags = TCP_FLAG_SYN | TCP_FLAG_ACK if view.dst_port in self.services \
                else TCP_FLAG_RST | TCP_FLAG_ACK
            return _actions(((frames.tcp_wire(
                self.mac, _mac((data[6:12],)), self.ip, header.src, view.dst_port,
                view.src_port, flags),), _PLAIN_DELIVERED, ()))
        return verdict(DropReason.NO_FILTER_MATCH, PLAIN_STAGE_TRANSPORT, f"{view.kind}-closed")


class AttackerNode(Node):
    """Passive eavesdropper turned active: captures knocks, forges frames."""

    promiscuous = True

    def __init__(self, name, mac, ip):
        super().__init__(name, mac, ip)
        self.last_knock: Optional[Wire] = None  # the one a replay resends

    def observe(self, wire: Wire, now: int) -> None:
        try:
            header = wire.header
        except FrameError:
            return
        if type(header) is Ipv4Header and header.icmp is not None and is_knock_payload(header.icmp):
            self.last_knock = wire

    def receive(self, wire: Wire, now: int) -> Actions:
        return _NO_ACTIONS  # attackers never answer traffic aimed at them

    def perform(self, step: Union[Ping, AttackProgram], now: int) -> List[Wire]:
        if type(step) is not Ping:
            return self.frames_for(step)
        target = self.lookup(step.dst)
        return [frames.icmp_echo_wire(self.mac, target.mac, self.ip, target.ip, b"probe")]

    def frames_for(self, program: AttackProgram) -> List[Wire]:
        """Wire frames for one firing of a program: none for a replay before
        any knock is captured."""
        if isinstance(program, ArpPoison):
            victim = self.lookup(program.victim)
            return [frames.arp_wire(ARP_REPLY, program.claimed_mac, program.claimed_ip,
                                    victim.mac, victim.ip)]
        if isinstance(program, MacSpoof):
            victim = self.lookup(program.victim)
            # the victim's MAC as source; a hub has no switch to fool, so each receiver drops it
            return [frames.opaque_wire(MAC_BROADCAST, victim.mac, 0x88B5, b"spoof")]
        if isinstance(program, KnockReplay):
            # the last knock captured, or nothing: an empty firing logs no line
            return [] if self.last_knock is None else [self.last_knock]
        target = self.lookup(program.victim)  # a `PortScan`
        mac, ip, tcp_wire = self.mac, self.ip, frames.tcp_wire
        return [tcp_wire(mac, target.mac, ip, target.ip, 50000 + (i % 10000), port,
                         TCP_FLAG_SYN, i & 0xFFFF)
                for i, port in enumerate(range(program.port_lo, program.port_hi + 1))]


# --------------------------------------------------------------------------
# the segment

# A dispatch plan: the taps, then the steps in attach order: each receiver (a
# `Node`), and for each run of nodes the frame passes by, one or many, the
# tuple of their names, which is the `node` of one ignored entry.
Plan = Tuple[Tuple[Node, ...], Tuple[Union[Node, Tuple[str, ...]], ...]]
# The plan key of every MAC no attached node has: neither a MAC's bytes nor
# None, the key of a frame too short to hold a MAC, which reaches every node.
_UNATTACHED = "unattached"


class Segment:
    def __init__(self):
        self.nodes: List[Node] = []
        self._by_name: Dict[str, Node] = {}
        self._macs: Set[bytes] = set()  # the attached nodes' MAC octets
        self._plans: Dict[Tuple[str, Union[bytes, str]], Plan] = {}  # (origin, dst MAC) -> plan
        self.clock = 0
        # tick -> its events' slots in queueing order: wire, origin and
        # description or None for a frame; None, node and step for a step
        self._queue: Dict[int, list] = {}
        self._ticks: List[int] = []  # a heap of the keys of `_queue`
        self._now: list = []  # the running tick's slots still to run, reversed
        # each entry's (time, node, event, frame, raw) in `FIELDS` consecutive
        # slots; `trace` builds a `TraceRecord` from them per read
        self._log: list = []

    @property
    def trace(self) -> TraceView:
        """The run's records, one per trace line, in order."""
        return TraceView(self._log)

    @property
    def metrics(self) -> Metrics:
        """The attached nodes' counters, folded from the log."""
        return Metrics(self._log, (node.name for node in self.nodes))

    def attach(self, node: Node) -> Node:
        if node.name in self._by_name:
            raise DuplicateHandle(f"node {node.name!r} already attached")
        self._macs.add(node.mac.octets)
        self.nodes.append(node)
        self._by_name[node.name] = node
        self._plans.clear()
        node.lookup = self.node
        return node

    def node(self, name: str) -> Node:
        return self._by_name[name]

    def _plan(self, origin: str, dst: Optional[bytes]) -> Plan:
        """Who a frame from `origin` to `dst` reaches; `dst` None (a frame too
        short to hold one) reaches every node. A plan from an attached origin
        is cached for broadcast, for each attached MAC, and once for every
        other MAC, since each of those reaches the same nodes; so frames to
        unknown MACs cannot grow the cache. `attach` empties the cache."""
        everyone = dst is None or dst == MAC_BROADCAST.octets
        key = (origin, dst if everyone or dst in self._macs else _UNATTACHED)
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        others = [node for node in self.nodes if node.name != origin]
        steps: List[Union[Node, Tuple[str, ...]]] = []
        for addressed, run in groupby(others, lambda node: everyone or node.mac.octets == dst):
            if addressed:
                steps += run
            else:
                steps.append(tuple(node.name for node in run))
        plan = (tuple(node for node in others if node.promiscuous), tuple(steps))
        if dst is not None and origin in self._by_name:
            self._plans[key] = plan
        return plan

    @property
    def pending(self) -> int:
        """The number of queued events not yet run."""
        return (len(self._now) + sum(map(len, self._queue.values()))) // QUEUE_SLOTS

    def _add(self, time: int, slots: list) -> None:
        """Queue for tick `time` the events whose slots are `slots`, after
        every event queued for it; a ValueError for a time before the clock.
        A tick's first slots become its list."""
        queued = self._queue.get(time)
        if queued is None:
            if time < self.clock:
                raise ValueError(f"time {time} is before the clock, {self.clock}")
            self._queue[time] = slots
            heappush(self._ticks, time)
        else:
            queued += slots

    def inject(self, time: int, wire: Union[Wire, bytes], origin: str) -> None:
        """Queue a frame as given, a `Wire` or its bytes."""
        self._add(time, [wire, origin, None])

    def schedule(self, time: int, node: str, step: Step) -> None:
        """Queue a step; a repeated program queues its first firing, and each
        firing queues the next when it runs."""
        period = getattr(step, "period", 1)
        if period < 1:
            raise ValueError(f"attack period must be >= 1, got {period}")
        if getattr(step, "count", 1) > 0:
            self._add(time, [None, node, step])

    # -- the event loop ------------------------------------------------------

    def _transmit(self, origin: Node, wires: Sequence[Wire], now: int) -> None:
        """Log each frame's `tx` line and queue it for the next tick."""
        if not wires:
            return
        name = origin.name
        extend = self._log.extend
        slots = []
        put = slots.extend
        for wire in wires:
            described = describe_frame(wire)
            extend((now, name, _TX, described, wire.data))
            put((wire, name, described))
        self._add(now + 1, slots)

    def step(self) -> None:
        """Process the next event, if any; `trace` reads what it logged."""
        now = self._now
        if not now:
            ticks = self._ticks
            if not ticks:
                return
            self.clock = tick = heappop(ticks)
            now = self._now = self._queue.pop(tick)
            now.reverse()
        log = self._log
        pop = now.pop
        wire = pop()
        origin = pop()
        arg = pop()
        time = self.clock
        if wire is not None:  # a frame; `arg` is its description, if already made
            if not isinstance(wire, Wire):  # an injected frame's bytes
                wire = Wire(wire)
            described = arg or describe_frame(wire)
            data = wire.data
            dst = data[:6] if len(data) >= 6 else None
            taps, steps = self._plans.get((origin, dst)) or self._plan(origin, dst)
            # a tap only reads the frame, so observing first keeps the hub's effects
            for tap in taps:
                tap.observe(wire, time)
            extend = log.extend
            for item in steps:
                if type(item) is tuple:  # the names the frame passes by; no bytes
                    extend((time, item, _IGNORED, described, None))
                else:
                    # the node's verdicts as it gave them, then its answers
                    actions = item.receive(wire, time)
                    events = actions.drops
                    if actions.host_events:
                        events = events + actions.host_events
                    name = item.name
                    for event in events or _PROCESSED_ONLY:
                        extend((time, name, event, described, data))
                    if actions.tx_frames:
                        self._transmit(item, actions.tx_frames, time)
        else:  # a step: the node `origin` performs `arg`
            step = arg
            rest = getattr(step, "count", 1) - 1
            if rest > 0:
                self._add(time + step.period, [None, origin, replace(step, count=rest)])
            node = self._by_name[origin]
            self._transmit(node, node.perform(step, time), time)

    def run(self, horizon: Optional[int] = None) -> None:
        """Run every event up to `horizon`, or every event."""
        ticks = self._ticks
        while self._now or ticks:
            if horizon is not None and (self.clock if self._now else ticks[0]) > horizon:
                break
            self.step()
