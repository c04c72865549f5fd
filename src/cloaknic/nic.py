"""The cloaking NIC state machine.

Default-drop packet filter keyed on <source IP, source port>, stateless
ARP responder for the NIC's own IP, knock validation with replay cache,
and client-side automatic knock generation. A NIC never emits anything
toward an unauthenticated peer except the ARP reply for its own address;
every other rejection is silent.

The paper fixes the NIC's parameters, so they are constants: an admission
lives FILTER_TTL_SECONDS (60) past its last use, the filter holds at most
FILTER_TABLE_CAP (1024) admissions, and a FIFO holds FIFO_CAPACITY (3036)
bytes. The knock freshness bound and the replay window are `knock`'s.

State is bounded however long a run lasts: a filter insert, a replay-cache
record, a client knock and a resolver write each first drop their table's
expired entries, so those tables hold only live entries. A full filter
refuses a new admission: `FilterTable.insert` returns False, and the knock
is dropped as `BadKnock TableFull`. Parked frames are kept per target IP:
parking drops that IP's expired frames and every IP whose frames have all
expired, so they were all parked in the last 2 * ARP_TIMEOUT_TICKS + 1
ticks, and an ARP reply takes only its sender's frames. The client's
resolver table keeps, for FILTER_TTL_SECONDS, the MAC of an ARP reply that
released parked frames, that is, one that answered this NIC's own request;
no other reply writes it. It holds at most RESOLVER_TABLE_CAP (64) peers,
and a write at capacity evicts the oldest.

Each verdict is one immutable value that owns its stage count (a `DropRecord`,
`Delivered` or `ArpCacheUpdate`), and `netsim` records it as it is returned.
A verdict is reached with the least work the model allows, as a hardware
filter reads a few fields at fixed offsets: every frame is judged from its
checked header (`Wire.header`), an IPv4 frame with the knock magic, ports
and payload at fixed offsets of its bytes, and an admitted knock takes the
sender's MAC from those bytes, so the NIC never builds the typed parse.
Headers are dispatched on `type(x) is`, a drop is one shared record, and
`Actions` is a slotted value. `open_knock` and `on_wire_receive` stay
separate calls, as the benchmark's tracer wraps both.

One instance is a single-threaded state machine; all cross-NIC traffic
goes through the simulator.
"""

from __future__ import annotations

import struct
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from . import frames
from .frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_ZERO,
    ArpPacket,
    EthernetFrame,
    Ipv4Address,
    Ipv4Header,
    Ipv4Packet,
    MacAddress,
    Wire,
)
from .knock import (
    ExpiryMap,
    KnockFields,
    RejectReason,
    ReplayCache,
    SharedKey,
    is_knock_payload,
    open_knock,
    seal_knock,
)

FIFO_CAPACITY = 3036  # two maximum-size (1518 byte) Ethernet packets
FILTER_TABLE_CAP = 1024
FILTER_TTL_SECONDS = 60
RESOLVER_TABLE_CAP = 64
# An ARP reply comes back two ticks after the request, one hop each way; a
# frame parked longer than that awaits an IP that does not answer.
ARP_TIMEOUT_TICKS = 2


class NicError(Exception):
    pass


class UnknownPeerKey(NicError):
    """Transmit to a protected peer with no shared key configured."""


class DropReason(Enum):
    NO_FILTER_MATCH = "NoFilterMatch"
    BAD_KNOCK = "BadKnock"
    UNSOLICITED_ARP_REPLY = "UnsolicitedArpReply"
    MALFORMED = "Malformed"

    # Members are singletons that compare by identity, so identity hashing
    # agrees with equality; `Enum.__hash__` is a Python-level call, made for
    # every drop's `_drop_record` lookup.
    __hash__ = object.__hash__


class DropRecord(NamedTuple):
    reason: DropReason
    stage_count: int
    detail: Optional[str] = None


@lru_cache(maxsize=None)
def _drop_record(reason: DropReason, stage: int, detail: Optional[str]) -> DropRecord:
    """The one shared record of a verdict. A record is immutable, and its reason,
    stage and detail come from the code's few literals, so the cache stays small."""
    return DropRecord(reason, stage, detail)


class ArpCacheUpdate(NamedTuple):
    """Emitted only from a validated knock, never from wire ARP traffic."""

    ip: Ipv4Address
    mac: MacAddress
    stage_count = 2  # the knock stage; a class constant, not a field


class Delivered(NamedTuple):
    """The frame passed the filter to the host; `Segment` records which frame."""

    stage_count: int = 2


_DELIVERED = Delivered()  # the trace keeps every verdict, so one value is shared


HostEvent = Union[ArpCacheUpdate, Delivered]


@dataclass(init=False, slots=True)
class Actions:
    """Per-call outcome: every input frame lands in exactly one bucket.
    A frame to send is its typed values, or a `Wire` built as bytes."""

    tx_frames: List[Union[EthernetFrame, Wire]]
    host_events: List[HostEvent]
    drops: List[DropRecord]

    def __init__(self, tx_frames: Optional[List[Union[EthernetFrame, Wire]]] = None,
                 host_events: Optional[List[HostEvent]] = None,
                 drops: Optional[List[DropRecord]] = None):
        self.tx_frames = [] if tx_frames is None else tx_frames
        self.host_events = [] if host_events is None else host_events
        self.drops = [] if drops is None else drops

    def drop(self, reason: DropReason, stage: int, detail: Optional[str] = None) -> "Actions":
        self.drops.append(_drop_record(reason, stage, detail))
        return self


@dataclass
class NicConfig:
    mac: MacAddress
    ip: Ipv4Address
    role_keys: Dict[Ipv4Address, SharedKey] = field(default_factory=dict)
    protected_peers: Set[Ipv4Address] = field(default_factory=set)
    nonce_seed: int = 0


class FilterTable:
    """Exact-match <src ip, src port> admissions with an idle TTL; default drop.

    An insert first drops the expired entries, so only live admissions
    count against the capacity. At capacity a new admission is refused,
    never evicted: `insert` returns False and writes nothing.
    """

    def __init__(self):
        self.entries = ExpiryMap()

    def lookup(self, src_ip: Ipv4Address, src_port: int, now: int) -> bool:
        """A hit refreshes the entry's TTL."""
        key = (src_ip, src_port)
        if now > self.entries.get(key, -1):
            return False
        self.entries.put(key, now + FILTER_TTL_SECONDS)
        return True

    def insert(self, src_ip: Ipv4Address, src_port: int, now: int) -> bool:
        """Admit, or refresh, the pair; False if the table is full."""
        key = (src_ip, src_port)
        self.entries.drop_expired(now)
        if key not in self.entries and len(self.entries) >= FILTER_TABLE_CAP:
            return False
        self.entries.put(key, now + FILTER_TTL_SECONDS)
        return True

    def __len__(self) -> int:
        return len(self.entries)


class ResolverTable:
    """Client side: peer IP -> (last live tick, MAC) from replies to this NIC's
    own ARP requests. An entry lives FILTER_TTL_SECONDS from its write, and a
    lookup does not refresh it, so writes at non-decreasing ticks keep the
    table in expiry order. A write first drops the expired oldest entries and,
    at capacity, the oldest live one: its next send costs one more ARP exchange.
    """

    def __init__(self):
        self.entries: OrderedDict[Ipv4Address, Tuple[int, MacAddress]] = OrderedDict()

    def lookup(self, ip: Ipv4Address, now: int) -> Optional[MacAddress]:
        expires, mac = self.entries.get(ip, (-1, None))
        return mac if now <= expires else None

    def learn(self, ip: Ipv4Address, mac: MacAddress, now: int) -> None:
        entries = self.entries
        entries.pop(ip, None)
        while entries and (len(entries) >= RESOLVER_TABLE_CAP
                           or now > entries[next(iter(entries))][0]):
            entries.popitem(last=False)
        entries[ip] = (now + FILTER_TTL_SECONDS, mac)

    def __len__(self) -> int:
        return len(self.entries)


class ByteFifo:
    """Bounded byte queue preserving frame boundaries; whole-frame drops only."""

    def __init__(self):
        self._frames: List[bytes] = []
        self.buffered = 0

    def push(self, frame_bytes: bytes) -> bool:
        """True = Accepted, False = Overflow (prior contents untouched)."""
        if self.buffered + len(frame_bytes) > FIFO_CAPACITY:
            return False
        self._frames.append(frame_bytes)
        self.buffered += len(frame_bytes)
        return True

    def pop(self) -> Optional[bytes]:
        if not self._frames:
            return None
        out = self._frames.pop(0)
        self.buffered -= len(out)
        return out

    def __len__(self) -> int:
        return len(self._frames)


class CloakingNic:
    """Per-host NIC state machine; see module docstring for the contract."""

    def __init__(self, config: NicConfig):
        self.config = config
        self.mac = config.mac
        self.ip = config.ip
        self.filter = FilterTable()
        self.replay_cache = ReplayCache()
        # client side: <local port, peer ip> -> last tick its knock is live
        self._knocked = ExpiryMap()
        # client side: target ip -> its (last live tick, frame) awaiting an ARP
        # reply, oldest first. Frames park at non-decreasing ticks for one
        # lifetime, so the IPs are in the order of their newest frame's expiry.
        self._pending_arp: OrderedDict[Ipv4Address, Deque[Tuple[int, EthernetFrame]]] = \
            OrderedDict()
        self.resolver = ResolverTable()  # client side
        self._nonce_counter = 0

    # -- internals ---------------------------------------------------------

    def _next_nonce(self) -> bytes:
        nonce = struct.pack(">Q", (self.config.nonce_seed + self._nonce_counter) & (2**64 - 1))
        self._nonce_counter += 1
        return nonce

    def _park(self, now: int, ip: Ipv4Address, frame: EthernetFrame) -> None:
        """Forget the IPs whose every frame has expired and the expired frames
        of `ip`, then park `frame` until an ARP reply from `ip` releases it."""
        pending = self._pending_arp
        while pending and now > pending[next(iter(pending))][-1][0]:
            pending.popitem(last=False)
        parked = pending.pop(ip, None) or deque()
        while parked and now > parked[0][0]:
            parked.popleft()
        parked.append((now + ARP_TIMEOUT_TICKS, frame))
        pending[ip] = parked

    def _unpark(self, now: int, ip: Ipv4Address) -> List[EthernetFrame]:
        """Take the frames parked for `ip`, releasing those still live."""
        parked = self._pending_arp.pop(ip, ())
        return [frame for expires, frame in parked if now <= expires]

    def _knock_frame(self, peer_ip: Ipv4Address, dst_mac: MacAddress,
                     local_port: int, now: int) -> EthernetFrame:
        key = self.config.role_keys.get(peer_ip)
        if key is None:
            raise UnknownPeerKey(f"no shared key configured for {peer_ip}")
        fields = KnockFields(self.ip, local_port, now)
        payload = seal_knock(key, self._next_nonce(), fields)
        return frames.make_icmp_echo(self.mac, dst_mac, self.ip, peer_ip, payload)

    def _emit_with_knock(self, actions: Actions, frame: EthernetFrame,
                         pkt: Ipv4Packet, now: int) -> None:
        """Prefix the frame with a knock if the peer is protected and unknocked."""
        view = pkt.transport_view()
        if view is not None and pkt.dst in self.config.protected_peers:
            state_key = (view.src_port, pkt.dst)
            if now > self._knocked.get(state_key, -1):
                actions.tx_frames.append(
                    self._knock_frame(pkt.dst, frame.dst, view.src_port, now))
                self._knocked.drop_expired(now)
                self._knocked.put(state_key, now + FILTER_TTL_SECONDS)
        actions.tx_frames.append(frame)

    # -- host-facing operations --------------------------------------------

    def on_host_transmit(self, frame: EthernetFrame, now: int) -> Actions:
        if frame.src != self.mac:
            raise NicError("host frame source MAC must match the NIC MAC")
        actions = Actions()
        pkt = frame.payload
        if type(pkt) is not Ipv4Packet:
            actions.tx_frames.append(frame)
            return actions
        if frame.dst == MAC_ZERO:
            mac = self.resolver.lookup(pkt.dst, now)
            if mac is None:
                # MAC unresolved: park the frame and resolve
                self._park(now, pkt.dst, frame)
                actions.tx_frames.append(frames.make_arp(
                    ARP_REQUEST, self.mac, self.ip, MAC_ZERO, pkt.dst))
                return actions
            frame = EthernetFrame(mac, frame.src, frame.ethertype, pkt)
        self._emit_with_knock(actions, frame, pkt, now)
        return actions

    # -- wire-facing operations --------------------------------------------

    def on_wire_receive(self, wire: Union[Wire, bytes], now: int) -> Actions:
        """Verdict on one received frame, read by its header; plain bytes
        are wrapped here."""
        if not isinstance(wire, Wire):
            wire = Wire(wire)
        actions = Actions()
        try:
            header = wire.header
        except frames.FrameError as exc:
            return actions.drop(DropReason.MALFORMED, 1, type(exc).__name__)
        kind = type(header)
        if kind is Ipv4Header:
            return self._receive_ipv4(actions, wire, header, now)
        if kind is ArpPacket:
            return self._receive_arp(actions, header, now)
        return actions.drop(DropReason.NO_FILTER_MATCH, 1, "non-ip ethertype")

    def _receive_arp(self, actions: Actions, arp: ArpPacket, now: int) -> Actions:
        # stateless: a request for our IP is answered from the NIC's own addresses
        if arp.operation == ARP_REQUEST and arp.target_ip == self.ip:
            actions.tx_frames.append(frames.make_arp(
                ARP_REPLY, self.mac, self.ip, arp.sender_mac, arp.sender_ip))
            return actions
        # Replies never reach the host ARP cache. A reply answering our own
        # outstanding request does complete parked transmissions (the NIC is
        # the resolver on the client side), and only such a reply writes the
        # resolver table, but it is still not delivered.
        parked = self._unpark(now, arp.sender_ip) if arp.operation == ARP_REPLY else []
        if parked:
            self.resolver.learn(arp.sender_ip, arp.sender_mac, now)
            actions.drop(DropReason.UNSOLICITED_ARP_REPLY, 1, "consumed by resolver")
            for frame in parked:
                resolved = EthernetFrame(arp.sender_mac, frame.src, frame.ethertype, frame.payload)
                assert isinstance(resolved.payload, Ipv4Packet)
                self._emit_with_knock(actions, resolved, resolved.payload, now)
            return actions
        if arp.operation == ARP_REQUEST:
            return actions.drop(DropReason.NO_FILTER_MATCH, 1, "arp-other-ip")
        return actions.drop(DropReason.UNSOLICITED_ARP_REPLY, 1)

    def _receive_ipv4(self, actions: Actions, wire: Wire, header: Ipv4Header,
                      now: int) -> Actions:
        src, _, _, _, _, _, icmp, view = header
        if icmp is not None and is_knock_payload(icmp):
            return self._receive_knock(actions, wire, src, icmp, now)
        # plain ICMP and unknown IP protocols have no view: the default drop
        if view is not None and self.filter.lookup(src, view.src_port, now):
            actions.host_events.append(_DELIVERED)
            return actions
        return actions.drop(DropReason.NO_FILTER_MATCH, 1)

    def _receive_knock(self, actions: Actions, wire: Wire, src: Ipv4Address,
                       knock: bytes, now: int) -> Actions:
        key = self.config.role_keys.get(src)
        if key is None:
            # unauthenticatable sender: indistinguishable from a forged tag
            return actions.drop(DropReason.BAD_KNOCK, 2, RejectReason.BAD_TAG._value_)
        result = open_knock(key, knock, now, self.replay_cache)
        if type(result) is RejectReason:
            return actions.drop(DropReason.BAD_KNOCK, 2, result._value_)
        if result.client_ip != src:
            # a key holder may only open the filter for the address it sends from
            return actions.drop(DropReason.BAD_KNOCK, 2, "IpMismatch")
        if not self.filter.insert(result.client_ip, result.client_port, now):
            return actions.drop(DropReason.BAD_KNOCK, 2, "TableFull")
        actions.host_events.append(ArpCacheUpdate(result.client_ip, MacAddress(wire.data[6:12])))
        return actions
