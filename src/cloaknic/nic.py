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

Each event is one immutable value that owns its stage count (a `DropRecord`,
`Delivered` or `ArpCacheUpdate`), and `netsim` records it as it is returned.
A verdict is reached with the least work the model allows, as a hardware
filter reads a few fields at fixed offsets: every frame is judged from its
checked header (`Wire.header`), an IPv4 frame with the knock magic, ports
and payload at fixed offsets of its bytes, and an admitted knock takes the
sender's MAC from those bytes, so the NIC never builds the typed parse.
A host's frame, an IPv4 `Wire` from the NIC's MAC, is read the same way,
and every frame the NIC sends or parks is a `Wire`: one it resolves keeps
its header, which holds no MAC, behind the resolved MAC, and a knock or an
ARP frame it makes is packed with its header (`frames.icmp_echo_wire`,
`frames.arp_wire`), so the NIC never serializes typed values nor reads back
the checksums it has just computed. Headers are dispatched on `type(x) is`.
A verdict is an immutable `Actions` of tuples, built once at return; one
that sends and reports nothing is one shared value (`verdict` gives a drop's),
so judging such a frame allocates nothing. `open_knock` and
`on_wire_receive` stay separate calls, as the benchmark's tracer wraps both.

One instance is a single-threaded state machine; all cross-NIC traffic
goes through the simulator.
"""

from __future__ import annotations

import struct
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from . import frames
from .frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_ZERO,
    ArpPacket,
    Ipv4Address,
    Ipv4Header,
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
    # every `verdict` lookup.
    __hash__ = object.__hash__


class DropRecord(NamedTuple):
    reason: DropReason
    stage_count: int
    detail: Optional[str] = None


class ArpCacheUpdate(NamedTuple):
    """Emitted only from a validated knock, never from wire ARP traffic."""

    ip: Ipv4Address
    mac: MacAddress
    stage_count = 2  # the knock stage; a class constant, not a field


class Delivered(NamedTuple):
    """The frame passed the filter to the host; `Segment` records which frame."""

    stage_count: int = 2


HostEvent = Union[ArpCacheUpdate, Delivered]


class Actions(NamedTuple):
    """Per-call outcome: every input frame lands in exactly one bucket.
    A frame to send is a `Wire`, its bytes and header."""

    tx_frames: Tuple[Wire, ...] = ()
    host_events: Tuple[HostEvent, ...] = ()
    drops: Tuple[DropRecord, ...] = ()


_new = tuple.__new__  # builds a named tuple with no Python frame
_actions = partial(_new, Actions)  # (tx_frames, host_events, drops) -> Actions


@lru_cache(maxsize=None)
def verdict(reason: DropReason, stage: int, detail: Optional[str] = None) -> Actions:
    """The one shared value of a drop, and so its one `DropRecord`. It is
    immutable, and its reason, stage and detail come from the code's few
    literals, so the cache stays small."""
    return _actions(((), (), (DropRecord(reason, stage, detail),)))


# the verdicts most frames get, each looked up once
_NO_MATCH = verdict(DropReason.NO_FILTER_MATCH, 1)
_ARP_OTHER_IP = verdict(DropReason.NO_FILTER_MATCH, 1, "arp-other-ip")
_ARP_OTHER_OP = verdict(DropReason.NO_FILTER_MATCH, 1, "arp-other-op")
_UNSOLICITED = verdict(DropReason.UNSOLICITED_ARP_REPLY, 1)
_CONSUMED = verdict(DropReason.UNSOLICITED_ARP_REPLY, 1, "consumed by resolver").drops
_BAD_KNOCK = {reason._value_: verdict(DropReason.BAD_KNOCK, 2, reason._value_)
              for reason in RejectReason}
_DELIVERED = _actions(((), (Delivered(),), ()))  # an admitted pair's every frame


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
        self._pending_arp: OrderedDict[Ipv4Address, Deque[Tuple[int, Wire]]] = OrderedDict()
        self.resolver = ResolverTable()  # client side
        self._nonce_counter = 0

    # -- internals ---------------------------------------------------------

    def _next_nonce(self) -> bytes:
        nonce = struct.pack(">Q", (self.config.nonce_seed + self._nonce_counter) & (2**64 - 1))
        self._nonce_counter += 1
        return nonce

    def _park(self, now: int, ip: Ipv4Address, frame: Wire) -> None:
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

    def _unpark(self, now: int, ip: Ipv4Address) -> List[Wire]:
        """Take the frames parked for `ip`, releasing those still live."""
        parked = self._pending_arp.pop(ip, ())
        return [frame for expires, frame in parked if now <= expires]

    def _knock_frame(self, peer_ip: Ipv4Address, dst_mac: MacAddress,
                     local_port: int, now: int) -> Wire:
        key = self.config.role_keys.get(peer_ip)
        if key is None:
            raise UnknownPeerKey(f"no shared key configured for {peer_ip}")
        fields = KnockFields(self.ip, local_port, now)
        payload = seal_knock(key, self._next_nonce(), fields)
        return frames.icmp_echo_wire(self.mac, dst_mac, self.ip, peer_ip, payload)

    def _emit_with_knock(self, tx: List[Wire], wire: Wire, now: int) -> None:
        """Append `wire` to `tx`, after a knock if its peer is protected and unknocked."""
        header = wire.header
        view, dst = header.view, header.dst
        if view is not None and dst in self.config.protected_peers:
            state_key = (view.src_port, dst)
            if now > self._knocked.get(state_key, -1):
                tx.append(self._knock_frame(dst, MacAddress(wire.data[:6]), view.src_port, now))
                self._knocked.drop_expired(now)
                self._knocked.put(state_key, now + FILTER_TTL_SECONDS)
        tx.append(wire)

    # -- host-facing operations --------------------------------------------

    def on_host_transmit(self, wire: Wire, now: int) -> Actions:
        """Send one host frame, an IPv4 frame from the NIC's MAC; a
        destination MAC left zero is resolved here."""
        data, header = wire.data, wire.header
        if data[6:12] != self.mac.octets or type(header) is not Ipv4Header:
            raise NicError("host frames must be IPv4 from the NIC MAC")
        if data[:6] == MAC_ZERO.octets:
            mac = self.resolver.lookup(header.dst, now)
            if mac is None:
                # MAC unresolved: park the frame and resolve
                self._park(now, header.dst, wire)
                return _actions(((frames.arp_wire(
                    ARP_REQUEST, self.mac, self.ip, MAC_ZERO, header.dst),), (), ()))
            # an `Ipv4Header` holds no MAC, so the header is the resolved frame's
            wire = Wire(mac.octets + data[6:], header)
        tx: List[Wire] = []
        self._emit_with_knock(tx, wire, now)
        return _actions((tuple(tx), (), ()))

    # -- wire-facing operations --------------------------------------------

    def on_wire_receive(self, wire: Union[Wire, bytes], now: int) -> Actions:
        """Verdict on one received frame, read by its header; plain bytes
        are wrapped here."""
        if not isinstance(wire, Wire):
            wire = Wire(wire)
        try:
            header = wire.header
        except frames.FrameError as exc:
            return verdict(DropReason.MALFORMED, 1, type(exc).__name__)
        kind = type(header)
        if kind is Ipv4Header:
            return self._receive_ipv4(wire, header, now)
        if kind is ArpPacket:
            return self._receive_arp(header, now)
        return verdict(DropReason.NO_FILTER_MATCH, 1, "non-ip ethertype")

    def _receive_arp(self, arp: ArpPacket, now: int) -> Actions:
        if arp.operation == ARP_REQUEST:
            if arp.target_ip != self.ip:
                return _ARP_OTHER_IP
            # stateless: a request for our IP is answered from the NIC's own addresses
            return _actions(((frames.arp_wire(
                ARP_REPLY, self.mac, self.ip, arp.sender_mac, arp.sender_ip),), (), ()))
        if arp.operation != ARP_REPLY:
            return _ARP_OTHER_OP
        # Replies never reach the host ARP cache. A reply answering our own
        # outstanding request does complete parked transmissions (the NIC is
        # the resolver on the client side), and only such a reply writes the
        # resolver table, but it is still not delivered.
        parked = self._unpark(now, arp.sender_ip)
        if not parked:
            return _UNSOLICITED
        self.resolver.learn(arp.sender_ip, arp.sender_mac, now)
        mac = arp.sender_mac.octets
        tx: List[Wire] = []
        for wire in parked:
            self._emit_with_knock(tx, Wire(mac + wire.data[6:], wire.header), now)
        return _actions((tuple(tx), (), _CONSUMED))

    def _receive_ipv4(self, wire: Wire, header: Ipv4Header, now: int) -> Actions:
        src, _, _, _, _, _, icmp, view = header
        if icmp is not None and is_knock_payload(icmp):
            return self._receive_knock(wire, src, icmp, now)
        # plain ICMP and unknown IP protocols have no view: the default drop
        if view is not None and self.filter.lookup(src, view.src_port, now):
            return _DELIVERED
        return _NO_MATCH

    def _receive_knock(self, wire: Wire, src: Ipv4Address, knock: bytes, now: int) -> Actions:
        key = self.config.role_keys.get(src)
        if key is None:
            # unauthenticatable sender: indistinguishable from a forged tag
            return _BAD_KNOCK[RejectReason.BAD_TAG._value_]
        result = open_knock(key, knock, now, self.replay_cache)
        if type(result) is RejectReason:
            return _BAD_KNOCK[result._value_]
        if result.client_ip != src:
            # a key holder may only open the filter for the address it sends from
            return verdict(DropReason.BAD_KNOCK, 2, "IpMismatch")
        if not self.filter.insert(result.client_ip, result.client_port, now):
            return verdict(DropReason.BAD_KNOCK, 2, "TableFull")
        mac = _new(MacAddress, (wire.data[6:12],))
        return _actions(((), (_new(ArpCacheUpdate, (result.client_ip, mac)),), ()))
