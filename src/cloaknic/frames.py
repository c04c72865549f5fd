"""Byte-exact Ethernet II / ARP / IPv4 / ICMP / TCP-UDP-view codec.

Everything here is a pure function over immutable values: parse, build,
serialize. The one exception, `Wire`, the one value a node transmits and
receives, memoises only a frame's header and its parse, which it builds
from that header, so a bad frame's error is raised from `Wire.header`
alone. Big-endian; no FCS or minimum-size padding (there is no medium).
Unknown ethertypes and IP protocols decode to opaque bytes on purpose --
rejecting them is the packet filter's job, not the parser's.

A frame value is its bytes: values hold only the fields the model keeps,
and checksums are computed when a frame is built and checked by parse,
never stored.
A typed `FrameError` is raised for an ARP or IPv4 body that cannot be read
as one, for a checksum other than the one serialize writes, and for a
header the model does not represent: an IPv4 fragment, TOS, DF or reserved
flag, or ARP for other than Ethernet and IPv4. So for every accepted `b`,
`serialize_frame(parse_frame(b))` is `b` up to Ethernet padding.

Values are named tuples: immutable, and equal and hashable by value. The
address constructors check the octet count; parse and the builders make
every value with `_tuple_new`, from fields whose type and length they
already know, so no value runs its constructor's Python frame.

The codec is on every frame's path, so it keeps to these rules:

- each header layout is a `struct.Struct` compiled once, and serialize
  writes the Ethernet and IPv4 headers with one of them;
- `read_header` is the one reader of every frame: it makes every check of
  the parse and returns the frame's header, for IPv4 read with that one
  layout, and `parse_frame` builds a frame's values from its result. So a
  reader that needs only a frame's header and fixed-offset fields (the
  NIC's filter, the trace's description, an attacker's tap) gets them
  without building the typed parse;
- the benchmark's tracer wraps `parse_frame`, `serialize_frame`,
  `internet_checksum` and `make_ipv4_frame`, so each is called through its
  module global and never inlined;
- every frame a node sends is packed with its header in one step, by
  `tcp_wire`, `udp_wire`, `icmp_echo_wire`, `arp_wire` or `opaque_wire`,
  and builds no typed value but that header. So it is never serialized
  from typed values nor read back: it costs no `make_ipv4_frame`,
  `serialize_frame` or `read_header`, and one `internet_checksum` per
  checksum it carries, the IPv4 header's and an ICMP message's. The typed
  builders and `serialize_frame` are the codec's API, against which the
  packed builders are tested;
- a cache is bounded, since attackers choose the addresses, and holds only
  text: an address's dotted quad. No parse is cached by its bytes.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple, Union

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ARP_REQUEST = 1
ARP_REPLY = 2

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0

TCP_FLAG_SYN = 0x02
TCP_FLAG_ACK = 0x10
TCP_FLAG_RST = 0x04

ETH_HEADER_LEN = 14
DEFAULT_TTL = 64
MAX_PAYLOAD = 1500
MAX_FRAME = ETH_HEADER_LEN + MAX_PAYLOAD  # 1514, FCS excluded
IPV4_HEADER_LEN = 20  # IHL 5: the only IPv4 header the codec reads
ICMP_HEADER_LEN = 8
# Fixed offsets in an IPv4 frame: its body, and an ICMP message's payload
IPV4_BODY_AT = ETH_HEADER_LEN + IPV4_HEADER_LEN
ICMP_DATA_AT = IPV4_BODY_AT + ICMP_HEADER_LEN

# Addresses whose text `Ipv4Address.__str__` keeps: far more than a
# segment's nodes, and a bound however many addresses a sender forges.
IPV4_TEXT_CACHE = 1024

_tuple_new = tuple.__new__  # builds a value without its constructor's checks

_ETH = struct.Struct(">6s6sH")
_ETHERTYPE_IPV4 = ETHERTYPE_IPV4.to_bytes(2, "big")  # as it is on the wire
_ETHERTYPE_ARP = ETHERTYPE_ARP.to_bytes(2, "big")
_ARP = struct.Struct(">HHBBH6s4s6s4s")
_IPV4 = struct.Struct(">BBHHHBBH4s4s")
_ETH_IPV4 = struct.Struct(">6s6sHBBHHHBBH4s4s")  # both headers of an IPv4 frame
_ICMP = struct.Struct(">BBHHH")
_PORTS = struct.Struct(">HH")
_TCP = struct.Struct(">HHIIBBHHH")
_UDP = struct.Struct(">HHHH")
_TCP_PORTS_FLAGS = struct.Struct(">HH9xB")  # ports, then the flags byte at offset 13
# the three headers of a TCP frame with no data, as `tcp_wire` builds it
_ETH_IPV4_TCP = struct.Struct(">6s6sHBBHHHBBH4s4sHHIIBBHHH")


class FrameError(Exception):
    """Base class for codec failures."""


class TooShort(FrameError):
    """Input shorter than the fixed header it claims to carry."""


class BadChecksum(FrameError):
    """IPv4 or ICMP checksum mismatch, or 0xFFFF where serializing writes 0x0000."""


class Oversize(FrameError):
    """Ethernet payload above 1500 bytes."""


class UnsupportedIpHeader(FrameError):
    """IPv4 version other than 4, options (IHL other than 5), TOS, DF or the reserved flag."""


class BadTotalLength(FrameError):
    """IPv4 total length below the 20-byte header or beyond the frame."""


class Fragment(FrameError):
    """IPv4 fragment (MF set or a non-zero offset): its ports may be another packet's data."""


class UnsupportedArp(FrameError):
    """ARP for other than Ethernet (htype 1, hlen 6) and IPv4 (ptype 0x0800, plen 4)."""


class MacAddress(NamedTuple("MacAddress", [("octets", bytes)])):
    __slots__ = ()

    def __new__(cls, octets: bytes) -> "MacAddress":
        if len(octets) != 6:
            raise ValueError("MAC address must be exactly 6 octets")
        return _tuple_new(cls, (octets,))

    @classmethod
    def from_str(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise ValueError(f"bad MAC address {text!r}")
        return cls(bytes(int(p, 16) for p in parts))

    def __str__(self) -> str:
        return self.octets.hex(":")


MAC_BROADCAST = MacAddress(b"\xff" * 6)
MAC_ZERO = MacAddress(b"\x00" * 6)


class Ipv4Address(NamedTuple("Ipv4Address", [("octets", bytes)])):
    __slots__ = ()

    def __new__(cls, octets: bytes) -> "Ipv4Address":
        if len(octets) != 4:
            raise ValueError("IPv4 address must be exactly 4 octets")
        return _tuple_new(cls, (octets,))

    @classmethod
    def from_str(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4 or not all(p.isdigit() and 0 <= int(p) <= 255 for p in parts):
            raise ValueError(f"bad IPv4 address {text!r}")
        return cls(bytes(int(p) for p in parts))

    # every trace description prints two addresses, so their text is kept
    __str__ = lru_cache(maxsize=IPV4_TEXT_CACHE)(
        lambda self: "%d.%d.%d.%d" % tuple(self.octets))


class ArpPacket(NamedTuple):
    """Fixed-size ARP body: htype 1, ptype 0x0800, hlen 6, plen 4 (28 bytes)."""

    operation: int  # ARP_REQUEST or ARP_REPLY
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_mac: MacAddress
    target_ip: Ipv4Address

    BODY_LEN = 28

    def to_bytes(self) -> bytes:
        return _ARP.pack(1, ETHERTYPE_IPV4, 6, 4, self.operation,
                         self.sender_mac.octets, self.sender_ip.octets,
                         self.target_mac.octets, self.target_ip.octets)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpPacket":
        if len(data) < cls.BODY_LEN:
            raise TooShort(f"ARP body is {len(data)} bytes, need 28")
        htype, ptype, hlen, plen, op, sha, spa, tha, tpa = _ARP.unpack_from(data)
        if (htype, ptype, hlen, plen) != (1, ETHERTYPE_IPV4, 6, 4):
            raise UnsupportedArp(f"ARP htype {htype}, ptype 0x{ptype:04x}, hlen {hlen}, "
                                 f"plen {plen}; need 1, 0x0800, 6, 4")
        return _tuple_new(cls, (op, _tuple_new(MacAddress, (sha,)), _tuple_new(Ipv4Address, (spa,)),
                                _tuple_new(MacAddress, (tha,)), _tuple_new(Ipv4Address, (tpa,))))


def internet_checksum(data: bytes) -> int:
    """RFC 1071 Internet checksum over ``data`` (odd length zero-padded).

    Returns the one's-complement of the one's-complement 16-bit word sum,
    so a buffer that already carries a correct checksum sums to 0xFFFF.
    Since 2**16 is 1 modulo 0xFFFF, the buffer read as one integer equals
    its word sum modulo 0xFFFF (RFC 1071 §2). The end-around-carry sum is
    that remainder, except that a non-zero multiple of 0xFFFF sums to
    0xFFFF, and only all-zero data sums to 0.
    """
    total = int.from_bytes(data, "big") << 8 * (len(data) & 1)
    rest = total % 0xFFFF
    return 0xFFFF - rest if rest or not total else 0


def _ipv4_checksum(total: int, identification: int, ttl: int, protocol: int,
                   src: bytes, dst: bytes) -> int:
    """The checksum of the one IPv4 header the codec writes: IHL 5, and TOS,
    flags and offset zero."""
    return internet_checksum(_IPV4.pack(0x45, 0, total, identification, 0, ttl, protocol, 0,
                                        src, dst))


def _icmp_bytes(icmp_type: int, code: int, ident: int, seq: int, payload: bytes) -> bytes:
    """An ICMP message with its checksum."""
    checksum = internet_checksum(_ICMP.pack(icmp_type, code, 0, ident, seq) + payload)
    return _ICMP.pack(icmp_type, code, checksum, ident, seq) + payload


def _check_payload(size: int) -> None:
    """Raise `Oversize` for an Ethernet payload of `size` bytes, if above 1500."""
    if size > MAX_PAYLOAD:
        raise Oversize(f"payload is {size} bytes, max {MAX_PAYLOAD}")


class IcmpMessage(NamedTuple):
    icmp_type: int
    code: int
    identifier: int
    sequence: int
    payload: bytes = b""

    def to_bytes(self) -> bytes:
        return _icmp_bytes(*self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IcmpMessage":
        if len(data) < ICMP_HEADER_LEN:
            raise TooShort(f"ICMP message is {len(data)} bytes, need 8")
        _check_icmp(data)
        icmp_type, code, _, ident, seq = _ICMP.unpack_from(data)
        return _tuple_new(cls, (icmp_type, code, ident, seq, data[ICMP_HEADER_LEN:]))


def _check_icmp(message: bytes) -> None:
    """Raise `BadChecksum` unless an ICMP message of 8 or more bytes carries
    the checksum serialize writes."""
    # 0xFFFF verifies wherever 0x0000 is due, but is written only over all-zero data
    if internet_checksum(message) or message[2:4] == b"\xff\xff" and any(message[:2] + message[4:]):
        raise BadChecksum("ICMP checksum mismatch")


class TransportView(NamedTuple):
    """Port-level view of a TCP or UDP payload; no deeper state is tracked."""

    src_port: int
    dst_port: int
    kind: str  # "tcp" or "udp"
    is_syn: bool


def _ip_body(protocol: int, body: bytes) -> Union[IcmpMessage, bytes]:
    """An IPv4 body as parse reads it: 8 or more bytes under protocol 1 are
    an ICMP message, as `read_header` reads them."""
    return IcmpMessage.from_bytes(body) if protocol == PROTO_ICMP and len(body) >= 8 else body


def _transport_view(protocol: int, data: bytes, start: int, end: int) -> Optional[TransportView]:
    """The view of the TCP or UDP header at `data[start:end]`, if it holds one."""
    if protocol == PROTO_TCP and end - start >= 20:
        src_port, dst_port, flags = _TCP_PORTS_FLAGS.unpack_from(data, start)
        return _tuple_new(TransportView, (src_port, dst_port, "tcp", flags & TCP_FLAG_SYN != 0))
    if protocol == PROTO_UDP and end - start >= 8:
        src_port, dst_port = _PORTS.unpack_from(data, start)
        return _tuple_new(TransportView, (src_port, dst_port, "udp", False))
    return None


class Ipv4Packet(NamedTuple):
    """IPv4 with IHL fixed at 5 and TOS, flags and offset zero; any other header is refused."""

    src: Ipv4Address
    dst: Ipv4Address
    protocol: int
    payload: Union[IcmpMessage, bytes] = b""
    ttl: int = DEFAULT_TTL
    identification: int = 0

    def transport_view(self) -> Optional[TransportView]:
        raw = self.payload
        if type(raw) is IcmpMessage:
            return None
        return _transport_view(self.protocol, raw, 0, len(raw))


class Ipv4Header(NamedTuple):
    """What `read_header` reads of an IPv4 frame, at fixed offsets: the
    values of its `Ipv4Packet` but the body; `end`, the offset in the frame
    just past the body, which is `data[IPV4_BODY_AT:end]` (any bytes after it
    are Ethernet padding); and what a filter reads of the body: the payload
    of the ICMP message it holds, and its `transport_view`."""

    src: Ipv4Address
    dst: Ipv4Address
    protocol: int
    end: int
    ttl: int
    identification: int
    icmp: Optional[bytes]  # the ICMP message's payload; None if the body is not one
    view: Optional[TransportView]


class EthernetFrame(NamedTuple):
    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: Union[ArpPacket, Ipv4Packet, bytes] = b""


Header = Union[Ipv4Header, ArpPacket, bytes]  # what `read_header` reads of a frame


def serialize_frame(frame: EthernetFrame) -> bytes:
    """Canonical big-endian bytes; IPv4/ICMP checksums are recomputed."""
    dst, src, ethertype, payload = frame
    kind = type(payload)
    if kind is not Ipv4Packet:
        body = payload.to_bytes() if kind is ArpPacket else payload
        _check_payload(len(body))
        return _ETH.pack(dst.octets, src.octets, ethertype) + body
    ip_src, ip_dst, protocol, body, ttl, ident = payload
    if type(body) is IcmpMessage:
        body = body.to_bytes()
    total = IPV4_HEADER_LEN + len(body)
    _check_payload(total)  # before its 16-bit total length is packed
    ip_src, ip_dst = ip_src.octets, ip_dst.octets
    checksum = _ipv4_checksum(total, ident, ttl, protocol, ip_src, ip_dst)
    return _ETH_IPV4.pack(dst.octets, src.octets, ethertype, 0x45, 0, total, ident, 0, ttl,
                          protocol, checksum, ip_src, ip_dst) + body


def read_header(data: bytes) -> Header:
    """The header of the frame `data`: an IPv4 frame's `Ipv4Header`, an ARP
    frame's `ArpPacket`, or the payload bytes of another ethertype. Raises
    the `FrameError` that `parse_frame` raises for `data`: the checks are
    these, in this order, and the parse builds its values from the result."""
    size = len(data)
    if size < ETH_HEADER_LEN:
        raise TooShort(f"frame is {size} bytes, need 14")
    if size > MAX_FRAME:
        raise Oversize(f"frame is {size} bytes, max {MAX_FRAME}")
    ethertype = data[12:ETH_HEADER_LEN]
    if ethertype != _ETHERTYPE_IPV4:
        if ethertype == _ETHERTYPE_ARP:
            return ArpPacket.from_bytes(data[ETH_HEADER_LEN:])
        return data[ETH_HEADER_LEN:]
    if size < IPV4_BODY_AT:
        raise TooShort(f"IPv4 packet is {size - ETH_HEADER_LEN} bytes, need 20")
    _, _, _, vihl, tos, total, ident, frag, ttl, proto, checksum, src, dst = \
        _ETH_IPV4.unpack_from(data)
    if vihl != 0x45:
        raise UnsupportedIpHeader(f"IPv4 version {vihl >> 4}, IHL {vihl & 0xF}; need 4, 5")
    # 0xFFFF verifies wherever 0x0000 is due, but is written only over
    # all-zero data, and a header that starts 0x45 is never all zero
    if internet_checksum(data[ETH_HEADER_LEN:IPV4_BODY_AT]) or checksum == 0xFFFF:
        raise BadChecksum("IPv4 header checksum mismatch")
    if not IPV4_HEADER_LEN <= total <= size - ETH_HEADER_LEN:
        raise BadTotalLength(f"IPv4 total length {total} in {size - ETH_HEADER_LEN} bytes")
    if frag & 0x3FFF:
        raise Fragment(f"IPv4 flags/offset 0x{frag:04x}: MF set or offset non-zero")
    if tos or frag:
        raise UnsupportedIpHeader(f"IPv4 TOS 0x{tos:02x}, flags/offset 0x{frag:04x}; "
                                  "DF, the reserved flag and TOS are not kept")
    # bytes past the total length are Ethernet padding, and a body of 8 or
    # more bytes under protocol 1 is an ICMP message, as `_ip_body` reads it
    end = ETH_HEADER_LEN + total
    if proto == PROTO_ICMP and end - IPV4_BODY_AT >= ICMP_HEADER_LEN:
        _check_icmp(data[IPV4_BODY_AT:end])
        icmp, view = data[ICMP_DATA_AT:end], None
    else:
        icmp, view = None, _transport_view(proto, data, IPV4_BODY_AT, end)
    return _tuple_new(Ipv4Header, (_tuple_new(Ipv4Address, (src,)),
                                   _tuple_new(Ipv4Address, (dst,)),
                                   proto, end, ttl, ident, icmp, view))


def parse_frame(wire: bytes, header: Optional[Header] = None) -> EthernetFrame:
    """Decode a frame into typed payloads; unknown protocols stay opaque bytes.

    A frame's values come from `read_header(wire)`; a caller that has
    already read its header passes it as `header`, and it is not read again.
    """
    if header is None:
        header = read_header(wire)  # also refuses any frame by its length
    dst, src, ethertype = _ETH.unpack_from(wire)
    payload = header  # an ARP packet and another ethertype's bytes are their own payload
    if type(header) is Ipv4Header:
        ip_src, ip_dst, proto, end, ttl, ident, icmp, _ = header
        if icmp is not None:
            icmp_type, code, _, icmp_ident, seq = _ICMP.unpack_from(wire, IPV4_BODY_AT)
            body = _tuple_new(IcmpMessage, (icmp_type, code, icmp_ident, seq, icmp))
        else:
            body = wire[IPV4_BODY_AT:end]
        payload = _tuple_new(Ipv4Packet, (ip_src, ip_dst, proto, body, ttl, ident))
    return _tuple_new(EthernetFrame, (_tuple_new(MacAddress, (dst,)),
                                      _tuple_new(MacAddress, (src,)), ethertype, payload))


class Wire:
    """One frame on the wire: its bytes, its header read at most once, and
    its parse built at most once.

    `data` is kept as given, and every trace record of the frame holds that
    one object. The builders of sent frames (`tcp_wire`, `udp_wire`,
    `icmp_echo_wire`, `arp_wire`, `opaque_wire`) pack the bytes and pass the
    header they are read as. Of a frame that arrives as bytes, `header`
    reads the header from the bytes and checks it. Of either, `frame` builds
    the typed values from that header. So `header` is the one place a bad
    frame's `FrameError` is raised, on every access to either.
    """

    __slots__ = ("data", "_parsed", "_header")

    def __init__(self, data: bytes, header: Optional[Header] = None):
        self.data = data
        # the parse; or, of bytes that are not a frame, the error they raise
        self._parsed: Union[EthernetFrame, FrameError, None] = None
        self._header = header

    @property
    def frame(self) -> EthernetFrame:
        """The parsed frame; raises the parse's `FrameError` on every access."""
        parsed = self._parsed
        if type(parsed) is not EthernetFrame:
            parsed = self._parsed = parse_frame(self.data, self.header)
        return parsed

    @property
    def header(self) -> Header:
        """The frame's header, as `read_header` reads it; raises the parse's
        `FrameError` on every access."""
        header = self._header
        if header is not None:
            return header
        error = self._parsed
        if error is None:
            try:
                header = self._header = read_header(self.data)
                return header
            except FrameError as exc:
                error = self._parsed = exc
        raise error.with_traceback(None)


def _arp(operation: int, sender_mac: MacAddress, sender_ip: Ipv4Address,
         target_mac: MacAddress, target_ip: Ipv4Address) -> Tuple[MacAddress, ArpPacket]:
    """The destination MAC and the packet of `make_arp`'s frame."""
    if operation == ARP_REQUEST:
        target_mac, eth_dst = MAC_ZERO, MAC_BROADCAST
    else:
        eth_dst = target_mac
    return eth_dst, _tuple_new(ArpPacket, (operation, sender_mac, sender_ip, target_mac, target_ip))


def make_arp(
    operation: int,
    sender_mac: MacAddress,
    sender_ip: Ipv4Address,
    target_mac: MacAddress,
    target_ip: Ipv4Address,
) -> EthernetFrame:
    """ARP request frames are broadcast; replies go unicast to the requester."""
    eth_dst, arp = _arp(operation, sender_mac, sender_ip, target_mac, target_ip)
    return _tuple_new(EthernetFrame, (eth_dst, sender_mac, ETHERTYPE_ARP, arp))


def tcp_segment(src_port: int, dst_port: int, flags: int = TCP_FLAG_SYN,
                data: bytes = b"") -> bytes:
    """Minimal 20-byte TCP header (data offset 5, zero sequence numbers) plus optional data.

    The TCP checksum is left zero: the filter reads only ports and flags.
    """
    return _TCP.pack(src_port, dst_port, 0, 0, 5 << 4, flags, 0xFFFF, 0, 0) + data


def udp_datagram(src_port: int, dst_port: int, data: bytes = b"") -> bytes:
    return _UDP.pack(src_port, dst_port, 8 + len(data), 0) + data


def make_ipv4_frame(src_mac: MacAddress, dst_mac: MacAddress,
                    src_ip: Ipv4Address, dst_ip: Ipv4Address,
                    protocol: int, payload: Union[IcmpMessage, bytes],
                    identification: int = 0) -> EthernetFrame:
    """An IPv4 frame whose body is what a parse of its bytes makes: equal to its round trip."""
    if isinstance(payload, IcmpMessage) and protocol != PROTO_ICMP:
        payload = payload.to_bytes()
    if isinstance(payload, bytes):
        payload = _ip_body(protocol, payload)
    pkt = _tuple_new(Ipv4Packet, (src_ip, dst_ip, protocol, payload, DEFAULT_TTL, identification))
    return _tuple_new(EthernetFrame, (dst_mac, src_mac, ETHERTYPE_IPV4, pkt))


def make_icmp_echo(src_mac: MacAddress, dst_mac: MacAddress,
                   src_ip: Ipv4Address, dst_ip: Ipv4Address,
                   payload: bytes = b"", identifier: int = 0, sequence: int = 0,
                   reply: bool = False) -> EthernetFrame:
    icmp = _tuple_new(IcmpMessage, (ICMP_ECHO_REPLY if reply else ICMP_ECHO_REQUEST, 0,
                                    identifier, sequence, payload))
    return make_ipv4_frame(src_mac, dst_mac, src_ip, dst_ip, PROTO_ICMP, icmp)


# The packed builders: each gives the `Wire` of the frame its typed
# counterpart serializes to, with the header those bytes are read as, and
# builds no typed value but that header.

def tcp_wire(src_mac: MacAddress, dst_mac: MacAddress,
             src_ip: Ipv4Address, dst_ip: Ipv4Address,
             src_port: int, dst_port: int, flags: int, identification: int = 0) -> Wire:
    """The TCP frame of `tcp_segment(src_port, dst_port, flags)` in
    `make_ipv4_frame`, its three headers packed at once."""
    src, dst = src_ip.octets, dst_ip.octets
    total = IPV4_HEADER_LEN + 20
    checksum = _ipv4_checksum(total, identification, DEFAULT_TTL, PROTO_TCP, src, dst)
    data = _ETH_IPV4_TCP.pack(dst_mac.octets, src_mac.octets, ETHERTYPE_IPV4,
                              0x45, 0, total, identification, 0, DEFAULT_TTL, PROTO_TCP, checksum,
                              src, dst, src_port, dst_port, 0, 0, 5 << 4, flags, 0xFFFF, 0, 0)
    view = _tuple_new(TransportView, (src_port, dst_port, "tcp", flags & TCP_FLAG_SYN != 0))
    return Wire(data, _tuple_new(Ipv4Header, (src_ip, dst_ip, PROTO_TCP, ETH_HEADER_LEN + total,
                                              DEFAULT_TTL, identification, None, view)))


def _ipv4_wire(src_mac: MacAddress, dst_mac: MacAddress,
               src_ip: Ipv4Address, dst_ip: Ipv4Address, protocol: int, body: bytes,
               identification: int, icmp: Optional[bytes],
               view: Optional[TransportView]) -> Wire:
    """The IPv4 frame of `body`, whose header holds `icmp` and `view` as
    `read_header` reads them from `body`."""
    src, dst = src_ip.octets, dst_ip.octets
    total = IPV4_HEADER_LEN + len(body)
    _check_payload(total)
    checksum = _ipv4_checksum(total, identification, DEFAULT_TTL, protocol, src, dst)
    data = _ETH_IPV4.pack(dst_mac.octets, src_mac.octets, ETHERTYPE_IPV4, 0x45, 0, total,
                          identification, 0, DEFAULT_TTL, protocol, checksum, src, dst) + body
    return Wire(data, _tuple_new(Ipv4Header, (src_ip, dst_ip, protocol, ETH_HEADER_LEN + total,
                                              DEFAULT_TTL, identification, icmp, view)))


def udp_wire(src_mac: MacAddress, dst_mac: MacAddress,
             src_ip: Ipv4Address, dst_ip: Ipv4Address,
             src_port: int, dst_port: int, identification: int = 0) -> Wire:
    """The UDP frame of `udp_datagram(src_port, dst_port)` in `make_ipv4_frame`."""
    view = _tuple_new(TransportView, (src_port, dst_port, "udp", False))
    return _ipv4_wire(src_mac, dst_mac, src_ip, dst_ip, PROTO_UDP,
                      udp_datagram(src_port, dst_port), identification, None, view)


def icmp_echo_wire(src_mac: MacAddress, dst_mac: MacAddress,
                   src_ip: Ipv4Address, dst_ip: Ipv4Address,
                   payload: bytes = b"", identifier: int = 0, sequence: int = 0,
                   reply: bool = False) -> Wire:
    """The frame of `make_icmp_echo` with these arguments: a knock, a ping
    or its answer."""
    message = _icmp_bytes(ICMP_ECHO_REPLY if reply else ICMP_ECHO_REQUEST, 0,
                          identifier, sequence, payload)
    return _ipv4_wire(src_mac, dst_mac, src_ip, dst_ip, PROTO_ICMP, message, 0, payload, None)


def arp_wire(operation: int, sender_mac: MacAddress, sender_ip: Ipv4Address,
             target_mac: MacAddress, target_ip: Ipv4Address) -> Wire:
    """The frame of `make_arp` with these arguments; its header is its packet."""
    eth_dst, arp = _arp(operation, sender_mac, sender_ip, target_mac, target_ip)
    return Wire(_ETH.pack(eth_dst.octets, sender_mac.octets, ETHERTYPE_ARP) + arp.to_bytes(), arp)


def opaque_wire(dst_mac: MacAddress, src_mac: MacAddress, ethertype: int,
                payload: bytes) -> Wire:
    """The frame `EthernetFrame(dst_mac, src_mac, ethertype, payload)` of an
    ethertype the codec keeps opaque, neither IPv4 nor ARP; its header is its
    payload."""
    if ethertype in (ETHERTYPE_IPV4, ETHERTYPE_ARP):
        raise ValueError(f"ethertype 0x{ethertype:04x} is not opaque")
    _check_payload(len(payload))
    return Wire(_ETH.pack(dst_mac.octets, src_mac.octets, ethertype) + payload, payload)
