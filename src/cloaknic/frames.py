"""Byte-exact Ethernet II / ARP / IPv4 / ICMP / TCP-UDP-view codec.

Everything here is a pure function over immutable values: parse, build,
serialize. The one exception, `Wire`, memoises only a frame's parse and
hex. Big-endian; no FCS or minimum-size padding (there is no medium).
Unknown ethertypes and IP protocols decode to opaque bytes on purpose --
rejecting them is the packet filter's job, not the parser's.

A frame value is its bytes: values hold only the fields the model keeps,
and checksums are computed by serialize and checked by parse, never stored.
A typed `FrameError` is raised for an ARP or IPv4 body that cannot be read
as one, for a checksum other than the one serialize writes, and for a
header the model does not represent: an IPv4 fragment, TOS, DF or reserved
flag, or ARP for other than Ethernet and IPv4. So for every accepted `b`,
`serialize_frame(parse_frame(b))` is `b` up to Ethernet padding.

Values are named tuples: immutable, equal and hashable by value, and built
at the cost of a tuple, since the codec builds several for every frame. The
address constructors check the octet count; parse builds its addresses with
`_tuple_new` from fixed-width fields, whose length it already knows.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional, Union

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
MAX_PAYLOAD = 1500
MAX_FRAME = ETH_HEADER_LEN + MAX_PAYLOAD  # 1514, FCS excluded

_tuple_new = tuple.__new__  # builds a value without its constructor's checks


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

    def __str__(self) -> str:
        return "%d.%d.%d.%d" % tuple(self.octets)


class ArpPacket(NamedTuple):
    """Fixed-size ARP body: htype 1, ptype 0x0800, hlen 6, plen 4 (28 bytes)."""

    operation: int  # ARP_REQUEST or ARP_REPLY
    sender_mac: MacAddress
    sender_ip: Ipv4Address
    target_mac: MacAddress
    target_ip: Ipv4Address

    BODY_LEN = 28

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">HHBBH", 1, ETHERTYPE_IPV4, 6, 4, self.operation)
            + self.sender_mac.octets
            + self.sender_ip.octets
            + self.target_mac.octets
            + self.target_ip.octets
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ArpPacket":
        if len(data) < cls.BODY_LEN:
            raise TooShort(f"ARP body is {len(data)} bytes, need 28")
        htype, ptype, hlen, plen, op, sha, spa, tha, tpa = struct.unpack_from(
            ">HHBBH6s4s6s4s", data)
        if (htype, ptype, hlen, plen) != (1, ETHERTYPE_IPV4, 6, 4):
            raise UnsupportedArp(f"ARP htype {htype}, ptype 0x{ptype:04x}, hlen {hlen}, "
                                 f"plen {plen}; need 1, 0x0800, 6, 4")
        return cls(op, _tuple_new(MacAddress, (sha,)), _tuple_new(Ipv4Address, (spa,)),
                   _tuple_new(MacAddress, (tha,)), _tuple_new(Ipv4Address, (tpa,)))


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


def _with_checksum(data: bytes, at: int) -> bytes:
    """`data` with the checksum of its zero field at ``at`` written there."""
    return data[:at] + internet_checksum(data).to_bytes(2, "big") + data[at + 2:]


def _check_checksum(data: bytes, at: int, what: str) -> None:
    """Refuse a checksum field other than the one `_with_checksum` writes.

    0xFFFF verifies wherever 0x0000 is due, but is written only over all-zero data.
    """
    if internet_checksum(data) != 0 or (data[at:at + 2] == b"\xff\xff"
                                        and any(data[:at] + data[at + 2:])):
        raise BadChecksum(f"{what} checksum mismatch")


class IcmpMessage(NamedTuple):
    icmp_type: int
    code: int
    identifier: int
    sequence: int
    payload: bytes = b""

    def to_bytes(self) -> bytes:
        return _with_checksum(struct.pack(">BBHHH", self.icmp_type, self.code, 0, self.identifier,
                                          self.sequence) + self.payload, 2)

    @classmethod
    def from_bytes(cls, data: bytes) -> "IcmpMessage":
        if len(data) < 8:
            raise TooShort(f"ICMP message is {len(data)} bytes, need 8")
        icmp_type, code, _, ident, seq = struct.unpack_from(">BBHHH", data)
        _check_checksum(data, 2, "ICMP")
        return cls(icmp_type, code, ident, seq, data[8:])


class TransportView(NamedTuple):
    """Port-level view of a TCP or UDP payload; no deeper state is tracked."""

    src_port: int
    dst_port: int
    kind: str  # "tcp" or "udp"
    is_syn: bool


def _ip_body(protocol: int, body: bytes) -> Union[IcmpMessage, bytes]:
    """An IPv4 body as parse reads it: 8 or more bytes under protocol 1 are an ICMP message."""
    return IcmpMessage.from_bytes(body) if protocol == PROTO_ICMP and len(body) >= 8 else body


class Ipv4Packet(NamedTuple):
    """IPv4 with IHL fixed at 5 and TOS, flags and offset zero; any other header is refused."""

    src: Ipv4Address
    dst: Ipv4Address
    protocol: int
    payload: Union[IcmpMessage, bytes] = b""
    ttl: int = 64
    identification: int = 0

    HEADER_LEN = 20

    def to_bytes(self) -> bytes:
        body = self.payload.to_bytes() if isinstance(self.payload, IcmpMessage) else self.payload
        head = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(body), self.identification, 0,
                           self.ttl, self.protocol, 0, self.src.octets, self.dst.octets)
        return _with_checksum(head, 10) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Packet":
        if len(data) < cls.HEADER_LEN:
            raise TooShort(f"IPv4 packet is {len(data)} bytes, need 20")
        header = data[: cls.HEADER_LEN]
        vihl, tos, total, ident, frag, ttl, proto, _, src, dst = struct.unpack(
            ">BBHHHBBH4s4s", header)
        if vihl != 0x45:
            raise UnsupportedIpHeader(f"IPv4 version {vihl >> 4}, IHL {vihl & 0xF}; need 4, 5")
        _check_checksum(header, 10, "IPv4 header")
        if not cls.HEADER_LEN <= total <= len(data):
            raise BadTotalLength(f"IPv4 total length {total} in {len(data)} bytes")
        if frag & 0x3FFF:
            raise Fragment(f"IPv4 flags/offset 0x{frag:04x}: MF set or offset non-zero")
        if tos or frag:
            raise UnsupportedIpHeader(f"IPv4 TOS 0x{tos:02x}, flags/offset 0x{frag:04x}; "
                                      "DF, the reserved flag and TOS are not kept")
        # bytes past the total length are Ethernet padding
        body = _ip_body(proto, data[cls.HEADER_LEN:total])
        return cls(_tuple_new(Ipv4Address, (src,)), _tuple_new(Ipv4Address, (dst,)), proto,
                   body, ttl, ident)

    def transport_view(self) -> Optional[TransportView]:
        if isinstance(self.payload, IcmpMessage):
            return None
        raw = self.payload
        if self.protocol == PROTO_TCP and len(raw) >= 20:
            src_port, dst_port = struct.unpack_from(">HH", raw)
            return TransportView(src_port, dst_port, "tcp", bool(raw[13] & TCP_FLAG_SYN))
        if self.protocol == PROTO_UDP and len(raw) >= 8:
            src_port, dst_port = struct.unpack_from(">HH", raw)
            return TransportView(src_port, dst_port, "udp", False)
        return None


class EthernetFrame(NamedTuple):
    dst: MacAddress
    src: MacAddress
    ethertype: int
    payload: Union[ArpPacket, Ipv4Packet, bytes] = b""


def serialize_frame(frame: EthernetFrame) -> bytes:
    """Canonical big-endian bytes; IPv4/ICMP checksums are recomputed."""
    if isinstance(frame.payload, ArpPacket):
        body = frame.payload.to_bytes()
    elif isinstance(frame.payload, Ipv4Packet):
        body = frame.payload.to_bytes()
    else:
        body = frame.payload
    if len(body) > MAX_PAYLOAD:
        raise Oversize(f"payload is {len(body)} bytes, max {MAX_PAYLOAD}")
    return frame.dst.octets + frame.src.octets + struct.pack(">H", frame.ethertype) + body


def parse_frame(wire: bytes) -> EthernetFrame:
    """Decode a frame into typed payloads; unknown protocols stay opaque bytes."""
    if len(wire) < ETH_HEADER_LEN:
        raise TooShort(f"frame is {len(wire)} bytes, need 14")
    if len(wire) > MAX_FRAME:
        raise Oversize(f"frame is {len(wire)} bytes, max {MAX_FRAME}")
    dst, src, ethertype = struct.unpack_from(">6s6sH", wire)
    body = wire[14:]
    payload: Union[ArpPacket, Ipv4Packet, bytes] = body
    if ethertype == ETHERTYPE_ARP:
        payload = ArpPacket.from_bytes(body)
    elif ethertype == ETHERTYPE_IPV4:
        payload = Ipv4Packet.from_bytes(body)
    return EthernetFrame(_tuple_new(MacAddress, (dst,)), _tuple_new(MacAddress, (src,)),
                         ethertype, payload)


class Wire:
    """One frame on the wire: its bytes, parsed at most once, hex-encoded at most once.

    `from_frame` keeps the frame it serializes as the parse: the `make_*`
    builders return frames equal to their own round trip.
    """

    __slots__ = ("data", "_parsed", "_hex")

    def __init__(self, data: bytes, parsed: Optional[EthernetFrame] = None):
        self.data = data
        self._parsed: Union[EthernetFrame, FrameError, None] = parsed
        self._hex: Optional[str] = None

    @classmethod
    def from_frame(cls, frame: EthernetFrame) -> "Wire":
        return cls(serialize_frame(frame), frame)

    @classmethod
    def wrap(cls, wire: Union["Wire", bytes]) -> "Wire":
        return wire if isinstance(wire, Wire) else cls(wire)

    @property
    def frame(self) -> EthernetFrame:
        """The parsed frame; raises the parse's `FrameError` on every access."""
        if self._parsed is None:
            try:
                self._parsed = parse_frame(self.data)
            except FrameError as exc:
                self._parsed = exc
        if isinstance(self._parsed, FrameError):
            raise self._parsed.with_traceback(None)
        return self._parsed

    @property
    def hex(self) -> str:
        if self._hex is None:
            self._hex = self.data.hex()
        return self._hex


def make_arp(
    operation: int,
    sender_mac: MacAddress,
    sender_ip: Ipv4Address,
    target_mac: MacAddress,
    target_ip: Ipv4Address,
) -> EthernetFrame:
    """ARP request frames are broadcast; replies go unicast to the requester."""
    if operation == ARP_REQUEST:
        target_mac, eth_dst = MAC_ZERO, MAC_BROADCAST
    else:
        eth_dst = target_mac
    arp = ArpPacket(operation, sender_mac, sender_ip, target_mac, target_ip)
    return EthernetFrame(eth_dst, sender_mac, ETHERTYPE_ARP, arp)


def tcp_segment(src_port: int, dst_port: int, flags: int = TCP_FLAG_SYN,
                data: bytes = b"") -> bytes:
    """Minimal 20-byte TCP header (data offset 5, zero sequence numbers) plus optional data.

    The TCP checksum is left zero: the filter reads only ports and flags.
    """
    head = struct.pack(">HHIIBBHHH", src_port, dst_port, 0, 0, 5 << 4, flags, 0xFFFF, 0, 0)
    return head + data


def udp_datagram(src_port: int, dst_port: int, data: bytes = b"") -> bytes:
    return struct.pack(">HHHH", src_port, dst_port, 8 + len(data), 0) + data


def make_ipv4_frame(src_mac: MacAddress, dst_mac: MacAddress,
                    src_ip: Ipv4Address, dst_ip: Ipv4Address,
                    protocol: int, payload: Union[IcmpMessage, bytes],
                    identification: int = 0) -> EthernetFrame:
    """An IPv4 frame whose body is what a parse of its bytes makes: equal to its round trip."""
    if isinstance(payload, IcmpMessage) and protocol != PROTO_ICMP:
        payload = payload.to_bytes()
    if isinstance(payload, bytes):
        payload = _ip_body(protocol, payload)
    pkt = Ipv4Packet(src_ip, dst_ip, protocol, payload, identification=identification)
    return EthernetFrame(dst_mac, src_mac, ETHERTYPE_IPV4, pkt)


def make_icmp_echo(src_mac: MacAddress, dst_mac: MacAddress,
                   src_ip: Ipv4Address, dst_ip: Ipv4Address,
                   payload: bytes = b"", identifier: int = 0, sequence: int = 0,
                   reply: bool = False) -> EthernetFrame:
    icmp = IcmpMessage(ICMP_ECHO_REPLY if reply else ICMP_ECHO_REQUEST, 0, identifier, sequence, payload)
    return make_ipv4_frame(src_mac, dst_mac, src_ip, dst_ip, PROTO_ICMP, icmp)

