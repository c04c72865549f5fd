import gzip
import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloaknic import frames
from cloaknic.frames import (
    ARP_REPLY,
    ARP_REQUEST,
    MAC_BROADCAST,
    PROTO_TCP,
    PROTO_UDP,
    ETH_HEADER_LEN,
    ArpPacket,
    BadTotalLength,
    EthernetFrame,
    Fragment,
    IcmpMessage,
    Ipv4Address,
    Ipv4Packet,
    MacAddress,
    Oversize,
    TooShort,
    UnsupportedArp,
    UnsupportedIpHeader,
    Wire,
    arp_wire,
    icmp_echo_wire,
    internet_checksum,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    opaque_wire,
    parse_frame,
    read_header,
    serialize_frame,
    tcp_segment,
    tcp_wire,
    udp_datagram,
    udp_wire,
)

MAC_A = MacAddress.from_str("aa:00:00:00:00:01")
MAC_B = MacAddress.from_str("bb:00:00:00:00:02")
IP_A = Ipv4Address.from_str("192.168.0.1")
IP_B = Ipv4Address.from_str("192.168.0.2")
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


macs = st.binary(min_size=6, max_size=6).map(MacAddress)
ips = st.binary(min_size=4, max_size=4).map(Ipv4Address)
ports = st.integers(1, 0xFFFF)


@st.composite
def arp_frames(draw):
    op = draw(st.sampled_from([ARP_REQUEST, ARP_REPLY]))
    return make_arp(op, draw(macs), draw(ips), draw(macs), draw(ips))


@st.composite
def icmp_frames(draw):
    return make_icmp_echo(
        draw(macs), draw(macs), draw(ips), draw(ips),
        payload=draw(st.binary(max_size=200)),
        identifier=draw(st.integers(0, 0xFFFF)),
        sequence=draw(st.integers(0, 0xFFFF)),
        reply=draw(st.booleans()),
    )


@st.composite
def transport_frames(draw):
    if draw(st.booleans()):
        body = tcp_segment(draw(ports), draw(ports),
                           flags=draw(st.integers(0, 0xFF)),
                           data=draw(st.binary(max_size=200)))
        proto = PROTO_TCP
    else:
        body = udp_datagram(draw(ports), draw(ports), draw(st.binary(max_size=200)))
        proto = PROTO_UDP
    return make_ipv4_frame(draw(macs), draw(macs), draw(ips), draw(ips), proto, body,
                           identification=draw(st.integers(0, 0xFFFF)))


any_frame = st.one_of(arp_frames(), icmp_frames(), transport_frames())


class TestAddresses:
    @example(bytes.fromhex("deadbeef0001"))
    @given(st.binary(min_size=6, max_size=6))
    def test_mac_str_round_trip(self, octets):
        text = ":".join(f"{b:02x}" for b in octets)
        assert str(MacAddress.from_str(text)) == text
        assert MacAddress.from_str(text) == MacAddress(octets)

    @pytest.mark.parametrize("n", [0, 5, 7, 16])
    def test_mac_wrong_length(self, n):
        with pytest.raises(ValueError):
            MacAddress(b"\x00" * n)

    @example(bytes([10, 0, 0, 5]))
    @given(st.binary(min_size=4, max_size=4))
    def test_ip_str_round_trip(self, octets):
        text = ".".join(str(b) for b in octets)
        assert str(Ipv4Address.from_str(text)) == text
        assert Ipv4Address.from_str(text) == Ipv4Address(octets)

    @pytest.mark.parametrize("n", [0, 3, 5, 16])
    def test_ip_wrong_length(self, n):
        with pytest.raises(ValueError):
            Ipv4Address(b"\x00" * n)


class TestArp:
    def test_request_is_broadcast_with_zero_target(self):
        f = make_arp(ARP_REQUEST, MAC_A, IP_A, MAC_B, IP_B)
        assert f.dst == MAC_BROADCAST
        assert f.payload.target_mac == frames.MAC_ZERO
        assert f.payload.target_ip == IP_B

    def test_reply_is_unicast_to_requester(self):
        f = make_arp(ARP_REPLY, MAC_B, IP_B, MAC_A, IP_A)
        assert f.dst == MAC_A

    def test_body_is_28_bytes_frame_is_42(self):
        f = make_arp(ARP_REPLY, MAC_B, IP_B, MAC_A, IP_A)
        assert len(f.payload.to_bytes()) == 28
        assert len(serialize_frame(f)) == 42

    def test_golden_request_bytes(self):
        # hand-assembled: eth(bcast, aa:..:01, 0x0806) + arp request 28 bytes
        f = make_arp(ARP_REQUEST, MAC_A, IP_A, frames.MAC_ZERO, IP_B)
        expected = (
            "ffffffffffff" "aa0000000001" "0806"
            "0001" "0800" "06" "04" "0001"
            "aa0000000001" "c0a80001"
            "000000000000" "c0a80002"
        )
        assert serialize_frame(f).hex() == expected
        parsed = parse_frame(bytes.fromhex(expected))
        assert isinstance(parsed.payload, ArpPacket)
        assert parsed.payload.operation == ARP_REQUEST

    def test_round_trip(self):
        f = make_arp(ARP_REQUEST, MAC_A, IP_A, MAC_B, IP_B)
        assert parse_frame(serialize_frame(f)) == f


class TestParse:
    def test_too_short(self):
        with pytest.raises(TooShort):
            parse_frame(b"\x00" * 13)

    def test_oversize(self):
        f = EthernetFrame(MAC_A, MAC_B, 0x0800, b"\x00" * 1501)
        with pytest.raises(Oversize):
            serialize_frame(f)

    def test_max_size_frame_ok(self):
        f = EthernetFrame(MAC_A, MAC_B, 0x1234, b"\x00" * 1500)
        assert len(serialize_frame(f)) == 1514

    def test_parse_oversize(self):
        wire = serialize_frame(EthernetFrame(MAC_A, MAC_B, 0x1234, b"\x00" * 1500))
        assert parse_frame(wire).payload == b"\x00" * 1500
        with pytest.raises(Oversize):
            parse_frame(wire + b"\x00")

    def test_unknown_ethertype_is_opaque(self):
        f = parse_frame(serialize_frame(EthernetFrame(MAC_A, MAC_B, 0x88B5, b"hello")))
        assert f.payload == b"hello"

    def test_unknown_ip_protocol_is_opaque(self):
        f = make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, 99, b"xyz")
        assert isinstance(f.payload, Ipv4Packet)
        assert f.payload.payload == b"xyz"
        assert f.payload.transport_view() is None

    def test_corrupted_ipv4_checksum(self):
        wire = bytearray(serialize_frame(make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, 99, b"x")))
        wire[24] ^= 0xFF  # header checksum byte
        with pytest.raises(frames.BadChecksum):
            parse_frame(bytes(wire))

    def test_corrupted_icmp_checksum(self):
        wire = bytearray(serialize_frame(make_icmp_echo(MAC_A, MAC_B, IP_A, IP_B, b"pp")))
        wire[36] ^= 0x01  # icmp checksum low byte
        with pytest.raises(frames.BadChecksum):
            parse_frame(bytes(wire))

    def test_knock_sized_icmp_frame_is_88_bytes(self):
        f = make_icmp_echo(MAC_A, MAC_B, IP_A, IP_B, b"\x00" * 46)
        assert len(serialize_frame(f)) == 88


class TestTransportView:
    def test_tcp_syn(self):
        f = make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_TCP, tcp_segment(40000, 22))
        view = f.payload.transport_view()
        assert (view.src_port, view.dst_port, view.kind, view.is_syn) == (40000, 22, "tcp", True)

    def test_tcp_non_syn(self):
        f = make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_TCP, tcp_segment(40000, 22, flags=0x10))
        assert not f.payload.transport_view().is_syn

    def test_udp(self):
        f = make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_UDP, udp_datagram(5353, 53))
        view = f.payload.transport_view()
        assert (view.src_port, view.dst_port, view.kind, view.is_syn) == (5353, 53, "udp", False)

    def test_short_tcp_has_no_view(self):
        f = make_ipv4_frame(MAC_A, MAC_B, IP_A, IP_B, PROTO_TCP, b"\x00" * 19)
        assert f.payload.transport_view() is None


@given(any_frame)
def test_round_trip_property(frame):
    assert parse_frame(serialize_frame(frame)) == frame


@given(st.binary(max_size=65536))
@settings(max_examples=300)
def test_parse_never_crashes(data):
    try:
        parse_frame(data)
    except frames.FrameError:
        pass


def with_ip_checksum(wire: bytearray) -> bytes:
    """The frame with its IPv4 header checksum recomputed."""
    wire[24:26] = b"\x00\x00"
    wire[24:26] = internet_checksum(bytes(wire[14:34])).to_bytes(2, "big")
    return bytes(wire)


@st.composite
def mutated_wires(draw):
    """A valid frame's bytes with a few overwritten and perhaps a tail cut off.

    Half the time an IPv4 header checksum is recomputed afterwards, so that
    a mutated header field reaches the checks behind the checksum.
    """
    wire = bytearray(serialize_frame(draw(any_frame)))
    for _ in range(draw(st.integers(1, 3))):
        # mostly in the Ethernet, ARP and IPv4 headers
        i = draw(st.integers(0, 41) | st.integers(0, len(wire) - 1))
        wire[i % len(wire)] = draw(st.integers(0, 0xFF))
    if draw(st.booleans()):
        del wire[draw(st.integers(ETH_HEADER_LEN, len(wire))):]
    if wire[12:14] == b"\x08\x00" and len(wire) >= 34 and draw(st.booleans()):
        return with_ip_checksum(wire)
    return bytes(wire)


def assert_accepted_frame_is_its_bytes(wire: bytes) -> bool:
    """Whether `wire` parses; if it does, it serializes back to itself up to padding."""
    try:
        frame = parse_frame(wire)
    except frames.FrameError:
        return False
    if wire[12:14] == b"\x08\x06":
        wire = wire[:42]
    elif wire[12:14] == b"\x08\x00":
        wire = wire[:ETH_HEADER_LEN + int.from_bytes(wire[16:18], "big")]
    assert serialize_frame(frame) == wire
    return True


@given(mutated_wires())
@settings(max_examples=1000)
def test_mutated_frame_is_refused_or_round_trips_byte_for_byte(wire):
    assert_accepted_frame_is_its_bytes(wire)


# every input the codec meets: frames it builds, those frames mutated, and noise
any_wire = st.one_of(mutated_wires(), any_frame.map(serialize_frame), st.binary(max_size=200))


@given(any_wire)
def test_header_reader_accepts_what_the_parse_accepts(wire):
    """`read_header` is the parse's one reader, for every ethertype: it
    refuses a frame with the parse's error class wherever the parse refuses
    it, and gives the values the parse reads. A frame of any ethertype but
    IPv4 has its payload as its header."""
    try:
        frame = parse_frame(wire)
    except frames.FrameError as exc:
        with pytest.raises(type(exc)):
            read_header(wire)
        with pytest.raises(type(exc)):
            Wire(wire).header
        return
    header = read_header(wire)
    pkt = frame.payload
    if type(pkt) is not Ipv4Packet:
        assert type(header) is type(pkt) and header == pkt
        assert Wire(wire).header == header
        return
    body = pkt.payload
    body_len = 8 + len(body.payload) if type(body) is IcmpMessage else len(body)
    assert (header.src, header.dst, header.protocol) == (pkt.src, pkt.dst, pkt.protocol)
    assert header.end == frames.IPV4_BODY_AT + body_len
    assert (header.ttl, header.identification) == (pkt.ttl, pkt.identification)
    assert header.icmp == (body.payload if type(body) is IcmpMessage else None)
    assert header.view == pkt.transport_view()
    # a `Wire` of the bytes reads the same header
    read_first = Wire(wire)
    assert read_first.header == header


@given(macs, macs, ips, ips, st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
       st.integers(0, 0xFF), st.integers(0, 0xFFFF))
def test_tcp_wire_is_the_typed_tcp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
                                         flags, identification):
    """`tcp_wire` packs the bytes the typed TCP frame serializes to, and
    carries the header those bytes give."""
    wire = tcp_wire(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, flags, identification)
    assert_packed_as_typed(wire, make_ipv4_frame(
        src_mac, dst_mac, src_ip, dst_ip, PROTO_TCP, tcp_segment(src_port, dst_port, flags),
        identification))


def assert_packed_as_typed(wire: Wire, frame: EthernetFrame) -> None:
    """`wire` holds the bytes `frame` serializes to, the header those bytes
    give, and the bytes parse to `frame`."""
    data = serialize_frame(frame)
    assert wire.data == data
    header = read_header(data)
    assert type(wire.header) is type(header) and wire.header == header
    assert parse_frame(wire.data) == frame


sixteen_bits = st.integers(0, 0xFFFF)


@example(MAC_A, MAC_B, IP_A, IP_B, 0, 0xFFFF, 0xFFFF)
@given(macs, macs, ips, ips, sixteen_bits, sixteen_bits, sixteen_bits)
def test_udp_wire_is_the_typed_udp_frame(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port,
                                         identification):
    wire = udp_wire(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, identification)
    assert_packed_as_typed(wire, make_ipv4_frame(
        src_mac, dst_mac, src_ip, dst_ip, PROTO_UDP, udp_datagram(src_port, dst_port),
        identification))


# an all-zero echo reply carries the checksum 0xFFFF, the one place serialize writes it
@example(MAC_A, MAC_B, IP_A, IP_B, bytes(6), 0, 0, True)
@example(MAC_A, MAC_B, IP_A, IP_B, b"", 0xFFFF, 0xFFFF, False)
@example(MAC_A, MAC_B, IP_A, IP_B, b"odd", 0, 0xFFFF, True)
@example(MAC_A, MAC_B, IP_A, IP_B, bytes(1472), 1, 2, False)  # a 1500-byte IPv4 packet
@given(macs, macs, ips, ips, st.binary(max_size=200), sixteen_bits, sixteen_bits, st.booleans())
def test_icmp_echo_wire_is_the_typed_echo_frame(src_mac, dst_mac, src_ip, dst_ip, payload,
                                                identifier, sequence, reply):
    wire = icmp_echo_wire(src_mac, dst_mac, src_ip, dst_ip, payload, identifier, sequence, reply)
    assert_packed_as_typed(wire, make_icmp_echo(src_mac, dst_mac, src_ip, dst_ip, payload,
                                                identifier, sequence, reply))


@pytest.mark.parametrize("size", [1473, 1500, 4000, 65516, 70000])
def test_an_oversize_echo_is_refused_as_serialize_refuses_it(size):
    with pytest.raises(Oversize):
        serialize_frame(make_icmp_echo(MAC_A, MAC_B, IP_A, IP_B, bytes(size)))
    with pytest.raises(Oversize):
        icmp_echo_wire(MAC_A, MAC_B, IP_A, IP_B, bytes(size))


@given(st.sampled_from([ARP_REQUEST, ARP_REPLY]) | sixteen_bits, macs, ips, macs, ips)
def test_arp_wire_is_the_typed_arp_frame(operation, sender_mac, sender_ip, target_mac, target_ip):
    wire = arp_wire(operation, sender_mac, sender_ip, target_mac, target_ip)
    assert_packed_as_typed(wire, make_arp(operation, sender_mac, sender_ip, target_mac, target_ip))


@given(macs, macs, sixteen_bits.filter(lambda t: t not in (0x0800, 0x0806)),
       st.binary(max_size=200))
def test_opaque_wire_is_the_typed_opaque_frame(dst_mac, src_mac, ethertype, payload):
    wire = opaque_wire(dst_mac, src_mac, ethertype, payload)
    assert_packed_as_typed(wire, EthernetFrame(dst_mac, src_mac, ethertype, payload))


def test_opaque_wire_refuses_what_the_codec_reads_and_what_is_oversize():
    for ethertype in (frames.ETHERTYPE_IPV4, frames.ETHERTYPE_ARP):
        with pytest.raises(ValueError):
            opaque_wire(MAC_B, MAC_A, ethertype, b"spoof")
    opaque_wire(MAC_B, MAC_A, 0x88B5, bytes(1500))
    with pytest.raises(Oversize):
        opaque_wire(MAC_B, MAC_A, 0x88B5, bytes(1501))


def golden_wires():
    for path in sorted(GOLDEN.glob("*.trace*")):
        text = path.read_bytes()
        if path.suffix == ".gz":
            text = gzip.decompress(text)
        for line in text.decode().splitlines():
            _, found, hex_ = line.rpartition(" hex=")
            if found:
                yield bytes.fromhex(hex_)


def test_every_golden_frame_round_trips_byte_for_byte():
    wires = list(golden_wires())
    assert len(wires) == 8247
    assert all([assert_accepted_frame_is_its_bytes(wire) for wire in wires])


class TestCanonicalChecksums:
    """0xFFFF verifies where 0x0000 is due, but serialize never writes it there."""

    def test_ipv4_header_checksum_ffff_for_0000(self):
        wire = bytearray(serialize_frame(make_ipv4_frame(
            MacAddress.from_str("aa:00:00:00:00:05"), MacAddress.from_str("aa:00:00:00:00:02"),
            Ipv4Address.from_str("10.0.0.5"), Ipv4Address.from_str("10.0.0.2"), PROTO_TCP,
            tcp_segment(40000, 22), identification=26314)))
        assert wire[24:26] == b"\x00\x00"
        wire[24:26] = b"\xff\xff"
        assert internet_checksum(bytes(wire[14:34])) == 0
        with pytest.raises(frames.BadChecksum):
            parse_frame(bytes(wire))

    def test_icmp_checksum_ffff_for_0000(self):
        wire = bytearray(serialize_frame(make_icmp_echo(MAC_A, MAC_B, IP_A, IP_B,
                                                        identifier=0xF7FF)))
        assert wire[36:38] == b"\x00\x00"
        wire[36:38] = b"\xff\xff"
        assert internet_checksum(bytes(wire[34:])) == 0
        with pytest.raises(frames.BadChecksum):
            parse_frame(bytes(wire))

    def test_icmp_checksum_ffff_over_all_zero_data_is_due(self):
        icmp = IcmpMessage(0, 0, 0, 0, bytes(8))
        assert icmp.to_bytes()[2:4] == b"\xff\xff"
        assert IcmpMessage.from_bytes(icmp.to_bytes()) == icmp


class TestTypedCodecFailures:
    """Each frame the codec cannot read raises its own `FrameError`."""

    def ipv4(self) -> bytearray:
        return bytearray(serialize_frame(make_ipv4_frame(
            MAC_A, MAC_B, IP_A, IP_B, PROTO_TCP, tcp_segment(40000, 22))))

    @pytest.mark.parametrize("vihl", [0x46, 0x65, 0x44, 0x00])
    def test_ipv4_version_other_than_4_or_options(self, vihl):
        wire = self.ipv4()
        wire[14] = vihl
        with pytest.raises(UnsupportedIpHeader):
            parse_frame(with_ip_checksum(wire))

    @pytest.mark.parametrize("total", [0, 19, 41, 0xFFFF])
    def test_total_length_below_header_or_beyond_frame(self, total):
        wire = self.ipv4()  # a 40-byte packet
        wire[16:18] = total.to_bytes(2, "big")
        with pytest.raises(BadTotalLength):
            parse_frame(with_ip_checksum(wire))

    def test_padding_past_total_length_is_dropped(self):
        frame = parse_frame(bytes(self.ipv4()) + b"\x00" * 6)
        assert frame == parse_frame(bytes(self.ipv4()))

    @pytest.mark.parametrize("flags", [0x2000, 0x00B9, 0x20B9, 0x1FFF])
    def test_ipv4_fragment(self, flags):
        wire = self.ipv4()
        wire[20:22] = flags.to_bytes(2, "big")
        with pytest.raises(Fragment):
            parse_frame(with_ip_checksum(wire))

    @pytest.mark.parametrize("at, value", [(15, 0x10), (15, 0x01), (20, 0x40), (20, 0x80)],
                             ids=["tos", "ecn", "df", "reserved"])
    def test_ipv4_tos_df_and_reserved_flag_are_refused(self, at, value):
        wire = self.ipv4()
        wire[at] = value
        with pytest.raises(UnsupportedIpHeader):
            parse_frame(with_ip_checksum(wire))

    @pytest.mark.parametrize("header", ["000686dd0810", "00060800", "000186dd", "0001080008",
                                        "000108000610"])
    def test_arp_other_than_ethernet_ipv4(self, header):
        wire = bytearray(serialize_frame(make_arp(ARP_REQUEST, MAC_A, IP_A, MAC_B, IP_B)))
        wire[14:14 + len(header) // 2] = bytes.fromhex(header)
        with pytest.raises(UnsupportedArp):
            parse_frame(bytes(wire))

    def test_short_arp_body(self):
        wire = serialize_frame(make_arp(ARP_REQUEST, MAC_A, IP_A, MAC_B, IP_B))
        with pytest.raises(TooShort):
            parse_frame(wire[:-1])

    def test_short_ipv4_body(self):
        with pytest.raises(TooShort):
            parse_frame(bytes(self.ipv4()[:33]))
