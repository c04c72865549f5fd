"""RFC 1071 checksum against an independent end-around-carry oracle."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloaknic.frames import MAX_PAYLOAD, internet_checksum


def oracle_checksum(data: bytes) -> int:
    # deliberately different shape: per-word loop with immediate carry fold
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def test_empty_input():
    assert internet_checksum(b"") == 0xFFFF


def test_known_ipv4_header():
    header = bytes.fromhex("4500001C000100004001" "0000" "C0A80001C0A80002")
    assert oracle_checksum(header) == 0xF98C
    assert internet_checksum(header) == 0xF98C


def test_insertion_verifies():
    header = bytes.fromhex("4500001C000100004001" "0000" "C0A80001C0A80002")
    cks = internet_checksum(header)
    filled = header[:10] + struct.pack(">H", cks) + header[12:]
    # verification: one's-complement sum of a valid buffer is 0xFFFF
    assert internet_checksum(filled) == 0
    total = sum(struct.unpack(f">{len(filled)//2}H", filled))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF


@given(st.binary(max_size=MAX_PAYLOAD))
def test_matches_oracle(data):
    assert internet_checksum(data) == oracle_checksum(data)


@pytest.mark.parametrize("fill", [0x00, 0xFF])
def test_uniform_buffers_match_oracle(fill):
    # all-zero data sums to 0; all-0xFF data sums to 0xFFFF, a multiple of 0xFFFF
    for n in range(MAX_PAYLOAD + 1):
        data = bytes([fill]) * n
        assert internet_checksum(data) == oracle_checksum(data), n


@pytest.mark.parametrize("words", [[0xFFFF], [0x0001, 0xFFFE], [0xFFFF, 0xFFFF, 0x0000],
                                   [0x8000, 0x8000, 0xFFFE]])
def test_nonzero_multiples_of_ffff_sum_to_ffff(words):
    data = struct.pack(f">{len(words)}H", *words)
    assert internet_checksum(data) == oracle_checksum(data) == 0


@given(st.binary(min_size=2, max_size=256).filter(lambda d: len(d) % 2 == 0))
def test_inserted_checksum_sums_to_ffff(data):
    cks = internet_checksum(data)
    filled = data + struct.pack(">H", cks)
    total = sum(struct.unpack(f">{len(filled)//2}H", filled))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    assert total == 0xFFFF
