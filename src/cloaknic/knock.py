"""Sealing and opening knock payloads.

A knock is a single 46-byte authenticated record carried in ICMP:

    magic "KNCK" (4) | version 0x01 (1) | flags 0x00 (1) | nonce (8) |
    ciphertext (16) | tag (16)

Plaintext block: client_ip(4) || client_port(2) || 0x0000 || timestamp(8),
all big-endian. Keystream = HMAC-SHA-256(key, nonce || 0x01)[:16],
tag = HMAC-SHA-256(key, magic || version || flags || nonce || ciphertext)[:16]
(encrypt-then-MAC; the tag is checked before any plaintext is touched).

Freshness: a knock is fresh while |now - timestamp| <= FRESHNESS_SECONDS
(30). Replay: an accepted nonce is rejected on re-presentation until it
ages out of the REPLAY_WINDOW_SECONDS (60) window. Expiry happens on write:
recording a nonce first forgets those recorded more than the window ago.
The window is twice the freshness bound so that a forgotten nonce is
already stale (see REPLAY_WINDOW_SECONDS).
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Union

from .frames import Ipv4Address

KNOCK_MAGIC = b"KNCK"
KNOCK_VERSION = 1
KNOCK_FLAGS = 0
NONCE_LEN = 8
CIPHERTEXT_LEN = 16
TAG_LEN = 16
PAYLOAD_LEN = 4 + 1 + 1 + NONCE_LEN + CIPHERTEXT_LEN + TAG_LEN  # 46
KEY_LEN = 32

FRESHNESS_SECONDS = 30
# The replay cache forgets a nonce one window after accepting it. Its knock
# was fresh until at most accept + 2 * freshness, so with this window a
# forgotten nonce can only come back stale.
REPLAY_WINDOW_SECONDS = 2 * FRESHNESS_SECONDS

_PLAINTEXT = struct.Struct(">4sHHQ")  # client_ip, client_port, reserved, timestamp
_tuple_new = tuple.__new__  # builds a value without its constructor's checks


class RejectReason(Enum):
    BAD_LENGTH = "BadLength"
    BAD_MAGIC = "BadMagic"
    BAD_VERSION = "BadVersion"
    BAD_TAG = "BadTag"
    STALE = "Stale"
    REPLAYED = "Replayed"
    NON_CANONICAL = "NonCanonical"  # flags, reserved bytes or port not as sealed


@dataclass(frozen=True)
class SharedKey:
    """A 32-byte key, with SHA-256 keyed by it once for HMAC's inner and outer
    hash (RFC 2104 §4): `prf` resumes copies of the two states."""

    key_bytes: bytes
    _inner: object = field(init=False, repr=False, compare=False)
    _outer: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError(f"shared key must be {KEY_LEN} bytes, got {len(self.key_bytes)}")
        block = self.key_bytes.ljust(64, b"\x00")  # SHA-256's block size
        object.__setattr__(self, "_inner", hashlib.sha256(_xor(block, b"\x36" * 64)))
        object.__setattr__(self, "_outer", hashlib.sha256(_xor(block, b"\x5c" * 64)))

    @classmethod
    def from_hex(cls, text: str) -> "SharedKey":
        return cls(bytes.fromhex(text))


class KnockFields(NamedTuple("KnockFields", [("client_ip", Ipv4Address), ("client_port", int),
                                               ("timestamp", int)])):
    """A knock's plaintext fields. The constructor checks the port and the
    timestamp; `open_knock` builds the fields it has checked itself with
    `tuple.__new__`."""

    __slots__ = ()

    def __new__(cls, client_ip: Ipv4Address, client_port: int, timestamp: int) -> "KnockFields":
        if not 1 <= client_port <= 0xFFFF:
            raise ValueError("client_port must be in [1, 65535]")
        if not 0 <= timestamp < 1 << 64:
            raise ValueError("timestamp must fit in 64 bits")
        return _tuple_new(cls, (client_ip, client_port, timestamp))

    def to_plaintext(self) -> bytes:
        ip, port, timestamp = self
        return _PLAINTEXT.pack(ip.octets, port, 0, timestamp)

    @classmethod
    def from_plaintext(cls, block: bytes) -> "KnockFields":
        ip, port, _, timestamp = _PLAINTEXT.unpack(block)
        return cls(_tuple_new(Ipv4Address, (ip,)), port, timestamp)


class ExpiryMap(OrderedDict):
    """Key -> last tick it is live. Each owner gives its entries one lifetime
    and writes at non-decreasing times, so `put` keeps the map in expiry order
    and `drop_expired` pops only an expired prefix: amortised O(1) per write.
    """

    def drop_expired(self, now: int) -> None:
        while self and now > self[next(iter(self))]:
            self.popitem(last=False)

    def put(self, key, expires: int) -> None:
        self[key] = expires
        self.move_to_end(key)


class ReplayCache:
    """Windowed set of accepted nonces, owned by a single NIC."""

    def __init__(self):
        self.seen = ExpiryMap()  # nonce -> last tick in the window

    def contains(self, nonce: bytes) -> bool:
        return nonce in self.seen

    def record(self, nonce: bytes, now: int) -> None:
        self.seen.drop_expired(now)
        self.seen.put(nonce, now + REPLAY_WINDOW_SECONDS)

    def __len__(self) -> int:
        return len(self.seen)


def prf(key: SharedKey, message: bytes) -> bytes:
    """HMAC-SHA-256; the cross-implementation interop anchor."""
    inner = key._inner.copy()
    inner.update(message)
    outer = key._outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def _xor(data: bytes, pad: bytes) -> bytes:
    """`data` XOR `pad`, both of `len(data)` bytes."""
    return (int.from_bytes(data, "big") ^ int.from_bytes(pad, "big")).to_bytes(
        len(data), "big")


def seal_knock(key: SharedKey, nonce: bytes, fields: KnockFields) -> bytes:
    """The 46-byte knock payload."""
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    plaintext = fields.to_plaintext()
    keystream = prf(key, nonce + b"\x01")[:CIPHERTEXT_LEN]
    header = KNOCK_MAGIC + bytes([KNOCK_VERSION, KNOCK_FLAGS])
    sealed = header + nonce + _xor(plaintext, keystream)
    return sealed + prf(key, sealed)[:TAG_LEN]


def open_knock(key: SharedKey, payload: bytes, now: int,
               cache: ReplayCache) -> Union[KnockFields, RejectReason]:
    """Validate a candidate knock; every failure is a silent typed rejection.

    The tag covers header, nonce and ciphertext and is verified before
    any plaintext field is read. A tag-valid knock that `seal_knock` could
    not have made (flags or reserved bytes not zero, port 0) is
    NON_CANONICAL, so every accepted payload equals its own reseal. A
    successful open records the nonce.
    """
    if len(payload) != PAYLOAD_LEN:
        return RejectReason.BAD_LENGTH
    if payload[:4] != KNOCK_MAGIC:
        return RejectReason.BAD_MAGIC
    if payload[4] != KNOCK_VERSION:
        return RejectReason.BAD_VERSION
    expected = prf(key, payload[:30])[:TAG_LEN]
    if not hmac.compare_digest(payload[30:30 + TAG_LEN], expected):
        return RejectReason.BAD_TAG
    # a forged tag, the common rejection, stops before the fields are sliced
    nonce = payload[6:6 + NONCE_LEN]
    keystream = prf(key, nonce + b"\x01")[:CIPHERTEXT_LEN]
    ip, port, reserved, timestamp = _PLAINTEXT.unpack(
        _xor(payload[14:14 + CIPHERTEXT_LEN], keystream))
    if payload[5] != KNOCK_FLAGS or not port or reserved:
        return RejectReason.NON_CANONICAL
    if abs(now - timestamp) > FRESHNESS_SECONDS:
        return RejectReason.STALE
    if cache.contains(nonce):
        return RejectReason.REPLAYED
    cache.record(nonce, now)
    # every field is checked: a port of 1 to 65535, a timestamp of 64 bits
    return _tuple_new(KnockFields, (_tuple_new(Ipv4Address, (ip,)), port, timestamp))


def is_knock_payload(data: bytes) -> bool:
    """Knock recognition: KNCK magic at offset 0 of the ICMP payload."""
    return data[:4] == KNOCK_MAGIC


def format_vector_line(key: SharedKey, nonce: bytes, fields: KnockFields) -> str:
    """`<key-hex> <nonce-hex> <ip> <port> <timestamp> <payload-hex>`"""
    payload = seal_knock(key, nonce, fields)
    return (
        f"{key.key_bytes.hex()} {nonce.hex()} {fields.client_ip} "
        f"{fields.client_port} {fields.timestamp} {payload.hex()}"
    )


def parse_vector_line(line: str) -> tuple[SharedKey, bytes, KnockFields, bytes]:
    key_hex, nonce_hex, ip, port, ts, payload_hex = line.split()
    return (
        SharedKey.from_hex(key_hex),
        bytes.fromhex(nonce_hex),
        KnockFields(Ipv4Address.from_str(ip), int(port), int(ts)),
        bytes.fromhex(payload_hex),
    )
