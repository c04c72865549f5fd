import hashlib
import hmac
import os
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloaknic.frames import Ipv4Address
from cloaknic.knock import (
    PAYLOAD_LEN,
    REPLAY_WINDOW_SECONDS,
    KnockFields,
    RejectReason,
    ReplayCache,
    SharedKey,
    format_vector_line,
    is_knock_payload,
    open_knock,
    parse_vector_line,
    prf,
    seal_knock,
)

KEY = SharedKey(bytes(range(32)))
FIELDS = KnockFields(Ipv4Address.from_str("10.0.0.5"), 40000, 1000)
NONCE0 = bytes(8)
GOLDEN_PAYLOAD_HEX = (
    "4b4e434b01000000000000000000"
    "2ae1f41280f0748090ad23413bc204ed"
    "baf376e2091d79e91f68bc87849291ff"
)
VECTOR_FILE = pathlib.Path(__file__).parent / "data" / "knock_vectors.txt"


# RFC 4231 conformance vectors (test cases 1-4, 6, 7)
RFC4231 = [
    ("0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    ("4a656665", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    ("aa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    ("0102030405060708090a0b0c0d0e0f10111213141516171819", b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    ("aa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    ("aa" * 131,
     b"This is a test using a larger than block-size key and a larger "
     b"than block-size data. The key needs to be hashed before being "
     b"used by the HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


class TestPrf:
    @pytest.mark.parametrize("key_hex,msg,digest", RFC4231)
    def test_rfc4231(self, key_hex, msg, digest):
        # prf requires 32-byte keys; go through hmac with the raw key length
        import hashlib
        import hmac as hmac_mod

        assert hmac_mod.new(bytes.fromhex(key_hex), msg, hashlib.sha256).hexdigest() == digest

    def test_prf_is_rfc4231_conformant_at_32_bytes(self):
        # padding RFC 4231 case 1's 20-byte key to the mandated 32 changes the
        # digest, so anchor prf itself on a derived 32-byte-key vector instead
        import hashlib
        import hmac as hmac_mod

        key = SharedKey(b"\x0b" * 32)
        expected = hmac_mod.new(b"\x0b" * 32, b"Hi There", hashlib.sha256).digest()
        assert prf(key, b"Hi There") == expected
        assert len(prf(key, b"")) == 32

    def test_deterministic(self):
        assert prf(KEY, b"msg") == prf(KEY, b"msg")

    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=200),
           st.binary(max_size=200))
    def test_prf_is_hmac_sha256(self, key_bytes, earlier, msg):
        # the key's kept hash states are copied, never advanced, by each call
        key = SharedKey(key_bytes)
        prf(key, earlier)
        assert prf(key, msg) == hmac.new(key_bytes, msg, hashlib.sha256).digest()

    @given(st.binary(min_size=32, max_size=32), st.integers(0, 255), st.binary(max_size=64))
    def test_key_bit_flip_changes_output(self, key_bytes, bit, msg):
        flipped = bytearray(key_bytes)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert prf(SharedKey(key_bytes), msg) != prf(SharedKey(bytes(flipped)), msg)


class TestSharedKey:
    @pytest.mark.parametrize("n", [0, 31, 33, 64])
    def test_wrong_length_rejected(self, n):
        with pytest.raises(ValueError):
            SharedKey(b"\x00" * n)

    def test_from_hex(self):
        assert SharedKey.from_hex("00" * 32).key_bytes == bytes(32)


class TestSeal:
    def test_golden_vector(self):
        payload = seal_knock(KEY, NONCE0, FIELDS)
        assert len(payload) == PAYLOAD_LEN == 46
        assert payload.hex() == GOLDEN_PAYLOAD_HEX

    def test_round_trip(self):
        payload = seal_knock(KEY, NONCE0, FIELDS)
        got = open_knock(KEY, payload, now=1000, cache=ReplayCache())
        assert got == FIELDS

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            seal_knock(KEY, b"\x00" * 7, FIELDS)

    @given(st.binary(min_size=8, max_size=8), st.binary(min_size=8, max_size=8))
    def test_nonce_separation(self, n1, n2):
        if n1 == n2:
            return
        c1 = seal_knock(KEY, n1, FIELDS)[14:30]
        c2 = seal_knock(KEY, n2, FIELDS)[14:30]
        assert c1 != c2

    def test_port_zero_rejected(self):
        with pytest.raises(ValueError):
            KnockFields(Ipv4Address.from_str("10.0.0.5"), 0, 1000)

    @pytest.mark.parametrize("port, timestamp", [(0, 1000), (65536, 1000), (40000, 2**64),
                                                 (40000, -1)])
    def test_the_checked_constructor_refuses_fields_out_of_range(self, port, timestamp):
        with pytest.raises(ValueError):
            KnockFields(Ipv4Address.from_str("10.0.0.5"), port, timestamp)

    @pytest.mark.parametrize("port, timestamp", [(1, 0), (0xFFFF, 2**64 - 1)])
    def test_fields_at_the_bounds_are_sealed_and_read_back(self, port, timestamp):
        fields = KnockFields(Ipv4Address.from_str("10.0.0.5"), port, timestamp)
        payload = seal_knock(KEY, NONCE0, fields)
        assert open_knock(KEY, payload, now=timestamp, cache=ReplayCache()) == fields


@st.composite
def valid_fields(draw):
    return KnockFields(
        Ipv4Address(draw(st.binary(min_size=4, max_size=4))),
        draw(st.integers(1, 0xFFFF)),
        draw(st.integers(0, 2**40)),
    )


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=8, max_size=8), valid_fields())
def test_seal_open_round_trip_property(key_bytes, nonce, fields):
    key = SharedKey(key_bytes)
    payload = seal_knock(key, nonce, fields)
    assert open_knock(key, payload, now=fields.timestamp, cache=ReplayCache()) == fields


class TestOpenRejections:
    def golden(self) -> bytes:
        return bytes.fromhex(GOLDEN_PAYLOAD_HEX)

    def test_bad_length(self):
        assert open_knock(KEY, self.golden()[:-1], 1000, ReplayCache()) is RejectReason.BAD_LENGTH
        assert open_knock(KEY, b"", 1000, ReplayCache()) is RejectReason.BAD_LENGTH

    def test_all_368_single_bit_flips_rejected(self):
        golden = self.golden()
        for bit in range(len(golden) * 8):
            mutated = bytearray(golden)
            mutated[bit // 8] ^= 1 << (bit % 8)
            result = open_knock(KEY, bytes(mutated), 1000, ReplayCache())
            assert isinstance(result, RejectReason), f"bit {bit} accepted"
            if bit < 32:
                assert result is RejectReason.BAD_MAGIC
            elif bit < 40:
                assert result is RejectReason.BAD_VERSION
            else:
                assert result is RejectReason.BAD_TAG

    def test_wrong_key(self):
        other = SharedKey(bytes(32))
        assert open_knock(other, self.golden(), 1000, ReplayCache()) is RejectReason.BAD_TAG

    def test_stale_boundary(self):
        fresh = open_knock(KEY, self.golden(), now=1000 + 30, cache=ReplayCache())
        assert fresh == FIELDS
        assert open_knock(KEY, self.golden(), now=1000 + 31,
                          cache=ReplayCache()) is RejectReason.STALE
        # freshness is symmetric: a future-dated knock is equally stale
        assert open_knock(KEY, self.golden(), now=1000 - 31,
                          cache=ReplayCache()) is RejectReason.STALE

    def test_replay(self):
        cache = ReplayCache()
        assert open_knock(KEY, self.golden(), 1000, cache) == FIELDS
        assert open_knock(KEY, self.golden(), 1001, cache) is RejectReason.REPLAYED

    def test_rejection_does_not_pollute_cache(self):
        cache = ReplayCache()
        open_knock(SharedKey(bytes(32)), self.golden(), 1000, cache)
        assert len(cache) == 0

    def test_forgery_resistance_one_million_trials(self):
        # randomized payloads with a valid header (worst case: the tag check
        # is the only gate) under a key they were not sealed with
        rng = __import__("random").Random(7)
        cache = ReplayCache()
        header = bytes([0x4B, 0x4E, 0x43, 0x4B, 0x01, 0x00])
        acceptances = sum(
            not isinstance(open_knock(KEY, header + rng.randbytes(40), 1000, cache),
                           RejectReason)
            for _ in range(1_000_000))
        assert acceptances == 0


def hand_sealed(key: SharedKey, nonce: bytes, plaintext: bytes, flags: int = 0) -> bytes:
    """A tag-valid knock over any plaintext block and flags byte: `seal_knock`'s
    construction without the checks `KnockFields` makes."""
    keystream = prf(key, nonce + b"\x01")[:16]
    sealed = b"KNCK" + bytes([1, flags]) + nonce + bytes(
        p ^ k for p, k in zip(plaintext, keystream))
    return sealed + prf(key, sealed)[:16]


def plaintext(ip=b"\x0a\x00\x00\x05", port=40000, reserved=b"\x00\x00", ts=1000) -> bytes:
    return ip + port.to_bytes(2, "big") + reserved + ts.to_bytes(8, "big")


class TestNonCanonical:
    """A tag-valid knock that `seal_knock` could not have made is refused."""

    def test_hand_seal_of_canonical_fields_is_the_seal(self):
        assert hand_sealed(KEY, NONCE0, plaintext()).hex() == GOLDEN_PAYLOAD_HEX

    @pytest.mark.parametrize("block, flags", [
        (plaintext(port=0), 0),
        (plaintext(reserved=b"\xab\xcd"), 0),
        (plaintext(), 1),
        (plaintext(), 0x80),
    ])
    def test_refused_and_not_recorded(self, block, flags):
        cache = ReplayCache()
        payload = hand_sealed(KEY, NONCE0, block, flags)
        assert open_knock(KEY, payload, 1000, cache) is RejectReason.NON_CANONICAL
        assert len(cache) == 0


@given(st.binary(min_size=32, max_size=32), st.binary(min_size=8, max_size=8),
       st.binary(min_size=4, max_size=4), st.one_of(st.just(0), st.integers(0, 0xFFFF)),
       st.one_of(st.just(b"\x00\x00"), st.binary(min_size=2, max_size=2)),
       st.integers(0, 2**64 - 1), st.one_of(st.just(0), st.integers(0, 0xFF)))
def test_open_is_total_and_accepts_only_its_own_seals(key_bytes, nonce, ip, port, reserved,
                                                     ts, flags):
    key = SharedKey(key_bytes)
    payload = hand_sealed(key, nonce, plaintext(ip, port, reserved, ts), flags)
    result = open_knock(key, payload, now=ts, cache=ReplayCache())
    if flags == 0 and port != 0 and reserved == b"\x00\x00":
        assert result == KnockFields(Ipv4Address(ip), port, ts)
        assert seal_knock(key, nonce, result) == payload
    else:
        assert result is RejectReason.NON_CANONICAL


class TestReplayCacheExpiry:
    """A record first forgets the nonces recorded more than the window ago."""

    def test_window_arithmetic(self):
        cache = ReplayCache()
        cache.record(b"\x01" * 8, 0)
        cache.record(b"\x02" * 8, 61)
        assert len(cache) == 1
        assert not cache.contains(b"\x01" * 8)

    def test_boundary_is_strict(self):
        cache = ReplayCache()
        cache.record(b"\x01" * 8, 0)
        cache.record(b"\x02" * 8, 60)
        assert len(cache) == 2
        assert cache.contains(b"\x01" * 8)

    def test_idempotent(self):
        cache = ReplayCache()
        cache.record(b"\x01" * 8, 0)
        cache.record(b"\x02" * 8, 50)
        cache.record(b"\x03" * 8, 61)
        first = dict(cache.seen)
        assert first == {b"\x02" * 8: 110, b"\x03" * 8: 121}
        cache.seen.drop_expired(61)
        assert cache.seen == first

    def test_expired_prefix_popped_in_order(self):
        cache, window = ReplayCache(), REPLAY_WINDOW_SECONDS
        for t in range(200):
            cache.record(t.to_bytes(8, "big"), t)
            assert list(cache.seen.values()) == list(range(max(0, t - window) + window,
                                                           t + window + 1))


class TestVectorFile:
    def test_frozen_vectors_open_correctly(self):
        lines = VECTOR_FILE.read_text().splitlines()
        assert len(lines) == 8
        for line in lines:
            key, nonce, fields, payload = parse_vector_line(line)
            assert seal_knock(key, nonce, fields) == payload
            assert open_knock(key, payload, fields.timestamp, ReplayCache()) == fields

    def test_format_line_round_trip(self):
        line = format_vector_line(KEY, NONCE0, FIELDS)
        key, nonce, fields, payload = parse_vector_line(line)
        assert (key, nonce, fields) == (KEY, NONCE0, FIELDS)
        assert payload.hex() == GOLDEN_PAYLOAD_HEX


def test_is_knock_payload():
    assert is_knock_payload(bytes.fromhex(GOLDEN_PAYLOAD_HEX))
    assert not is_knock_payload(b"ping")
    assert not is_knock_payload(b"")
