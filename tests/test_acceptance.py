"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import pathlib
import random
import struct
import time

import pytest

from cloaknic import frames
from cloaknic.cli import main
from cloaknic.demos import DEMOS, TEST_KEY_HEX
from cloaknic.frames import (
    Ipv4Address,
    MacAddress,
    internet_checksum,
    make_arp,
    make_icmp_echo,
    make_ipv4_frame,
    parse_frame,
    serialize_frame,
    tcp_segment,
    udp_datagram,
)
from cloaknic.knock import KnockFields, RejectReason, ReplayCache, SharedKey, open_knock, seal_knock
from cloaknic.nic import ByteFifo, CloakingNic, DropReason, DropRecord, NicConfig
from cloaknic.scenario import build_segment, parse_scenario, run_scenario

DATA = pathlib.Path(__file__).parent / "data"
KEY = SharedKey(bytes(range(32)))
GOLDEN = bytes.fromhex(
    "4b4e434b01000000000000000000"
    "2ae1f41280f0748090ad23413bc204ed"
    "baf376e2091d79e91f68bc87849291ff"
)


def ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_cloaking():
    start = time.monotonic()
    sc = parse_scenario(DEMOS["port-scan"])
    _, metrics = run_scenario(sc)
    server = metrics.node("server")
    assert server.tx == 0, "server emitted frames under scan"
    assert server.dropped_by_reason["NoFilterMatch"] == 1025
    assert sum(server.dropped_by_reason.values()) == 1025
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    ok(1, f"1024 SYNs + 1 echo -> 0 server frames, 1025 default drops ({elapsed:.2f}s)")


def test_criterion_2_knock_admission():
    sc = parse_scenario(DEMOS["happy-path"])
    seg = build_segment(sc)
    seg.run(sc.horizon)
    server = seg.metrics.node("server")
    nic = seg.node("server").nic
    assert server.delivered == 1
    assert server.arp_cache_writes == 1
    assert len(nic.filter) == 1
    assert list(nic.filter.entries) == [(Ipv4Address.from_str("10.0.0.5"), 40000)]
    ok(2, "happy path: delivered=1, arp_cache_writes=1, filter holds exactly "
          "<10.0.0.5, 40000>")


def test_criterion_3_tamper_rejection():
    server_mac = MacAddress.from_str("aa:00:00:00:00:02")
    client_mac = MacAddress.from_str("aa:00:00:00:00:05")
    server_ip = Ipv4Address.from_str("10.0.0.2")
    client_ip = Ipv4Address.from_str("10.0.0.5")
    acceptances = 0
    for bit in range(len(GOLDEN) * 8):
        mutated = bytearray(GOLDEN)
        mutated[bit // 8] ^= 1 << (bit % 8)
        nic = CloakingNic(NicConfig(mac=server_mac, ip=server_ip,
                                    role_keys={client_ip: KEY}))
        wire = serialize_frame(make_icmp_echo(client_mac, server_mac,
                                              client_ip, server_ip, bytes(mutated)))
        actions = nic.on_wire_receive(wire, now=1000)
        if actions.tx_frames or len(nic.filter) != 0:
            acceptances += 1
        # header flips that clear the magic demote the packet to a plain
        # ICMP drop; everything else is a BadKnock drop -- never silence-free
        assert len(actions.drops) == 1
    assert acceptances == 0
    ok(3, "all 368 single-bit flips rejected: no frame emitted, no filter mutation")


def test_criterion_4_replay_immunity():
    sc = parse_scenario(DEMOS["replay"])
    seg = build_segment(sc)
    server = seg.node("server")
    snapshot = None
    while seg.pending:
        seg.step()
        if snapshot is None and len(server.nic.filter) == 1:
            snapshot = dict(server.nic.filter.entries)
    replays = [r for r in seg.trace
               if r.node == "server" and r.event == DropRecord(DropReason.BAD_KNOCK, 2, "Replayed")]
    assert len(replays) == 1
    assert dict(server.nic.filter.entries) == snapshot
    assert len(server.nic.filter) == 1
    ok(4, "replayed knock dropped as Replayed; filter count and expiry unchanged")


def test_criterion_5_arp_poison_differential():
    sc = parse_scenario(DEMOS["arp-poison"])
    _, metrics = run_scenario(sc)
    cloaked = metrics.node("server").arp_cache_writes
    plain = metrics.node("plain").arp_cache_writes
    assert cloaked == 0
    assert plain >= 1
    ok(5, f"identical poison program: cloaked arp_cache_writes={cloaked}, plain={plain}")


def test_criterion_6_cep_separation():
    sc = parse_scenario(DEMOS["baseline-comparison"])
    trace, _ = run_scenario(sc)
    cloaked = [r.stage_count for r in trace
               if r.node == "server" and r.direction == "drop"]
    plain = [r.stage_count for r in trace
             if r.node == "plain" and r.direction in ("drop", "host_event")]
    assert len(cloaked) == 1025 and len(plain) == 1025
    pairs = list(zip(cloaked, plain))
    assert all(c == 1 and p >= 3 and c < p for c, p in pairs)
    ok(6, f"per-probe stage counts: cloaked=1 < baseline>=3 for all {len(pairs)} probes")


def test_criterion_7_fifo_sizing():
    fifo = ByteFifo()
    assert fifo.push(b"\xaa" * 1518)
    assert fifo.push(b"\xbb" * 1518)
    for size in (1, 64, 1518):
        assert not fifo.push(b"\xcc" * size)
    assert fifo.pop() == b"\xaa" * 1518
    assert fifo.push(b"\xcc" * 64)
    ok(7, "two 1518-byte frames fill the FIFO, third overflows, pop resumes acceptance")


def test_criterion_8_codec_soundness():
    rng = random.Random(1)
    macs = lambda: MacAddress(rng.randbytes(6))
    ips = lambda: Ipv4Address(rng.randbytes(4))
    mismatches = 0
    for i in range(10_000):
        kind = i % 4
        if kind == 0:
            f = make_arp(rng.choice([1, 2]), macs(), ips(), macs(), ips())
        elif kind == 1:
            f = make_icmp_echo(macs(), macs(), ips(), ips(),
                               rng.randbytes(rng.randrange(0, 64)),
                               rng.randrange(0, 65536), rng.randrange(0, 65536))
        elif kind == 2:
            f = make_ipv4_frame(macs(), macs(), ips(), ips(), frames.PROTO_TCP,
                                tcp_segment(rng.randrange(1, 65536), rng.randrange(1, 65536),
                                            flags=rng.randrange(0, 256)))
        else:
            f = make_ipv4_frame(macs(), macs(), ips(), ips(), frames.PROTO_UDP,
                                udp_datagram(rng.randrange(1, 65536), rng.randrange(1, 65536),
                                             rng.randbytes(rng.randrange(0, 64))))
        wire = serialize_frame(f)
        if parse_frame(wire) != f:
            mismatches += 1
        # checksum verification sums to 0xFFFF on every IPv4/ICMP output
        if f.ethertype == frames.ETHERTYPE_IPV4:
            assert internet_checksum(wire[14:34]) == 0
            if kind == 1:
                assert internet_checksum(wire[34:]) == 0
    assert mismatches == 0
    crashes = 0
    for _ in range(100_000):
        data = rng.randbytes(rng.randrange(0, 128))
        try:
            parse_frame(data)
        except frames.FrameError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0
    ok(8, "10000 round trips, 0 mismatches; checksums verify; 100000-buffer fuzz, 0 crashes")


def test_criterion_9_crypto_interop():
    # knock golden vectors regenerate byte-identically from the construction
    frozen = (DATA / "knock_vectors.txt").read_text()
    regenerated = []
    for i in range(8):
        fields = KnockFields(Ipv4Address.from_str("10.0.0.5"), 40000, 1000 + i)
        payload = seal_knock(KEY, struct.pack(">Q", i), fields)
        regenerated.append(
            f"{KEY.key_bytes.hex()} {struct.pack('>Q', i).hex()} 10.0.0.5 40000 "
            f"{1000 + i} {payload.hex()}")
    assert "".join(line + "\n" for line in regenerated) == frozen
    assert frozen.splitlines()[0].endswith(GOLDEN.hex())

    # the PRF primitive matches the RFC 4231 HMAC-SHA-256 conformance vectors
    import hashlib
    import hmac as hmac_mod

    vectors = [
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
    for key_hex, msg, digest in vectors:
        assert hmac_mod.new(bytes.fromhex(key_hex), msg, hashlib.sha256).hexdigest() == digest
    ok(9, "golden knock vectors regenerate byte-identically; HMAC-SHA-256 matches RFC 4231")


def test_criterion_10_determinism(tmp_path):
    for name in sorted(DEMOS):
        pair = []
        for run in range(2):
            trace = tmp_path / f"{name}-{run}.trace"
            rc = main(["demo", name, "--quiet", "--seed", "7", "--hex",
                       "--trace", str(trace), "--metrics", str(tmp_path / "m")])
            assert rc == 0
            pair.append(trace.read_bytes())
        assert pair[0] == pair[1], f"demo {name} trace differs between runs"
    ok(10, "every demo run twice with the same seed yields byte-identical traces")
