"""The benchmark's workloads: seeded inputs and the checks on their outputs.

Each workload builds one deterministic scenario from its seed (scenario text
plus frames pushed with `Segment.inject`) and checks the finished segment's
trace and metrics. The checks decode frames from the trace's hex with their
own byte offsets, not with the program's codec, so a codec defect cannot
hide itself.

Why each workload exists:

- `scan`: codec, dispatch and rendering with no crypto. The cloaked server
  drops every probe at stage 1; the plain host answers every probe at
  stage 3. This is the sweep the roadmap's frames/s target names.
- `knock-storm`: 16 keyed clients knock from rotating ports. Dispatch fans
  each frame out to 16 receivers, and the knock success path, the filter
  table and the parsing of thousands of `send` lines are exercised. More
  distinct <ip, port> pairs than the filter capacity are used over a run,
  though far fewer are live at once, so a filter that counts expired
  entries shows up as failed sends.
- `forged-flood`: forged and replayed knocks against a cloaked server while
  a client keeps working: the work an attacker can force through the knock
  and NIC reject paths.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from cloaknic import frames

SERVER = ("server", "10.0.0.2", "aa:00:00:00:00:02")
PLAIN = ("plain", "10.0.0.3", "aa:00:00:00:00:03")
CLIENT = ("client", "10.0.0.5", "aa:00:00:00:00:05")
MALLORY = ("mallory", "10.0.0.66", "aa:00:00:00:00:66")

# Expectations the checks hold the program to. The self-test changes one of
# them to prove that a wrong expectation fails the run.
CLOAKED_TX = 0
FRESHNESS_SECONDS = 30  # the NIC's default knock freshness window

EPHEMERAL_PORTS = range(32768, 61000)
MAX_PROBLEMS = 5

SIZES = {
    "full": {
        "scan": {"ports": 4096, "chunk": 256},
        "knock-storm": {"clients": 16, "sends": 1500, "repeat_share": 0.25,
                        "repeat_window": 30},
        "forged-flood": {"cycles": 20, "forged": 20000, "replays": 100},
    },
    "tiny": {
        "scan": {"ports": 300, "chunk": 64},
        "knock-storm": {"clients": 4, "sends": 120, "repeat_share": 0.25,
                        "repeat_window": 30},
        "forged-flood": {"cycles": 2, "forged": 200, "replays": 10},
    },
}

# A forged-flood cycle: the client sends every SEND_EVERY ticks for
# ACTIVE_TICKS, then stays quiet, so replays land both while the captured
# knock is fresh and after it has gone stale.
CYCLE_TICKS = 100
ACTIVE_TICKS = 40
SEND_EVERY = 4
FLOOD_REPEAT_SHARE = 0.3


@dataclass
class Case:
    """One workload's generated inputs and what its checks need to know."""

    seed: int
    text: str
    inject: List[Tuple[int, bytes, str]] = field(default_factory=list)
    keys: Dict[bytes, bytes] = field(default_factory=dict)  # client ip -> key
    services: Set[int] = field(default_factory=set)
    ports: int = 0
    sends: int = 0
    replays: int = 0
    forged: Set[bytes] = field(default_factory=set)
    input_facts: Dict[str, int] = field(default_factory=dict)


@dataclass
class Outcome:
    """Operations attempted and succeeded, and every failed check."""

    attempted: int
    succeeded: int
    problems: List[str]

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded


def _ip(text: str) -> bytes:
    return bytes(int(p) for p in text.split("."))


def _mac(text: str) -> bytes:
    return bytes.fromhex(text.replace(":", ""))


def _node_line(node, kind: str, extra: str = "") -> str:
    name, ip, mac = node
    return f"{name} {kind} {ip} {mac}{extra}"


# --------------------------------------------------------------------------
# frame decoding by byte offset (Ethernet II, IPv4 with IHL 5)

def _ethertype(w: bytes) -> int:
    return int.from_bytes(w[12:14], "big")


def _ipv4_proto(w: bytes) -> Optional[int]:
    return w[23] if _ethertype(w) == 0x0800 and len(w) >= 34 else None


def _tcp(w: bytes) -> Optional[Tuple[bytes, bytes, int, int, int]]:
    """(src ip, dst ip, src port, dst port, flags) of a TCP frame."""
    if _ipv4_proto(w) != 6 or len(w) < 54:
        return None
    return (w[26:30], w[30:34], int.from_bytes(w[34:36], "big"),
            int.from_bytes(w[36:38], "big"), w[47])


def _knock_payload(w: bytes) -> Optional[bytes]:
    if _ipv4_proto(w) == 1 and len(w) >= 42 + 46 and w[42:46] == b"KNCK":
        return w[42:]
    return None


def _open_knock(key: bytes, payload: bytes) -> Tuple[bytes, int, int]:
    """(client ip, client port, timestamp) sealed in a knock; tag not checked."""
    keystream = hmac.new(key, payload[6:14] + b"\x01", hashlib.sha256).digest()[:16]
    plain = bytes(c ^ k for c, k in zip(payload[14:30], keystream))
    return plain[:4], int.from_bytes(plain[4:6], "big"), int.from_bytes(plain[8:16], "big")


class _Problems(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)


# --------------------------------------------------------------------------
# scan

def make_scan(seed: int, size: dict) -> Case:
    rng = random.Random(seed)
    ports, chunk = size["ports"], size["chunk"]
    services = {22} | set(rng.sample(range(1, ports + 1), 6))
    chunks = [(lo, min(lo + chunk - 1, ports)) for lo in range(1, ports + 1, chunk)]
    lines = ["[nodes]", _node_line(MALLORY, "attacker"),
             _node_line(SERVER, "cloaked", " services=22"),
             _node_line(PLAIN, "plainhost", " services=" + ",".join(map(str, sorted(services)))),
             "[steps]"]
    t = 1
    for target in (SERVER[0], PLAIN[0]):
        order = chunks[:]
        rng.shuffle(order)
        for lo, hi in order:
            lines.append(f"{t} attack mallory portscan {target} {lo}-{hi}")
            t += 2
        if target == SERVER[0]:
            lines.append(f"{t} attack mallory ping server")
            t += 2
    lines += ["[horizon]", str(t + 10)]
    return Case(seed, "\n".join(lines) + "\n", services=services, ports=ports)


def check_scan(case: Case, seg) -> Outcome:
    problems = _Problems()
    server_ip, plain_ip, mallory_ip = _ip(SERVER[1]), _ip(PLAIN[1]), _ip(MALLORY[1])
    server_tx = seg.metrics.nodes[SERVER[0]].tx
    if server_tx != CLOAKED_TX:
        problems.add(f"cloaked server transmitted {server_tx} frames, expected {CLOAKED_TX}")
    dropped = [0] * (case.ports + 1)   # per probed port, server stage-1 drops
    answered = [0] * (case.ports + 1)  # per probed port, correct plain replies
    pings = delivered = 0
    for rec in seg.trace:
        if rec.direction == "rx" and rec.stage_count == 0:
            continue  # "ignored (other dst)": not addressed to this node
        if rec.node == SERVER[0]:
            if rec.direction != "drop" or rec.stage_count != 1 \
                    or not rec.summary.startswith("NoFilterMatch"):
                problems.add(f"cloaked server: unexpected record {rec.format_line()}")
                continue
            w = bytes.fromhex(rec.raw_hex)
            tcp = _tcp(w)
            if tcp and tcp[:2] == (mallory_ip, server_ip) and tcp[4] == 0x02:
                dropped[tcp[3]] += 1
            elif _ipv4_proto(w) == 1 and w[34] == 8:
                pings += 1
            else:
                problems.add(f"cloaked server dropped a frame that is no probe: {rec.summary}")
        elif rec.node == PLAIN[0]:
            if rec.direction == "tx":
                tcp = _tcp(bytes.fromhex(rec.raw_hex))
                want = 0x12 if tcp and tcp[2] in case.services else 0x14  # SYN/ACK, RST/ACK
                if tcp and tcp[:2] == (plain_ip, mallory_ip) and tcp[4] == want:
                    answered[tcp[2]] += 1
                else:
                    problems.add(f"plain host sent a wrong reply: {rec.summary}")
            elif rec.direction == "host_event" and rec.stage_count == 3 \
                    and rec.summary.startswith("delivered"):
                delivered += 1
            else:
                problems.add(f"plain host: unexpected record {rec.format_line()}")
    good_server = sum(1 for c in dropped[1:] if c == 1)
    good_plain = sum(1 for c in answered[1:] if c == 1)
    if good_server != case.ports or pings != 1:
        problems.add(f"cloaked server dropped {good_server}/{case.ports} probes exactly once "
                     f"and {pings}/1 pings at stage 1")
    if good_plain != case.ports or delivered != case.ports:
        problems.add(f"plain host answered {good_plain}/{case.ports} probes exactly once, "
                     f"{delivered} delivered at stage 3")
    succeeded = good_server + min(pings, 1) + min(good_plain, delivered)
    return Outcome(2 * case.ports + 1, succeeded, problems)


# --------------------------------------------------------------------------
# knock-storm

def make_knock_storm(seed: int, size: dict) -> Case:
    rng = random.Random(seed)
    n_clients, sends = size["clients"], size["sends"]
    clients = [(f"c{i:02d}", f"10.0.1.{i + 1}", f"aa:00:00:00:01:{i + 1:02x}")
               for i in range(n_clients)]
    keys = {c[0]: rng.randbytes(32) for c in clients}
    lines = ["[nodes]", _node_line(SERVER, "cloaked", " services=22")]
    lines += [_node_line(c, "client") for c in clients]
    lines.append("[keys]")
    lines += [f"{c[0]} server {keys[c[0]].hex()}" for c in clients]
    lines.append("[protected]")
    lines += [f"{c[0]} server" for c in clients]
    lines.append("[steps]")
    fresh = {c[0]: rng.sample(EPHEMERAL_PORTS, len(EPHEMERAL_PORTS)) for c in clients}
    first_use: Dict[str, List[Tuple[int, int]]] = {c[0]: [] for c in clients}
    for t in range(1, sends + 1):
        name = clients[rng.randrange(n_clients)][0]
        # a repeat reuses a port first knocked well inside the filter TTL,
        # so it is a filter hit with no crypto
        recent = [p for p, t0 in first_use[name] if t - t0 < size["repeat_window"]]
        if recent and rng.random() < size["repeat_share"]:
            port = rng.choice(recent)
        else:
            port = fresh[name].pop()
            first_use[name].append((port, t))
        lines.append(f"{t} send {name} server tcp {port} 22")
    lines += ["[horizon]", str(sends + 20)]
    distinct = sum(len(v) for v in first_use.values())
    return Case(seed, "\n".join(lines) + "\n",
                keys={_ip(c[1]): keys[c[0]] for c in clients}, sends=sends,
                input_facts={"distinct_pairs": distinct})


def check_knock_storm(case: Case, seg) -> Outcome:
    problems = _Problems()
    server_ip, server_mac = _ip(SERVER[1]), _mac(SERVER[2])
    rejected = {rec.raw_hex for rec in seg.trace
                if rec.node == SERVER[0] and rec.direction == "drop"
                and rec.summary.startswith("BadKnock")}
    admitted: Set[Tuple[bytes, int]] = set()
    accepted = updates = tcp_at_server = 0
    for rec in seg.trace:
        if rec.direction == "tx" and rec.node != SERVER[0]:
            w = bytes.fromhex(rec.raw_hex)
            payload = _knock_payload(w)
            if payload is not None and rec.time < seg.clock and rec.raw_hex not in rejected:
                ip, port, _ts = _open_knock(case.keys[w[26:30]], payload)
                admitted.add((ip, port))
                accepted += 1
            continue
        if rec.node != SERVER[0]:
            continue
        if rec.direction == "tx":
            w = bytes.fromhex(rec.raw_hex)
            if not (_ethertype(w) == 0x0806 and w[20:22] == b"\x00\x02"
                    and w[22:28] == server_mac and w[28:32] == server_ip):
                problems.add(f"cloaked server sent something other than its ARP reply: "
                             f"{rec.summary}")
        elif rec.direction == "host_event" and rec.summary.startswith("arp-cache-update"):
            updates += 1
        elif rec.direction == "host_event" and rec.summary.startswith("delivered"):
            tcp_at_server += 1
            tcp = _tcp(bytes.fromhex(rec.raw_hex))
            if tcp is None or (tcp[0], tcp[2]) not in admitted:
                problems.add(f"delivered without an earlier accepted knock: {rec.summary}")
        elif rec.direction == "drop":
            if rec.summary.startswith("BadKnock") and "TableFull" not in rec.summary:
                problems.add(f"legitimate knock rejected: {rec.summary}")
            elif rec.summary.startswith("NoFilterMatch") and " tcp " in rec.summary:
                tcp_at_server += 1
    delivered = seg.metrics.nodes[SERVER[0]].delivered
    if updates != accepted:
        problems.add(f"{updates} admissions at the server, but {accepted} knocks accepted")
    if tcp_at_server != case.sends:
        problems.add(f"{tcp_at_server} transport frames reached the server for "
                     f"{case.sends} sends")
    return Outcome(case.sends, delivered, problems)


# --------------------------------------------------------------------------
# forged-flood

def make_forged_flood(seed: int, size: dict) -> Case:
    rng = random.Random(seed)
    key = rng.randbytes(32)
    horizon = size["cycles"] * CYCLE_TICKS
    lines = ["[nodes]", _node_line(MALLORY, "attacker"),
             _node_line(SERVER, "cloaked", " services=22"), _node_line(CLIENT, "client"),
             "[keys]", f"client server {key.hex()}", "[protected]", "client server",
             "[steps]"]
    ports = rng.sample(EPHEMERAL_PORTS, horizon)
    sends, port = 0, ports.pop()
    for cycle in range(size["cycles"]):
        for t in range(cycle * CYCLE_TICKS + 2, cycle * CYCLE_TICKS + ACTIVE_TICKS, SEND_EVERY):
            if rng.random() >= FLOOD_REPEAT_SHARE:
                port = ports.pop()
            lines.append(f"{t} send client server tcp {port} 22")
            sends += 1
    # the first knock is on the wire by t=5, so every replay has one to use
    replay_times = sorted(rng.sample(range(10, horizon), size["replays"]))
    lines += [f"{t} attack mallory knockreplay" for t in replay_times]
    lines += ["[horizon]", str(horizon + 10)]

    mallory_mac, server_mac = frames.MacAddress.from_str(MALLORY[2]), \
        frames.MacAddress.from_str(SERVER[2])
    client_ip, server_ip = frames.Ipv4Address.from_str(CLIENT[1]), \
        frames.Ipv4Address.from_str(SERVER[1])
    inject, forged = [], set()
    for t in sorted(rng.randrange(5, horizon) for _ in range(size["forged"])):
        payload = b"KNCK\x01\x00" + rng.randbytes(40)
        wire = frames.serialize_frame(frames.make_icmp_echo(
            mallory_mac, server_mac, client_ip, server_ip, payload))
        inject.append((t, wire, MALLORY[0]))
        forged.add(wire)
    return Case(seed, "\n".join(lines) + "\n", inject=inject,
                keys={_ip(CLIENT[1]): key}, sends=sends, replays=size["replays"],
                forged=forged)


def check_forged_flood(case: Case, seg) -> Outcome:
    problems = _Problems()
    key = case.keys[_ip(CLIENT[1])]
    legit_knocks: Set[str] = set()
    forged_seen = forged_ok = replays_seen = replays_ok = updates = 0
    for rec in seg.trace:
        if rec.node == CLIENT[0] and rec.direction == "tx" and "icmp-knock" in rec.summary:
            if rec.time < seg.clock:
                legit_knocks.add(rec.raw_hex)
            continue
        if rec.node != SERVER[0]:
            continue
        if rec.direction == "host_event" and rec.summary.startswith("arp-cache-update"):
            updates += 1
            if rec.summary.endswith(MALLORY[2]):
                problems.add(f"an attacker frame was admitted: {rec.summary}")
        elif rec.direction == "drop" and rec.raw_hex is not None:
            w = bytes.fromhex(rec.raw_hex)
            if w in case.forged:
                forged_seen += 1
                if rec.stage_count == 2 and rec.summary.startswith("BadKnock BadTag"):
                    forged_ok += 1
                else:
                    problems.add(f"forged knock not dropped BadKnock BadTag at stage 2: "
                                 f"t={rec.time} {rec.summary}")
            elif rec.raw_hex in legit_knocks:
                replays_seen += 1
                ts = _open_knock(key, _knock_payload(w))[2]
                want = "Stale" if abs(rec.time - ts) > FRESHNESS_SECONDS else "Replayed"
                if rec.stage_count == 2 and rec.summary.startswith(f"BadKnock {want}"):
                    replays_ok += 1
                else:
                    problems.add(f"replayed knock not dropped BadKnock {want}: "
                                 f"t={rec.time} {rec.summary}")
    if forged_seen != len(case.inject):
        problems.add(f"{forged_seen} of {len(case.inject)} forged knocks reached a verdict")
    if replays_seen != case.replays:
        problems.add(f"{replays_seen} of {case.replays} replays reached a verdict")
    # every knock the server admitted is a legitimate one: the attacker's
    # frames all reached a drop verdict above
    if updates != len(legit_knocks):
        problems.add(f"{updates} admissions for {len(legit_knocks)} legitimate knocks")
    delivered = seg.metrics.nodes[SERVER[0]].delivered
    return Outcome(len(case.inject) + case.replays + case.sends,
                   forged_ok + replays_ok + min(delivered, case.sends), problems)


WORKLOADS = {
    "scan": (make_scan, check_scan),
    "knock-storm": (make_knock_storm, check_knock_storm),
    "forged-flood": (make_forged_flood, check_forged_flood),
}
