"""Scenario files: a flat, line-oriented text format.

    # comment
    [nodes]
    server cloaked 10.0.0.2 aa:00:00:00:00:02 services=22,80
    client client  10.0.0.5 aa:00:00:00:00:05
    mallory attacker 10.0.0.66 aa:00:00:00:00:66

    [keys]
    client server 000102...1f        # 32-byte hex, shared by the pair

    [protected]
    client server                    # client knocks before talking to server

    [steps]
    5  send client server tcp 40000 22
    9  ping mallory server
    10 attack mallory portscan server 1-1024
    12 attack mallory arppoison server 10.0.0.1 de:ad:be:ef:00:01 period=1 count=10
    15 attack mallory macspoof server count=3
    20 attack mallory knockreplay
    30 attack mallory macspoof client

    [horizon]
    200

`check` and `run` accept exactly the same inputs: validation happens once,
in `parse_scenario` + `validate_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .frames import Ipv4Address, MacAddress
from .knock import KEY_LEN, SharedKey
from .netsim import (
    ArpPoison,
    AttackProgram,
    AttackerNode,
    ClientNode,
    CloakedServerNode,
    KnockReplay,
    MacSpoof,
    Metrics,
    PlainHostNode,
    PortScan,
    Segment,
    TraceRecord,
)
from .nic import CloakingNic, NicConfig


class ScenarioError(Exception):
    def __init__(self, message: str, line_no: Optional[int] = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


class ParseError(ScenarioError):
    pass


class UnknownNodeReference(ScenarioError):
    pass


class MissingKey(ScenarioError):
    pass


class InvalidScenario(ScenarioError):
    pass


NODE_KINDS = ("cloaked", "plainhost", "client", "attacker")


@dataclass
class NodeSpec:
    name: str
    kind: str
    ip: Ipv4Address
    mac: MacAddress
    services: Set[int] = field(default_factory=set)


@dataclass
class StepSpec:
    time: int
    action: tuple
    actor: str
    line_no: int


@dataclass
class Scenario:
    nodes: Dict[str, NodeSpec] = field(default_factory=dict)
    keys: List[Tuple[str, str, SharedKey]] = field(default_factory=list)
    protected: List[Tuple[str, str]] = field(default_factory=list)
    steps: List[StepSpec] = field(default_factory=list)
    horizon: int = 1000


def _parse_kv(tokens: List[str]) -> Dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("nodes", "keys", "protected", "steps", "horizon"):
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            raise ParseError("content before any [section] header", line_no)
        try:
            _parse_line(sc, section, line, line_no)
        except ScenarioError:
            raise
        except (ValueError, IndexError) as exc:
            raise ParseError(str(exc), line_no) from exc
    return sc


def _parse_line(sc: Scenario, section: str, line: str, line_no: int) -> None:
    tokens = line.split()
    if section == "nodes":
        name, kind, ip, mac = tokens[:4]
        if kind not in NODE_KINDS:
            raise ParseError(f"unknown node kind {kind!r}", line_no)
        if name in sc.nodes:
            raise ParseError(f"duplicate node name {name!r}", line_no)
        opts = _parse_kv(tokens[4:])
        services = {int(p) for p in opts.get("services", "").split(",") if p}
        sc.nodes[name] = NodeSpec(name, kind, Ipv4Address.from_str(ip),
                                  MacAddress.from_str(mac), services)
    elif section == "keys":
        a, b, key_hex = tokens
        key_bytes = bytes.fromhex(key_hex)
        if len(key_bytes) != KEY_LEN:
            raise ParseError(f"key must be {KEY_LEN} bytes, got {len(key_bytes)}", line_no)
        sc.keys.append((a, b, SharedKey(key_bytes)))
    elif section == "protected":
        a, b = tokens
        sc.protected.append((a, b))
    elif section == "steps":
        time = int(tokens[0])
        verb = tokens[1]
        if verb == "send":
            actor, dst, proto, src_port, dst_port = tokens[2:7]
            if proto not in ("tcp", "udp"):
                raise ParseError(f"send protocol must be tcp or udp, got {proto!r}", line_no)
            action = ("send", actor, dst, proto, int(src_port), int(dst_port))
        elif verb == "ping":
            actor, dst = tokens[2:4]
            action = ("ping", actor, dst)
        elif verb == "attack":
            actor = tokens[2]
            action = ("attack", actor, tokens[3], tokens[4:])
        else:
            raise ParseError(f"unknown step verb {verb!r}", line_no)
        sc.steps.append(StepSpec(time, action, actor, line_no))
    elif section == "horizon":
        sc.horizon = int(tokens[0])


def _require_node(sc: Scenario, name: str, line_no: Optional[int]) -> NodeSpec:
    if name not in sc.nodes:
        raise UnknownNodeReference(f"undefined node {name!r}", line_no)
    return sc.nodes[name]


def validate_scenario(sc: Scenario) -> None:
    """Referential and key-coherence checks; raises a ScenarioError subtype."""
    for a, b, _key in sc.keys:
        _require_node(sc, a, None)
        _require_node(sc, b, None)
    keyed_pairs = {frozenset((a, b)) for a, b, _ in sc.keys}
    for a, b in sc.protected:
        _require_node(sc, a, None)
        _require_node(sc, b, None)
        if frozenset((a, b)) not in keyed_pairs:
            raise MissingKey(f"protected pair {a}/{b} has no configured key")
    for step in sc.steps:
        actor = _require_node(sc, step.actor, step.line_no)
        verb = step.action[0]
        if verb == "send":
            if actor.kind != "client":
                raise InvalidScenario(f"only client nodes can send, {step.actor} is {actor.kind}",
                                      step.line_no)
            dst = _require_node(sc, step.action[2], step.line_no)
            if frozenset((step.actor, dst.name)) in {frozenset(p) for p in sc.protected} \
                    and frozenset((step.actor, dst.name)) not in keyed_pairs:
                raise MissingKey(f"no key for protected pair {step.actor}/{dst.name}",
                                 step.line_no)
        elif verb == "ping":
            _require_node(sc, step.action[2], step.line_no)
        elif verb == "attack":
            if actor.kind != "attacker":
                raise InvalidScenario(f"only attacker nodes can attack, {step.actor} is "
                                      f"{actor.kind}", step.line_no)
            _validate_attack(sc, step)


def _validate_attack(sc: Scenario, step: StepSpec) -> None:
    _verb, _actor, program, args = step.action
    if program == "portscan":
        _require_node(sc, args[0], step.line_no)
        lo, hi = args[1].split("-")
        if not (1 <= int(lo) <= int(hi) <= 0xFFFF):
            raise InvalidScenario(f"bad port range {args[1]!r}", step.line_no)
    elif program == "arppoison":
        _require_node(sc, args[0], step.line_no)
        Ipv4Address.from_str(args[1])
        MacAddress.from_str(args[2])
        _parse_kv(args[3:])
    elif program == "macspoof":
        _require_node(sc, args[0], step.line_no)
        _parse_kv(args[1:])
    elif program == "knockreplay":
        pass
    elif program == "ping":
        _require_node(sc, args[0], step.line_no)
    else:
        raise InvalidScenario(f"unknown attack program {program!r}", step.line_no)


def _attack_program(program: str, args: List[str]) -> AttackProgram:
    """The program of a validated attack step."""
    if program == "portscan":
        lo, hi = args[1].split("-")
        return PortScan(args[0], int(lo), int(hi))
    if program == "ping":
        return PortScan(args[0], 1, 0, with_ping=True)
    if program == "arppoison":
        opts = _parse_kv(args[3:])
        return ArpPoison(args[0], Ipv4Address.from_str(args[1]), MacAddress.from_str(args[2]),
                         int(opts.get("period", 1)), int(opts.get("count", 1)))
    if program == "macspoof":
        opts = _parse_kv(args[1:])
        return MacSpoof(args[0], int(opts.get("count", 1)), int(opts.get("period", 1)))
    if program == "knockreplay":
        return KnockReplay()
    raise InvalidScenario(f"unknown attack program {program!r}")


def build_segment(sc: Scenario, seed: int = 0) -> Segment:
    """Construct the segment: nodes, keys, protections and scheduled steps."""
    validate_scenario(sc)
    seg = Segment()
    configs: Dict[str, NicConfig] = {}
    for idx, spec in enumerate(sc.nodes.values()):
        if spec.kind in ("cloaked", "client"):
            # distinct nonce streams per node keep replay caches honest
            configs[spec.name] = NicConfig(mac=spec.mac, ip=spec.ip,
                                           nonce_seed=seed + (idx << 32))
    for a, b, key in sc.keys:
        for left, right in ((a, b), (b, a)):
            if left in configs:
                configs[left].role_keys[sc.nodes[right].ip] = key
    for a, b in sc.protected:
        if a in configs:
            configs[a].protected_peers.add(sc.nodes[b].ip)
    for spec in sc.nodes.values():
        if spec.kind == "cloaked":
            seg.attach(CloakedServerNode(spec.name, spec.mac, spec.ip,
                                         CloakingNic(configs[spec.name]), spec.services))
        elif spec.kind == "client":
            seg.attach(ClientNode(spec.name, spec.mac, spec.ip,
                                  CloakingNic(configs[spec.name])))
        elif spec.kind == "plainhost":
            seg.attach(PlainHostNode(spec.name, spec.mac, spec.ip, spec.services))
        else:
            seg.attach(AttackerNode(spec.name, spec.mac, spec.ip))
    for step in sc.steps:
        verb = step.action[0]
        if verb == "send":
            _, actor, dst, proto, sp, dp = step.action
            seg.schedule(step.time, actor,
                         ("send", sc.nodes[dst].ip, proto, sp, dp))
        elif verb == "ping":
            _, actor, dst = step.action
            if sc.nodes[actor].kind == "attacker":
                seg.inject_attack(seg.node(actor), step.time, _attack_program("ping", [dst]))
            else:
                seg.schedule(step.time, actor, ("ping", sc.nodes[dst].ip, sc.nodes[dst].mac))
        elif verb == "attack":
            _, actor, program_name, args = step.action
            seg.inject_attack(seg.node(actor), step.time, _attack_program(program_name, args))
    return seg


def run_scenario(sc: Scenario, seed: int = 0) -> Tuple[List[TraceRecord], Metrics]:
    seg = build_segment(sc, seed)
    seg.run(sc.horizon)
    return seg.trace, seg.metrics
