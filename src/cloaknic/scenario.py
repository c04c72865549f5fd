"""Scenario files: a flat, line-oriented text format; `#` starts a comment.

    [nodes]
    NAME cloaked|plainhost|client|attacker IP MAC [services=P,P,...]
    [keys]
    NODE NODE KEY_HEX                  # 32 bytes, shared by the pair
    [protected]
    NODE NODE                          # the first knocks before talking to the second
    [steps]
    T send CLIENT DST tcp|udp SRC_PORT DST_PORT
    T ping CLIENT|ATTACKER DST         # one echo request; a client's goes through its NIC
    T attack ATTACKER portscan VICTIM LO-HI
    T attack ATTACKER arppoison VICTIM IP MAC [period=N] [count=N]
    T attack ATTACKER macspoof VICTIM [count=N] [period=N]
    T attack ATTACKER knockreplay      # the last knock captured, or nothing
    T attack ATTACKER ping VICTIM      # the same step as `ping ATTACKER VICTIM`
    [horizon]
    TICKS

Ports P and DST_PORT are in 0..65535, SRC_PORT in 1..65535 (a knock seals
it), and 1 <= LO <= HI for a scan. The step time T and a count N are
integers >= 0, a period N is >= 1, N defaults to 1, and TICKS is at most
2**64-1, so a knock sealed by the horizon has a 64-bit timestamp. Only the
options shown are accepted, each at most once; only a plain host reads
`services=`. `demos.py` has complete scenarios. Each step line parses to
the step its actor performs: a `Send`, a `Ping`, or the attack program
itself, which carries its own `period` and `count`.

`parse_scenario` checks what one line shows (its fields, integers and their
ranges, addresses, key length, option names) and raises `ParseError` naming
the line. `validate_scenario` checks what lines say of each other: names are
nodes, protected pairs have keys, actors are of a kind that may perform the
step. `check` runs both; `run` parses and `build_segment` validates, so the
two commands accept exactly the same inputs, and every input `check`
accepts runs to its horizon: what a step cannot do (a replay with no knock
captured) it does not do, and logs no line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .frames import Ipv4Address, MacAddress
from .knock import SharedKey
from .netsim import (
    ArpPoison,
    AttackerNode,
    ClientNode,
    CloakedServerNode,
    KnockReplay,
    MacSpoof,
    Metrics,
    Ping,
    PlainHostNode,
    PortScan,
    Segment,
    Send,
    Step,
    TraceView,
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
SECTIONS = ("nodes", "keys", "protected", "steps", "horizon")
REPEAT_LO = {"count": 0, "period": 1}  # least value of each repeated-program option
# the node kinds that may perform each step verb
ACTOR_KINDS = {"send": ("client",), "ping": ("client", "attacker"), "attack": ("attacker",)}


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
    actor: str
    verb: str
    action: Step
    line_no: int


@dataclass
class Scenario:
    nodes: Dict[str, NodeSpec] = field(default_factory=dict)
    keys: List[Tuple[str, str, SharedKey, int]] = field(default_factory=list)  # a, b, key, line
    protected: List[Tuple[str, str, int]] = field(default_factory=list)  # a, b, line
    steps: List[StepSpec] = field(default_factory=list)
    horizon: int = 1000


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip().lower()
            if section not in SECTIONS:
                raise ParseError(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            raise ParseError("content before any [section] header", line_no)
        try:
            _parse_line(sc, section, line.split(), line_no)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from exc
    return sc


def _int(text: str, what: str, hi: Optional[int] = None, lo: int = 0) -> int:
    """An integer of at least `lo`, and at most `hi` if given."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {text!r}") from None
    if value < lo or (hi is not None and value > hi):
        raise ValueError(f"{what} must be {f'>= {lo}' if hi is None else f'in {lo}..{hi}'}, "
                         f"got {value}")
    return value


def _fields(tokens: List[str], form: str,
            options: Sequence[str] = ()) -> Tuple[List[str], Dict[str, str]]:
    """The positional fields `form` names, then at most one of each option."""
    n = form.count(" ") + 1
    if len(tokens) < n:
        raise ValueError(f"expected {form!r}")
    opts: Dict[str, str] = {}
    for tok in tokens[n:]:
        key, eq, value = tok.partition("=")
        if not eq or key not in options or key in opts:
            allowed = f"; options, each at most once: {', '.join(options)}" if options else ""
            raise ValueError(f"unexpected {tok!r} after {form!r}{allowed}")
        opts[key] = value
    return tokens[:n], opts


def _parse_line(sc: Scenario, section: str, tokens: List[str], line_no: int) -> None:
    if section == "steps":
        if len(tokens) < 3:
            raise ValueError("expected 'T VERB ACTOR ...'")
        sc.steps.append(StepSpec(_int(tokens[0], "step time"), tokens[2], tokens[1],
                                 _parse_step(tokens), line_no))
    elif section == "nodes":
        (name, kind, ip, mac), opts = _fields(tokens, "NAME KIND IP MAC", ("services",))
        if kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {kind!r}; expected {', '.join(NODE_KINDS)}")
        if name in sc.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        services = {_int(p, "port", 0xFFFF) for p in opts.get("services", "").split(",") if p}
        sc.nodes[name] = NodeSpec(name, kind, Ipv4Address.from_str(ip),
                                  MacAddress.from_str(mac), services)
    elif section == "keys":
        (a, b, key_hex), _ = _fields(tokens, "NODE NODE KEY_HEX")
        sc.keys.append((a, b, SharedKey.from_hex(key_hex), line_no))
    elif section == "protected":
        (a, b), _ = _fields(tokens, "NODE NODE")
        sc.protected.append((a, b, line_no))
    else:
        (horizon,), _ = _fields(tokens, "TICKS")
        sc.horizon = _int(horizon, "horizon", 2**64 - 1)


def _parse_step(tokens: List[str]) -> Step:
    """A step from its tokens, `T VERB ACTOR ...`; an attack's step is its program."""
    verb = tokens[1]
    if verb == "send":
        (_, _, _, dst, proto, src_port, dst_port), _ = _fields(
            tokens, "T send CLIENT DST tcp|udp SRC_PORT DST_PORT")
        if proto not in ("tcp", "udp"):
            raise ValueError(f"send protocol must be tcp or udp, got {proto!r}")
        return Send(dst, proto, _int(src_port, "port", 0xFFFF, 1), _int(dst_port, "port", 0xFFFF))
    if verb == "ping":
        (_, _, _, dst), _ = _fields(tokens, "T ping ACTOR DST")
        return Ping(dst)
    if verb != "attack":
        raise ValueError(f"unknown step verb {verb!r}; expected send, ping or attack")
    program = tokens[3] if len(tokens) > 3 else ""
    if program == "portscan":
        (_, _, _, _, victim, span), _ = _fields(tokens, "T attack ATTACKER portscan VICTIM LO-HI")
        lo, dash, hi = span.partition("-")
        port_lo, port_hi = _int(lo, "port", 0xFFFF), _int(hi, "port", 0xFFFF)
        if not dash or not 1 <= port_lo <= port_hi:
            raise ValueError(f"port range must be LO-HI with 1 <= LO <= HI, got {span!r}")
        return PortScan(victim, port_lo, port_hi)
    if program == "arppoison":
        (_, _, _, _, victim, ip, mac), opts = _fields(
            tokens, "T attack ATTACKER arppoison VICTIM IP MAC", ("period", "count"))
        return ArpPoison(victim, Ipv4Address.from_str(ip), MacAddress.from_str(mac),
                         **{k: _int(v, k, lo=REPEAT_LO[k]) for k, v in opts.items()})
    if program == "macspoof":
        (_, _, _, _, victim), opts = _fields(tokens, "T attack ATTACKER macspoof VICTIM",
                                     ("count", "period"))
        return MacSpoof(victim, **{k: _int(v, k, lo=REPEAT_LO[k]) for k, v in opts.items()})
    if program == "knockreplay":
        _fields(tokens, "T attack ATTACKER knockreplay")
        return KnockReplay()
    if program == "ping":
        (_, _, _, _, victim), _ = _fields(tokens, "T attack ATTACKER ping VICTIM")
        return Ping(victim)
    raise ValueError(f"unknown attack program {program!r}; "
                     "expected portscan, arppoison, macspoof, knockreplay or ping")


def _require_node(sc: Scenario, name: str, line_no: int) -> NodeSpec:
    if name not in sc.nodes:
        raise UnknownNodeReference(f"undefined node {name!r}", line_no)
    return sc.nodes[name]


def validate_scenario(sc: Scenario) -> None:
    """Cross-reference checks, O(nodes + keys + protected + steps); errors name the line."""
    for a, b, _key, line_no in sc.keys:
        _require_node(sc, a, line_no)
        _require_node(sc, b, line_no)
    keyed_pairs = {frozenset((a, b)) for a, b, _key, _line in sc.keys}
    for a, b, line_no in sc.protected:
        _require_node(sc, a, line_no)
        _require_node(sc, b, line_no)
        if frozenset((a, b)) not in keyed_pairs:
            raise MissingKey(f"protected pair {a}/{b} has no configured key", line_no)
    for step in sc.steps:
        action, line_no = step.action, step.line_no
        kind, kinds = _require_node(sc, step.actor, line_no).kind, ACTOR_KINDS[step.verb]
        if kind not in kinds:
            raise InvalidScenario(f"only {' or '.join(kinds)} nodes can {step.verb}, "
                                  f"{step.actor} is {kind}", line_no)
        # a knock replay names no node besides its actor
        aimed_at = getattr(action, "dst", getattr(action, "victim", None))
        if aimed_at is not None:
            _require_node(sc, aimed_at, line_no)


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
    for a, b, key, _line in sc.keys:
        for left, right in ((a, b), (b, a)):
            if left in configs:
                configs[left].role_keys[sc.nodes[right].ip] = key
    for a, b, _line in sc.protected:
        if a in configs:
            configs[a].protected_peers.add(sc.nodes[b].ip)
    for spec in sc.nodes.values():
        if spec.name in configs:
            node_type = ClientNode if spec.kind == "client" else CloakedServerNode
            seg.attach(node_type(spec.name, spec.mac, spec.ip, CloakingNic(configs[spec.name])))
        elif spec.kind == "plainhost":
            seg.attach(PlainHostNode(spec.name, spec.mac, spec.ip, spec.services))
        else:
            seg.attach(AttackerNode(spec.name, spec.mac, spec.ip))
    for step in sc.steps:
        seg.schedule(step.time, step.actor, step.action)
    return seg


def run_scenario(sc: Scenario, seed: int = 0) -> Tuple[TraceView, Metrics]:
    seg = build_segment(sc, seed)
    seg.run(sc.horizon)
    return seg.trace, seg.metrics
