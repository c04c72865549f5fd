"""Span tracing for the benchmark's traced run, from outside the program.

`instrument` wraps the program's public callables, layer by layer. A
function that other modules bring in with `from .frames import ...` is
replaced in every `cloaknic` module that holds it, and a method is replaced
on its class. Each wrapper passes its arguments and return value through
unchanged and records one span per call: name, parent, start and end.

Spans are kept in memory as flat arrays and written out when the run ends.
Self time is computed as calls return: a span's duration minus the
durations of its child spans, which nest inside it because the program is
single-threaded and synchronous.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# Percentiles tried for a `us_hi` figure, highest first. The highest one
# with at least ten samples beyond it is reported.
HI_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

RX_OUTCOMES = ("Delivered", "NoFilterMatch", "BadKnock", "ArpReply", "UnsolicitedArpReply")
OPEN_OUTCOMES = ("ok", "BadTag", "Replayed", "Stale")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.child_calls: Counter = Counter()  # (child name id, parent name id)
        self.durations: Dict[str, List[int]] = defaultdict(list)  # "<name>.<label>"
        self._stack: List[list] = []
        self._patched: List[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, label: Optional[Callable] = None,
             keep: bool = False, after: Optional[Callable] = None) -> Callable:
        """`fn` with one span recorded per call.

        `label(result)` files the call's duration under `<name>.<label>`;
        `keep` files it under `<name>`; `after(args, result)` runs once the
        span has ended.
        """
        nid = self.name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        self_ns, calls, child_calls = self.self_ns, self.calls, self.child_calls
        durations, stack, clock = self.durations, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(span_start)
            if stack:
                parent = stack[-1]
                span_parent.append(parent[0])
                child_calls[nid, parent[1]] += 1
            else:
                parent = None
                span_parent.append(-1)
            span_name.append(nid)
            span_start.append(0)
            span_end.append(0)
            frame = [idx, nid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
                dur = t1 - t0
                self_ns[nid] += dur - frame[2]
                calls[nid] += 1
                if parent is not None:
                    parent[2] += dur
            if label is not None:
                durations[f"{name}.{label(result)}"].append(dur)
            elif keep:
                durations[name].append(dur)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Replace `module.attr` in every loaded cloaknic module that holds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "cloaknic" or mod_name.startswith("cloaknic.")) \
                    and getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **kw))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_s(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e9 if name in self._ids else 0.0

    def total_s(self, name: str) -> float:
        """Summed duration of the spans of a name wrapped with `keep`."""
        return sum(self.durations.get(name, [])) / 1e9

    def children_of(self, child: str, parent: str) -> int:
        if child not in self._ids or parent not in self._ids:
            return 0
        return self.child_calls[self._ids[child], self._ids[parent]]

    def write(self, path) -> None:
        """Header line of JSON, then the four span arrays back to back."""
        header = {"names": self.names, "count": len(self.span_start),
                  "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)


class NicGauges:
    """NIC state sampled after each wire receive that admitted a knock.

    Filter size and replay-cache size only grow at an admission, and the
    number of live filter entries peaks right after one, so these samples
    catch every maximum.
    """

    def __init__(self):
        self.filter_size_max = 0
        self.filter_live_max = 0
        self.replay_cache_max = 0
        self.table_full = 0

    def after_rx(self, args, actions) -> None:
        nic, now = args[0], args[2]
        if any(d.detail == "TableFull" for d in actions.drops):
            self.table_full += 1
        if any(type(e).__name__ == "ArpCacheUpdate" for e in actions.host_events):
            entries = nic.filter.entries
            self.filter_size_max = max(self.filter_size_max, len(entries))
            live = sum(1 for expires in entries.values() if now <= expires)
            self.filter_live_max = max(self.filter_live_max, live)
            self.replay_cache_max = max(self.replay_cache_max, len(nic.replay_cache))


def _rx_label(actions) -> str:
    if actions.drops:
        return actions.drops[0].reason.value
    kinds = {type(e).__name__ for e in actions.host_events}
    if "Delivered" in kinds:
        return "Delivered"
    if "ArpCacheUpdate" in kinds:
        return "KnockAccepted"
    return "ArpReply" if actions.tx_frames else "Nothing"


def _open_label(result) -> str:
    value = getattr(result, "value", None)  # a RejectReason, or the opened fields
    return value if isinstance(value, str) else "ok"


def instrument(tracer: Tracer, gauges: NicGauges) -> None:
    """Wrap every layer's public callables; undo with `tracer.restore()`."""
    from cloaknic import frames, knock, netsim, nic, scenario

    fn, meth = tracer.patch_function, tracer.patch_method
    fn(frames, "parse_frame", "frames.parse_frame")
    fn(frames, "serialize_frame", "frames.serialize_frame")
    fn(frames, "internet_checksum", "frames.internet_checksum")
    fn(frames, "make_ipv4_frame", "frames.make_ipv4_frame")
    fn(knock, "seal_knock", "knock.seal", keep=True)
    fn(knock, "open_knock", "knock.open", label=_open_label)
    fn(knock, "prf", "knock.prf")
    meth(nic.CloakingNic, "on_wire_receive", "nic.rx", label=_rx_label, after=gauges.after_rx)
    meth(nic.CloakingNic, "on_host_transmit", "nic.tx")
    meth(nic.FilterTable, "lookup", "nic.filter.lookup",
         label=lambda hit: "hit" if hit else "miss")
    meth(nic.FilterTable, "insert", "nic.filter.insert")
    fn(netsim, "describe_frame", "netsim.describe_frame")
    meth(netsim.Segment, "run", "netsim.run")
    meth(netsim.Segment, "step", "netsim.step")
    meth(netsim.PlainHostNode, "receive", "netsim.plainhost_receive")
    meth(netsim.AttackerNode, "receive", "netsim.attacker_receive")
    meth(netsim.AttackerNode, "observe", "netsim.attacker_observe")
    meth(netsim.AttackerNode, "frames_for", "netsim.attacker_frames_for")
    meth(netsim.ClientNode, "perform", "netsim.client_perform")
    meth(netsim.TraceRecord, "format_line", "cli.format_line")
    meth(netsim.Metrics, "to_text", "cli.metrics_text")
    fn(scenario, "parse_scenario", "scenario.parse", keep=True)
    fn(scenario, "validate_scenario", "scenario.validate", keep=True)
    fn(scenario, "build_segment", "scenario.build", keep=True)


def _percentile(ordered: List[int], pct: float) -> float:
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _us_p50_hi(samples: List[int]):
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    hi = next((p for p in HI_PERCENTILES if n * (100 - p) / 100 >= 10), 50.0)
    return _percentile(ordered, 50.0) / 1e3, _percentile(ordered, hi) / 1e3


def layer_metrics(tracer: Tracer, gauges: NicGauges, wire_frames: int,
                  ignored: int) -> Dict[str, float]:
    """Per-layer figures of one traced iteration, keyed by metric name."""
    t = tracer
    out: Dict[str, float] = {}
    for name in ("frames.parse_frame", "frames.serialize_frame", "netsim.describe_frame",
                 "netsim.step", "nic.rx", "nic.tx"):
        out[f"{name}.calls"] = t.count(name)
        out[f"{name}.self_s"] = t.self_s(name)
    out["frames.parses_per_wire_frame"] = t.count("frames.parse_frame") / max(wire_frames, 1)
    out["frames.internet_checksum.calls"] = t.count("frames.internet_checksum")
    out["frames.make_ipv4_frame.calls"] = t.count("frames.make_ipv4_frame")
    receives = t.count("nic.rx") + t.count("netsim.plainhost_receive") \
        + t.count("netsim.attacker_receive")
    out["netsim.receivers_per_frame"] = (receives + ignored) / max(wire_frames, 1)
    out["netsim.plainhost_receive.self_s"] = t.self_s("netsim.plainhost_receive")
    out["netsim.attacker_frames_for.self_s"] = t.self_s("netsim.attacker_frames_for")

    out["knock.seal.calls"] = t.count("knock.seal")
    out["knock.seal.us_p50"], out["knock.seal.us_hi"] = \
        _us_p50_hi(t.durations.get("knock.seal", []))
    for outcome in OPEN_OUTCOMES:
        samples = t.durations.get(f"knock.open.{outcome}", [])
        out[f"knock.open.{outcome}.calls"] = len(samples)
        out[f"knock.open.{outcome}.us_p50"], out[f"knock.open.{outcome}.us_hi"] = \
            _us_p50_hi(samples)
    out["knock.prf.calls"] = t.count("knock.prf")
    opens = t.count("knock.open")
    out["knock.prf_per_open"] = t.children_of("knock.prf", "knock.open") / opens if opens else 0.0

    for outcome in RX_OUTCOMES:
        out[f"nic.rx.{outcome}.us_p50"] = _us_p50_hi(t.durations.get(f"nic.rx.{outcome}", []))[0]
    hits = len(t.durations.get("nic.filter.lookup.hit", []))
    lookups = t.count("nic.filter.lookup")
    out["nic.filter.hit_ratio"] = hits / lookups if lookups else 0.0
    out["nic.filter.size_max"] = gauges.filter_size_max
    out["nic.filter.live_max"] = gauges.filter_live_max
    out["nic.replay_cache.size_max"] = gauges.replay_cache_max
    out["nic.table_full"] = gauges.table_full

    out["scenario.parse.s"] = t.total_s("scenario.parse")
    out["scenario.validate.s"] = t.total_s("scenario.validate")
    out["scenario.build.s"] = t.total_s("scenario.build")
    out["trace.spans"] = len(t.span_start)
    return out
