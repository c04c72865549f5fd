"""A frame's carried header is the header its bytes give, on every frame a scenario makes.

Every frame a node sends carries the header its builder packed, so in a
run `read_header` reads only injected bytes. Here the same runs go through
a medium that delivers only bytes: each receiver, and the description of
each `rx` line, reads every frame's header from its bytes. The traces and
metrics must be byte-identical, so no builder packs a header that
disagrees with its bytes. And neither medium
parses a frame: every receiver reads the header alone.
"""

import importlib.util
import pathlib
import sys

import pytest

from cloaknic import scenario
from cloaknic.demos import DEMOS
from cloaknic.netsim import QUEUE_SLOTS, Segment
from test_parse_once import count_calls

# the benchmark's workload generators, loaded from their file under a name
# of their own, which their dataclasses look up in `sys.modules`
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


class BytesSegment(Segment):
    """A medium that carries only bytes: each frame queued is its `Wire`'s
    bytes with no description, so `Segment.step` wraps the bytes, unread,
    at delivery, and describes the frame from them for its `rx` lines."""

    def _add(self, time, slots):
        frames = slots[::QUEUE_SLOTS]
        slots[::QUEUE_SLOTS] = [getattr(wire, "data", wire) for wire in frames]
        slots[2::QUEUE_SLOTS] = [arg if wire is None else None
                                 for wire, arg in zip(frames, slots[2::QUEUE_SLOTS])]
        super()._add(time, slots)


# name -> (scenario text, frames injected as bytes, seed)
RUNS = {f"demo-{name}": (text, [], 0) for name, text in DEMOS.items()}
for _name, (_make, _) in workloads.WORKLOADS.items():
    _case = _make(1, workloads.SIZES["tiny"][_name])
    RUNS[f"tiny-{_name}"] = (_case.text, _case.inject, _case.seed)


def render(sc, inject, seed, medium, monkeypatch):
    monkeypatch.setattr(scenario, "Segment", medium)
    seg = scenario.build_segment(sc, seed=seed)
    assert type(seg) is medium
    for when, data, origin in inject:
        seg.inject(when, data, origin)
    seg.run(sc.horizon)
    return [r.format_line(with_hex=True) for r in seg.trace] + seg.metrics.to_text().splitlines()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_bytes_only_medium_renders_the_same_run(name, monkeypatch):
    text, inject, seed = RUNS[name]
    sc = scenario.parse_scenario(text)
    parses = count_calls(monkeypatch, "parse_frame")
    reads = count_calls(monkeypatch, "read_header")
    carried = render(sc, inject, seed, Segment, monkeypatch)
    read_from_carried = reads[0]
    bytes_only = render(sc, inject, seed, BytesSegment, monkeypatch)
    # the first line that differs, not a diff of thousands of lines
    assert next(((a, b) for a, b in zip(bytes_only, carried) if a != b), None) is None
    assert len(bytes_only) == len(carried)
    assert reads[0] > read_from_carried  # the bytes-only run read headers from bytes
    assert parses[0] == 0
