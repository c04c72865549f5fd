"""`Metrics` counts the log's distinct (node, event) pairs and folds each once.

This test folds the same runs the plain way, one trace line at a time, and
requires the same counters: on the scenario that runs every node kind, and
on the benchmark's three workloads at their tiny size.
"""

import pathlib
import sys

import pytest
from test_traced_layers import SCENARIO

from cloaknic.netsim import ArpCacheUpdate, Delivered, DropRecord, FrameEvent, NodeMetrics
from cloaknic.scenario import build_segment, parse_scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def fold_line_by_line(seg):
    """Each line's event counted on its own node, as the metrics file defines them."""
    nodes = {node.name: NodeMetrics() for node in seg.nodes}
    for record in seg.trace:
        m, event = nodes[record.node], record.event
        if event is FrameEvent.TX:
            m.tx += 1
        elif event is FrameEvent.IGNORED:
            m.ignored += 1
        else:
            m.cep_histogram[event.stage_count] += 1
            if isinstance(event, Delivered):
                m.delivered += 1
            elif isinstance(event, ArpCacheUpdate):
                m.arp_cache_writes += 1
            elif isinstance(event, DropRecord):
                m.dropped_by_reason[event.reason.value] += 1
    return nodes


def run(text, seed, inject=()):
    sc = parse_scenario(text)
    seg = build_segment(sc, seed=seed)
    for when, wire, origin in inject:
        seg.inject(when, wire, origin)
    seg.run(sc.horizon)
    return seg


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    yield workloads
    sys.modules.pop("workloads", None)


def assert_folds_agree(seg):
    metrics = seg.metrics
    assert metrics.nodes == fold_line_by_line(seg)
    assert len(seg.trace) == sum(1 for _ in seg.trace)
    assert sum(m.ignored for m in metrics.nodes.values()) > 0


def test_every_node_kind():
    assert_folds_agree(run(SCENARIO, seed=1))


@pytest.mark.parametrize("name", ["scan", "knock-storm", "forged-flood"])
def test_tiny_workload(workloads, name):
    make, _check = workloads.WORKLOADS[name]
    case = make(1, workloads.SIZES["tiny"][name])
    assert_folds_agree(run(case.text, case.seed, case.inject))
