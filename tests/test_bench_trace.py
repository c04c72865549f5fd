"""The benchmark's traced run still reaches every layer of the program.

`perfbench/tracer.py` wraps the program's functions and methods by name. A
tiny traced run of each workload must pass its checks, render the same
output as the untraced passes, and record spans; on `scan` it must make at
most one parse and at least one description per wire frame, and no knock
crypto.
"""

import pytest


@pytest.mark.parametrize("workload", ["scan", "knock-storm", "forged-flood"])
def test_traced_run_instruments_every_layer(bench, workload):
    status, report, result = bench(workload, "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert status == 0 and result["correct"], report["problems"]
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["trace.spans"] > 0
    assert layers["nic.rx.calls"] > 0 and layers["netsim.step.calls"] > 0
    assert 0 < layers["netsim.describe_frame.calls"]
    assert layers["frames.parses_per_wire_frame"] <= 1.0
    if workload == "scan":
        assert all(v == 0 for k, v in layers.items() if k.startswith("knock."))
    else:
        assert layers["knock.open.ok.calls"] + layers["knock.open.BadTag.calls"] > 0
