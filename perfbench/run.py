"""The cloaknic benchmark. Run it from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

One run builds a workload's scenario from the seed (not timed), then drives
the public API as `cloaknic run --hex` does: `parse_scenario`,
`validate_scenario`, `build_segment`, `Segment.run`, and rendering of the
trace and metrics into memory. It repeats that until `--seconds` have
passed, at least once, and checks the outputs of the first pass. Every
further pass must render byte-identical output.

With `--trace 0` the last line of output reports the end-to-end metrics.
`Segment.run` is timed in `SLICES` consecutive stretches of simulated
time; every pass does identical work, so each stretch is the same work in
every pass, and its time is the fastest over the passes. Set-up and
rendering are likewise the fastest over the run. The host only ever adds
time to a piece of work, so these minima hold still while a median follows
the host's speed (see README.md). With `--trace 1` untraced and traced passes
alternate, and the last line reports per-layer metrics from the traced
ones; see `tracer.py`. The line before it is a report with the seed, the
output digest and the environment. The traced run's spans are written to
`.bench_out/` in the checkout.

Exit status: 0 when every check passed; 1 when a check failed (the result
line then says `"correct": false`) or the program raised; 2 when the
program's source is not in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# Before each measured pass, set-up alone is timed this many times, so its
# samples are spread over the whole run. `setup_s` is the fastest sample:
# every set-up repeats identical work from a collected heap, while the host
# alternates between a fast and a slow speed, which flips a median between
# the two.
SETUP_REPS = 5
# `Segment.run` is timed in this many equal stretches of simulated time,
# each some milliseconds long at the workloads' sizes.
SLICES = 256
# The keys of `workloads.WORKLOADS`; that module imports cloaknic, so it can
# only be imported once `load_program` has found the program.
WORKLOAD_NAMES = ("scan", "knock-storm", "forged-flood")


class ProgramMissing(Exception):
    pass


def load_program():
    """Import `cloaknic` from this checkout's `src/`, and from nowhere else."""
    init = ROOT / "src" / "cloaknic" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing("src/cloaknic is not in this checkout; run from a checkout root")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import cloaknic
    if Path(cloaknic.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"cloaknic was imported from {cloaknic.__file__}, not {init}")
    return cloaknic


@dataclass
class Pass:
    setup_s: float
    run_slices: List[float]
    render_s: float
    digest: str
    wire_frames: int
    ignored: int
    trace_records: int
    render_bytes: int

    @property
    def run_s(self) -> float:
        return sum(self.run_slices)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.render_s


def render(seg) -> str:
    """What `cloaknic run --hex` writes: the trace lines, then the metrics."""
    return "\n".join(r.format_line(with_hex=True) for r in seg.trace) + "\n" \
        + seg.metrics.to_text()


def setup(case):
    from cloaknic import scenario
    sc = scenario.parse_scenario(case.text)
    scenario.validate_scenario(sc)
    return sc, scenario.build_segment(sc, seed=case.seed)


def run_pass(case, check=None, render_fn=render):
    """One timed pass; returns it with the check's outcome when `check` is given."""
    gc.collect()
    t0 = time.perf_counter()
    sc, seg = setup(case)
    t1 = time.perf_counter()
    for when, wire, origin in case.inject:  # generated input, not timed
        seg.inject(when, wire, origin)
    # running to each stretch's end in turn is the same as one run(horizon)
    run_slices = []
    for k in range(1, SLICES + 1):
        t2 = time.perf_counter()
        seg.run(sc.horizon * k // SLICES)
        run_slices.append(time.perf_counter() - t2)
    t3 = time.perf_counter()
    text = render_fn(seg)
    t4 = time.perf_counter()
    data = text.encode()
    node_metrics = seg.metrics.nodes.values()
    result = Pass(
        setup_s=t1 - t0, run_slices=run_slices, render_s=t4 - t3,
        digest=hashlib.sha256(data).hexdigest(),
        wire_frames=sum(m.tx for m in node_metrics) + len(case.inject),
        ignored=sum(m.ignored for m in node_metrics),
        trace_records=len(seg.trace), render_bytes=len(data))
    outcome = check(case, seg) if check is not None else None
    return result, outcome


def time_setups(case) -> List[float]:
    samples: List[float] = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        setup(case)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(case, check, seconds: float) -> Dict:
    deadline = time.perf_counter() + seconds
    setups = time_setups(case)
    first, outcome = run_pass(case, check)
    passes = [first]
    while time.perf_counter() < deadline:
        setups += time_setups(case)
        passes.append(run_pass(case)[0])
    setup_s = min(setups + [p.setup_s for p in passes])
    run_s = sum(min(times) for times in zip(*(p.run_slices for p in passes)))
    metrics = {
        "wall_s": (setup_s + run_s + min(p.render_s for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "frames_per_s": (first.wire_frames / run_s, "1/s"),
        "goodput_per_s": (outcome.succeeded / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"passes": passes, "outcome": outcome, "metrics": metrics}


def measure_traced(case, check, seconds: float, workload: str) -> Dict:
    import tracer as tracing
    deadline = time.perf_counter() + seconds
    plain: List[Pass] = []
    traced: List[Pass] = []
    layers: List[Dict[str, float]] = []
    outcome = None
    tracer = None
    while not traced or time.perf_counter() < deadline:
        untraced_pass, checked = run_pass(case, check if outcome is None else None)
        plain.append(untraced_pass)
        outcome = checked if outcome is None else outcome
        tracer, gauges = tracing.Tracer(), tracing.NicGauges()
        tracing.instrument(tracer, gauges)
        try:
            traced_pass, _ = run_pass(case, render_fn=tracer.wrap("cli.render", render, keep=True))
        finally:
            tracer.restore()
        traced.append(traced_pass)
        figures = tracing.layer_metrics(tracer, gauges, traced_pass.wire_frames,
                                        traced_pass.ignored)
        figures["cli.render.s"] = tracer.total_s("cli.render")
        layers.append(figures)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}.bin")
    last = traced[-1]
    values = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
    values.update({
        "netsim.trace_records": last.trace_records,
        "cli.render.bytes": last.render_bytes,
        "ops.attempted": outcome.attempted,
        "ops.failed": outcome.failed,
        "fail_ratio": outcome.failed / outcome.attempted,
        "trace.overhead_s": statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain),
    })
    units = layer_units()
    return {"passes": plain + traced, "outcome": outcome,
            "metrics": {name: (values[name], units[name]) for name in units}}


def layer_units() -> Dict[str, str]:
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# -- report ------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cloaknic").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit_hash() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout carries no git metadata
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(traced: bool) -> Dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "commit": commit_hash(),
            "source_sha256": source_digest(), "traced": traced}


def inputs_digest(case) -> str:
    """sha256 of everything the program is given: scenario text and injected frames."""
    h = hashlib.sha256(case.text.encode())
    for when, wire, origin in case.inject:
        h.update(f"{when} {origin} ".encode() + wire)
    return h.hexdigest()


def compare_digest(key: str, digest: str, source: str) -> Optional[str]:
    """Record this run's output digest; a problem if the same source gave another.

    `key` names the inputs, so a change to the benchmark's generated inputs
    is never mistaken for a change in output.

    A digest that differs from one recorded for other source is reported,
    not failed: a defect fix may change traces.
    """
    path = OUT_DIR / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    previous = known.get(key)
    known[key] = {"digest": digest, "source_sha256": source}
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    if previous and previous["digest"] != digest:
        if previous["source_sha256"] == source:
            return f"output digest changed between runs of the same source and seed: {key}"
        print(f"note: output digest differs from the one recorded for other source: {key}",
              file=sys.stderr)
    return None


def main(argv: Optional[List[str]] = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    make, check = workloads.WORKLOADS[args.workload]
    case = make(args.seed, workloads.SIZES[size][args.workload])
    if args.trace:
        result = measure_traced(case, check, args.seconds, args.workload)
    else:
        result = measure(case, check, args.seconds)
    passes, outcome = result["passes"], result["outcome"]
    problems = list(outcome.problems)
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes of one seed rendered {len(digests)} different outputs")
    env = environment(bool(args.trace))
    problem = compare_digest(f"{args.workload}/inputs={inputs_digest(case)}", passes[0].digest,
                             env["source_sha256"])
    if problem:
        problems.append(problem)
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "size": size,
              "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
              "pass_run_s": [p.run_s for p in passes], "digest": passes[0].digest,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "inputs": case.input_facts, "problems": problems, "env": env}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems, "attempted": outcome.attempted, "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
