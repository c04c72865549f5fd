"""Self-test of the benchmark harness. Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload runs at a tiny size, untraced and traced, through all of its
checks. Then the harness must fail in the ways it promises to:

- a deliberately wrong expectation (a cloaked server that transmits on
  `scan`) makes the run exit non-zero with `"correct": false`;
- in a directory holding only `BENCHMARK.json` and the benchmark's own
  files, the run exits non-zero without printing a result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEED = "3"


def bench(workload: str, trace: int):
    """(exit status, report, result) of one tiny in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", SEED, "--seconds", "0.5",
                           "--trace", str(trace)], size="tiny")
    lines = out.getvalue().splitlines()
    return status, json.loads(lines[-2])["report"], json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_runs(spec: dict) -> None:
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace, names in ((0, end_to_end), (1, per_layer)):
            status, report, result = bench(workload, trace)
            expect(status == 0 and result["correct"], f"{workload} trace={trace} failed its checks")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload}: result keys {sorted(result)}")
            expect(list(result["metrics"]) == names, f"{workload} trace={trace}: metric names")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            digests.add(report["digest"])
            if trace:
                layers = {k: v["value"] for k, v in result["metrics"].items()}
                expect(layers["trace.spans"] > 0, f"{workload}: no spans recorded")
                if workload == "scan":
                    expect(layers["frames.parses_per_wire_frame"] == 5.0,
                           "scan: parse_frame calls per wire frame is not 5")
                    expect(all(v == 0 for k, v in layers.items() if k.startswith("knock.")),
                           "scan: knock calls on a sweep with no crypto")
            else:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{workload}: an end-to-end metric is 0")
        expect(len(digests) == 1, f"{workload}: traced and untraced output differ")
        print(f"ok   {workload}: checks pass untraced and traced, digest {digests.pop()[:12]}")


def check_wrong_expectation() -> None:
    import workloads
    saved = workloads.CLOAKED_TX
    workloads.CLOAKED_TX = 1
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            status, _report, result = bench("scan", 0)
    finally:
        workloads.CLOAKED_TX = saved
    expect(status != 0 and result["correct"] is False,
           "a wrong expectation on scan did not fail the run")
    print("ok   scan: a wrong expectation exits non-zero")


def check_bare_directory() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan",
                               "--seed", SEED, "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program's source the run did not fail silently")
    print("ok   a directory without the program fails without a result")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        check_runs(spec)
        check_wrong_expectation()
        check_bare_directory()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
