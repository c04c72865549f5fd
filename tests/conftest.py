"""Shared fixtures."""

import contextlib
import io
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """Runs `perfbench/run.py` in-process, writing under `tmp_path`.

    The returned function takes the command-line arguments after `--workload`
    and a `size`, "tiny" unless given, and gives the exit status, the report
    and the result line.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    monkeypatch.setattr(run, "OUT_DIR", tmp_path)

    def bench_run(workload, *args, size="tiny"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", workload, *args], size=size)
        report, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
        return status, report["report"], result

    yield bench_run
    for name in ("run", "tracer", "workloads"):
        sys.modules.pop(name, None)
