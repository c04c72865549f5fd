"""Golden demo outputs: every demo's `--hex` trace and metrics, byte for byte.

The files under `tests/data/golden/` were written by

    cloaknic demo <name> --hex --seed 0 --quiet \
        --trace <name>.trace --metrics <name>.metrics

with the two large traces gzipped (`gzip -n -9`). A refactor must leave them
unchanged; a defect fix that changes a trace regenerates them and says which
lines changed and why.
"""

import gzip
import pathlib

import pytest

from cloaknic.cli import main
from cloaknic.demos import DEMOS

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


def golden_bytes(name: str) -> bytes:
    path = GOLDEN / name
    if path.exists():
        return path.read_bytes()
    return gzip.decompress((GOLDEN / f"{name}.gz").read_bytes())


def test_every_demo_has_golden_files():
    stems = {p.name.split(".")[0] for p in GOLDEN.iterdir()}
    assert stems == set(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_matches_golden(name, tmp_path):
    trace, metrics = tmp_path / "trace", tmp_path / "metrics"
    rc = main(["demo", name, "--hex", "--seed", "0", "--quiet",
               "--trace", str(trace), "--metrics", str(metrics)])
    assert rc == 0
    assert trace.read_bytes() == golden_bytes(f"{name}.trace")
    assert metrics.read_bytes() == golden_bytes(f"{name}.metrics")
