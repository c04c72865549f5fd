"""The benchmark's workloads render the same output as the recorded digests.

An untraced run of each workload at a fixed seed, tiny and at full size,
must pass its checks and render output whose sha256 is the one recorded
below. A change that alters any trace line or metric of a workload fails
here; a change that means to alter them must say which lines changed and
why, and record the new digests.
"""

import pytest

TINY_SEED_1_DIGESTS = {
    "scan": "9e04749ac138d5f9931a450e0d618649b4dc4e70e8ed6fdb93d17003b1bfada9",
    "knock-storm": "0b94b5ea40db5760bc00194dbd174c9fd85c0e6d545258a5ab5a38b991d17ac8",
    "forged-flood": "712b2229a1a9829cdd542c18bcaaf1b14764c2d6371963a52d002c52170be9a0",
}

# One pass each at `--seconds 0`, about 2 s for the three.
FULL_SEED_1_DIGESTS = {
    "scan": "6d15a4b80dcd9e44a16b976baa507cf874c50364540438b8950a1b1111d066ff",
    "knock-storm": "83f461c8de0e5c54b0dac519f13fbf10b0e3cc904116daf355287df960841b9e",
    "forged-flood": "ecf315220c19ee662f0a14b67abfada7fe1ad589377519073a48ae9dddef734b",
}


@pytest.mark.parametrize("workload", sorted(TINY_SEED_1_DIGESTS))
def test_workload_output_matches_recorded_digest(bench, workload):
    status, report, result = bench(workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    assert status == 0 and result["correct"], report["problems"]
    assert report["digest"] == TINY_SEED_1_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(FULL_SEED_1_DIGESTS))
def test_full_size_output_matches_recorded_digest(bench, workload):
    status, report, result = bench(workload, "--seed", "1", "--seconds", "0", "--trace", "0",
                                   size="full")
    assert status == 0 and result["correct"], report["problems"]
    assert report["digest"] == FULL_SEED_1_DIGESTS[workload]
