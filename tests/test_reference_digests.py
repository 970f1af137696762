"""Every benchmark report against the digest recorded for it.

`perfbench/reference.json` holds, for every request that any seed of the
`sweep` and `replay` workloads can send, the digest of the report the
engine gave when the reference was recorded. Each request here goes
through `workloads.execute`, the benchmark's own route into the engine,
so a change to any report byte of either universe fails Tier-1, not only
the requests that one seed's batch happens to send. The benchmark's
modules are imported as they are and nothing of them is changed.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload,requests", [("sweep", 113), ("replay", 3700)])
def test_every_report_matches_its_reference_digest(workload, requests):
    reference = checks.load_reference(workload)
    universe = workloads.universe(workload)
    assert len(universe) == requests
    mismatched = [f"{request.kind} (request {request.key})" for request in universe
                  if checks.digest(workloads.execute(request)) != reference.get(request.key)]
    assert not mismatched, f"{len(mismatched)} reports differ: {mismatched[:5]}"
