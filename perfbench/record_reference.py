#!/usr/bin/env python3
"""Record reference.json: the report digest of every request any seed can produce.

    python3 perfbench/record_reference.py

Run it only on a commit whose reports are known to be right: it sends
every workload's whole request universe through the engine, and
refuses to write anything if a request raises or an invariant of
`checks.py` breaks.
"""

import json
import sys
from pathlib import Path

import checks
import workloads
from run import source_digest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def record(workload: str) -> dict[str, str]:
    requests = workloads.universe(workload)
    texts = [workloads.execute(request) for request in requests]
    problems = checks.invariants(workload, requests, texts)
    if problems:
        raise SystemExit(f"{workload}: invariants broken, nothing recorded:\n"
                         + "\n".join(problems[:20]))
    return dict(sorted((request.key, checks.digest(text))
                       for request, text in zip(requests, texts)))


def main() -> None:
    data = {"workloads": {}}
    for workload in workloads.WORKLOADS:
        data["workloads"][workload] = record(workload)
        print(f"{workload}: {len(data['workloads'][workload])} digests")
    data["source_sha256"] = source_digest()
    checks.REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
