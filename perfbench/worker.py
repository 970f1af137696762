#!/usr/bin/env python3
"""One repetition of a workload's batch, in a fresh interpreter.

    python3 perfbench/worker.py < job.json

`run.py` starts one worker per repetition, so every repetition meets a
cold engine: nothing the engine could keep between requests survives
from one repetition to the next. The job on standard input gives the
workload, the requests, and whether to keep the reports, trace the
batch and where to write its spans. The worker imports foldback and
sends the warm-up requests (together its set-up time), then sends
every request once, in order, timing each. With `keep` it prints each
report as one JSON string per line, between requests; its last line is
a JSON object with the set-up time, every latency and report digest,
its peak memory, the failures and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import checks  # noqa: E402  (benchmark modules live beside this file)
import workloads  # noqa: E402


def run_batch(requests: list[workloads.Request], *, keep: bool = False,
              tracer=None) -> dict:
    """Send every request once, in order; time each and digest its report.

    A request that raises is recorded with a digest of None. Digests are
    taken, and kept reports printed, outside the timed region."""
    latencies: list[float] = []
    digests: list[Optional[str]] = []
    errors: list[str] = []
    for number, request in enumerate(requests):
        text = None
        if tracer is not None:
            tracer.begin_request(number)
        start = time.perf_counter()
        try:
            text = workloads.execute(request)
        except Exception as exc:  # a failed request is counted, not fatal
            errors.append(f"{request.kind}: {type(exc).__name__}: {exc}")
        finally:
            latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end_request()
        digests.append(None if text is None else checks.digest(text))
        if keep:
            print(json.dumps(text))
    return {"latencies": latencies, "digests": digests, "errors": errors}


def main() -> int:
    job = json.load(sys.stdin)
    requests = [workloads.Request(*fields) for fields in job["requests"]]
    warmup = workloads.warmup(job["workload"])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import foldback.cli  # noqa: F401
    for request in warmup:
        workloads.execute(request)
    setup_s = time.perf_counter() - start
    if Path(foldback.__file__).resolve().parent != SRC / "foldback":
        print(f"perfbench: imported foldback from {foldback.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    layer = None
    if job["trace"]:
        from tracing import Tracer
        with Tracer() as tracer:
            result = run_batch(requests, keep=job["keep"], tracer=tracer)
        layer = tracer.metrics()
        if job.get("spans"):
            tracer.write(Path(job["spans"]))
        result["spans"] = tracer.spans()
    else:
        result = run_batch(requests, keep=job["keep"])
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["setup_s"] = setup_s
    result["layer"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
