#!/usr/bin/env python3
"""The foldback benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

One client on one thread sends the workload's batch of requests, each
only after the previous report has been emitted, and repeats the batch
while another repetition fits in `--seconds`. Each repetition runs in a
fresh interpreter (`worker.py`), so it meets a cold engine: no state
the engine keeps between requests carries over from one repetition to
the next, and each repetition pays its own first-occurrence costs.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the run first traces
repetitions for half the budget, then times untraced ones, and reports
the per-layer metrics of the first traced repetition. Every report is
checked against `reference.json`, and the first repetition's also
against the invariants in `checks.py`; the exit code is 0 only when
all of them hold. Run it from anywhere: it finds the engine under
`src/` beside this directory.

Timings are per-request best times. On a shared 2-vCPU virtual machine
a request's latency varied by up to 2x from one repetition to the next,
so each request's latency is its minimum over the run's repetitions,
and `wall_s`, `req_per_s` and the percentiles are taken over those
minima. The `meta` line also gives the median repetition's figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_MESSAGES = 20

import checks  # noqa: E402  (benchmark modules live beside this file)
import workloads  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, requests: list[workloads.Request], *, keep: bool = False,
          trace: bool = False, spans: Optional[Path] = None) -> dict:
    """Run one repetition in a fresh worker and return what it reports.

    With `keep`, the result also holds the report texts, in order."""
    job = {"workload": workload, "keep": keep, "trace": trace,
           "spans": str(spans) if spans else None,
           "requests": [[r.verb, r.text, r.kind, r.cells] for r in requests]}
    done = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                          input=json.dumps(job), capture_output=True, text=True,
                          timeout=150)
    if done.returncode != 0:
        raise WorkerError(done.stderr.strip()[-2000:] or f"exit {done.returncode}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    result["reports"] = [json.loads(line) for line in lines[:-1]]
    return result


def repeat(workload: str, requests: list[workloads.Request], budget: float, *,
           trace: bool = False,
           spans: Optional[Path] = None) -> tuple[list[dict], list[float]]:
    """Run repetitions while one more is expected to fit in the budget.

    At least one runs. The first keeps its reports and, when traced,
    writes its spans. Returns the repetitions' results and the set-up
    samples: each untraced repetition gives its own and is followed by
    a worker that sends no request and gives one more, so that a workload
    with few long repetitions still has a spread of samples."""
    results: list[dict] = []
    setups: list[float] = []
    costs: list[float] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        first = not results
        results.append(spawn(workload, requests, keep=first, trace=trace,
                             spans=spans if first else None))
        if not trace:
            setups += [results[-1]["setup_s"], spawn(workload, [])["setup_s"]]
        costs.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(costs) > budget:
            return results, setups


def best_latencies(results: list[dict]) -> list[float]:
    """Each request's minimum latency over the repetitions."""
    return [min(column) for column in zip(*(r["latencies"] for r in results))]


def p99(values: list[float]) -> float:
    # interpolated, so a small sample does not reduce p99 to its maximum
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def judge(results: list[dict], requests: list[workloads.Request],
          reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """Requests attempted and failed, and the first failure messages.

    A request fails if it raised or if its report digest differs from
    the reference."""
    attempted = failed = 0
    messages: list[str] = []
    for result in results:
        messages.extend(result["errors"])
        for request, digest in zip(requests, result["digests"]):
            attempted += 1
            expected = reference.get(request.key)
            if digest != expected:
                failed += 1
                if digest is not None:
                    messages.append(f"{request.kind}: report digest {digest} differs "
                                    f"from reference {expected} (request {request.key})")
    return attempted, failed, messages[:MAX_MESSAGES]


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "foldback").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foldback" / "__init__.py").is_file():
        print(f"perfbench: no foldback sources at {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    requests = workloads.batch(args.workload, args.seed)
    reference = checks.load_reference(args.workload)

    traced: list[dict] = []
    try:
        if args.trace:
            began = time.perf_counter()
            traced, _ = repeat(args.workload, requests, args.seconds / 2, trace=True,
                               spans=HERE / "out" / f"trace-{args.workload}")
            plain, setups = repeat(args.workload, requests,
                                   args.seconds - (time.perf_counter() - began))
        else:
            plain, setups = repeat(args.workload, requests, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: a worker failed: {exc}", file=sys.stderr)
        return 2

    attempted, failed, messages = judge(plain + traced, requests, reference)
    sys.path.insert(0, str(SRC))
    if len(plain[0]["reports"]) == len(requests) and None not in plain[0]["reports"]:
        messages.extend(checks.invariants(args.workload, requests, plain[0]["reports"]))
    if traced and traced[0]["digests"] != plain[0]["digests"]:
        messages.append("traced and untraced reports differ")
    correct = failed == 0 and not messages

    best = best_latencies(plain)
    wall_s = sum(best)
    if traced:
        layer = {name: tuple(value) for name, value in traced[0]["layer"].items()}
        layer["trace.overhead_ratio"] = (sum(best_latencies(traced)) / wall_s, "ratio")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
    else:
        metrics = {
            # the first worker may compile bytecode, so its sample is dropped
            "setup_s": {"value": statistics.median(setups[1:]), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "req_per_s": {"value": len(best) / wall_s, "unit": "1/s"},
            "req_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "req_p99_ms": {"value": p99(best) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": max(r["maxrss_kb"] for r in plain) / 1024,
                            "unit": "MB"},
        }

    typical = sorted(plain, key=lambda r: sum(r["latencies"]))[len(plain) // 2]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "requests_per_batch": len(requests),
        "request_mix": workloads.describe(requests),
        "untraced_repetitions": len(plain),
        "traced_repetitions": len(traced),
        "requests_attempted": attempted,
        "fail_ratio": failed / attempted,
        "setup_samples": len(setups) - 1,
        "median_repetition_s": sum(typical["latencies"]),
        "median_repetition_p50_ms": statistics.median(typical["latencies"]) * 1e3,
        "median_repetition_p99_ms": p99(typical["latencies"]) * 1e3,
        "report_digest": hashlib.sha256(
            "".join(d or "-" for d in plain[0]["digests"]).encode()).hexdigest()[:16],
    }
    cells = workloads.total_cells(requests)
    if cells:
        meta["cells_per_batch"] = cells
        meta["cells_per_s"] = cells / wall_s
    if traced:
        meta["spans"] = traced[0]["spans"]
    for message in messages[:MAX_MESSAGES]:
        print(f"FAIL {message}")
    if failed > len(messages):
        print(f"FAIL {failed} of {attempted} requests failed")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
