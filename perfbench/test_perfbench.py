"""Tests of the benchmark itself: generators, reference, tracing, gate.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = (0, 1, 2, 17, 123456)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in SEEDS:
        assert workloads.batch(workload, seed) == workloads.batch(workload, seed)
    batches = {tuple(r.key for r in workloads.batch(workload, seed)) for seed in SEEDS}
    assert len(batches) == len(SEEDS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batch_composition_does_not_depend_on_the_seed(workload):
    mixes = {json.dumps(workloads.describe(workloads.batch(workload, seed)))
             for seed in SEEDS}
    assert len(mixes) == 1
    cells = {workloads.total_cells(workloads.batch(workload, seed)) for seed in SEEDS}
    assert len(cells) == 1


def test_replay_sends_each_kind_equally():
    counts = workloads.describe(workloads.batch("replay", 1))
    assert len(counts) == len(workloads.REPLAY_KINDS)
    assert set(counts.values()) == {workloads.REPLAY_PER_KIND}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_any_seed_sends_has_a_reference(workload):
    reference = checks.load_reference(workload)
    universe = {request.key for request in workloads.universe(workload)}
    assert universe == set(reference)
    for seed in SEEDS:
        assert {request.key for request in workloads.batch(workload, seed)} <= universe


def _sample(workload):
    """A cheap slice of each workload that still reaches its main layers."""
    batch = workloads.batch(workload, 5)
    if workload == "sweep":
        return [r for r in batch if r.kind in ("partition-heavy:median",
                                               "partition-heavy:anchored-family")
                or r.kind.startswith(("ev-properties", "gamma-laws", "enumerate"))]
    return batch[:150]


def _run(requests, tracer=None):
    return worker.run_batch(requests, tracer=tracer)


def _traced_counts(requests):
    with Tracer() as tracer:
        batch = _run(requests, tracer)
    counts = {name: value for name, (value, unit) in tracer.metrics().items()
              if unit != "s"}
    return batch["digests"], counts, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_report_and_counts_repeat(workload):
    requests = _sample(workload)
    plain = _run(requests)
    digests_a, counts_a, tracer = _traced_counts(requests)
    digests_b, counts_b, _ = _traced_counts(requests)
    assert plain["digests"] == digests_a == digests_b
    assert counts_a == counts_b
    reference = checks.load_reference(workload)
    assert plain["digests"] == [reference[r.key] for r in requests]
    assert tracer.spans() > len(requests)
    assert counts_a["cli.emit_report.calls"] == len(requests)


def test_wrappers_are_removed_and_seen_under_every_name():
    from foldback import ce_ops, consistency, rationals
    original = ce_ops.ce
    with Tracer() as tracer:
        assert consistency.ce is ce_ops.ce is not original
        _run(_sample("sweep")[:1], tracer)
    assert consistency.ce is ce_ops.ce is original
    assert not hasattr(rationals.ensure_unit, "__wrapped__")
    assert tracer.metrics()["rationals.ensure_unit.calls"][0] > 0


def test_self_times_add_up_to_the_request_time():
    requests = [r for r in _sample("sweep") if not r.kind.startswith("partition")]
    with Tracer() as tracer:
        batch = _run(requests, tracer)
    self_total = sum(value for name, (value, unit) in tracer.metrics().items()
                     if name.endswith(".self_s"))
    assert 0 < self_total <= sum(batch["latencies"])


def test_a_worker_repetition_matches_an_in_process_run():
    requests = workloads.batch("replay", 4)[:40]
    result = run.spawn("replay", requests, keep=True)
    assert result["digests"] == _run(requests)["digests"]
    assert [checks.digest(text) for text in result["reports"]] == result["digests"]
    assert len(result["latencies"]) == len(requests) and not result["errors"]
    assert result["setup_s"] > 0 and result["layer"] is None


def test_invariants_catch_a_tampered_report():
    request = next(r for r in workloads.batch("sweep", 3)
                   if r.kind == "act-heavy:median")
    report = json.loads(workloads.execute(request))
    assert not checks.invariants("sweep", [request], [json.dumps(report)])
    report["failures"][0]["folded"] = "1/7"
    assert checks.invariants("sweep", [request], [json.dumps(report)])


def test_run_refuses_without_engine_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
