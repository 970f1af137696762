"""Correctness gate: reference digests and reference-free invariants.

`reference.json` maps every request any seed can produce (by its
content address, `Request.key`) to the digest of the report the engine
gave at the commit that recorded it. The invariants need no reference:
they restate results of the paper and of the report format that every
correct engine keeps. Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Iterable

from workloads import Request, grid, tabulated_anchored

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# rules that fold exactly everywhere and satisfy the gamma and EV laws
ANCHORED_FAMILY = ("anchored", "min", "max", "tabulated")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference(workload: str) -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


class Replayer:
    """Replays witness probes and verdicts through `cmd_evaluate`.

    Witness probes repeat across witnesses, so each distinct probe is
    evaluated once and its value compared with every witness using it.
    """

    def __init__(self) -> None:
        from foldback import cli
        self.cli = cli
        self._probes: dict[str, str] = {}

    def _evaluate(self, problem: dict) -> dict:
        return self.cli.cmd_evaluate(self.cli.parse_problem(problem)).payload

    def probe(self, probe: dict, operator: dict) -> str:
        problem = self.cli.probe_problem(probe, operator)
        key = json.dumps(problem, sort_keys=True)
        if key not in self._probes:
            self._probes[key] = self._evaluate(problem)["ce"]
        return self._probes[key]

    def verdict(self, verdict: dict, operator: dict) -> tuple[str, str]:
        payload = self._evaluate(self.cli.verdict_problem(verdict, operator))
        return payload["ce"], payload["folded"]


def _sweep(request: Request, report: dict, replay: Replayer) -> Iterable[str]:
    operator = report["problem"]["operator"]
    if operator["kind"] in ANCHORED_FAMILY and report["summary"]["violations"]:
        yield f"{request.kind}: {report['summary']['violations']} folding failures"
    for verdict in report["failures"]:
        if replay.verdict(verdict, operator) != (verdict["direct"], verdict["folded"]):
            yield f"{request.kind}: verdict {verdict['act']} does not replay"


def _laws(request: Request, report: dict, replay: Replayer) -> Iterable[str]:
    if request.verb == "enumerate":
        found = sorted(json.dumps(table, sort_keys=True) for table in report["tables"])
        expected = sorted(json.dumps(tabulated_anchored(a, 4), sort_keys=True)
                          for a in grid(4))
        if found != expected:
            yield "enumerate: the lawful tables on k/4 are not the five anchored ones"
        return
    suite = report["problem"]["suite"]
    operator = report["problem"]["operator"]
    if (suite in ("gamma-laws", "ev-properties") and operator["kind"] in ANCHORED_FAMILY
            and report["summary"]["violations"]):
        yield f"{request.kind}: {report['summary']['violations']} law violations"
    for law in report["reports"]:
        for witness in law["witnesses"]:
            if (replay.probe(witness["probe-left"], operator) != witness["left"]
                    or replay.probe(witness["probe-right"], operator) != witness["right"]):
                yield f"{request.kind}: a {law['law']} witness does not replay"


def _replay(request: Request, report: dict, replay: Replayer) -> Iterable[str]:
    problem = report["problem"]
    if request.kind in ("consensus", "certainty") and not report["agree"]:
        yield f"{request.kind}: frameworks disagree on {problem['act']}"
    if request.kind == "limit" and not report["bound-satisfied"]:
        yield f"limit: {problem['act']} leaves the contamination envelope"
    if request.kind == "probe-constant" and report["ce"] != problem["act"][0]:
        yield f"probe-constant: a point mass on {problem['act'][0]} gave {report['ce']}"
    if (request.kind == "verdict" and problem["operator"]["kind"] in ANCHORED_FAMILY
            and not report["holds"]):
        yield f"verdict: an anchored-family rule fails to fold {problem['act']}"


def _hurwicz_breaks() -> Iterable[str]:
    """Hurwicz(1/2) breaks under folding: 1/2 direct against 1/4 folded.

    That is the paper's instance, act (0, 0, 1) with blocks {0} and
    {1, 2}; the sweep's own first failure, in its canonical order, comes
    earlier (act (0, 0, 1/4), 1/8 against 1/16).
    """
    from foldback import cli
    hurwicz = {"kind": "hurwicz", "alpha": "1/2"}
    payload = cli.cmd_evaluate(cli.parse_problem({
        "act": ["0", "0", "1"], "partition": [[0], [1, 2]], "operator": hurwicz,
    })).payload
    if (payload["ce"], payload["folded"]) != ("1/2", "1/4"):
        yield "hurwicz(1/2): folding (0, 0, 1) does not give 1/2 vs 1/4"
    failures = cli.cmd_check(cli.parse_problem(
        {"operator": hurwicz, "suite": "sequential", "stop-at-first": True})).payload["failures"]
    if [(f["act"], f["direct"], f["folded"]) for f in failures] != [
            (["0", "0", "1/4"], "1/8", "1/16")]:
        yield "hurwicz(1/2): the sweep's first failure is not (0, 0, 1/4), 1/8 vs 1/16"


def _checker(workload: str, request: Request) -> Callable[[Request, dict, Replayer],
                                                          Iterable[str]]:
    if workload == "replay":
        return _replay
    if request.kind.startswith(("act-heavy", "partition-heavy")):
        return _sweep
    return _laws


def invariants(workload: str, requests: list[Request], texts: list[str]) -> list[str]:
    """Every invariant broken by these reports, as one message each."""
    replay = Replayer()
    problems: list[str] = []
    for request, text in zip(requests, texts):
        problems.extend(_checker(workload, request)(request, json.loads(text), replay))
    if workload == "sweep":
        problems.extend(_hurwicz_breaks())
    return problems
