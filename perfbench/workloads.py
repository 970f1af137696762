"""Seeded request generators for the three benchmark workloads.

A request is one call to a foldback verb or library entry point on one
generated problem. Every workload draws its requests from a finite
universe that depends on no seed, so `reference.json` can hold the
report digest of every problem any seed can produce. The seed picks
parameters (anchors, alphas, sampled problems) and the order; the
composition of a batch (how many requests of each shape) is fixed, so
the work in a batch barely depends on the seed.

This module does not import foldback at import time: the set-up
measurement imports it after this module is loaded.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("sweep", "replay")

VACUOUS_FRAMEWORKS = ("credal-set", "belief-function", "possibility")
ALPHAS = ("1/4", "1/3", "3/8", "1/2", "5/8", "2/3", "3/4")
EPSILONS = ("1", "3/4", "1/2", "1/3", "1/4", "1/8")

# sweep shapes: act-heavy (n <= 4, 81 acts at n = 4) and partition-heavy
# (n = 5, Bell(5) = 52). The act-heavy grid is k/2, not k/4, so that a
# 50-second run repeats the batch several times (see run.py on timing).
ACT_HEAVY = {"suite": "sequential", "grid-denominator": 2, "sizes": [2, 3, 4]}
PARTITION_HEAVY = {"suite": "sequential", "grid-denominator": 1, "sizes": [5]}
SWEEP_FRAMEWORKS = 3


@dataclass(frozen=True)
class Request:
    """One generated problem and the entry point it is sent to."""

    verb: str  # "check", "evaluate", "consensus" or "enumerate"
    text: str  # the problem as JSON text, exactly as the engine receives it
    kind: str  # generator label, used by the invariant checks
    cells: int = 0  # (act, partition, framework) cells a sequential sweep folds

    @property
    def key(self) -> str:
        """Content address of the request, the key into reference.json."""
        return hashlib.sha256(f"{self.verb}\n{self.text}".encode()).hexdigest()[:16]


def _q(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def grid(denominator: int) -> list[str]:
    return [_q(Fraction(k, denominator)) for k in range(denominator + 1)]


def _text(problem: dict) -> str:
    return json.dumps(problem, sort_keys=True)


def _bell(n: int) -> int:
    """Number of partitions of an n-element set."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def sweep_cells(denominator: int, sizes, frameworks: int = SWEEP_FRAMEWORKS) -> int:
    """(act, partition, framework) cells a sequential sweep folds."""
    return sum((denominator + 1) ** n * _bell(n) for n in sizes) * frameworks


# -- rules -----------------------------------------------------------------


def anchored(anchor: str) -> dict:
    return {"kind": "anchored", "anchor": anchor}


def hurwicz(alpha: str) -> dict:
    return {"kind": "hurwicz", "alpha": alpha}


MIN = {"kind": "min"}
MAX = {"kind": "max"}
MEDIAN = {"kind": "median"}


def tabulated_anchored(anchor: str, denominator: int) -> dict:
    """The anchored rule frozen into a table on the grid k/denominator."""
    a = Fraction(anchor)
    points = [Fraction(k, denominator) for k in range(denominator + 1)]
    entries = []
    for x in points:
        for y in points:
            if x <= y:
                value = y if y <= a else x if x >= a else a
                entries.append([_q(x), _q(y), _q(value)])
    return {"kind": "tabulated", "entries": entries}


# -- sweep -----------------------------------------------------------------


def _check(operator: dict, settings: dict, kind: str) -> Request:
    problem = dict(settings, operator=operator)
    cells = (sweep_cells(settings["grid-denominator"], settings["sizes"])
             if settings.get("suite") == "sequential" else 0)
    return Request("check", _text(problem), kind, cells)


def _anchored_family(choice: Callable) -> dict:
    """One rule that folds everywhere: anchored, min, max or an anchored table."""
    return choice([anchored(choice(grid(8))), MIN, MAX,
                   tabulated_anchored(choice(grid(4)), 4)])


def _folding_batch(rng: random.Random) -> list[Request]:
    """Four sweeps, the same shapes in the same order for every seed.

    Act-heavy sweeps the two rules that fail to fold, Hurwicz and the
    median, without stop-at-first, so encoding their full failure lists
    is part of the load. Partition-heavy sweeps the median (which folds
    on 0/1 acts) and a rule of the anchored family, which folds
    everywhere, picked by `rng` with its anchor. Four sweeps, not one per
    rule and shape, keep a repetition short enough for a run to repeat
    it often (see run.py on timing).
    """
    return [_check(hurwicz(rng.choice(ALPHAS)), ACT_HEAVY, "act-heavy:hurwicz"),
            _check(_anchored_family(rng.choice), PARTITION_HEAVY,
                   "partition-heavy:anchored-family"),
            _check(MEDIAN, ACT_HEAVY, "act-heavy:median"),
            _check(MEDIAN, PARTITION_HEAVY, "partition-heavy:median")]


def _folding_universe() -> list[Request]:
    family = ([anchored(a) for a in grid(8)] + [MIN, MAX]
              + [tabulated_anchored(a, 4) for a in grid(4)])
    return ([_check(hurwicz(a), ACT_HEAVY, "act-heavy:hurwicz") for a in ALPHAS]
            + [_check(op, PARTITION_HEAVY, "partition-heavy:anchored-family")
               for op in family]
            + [_check(MEDIAN, ACT_HEAVY, "act-heavy:median"),
               _check(MEDIAN, PARTITION_HEAVY, "partition-heavy:median")])


# -- laws ------------------------------------------------------------------

SET_ORDER = {"suite": "set-order", "grid-denominator": 4, "family-max-size": 3}
EV_PROPERTIES = {"suite": "ev-properties", "grid-denominator": 8}
GAMMA_LAWS = {"suite": "gamma-laws", "grid-denominator": 16}
ENUMERATE_DENOMINATOR = 4


def _enumerate_request() -> Request:
    return Request("enumerate", _text({"denominator": ENUMERATE_DENOMINATOR}),
                   "enumerate")


def _law_rules(choice: Callable, denominator: int, *, median: bool) -> list[dict]:
    rules = [anchored(choice(grid(8))), MIN, MAX, hurwicz(choice(ALPHAS))]
    if median:
        rules.append(MEDIAN)
    rules.append(tabulated_anchored(choice(grid(denominator)), denominator))
    return rules


def _law_requests(rules_for: Callable) -> list[Request]:
    requests = []
    for settings, median in ((SET_ORDER, True), (EV_PROPERTIES, True),
                             (GAMMA_LAWS, False)):
        for op in rules_for(settings["grid-denominator"], median):
            requests.append(_check(op, settings, f"{settings['suite']}:{op['kind']}"))
    return requests


def _laws_batch(rng: random.Random) -> list[Request]:
    """The same 18 shapes in the same order for every seed; `rng` picks
    anchors, alphas and table anchors."""
    batch = _law_requests(lambda d, median: _law_rules(rng.choice, d, median=median))
    return batch + [_enumerate_request()]


def _laws_universe() -> list[Request]:
    def every_rule(denominator: int, median: bool) -> list[dict]:
        rules = [anchored(a) for a in grid(8)] + [MIN, MAX]
        rules += [hurwicz(a) for a in ALPHAS]
        if median:
            rules.append(MEDIAN)
        rules += [tabulated_anchored(a, denominator) for a in grid(denominator)]
        return rules

    return _law_requests(every_rule) + [_enumerate_request()]


def sweep_batch(rng: random.Random) -> list[Request]:
    """The exhaustive checkers: four folding sweeps, then 18 law checks."""
    return _folding_batch(rng) + _laws_batch(rng)


def sweep_universe() -> list[Request]:
    return _folding_universe() + _laws_universe()


# -- replay ----------------------------------------------------------------


def _operator(rule: dict, *, extension: bool = False) -> dict:
    # the operator record exactly as reports echo it (encode_operator)
    return dict(rule, **{"probabilistic-rule": True, "credal-extension": extension})


def _any_rule(rng: random.Random, denominator: int) -> dict:
    """A rule from the full mix; a table covers the grid k/denominator."""
    pick = rng.randrange(6)
    if pick == 0:
        return anchored(rng.choice(grid(8)))
    if pick == 1:
        return MIN
    if pick == 2:
        return MAX
    if pick == 3:
        return hurwicz(rng.choice(ALPHAS))
    if pick == 4:
        return MEDIAN
    return tabulated_anchored(rng.choice(grid(denominator)), denominator)


def _pair_rule(rng: random.Random) -> dict:
    """A pair rule defined off any grid (so no table)."""
    pick = rng.randrange(4)
    if pick == 0:
        return anchored(rng.choice(grid(8)))
    if pick == 1:
        return MIN
    if pick == 2:
        return MAX
    return hurwicz(rng.choice(ALPHAS))


def _act(rng: random.Random, n: int, denominator: int) -> list[str]:
    return [rng.choice(grid(denominator)) for _ in range(n)]


def _blocks(rng: random.Random, n: int) -> list[list[int]]:
    """A random partition of range(n), as a restricted-growth string."""
    labels = [0]
    for _ in range(n - 1):
        labels.append(rng.randint(0, max(labels) + 1))
    blocks: dict[int, list[int]] = {}
    for state, label in enumerate(labels):
        blocks.setdefault(label, []).append(state)
    return [blocks[label] for label in sorted(blocks)]


def _normalized(raw: list[int]) -> list[str]:
    total = sum(raw)
    return [_q(Fraction(w, total)) for w in raw]


def _probe_vacuous(rng: random.Random) -> Request:
    # witness probes: a vacuous measure and 1..4 sorted distinct outcomes
    outcomes = sorted(set(_act(rng, rng.randint(1, 4), 8)), key=Fraction)
    problem = {"states": len(outcomes), "act": outcomes,
               "framework": rng.choice(VACUOUS_FRAMEWORKS),
               "measure": {"kind": "vacuous"},
               "operator": _operator(_any_rule(rng, 8))}
    return Request("evaluate", _text(problem), "probe-vacuous")


def _probe_constant(rng: random.Random) -> Request:
    # constant probes: a point-mass probability on one state
    problem = {"states": 1, "act": _act(rng, 1, 8), "framework": "probability",
               "measure": {"kind": "probability", "weights": ["1"]},
               "operator": _operator(_any_rule(rng, 8))}
    return Request("evaluate", _text(problem), "probe-constant")


def _verdict(rng: random.Random) -> Request:
    # sequential-verdict replays: n <= 4 on k/4 under a vacuous measure
    n = rng.randint(2, 4)
    problem = {"states": n, "act": _act(rng, n, 4), "partition": _blocks(rng, n),
               "framework": rng.choice(VACUOUS_FRAMEWORKS),
               "measure": {"kind": "vacuous"},
               "operator": _operator(_any_rule(rng, 4))}
    return Request("evaluate", _text(problem), "verdict")


def _concrete(framework: str) -> Callable[[random.Random], Request]:
    """Concrete measures on n <= 8, valid by construction.

    Every block of the optional partition keeps positive upper weight,
    so conditioning on it never meets a zero-plausibility event.
    """
    def make(rng: random.Random) -> Request:
        n = rng.randint(2, 8)
        blocks = _blocks(rng, n) if rng.random() < 0.5 else None
        if framework == "probability":
            measure = {"kind": "probability",
                       "weights": _normalized([rng.randint(1, 6) for _ in range(n)])}
        elif framework == "credal-set":
            # the first generator is strictly positive, so every event keeps weight
            generators = [_normalized([rng.randint(1, 6) for _ in range(n)])]
            for _ in range(rng.randint(0, 2)):
                raw = [rng.randint(0, 6) for _ in range(n)]
                raw[rng.randrange(n)] += 1
                generators.append(_normalized(raw))
            measure = {"kind": "credal-set", "generators": generators}
        elif framework == "belief-function":
            focal = [sorted(rng.sample(range(n), rng.randint(1, n)))
                     for _ in range(rng.randint(1, 4))]
            for block in blocks or ():
                if not any(set(event) & set(block) for event in focal):
                    event = rng.choice(focal)
                    event.append(rng.choice(block))
                    event.sort()
            masses = _normalized([rng.randint(1, 6) for _ in focal])
            measure = {"kind": "belief-function", "masses": [
                {"event": event, "mass": mass} for event, mass in zip(focal, masses)]}
        else:
            # positive grades, with one fully possible state
            grades = [rng.choice(grid(8)[1:]) for _ in range(n)]
            grades[rng.randrange(n)] = "1"
            measure = {"kind": "possibility", "grades": grades}
        problem = {"states": n, "act": _act(rng, n, 8), "measure": measure,
                   "operator": _operator(_pair_rule(rng),
                                         extension=framework != "probability")}
        if blocks is not None:
            problem["partition"] = blocks
        return Request("evaluate", _text(problem), "concrete-" + framework)
    return make


def _consensus(mode: str) -> Callable[[random.Random], Request]:
    def make(rng: random.Random) -> Request:
        n = rng.randint(2, 6)
        rule = _pair_rule(rng)
        if mode == "consensus" and rng.random() < 0.2:
            rule = MEDIAN
        problem = {"act": _act(rng, n, 8), "mode": mode, "operator": _operator(rule)}
        if mode == "certainty":
            problem["state"] = rng.randrange(n)
        if mode == "limit":
            count = rng.randint(2, 4)
            picked = sorted(rng.sample(range(len(EPSILONS)), count))
            problem["epsilons"] = [EPSILONS[i] for i in picked]
            if rng.random() < 0.5:
                problem["base"] = _normalized([rng.randint(1, 6) for _ in range(n)])
        return Request("consensus", _text(problem), mode)
    return make


# One generator per kind of problem, with the size of its fixed pool. No
# log of real traffic exists to weight the kinds by, so a batch samples
# the same number of each. Contamination-limit problems are the slowest
# kind and vary most (2 to 12 ms each); a sample of them would move
# req_p99_ms and wall_s from seed to seed, so their pool is exactly the
# problems every batch sends.
REPLAY_PER_KIND = 100
REPLAY_KINDS: tuple[tuple[Callable[[random.Random], Request], int], ...] = (
    (_probe_vacuous, 400),
    (_probe_constant, 400),
    (_verdict, 400),
    (_concrete("probability"), 400),
    (_concrete("credal-set"), 400),
    (_concrete("belief-function"), 400),
    (_concrete("possibility"), 400),
    (_consensus("consensus"), 400),
    (_consensus("certainty"), 400),
    (_consensus("limit"), REPLAY_PER_KIND),
)


def replay_pools() -> list[list[Request]]:
    """The fixed problem pools, one per kind, independent of the seed."""
    rng = random.Random("replay-pool")
    return [[make(rng) for _ in range(size)] for make, size in REPLAY_KINDS]


def replay_batch(rng: random.Random) -> list[Request]:
    batch = []
    for pool in replay_pools():
        batch.extend(rng.sample(pool, REPLAY_PER_KIND))
    rng.shuffle(batch)
    return batch


def replay_universe() -> list[Request]:
    return [request for pool in replay_pools() for request in pool]


# -- entry points ----------------------------------------------------------

BATCHES = {"sweep": sweep_batch, "replay": replay_batch}
UNIVERSES = {"sweep": sweep_universe, "replay": replay_universe}


def batch(workload: str, seed: int) -> list[Request]:
    return BATCHES[workload](random.Random(f"{workload}:{seed}"))


def universe(workload: str) -> list[Request]:
    return UNIVERSES[workload]()


def warmup(workload: str) -> list[Request]:
    """Tiny fixed requests touching the same entry points as the workload."""
    if workload == "sweep":
        small = {"suite": "sequential", "grid-denominator": 2, "sizes": [2, 3]}
        return [_check(anchored("1/2"), small, "warmup"),
                _check(hurwicz("1/2"), small, "warmup"),
                _check(anchored("1/2"), dict(SET_ORDER, **{"grid-denominator": 2}), "warmup"),
                _check(MEDIAN, dict(EV_PROPERTIES, **{"grid-denominator": 2}), "warmup"),
                _check(hurwicz("1/2"), dict(GAMMA_LAWS, **{"grid-denominator": 2}), "warmup"),
                Request("enumerate", _text({"denominator": 2}), "warmup")]
    rng = random.Random("replay-warmup")
    return [make(rng) for make, _ in REPLAY_KINDS]


def execute(request: Request) -> str:
    """Send one request through the engine and return the report text.

    Entry points are looked up on their modules at call time, so the
    traced run's wrappers see every call.
    """
    from foldback import cli, consistency

    if request.verb == "enumerate":
        spec = json.loads(request.text)
        tables = consistency.enumerate_lawful_gamma_tables(spec["denominator"])
        payload = {"command": "enumerate", "denominator": spec["denominator"],
                   "tables": [cli.encode_rule(table) for table in tables]}
        return cli.emit_report(cli.ReportFile(payload, 0))
    problem = cli.parse_problem(cli.loads_exact(request.text))
    if request.verb == "check":
        report = cli.cmd_check(problem)
    elif request.verb == "evaluate":
        report = cli.cmd_evaluate(problem)
    else:
        report = cli.cmd_consensus(problem)
    return cli.emit_report(report)


def describe(requests: list[Request]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for request in requests:
        counts[request.kind] = counts.get(request.kind, 0) + 1
    return dict(sorted(counts.items()))


def total_cells(requests: list[Request]) -> int:
    return sum(request.cells for request in requests)

