"""Shared strategies for property tests, and the acceptance ledger.

Everything is generated exactly: probability vectors come from integer
weights normalized by their sum, so they add to 1 with no rounding.
"""

import itertools
import json
from fractions import Fraction

from hypothesis import strategies as st

# one (number, ok, detail) row per acceptance criterion, printed as a
# terminal section at the end of the run so capture cannot swallow it
ACCEPTANCE_LEDGER: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LEDGER:
        return
    terminalreporter.section("acceptance ledger")
    for number, ok, detail in sorted(ACCEPTANCE_LEDGER):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:02d} {status} {detail}")

def assert_same_text(got: str, want: str) -> None:
    """Fail unless two texts are identical, naming the first offset where
    they differ with a short window around it.

    A plain `assert got == want` makes pytest diff the two texts when it
    fails, which takes minutes on reports of a few megabytes; this fails
    in the time a scan takes, and is just as strict.
    """
    if got == want:
        return
    at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    window = slice(max(0, at - 40), at + 40)
    raise AssertionError(f"texts differ at offset {at:,} (lengths {len(got):,} and"
                         f" {len(want):,}): got {got[window]!r}, want {want[window]!r}")


from foldback import (
    Act,
    BeliefFunctionMeasure,
    CredalSetMeasure,
    PossibilityMeasure,
    ProbabilityMeasure,
    StateSpace,
    enumerate_partitions,
)
from foldback.cli import Records, _write_cells
from foldback.consistency import Probe, Witness
from foldback.rationals import format_rational


# -- the reference text of a report ----------------------------------------
# A check report's payload holds the engine's own `Witness`es, and one
# record per failing sweep cell, which the report writer writes from
# their fields. These encoders are the record shapes it must write, keys
# in report order, and `reference_text` is the text `json.dumps` makes of
# a payload with them.


def probe_record(probe: Probe) -> dict:
    record = {"outcomes": [format_rational(u) for u in probe.outcomes],
              "framework": probe.framework.value}
    if probe.weights is not None:
        record["weights"] = [format_rational(w) for w in probe.weights]
    return record


def witness_record(witness: Witness) -> dict:
    return {"inputs": list(witness.inputs),
            "left": format_rational(witness.left),
            "right": format_rational(witness.right),
            "probe-left": probe_record(witness.probe_left),
            "probe-right": probe_record(witness.probe_right)}


def reference_text(payload) -> str:
    """`json.dumps(payload, indent=2)`, each witness as its record and
    each sweep cell as one record per framework."""
    return json.dumps(reference_payload(payload), indent=2)


def reference_payload(value):
    """A copy of a payload in plain dicts and lists, each witness as its
    record and each sweep cell as one record per framework: what
    `json.loads` makes of the report's text."""
    if isinstance(value, dict):
        return {key: reference_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        # a list of sweep cells holds a `partial` of `_write_cells`
        if type(value) is Records and getattr(value.write, "func", None) is _write_cells:
            return [{**reference_payload(cell), "framework": name}
                    for cell in value for name in value.write.keywords["frameworks"]]
        return [reference_payload(item) for item in value]
    return witness_record(value) if isinstance(value, Witness) else value


def all_events(n: int, *, empty: bool = False, full: bool = True) -> list:
    """The events on range(n) by size, the empty and full ones as asked."""
    sizes = range(0 if empty else 1, n + 1 if full else n)
    return [frozenset(c) for k in sizes for c in itertools.combinations(range(n), k)]


def unit_vectors(n: int) -> list:
    return [tuple(Fraction(int(s == t)) for t in range(n)) for s in range(n)]


def unit_fractions(max_denominator: int = 16):
    return st.fractions(min_value=0, max_value=1, max_denominator=max_denominator)


def acts(n: int, max_denominator: int = 8):
    return st.tuples(*([unit_fractions(max_denominator)] * n)).map(Act)


def acts_on_spaces(min_n: int = 1, max_n: int = 4, max_denominator: int = 8):
    return st.integers(min_n, max_n).flatmap(lambda n: acts(n, max_denominator))


def probability_vectors(n: int):
    def normalize(raw: tuple) -> tuple:
        total = sum(raw)
        if total == 0:
            return (Fraction(1),) + (Fraction(0),) * (n - 1)
        return tuple(Fraction(w, total) for w in raw)

    return st.tuples(*([st.integers(0, 8)] * n)).map(normalize)


def probability_measures(n: int):
    return probability_vectors(n).map(ProbabilityMeasure)


def credal_measures(n: int):
    space = StateSpace(n)
    with_generators = st.lists(probability_vectors(n), min_size=1, max_size=4).map(
        lambda gens: CredalSetMeasure(space, tuple(gens)))
    return st.one_of(st.just(CredalSetMeasure.full_simplex(space)), with_generators,
                     credal_measures_near_unit_vectors(n))


def credal_measures_near_unit_vectors(n: int):
    """Generators in any order: every unit vector, or all but one
    (on two or more states), plus up to three other vectors."""
    space = StateSpace(n)
    units = unit_vectors(n)
    kept = st.just(units)
    if n > 1:
        kept = st.one_of(kept, st.integers(0, n - 1).map(
            lambda s: units[:s] + units[s + 1:]))
    return st.tuples(kept, st.lists(probability_vectors(n), max_size=3)).flatmap(
        lambda parts: st.permutations(parts[0] + parts[1])).map(
        lambda gens: CredalSetMeasure(space, tuple(gens)))


def belief_measures(n: int):
    space = StateSpace(n)
    events = all_events(n)

    def build(raw: list) -> BeliefFunctionMeasure:
        total = sum(weight for _, weight in raw)
        if total == 0:
            return BeliefFunctionMeasure(space, ((space.full_event(), Fraction(1)),))
        masses = tuple((event, Fraction(weight, total)) for event, weight in raw)
        return BeliefFunctionMeasure(space, masses)

    pair = st.tuples(st.sampled_from(events), st.integers(0, 4))
    return st.lists(pair, min_size=1, max_size=5).map(build)


def possibility_measures(n: int):
    def build(raw: tuple) -> PossibilityMeasure:
        grades = list(raw)
        if all(g != 1 for g in grades):
            grades[0] = Fraction(1)
        return PossibilityMeasure(tuple(grades))

    return st.tuples(*([unit_fractions(8)] * n)).map(build)


def measures(n: int):
    return st.one_of(
        probability_measures(n), credal_measures(n),
        belief_measures(n), possibility_measures(n))


def partitions(n: int):
    return st.sampled_from(enumerate_partitions(StateSpace(n)))


def events(n: int, proper: bool = False):
    return st.sampled_from(all_events(n, full=not proper))


def shape_cases(n: int) -> list:
    """(label, measure, vacuous) for each framework on n >= 2 states: a
    vacuous measure, not in canonical form where the framework has one,
    and a measure one step from vacuous. No probability is vacuous."""
    space = StateSpace(n)
    full = space.full_event()
    units = unit_vectors(n)
    uniform = (Fraction(1, n),) * n
    half, one = Fraction(1, 2), Fraction(1)
    return [
        ("credal-every-unit-vector", CredalSetMeasure(space, (uniform, *units)), True),
        ("credal-all-but-one-unit-vector",
         CredalSetMeasure(space, (*units[1:], uniform)), False),
        ("belief-split-mass-on-full-event",
         BeliefFunctionMeasure(space, ((full, half), (full, half))), True),
        ("belief-some-mass-off-full-event",
         BeliefFunctionMeasure(space, ((full, Fraction(99, 100)),
                                       (full - {0}, Fraction(1, 100)))), False),
        ("possibility-every-grade-1", PossibilityMeasure((one,) * n), True),
        ("possibility-one-grade-1/2", PossibilityMeasure((half,) + (one,) * (n - 1)), False),
        ("probability-uniform", ProbabilityMeasure(uniform), False),
    ]
