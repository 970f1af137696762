"""Shared strategies for property tests, and the acceptance ledger.

Everything is generated exactly: probability vectors come from integer
weights normalized by their sum, so they add to 1 with no rounding.
"""

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

from foldback import (
    Act,
    BeliefFunctionMeasure,
    CredalSetMeasure,
    PossibilityMeasure,
    ProbabilityMeasure,
    StateSpace,
    enumerate_partitions,
)
from foldback.acts import iter_events


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
    return st.one_of(st.just(CredalSetMeasure.full_simplex(space)), with_generators)


def belief_measures(n: int):
    space = StateSpace(n)
    events = list(iter_events(space))

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
    space = StateSpace(n)
    return st.sampled_from(list(iter_events(space, include_full=not proper)))
