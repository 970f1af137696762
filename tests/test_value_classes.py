"""The value classes behave as the frozen dataclasses they replace.

Every engine value class derives from `acts.Frozen`, which compares,
hashes and prints instances by their fields without compiling a method
per class. Each class here is checked against a frozen dataclass twin
built from the same field declarations: the two must print, hash,
compare and take their arguments identically, on instances built both
publicly and through the engine's unchecked constructors.
"""

import dataclasses
import inspect
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from foldback import (
    Act,
    Anchored,
    BeliefFunctionMeasure,
    CeOperator,
    ConsensusReport,
    ConsistencyVerdict,
    ContaminationFamily,
    ConvergenceReport,
    ConvergenceRow,
    CredalSetMeasure,
    Framework,
    Hurwicz,
    LawId,
    LawReport,
    MaxRule,
    MedianRule,
    MinRule,
    Partition,
    PossibilityMeasure,
    ProbabilityMeasure,
    Probe,
    SearchConfig,
    StateSpace,
    Tabulated,
    Witness,
    ZPair,
    check_sequential,
    consensus_check,
    limit_check,
    vacuous,
)
from foldback.acts import Frozen
from foldback.cli import ReportFile

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"

SPACE = StateSpace(3)
PARTITION = Partition(SPACE, ({0, 2}, {1}))
ACT = Act(("0", "1/2", "1"))
PROBE = Probe((F(0), F(1)))
WITNESS = Witness(("0", "1"), F(0), F(1), PROBE, Probe((F(1),), Framework.POSSIBILITY))
FAMILY = ContaminationFamily(("1/2", "1/4", "1/4"), ("1", "1/2"))
ROW = ConvergenceRow(F(1, 2), F(0), F(1), F(1, 2), True)

# each class's samples: public construction first, then the unchecked
# constructors where the class has one; some samples are equal on purpose
SAMPLES = {
    StateSpace: [StateSpace(1), SPACE],
    Partition: [PARTITION, Partition(SPACE, [[1], [2, 0]]), Partition(StateSpace(1), ({0},))],
    Act: [ACT, Act((F(1, 2),)), Act._trusted((F(0), F(1, 2), F(1)))],
    ZPair: [ZPair(0, 1), ZPair("1/4", "1/2"), ZPair._trusted(F(1, 4), F(1, 2))],
    ProbabilityMeasure: [ProbabilityMeasure(("1/2", "1/2")),
                         ProbabilityMeasure._trusted((1, 1), 2),
                         ProbabilityMeasure._trusted((1, 3), 4)],
    CredalSetMeasure: [CredalSetMeasure(SPACE), CredalSetMeasure.full_simplex(SPACE),
                       CredalSetMeasure(StateSpace(2), (("1/2", "1/2"), (1, 0))),
                       CredalSetMeasure._trusted(StateSpace(2), ((1, 1), (2, 0)), 2)],
    BeliefFunctionMeasure: [BeliefFunctionMeasure(SPACE, {frozenset(SPACE.states): 1}),
                            vacuous(SPACE, Framework.BELIEF_FUNCTION),
                            BeliefFunctionMeasure._trusted(
                                SPACE, {frozenset({0}): 1, frozenset({1, 2}): 1}, 2)],
    PossibilityMeasure: [PossibilityMeasure((1, "1/2")),
                         PossibilityMeasure._trusted((2, 1), 2),
                         PossibilityMeasure._trusted((1, 1, 1), 1)],
    Anchored: [Anchored("1/2"), Anchored(0)],
    Hurwicz: [Hurwicz("1/2"), Hurwicz(1)],
    MinRule: [MinRule()],
    MaxRule: [MaxRule()],
    MedianRule: [MedianRule()],
    Tabulated: [Tabulated({ZPair(0, 1): "1/2", ZPair(0, 0): 0}),
                Tabulated(((ZPair(0, 0), F(0)), (ZPair._trusted(F(0), F(1)), F(1, 2))))],
    CeOperator: [CeOperator(MinRule()), CeOperator(Hurwicz("1/2"), False, True)],
    ConsensusReport: [consensus_check(MinRule(), ACT),
                      ConsensusReport(ACT, F(0), F(0), F(0), True)],
    ContaminationFamily: [FAMILY, ContaminationFamily((1,), (1,))],
    ConvergenceRow: [ROW, ConvergenceRow(F(1), F(0), F(1), F(0), False)],
    ConvergenceReport: [limit_check(Anchored("1/2"), ACT, FAMILY),
                        ConvergenceReport(ACT, MinRule(), (ROW,), F(0), True)],
    Probe: [PROBE, WITNESS.probe_right,
            Probe((F(0), F(1)), Framework.PROBABILITY, (F(1, 2), F(1, 2)))],
    Witness: [WITNESS, Witness((), F(0), F(0), PROBE, PROBE)],
    LawReport: [LawReport(LawId.RANGE, True), LawReport(LawId.RANGE, False, (WITNESS,))],
    ConsistencyVerdict: [
        check_sequential(CeOperator(MinRule()), vacuous(SPACE, Framework.POSSIBILITY),
                         ACT, PARTITION),
        ConsistencyVerdict(False, F(0), F(1), PARTITION, ACT, Framework.CREDAL_SET),
        ConsistencyVerdict._trusted_failure(F(0), F(1), PARTITION, ACT,
                                            Framework.CREDAL_SET)],
    SearchConfig: [SearchConfig(), SearchConfig((2,), 2, (Framework.POSSIBILITY,), True)],
    # a dict payload leaves the report unhashable
    ReportFile: [ReportFile({"value": "1/2"}, 0), ReportFile({}, 1)],
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _twin_class(cls):
    """A frozen dataclass with cls's name and field declarations."""
    fields = []
    for name, annotation in cls.__annotations__.items():
        if name in vars(cls):
            fields.append((name, annotation, dataclasses.field(default=vars(cls)[name])))
        else:
            fields.append((name, annotation))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWINS = {cls: _twin_class(cls) for cls in SAMPLES}


def _twin(value):
    cls = type(value)
    return TWINS[cls](**{name: getattr(value, name) for name in cls.__annotations__})


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


def test_the_samples_cover_every_value_class():
    assert set(SAMPLES) == set(_subclasses(Frozen))
    assert len(SAMPLES) == 25


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_value_class_matches_a_frozen_dataclass(cls):
    # a dataclass's __init__ returns the object None, a hand-written one
    # under postponed annotations the string "None"; the parameters agree
    assert (list(inspect.signature(cls).parameters.values())
            == list(inspect.signature(TWINS[cls]).parameters.values()))
    for value in SAMPLES[cls]:
        twin = _twin(value)
        assert repr(value) == repr(twin)
        assert _hash(value) == _hash(twin)
        for name in [*cls.__annotations__, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)


def test_equality_matches_frozen_dataclasses_across_all_classes():
    # includes classes with equal fields: MinRule()/MaxRule()/MedianRule(),
    # Anchored(x)/Hurwicz(x), and the Probe, ZPair and measure samples
    # that are equal by construction
    values = [value for samples in SAMPLES.values() for value in samples]
    twins = [_twin(value) for value in values]
    assert any(a == b for a, b in itertools.combinations(values, 2))
    for (a, twin_a), (b, twin_b) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b) == (twin_a == twin_b), (a, b)
        assert (a != b) == (twin_a != twin_b), (a, b)
    for value, twin in zip(values, twins):
        for other in (None, (), 0):
            assert (value == other) == (twin == other)


def test_importing_the_cli_leaves_dataclasses_and_argparse_unloaded():
    # -S keeps site-packages' start-up hooks from importing them first;
    # only `main` needs argparse, so a library import does not pay for it
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, foldback.cli;"
         " print([name in sys.modules for name in ('dataclasses', 'argparse')])"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False]"
