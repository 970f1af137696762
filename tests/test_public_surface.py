"""The package's public names, pinned.

A name added to or dropped from `foldback.__all__` shows up here as a
diff; the helpers removed from the API stay removed, from the package
and from every module of it. The README's library quick start runs and
prints what its comments say.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import foldback

PUBLIC = [
    "Act", "Anchored", "BeliefFunctionMeasure", "CapExceeded", "CeOperator",
    "ConsensusReport", "ConsistencyVerdict", "ContaminationFamily",
    "ConvergenceReport", "ConvergenceRow", "CredalSetMeasure", "EmptyEvent",
    "EmptyOutcomeSet", "EngineError", "Event", "Framework", "FrameworkMismatch",
    "GammaFunction", "Hurwicz", "LawId", "LawReport", "MaxRule", "MedianRule",
    "MinRule", "NoVacuousRepresentation", "NotTabulated", "ParseError", "Partition",
    "PlausibilityMeasure", "PossibilityMeasure", "Preference", "ProbabilityMeasure",
    "Probe", "SearchConfig", "SpaceMismatch", "StateSpace", "Tabulated",
    "UnknownSuite", "UnsupportedCombination", "Utility", "VacuousRule",
    "ValidationError", "Witness", "ZPair", "Z_BOTTOM", "Z_TOP", "Z_VACUOUS",
    "ZeroPlausibilityEvent", "acts", "ce", "ce_ops", "ce_vacuous", "certainty_check",
    "check_ev_properties", "check_gamma_laws", "check_sequential",
    "check_sequential_exhaustive", "check_set_order_conditions", "condition",
    "condition_act", "consensus", "consensus_check", "consistency",
    "default_set_family", "enumerate_lawful_gamma_tables", "enumerate_partitions",
    "errors", "evaluate", "expectation_bounds", "expected_utility", "gamma_apply",
    "is_vacuous", "lambda_prefer", "limit_check", "median_ce", "np_prefer",
    "outcome_set", "plausibility", "rationals", "restrict", "tabulate", "vacuous",
]

MODULES = ("acts", "ce_ops", "cli", "consensus", "consistency", "errors",
           "plausibility", "rationals")

REMOVED = ("sequentially_consistent_on_grid", "acts_equivalent", "enumerate_events",
           "compose_partition_act", "DomainMismatch", "VacuityVerdict",
           "ConditionalAct", "framework_of", "parse_report", "IS_VACUOUS_CAP",
           "iter_events", "_refuse_stop_at_first", "ProblemFile", "_problem_echo",
           "restricted_growth_strings", "partition_from_rgs")

REMOVED_METHODS = [("acts", "Partition", "block_of"), ("acts", "Partition", "is_trivial"),
                   ("acts", "Act", "at"), ("acts", "Act", "rules"),
                   ("plausibility", "BeliefFunctionMeasure", "mass_of"),
                   ("plausibility", "ZPair", "width"),
                   ("consensus", "ContaminationFamily", "member"),
                   *(("plausibility", cls, "_value") for cls in (
                       "ProbabilityMeasure", "CredalSetMeasure", "BeliefFunctionMeasure",
                       "PossibilityMeasure"))]


def test_all_is_the_pinned_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(foldback.__all__) == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone_from_the_package(name):
    assert not hasattr(foldback, name)
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"foldback.{module}"), name), module


@pytest.mark.parametrize("module,cls,name", REMOVED_METHODS)
def test_removed_method_is_gone(module, cls, name):
    assert not hasattr(getattr(importlib.import_module(f"foldback.{module}"), cls), name)


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = code.split("```", 1)[0]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(code, {})
    assert printed.getvalue().splitlines() == re.findall(r"# (.+)$", code, re.M)
