"""Validation on integers against the `Fraction` checks it replaced.

`parse_rational` builds its value from the digits its pattern matched,
and the public constructors check ranges, order and sums on numerators
and denominators. The `reference_*` functions here are the earlier
checks: a `Fraction` parse of the whole token, and comparisons and sums
of `Fraction`s. Each side must accept the same inputs with equal values,
and refuse the same inputs with the same error and message.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldback import (
    Act,
    Anchored,
    BeliefFunctionMeasure,
    CredalSetMeasure,
    Hurwicz,
    NotTabulated,
    ParseError,
    PossibilityMeasure,
    ProbabilityMeasure,
    StateSpace,
    Tabulated,
    ValidationError,
    ZPair,
)
from foldback.cli import _parse_operator, _rational
from foldback.rationals import ONE, ZERO, parse_rational

F = Fraction

_REFERENCE_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def reference_parse_rational(text):
    token = text.strip()
    if not _REFERENCE_RE.match(token):
        raise ParseError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None


def _outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "value", function(*args)
    except (ParseError, ValidationError, NotTabulated) as exc:
        return type(exc), str(exc)


# ASCII, Arabic-Indic, Devanagari and fullwidth digits, all decimal digits to `int`
DIGITS = st.text(st.sampled_from("0123456789٠١٢٣٤٥٦٧٨٩०१२३४५६७८९０１２３"),
                 min_size=0, max_size=6)
SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c  　"), max_size=2)


@st.composite
def rational_like(draw):
    """Text shaped like a literal, with the pieces that make one invalid."""
    sign = draw(st.sampled_from(["", "+", "-", "--", "+-", " -"]))
    text = sign + draw(DIGITS)
    tail = draw(st.sampled_from(["", "/", "/-", "/+", ".", "e", "E-", "_", " / ", "/0"]))
    text += tail
    if tail in ("/", "/-", "/+", ".", "e", "E-", "_", " / "):
        text += draw(DIGITS)
    return draw(SPACE) + text + draw(SPACE)


@settings(max_examples=400, deadline=None)
@given(st.one_of(rational_like(), st.text(max_size=12)))
@example("0")
@example("-0")
@example("+7")
@example("007/0010")
@example(" 3/4\n")
@example("١/٢")
@example("1/0")
@example("0/0")
@example("1/-2")
@example("-1/2")
@example("0.5")
@example("1e3")
@example("1_000")
@example("")
@example("/2")
@example("3/")
def test_parse_rational_matches_the_fraction_parse(text):
    got = _outcome(parse_rational, text)
    assert got == _outcome(reference_parse_rational, text)
    if got[0] == "value":
        assert type(got[1]) is Fraction


def test_an_oversized_literal_is_a_parse_error():
    digits = "9" * 4301
    for text in (digits, f"1/{digits}", f"-{digits}/7"):
        with pytest.raises(ParseError, match="^literal too long to convert: "):
            parse_rational(text)


# -- the public constructors ----------------------------------------------


def reference_unit(value, label):
    value = Fraction(value)
    if not ZERO <= value <= ONE:
        raise ValidationError(f"{label} must lie in [0, 1], got {value}")
    return value


def reference_zpair(lower, upper):
    lower = reference_unit(lower, "lower bound")
    upper = reference_unit(upper, "upper bound")
    if lower > upper:
        raise ValidationError(f"bounds out of order: {lower} > {upper}")
    return lower, upper


def reference_weights(weights, label):
    values = tuple(Fraction(w) for w in weights)
    if not values:
        raise ValidationError(f"{label} must cover at least one state")
    for w in values:
        if w < 0:
            raise ValidationError(f"{label} has a negative entry: {w}")
    if sum(values) != 1:
        raise ValidationError(f"{label} must sum to 1, got {sum(values)}")
    return values


def reference_masses(masses):
    combined = {}
    for event, mass in masses:
        mass = Fraction(mass)
        if mass < 0:
            raise ValidationError(f"negative mass {mass}")
        combined[event] = combined.get(event, ZERO) + mass
    total = sum(combined.values(), ZERO)
    if total != 1:
        raise ValidationError(f"masses must sum to 1, got {total}")
    return tuple(sorted(((e, m) for e, m in combined.items() if m > 0),
                        key=lambda pair: sorted(pair[0])))


def reference_grades(grades):
    values = tuple(reference_unit(g, "grade") for g in grades)
    if not values:
        raise ValidationError("a possibility distribution needs at least one state")
    if max(values) != 1:
        raise ValidationError("some state must be fully possible (grade 1)")
    return values


def reference_table(entries):
    index = {}
    for z, value in entries:
        if z in index and index[z] != value:
            raise ValidationError(f"conflicting entries for {z}")
        index[z] = reference_unit(value, "table value")
    return tuple(sorted(index.items(), key=lambda e: (e[0].lower, e[0].upper)))


# rationals in and around [0, 1], the ends and their near neighbours included
NEAR_UNIT = st.one_of(
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.sampled_from([F(0), F(1), F(-1, 7), F(8, 7), F(1, 10 ** 20), F(10 ** 20 + 1, 10 ** 20),
                     F(-1, 10 ** 20), F(10 ** 20 - 1, 10 ** 20)]))
# the same values as ints and strings too, which construction converts
NEAR_UNIT_ANY = st.one_of(NEAR_UNIT, st.integers(-1, 2),
                          NEAR_UNIT.map(lambda f: f"{f.numerator}/{f.denominator}"))


@st.composite
def weight_vectors(draw, n):
    """Vectors that sum to 1 about half the time, with entries of any sign."""
    values = draw(st.lists(NEAR_UNIT, min_size=n, max_size=n))
    if draw(st.booleans()):
        values[-1] = 1 - sum(values[:-1])
    return tuple(values)


@settings(max_examples=300, deadline=None)
@given(NEAR_UNIT_ANY, NEAR_UNIT_ANY)
@example(F(1, 3), F(1, 3))
@example(F(2, 3), F(1, 3))
def test_zpair_matches_the_fraction_checks(lower, upper):
    got = _outcome(lambda: (lambda z: (z.lower, z.upper))(ZPair(lower, upper)))
    assert got == _outcome(reference_zpair, lower, upper)


@settings(max_examples=200, deadline=None)
@given(st.lists(NEAR_UNIT_ANY, max_size=4))
def test_act_matches_the_fraction_checks(outcomes):
    def reference(values):
        if not values:
            raise ValidationError("an act needs at least one state")
        return tuple(reference_unit(u, "outcome") for u in values)
    got = _outcome(lambda: Act(tuple(outcomes)).outcomes)
    assert got == _outcome(reference, outcomes)


@settings(max_examples=200, deadline=None)
@given(NEAR_UNIT_ANY)
def test_anchored_and_hurwicz_match_the_fraction_checks(value):
    assert (_outcome(lambda: Anchored(value).anchor)
            == _outcome(reference_unit, value, "anchor"))
    assert (_outcome(lambda: Hurwicz(value).alpha)
            == _outcome(reference_unit, value, "alpha"))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(weight_vectors))
def test_probability_matches_the_fraction_checks(weights):
    got = _outcome(lambda: ProbabilityMeasure(weights).weights)
    assert got == _outcome(reference_weights, weights, "probability")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(weight_vectors(n), min_size=1, max_size=3))))
def test_credal_set_matches_the_fraction_checks(shape):
    n, generators = shape
    got = _outcome(lambda: CredalSetMeasure(StateSpace(n), tuple(generators)).generators)
    want = _outcome(lambda: tuple(reference_weights(g, "credal generator")
                                  for g in generators))
    assert got == want


EVENTS = st.sampled_from([frozenset({0}), frozenset({1}), frozenset({2}),
                          frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1, 2})])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EVENTS, NEAR_UNIT), min_size=1, max_size=4), st.booleans())
def test_belief_function_matches_the_fraction_checks(masses, normalize):
    if normalize:
        event, _ = masses[-1]
        masses[-1] = (event, 1 - sum(m for _, m in masses[:-1]))
    got = _outcome(lambda: BeliefFunctionMeasure(StateSpace(3), tuple(masses)).masses)
    assert got == _outcome(reference_masses, masses)


@settings(max_examples=300, deadline=None)
@given(st.lists(NEAR_UNIT_ANY, max_size=4))
@example([F(1, 2), F(2, 2)])
def test_possibility_matches_the_fraction_checks(grades):
    got = _outcome(lambda: PossibilityMeasure(tuple(grades)).grades)
    assert got == _outcome(reference_grades, grades)


GRID_PAIRS = st.sampled_from([ZPair(F(i, 4), F(j, 4)) for i in range(5) for j in range(i, 5)]
                             + [ZPair(F(1, 3), F(1, 2)), ZPair(F(0), F(1, 10 ** 20))])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(GRID_PAIRS, NEAR_UNIT), max_size=8))
def test_tabulated_matches_the_fraction_checks(entries):
    got = _outcome(lambda: Tabulated(tuple(entries)).entries)
    assert got == _outcome(reference_table, entries)


# -- tabulated rules: the integer index and the CLI parse --------------------


def reference_lookup(entries, z):
    """The pair's value from an index keyed by `ZPair`s, as before the integer keys."""
    try:
        return dict(entries)[z]
    except KeyError:
        raise NotTabulated(f"pair {z} is not tabulated") from None


def _pair(x, y):
    return ZPair(min(x, y), max(x, y))


# bounds on a k/4 grid and off it, with a denominator past any machine word
TABLE_BOUNDS = st.sampled_from([F(k, 4) for k in range(5)]
                               + [F(1, 3), F(2, 3), F(1, 10 ** 20), F(7, 12)])
TABLE_PAIRS = st.builds(_pair, TABLE_BOUNDS, TABLE_BOUNDS)
# probe bounds: values spelled over unreduced denominators such as 2/8, which
# Fraction reduces, and values whose denominator divides no table's scale
PROBE_BOUNDS = st.builds(F, st.integers(0, 24), st.sampled_from([1, 2, 4, 8, 24])).filter(
    lambda f: f <= 1) | st.sampled_from([F(1, 5), F(3, 7), F(1, 10 ** 20), F(1, 10 ** 21),
                                         F(1, 3 * 10 ** 20)])
PROBE_PAIRS = st.builds(_pair, PROBE_BOUNDS, PROBE_BOUNDS) | TABLE_PAIRS


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(TABLE_PAIRS, st.sampled_from([F(k, 4) for k in range(5)]), max_size=8),
       st.lists(PROBE_PAIRS, min_size=1, max_size=8))
@example({}, [ZPair(F(0), F(1))])
@example({ZPair(F(0), F(1, 2)): F(1, 4)}, [ZPair(F(0), F(2, 4)), ZPair(F(0), F(1, 3))])
def test_tabulated_lookup_matches_a_pair_keyed_index(table, probes):
    rule = Tabulated(tuple(table.items()))
    for z in probes + list(table):
        assert _outcome(rule.lookup, z) == _outcome(reference_lookup, table.items(), z)


def reference_parse_table(entries):
    """The CLI's tabulated branch before the integer checks: a public ZPair per entry."""
    if not isinstance(entries, list):
        raise ParseError("operator.entries: expected a list of [x, y, value]")
    literals = {}

    def rational(part, label):
        if type(part) is not str:
            return _rational(part, label)
        if part not in literals:
            literals[part] = _rational(part, label)
        return literals[part]

    table = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"operator.entries[{i}]: expected [x, y, value]")
        label = f"operator.entries[{i}]"
        x, y, v = (rational(part, label) for part in entry)
        table.append((ZPair(x, y), v))
    return Tabulated(tuple(table))


# unit literals, some spelled unreduced, then literals out of range or malformed
TABLE_LITERALS = st.sampled_from(["0", "1", "1/2", "2/4", "1/4", "3/4", "1/3", 0, 1]) | \
    st.sampled_from(["-1/2", "3/2", "5/4", "1/0", "0.5", "x", "", 2, -1, True, None, 0.5])
TABLE_ENTRIES = st.lists(
    st.lists(TABLE_LITERALS, min_size=3, max_size=3)
    | st.sampled_from(["0", 1, None, ["0", "1"], ["0", "1", "1/2", "1"], {"x": "0"}]),
    max_size=6)


@settings(max_examples=500, deadline=None)
@given(TABLE_ENTRIES | st.sampled_from([None, "entries", {"0": "1"}]))
@example([["0", "1", "1/2"], ["0", "1/0", "0"]])  # a bad literal
@example([["0", "1", "1/2"], "0"])  # an entry that is not a list
@example([["0", "1", "1/2"], ["-1/2", "1", "0"]])  # a bound out of range
@example([["0", "1", "1/2"], ["0", "3/2", "0"]])  # a bound out of range
@example([["0", "1", "1/2"], ["1", "1/2", "0"]])  # a pair out of order
@example([["0", "1", "1/2"], ["0", "1", "1/4"]])  # conflicting entries
@example([["0", "1", "1/2"], ["0", "2/4", "3/2"]])  # a value out of range
@example([["0", "1", "1/2"], ["0", "2/2", "2/4"], ["1/2", "1/2", "1/2"]])  # repeats
@example([["0", "1", "1/4"], ["0", "1", "1/2"], ["1", "0", "0"]])  # pair error first
def test_the_cli_table_parse_matches_the_public_pair_loop(entries):
    got = _outcome(lambda: _parse_operator({"kind": "tabulated", "entries": entries}
                                           ).vacuous_rule)
    assert got == _outcome(reference_parse_table, entries)
