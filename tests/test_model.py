"""Scenario validation and feasible allocation enumeration."""

import itertools
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import (
    all_none,
    naive_feasible_allocations,
    recursion_headroom,
    small_scenarios,
    solo_commuters,
)
from rideshare import model
from rideshare.allocation import OutcomeTable, efficient_allocation
from rideshare.corpus import by_name
from rideshare.model import (
    Assignment,
    Commuter,
    Role,
    Scenario,
    TooManyCommutersError,
    all_none_allocation,
    allocation_violations,
    full_compatibility,
    validate_scenario,
    with_report,
    with_truthful_reports,
)
from rideshare.payments import commit_payments
from rideshare.scenario_io import parse_scenario_text
from rideshare.valuation import GateDirection, ThresholdGate


def test_corpus_scenarios_validate(corpus_entries):
    for e in corpus_entries:
        assert validate_scenario(e.scenario) == [], e.name


def test_reported_type_defaults_to_true_type():
    s = by_name("linear-pair-profitable")
    c = s.commuters[0]
    assert c.reported_type == c.true_type
    assert Commuter(0, True, 1, c.true_type).reported_type == c.true_type


def test_validate_rejects_bad_probability():
    s = by_name("linear-pair-profitable")
    c0 = s.commuters[0]
    bad = with_report(s, 0, replace(c0.true_type, p_commit=1.5))
    problems = validate_scenario(bad)
    assert any("p_commit" in msg for msg in problems), problems


def test_validate_rejects_capacity_without_vehicle():
    s = by_name("linear-pair-profitable")
    c1 = replace(s.commuters[1], seat_capacity=2)
    bad = replace(s, commuters=(s.commuters[0], c1))
    problems = validate_scenario(bad)
    assert any("vehicle" in msg for msg in problems), problems


def test_validate_rejects_asymmetric_compatibility():
    s = by_name("linear-pair-profitable")
    bad = replace(s, compatibility=((True, True), (False, True)))
    problems = validate_scenario(bad)
    assert any("symmetric" in msg for msg in problems), problems


def test_validate_rejects_non_dense_ids():
    s = by_name("linear-pair-profitable")
    c1 = replace(s.commuters[1], id=5)
    bad = replace(s, commuters=(s.commuters[0], c1))
    assert validate_scenario(bad) != []


def test_validation_builds_assignments_linear_in_n(monkeypatch):
    """Each of the 2n specs is checked against travelling alone; the check
    shares one all-none allocation rather than building n assignments per
    spec, 2n² = 2,880,000 of them at n = 1,200."""
    n = 1_200
    s = solo_commuters(n)
    init = Assignment.__init__
    built = 0

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Assignment, "__init__", counting)
    assert validate_scenario(s) == []
    assert built <= n


def test_validation_checks_a_shared_report_once(monkeypatch):
    """A commuter with no separate report, as a file that omits
    `reported_type` parses, has one valuation object for both types: it is
    checked once and its lines are listed under both labels."""
    from rideshare import valuation

    path = Path(__file__).resolve().parent.parent / "scenarios" / "linear-pair-profitable.json"
    s = parse_scenario_text(path.read_text(encoding="utf-8"))
    assert all(c.reported_type is c.true_type for c in s.commuters)
    c0, c1 = s.commuters
    clause = c0.true_type.valuation.clauses[0]
    gate = ThresholdGate(1, 1.5, GateDirection.AT_LEAST)
    bad = replace(c0.true_type.valuation, default_value=math.inf,
                  clauses=(replace(clause, gates=(gate,)),) + c0.true_type.valuation.clauses[1:])
    c0 = replace(c0, true_type=replace(c0.true_type, valuation=bad, p_commit=2.0),
                 reported_type=None)
    s = replace(s, commuters=(c0, c1))
    assert c0.reported_type is c0.true_type
    real = valuation.spec_violations
    checked = []

    def spec_violations(spec, *args, **kwargs):
        checked.append(spec.owner)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(valuation, "spec_violations", spec_violations)
    assert validate_scenario(s) == [
        "commuter 0: true p_commit 2.0 outside [0, 1]",
        "commuter 0 true valuation: default value inf outside [-2**100, 2**100]",
        "commuter 0 true valuation: clause 0: gate bound 1.5 outside [0, 1]",
        "commuter 0: reported p_commit 2.0 outside [0, 1]",
        "commuter 0 reported valuation: default value inf outside [-2**100, 2**100]",
        "commuter 0 reported valuation: clause 0: gate bound 1.5 outside [0, 1]",
    ]
    assert checked == [0, 1]


def test_solo_commuter_has_single_allocation():
    s = by_name("linear-solo")
    allocations = list(model._feasible(s))
    assert allocations == [all_none_allocation(1)]


def test_pair_enumeration_order():
    """A compatible driver-rider pair admits exactly two outcomes, with
    everyone-alone enumerated first."""
    s = by_name("linear-pair-profitable")
    allocations = list(model._feasible(s))
    assert len(allocations) == 2
    assert allocations[0] == all_none_allocation(2)
    share = allocations[1]
    assert share[0].role is Role.DRIVE
    assert share[1].role is Role.RIDE
    assert share[0].partners == frozenset({1})


def test_incompatible_pair_travels_alone():
    """With the only driver-rider pairing ruled out by compatibility, the
    all-none allocation is the whole feasible set."""
    s = by_name("linear-pair-profitable")
    apart = replace(s, compatibility=((True, False), (False, True)))
    assert validate_scenario(apart) == []
    allocations = list(model._feasible(apart))
    assert allocations == [all_none_allocation(2)]


def test_trio_two_drivers_has_five_allocations():
    s = by_name("linear-trio-two-drivers")
    allocations = list(model._feasible(s))
    assert len(allocations) == 5
    assert all_none(allocations[0])


def test_enumeration_is_deterministic():
    s = by_name("linear-quad-full-van")
    first = list(model._feasible(s))
    second = list(model._feasible(s))
    assert first == second


def test_enumerated_allocations_are_structurally_valid(corpus_entries):
    for e in corpus_entries:
        for a in model._feasible(e.scenario):
            assert allocation_violations(e.scenario, a) == [], e.name


def test_allocation_violations_flags_double_booking():
    s = by_name("linear-trio-two-drivers")
    bogus = (
        Assignment(Role.DRIVE, frozenset({2})),
        Assignment(Role.DRIVE, frozenset({2})),
        Assignment(Role.RIDE, frozenset({0})),
    )
    assert allocation_violations(s, bogus) != []


def test_absent_commuter_shrinks_feasible_set():
    s = by_name("linear-pair-profitable")
    allocations = list(model._feasible(s, absent=1))
    assert allocations == [all_none_allocation(2)]


def test_absent_id_out_of_range_is_rejected():
    s = by_name("linear-pair-profitable")
    for bad in (2, -1):
        with pytest.raises(ValueError, match=f"absent commuter id {bad} "):
            model._feasible(s, absent=bad)


def test_absent_must_be_one_commuter_id_or_none():
    s = by_name("linear-pair-profitable")
    for bad in (frozenset({0}), (0,), True, 1.0):
        with pytest.raises(ValueError, match="absent commuter id"):
            model._feasible(s, bad)


def test_walk_past_the_recursion_limit_raises_a_typed_error():
    """The walk recurses once per commuter, so a scenario about as large as
    the recursion limit raises TooManyCommutersError naming the count, not
    RecursionError."""
    s = solo_commuters(300)
    with recursion_headroom(150):
        with pytest.raises(TooManyCommutersError, match="scenario has 300 commuters"):
            model._feasible(s, None)
    assert len(model._feasible(s, None)) == 1


def test_with_truthful_reports_clears_misreport():
    s = by_name("threshold-gate-pair-misreport")
    assert s.reported_p() != s.true_p()
    t = with_truthful_reports(s)
    assert t.reported_p() == t.true_p()


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_naive_oracle(s):
    """The package enumeration and a from-scratch product-filter enumeration
    agree exactly, including order."""
    assert list(model._feasible(s)) == naive_feasible_allocations(s)


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_absent_enumeration_filters_the_naive_oracle(s):
    """With one commuter absent, the enumeration is the naive full set
    restricted to allocations that leave them with role none, in the same
    order."""
    full = naive_feasible_allocations(s)
    for absent in range(s.n):
        expected = [a for a in full if a[absent].role is Role.NONE]
        assert list(model._feasible(s, absent)) == expected, absent


def _labeling_candidates(s, i):
    """Every (role, partners) pair commuter i could hold in any well formed
    allocation, written down without consulting the enumeration code."""
    others = [j for j in range(s.n) if j != i]
    out = [Assignment(Role.NONE, frozenset())]
    out.extend(Assignment(Role.RIDE, frozenset((d,))) for d in others)
    for k in range(1, len(others) + 1):
        out.extend(
            Assignment(Role.DRIVE, frozenset(group))
            for group in itertools.combinations(others, k)
        )
    return out


def test_enumeration_matches_role_labeling_brute_force(corpus_entries):
    """Second, slower oracle: walk every per-commuter (role, partners)
    labeling and keep the ones that pass the structural checker plus the
    rider-driver compatibility rule. The surviving set must equal the
    enumerated feasible set."""
    for e in corpus_entries:
        s = e.scenario
        if s.n > 4:
            continue
        kept = []
        options = [_labeling_candidates(s, i) for i in range(s.n)]
        for labeling in itertools.product(*options):
            a = labeling
            if allocation_violations(s, a):
                continue
            if any(
                a[r].role is Role.RIDE
                and not s.compatibility[r][min(a[r].partners)]
                for r in range(s.n)
            ):
                continue
            kept.append(a)
        enumerated = list(model._feasible(s))
        assert len(kept) == len(enumerated), e.name
        assert set(kept) == set(enumerated), e.name


def test_six_commuter_enumeration_count():
    """Two mutually incompatible drivers (two seats each) and four riders.

    Each rider independently goes with driver 0, driver 1, or nobody, capped
    at two riders per driver. Placements of 4 labelled riders into groups of
    sizes (a, b) with a, b <= 2: 3^4 minus the 2 * 9 assignments that overfill
    one driver, which is 63."""
    driver_spec = by_name("linear-pair-profitable").commuters[0].true_type
    rider_spec = by_name("linear-pair-profitable").commuters[1].true_type
    commuters = []
    for i in range(2):
        commuters.append(Commuter(i, True, 2, driver_spec))
    for i in range(2, 6):
        commuters.append(Commuter(i, False, 0, rider_spec))
    rows = [list(row) for row in full_compatibility(6)]
    rows[0][1] = rows[1][0] = False
    s = Scenario(tuple(commuters), tuple(tuple(r) for r in rows))
    count = len(model._feasible(s))
    assert count == 63


def _alternating_drivers(n, seats=2):
    """Even ids drive with `seats` seats, odd ids have no vehicle, and every
    pair is compatible."""
    trip = by_name("linear-pair-profitable").commuters[1].true_type
    commuters = tuple(
        Commuter(i, i % 2 == 0, seats if i % 2 == 0 else 0, trip) for i in range(n)
    )
    return Scenario(commuters, full_compatibility(n))


def test_nine_commuter_enumeration_count():
    assert len(model._feasible(_alternating_drivers(9))) == 19_501


def test_single_absence_cuts_the_full_walk(corpus_entries):
    """With one commuter absent the feasible set holds the full set's own
    allocations, in walk order, exactly those leaving them with role none."""
    for e in corpus_entries:
        s = e.scenario
        full = model._feasible(s, None)
        for i in range(s.n):
            expected = [id(a) for a in full if a[i].role is Role.NONE]
            assert [id(a) for a in model._feasible(s, i)] == expected, (e.name, i)


def test_walk_over_the_allocation_budget_raises_a_typed_error(monkeypatch):
    """The walk admits a feasible set of exactly MAX_ALLOCATIONS and
    refuses one more, with or without an absent commuter, before it
    returns."""
    s = _alternating_drivers(7)
    size = len(naive_feasible_allocations(s))
    model._walk.cache_clear()
    monkeypatch.setattr(model, "MAX_ALLOCATIONS", size - 1)
    for absent in (None, 0):
        with pytest.raises(TooManyCommutersError, match=(
                f"^scenario has 7 commuters and more than {size - 1} feasible allocations")):
            model._feasible(s, absent)
    monkeypatch.setattr(model, "MAX_ALLOCATIONS", size)
    assert len(model._feasible(s, None)) == size


def test_feasible_cache_keeps_only_the_last_structure():
    """Enumerating structure A, then B, then A again keeps one structure
    cached, and A re-enumerates to an equal tuple."""
    a, b = _alternating_drivers(3, 1), _alternating_drivers(4, 2)
    first = model._feasible(a, None)
    model._feasible(b, None)
    assert model._walk.cache_info().currsize == 1
    misses = model._walk.cache_info().misses
    assert model._feasible(a, None) == first
    assert model._walk.cache_info().misses == misses + 1
    assert model._walk.cache_info().currsize == 1


def _structure(drivers, compatibility):
    """Commuters with `drivers` mapping each vehicle owner to their seats,
    under a compatibility matrix whose size is the commuter count."""
    trip = by_name("linear-pair-profitable").commuters[1].true_type
    n = len(compatibility)
    commuters = tuple(Commuter(i, i in drivers, drivers.get(i, 0), trip) for i in range(n))
    return Scenario(commuters, tuple(tuple(row) for row in compatibility))


def _walk_structures(corpus_entries):
    """Every corpus structure; fully compatible eight- and seven-commuter
    ones with three-seat drivers, one at the last index, and drivers who
    may ride each other; and seeded ones of one to eight commuters with up
    to three owners of one to three seats, one of them often last, and
    each pair compatible with odds 3/4."""
    yield from (e.scenario for e in corpus_entries)
    yield _structure({0: 3, 3: 3, 7: 3}, full_compatibility(8))
    yield _structure({0: 3, 2: 2, 4: 1, 6: 3}, full_compatibility(7))
    rng = random.Random(30)
    for n in range(1, 9):
        for _ in range(3):
            owners = rng.sample(range(n), min(n, rng.randint(1, 3)))
            if rng.random() < 0.5:
                owners[0] = n - 1
            rows = [[True] * n for _ in range(n)]
            for i, j in itertools.combinations(range(n), 2):
                rows[i][j] = rows[j][i] = rng.random() < 0.75
            yield _structure({d: rng.randint(1, 3) for d in owners}, rows)


def test_walk_order_and_shared_assignments(corpus_entries):
    """The walk yields the naive oracle's allocations in its order, each a
    bare tuple of assignments, and each distinct (role, partners) value is
    one object across the whole tuple: the per-commuter value tables in
    `allocation._argmax` key on that object's id. On the corpus, the
    allocation that the efficient search, the outcome table and commit
    pricing choose is one of the walk's own objects, which the audit's
    caches key on by id."""
    corpus_scenarios = {id(e.scenario) for e in corpus_entries}
    for s in _walk_structures(corpus_entries):
        full = model._feasible(s, None)
        assert list(full) == naive_feasible_allocations(s), s
        assert all(type(a) is tuple for a in full), s
        objects = {}
        for a in full:
            for asg in a:
                objects.setdefault(asg, set()).add(id(asg))
        assert all(len(ids) == 1 for ids in objects.values()), s
        if id(s) in corpus_scenarios:
            walked = {id(a) for a in full}
            for chosen in (efficient_allocation(s).allocation,
                           OutcomeTable(s, None).truth().allocation,
                           commit_payments(s).allocation):
                assert id(chosen) in walked, s


@pytest.mark.parametrize("n", [6, 7])
def test_walk_refuses_a_last_commuters_ride_over_the_budget(monkeypatch, n):
    """The last commuter's rides are stored in a loop, not one call each,
    and each is checked against the budget: with MAX_ALLOCATIONS set to the
    index of any allocation in which the last commuter (a rider at n=6, a
    driver at n=7) rides, the walk raises instead of storing it."""
    s = _alternating_drivers(n)
    rides = [k for k, a in enumerate(naive_feasible_allocations(s)) if a[n - 1].role is Role.RIDE]
    assert rides
    model._walk.cache_clear()
    for k in rides:
        monkeypatch.setattr(model, "MAX_ALLOCATIONS", k)
        with pytest.raises(TooManyCommutersError, match=f"more than {k} feasible allocations"):
            model._feasible(s, None)
