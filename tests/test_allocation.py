"""Welfare-maximising allocation search against an independent oracle."""

import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    OVERFLOWING_DRIVER,
    REFUSING_DRIVER,
    TIE_VALUES,
    naive_best_allocation,
    naive_efficient,
    pivot_scenarios,
    reader_overflow_scenario,
    small_scenarios,
)
from rideshare import allocation
from rideshare.allocation import (
    DeviationFrames,
    OutcomeTable,
    efficient_allocation,
    efficient_allocation_excluding,
)
from rideshare.audit import DeviationSpace, deviations_for
from rideshare.corpus import by_name
from rideshare.model import (
    Commuter,
    Role,
    Scenario,
    TripType,
    _feasible,
    all_none_allocation,
    enumerate_feasible_allocations,
    full_compatibility,
    with_report,
    with_truthful_reports,
)
from rideshare.valuation import (
    EXCLUDED,
    Clause,
    ExactPartners,
    Monomial,
    OutcomePattern,
    PartnerCountAtLeast,
    ValuationSpec,
    evaluate,
)


def test_profitable_pair_shares():
    """Share beats everyone-alone: -0.8 + 2.0 = 1.2 > 0."""
    rep = efficient_allocation(by_name("linear-pair-profitable"))
    assert rep.allocation.role_of(0) is Role.DRIVE
    assert rep.allocation.role_of(1) is Role.RIDE
    assert rep.welfare == pytest.approx(1.2, abs=1e-12)
    assert rep.per_commuter == pytest.approx((-0.8, 2.0), abs=1e-12)


def test_unprofitable_pair_stays_home():
    """beta = 1 flips the sign: -0.8 + 0.4 < 0, so nobody shares."""
    rep = efficient_allocation(by_name("linear-pair-unprofitable"))
    assert rep.allocation.all_none()
    assert rep.welfare == 0.0


def test_welfare_is_sum_of_values():
    rep = efficient_allocation(by_name("linear-quad-competition"))
    assert rep.welfare == math.fsum(rep.per_commuter)


def test_solo_scenario():
    rep = efficient_allocation(by_name("linear-solo"))
    assert rep.allocation.all_none()
    assert rep.welfare == 0.0


def test_threshold_gate_truthful_stays_home():
    """With p0 = 0.5 under the 0.6 gate the rider's value is 0 and the
    driver's cost makes sharing strictly bad."""
    rep = efficient_allocation(by_name("threshold-gate-pair"))
    assert rep.allocation.all_none()
    assert rep.welfare == 0.0


def test_threshold_gate_misreport_forces_share():
    """Reporting p0 = 0.6 passes the gate: welfare (5 - 2) * 0.6 * 0.8."""
    rep = efficient_allocation(by_name("threshold-gate-pair-misreport"))
    assert not rep.allocation.all_none()
    assert rep.welfare == pytest.approx(1.44, abs=1e-12)


def test_trio_two_drivers_welfare():
    """Best plan: commuter 0 drives commuter 2, commuter 1 stays home.
    Welfare 2.16; without commuter 0 the fallback pairing gives 1.35."""
    s = by_name("linear-trio-two-drivers")
    rep = efficient_allocation(s)
    assert rep.welfare == pytest.approx(2.16, abs=1e-12)
    assert rep.allocation.role_of(0) is Role.DRIVE
    assert rep.allocation.partners_of(0) == frozenset({2})
    drop = efficient_allocation_excluding(s, 0)
    assert drop.welfare == pytest.approx(1.35, abs=1e-12)
    assert drop.per_commuter[0] == 0.0


def test_excluding_threshold_driver_strands_rider():
    s = by_name("threshold-gate-pair-misreport")
    rep = efficient_allocation_excluding(s, 0)
    assert rep.allocation.all_none()
    assert rep.welfare == 0.0


def test_uses_reported_not_true_probabilities():
    s = by_name("threshold-gate-pair-misreport")
    assert not efficient_allocation(s).allocation.all_none()
    assert efficient_allocation(with_truthful_reports(s)).allocation.all_none()


def test_p_override_replaces_reported():
    s = by_name("threshold-gate-pair-misreport")
    rep = efficient_allocation(s, p_override=s.true_p())
    assert rep.allocation.all_none()


def test_matches_naive_oracle_on_corpus(corpus_entries):
    """Welfare and the chosen allocation both agree with the from-scratch
    enumerator, including the first-maximizer tie rule."""
    for e in corpus_entries:
        rep = efficient_allocation(e.scenario)
        best, welfare = naive_best_allocation(e.scenario)
        assert rep.allocation == best, e.name
        assert rep.welfare == welfare, e.name


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_matches_naive_oracle_on_random_scenarios(s):
    rep = efficient_allocation(s)
    best, welfare = naive_best_allocation(s)
    assert rep.allocation == best
    assert rep.welfare == welfare


@given(small_scenarios(), st.data())
@settings(max_examples=60, deadline=None)
def test_matches_naive_oracle_with_absent_and_p_override(s, data):
    """Every single-commuter absent set and an overriding probability vector:
    the chosen allocation, the welfare and each commuter's value are the
    same floats as a from-scratch scorer's."""
    p = tuple(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=16),
        min_size=s.n, max_size=s.n,
    )))
    for absent in [None, *range(s.n)]:
        for p_override in (None, p):
            rep = efficient_allocation(s, p_override=p_override, absent=absent)
            best, welfare, values = naive_efficient(s, p_override, absent)
            assert rep.allocation == best, (absent, p_override)
            assert repr((rep.welfare, rep.per_commuter)) == repr((welfare, values)), (
                absent, p_override)


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_each_commuter_is_evaluated_once_per_distinct_assignment(s):
    """No valuation here excludes an outcome, so the search evaluates each
    present commuter exactly once per distinct (role, partners) in the
    feasible set, in the order the allocations first reach it."""
    for absent in [None, *range(s.n)]:
        calls = []

        def recording(spec, a, p, absent_):
            asg = a.assignments[spec.owner]
            calls.append((spec.owner, asg.role, asg.partners))
            return evaluate(spec, a, p, absent_)

        with mock.patch.object(allocation, "evaluate", recording):
            efficient_allocation(s, absent=absent)
        expected = dict.fromkeys(
            (j, a.assignments[j].role, a.assignments[j].partners)
            for a in enumerate_feasible_allocations(s, absent)
            for j in range(s.n)
            if j != absent
        )
        assert calls == list(expected), absent


def test_trio_constants_picks_full_van():
    """Capacity 2 lets the driver take both riders: -1 + 2 + 1.5 = 2.5."""
    rep = efficient_allocation(by_name("linear-trio-constants"))
    assert rep.welfare == 2.5
    assert rep.allocation.partners_of(0) == frozenset({1, 2})


def test_tie_breaks_to_first_enumerated():
    """Two identical riders and one seat: both share plans give welfare 1.
    Driver-choice vectors enumerate with the last commuter varying fastest,
    so rider 2 boards and rider 1 stays home."""
    from rideshare.model import Commuter, Scenario, TripType, full_compatibility
    from rideshare.valuation import (
        AnyPartners,
        Clause,
        Monomial,
        OutcomePattern,
        ValuationSpec,
    )

    def flat(owner, role, worth):
        clauses = (
            Clause(OutcomePattern(role, AnyPartners()), (), (Monomial(worth, ()),), False),
            Clause(OutcomePattern(Role.NONE, AnyPartners()), (), (), False),
        )
        return TripType(ValuationSpec(owner, clauses, 0.0), 1.0)

    s = Scenario((
        Commuter(0, True, 1, flat(0, Role.DRIVE, -1.0)),
        Commuter(1, False, 0, flat(1, Role.RIDE, 2.0)),
        Commuter(2, False, 0, flat(2, Role.RIDE, 2.0)),
    ), full_compatibility(3))
    rep = efficient_allocation(s)
    assert rep.welfare == 1.0
    assert rep.allocation.partners_of(0) == frozenset({2})
    naive, _ = naive_best_allocation(s)
    assert rep.allocation == naive


def test_solo_welfare_is_the_alone_value():
    """With one commuter the optimum is forced; welfare is whatever the
    stay-home clause is worth."""
    from rideshare.model import Commuter, Scenario, TripType, full_compatibility
    from rideshare.valuation import (
        AnyPartners,
        Clause,
        Monomial,
        OutcomePattern,
        ValuationSpec,
    )

    home = Clause(OutcomePattern(Role.NONE, AnyPartners()), (),
                  (Monomial(3.0, ((0, 1),)),), False)
    trip = TripType(ValuationSpec(0, (home,), 0.0), 0.5)
    s = Scenario((Commuter(0, False, 0, trip),), full_compatibility(1))
    rep = efficient_allocation(s)
    assert rep.allocation.all_none()
    assert rep.welfare == 1.5


def test_excluding_the_only_commuter_leaves_empty_problem():
    rep = efficient_allocation_excluding(by_name("linear-solo"), 0)
    assert rep.allocation == all_none_allocation(1)
    assert rep.welfare == 0.0


def _with_reversed_clauses(s):
    def flip(trip):
        spec = trip.valuation
        return replace(trip, valuation=replace(spec, clauses=tuple(reversed(spec.clauses))))

    commuters = tuple(
        replace(c, true_type=flip(c.true_type), reported_type=flip(c.reported_type))
        for c in s.commuters
    )
    return replace(s, commuters=commuters)


def test_clause_order_does_not_steer_the_choice():
    """The pair specs keep one clause per role, so reversing the clause lists
    leaves every value unchanged and the same allocation must win, whether
    the optimum is the share or everyone-alone."""
    for name in ("linear-pair-profitable", "linear-pair-unprofitable", "threshold-gate-pair"):
        base = efficient_allocation(by_name(name))
        flipped = efficient_allocation(_with_reversed_clauses(by_name(name)))
        assert flipped.allocation == base.allocation, name
        assert flipped.welfare == base.welfare, name


def test_leaving_out_an_unmatched_harmless_commuter_never_helps(corpus_entries):
    """Whenever the optimum already benches a commuter whose reported value
    is nonnegative at every feasible outcome, dropping that commuter cannot
    beat the unrestricted optimum."""
    checked = 0
    for e in corpus_entries:
        s = e.scenario
        full = efficient_allocation(s)
        p = s.reported_p()
        for c in s.commuters:
            if full.allocation.role_of(c.id) is not Role.NONE:
                continue
            values = [
                evaluate(c.reported_type.valuation, a, p)
                for a in enumerate_feasible_allocations(s)
            ]
            if any(v is not EXCLUDED and v < 0.0 for v in values):
                continue
            reduced = efficient_allocation_excluding(s, c.id)
            assert reduced.welfare <= full.welfare + 1e-12, (e.name, c.id)
            checked += 1
    assert checked >= 2


@st.composite
def tied_scenarios(draw):
    """Two to four commuters valuing each outcome at a constant drawn from
    `TIE_VALUES`, plus at most one term reading someone's probability:
    one value per driver a rider might ride with (some excluded), one for
    a full or partial car, and one for travelling alone."""
    n = draw(st.integers(min_value=2, max_value=4))
    value = st.sampled_from(TIE_VALUES)

    def terms():
        out = [Monomial(draw(value))]
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            out.append(Monomial(draw(value), ((draw(st.integers(0, n - 1)), 1),)))
        return tuple(out)

    commuters = []
    for k in range(n):
        clauses = [Clause(OutcomePattern(Role.DRIVE, PartnerCountAtLeast(2)), terms=terms()),
                   Clause(OutcomePattern(Role.DRIVE), terms=terms())]
        for d in range(n):
            pattern = OutcomePattern(Role.RIDE, ExactPartners(frozenset({d})))
            if d != k:
                excluded = draw(st.integers(min_value=0, max_value=4)) == 0
                clauses.append(Clause(pattern, excluded=True) if excluded
                               else Clause(pattern, terms=terms()))
        clauses.append(Clause(OutcomePattern(Role.NONE), terms=terms()))
        has_vehicle = draw(st.booleans())
        capacity = draw(st.integers(min_value=1, max_value=2)) if has_vehicle else 0
        p = draw(st.sampled_from((0.0, 0.5, 1.0)))
        commuters.append(Commuter(k, has_vehicle, capacity,
                                  TripType(ValuationSpec(k, tuple(clauses)), p)))
    return Scenario(tuple(commuters), full_compatibility(n))


def _rescaled(spec, scale):
    return replace(spec, clauses=tuple(
        replace(c, terms=tuple(replace(m, coefficient=scale * m.coefficient) for m in c.terms))
        for c in spec.clauses))


def _scorer_against_argmax(s):
    """For each commuter i and each uniform rescaling of i's valuation, the
    frame scorer's report, made without falling back to `_argmax`, and
    `_argmax`'s over the full set, each from fresh tables."""
    allocations = _feasible(s, None)
    p = s.reported_p()
    specs = [c.reported_type.valuation for c in s.commuters]
    refuse = mock.patch.object(allocation, "_argmax", side_effect=AssertionError("unpruned"))
    for i in range(s.n):
        with refuse:
            score = DeviationFrames(OutcomeTable(s, None), i)(p[i])
        for scale in (1.0, 0.0, -1.0, 2.0**60):
            own = _rescaled(specs[i], scale)
            with refuse:
                got = score(own)
            fresh = [allocation._scored(j, spec) for j, spec in enumerate(specs)]
            fresh[i] = allocation._scored(i, own)
            yield got, allocation._argmax(allocations, fresh, p, None)


@given(tied_scenarios())
@settings(max_examples=150, deadline=None)
def test_frame_scorer_matches_the_full_argmax_on_ties(s):
    """Among exact ties and sums that i's value rounds together, the frame
    scorer picks the very allocation `_argmax` picks, with the same floats."""
    for got, expected in _scorer_against_argmax(s):
        assert got == expected
        assert got.allocation is expected.allocation


@given(small_scenarios())
@settings(max_examples=60, deadline=None)
def test_frame_scorer_matches_the_full_argmax(s):
    for got, expected in _scorer_against_argmax(s):
        assert got == expected
        assert got.allocation is expected.allocation


def test_frame_scorer_keeps_a_contender_that_rounds_level_with_a_later_one():
    """Commuter 0 always travels alone. The others' sums of the all-none
    allocation and of 1 driving 2 are 1 and 1 + 2**-52, so the second
    allocation dominates the first for any value of 0 below the ulp of
    those sums; at 2**54 both welfares round to 2**54 and the first
    maximiser is the all-none allocation, which the scorer must keep."""
    def flat(owner, none, drive=0.0):
        return ValuationSpec(owner, (
            Clause(OutcomePattern(Role.DRIVE), terms=(Monomial(drive),)),
            Clause(OutcomePattern(Role.NONE), terms=(Monomial(none),)),
        ))

    compatible = ((True, False, False), (False, True, True), (False, True, True))
    s = Scenario((
        Commuter(0, False, 0, TripType(flat(0, 2.0**54), 1.0)),
        Commuter(1, True, 1, TripType(flat(1, 1.0, 1.0 + 2**-52), 1.0)),
        Commuter(2, False, 0, TripType(flat(2, 0.0), 1.0)),
    ), compatible)
    allocations = _feasible(s, None)
    assert len(allocations) == 2
    score = DeviationFrames(OutcomeTable(s, None), 0)(1.0)
    rep = score(flat(0, 2.0**54))
    assert rep.allocation is allocations[0]
    assert rep.welfare == 2.0**54
    assert score(flat(0, 0.0)).allocation is allocations[1]


@given(small_scenarios())
@settings(max_examples=40, deadline=None)
def test_deviation_frames_score_as_efficient_allocation_of_the_report(s):
    """Under private and public probabilities, each frame's scorer returns
    the efficient allocation of the scenario with i's report, as the very
    allocation object that search picks."""
    space = DeviationSpace(p_grid=3)
    for public_p in (None, s.true_p()):
        for i, c in enumerate(s.commuters):
            frames = DeviationFrames(OutcomeTable(s, public_p), i)
            for trip in deviations_for(c.true_type, space):
                got = frames(trip.p_commit)(trip.valuation)
                expected = efficient_allocation(with_report(s, i, trip), p_override=public_p)
                assert got == expected
                assert got.allocation is expected.allocation


@given(pivot_scenarios(excluding_none=False))
@settings(max_examples=25, deadline=None)
def test_outcomes_are_the_allocations_no_report_excludes(s):
    """Under reported and public probabilities, one table lists for every
    i, in walk order, each feasible allocation that no report excludes,
    with the others' values at those probabilities, i's slot 0.0 and the
    welfare their exact sum. A frame on that table at i's reported
    probability, which reuses its value tables, scores i's report as the
    full search does, with the very same floats for the others."""
    specs = [c.reported_type.valuation for c in s.commuters]
    for public_p in (None, s.true_p()):
        p = s.reported_p() if public_p is None else public_p
        acceptable = [a for a in _feasible(s, None)
                      if all(evaluate(spec, a, p) is not EXCLUDED for spec in specs)]
        table = OutcomeTable(s, public_p)
        for i in range(s.n):
            outcomes = table.outcomes(i)
            frames = DeviationFrames(table, i)
            assert [id(rep.allocation) for rep in outcomes] == [id(a) for a in acceptable]
            for rep in outcomes:
                values = tuple(0.0 if j == i else evaluate(spec, rep.allocation, p)
                               for j, spec in enumerate(specs))
                assert repr((rep.welfare, rep.per_commuter)) == repr((math.fsum(values), values))
            chosen = frames(s.reported_p()[i])(specs[i])
            expected = efficient_allocation(s, p_override=public_p)
            assert chosen == expected and chosen.allocation is expected.allocation
            others = {id(rep.allocation): rep.per_commuter for rep in outcomes}[id(chosen.allocation)]
            assert repr(chosen.per_commuter[:i] + chosen.per_commuter[i + 1:]) == repr(
                others[:i] + others[i + 1:])


def _priced_in_order(search, order):
    """`search(k)` for each k of `order`, or the exception the first
    failing search raises."""
    try:
        return [search(k) for k in order]
    except Exception as e:
        return e


def _searches_one_by_one(s, p, order):
    """In `order`, `efficient_allocation` for None and each pivot k's
    welfare from its own search, or the first exception raised."""
    return _priced_in_order(
        lambda k: (efficient_allocation(s, p_override=p) if k is None
                   else efficient_allocation_excluding(s, k, p_override=p).welfare), order)


def _table_in_order(table, order):
    """The same from `table`: `truth()` for None, `pivot(k)` for k."""
    return _priced_in_order(lambda k: table.truth() if k is None else table.pivot(k), order)


@given(pivot_scenarios())
@example(reader_overflow_scenario(*REFUSING_DRIVER))
@example(reader_overflow_scenario(*OVERFLOWING_DRIVER))
@settings(max_examples=200, deadline=None)
def test_outcome_table_prices_as_the_searches_one_by_one(s):
    """Under reported and public probabilities, and with the efficient
    report asked for first (as a schedule does) or after the first pivot
    (as the audit's sweeps do), the table's searches pick the very
    allocation the full search picks, with the same welfare, values and
    pivot welfares to the bit (`repr` tells -0.0 from 0.0), or raise what
    the searches run one by one raise first: the same type and message."""
    for p in (None, s.true_p()):
        for order in ([None, *range(s.n)], [0, None, *range(1, s.n)]):
            expected = _searches_one_by_one(s, p, order)
            got = _table_in_order(OutcomeTable(s, p), order)
            if isinstance(expected, Exception):
                assert type(got) is type(expected) and str(got) == str(expected)
                continue
            assert repr(got) == repr(expected)
            rep = got[order.index(None)]
            assert rep.allocation is expected[order.index(None)].allocation


def test_outcome_table_scores_a_pivot_past_its_own_exclusion():
    """Commuter 1 refuses to travel alone, which validation forbids, so the
    full search drops every allocation leaving 1 at home at 1, before 2 is
    scored; without 1 those are the only allocations, and the best is the
    one where 0 and 2 both stay home, worth 2 + 3."""
    def spec(owner, **roles):
        return ValuationSpec(owner, tuple(
            Clause(OutcomePattern(Role[role.upper()]), excluded=True) if v is None
            else Clause(OutcomePattern(Role[role.upper()]), terms=(Monomial(v),))
            for role, v in roles.items()))

    s = Scenario((
        Commuter(0, True, 1, TripType(spec(0, none=2.0, drive=0.5, ride=0.25), 1.0)),
        Commuter(1, False, 0, TripType(spec(1, none=None, ride=1.0), 1.0)),
        Commuter(2, True, 1, TripType(spec(2, none=3.0, drive=1.0, ride=0.5), 1.0)),
    ), full_compatibility(3))
    order = [None, 0, 1, 2]
    table = OutcomeTable(s, None)
    got = _table_in_order(table, order)
    assert repr(got) == repr(_searches_one_by_one(s, None, order))
    assert got[0].allocation is efficient_allocation(s).allocation
    assert got[2] == 5.0


def test_pivots_search_the_tables_own_walk():
    """The walk caches one structure, so a pivot searched after another
    scenario was walked still searches the allocations its table fetched,
    whose assignment objects key the shared value tables: it evaluates no
    more than the pivot searched right after `truth`."""
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    other = by_name("linear-pair-profitable")
    for name in ("linear-trio-constants", "linear-trio-two-drivers"):
        s = by_name(name)
        for k in range(s.n):
            del calls[:]
            twin = OutcomeTable(s, None)
            twin.truth()
            with mock.patch.object(allocation, "evaluate", counting):
                expected = twin.pivot(k)
            evaluations = len(calls)
            table = OutcomeTable(s, None)
            table.truth()
            _feasible(other, None)
            del calls[:]
            with mock.patch.object(allocation, "evaluate", counting), \
                    mock.patch.object(allocation, "_argmax", wraps=allocation._argmax) as argmax:
                assert repr(table.pivot(k)) == repr(expected)
            assert len(calls) == evaluations, (name, k)
            own = {id(a) for a in table.allocations}
            assert all(id(a) in own for a in argmax.call_args.args[0]), (name, k)
