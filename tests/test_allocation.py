"""Welfare-maximising allocation search against an independent oracle."""

import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TIE_VALUES,
    all_none,
    naive_best_allocation,
    naive_efficient,
    pivot_scenarios,
    small_scenarios,
    solo_commuters,
)
from rideshare import allocation
from rideshare.allocation import (
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
    substitute,
)


def test_profitable_pair_shares():
    """Share beats everyone-alone: -0.8 + 2.0 = 1.2 > 0."""
    rep = efficient_allocation(by_name("linear-pair-profitable"))
    assert rep.allocation[0].role is Role.DRIVE
    assert rep.allocation[1].role is Role.RIDE
    assert rep.welfare == pytest.approx(1.2, abs=1e-12)
    assert rep.per_commuter == pytest.approx((-0.8, 2.0), abs=1e-12)


def test_unprofitable_pair_stays_home():
    """beta = 1 flips the sign: -0.8 + 0.4 < 0, so nobody shares."""
    rep = efficient_allocation(by_name("linear-pair-unprofitable"))
    assert all_none(rep.allocation)
    assert rep.welfare == 0.0


def test_welfare_is_sum_of_values():
    rep = efficient_allocation(by_name("linear-quad-competition"))
    assert rep.welfare == math.fsum(rep.per_commuter)


def test_solo_scenario():
    rep = efficient_allocation(by_name("linear-solo"))
    assert all_none(rep.allocation)
    assert rep.welfare == 0.0


def test_threshold_gate_truthful_stays_home():
    """With p0 = 0.5 under the 0.6 gate the rider's value is 0 and the
    driver's cost makes sharing strictly bad."""
    rep = efficient_allocation(by_name("threshold-gate-pair"))
    assert all_none(rep.allocation)
    assert rep.welfare == 0.0


def test_threshold_gate_misreport_forces_share():
    """Reporting p0 = 0.6 passes the gate: welfare (5 - 2) * 0.6 * 0.8."""
    rep = efficient_allocation(by_name("threshold-gate-pair-misreport"))
    assert not all_none(rep.allocation)
    assert rep.welfare == pytest.approx(1.44, abs=1e-12)


def test_trio_two_drivers_welfare():
    """Best plan: commuter 0 drives commuter 2, commuter 1 stays home.
    Welfare 2.16; without commuter 0 the fallback pairing gives 1.35."""
    s = by_name("linear-trio-two-drivers")
    rep = efficient_allocation(s)
    assert rep.welfare == pytest.approx(2.16, abs=1e-12)
    assert rep.allocation[0].role is Role.DRIVE
    assert rep.allocation[0].partners == frozenset({2})
    drop = efficient_allocation_excluding(s, 0)
    assert drop.welfare == pytest.approx(1.35, abs=1e-12)
    assert drop.per_commuter[0] == 0.0


def test_excluding_threshold_driver_strands_rider():
    s = by_name("threshold-gate-pair-misreport")
    rep = efficient_allocation_excluding(s, 0)
    assert all_none(rep.allocation)
    assert rep.welfare == 0.0


def test_uses_reported_not_true_probabilities():
    s = by_name("threshold-gate-pair-misreport")
    assert not all_none(efficient_allocation(s).allocation)
    assert all_none(efficient_allocation(with_truthful_reports(s)).allocation)


def test_p_override_replaces_reported():
    s = by_name("threshold-gate-pair-misreport")
    rep = efficient_allocation(s, p_override=s.true_p())
    assert all_none(rep.allocation)


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
            asg = a[spec.owner]
            calls.append((spec.owner, asg.role, asg.partners))
            return evaluate(spec, a, p, absent_)

        with mock.patch.object(allocation, "evaluate", recording):
            efficient_allocation(s, absent=absent)
        expected = dict.fromkeys(
            (j, a[j].role, a[j].partners)
            for a in _feasible(s, absent)
            for j in range(s.n)
            if j != absent
        )
        assert calls == list(expected), absent


def test_trio_constants_picks_full_van():
    """Capacity 2 lets the driver take both riders: -1 + 2 + 1.5 = 2.5."""
    rep = efficient_allocation(by_name("linear-trio-constants"))
    assert rep.welfare == 2.5
    assert rep.allocation[0].partners == frozenset({1, 2})


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
    assert rep.allocation[0].partners == frozenset({2})
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
    assert all_none(rep.allocation)
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
            if full.allocation[c.id].role is not Role.NONE:
                continue
            values = [
                evaluate(c.reported_type.valuation, a, p)
                for a in _feasible(s)
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
    table's scorer's report, made without calling `_argmax`,
    and `_argmax`'s over the full set, each from fresh tables."""
    allocations = _feasible(s, None)
    p = s.reported_p()
    specs = [c.reported_type.valuation for c in s.commuters]
    refuse = mock.patch.object(allocation, "_argmax", side_effect=AssertionError("searched"))
    for i in range(s.n):
        with refuse:
            score = OutcomeTable(s, None).scorer(i, p)
        for scale in (1.0, 0.0, -1.0, 2.0**60):
            own = _rescaled(specs[i], scale)
            with refuse:
                got = score(own, p)
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
    p = s.reported_p()
    score = OutcomeTable(s, None).scorer(0, p)
    rep = score(flat(0, 2.0**54), p)
    assert rep.allocation is allocations[0]
    assert rep.welfare == 2.0**54
    assert score(flat(0, 0.0), p).allocation is allocations[1]


@given(small_scenarios())
@settings(max_examples=40, deadline=None)
def test_deviation_frames_score_as_efficient_allocation_of_the_report(s):
    """Under private and public probabilities, the table's scorer returns
    the efficient allocation of the scenario with i's report, as the very
    allocation object that search picks, given i's probabilities `q`. Only
    where someone reads p̂_i is the scorer built at `q`; otherwise one
    scorer, built at the table's probabilities, scores every p̂_i."""
    space = DeviationSpace(p_grid=3)
    for public_p in (None, s.true_p()):
        table = OutcomeTable(s, public_p)
        for i, c in enumerate(s.commuters):
            readers = table.readers(i)
            score = table.scorer(i, table.p)
            for trip in deviations_for(c.true_type, space):
                q = table.p if public_p is not None else substitute(table.p, i, trip.p_commit)
                if readers:
                    score = table.scorer(i, q)
                got = score(trip.valuation, q)
                expected = efficient_allocation(with_report(s, i, trip), p_override=public_p)
                assert got == expected
                assert got.allocation is expected.allocation


@given(pivot_scenarios(excluding_none=False))
@settings(max_examples=25, deadline=None)
def test_outcomes_are_the_allocations_no_report_excludes(s):
    """Under reported and public probabilities, one table lists once, in
    walk order, each feasible allocation that no report excludes, as a
    pair of the allocation and a tuple of everyone's values there at
    those probabilities. A scorer on that table at i's reported
    probability, which reuses its rows and value tables, scores i's
    report as the full search does, with the very same floats for the
    others."""
    specs = [c.reported_type.valuation for c in s.commuters]
    for public_p in (None, s.true_p()):
        p = s.reported_p() if public_p is None else public_p
        acceptable = [a for a in _feasible(s, None)
                      if all(evaluate(spec, a, p) is not EXCLUDED for spec in specs)]
        table = OutcomeTable(s, public_p)
        outcomes = table.rows()
        assert table.rows() is outcomes
        assert [id(a) for a, _ in outcomes] == [id(a) for a in acceptable]
        for a, values in outcomes:
            assert type(values) is tuple
            assert repr(values) == repr(tuple(evaluate(spec, a, p) for spec in specs))
        for i in range(s.n):
            chosen = table.scorer(i, table.p)(specs[i], table.p)
            expected = efficient_allocation(s, p_override=public_p)
            assert chosen == expected and chosen.allocation is expected.allocation
            others = {id(a): values for a, values in outcomes}[id(chosen.allocation)]
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
                   else efficient_allocation(s, p_override=p, absent=k).welfare), order)


def _table_in_order(table, order):
    """The same from `table`: `truth()` for None, `pivot(k)` for k."""
    return _priced_in_order(lambda k: table.truth() if k is None else table.pivot(k), order)


@given(pivot_scenarios())
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


def _by_role(owner, default=0.0, **roles):
    """A spec with one clause per keyword role, in order: excluded for None,
    else the given terms, a number standing for one constant term."""
    def clause(role, v):
        pattern = OutcomePattern(Role[role.upper()])
        if v is None:
            return Clause(pattern, excluded=True)
        return Clause(pattern, terms=(Monomial(v),) if isinstance(v, float) else v)

    return ValuationSpec(owner, tuple(clause(role, v) for role, v in roles.items()), default)


def _pair(driver, rider):
    """A one-seat driver 0 and a rider 1, with these specs, both at 0.5."""
    return Scenario((Commuter(0, True, 1, TripType(driver, 0.5)),
                     Commuter(1, False, 0, TripType(rider, 0.5))), full_compatibility(2))


def _signed_zero_pair():
    """Every value is the -0.0 of a spec's default, staying home included.
    From Python 3.12 `math.fsum` keeps the sign of a sum of -0.0s, so the
    truthful sum reads -0.0 where pivot 0's search, holding +0.0 for 0,
    reads 0.0."""
    return _pair(_by_role(0, -0.0), _by_role(1, -0.0)), 0, True


def _factor_on_an_idle_driver():
    """Rider 2 values any ride at 1 + 2 p_0, so riding with driver 1 is worth
    2 with driver 0 at home and 1 with 0 absent."""
    ride = (Monomial(2.0, ((0, 1),)), Monomial(1.0))
    s = Scenario((
        Commuter(0, True, 1, TripType(_by_role(0, none=0.0, drive=-0.5), 0.5)),
        Commuter(1, True, 1, TripType(_by_role(1, none=0.0, drive=-0.5), 0.5)),
        Commuter(2, False, 0, TripType(_by_role(2, none=0.0, ride=ride), 0.5)),
    ), full_compatibility(3))
    return s, 0, True


def _home_at_integer_zero():
    """Driver 0 stays home at the integer 0 of their spec's default."""
    return _pair(_by_role(0, 0, drive=-0.5), _by_role(1, none=0.0, ride=1.0)), 0, True


def _a_report_of_another_owner():
    """Commuter 1 reports a valuation owned by 0, which validation forbids:
    worth 5 when 0 drives, so it changes welfare on allocations leaving 1
    at home, though it is 0.0 when 0 stays home."""
    s = Scenario((
        Commuter(0, True, 1, TripType(_by_role(0, none=0.0, drive=-1.0), 0.5)),
        Commuter(1, False, 0, TripType(_by_role(0, none=0.0, drive=5.0), 0.5)),
        Commuter(2, False, 0, TripType(_by_role(2, none=0.0, ride=2.0), 0.5)),
    ), full_compatibility(3))
    return s, 1, True


def _a_rider_refusing_home():
    """Rider 1 refuses to stay home, which validation forbids, so without
    driver 0 no allocation is acceptable; 0 stays home at 0 and nobody reads
    p_0, so the efficient search prices that pivot, and raises as it does."""
    return _pair(_by_role(0, none=0.0, drive=0.5), _by_role(1, none=None, ride=1.0)), 0, False


@pytest.mark.parametrize("case, before", [
    (_signed_zero_pair, [None]),
    (_factor_on_an_idle_driver, [None]),
    (lambda: (by_name("linear-trio-constants"), 1, True), [0]),
    (lambda: (by_name("linear-trio-constants"), 1, False), [None]),
    (_home_at_integer_zero, [None]),
    (_a_report_of_another_owner, [None]),
    (_a_rider_refusing_home, [None]),
], ids=["home-at-negative-zero", "any-partners-factor-on-k", "asked-before-truth",
        "asked-after-truth", "home-at-integer-zero", "a-report-of-another-owner",
        "a-report-excludes-home"])
def test_a_pivot_is_searched_unless_the_absence_changes_no_value(case, before):
    """`pivot(k)`, asked after the efficient report or the pivots in
    `before` (None for `truth`), returns, or raises, what
    `efficient_allocation(s, absent=k)` does, to the bit or with the same
    message. It searches k's pivot set exactly when the efficient search
    cannot price it: k stays home at a value other than the float +0.0, k
    reports another's valuation, another report's clause that can match
    while k stays home reads p_k, or `truth` has not returned. In the trio,
    pivot 0's search fills 1's table at home before `truth` runs."""
    s, k, searched = case()
    table = OutcomeTable(s, None)
    _table_in_order(table, before)
    with mock.patch.object(allocation, "_argmax", wraps=allocation._argmax) as argmax:
        got = _priced_in_order(table.pivot, [k])
    assert argmax.call_count == (1 if searched else 0)
    expected = _priced_in_order(lambda k: efficient_allocation(s, absent=k).welfare, [k])
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
    else:
        assert repr(got) == repr(expected)


def test_outcome_table_scores_a_pivot_past_its_own_exclusion():
    """Commuter 1 refuses to travel alone, which validation forbids, so the
    full search drops every allocation leaving 1 at home at 1, before 2 is
    scored; without 1 those are the only allocations, and the best is the
    one where 0 and 2 both stay home, worth 2 + 3."""
    s = Scenario((
        Commuter(0, True, 1, TripType(_by_role(0, none=2.0, drive=0.5, ride=0.25), 1.0)),
        Commuter(1, False, 0, TripType(_by_role(1, none=None, ride=1.0), 1.0)),
        Commuter(2, True, 1, TripType(_by_role(2, none=3.0, drive=1.0, ride=0.5), 1.0)),
    ), full_compatibility(3))
    order = [None, 0, 1, 2]
    table = OutcomeTable(s, None)
    got = _table_in_order(table, order)
    assert repr(got) == repr(_searches_one_by_one(s, None, order))
    assert got[0].allocation is efficient_allocation(s).allocation
    assert got[2] == 5.0


# The pivots a table still searches once `truth` has returned: those whose
# commuter some other report reads while they stay home. The shared-driver
# trio's riders value any ride at a factor on driver 0's probability; every
# other reader in these trios reads its exact partner.
_SEARCHED_AFTER_TRUTH = {
    "linear-trio-shared-driver": {0},
    "linear-trio-constants": set(),
    "linear-trio-two-drivers": set(),
}


def test_pivots_search_the_tables_own_walk():
    """The walk caches one structure, so a pivot searched after another
    scenario was walked still searches the allocations its table fetched,
    whose assignment objects key the shared value tables: it evaluates no
    more than the pivot searched right after `truth`. Every other pivot is
    the welfare `truth` kept: no search, no evaluation."""
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    other = by_name("linear-pair-profitable")
    for name, searched in _SEARCHED_AFTER_TRUTH.items():
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
            assert repr(expected) == repr(efficient_allocation_excluding(s, k).welfare)
            assert len(calls) == evaluations, (name, k)
            if k not in searched:
                assert argmax.call_count == 0 and evaluations == 0, (name, k)
                continue
            assert argmax.call_count == 1 and evaluations > 0, (name, k)
            own = {id(a) for a in table.allocations}
            assert all(id(a) in own for a in argmax.call_args.args[0]), (name, k)


def test_pivots_asked_after_another_walk_price_as_their_own_searches(corpus_entries):
    """A table cuts every pivot set when it is built, so pivots first asked
    after another structure was walked still price each absence as
    `efficient_allocation_excluding` does, to the bit."""
    for e in corpus_entries:
        s = e.scenario
        table = OutcomeTable(s, None)
        _feasible(solo_commuters(5), None)
        got = [table.pivot(k) for k in range(s.n)]
        expected = [efficient_allocation_excluding(s, k).welfare for k in range(s.n)]
        assert repr(got) == repr(expected), e.name
