"""Groves and commit-based payment schedules plus expected utilities."""

import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FAMILIES,
    all_none,
    bench_scale_scenario,
    pivot_scenarios,
    small_scenarios,
)
from rideshare import allocation, cli, payments
from rideshare.allocation import (
    OutcomeTable,
    WelfareReport,
    efficient_allocation,
    efficient_allocation_excluding,
)
from rideshare.corpus import by_name, corpus, linear_entries
from rideshare.model import (
    Assignment,
    Commuter,
    Role,
    Scenario,
    TripType,
    all_none_allocation,
    full_compatibility,
    with_report,
    with_truthful_reports,
)
from rideshare.payments import (
    Conditional,
    ExcludedValueError,
    Mechanism,
    PivotRule,
    Unconditional,
    _commit_charges,
    commit_payments,
    expected_utility,
    groves_payments,
    settled_utility,
    utilities,
)
from rideshare.scenario_io import serialize_scenario
from rideshare.valuation import (
    AnyPartners,
    Clause,
    ExactPartners,
    Monomial,
    OutcomePattern,
    PartnerCountAtLeast,
    ValuationSpec,
    evaluate,
    referenced_subjects,
    substitute,
)


def test_clarke_public_pair_payments():
    """Driver is pivotal for the rider's 2.0 and vice versa for -0.8:
    x0 = 0 - 2.0 = -2.0 (a subsidy), x1 = 0 - (-0.8) = 0.8."""
    s = by_name("linear-pair-profitable")
    schedule = groves_payments(s, PivotRule.CLARKE, public_p=s.true_p())
    assert schedule.entries == (Unconditional(-2.0), Unconditional(0.8))
    assert expected_utility(s, 0, schedule) == pytest.approx(1.2, abs=1e-12)
    assert expected_utility(s, 1, schedule) == pytest.approx(1.2, abs=1e-12)


def test_zero_pivot_public_aligns_utility_with_welfare():
    """Groves with h = 0 pays each commuter everyone else's value, so each
    expected utility equals total welfare."""
    for e in corpus():
        s = e.scenario
        truthful = with_truthful_reports(s)
        schedule = groves_payments(truthful, PivotRule.ZERO, public_p=truthful.true_p())
        welfare = efficient_allocation(truthful, p_override=truthful.true_p()).welfare
        for i in range(truthful.n):
            u = expected_utility(truthful, i, schedule)
            assert u == pytest.approx(welfare, abs=1e-12), (e.name, i)


def test_solo_pays_nothing():
    s = by_name("linear-solo")
    assert groves_payments(s, PivotRule.CLARKE).entries == (Unconditional(0.0),)
    assert commit_payments(s).entries == (Conditional(0.0, 0.0),)
    assert expected_utility(s, 0, commit_payments(s)) == 0.0


def test_private_clarke_rewards_certainty_misreport():
    """Reporting p0 = 1 inflates the subsidy to 5 * 1 * 0.8 = 4.0 while the
    true expected cost stays -0.8: utility 3.2 against 1.2 when truthful."""
    s = by_name("linear-pair-profitable")
    truthful_schedule = groves_payments(s, PivotRule.CLARKE)
    assert expected_utility(s, 0, truthful_schedule) == pytest.approx(1.2, abs=1e-12)

    lie = replace(s.commuters[0].true_type, p_commit=1.0)
    bent = with_report(s, 0, lie)
    schedule = groves_payments(bent, PivotRule.CLARKE)
    assert schedule.entries[0] == Unconditional(-4.0)
    assert expected_utility(bent, 0, schedule) == pytest.approx(3.2, abs=1e-12)


def test_commit_pair_for_sharing_scenario():
    """on_commit substitutes p_i = 1 into the others' welfare: the driver
    owes 0 - 5 * 1 * 0.8 = -4.0 on commitment and nothing on failure."""
    s = by_name("linear-pair-profitable")
    schedule = commit_payments(s)
    assert schedule.entries[0] == Conditional(-4.0, 0.0)
    assert schedule.entries[1] == Conditional(1.0, 0.0)
    assert expected_utility(s, 0, schedule) == pytest.approx(1.2, abs=1e-12)
    assert expected_utility(s, 1, schedule) == pytest.approx(1.2, abs=1e-12)


def test_commit_pair_under_gate_misreport():
    """The gate misreport drags the rider into a share she now expects to
    regret: the lying driver nets 1.2 while the rider nets -0.96."""
    s = by_name("threshold-gate-pair-misreport")
    schedule = commit_payments(s)
    assert schedule.entries[0] == Conditional(-4.0, 0.0)
    assert schedule.entries[1] == Conditional(pytest.approx(1.2), 0.0)
    assert expected_utility(s, 0, schedule) == pytest.approx(1.2, abs=1e-12)
    assert expected_utility(s, 1, schedule) == pytest.approx(-0.96, abs=1e-12)


def test_unmatched_commuter_gets_zero_pair():
    """Commuter 1 stays home in the trio optimum and neither pays nor
    receives anything."""
    s = by_name("linear-trio-two-drivers")
    schedule = commit_payments(s)
    assert efficient_allocation(s).allocation[1].role is Role.NONE
    assert schedule.entries[1] == Conditional(0.0, 0.0)
    assert expected_utility(s, 1, schedule) == 0.0


def test_commit_utility_equals_marginal_contribution_on_linear_corpus():
    """For multilinear truthful scenarios the commit schedule implements the
    pivot identity u_i = welfare - welfare_without_i exactly."""
    for e in linear_entries():
        s = with_truthful_reports(e.scenario)
        schedule = commit_payments(s)
        welfare = efficient_allocation(s).welfare
        for i in range(s.n):
            h = efficient_allocation_excluding(s, i).welfare
            u = expected_utility(s, i, schedule)
            assert u == pytest.approx(welfare - h, abs=1e-12), (e.name, i)


def test_individual_rationality_commit_on_linear_corpus():
    for e in linear_entries():
        s = with_truthful_reports(e.scenario)
        schedule = commit_payments(s)
        for i in range(s.n):
            assert expected_utility(s, i, schedule) >= -1e-12, (e.name, i)


def test_individual_rationality_public_clarke_everywhere():
    for e in corpus():
        s = with_truthful_reports(e.scenario)
        schedule = groves_payments(s, PivotRule.CLARKE, public_p=s.true_p())
        for i in range(s.n):
            assert expected_utility(s, i, schedule) >= -1e-12, (e.name, i)


def test_commit_pair_depends_only_on_induced_allocation():
    """Sweep one commuter's reported probability; whenever two reports induce
    the same allocation the (on_commit, on_fail) pair is bitwise equal."""
    for e in corpus():
        s = e.scenario
        for i in range(s.n):
            groups = {}
            for k in range(11):
                p_hat = k / 10
                trip = replace(s.commuters[i].reported_type, p_commit=p_hat)
                bent = with_report(s, i, trip)
                schedule = commit_payments(bent)
                key = schedule.allocation
                pair = (schedule.entries[i].on_commit, schedule.entries[i].on_fail)
                if key in groups:
                    assert groups[key] == pair, (e.name, i, p_hat)
                else:
                    groups[key] = pair


def test_expected_utility_raises_when_truth_excludes_outcome():
    """A commuter whose true type rules out driving but whose report brags
    about it ends up in an outcome their true valuation refuses to price."""
    s = by_name("linear-pair-profitable")
    c0 = s.commuters[0]
    never_drive = ValuationSpec(0, (
        Clause(OutcomePattern(Role.DRIVE, AnyPartners()), (), (), True),
        Clause(OutcomePattern(Role.RIDE, AnyPartners()), (), (), True),
        Clause(OutcomePattern(Role.NONE, AnyPartners()), (), (), False),
    ), 0.0)
    true_trip = TripType(never_drive, c0.true_type.p_commit)
    bent = replace(s, commuters=(replace(c0, true_type=true_trip), s.commuters[1]))
    assert bent.commuters[0].reported_type == c0.reported_type
    schedule = commit_payments(bent)
    assert not all_none(schedule.allocation)
    with pytest.raises(ExcludedValueError):
        expected_utility(bent, 0, schedule)


def test_commit_entry_raises_when_others_report_excludes_allocation():
    """Scoring an allocation that another commuter's reported valuation rules
    out is an explicit error, not an assert that `python -O` strips."""
    s = by_name("linear-pair-profitable")
    # commuter 1 reports that they never drive
    swapped = (
        Assignment(Role.RIDE, frozenset((1,))),
        Assignment(Role.DRIVE, frozenset((0,))),
    )
    with pytest.raises(ExcludedValueError, match="commuter 1"):
        _commit_charges(s, 0.0, swapped, (0.0, 0.0), 0)
    rep = WelfareReport(swapped, 0.0, (0.0, 0.0))
    with pytest.raises(ExcludedValueError, match="commuter 1"):
        Mechanism.COMMIT_BASED.entry(s, 0.0, rep, 0)


def test_utilities_raise_where_the_true_valuation_excludes():
    """An outcome i's true valuation rules out raises ExcludedValueError, as
    `settled_utility` does there, not a TypeError from EXCLUDED's
    arithmetic, and no true value is kept for it."""
    s = by_name("linear-pair-profitable")
    # commuter 1 never drives
    swapped = (
        Assignment(Role.RIDE, frozenset((1,))),
        Assignment(Role.DRIVE, frozenset((0,))),
    )
    true_values = {}
    with pytest.raises(ExcludedValueError, match="commuter 1"):
        utilities(s, Mechanism.GROVES_ZERO, 1, 0.0, [(swapped, (0.0, 0.0))], true_values)
    assert true_values == {}
    with pytest.raises(ExcludedValueError, match="commuter 1"):
        settled_utility(s, 1, swapped, Unconditional(0.0))
    with pytest.raises(ExcludedValueError, match="commuter 1"):
        settled_utility(s, 1, swapped, Conditional(0.0, 0.0))


def _settled_one_by_one(s, mechanism, i, h, allocation, values):
    """`settled_utility` at `mechanism`'s entry of a report of `allocation`
    with `values`, by `repr`, or "excluded" where it raises
    ExcludedValueError."""
    rep = WelfareReport(allocation, math.fsum(values), tuple(values))
    try:
        return repr(settled_utility(s, i, allocation, mechanism.entry(s, h, rep, i)))
    except ExcludedValueError:
        return "excluded"


def _utilities_match_settled_utility(s):
    """For every mechanism and commuter i of `s`, `utilities` on the rows of
    `s`'s outcome table, at the table's probabilities and, under private
    ones, with p̂_i at 0, 0.5 and 1, settles each row as `settled_utility`
    does at `Mechanism.entry`, by `repr`, and truth's row, at the table's
    probabilities, to i's truthful utility. A row it cannot settle raises
    ExcludedValueError exactly where `settled_utility` does, and keeps no
    true value for it; i's own value is not read. Returns how many rows
    raised."""
    excluded = 0
    for mechanism in Mechanism:
        table = OutcomeTable(s, mechanism.probabilities(s))
        truth = table.truth()
        for i in range(s.n):
            h = table.pivot(i) if mechanism.pivot is PivotRule.CLARKE else 0.0
            u_truth = _settled_one_by_one(s, mechanism, i, h, truth.allocation,
                                          truth.per_commuter)
            points = [table.p[i]] + ([0.0, 0.5, 1.0] if table.private else [])
            true_values = {}
            for p_hat in points:
                outcomes = list(table.values_at(i, substitute(table.p, i, p_hat)))
                expected = [_settled_one_by_one(s, mechanism, i, h, a, v) for a, v in outcomes]
                if p_hat == points[0]:
                    assert expected[[a for a, _ in outcomes].index(truth.allocation)] == u_truth
                for (allocation, values), want in zip(outcomes, expected):
                    kept = dict(true_values)
                    bent = list(values)
                    bent[i] = math.nan
                    try:
                        got = utilities(s, mechanism, i, h, [(allocation, bent)], true_values)
                    except ExcludedValueError:
                        assert want == "excluded", (mechanism, i, p_hat)
                        assert true_values == kept
                        excluded += 1
                        continue
                    assert list(got) == [id(allocation)]
                    assert repr(got[id(allocation)]) == want, (mechanism, i, p_hat)
                if "excluded" not in expected:
                    # all rows at once, in row order, with a fresh memo
                    settled = utilities(s, mechanism, i, h, outcomes, {})
                    assert list(settled) == [id(a) for a, _ in outcomes]
                    assert [repr(u) for u in settled.values()] == expected
    return excluded


def _lax(s, k):
    """`s` with commuter k reporting its valuation without its exclusions,
    so the outcome rows hold those that k's true valuation excludes."""
    trip = s.commuters[k].reported_type
    clauses = tuple(replace(clause, excluded=False) for clause in trip.valuation.clauses)
    return with_report(s, k, TripType(replace(trip.valuation, clauses=clauses), trip.p_commit))


def test_utilities_settle_every_corpus_row_as_settled_utility_does(corpus_entries):
    """`_utilities_match_settled_utility` on every corpus scenario, reports
    truthful, where no row is one a true valuation excludes, and with each
    commuter in turn reporting without exclusions, where some rows are."""
    excluded = 0
    for e in corpus_entries:
        base = with_truthful_reports(e.scenario)
        assert _utilities_match_settled_utility(base) == 0, e.name
        for k in range(base.n):
            excluded += _utilities_match_settled_utility(_lax(base, k))
    assert excluded > 0


@settings(max_examples=25, deadline=None)
@given(s=st.one_of(small_scenarios(), pivot_scenarios(excluding_none=False)),
       lax=st.integers(min_value=0, max_value=4))
def test_utilities_settle_every_generated_row_as_settled_utility_does(s, lax):
    """`_utilities_match_settled_utility` on generated scenarios, with
    commuter `lax`, if there is one, reporting without exclusions."""
    _utilities_match_settled_utility(_lax(s, lax) if lax < s.n else s)


def test_deficit_sign_convention():
    """The pair scenario runs at a subsidy: the driver's receipt exceeds the
    rider's payment whenever both commit."""
    s = by_name("linear-pair-profitable")
    schedule = commit_payments(s)
    driver, rider = schedule.entries
    assert driver.on_commit < 0 <= rider.on_commit
    assert driver.on_commit + rider.on_commit < 0

def _evaluations(run):
    """Run `run()` and return each `allocation.evaluate` call it made as
    (owner, absent commuter, owner's assignment)."""
    calls = []

    def recording(spec, a, p, absent=None):
        calls.append((spec.owner, absent, a[spec.owner]))
        return evaluate(spec, a, p, absent)

    with mock.patch.object(allocation, "evaluate", recording):
        run()
    return calls


def _priced_by_truth(s, p, k):
    """True when a schedule at probabilities `p` takes pivot k from its
    efficient search: k values staying home at the float +0.0, and no other
    report reads k's probability, in a gate or a factor, in a clause that
    is not excluded and whose exact partners, if any, leave k out."""
    home = evaluate(s.commuters[k].reported_type.valuation, all_none_allocation(s.n), p)
    if type(home) is not float or repr(home) != "0.0":
        return False
    for j, c in enumerate(s.commuters):
        if j == k:
            continue
        for clause in c.reported_type.valuation.clauses:
            partners = clause.pattern.partner_constraint
            if clause.excluded or isinstance(partners, ExactPartners) and k in partners.partners:
                continue
            if k in [g.subject for g in clause.gates] + [
                    subject for t in clause.terms for subject, _ in t.factors]:
                return False
    return True


def _exact_partner_reader_pair():
    """A driver and a rider who both value staying home at 0; the rider
    reads the driver's probability only when riding with them, so neither
    pivot searches."""
    def spec(owner, role, terms):
        return ValuationSpec(owner, (Clause(OutcomePattern(role[0], role[1]), terms=terms),
                                     Clause(OutcomePattern(Role.NONE))))

    return Scenario((
        Commuter(0, True, 1, TripType(spec(0, (Role.DRIVE, AnyPartners()), (Monomial(-1.0),)), 0.5)),
        Commuter(1, False, 0, TripType(spec(1, (Role.RIDE, ExactPartners(frozenset({0}))),
                                            (Monomial(3.0, ((0, 1),)),)), 0.75)),
    ), full_compatibility(2))


@given(pivot_scenarios(excluding_none=False))
@example(_exact_partner_reader_pair())
@settings(max_examples=100, deadline=None)
def test_clarke_schedules_evaluate_each_value_once(s):
    """A commit or Clarke schedule evaluates each commuter once per distinct
    assignment, whether with nobody absent or with a pivot k absent whose
    probability their spec does not read, and k's readers (the others
    whose spec reads k's probability) once per distinct assignment with k
    absent, on the assignments k's own search reaches them on. A pivot k
    that the efficient search prices (`_priced_by_truth`) runs no search,
    so nobody is evaluated with that k absent."""
    subjects = [referenced_subjects(c.reported_type.valuation) for c in s.commuters]
    searched = _evaluations(lambda: [efficient_allocation_excluding(s, k) for k in range(s.n)])
    reached = {(j, k, id(a)) for j, k, a in searched if k in subjects[j]}
    for price, p in ((lambda: commit_payments(s), s.reported_p()),
                     (lambda: groves_payments(s, PivotRule.CLARKE), s.reported_p()),
                     (lambda: groves_payments(s, PivotRule.CLARKE, public_p=s.true_p()), s.true_p())):
        priced = {k for k in range(s.n) if _priced_by_truth(s, p, k)}
        evaluations = _evaluations(price)
        assert not [k for _, k, _ in evaluations if k in priced]
        calls = [(j, k if k in subjects[j] else None, id(a)) for j, k, a in evaluations]
        assert max(Counter(calls).values()) == 1
        assert {call for call in calls if call[1] is not None} == {
            call for call in reached if call[1] not in priced}


@pytest.mark.parametrize("family", FAMILIES)
def test_bench_scale_pivots_price_as_their_own_searches(family):
    """On an eight-commuter scenario of the benchmark's pricing shape, each
    pivot a commit or Clarke schedule takes, under reported or public
    probabilities, is the welfare its own search from scratch returns, to
    the bit. Everyone values staying home at 0 and is read only by their
    exact partners, so the efficient search prices every pivot: a schedule
    runs that one search."""
    s = bench_scale_scenario(family)
    real_pivot = allocation.OutcomeTable.pivot
    for price, p in ((lambda: commit_payments(s), None),
                     (lambda: groves_payments(s, PivotRule.CLARKE), None),
                     (lambda: groves_payments(s, PivotRule.CLARKE, public_p=s.true_p()), s.true_p())):
        pivots = {}

        def pivot(table, k):
            pivots[k] = real_pivot(table, k)
            return pivots[k]

        with mock.patch.object(allocation.OutcomeTable, "pivot", pivot), \
                mock.patch.object(allocation, "_argmax", wraps=allocation._argmax) as argmax:
            price()
        assert argmax.call_count == 1
        assert repr(pivots) == repr(
            {k: efficient_allocation(s, p_override=p, absent=k).welfare for k in range(s.n)})


def _commit_entry_evaluating_everyone(s, h, rep, i):
    """The commit entry with every other commuter evaluated at p̂_i = 1 and
    at p̂_i = 0, readers of p̂_i or not."""
    p = s.reported_p()
    p_one, p_zero = substitute(p, i, 1.0), substitute(p, i, 0.0)
    others = [c.reported_type.valuation for j, c in enumerate(s.commuters) if j != i]
    return Conditional(h - math.fsum(evaluate(spec, rep.allocation, p_one) for spec in others),
                       h - math.fsum(evaluate(spec, rep.allocation, p_zero) for spec in others))


@given(pivot_scenarios(excluding_none=False))
@settings(max_examples=30, deadline=None)
def test_commit_entries_evaluate_only_the_readers(s):
    """A commit schedule's entry for commuter i evaluates only i's readers
    (the others whose spec reads p̂_i), once at p̂_i = 1 and once at 0, and
    takes every other value from the efficient report. Its pair is bitwise
    the one that evaluates everyone at both."""
    subjects = [referenced_subjects(c.reported_type.valuation) for c in s.commuters]
    calls = []

    def recording(spec, a, p, absent=None):
        calls.append((spec.owner, p))
        return evaluate(spec, a, p, absent)

    with mock.patch.object(payments, "evaluate", recording):
        schedule = commit_payments(s)
    p = s.reported_p()
    assert calls == [(j, substitute(p, i, x))
                     for i in range(s.n)
                     for j in range(s.n) if j != i and i in subjects[j]
                     for x in (1.0, 0.0)]
    rep = efficient_allocation(s)
    for i, entry in enumerate(schedule.entries):
        h = efficient_allocation_excluding(s, i).welfare
        expected = _commit_entry_evaluating_everyone(s, h, rep, i)
        assert repr(entry) == repr(expected)


_MECHANISMS = [("commit", False), ("groves-clarke", False), ("groves-clarke", True)]


def _reader_scenario(driver, capacity):
    """Commuter 2 drives `capacity` riders with `driver`'s clauses, and 0
    and 1 may ride with them. Riding is worth 1e308 - 1e308 * p1 + 1e308
    to 0, which is 1e308 at p1 = 1 but passed the float range in the
    search without 1, wherever it valued 0 riding."""
    reader = ValuationSpec(0, (
        Clause(OutcomePattern(Role.RIDE),
               terms=(Monomial(1e308), Monomial(-1e308, ((1, 1),)), Monomial(1e308))),
        Clause(OutcomePattern(Role.NONE)),
    ))
    return Scenario((
        Commuter(0, False, 0, TripType(reader, 1.0)),
        Commuter(1, False, 0, TripType(ValuationSpec(1, ()), 1.0)),
        Commuter(2, True, capacity, TripType(ValuationSpec(2, driver), 1.0)),
    ), full_compatibility(3))


def _pay(tmp_path, s, rule, public_p):
    path = tmp_path / "scenario.json"
    path.write_text(serialize_scenario(s))
    return cli.main(["pay", str(path), "--mechanism", rule] + ["--public-p"] * public_p), path


def _past_the_bound(path, *commuters):
    """`pay`'s stderr for a scenario whose listed commuters each have a
    clause 0 whose |coefficient| sum to inf, true and reported alike."""
    lines = [f"  commuter {k} {label} valuation: clause 0: sum of |coefficient| inf "
             "outside [0, 2**100]\n" for k in commuters for label in ("true", "reported")]
    return f"{path}: invalid scenario\n" + "".join(lines)


@pytest.mark.parametrize("rule, public_p", _MECHANISMS)
def test_pay_reports_a_pivot_overflow_where_a_later_commuter_excludes(
        tmp_path, capsys, rule, public_p):
    """2 refuses to drive, so every allocation where 0 rides is excluded,
    but only by 2, after 0 is scored: the search without 1 still valued 0
    riding, and overflowed. Pricing now never starts: `pay` refuses the
    file at load, naming 0's clause past the magnitude bound."""
    s = _reader_scenario((Clause(OutcomePattern(Role.DRIVE), excluded=True),), 1)
    code, path = _pay(tmp_path, s, rule, public_p)
    assert code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _past_the_bound(path, 0))


@pytest.mark.parametrize("rule, public_p", _MECHANISMS)
def test_pay_reports_the_full_search_overflow_before_an_earlier_pivot_one(
        tmp_path, capsys, rule, public_p):
    """Carrying both riders was worth 1e308 + 1e308 to 2, so the full search
    overflowed there, after the search without 1 would have on an earlier
    allocation. Neither search runs now: `pay` refuses the file at load,
    naming both clauses past the magnitude bound in commuter order."""
    driver = (Clause(OutcomePattern(Role.DRIVE, PartnerCountAtLeast(2)),
                     terms=(Monomial(1e308), Monomial(1e308))),
              Clause(OutcomePattern(Role.DRIVE)))
    code, path = _pay(tmp_path, _reader_scenario(driver, 2), rule, public_p)
    assert code == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _past_the_bound(path, 0, 2))


def test_a_pivot_without_an_acceptable_allocation_raises_the_search_error():
    """1 refuses to travel alone, which validation forbids, and can only
    ride with 0: the full search finds 1 riding with 0, the search without
    0 finds nothing acceptable, and pricing raises that search's error."""
    never_alone = ValuationSpec(1, (Clause(OutcomePattern(Role.NONE), excluded=True),))
    s = Scenario((Commuter(0, True, 1, TripType(ValuationSpec(0, ()), 0.5)),
                  Commuter(1, False, 0, TripType(never_alone, 0.5))), full_compatibility(2))
    assert efficient_allocation(s).allocation[1].role is Role.RIDE
    with pytest.raises(RuntimeError) as searched:
        efficient_allocation_excluding(s, 0)
    for price in (commit_payments, lambda s: groves_payments(s, PivotRule.CLARKE),
                  lambda s: groves_payments(s, PivotRule.CLARKE, public_p=s.true_p())):
        with pytest.raises(RuntimeError, match=str(searched.value)):
            price(s)
