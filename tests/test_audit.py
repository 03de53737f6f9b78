"""Misreport grid search: verdicts, witnesses, and witness replay."""

import math
import re
from collections import Counter
from dataclasses import replace

import pytest
from conftest import pivot_scenarios, reference_audit, reference_sweep, small_scenarios
from hypothesis import given, settings
from hypothesis import strategies as st

from rideshare.audit import (
    GAIN_TOLERANCE,
    MAX_P_GRID,
    AuditSizeError,
    DeviationSpace,
    Mechanism,
    Notion,
    Verdict,
    Witness,
    audit_dominant,
    audit_expost,
    deviations_for,
    truthfulness_suite,
)
import rideshare.allocation as allocation_module
import rideshare.audit as audit_module
import rideshare.payments as payments_module
from rideshare.allocation import OutcomeTable, efficient_allocation, efficient_allocation_excluding
from rideshare.corpus import by_name, linear_entries
from rideshare.model import (
    Commuter,
    Role,
    Scenario,
    TripType,
    full_compatibility,
    with_report,
    with_truthful_reports,
)
from rideshare.payments import (
    ExcludedValueError,
    PivotRule,
    commit_payments,
    expected_utility,
    groves_payments,
    settled_utility,
)
from rideshare.valuation import (
    Clause,
    GateDirection,
    Monomial,
    OutcomePattern,
    ThresholdGate,
    ValuationSpec,
    is_linear_in_commitment,
    referenced_subjects,
)


def replay_schedule(s, mechanism):
    if mechanism is Mechanism.COMMIT_BASED:
        return commit_payments(s)
    return groves_payments(s, mechanism.pivot, public_p=mechanism.probabilities(s))


def replay_witness(s, report):
    """Recompute both sides of a witness from scratch through the public
    payment API; returns (truthful_utility, deviated_utility)."""
    w = report.witness
    bent = with_truthful_reports(s)
    for j, trip in w.opponent_reports:
        bent = with_report(bent, j, trip)
    truthful = expected_utility(bent, w.commuter, replay_schedule(bent, report.mechanism))
    deviated_s = with_report(bent, w.commuter, w.report)
    deviated = expected_utility(
        deviated_s, w.commuter, replay_schedule(deviated_s, report.mechanism)
    )
    return truthful, deviated


def test_threshold_gate_commit_violated():
    """The worked manipulation: misreporting p0 = 0.6 clears the gate and
    nets (alpha + beta) * p0 * p1 = 1.2 over a truthful utility of zero."""
    s = by_name("threshold-gate-pair")
    report = audit_expost(s, Mechanism.COMMIT_BASED)
    assert report.verdict is Verdict.VIOLATED
    w = report.witness
    assert w.commuter == 0
    assert w.report.p_commit == pytest.approx(0.6, abs=1e-12)
    assert w.truthful_utility == pytest.approx(0.0, abs=1e-12)
    assert w.deviated_utility == pytest.approx(1.2, abs=1e-12)
    assert w.gain == pytest.approx(1.2, abs=1e-12)


def test_linear_pair_commit_clean():
    report = audit_expost(by_name("linear-pair-profitable"), Mechanism.COMMIT_BASED)
    assert report.verdict is Verdict.NO_VIOLATION_FOUND
    assert report.witness is None
    assert report.excluded_deviations == 0


def test_private_clarke_violated_at_certainty():
    """Overstating commitment to p = 1 inflates the subsidy by exactly 2.0."""
    report = audit_expost(by_name("linear-pair-profitable"), Mechanism.GROVES_CLARKE)
    assert report.verdict is Verdict.VIOLATED
    w = report.witness
    assert w.commuter == 0
    assert w.report.p_commit == 1.0
    assert w.gain == pytest.approx(2.0, abs=1e-12)


def test_private_zero_pivot_equally_manipulable():
    """The pivot term cancels out of the deviation gain, so the zero pivot
    shares the Clarke verdict."""
    report = audit_expost(by_name("linear-pair-profitable"), Mechanism.GROVES_ZERO)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness.gain == pytest.approx(2.0, abs=1e-12)


def test_public_probabilities_remove_the_lever():
    s = by_name("linear-pair-profitable")
    assert (
        audit_expost(s, Mechanism.GROVES_CLARKE_PUBLIC_P).verdict
        is Verdict.NO_VIOLATION_FOUND
    )
    report = audit_dominant(
        s,
        Mechanism.GROVES_CLARKE_PUBLIC_P,
        DeviationSpace(p_grid=21),
        DeviationSpace(p_grid=21),
    )
    assert report.verdict is Verdict.NO_VIOLATION_FOUND
    assert report.opponent_space is not None


def test_public_zero_pivot_corpus_expost_clean(corpus_entries):
    """With public probabilities the zero pivot leaves no lever either,
    whatever the valuation's shape."""
    for e in corpus_entries:
        report = audit_expost(e.scenario, Mechanism.GROVES_ZERO_PUBLIC_P)
        assert report.verdict is Verdict.NO_VIOLATION_FOUND, e.name


def test_quadratic_exponent_commit_violated():
    report = audit_expost(by_name("quadratic-reliability-pair"), Mechanism.COMMIT_BASED)
    assert report.verdict is Verdict.VIOLATED
    assert report.witness.gain == pytest.approx(0.4, abs=1e-12)


def test_quadratic_pure_probability_witness():
    """Restricting deviations to probability-only misreports still finds the
    violation: claiming p0 = 0.55 tips 4 * p0^2 * 0.8 past the drive cost."""
    space = DeviationSpace(p_grid=21, coefficient_scales=(1.0,))
    report = audit_expost(by_name("quadratic-reliability-pair"), Mechanism.COMMIT_BASED, space)
    assert report.verdict is Verdict.VIOLATED
    w = report.witness
    assert w.report.p_commit == pytest.approx(0.55, abs=1e-12)
    assert w.gain == pytest.approx(0.4, abs=1e-12)


def test_linear_corpus_commit_expost_clean():
    for e in linear_entries():
        report = audit_expost(e.scenario, Mechanism.COMMIT_BASED)
        assert report.verdict is Verdict.NO_VIOLATION_FOUND, e.name
        assert report.excluded_deviations == 0, e.name


def test_commit_not_dominant_strategy_proof():
    """Ex-post truthfulness does not survive opponent misreports: an inflated
    drive-cost report turns the share sour, and the rider escapes by
    reporting zero commitment."""
    s = by_name("linear-pair-profitable")
    report = audit_dominant(
        s, Mechanism.COMMIT_BASED, opponent_space=DeviationSpace(p_grid=11)
    )
    assert report.verdict is Verdict.VIOLATED
    w = report.witness
    assert w.opponent_reports, "dominant witness must pin the opponent reports"
    truthful, deviated = replay_witness(s, report)
    assert truthful == pytest.approx(w.truthful_utility, abs=1e-12)
    assert deviated == pytest.approx(w.deviated_utility, abs=1e-12)
    assert deviated - truthful == pytest.approx(w.gain, abs=1e-12)


def test_constant_values_clarke_dominant_clean():
    """Commitment-free valuations collapse to classic VCG: the dominant
    sweep finds nothing whether probabilities are private or public."""
    coarse = DeviationSpace(p_grid=3, coefficient_scales=(0.0, 1.0, 2.0))
    for mechanism in (Mechanism.GROVES_CLARKE, Mechanism.GROVES_CLARKE_PUBLIC_P):
        report = audit_dominant(
            by_name("linear-trio-constants"), mechanism, coarse, coarse
        )
        assert report.verdict is Verdict.NO_VIOLATION_FOUND, mechanism


def test_every_violated_witness_replays(corpus_entries):
    """Each violation the auditor reports must replay through the public
    payment API to the same two utilities."""
    seen = 0
    for e in corpus_entries:
        for mechanism in Mechanism:
            report = audit_expost(e.scenario, mechanism)
            if report.verdict is not Verdict.VIOLATED:
                continue
            seen += 1
            truthful, deviated = replay_witness(e.scenario, report)
            assert truthful == pytest.approx(report.witness.truthful_utility, abs=1e-12)
            assert deviated == pytest.approx(report.witness.deviated_utility, abs=1e-12)
            assert deviated > truthful + 1e-9
    assert seen >= 3


def test_expost_gain_matches_a_from_scratch_replay(corpus_entries):
    """The ex-post audit's best gain (0 when clean) is the largest gain any
    deviation in its grid replays to through the public payment API, and the
    deviations it excludes are those whose replay raises. Its witness is the
    first deviation of maximal gain, lowest commuter first, with the same
    floats. Sharing value tables or settlements across deviations that should
    not share them changes a gain or moves the witness."""
    for e in corpus_entries:
        if e.scenario.n > 4:
            continue
        s = with_truthful_reports(e.scenario)
        gated = any(cl.gates for c in s.commuters for cl in c.true_type.valuation.clauses)
        space = DeviationSpace(p_grid=5, gate_toggles=gated)
        for mechanism in Mechanism:
            report = audit_expost(s, mechanism, space)
            best = 0.0
            first = None
            excluded = 0
            for i, c in enumerate(s.commuters):
                truthful = expected_utility(s, i, replay_schedule(s, mechanism))
                for trip in deviations_for(c.true_type, space):
                    bent = with_report(s, i, trip)
                    try:
                        u = expected_utility(bent, i, replay_schedule(bent, mechanism))
                    except ExcludedValueError:
                        excluded += 1
                        continue
                    if u - truthful > best:
                        best = u - truthful
                        first = Witness(i, trip, truthful, u, u - truthful)
            gain = report.witness.gain if report.witness else 0.0
            assert gain == best, (e.name, mechanism)
            assert report.excluded_deviations == excluded, (e.name, mechanism)
            expected = first if best > GAIN_TOLERANCE else None
            assert report.witness == expected, (e.name, mechanism)


@settings(max_examples=25, deadline=None)
@given(
    s=small_scenarios().filter(lambda s: s.n <= 3),
    dominant_mechanism=st.sampled_from(Mechanism),
)
def test_sweep_matches_the_per_deviation_reference(s, dominant_mechanism):
    """Every report field equals a replay that rebuilds the scenario for
    each deviation and shares nothing between deviations, for both notions.
    Under public probabilities the replayed utility of a valuation is the
    same at every reported probability, which is what lets the sweep score
    such deviations once per valuation."""
    space = DeviationSpace(p_grid=3)
    for mechanism in Mechanism:
        assert audit_expost(s, mechanism, space) == reference_audit(s, mechanism, space)
    opponents = DeviationSpace(p_grid=2, coefficient_scales=(1.0,))
    assert audit_dominant(s, dominant_mechanism, space, opponents) == reference_audit(
        s, dominant_mechanism, space, opponents
    )
    base = with_truthful_reports(s)
    for mechanism in (m for m in Mechanism if m.probabilities(base) is not None):
        for i, c in enumerate(base.commuters):
            by_spec = {}
            for trip in deviations_for(c.true_type, space):
                bent = with_report(base, i, trip)
                try:
                    u = expected_utility(bent, i, replay_schedule(bent, mechanism))
                except ExcludedValueError:
                    u = None
                assert by_spec.setdefault(trip.valuation, u) == u, (mechanism, i, trip)


def _certified_commuters(s, mechanism, space):
    """The commuters whose ex-post sweep the certificate clears: those
    whose deviation grid the audit never builds."""
    built = []
    real = audit_module.deviations_for

    def grid(trip, space):
        built.append(trip)
        return real(trip, space)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audit_module, "deviations_for", grid)
        audit_expost(s, mechanism, space)
    return [i for i, c in enumerate(s.commuters) if c.true_type not in built]


@settings(max_examples=25, deadline=None)
@given(
    s_space=st.one_of(
        st.tuples(small_scenarios(), st.just(DeviationSpace(p_grid=3))),
        # their many terms would make the coefficient grid large
        st.tuples(pivot_scenarios(excluding_none=False).filter(lambda s: s.n <= 4),
                  st.just(DeviationSpace(p_grid=3, coefficient_scales=(1.0,), gate_toggles=True))),
    ),
)
def test_a_certified_sweep_has_no_gaining_deviation(s_space):
    """Where the certificate clears commuter i, rebuilding and pricing
    each of i's deviations afresh finds none that gains."""
    s, space = s_space
    base = with_truthful_reports(s)
    for mechanism in Mechanism:
        for i in _certified_commuters(base, mechanism, space):
            devs = deviations_for(base.commuters[i].true_type, space)
            assert reference_sweep(base, i, mechanism, devs)[0] is None, (mechanism, i)


@settings(max_examples=40, deadline=None)
@given(small_scenarios())
def test_commit_payments_leave_no_outcome_worth_misreporting_for(s):
    """The paper's theorem: under commit payments with valuations linear in
    each commitment probability, no outcome any report can win settles
    above truth by more than the gain tolerance."""
    base = with_truthful_reports(s)
    assert all(is_linear_in_commitment(c.true_type.valuation) for c in base.commuters)
    mechanism = Mechanism.COMMIT_BASED
    truth = efficient_allocation(base)
    for i in range(base.n):
        h = efficient_allocation_excluding(base, i).welfare
        u_truth = settled_utility(base, i, truth.allocation, mechanism.entry(base, h, truth, i))
        outcomes = OutcomeTable(base, None).outcomes(i)
        assert any(rep.allocation is truth.allocation for rep in outcomes)
        best = max(settled_utility(base, i, rep.allocation, mechanism.entry(base, h, rep, i))
                   for rep in outcomes)
        assert best - u_truth <= GAIN_TOLERANCE, i


def _flat(owner, **values):
    return ValuationSpec(owner, tuple(
        Clause(OutcomePattern(Role[role.upper()]), terms=(Monomial(v),))
        for role, v in values.items()))


# (0's drive value, 1's ride value, the deviation space, its scale of 0's
# drive value that overflows): 1's value is past the certificate's bound;
# then only 0's rescaled value is, at 2**24 times 2**1000 - 2**947, which
# is the largest float.
_SCORING_OVERFLOWS = [
    (0.4e308, 1e308, DeviationSpace(), 2.0),
    (2.0**1000 - 2.0**947, 1e300, DeviationSpace(p_grid=2, coefficient_scales=(1.0, 2.0**24)),
     2.0**24),
]


@pytest.mark.parametrize("drive, ride, space, scale", _SCORING_OVERFLOWS,
                         ids=["others-past-the-bound", "rescaled-deviator-past-the-bound"])
def test_the_certificate_leaves_a_scoring_overflow_to_the_grid(drive, ride, space, scale):
    """0 drives 1 at these values, so truth, its pivots and its settlement
    are finite, and no outcome pays 0 more than truth. But 0's deviation
    that rescales the drive value sums past the float range inside the
    argmax, and the audit still raises that, as scoring each deviation
    afresh does: such values are past the bound under which the
    certificate may skip the grid."""
    s = Scenario((
        Commuter(0, True, 1, TripType(_flat(0, drive=drive, none=0.0), 0.5)),
        Commuter(1, False, 0, TripType(_flat(1, ride=ride, none=0.0), 0.5)),
    ), full_compatibility(2))
    rescaled = TripType(_flat(0, drive=scale * drive, none=0.0), 0.0)
    assert rescaled in deviations_for(s.commuters[0].true_type, space)
    with pytest.raises(OverflowError):
        efficient_allocation(with_report(s, 0, rescaled))
    for mechanism in Mechanism:
        truth = efficient_allocation(s, p_override=mechanism.probabilities(s))
        h = efficient_allocation_excluding(s, 0).welfare
        u_truth = settled_utility(s, 0, truth.allocation, mechanism.entry(s, h, truth, 0))
        assert u_truth == drive + ride
        with pytest.raises(OverflowError) as expected:
            reference_audit(s, mechanism, space)
        with pytest.raises(OverflowError, match=re.escape(str(expected.value))):
            audit_expost(s, mechanism, space)


@settings(max_examples=25, deadline=None)
@given(small_scenarios())
def test_expost_audit_matches_the_reference_under_every_mechanism(s):
    """One outcome table and memoised settlements per ex-post audit change
    no report field, to the bit: each equals the replay that prices every
    deviation afresh, from its own searches."""
    space = DeviationSpace(p_grid=3, coefficient_scales=(0.0, 1.0, 2.0))
    for mechanism in Mechanism:
        assert repr(audit_expost(s, mechanism, space)) == repr(reference_audit(s, mechanism, space))


def test_an_expost_audit_raises_what_the_searches_one_by_one_raise():
    """0 drives 1 at a value past the float range, and 1 excludes
    travelling alone. The searches one at a time first find no acceptable
    allocation without 0 under the Clarke pivot, and overflow under the
    zero pivot. The audit raises what they raise first."""
    drive = Clause(OutcomePattern(Role.DRIVE), terms=(Monomial(1e308), Monomial(1e308)))
    ride = Clause(OutcomePattern(Role.RIDE), terms=(Monomial(1.0),))
    alone = Clause(OutcomePattern(Role.NONE), excluded=True)
    s = Scenario((
        Commuter(0, True, 1, TripType(ValuationSpec(0, (drive,)), 0.5)),
        Commuter(1, False, 0, TripType(ValuationSpec(1, (ride, alone)), 0.5)),
    ), full_compatibility(2))
    raised = set()
    for mechanism in Mechanism:
        with pytest.raises(Exception) as expected:
            reference_audit(s, mechanism, DeviationSpace())
        with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
            audit_expost(s, mechanism, DeviationSpace())
        raised.add(type(expected.value))
    assert raised == {OverflowError, RuntimeError}


def test_finer_grid_never_flips_to_clean(corpus_entries):
    """Refining 21 to 41 probability points keeps every violated verdict
    violated, with no smaller maximum gain."""
    for e in corpus_entries:
        coarse = audit_expost(e.scenario, Mechanism.COMMIT_BASED, DeviationSpace(p_grid=21))
        if coarse.verdict is not Verdict.VIOLATED:
            continue
        fine = audit_expost(e.scenario, Mechanism.COMMIT_BASED, DeviationSpace(p_grid=41))
        assert fine.verdict is Verdict.VIOLATED, e.name
        assert fine.witness.gain >= coarse.witness.gain - 1e-12, e.name


def test_deviation_space_rejects_non_finite_scales():
    with pytest.raises(ValueError):
        DeviationSpace(coefficient_scales=(1.0, float("inf")))


def test_gate_toggle_deviations_keep_violation():
    s = by_name("threshold-gate-pair")
    report = audit_expost(
        s, Mechanism.COMMIT_BASED, DeviationSpace(p_grid=21, gate_toggles=True)
    )
    assert report.verdict is Verdict.VIOLATED
    assert report.witness.gain >= 1.2 - 1e-12


def test_dominant_covers_expost(corpus_entries):
    """The dominant sweep starts from the truthful opponent profile, so it
    finds at least the ex-post gain; on a tie it keeps the ex-post witness,
    with every opponent pinned at their true type."""
    from dataclasses import replace

    space = DeviationSpace(p_grid=5, coefficient_scales=(1.0,))
    opponent_space = DeviationSpace(p_grid=3, coefficient_scales=(1.0,))
    for e in corpus_entries:
        if e.scenario.n > 4:
            continue
        for mechanism in Mechanism:
            expost = audit_expost(e.scenario, mechanism, space)
            dominant = audit_dominant(e.scenario, mechanism, space, opponent_space)
            gain = expost.witness.gain if expost.witness else 0.0
            dominant_gain = dominant.witness.gain if dominant.witness else 0.0
            assert dominant_gain >= gain, (e.name, mechanism)
            if expost.verdict is Verdict.VIOLATED:
                assert dominant.verdict is Verdict.VIOLATED, (e.name, mechanism)
            if gain > 0.0 and dominant_gain == gain:
                w = expost.witness
                truthful = tuple(
                    (j, c.true_type) for j, c in enumerate(e.scenario.commuters) if j != w.commuter
                )
                assert dominant.witness == replace(w, opponent_reports=truthful), (e.name, mechanism)


def test_dominant_sweep_refuses_large_scenarios():
    base = by_name("linear-quad-competition")
    from dataclasses import replace

    extra = replace(base.commuters[0], id=4)
    five = replace(
        base,
        commuters=base.commuters + (extra,),
        compatibility=full_compatibility(5),
    )
    with pytest.raises(AuditSizeError):
        audit_dominant(five, Mechanism.COMMIT_BASED)
    # the ex-post sweep has no such cap
    assert audit_expost(five, Mechanism.COMMIT_BASED) is not None


def test_dominant_sweep_refuses_a_scoring_count_over_budget(monkeypatch):
    """Unit scales leave each commuter of the pair one deviation per
    probability point. 101 points against 9,900-point opponent grids (plus
    the true type) score 2 × 101 × 9,901 = MAX_DOMINANT_SCORINGS + 2
    deviations and are refused before any is scored; 100 points against
    9,999 score exactly the budget and reach the sweep."""
    assert audit_module.MAX_DOMINANT_SCORINGS == 2_000_000

    def refuse(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(audit_module, "_sweep", refuse)
    s = by_name("linear-pair-profitable")
    unit = (1.0,)
    with pytest.raises(AuditSizeError, match="would score 2000002 deviations"):
        audit_dominant(s, Mechanism.COMMIT_BASED, DeviationSpace(101, unit),
                       DeviationSpace(9900, unit))
    with pytest.raises(AssertionError, match="the sweep started"):
        audit_dominant(s, Mechanism.COMMIT_BASED, DeviationSpace(100, unit),
                       DeviationSpace(9999, unit))


def test_deviation_space_shape():
    s = by_name("linear-pair-profitable")
    trip = s.commuters[0].reported_type
    space = DeviationSpace(p_grid=5, coefficient_scales=(0.5, 1.0))
    devs = deviations_for(trip, space)
    # 5 probability points times 2 scale choices for the single monomial
    assert len(devs) == 10
    p_values = [d.p_commit for d in devs]
    assert p_values == sorted(p_values), "probability must be the outer loop"
    # probability, then scale combination (truthful first), then gate
    # variant (the unedited spec before its gate edits)
    rider = by_name("threshold-gate-pair").commuters[1].reported_type
    gated = DeviationSpace(p_grid=2, coefficient_scales=(0.5, 1.0), gate_toggles=True)
    gates = rider.valuation.clauses[0].gates
    added = ThresholdGate(0, 0.5, GateDirection.AT_LEAST)
    assert [
        (d.p_commit, d.valuation.clauses[0].terms[0].coefficient, d.valuation.clauses[0].gates)
        for d in deviations_for(rider, gated)
    ] == [
        (p, coefficient, variant)
        for p in (0.0, 1.0)
        for coefficient in (5.0, 2.5)
        for variant in (gates, (), gates + (added,))
    ]
    with pytest.raises(ValueError):
        DeviationSpace(p_grid=1)
    with pytest.raises(ValueError, match="at most"):
        DeviationSpace(p_grid=MAX_P_GRID + 1)
    for bad in (3.0, True, "21", None):
        with pytest.raises(ValueError, match=f"must be an int, got {type(bad).__name__}"):
            DeviationSpace(p_grid=bad)


def test_deviations_keep_every_clause_pattern_and_exclusion(corpus_entries):
    """Every grid deviation, under every rescaling and gate edit, has the
    true spec's clause patterns and excluded flags in the same order.
    Exclusion reads nothing else, so the argmax never hands a deviator an
    outcome they truly exclude, which is why the audit has no exclusion
    path and reports `excluded_deviations` as 0."""
    space = DeviationSpace(p_grid=2, gate_toggles=True)
    for e in corpus_entries:
        for c in e.scenario.commuters:
            truth = [(cl.pattern, cl.excluded) for cl in c.true_type.valuation.clauses]
            for d in deviations_for(c.true_type, space):
                shape = [(cl.pattern, cl.excluded) for cl in d.valuation.clauses]
                assert shape == truth, (e.name, c.id)


def test_deviations_skip_rescalings_that_overflow():
    """A scale that pushes a coefficient past the float range is skipped;
    every remaining coefficient is finite and the order is unchanged."""
    rider = by_name("linear-pair-profitable").commuters[1].true_type
    clause = rider.valuation.clauses[0]
    big_clause = replace(clause, terms=(replace(clause.terms[0], coefficient=5e307),))
    big_spec = replace(rider.valuation, clauses=(big_clause,) + rider.valuation.clauses[1:])
    devs = deviations_for(replace(rider, valuation=big_spec), DeviationSpace(p_grid=2))
    coefficients = [t.coefficient for d in devs for c in d.valuation.clauses for t in c.terms]
    assert all(math.isfinite(x) for x in coefficients)
    # the default scales are 0, 0.5, 1, 2 and 10; only 10 overflows
    assert [(d.p_commit, d.valuation.clauses[0].terms[0].coefficient) for d in devs] == [
        (p, scale * 5e307) for p in (0.0, 1.0) for scale in (1.0, 0.0, 0.5, 2.0)
    ]


def test_suite_reproduces_expected_verdicts():
    entries = truthfulness_suite()
    assert len(entries) == 7
    assert len({e.name for e in entries}) == 7
    for e in entries:
        report = audit_expost(e.scenario, e.mechanism)
        assert report.verdict is e.expected, e.name
        assert report.mechanism is e.mechanism
        assert report.notion is Notion.EX_POST


@pytest.mark.parametrize("name", ["linear-pair-own-terms", "linear-trio-two-drivers",
                                  "linear-trio-constants", "threshold-gate-pair",
                                  "quadratic-reliability-pair"])
@pytest.mark.parametrize("mechanism", Mechanism, ids=lambda m: m.value)
def test_sweep_passes_scorings_and_evaluations(monkeypatch, mechanism, name):
    """An ex-post audit builds one outcome table and prices the truthful
    profile there: it searches the efficient report once and, under the
    Clarke pivot, each pivot once, and calls no search of `audit`'s own.
    Pricing evaluates each commuter at most once per distinct assignment,
    and a reader of pivot k's once per assignment with k absent. The
    outcome pass for all commuters' certificates then evaluates nothing:
    the efficient search already read every value it reads. Each sweep
    settles through one memo, so it evaluates a spec at most once per
    (probability vector, assignment).

    A sweep whose certificate holds finds nothing, builds no grid and
    makes no frame pass or scoring. Under Groves with private
    probabilities, a sweep with a reader reads no outcomes; every other
    sweep reads them once.

    Any other sweep of commuter i builds i's grid once and passes over the
    feasible set once per frame whose readers (the others whose spec reads
    p̂_i) changed: once, unless probabilities are private and someone reads
    p̂_i, then once per p̂_i point. Each distinct (frame, reported
    valuation) is scored once, by the frame's scorer, never by a full-set
    argmax. Within the frames, a non-reader is evaluated at most once per
    distinct assignment per audit, and not at all where pricing already
    did, a reader once per assignment per p̂_i, and i once per
    assignment per (p̂_i, valuation). Every sweep of the constant trio has
    no reader, every sweep of the two-driver trio has one, and the pair
    has one of each. Commit payments certify every sweep of the linear
    scenarios, and not the deviator's sweep in the gate and quadratic
    pairs."""
    s = by_name(name)
    specs = [c.true_type.valuation for c in s.commuters]
    sweeps = []
    tables = 0
    searches = Counter()
    pricing = Counter()
    outcome_evaluations = Counter()
    where = None

    def track(fn, place):
        def tracked(*args):
            nonlocal where
            where = place
            try:
                return fn(*args)
            finally:
                where = None
        return tracked

    def refuse(*args, **kwargs):
        raise AssertionError("the audit ran a search of its own")

    real_sweep = audit_module._sweep

    def sweep(table, i, *args):
        readers = {j for j, spec in enumerate(specs) if j != i and i in referenced_subjects(spec)}
        record = {"i": i, "readers": readers, "passes": 0, "scorings": [], "grids": 0,
                  "outcome_reads": 0, "evaluations": Counter(), "settlements": Counter()}
        sweeps.append(record)
        record["found"] = real_sweep(table, i, *args)
        return record["found"]

    real_deviations_for = audit_module.deviations_for

    def grid(*args):
        sweeps[-1]["grids"] += 1
        return real_deviations_for(*args)

    real_outcomes = allocation_module.OutcomeTable.outcomes

    def outcomes(table, i):
        sweeps[-1]["outcome_reads"] += 1
        return track(real_outcomes, "outcomes")(table, i)

    real_frame_scorer = allocation_module._frame_scorer

    def frame_scorer(*args):
        record = sweeps[-1]
        record["passes"] += 1
        score = track(real_frame_scorer, "frame")(*args)
        p = args[3]

        def scoring(spec):
            record["scorings"].append((p[record["i"]], id(spec)))
            return track(score, "frame")(spec)
        return scoring

    real_argmax = allocation_module._argmax

    def argmax(*args):
        assert where is None, "a frame ran the full-set argmax"
        searches[args[3]] += 1
        return track(real_argmax, "pricing")(*args)

    real_evaluate = allocation_module.evaluate

    def evaluate(spec, allocation, p, absent=None):
        if where is not None:
            record = sweeps[-1]
            i, j = record["i"], spec.owner
            assignment = id(allocation.assignments[j])
            if where == "pricing":
                shared = absent is None or absent not in referenced_subjects(spec)
                pricing[j, None if shared else absent, assignment] += 1
            elif where == "outcomes":
                outcome_evaluations[j, assignment] += 1
            else:
                if j == i:
                    frame = (p[i], id(spec))
                else:
                    frame = p[i] if j in record["readers"] else None
                record["evaluations"][j, frame, assignment] += 1
        return real_evaluate(spec, allocation, p, absent)

    real_settle_evaluate = payments_module.evaluate

    def settle_evaluate(spec, allocation, p, absent=None):
        key = (spec.owner, id(spec), tuple(p), id(allocation.assignments[spec.owner]))
        sweeps[-1]["settlements"][key] += 1
        return real_settle_evaluate(spec, allocation, p, absent)

    class Table(allocation_module.OutcomeTable):
        def __init__(self, *args):
            nonlocal tables
            tables += 1
            super().__init__(*args)

    monkeypatch.setattr(audit_module, "_sweep", sweep)
    monkeypatch.setattr(audit_module, "deviations_for", grid)
    monkeypatch.setattr(audit_module, "OutcomeTable", Table)
    monkeypatch.setattr(audit_module, "efficient_allocation", refuse)
    monkeypatch.setattr(audit_module, "efficient_allocation_excluding", refuse)
    monkeypatch.setattr(allocation_module.OutcomeTable, "outcomes", outcomes)
    monkeypatch.setattr(allocation_module, "_frame_scorer", frame_scorer)
    monkeypatch.setattr(allocation_module, "_argmax", argmax)
    monkeypatch.setattr(allocation_module, "evaluate", evaluate)
    monkeypatch.setattr(payments_module, "evaluate", settle_evaluate)
    space = DeviationSpace()
    audit_expost(s, mechanism, space)
    private = mechanism.probabilities(s) is None
    clarke = mechanism.pivot is PivotRule.CLARKE
    assert tables == 1
    assert searches == Counter([None, *range(s.n)] if clarke else [None])
    assert set(pricing.values()) == {1}
    assert [r["i"] for r in sweeps] == list(range(s.n))
    assert not outcome_evaluations
    frame_shared = Counter()
    certified = []
    for record, c in zip(sweeps, s.commuters):
        assert record["settlements"]
        assert set(record["settlements"].values()) == {1}
        if private and record["readers"] and mechanism is not Mechanism.COMMIT_BASED:
            assert record["outcome_reads"] == 0
        else:
            assert record["outcome_reads"] == 1
        if not record["grids"]:
            certified.append(record["i"])
            assert record["found"] is None
            assert record["passes"] == 0
            assert record["scorings"] == []
            continue
        assert record["grids"] == 1
        devs = deviations_for(c.true_type, space)
        frames = len({t.p_commit for t in devs}) if private and record["readers"] else 1
        assert record["passes"] == frames
        scorings = record["scorings"]
        assert len(set(scorings)) == len(scorings)
        if private:
            assert len(scorings) == len(devs)
        else:
            assert len(scorings) == len({id(t.valuation) for t in devs}) < len(devs)
        assert record["evaluations"]
        assert set(record["evaluations"].values()) == {1}
        frame_shared.update((j, a) for j, frame, a in record["evaluations"] if frame is None)
    assert not frame_shared or set(frame_shared.values()) == {1}
    assert not set(frame_shared) & {(j, a) for j, k, a in pricing if k is None}
    if mechanism is Mechanism.COMMIT_BASED:
        assert (certified == list(range(s.n))) is name.startswith("linear-")
