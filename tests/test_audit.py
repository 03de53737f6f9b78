"""Misreport grid search: verdicts, witnesses, and witness replay."""

import itertools
import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

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
import rideshare.valuation as valuation_module
from rideshare.allocation import (
    OutcomeTable,
    WelfareReport,
    efficient_allocation,
    efficient_allocation_excluding,
)
from rideshare.corpus import by_name, linear_entries
from rideshare.model import (
    Commuter,
    Role,
    Scenario,
    TripType,
    full_compatibility,
    validate_scenario,
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
    utilities,
)
from rideshare.valuation import (
    MAX_MAGNITUDE,
    MAX_SCALE,
    Clause,
    ExactPartners,
    GateDirection,
    Monomial,
    OutcomePattern,
    ThresholdGate,
    ValuationSpec,
    is_linear_in_commitment,
    referenced_subjects,
    spec_violations,
    substitute,
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
        space = DeviationSpace(p_grid=5)
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


_PRIVATE_GROVES = (Mechanism.GROVES_ZERO, Mechanism.GROVES_CLARKE)


@settings(max_examples=15, deadline=None)
@given(s=small_scenarios().filter(lambda s: s.n <= 3))
def test_bound_first_sweeps_match_the_reference_at_the_default_grid(s):
    """At the default 21 probability points, enough frames for their
    bounds to order them, every ex-post audit, whose later sweeps carry
    the best gain so far as their floor, equals the replay that prices
    each deviation afresh."""
    space = DeviationSpace()
    assert space.p_grid == 21
    for mechanism in Mechanism:
        assert repr(audit_expost(s, mechanism, space)) == repr(reference_audit(s, mechanism, space))


def _carrier(to_1, to_2):
    """Driver 0's valuation: `to_1` for carrying rider 1, `to_2` for rider 2."""
    def drive(partner, value):
        return Clause(OutcomePattern(Role.DRIVE, ExactPartners(frozenset({partner}))),
                      terms=(Monomial(value),))
    return ValuationSpec(0, (drive(1, to_1), drive(2, to_2),
                             Clause(OutcomePattern(Role.RIDE), excluded=True),
                             Clause(OutcomePattern(Role.NONE))))


def _two_riders():
    """Driver 0, who truly pays 2 to carry either rider, has one seat.
    Rider 1 values the ride at 5 once p̂_0 >= 0.6, rider 2 at 6 p̂_0, so
    both read p̂_0. At p_0 = 0.5, truth carries rider 2 and leaves 0 a
    Groves utility of 1 (less the pivot term). Against truth, carrying
    rider 1 gains 2 at every p̂_0 >= 0.6, and carrying rider 2 gains
    6 p̂_0 - 3: 2.4 at p̂_0 = 0.9 and 3 at p̂_0 = 1. The misreports in
    `_BOUND_FIRST_SWEEPS` steer the choice with 10 and -10."""
    def rider(j, ride):
        return ValuationSpec(j, (ride, Clause(OutcomePattern(Role.DRIVE), excluded=True),
                                 Clause(OutcomePattern(Role.NONE))))
    gated = Clause(OutcomePattern(Role.RIDE), (ThresholdGate(0, 0.6, GateDirection.AT_LEAST),),
                   (Monomial(5.0),))
    linear = Clause(OutcomePattern(Role.RIDE), terms=(Monomial(6.0, ((0, 1),)),))
    return Scenario((Commuter(0, True, 1, TripType(_carrier(-2.0, -2.0), 0.5)),
                     Commuter(1, False, 0, TripType(rider(1, gated), 0.8)),
                     Commuter(2, False, 0, TripType(rider(2, linear), 0.8))),
                    full_compatibility(3))


# Hand-built grids of driver 0 in `_two_riders`, two frames each, and the
# p̂_0 of each scoring in the order the sweep makes them. The later frame,
# p̂_0 = 1, has the highest bound, 3, and is scored first, but its one
# deviation carries rider 1 and gains only 2. Then the earlier frame's
# deviation, scored next, must take the witness: carrying rider 2 at 0.9
# gains 2.4, more than 2; carrying rider 1 at 0.75 gains 2 again, a tie
# that the earlier deviation wins.
_BOUND_FIRST_SWEEPS = {
    "top-frame-short-of-its-bound": ([TripType(_carrier(-10.0, 10.0), 0.9),
                                      TripType(_carrier(10.0, -10.0), 1.0)], [1.0, 0.9]),
    "tie-across-frames": ([TripType(_carrier(10.0, -10.0), 0.75),
                           TripType(_carrier(10.0, -10.0), 1.0)], [1.0, 0.75]),
}


@pytest.mark.parametrize("mechanism", _PRIVATE_GROVES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", list(_BOUND_FIRST_SWEEPS))
def test_a_bound_first_sweep_keeps_the_first_maximal_gain(monkeypatch, name, mechanism):
    """A sweep that scores its highest-bound frame first, and finds it
    short of its bound, goes on to the earlier frame and returns its
    deviation, as the replay that prices each deviation afresh does."""
    s = _two_riders()
    assert validate_scenario(s) == []
    devs, order = _BOUND_FIRST_SWEEPS[name]
    scored = []
    real_scorer = allocation_module.OutcomeTable.scorer

    def scorer(table, i, p):
        score = real_scorer(table, i, p)

        def scoring(spec, q):
            scored.append(q[i])
            return score(spec, q)
        return scoring

    monkeypatch.setattr(allocation_module.OutcomeTable, "scorer", scorer)
    table = OutcomeTable(s, None)
    assert table.readers(0) == (1, 2)
    found = audit_module._sweep(table, 0, mechanism, DeviationSpace(), devs, (), 0.0)
    assert scored == order
    expected, _ = reference_sweep(s, 0, mechanism, devs)
    assert found == expected and found.report is devs[0]
    assert reference_sweep(s, 0, mechanism, devs[1:])[0].gain == 2.0


def test_a_floor_prunes_later_sweeps_of_a_dominant_audit(monkeypatch):
    """In a dominant groves-clarke audit of the profitable pair, the
    driver's sweeps find a gain first, and each later sweep gets the best
    gain so far as its floor. Run again without the floor, the later
    sweeps score more deviations, and each finds either what its floored
    run returns or nothing above the floor. The report is the reference
    audit's, verdict and witness."""
    s = by_name("linear-pair-profitable")
    mechanism = Mechanism.GROVES_CLARKE
    space = DeviationSpace(p_grid=5)
    opponents = DeviationSpace(p_grid=2, coefficient_scales=(1.0,))
    scorings = []
    real_scorer = allocation_module.OutcomeTable.scorer

    def scorer(table, i, p):
        score = real_scorer(table, i, p)

        def scoring(spec, q):
            scorings[-1] += 1
            return score(spec, q)
        return scoring

    real_sweep = audit_module._sweep
    pruned = []

    def sweep(table, i, mechanism, space, devs, others, floor):
        scorings.append(0)
        found = real_sweep(table, i, mechanism, space, devs, others, 0.0)
        unfloored = scorings[-1]
        scorings.append(0)
        floored = real_sweep(table, i, mechanism, space, devs, others, floor)
        assert scorings[-1] <= unfloored
        if floor > 0.0 and scorings[-1] < unfloored:
            pruned.append(i)
        assert floored == (found if found is not None and found.gain > floor else None)
        return floored

    monkeypatch.setattr(allocation_module.OutcomeTable, "scorer", scorer)
    monkeypatch.setattr(audit_module, "_sweep", sweep)
    report = audit_dominant(s, mechanism, space, opponents)
    monkeypatch.undo()
    assert 1 in pruned
    assert report.verdict is Verdict.VIOLATED and report.witness.commuter == 0
    assert report == reference_audit(s, mechanism, space, opponents)


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
                  st.just(DeviationSpace(p_grid=3, coefficient_scales=(1.0,)))),
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


def _groves_frames(profile, i, mechanism, space):
    """Checks each frame of commuter i's sweep against `profile`, in which
    i reports truthfully, under a private-probability Groves `mechanism`:
    one frame per p̂_i of i's grid. The frame's rows, settled through
    `utilities` at its probabilities, bound it by their best settlement,
    which equals the best among the frame scorer's contenders, recomputed
    here from the rows by exact sums: each row whose others' exact value
    sum is greater than that of every earlier row giving i the same
    assignment. Each deviation of the frame, scored, settles to its
    winner's row settlement, which is what `settled_utility` returns at
    the entry of that scoring, by `repr`, and the winner is a contender;
    where no row settles above truth (the frame's certificate), no
    deviation gains more than 0.0. Returns how many frames are certified
    and how many are not; none when nobody reads p̂_i."""
    table = OutcomeTable(profile, mechanism.probabilities(profile))
    frames = Counter()
    if not table.readers(i):
        return frames
    h = table.pivot(i) if mechanism.pivot is PivotRule.CLARKE else 0.0
    truth = table.truth()
    u_truth = settled_utility(profile, i, truth.allocation, mechanism.entry(profile, h, truth, i))
    devs = deviations_for(profile.commuters[i].true_type, space)
    true_values = {}
    for p_hat in sorted({t.p_commit for t in devs}):
        q = substitute(table.p, i, p_hat)
        outcomes = list(table.values_at(i, q))
        settled = utilities(profile, mechanism, i, h, outcomes, true_values)
        assert list(settled) == [id(a) for a, _ in outcomes]
        leaders = {}
        contenders = set()
        for a, values in outcomes:
            others = sum(map(Fraction, values[:i] + values[i + 1:]))
            if id(a[i]) not in leaders or others > leaders[id(a[i])]:
                leaders[id(a[i])] = others
                contenders.add(id(a))
        top = max(settled.values())
        assert top == max(settled[a] for a in contenders), (i, p_hat)
        certified = top - u_truth <= 0.0
        frames[certified] += 1
        score = table.scorer(i, q)
        for trip in devs:
            if trip.p_commit != p_hat:
                continue
            rep = score(trip.valuation, q)
            assert id(rep.allocation) in contenders
            u = settled_utility(profile, i, rep.allocation, mechanism.entry(profile, h, rep, i))
            assert repr(settled[id(rep.allocation)]) == repr(u), (i, trip)
            assert not certified or u - u_truth <= 0.0, (i, trip)
    return frames


def test_groves_frames_settle_their_contenders_and_certify_them(corpus_entries):
    """On every corpus scenario, ex post, each private-probability Groves
    frame passes `_groves_frames`; the corpus has frames the certificate
    clears and frames it leaves to be scored."""
    frames = Counter()
    for e in corpus_entries:
        base = with_truthful_reports(e.scenario)
        for mechanism in _PRIVATE_GROVES:
            for i in range(base.n):
                frames += _groves_frames(base, i, mechanism, DeviationSpace())
    assert frames[True] > 0 and frames[False] > 0, frames


@settings(max_examples=25, deadline=None)
@given(
    s_space=st.one_of(
        st.tuples(small_scenarios(), st.just(DeviationSpace(p_grid=3))),
        # their many terms would make the coefficient grid large
        st.tuples(pivot_scenarios(excluding_none=False).filter(lambda s: s.n <= 4),
                  st.just(DeviationSpace(p_grid=3, coefficient_scales=(1.0,)))),
    ),
    mechanism=st.sampled_from(_PRIVATE_GROVES),
)
def test_generated_groves_frames_settle_their_contenders_and_certify_them(s_space, mechanism):
    """Each private-probability Groves frame of a generated scenario passes
    `_groves_frames`, in the profile where every commuter but the deviator
    keeps their report: the pivot scenarios report probabilities that are
    not their true ones, so true values differ from the table's there."""
    s, space = s_space
    for i, c in enumerate(s.commuters):
        _groves_frames(with_report(s, i, c.true_type), i, mechanism, space)


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
        outcomes = OutcomeTable(base, None).rows()
        assert any(rep.allocation is truth.allocation for rep in outcomes)
        best = max(settled_utility(base, i, rep.allocation, mechanism.entry(base, h, rep, i))
                   for rep in outcomes)
        assert best - u_truth <= GAIN_TOLERANCE, i


def _flat(owner, **values):
    return ValuationSpec(owner, tuple(
        Clause(OutcomePattern(Role[role.upper()]), terms=(Monomial(v),))
        for role, v in values.items()))


# (0's drive value, 1's ride value, the deviation space, its scale of 0's
# drive value): values that made a deviation's scoring overflow before
# validation bounded them. 1's value is past the bound; then only 0's is,
# and its rescaling by 2**24 reached the largest float.
_SCORING_OVERFLOWS = [
    (0.4e308, 1e308, DeviationSpace(), 2.0),
    (2.0**1000 - 2.0**947, 1e300, DeviationSpace(p_grid=2, coefficient_scales=(1.0, 2.0**24)),
     2.0**24),
]


@pytest.mark.parametrize("drive, ride, space, scale", _SCORING_OVERFLOWS,
                         ids=["others-past-the-bound", "rescaled-deviator-past-the-bound"])
def test_the_certificate_leaves_a_scoring_overflow_to_the_grid(drive, ride, space, scale):
    """0 drives 1 at these values. A deviation of 0's that rescaled the
    drive value once summed past the float range inside the argmax, so the
    certificate left such sweeps to the grid. Validation now refuses the
    values, naming the clause past the bound. At the bound, 0's rescaled
    deviation scores finitely, and the audit, which tries the certificate
    on every sweep, is the reference audit that prices each deviation
    afresh."""
    def pair(drive, ride):
        return Scenario((
            Commuter(0, True, 1, TripType(_flat(0, drive=drive, none=0.0), 0.5)),
            Commuter(1, False, 0, TripType(_flat(1, ride=ride, none=0.0), 0.5)),
        ), full_compatibility(2))

    past = [v for v in validate_scenario(pair(drive, ride)) if "sum of |coefficient|" in v]
    assert past and all(v.endswith("outside [0, 2**100]") for v in past)
    s = pair(MAX_MAGNITUDE, MAX_MAGNITUDE)
    assert validate_scenario(s) == []
    rescaled = TripType(_flat(0, drive=scale * MAX_MAGNITUDE, none=0.0), 0.0)
    assert rescaled in deviations_for(s.commuters[0].true_type, space)
    assert efficient_allocation(with_report(s, 0, rescaled)).welfare == (scale + 1) * MAX_MAGNITUDE
    for mechanism in Mechanism:
        assert repr(audit_expost(s, mechanism, space)) == repr(reference_audit(s, mechanism, space))


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
    """0 drives 1, and 1 excludes travelling alone, which validation
    forbids. Under the Clarke pivot the searches one at a time find no
    acceptable allocation without 0, and the audit raises what they raise;
    under the zero pivot no search fails, and the audit is the
    reference's."""
    drive = Clause(OutcomePattern(Role.DRIVE), terms=(Monomial(1.0), Monomial(1.0)))
    ride = Clause(OutcomePattern(Role.RIDE), terms=(Monomial(1.0),))
    alone = Clause(OutcomePattern(Role.NONE), excluded=True)
    s = Scenario((
        Commuter(0, True, 1, TripType(ValuationSpec(0, (drive,)), 0.5)),
        Commuter(1, False, 0, TripType(ValuationSpec(1, (ride, alone)), 0.5)),
    ), full_compatibility(2))
    raised = set()
    for mechanism in Mechanism:
        try:
            expected = repr(reference_audit(s, mechanism, DeviationSpace()))
        except RuntimeError as e:
            with pytest.raises(RuntimeError, match=f"^{re.escape(str(e))}$"):
                audit_expost(s, mechanism, DeviationSpace())
            raised.add(mechanism)
        else:
            assert repr(audit_expost(s, mechanism, DeviationSpace())) == expected
    assert raised == {m for m in Mechanism if m.pivot is PivotRule.CLARKE}


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
    """Non-finite scales are refused, and so is any past 2**32 in
    magnitude, so that a rescaled admitted valuation stays inside the
    bound that keeps every sum finite; a scale at 2**32 is admitted."""
    for bad in (math.inf, -math.inf, math.nan, math.nextafter(MAX_SCALE, math.inf),
                -math.nextafter(MAX_SCALE, math.inf)):
        with pytest.raises(ValueError, match=re.escape(f"within [-2**32, 2**32], got {bad!r}")):
            DeviationSpace(coefficient_scales=(1.0, bad))
    assert DeviationSpace(coefficient_scales=(-MAX_SCALE, MAX_SCALE)).coefficient_scales == (
        -2.0**32, 2.0**32)


def test_default_grid_finds_the_threshold_gate_violation():
    s = by_name("threshold-gate-pair")
    report = audit_expost(s, Mechanism.COMMIT_BASED, DeviationSpace())
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


def test_expost_sweep_refuses_a_grid_over_budget_before_building_it(monkeypatch):
    """Commuter 0 of the shared-driver trio has 625 reported valuations and
    readers, so no certificate applies under groves-clarke: 10,001 points
    would score 6,250,625 deviations and are refused before the grid is
    built, while 1,001 points (625,625) reach the grid. Under commit the
    certificate clears every sweep, which counts nothing, so the same
    10,001-point audit returns its verdict."""
    s = by_name("linear-trio-shared-driver")

    def unbuilt(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(audit_module, "_grid", unbuilt)
    with pytest.raises(AuditSizeError, match="would score 6250625 deviations of commuter 0"):
        audit_expost(s, Mechanism.GROVES_CLARKE, DeviationSpace(p_grid=10_001))
    with pytest.raises(AssertionError, match="a grid was built"):
        audit_expost(s, Mechanism.GROVES_CLARKE, DeviationSpace(p_grid=1_001))
    report = audit_expost(s, Mechanism.COMMIT_BASED, DeviationSpace(p_grid=10_001))
    assert report.verdict is Verdict.NO_VIOLATION_FOUND


@pytest.mark.parametrize("mechanism", Mechanism, ids=lambda m: m.value)
def test_an_expost_audit_bounds_each_report_once(monkeypatch, mechanism):
    """Each report is bounded once, at validation, where the truth and a
    report of it share one check: n checks for n truthful commuters. The
    audit checks no bound of its own, and the deviations it scores stay
    within the bounds because `DeviationSpace` caps their scales."""
    s = by_name("linear-quad-competition")
    assert s.n == 4
    calls = []
    real = valuation_module.spec_violations

    def spec_violations(spec, *args, **kwargs):
        calls.append(spec.owner)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(valuation_module, "spec_violations", spec_violations)
    assert validate_scenario(s) == []
    assert calls == list(range(s.n))
    audit_expost(s, mechanism, DeviationSpace(p_grid=3))
    assert calls == list(range(s.n))


def test_dominant_sweep_refuses_a_scoring_count_over_budget(monkeypatch):
    """Unit scales leave each commuter of the pair one deviation per
    probability point. 101 points against 9,900-point opponent grids (plus
    the true type) score 2 × 101 × 9,901 = MAX_SCORINGS + 2 deviations
    and are refused before any grid is built; 100 points against 9,999
    score exactly the budget and reach the sweep."""
    assert audit_module.MAX_SCORINGS == 2_000_000

    def refuse(*args):
        raise AssertionError("the sweep started")

    def unbuilt(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(audit_module, "_sweep", refuse)
    s = by_name("linear-pair-profitable")
    unit = (1.0,)
    with monkeypatch.context() as patch:
        patch.setattr(audit_module, "deviations_for", unbuilt)
        patch.setattr(audit_module, "_grid", unbuilt)
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
    # probability, then scale combination (truthful first), gates kept
    rider = by_name("threshold-gate-pair").commuters[1].reported_type
    gates = rider.valuation.clauses[0].gates
    assert [
        (d.p_commit, d.valuation.clauses[0].terms[0].coefficient, d.valuation.clauses[0].gates)
        for d in deviations_for(rider, DeviationSpace(p_grid=2, coefficient_scales=(0.5, 1.0)))
    ] == [(p, coefficient, gates) for p in (0.0, 1.0) for coefficient in (5.0, 2.5)]
    with pytest.raises(ValueError):
        DeviationSpace(p_grid=1)
    with pytest.raises(ValueError, match="at most"):
        DeviationSpace(p_grid=MAX_P_GRID + 1)
    for bad in (3.0, True, "21", None):
        with pytest.raises(ValueError, match=f"must be an int, got {type(bad).__name__}"):
            DeviationSpace(p_grid=bad)


def test_deviations_keep_every_clause_pattern_and_exclusion(corpus_entries):
    """Every grid deviation, under every rescaling, has the true spec's
    clause patterns and excluded flags in the same order.
    Exclusion reads nothing else, so the argmax never hands a deviator an
    outcome they truly exclude, which is why the audit has no exclusion
    path and reports `excluded_deviations` as 0."""
    space = DeviationSpace(p_grid=2)
    for e in corpus_entries:
        for c in e.scenario.commuters:
            truth = [(cl.pattern, cl.excluded) for cl in c.true_type.valuation.clauses]
            for d in deviations_for(c.true_type, space):
                shape = [(cl.pattern, cl.excluded) for cl in d.valuation.clauses]
                assert shape == truth, (e.name, c.id)


def test_deviations_rescale_only_the_coefficients(corpus_entries):
    """Each grid deviation's valuation equals the true one with its
    coefficients, in clause then term order, multiplied by the scales of
    one combination, and everything else copied: the combinations in
    grid order, truthful first."""
    space = DeviationSpace(p_grid=2)
    for e in corpus_entries:
        for c in e.scenario.commuters:
            spec = c.true_type.valuation
            m = sum(len(cl.terms) for cl in spec.clauses)
            scales = space.coefficient_scales
            if len(scales) ** m > 4096:
                # too many combinations: uniform rescalings only
                combos = [(x,) * m for x in scales if x != 1.0]
            else:
                combos = [x for x in itertools.product(scales, repeat=m) if x != (1.0,) * m]
            combos.insert(0, (1.0,) * m)
            expected = []
            for combo in combos:
                each = iter(combo)
                expected.append(replace(spec, clauses=tuple(
                    replace(cl, terms=tuple(replace(t, coefficient=next(each) * t.coefficient)
                                            for t in cl.terms))
                    for cl in spec.clauses)))
            devs = deviations_for(c.true_type, space)
            assert [d.valuation for d in devs] == expected * space.p_grid, (e.name, c.id)


def test_deviations_keep_every_rescaling_of_a_coefficient_at_the_bound():
    """No rescaling of an admitted spec overflows, so none is skipped: a
    coefficient at the bound keeps every default scale, in order, and
    every rescaled coefficient is finite."""
    rider = by_name("linear-pair-profitable").commuters[1].true_type
    clause = rider.valuation.clauses[0]
    big_clause = replace(clause, terms=(replace(clause.terms[0], coefficient=MAX_MAGNITUDE),))
    big_spec = replace(rider.valuation, clauses=(big_clause,) + rider.valuation.clauses[1:])
    assert spec_violations(big_spec, 2, expected_owner=1) == []
    devs = deviations_for(replace(rider, valuation=big_spec), DeviationSpace(p_grid=2))
    coefficients = [t.coefficient for d in devs for c in d.valuation.clauses for t in c.terms]
    assert all(math.isfinite(x) for x in coefficients)
    # the default scales are 0, 0.5, 1, 2 and 10
    assert [(d.p_commit, d.valuation.clauses[0].terms[0].coefficient) for d in devs] == [
        (p, scale * MAX_MAGNITUDE) for p in (0.0, 1.0) for scale in (1.0, 0.0, 0.5, 2.0, 10.0)
    ]


def test_scale_combos_fall_back_to_uniform_rescaling():
    """linear-quad-full-van's driver has 12 terms, 5**12 combinations of
    the default scales, past `_MAX_SCALE_COMBOS`: the grid rescales every
    term alike, the identity first, then each other scale in the order
    given, which is the tie-break among equal gains."""
    trip = by_name("linear-quad-full-van").commuters[0].true_type
    space = DeviationSpace()
    assert len(space.coefficient_scales) ** 12 > audit_module._MAX_SCALE_COMBOS
    scales = (1.0, 0.0, 0.5, 2.0, 10.0)
    assert audit_module._scale_combos(trip.valuation, space.coefficient_scales) == [
        (scale,) * 12 for scale in scales]
    devs = deviations_for(trip, space)
    assert len(devs) == space.p_grid * 5
    assert [[t.coefficient for c in d.valuation.clauses for t in c.terms] for d in devs[:5]] == [
        [scale * -0.4] * 12 for scale in scales]


def test_suite_reproduces_expected_verdicts():
    entries = truthfulness_suite()
    assert len(entries) == 7
    assert len({e.name for e in entries}) == 7
    for e in entries:
        report = audit_expost(e.scenario, e.mechanism)
        assert report.verdict is e.expected, e.name
        assert report.mechanism is e.mechanism
        assert report.notion is Notion.EX_POST


# Under the Clarke pivot, the pivots an ex-post audit searches besides the
# first sweep's, which it asks before the efficient report: those of the
# commuters the efficient search cannot price, as another report reads
# their probability in a clause not tied to them as an exact partner. In
# the pairs, the driver's any-partner drive clause reads the rider's; in
# the trios, only exact partners read anyone's.
_SEARCHED_AFTER_TRUTH = {
    "linear-pair-own-terms": [1],
    "linear-trio-two-drivers": [],
    "linear-trio-constants": [],
    "threshold-gate-pair": [1],
    "quadratic-reliability-pair": [1],
}


def _replayed_gains(profile, i, mechanism):
    """Commuter i's gain from each deviation against `profile`, priced
    afresh as `reference_sweep` prices it, and kept per (p̂_i, valuation)."""
    public_p = mechanism.probabilities(profile)
    h = 0.0
    if mechanism.pivot is PivotRule.CLARKE:
        h = efficient_allocation(profile, p_override=public_p, absent=i).welfare

    def utility(trip):
        bent = with_report(profile, i, trip)
        rep = efficient_allocation(bent, p_override=public_p)
        return settled_utility(bent, i, rep.allocation, mechanism.entry(bent, h, rep, i))

    u_truth = utility(profile.commuters[i].true_type)
    gains = {}

    def gain(trip):
        key = (trip.p_commit, id(trip.valuation))
        if key not in gains:
            gains[key] = utility(trip) - u_truth
        return gains[key]
    return gain


def _bound_first_scorings(grid, frame_of, bounds, floor, gain):
    """The scorings, as (p̂_i read, id of the valuation), of a sweep over
    `grid` that visits frames best bound first, replayed from the bounds:
    a frame is a run of `grid` with one `frame_of`, the p̂_i its scorings
    read, and `bounds` maps that to the frame's bound. Frames whose bound
    is at most `floor` are skipped, and the rest are visited by bound
    descending, grid order among equal bounds, until one's bound is below
    the held gain, or equal to it and later in the grid. A visited frame
    scores each valuation it has not yet scored, in grid order, up to and
    including the first deviation whose `gain` reaches the bound. The held
    witness is the first maximal gain above `floor` met, by grid position.
    Returns the scorings, the frames visited in order and the held grid
    position, or None."""
    starts = [k for k in range(len(grid)) if k == 0 or frame_of(grid[k]) != frame_of(grid[k - 1])]
    frames = sorted((-bounds[frame_of(grid[start])], start, stop)
                    for start, stop in zip(starts, starts[1:] + [len(grid)])
                    if bounds[frame_of(grid[start])] > floor)
    scorings, visited, held = [], [], None
    for neg_bound, start, stop in frames:
        bound = -neg_bound
        if held is not None and (bound < held[0] or bound == held[0] and start > held[1]):
            break
        visited.append(frame_of(grid[start]))
        scored = set()
        for k in range(start, stop):
            trip = grid[k]
            if id(trip.valuation) not in scored:
                scored.add(id(trip.valuation))
                scorings.append((frame_of(trip), id(trip.valuation)))
            g = gain(trip)
            if g > floor if held is None else g > held[0] or g == held[0] and k < held[1]:
                held = (g, k)
            if g == bound:
                break
    return scorings, visited, None if held is None else held[1]


@pytest.mark.parametrize("name", list(_SEARCHED_AFTER_TRUTH))
@pytest.mark.parametrize("mechanism", Mechanism, ids=lambda m: m.value)
def test_sweep_passes_scorings_and_evaluations(monkeypatch, mechanism, name):
    """An ex-post audit builds one outcome table and prices the truthful
    profile there: it searches the efficient report once and, under the
    Clarke pivot, the first sweep's pivot, asked before the efficient
    report, and each later pivot the efficient search cannot price, once
    each; it calls no search of `audit`'s own.
    Pricing evaluates each commuter at most once per distinct assignment,
    and a reader of pivot k's once per assignment with k absent. The
    outcome pass for all commuters' certificates then evaluates nothing:
    the efficient search already read every value it reads. Each sweep
    gets the best gain of the sweeps before it, or 0.0, as its floor.

    A sweep settles i only through `payments.utilities`, on outcomes read
    from `OutcomeTable.values_at` or on truth's report alone. Where the
    outcome fixes i's utility, it settles every row once, at the table's
    probabilities, before any scorer. A sweep whose certificate holds then
    finds nothing, builds no grid and builds or calls no scorer. Under
    Groves with private probabilities and a reader, a sweep settles truth
    alone, then the rows once per p̂_i point of its grid, in grid order,
    before any scorer. The outcome rows are built once per table and
    shared by every settlement and scorer.

    Any other sweep of commuter i builds i's grid once. A frame is a p̂_i
    point under private probabilities, the whole grid under public ones.
    Each frame's bound is recomputed here from the table's rows, every
    other report evaluated afresh at the frame's probabilities, and
    settled through `Mechanism.entry` and `settled_utility`: at the
    table's probabilities for every frame where the outcome fixes i's
    utility, else at the frame's own. The scorings are exactly those of
    `_bound_first_scorings`, which replays the visiting order and stopping
    rule from those bounds, the floor and each deviation's gain priced
    afresh, and the sweep's witness is the one that replay holds. No
    scorer is built to bound a frame: a sweep builds one, a pass over
    `values_at` at the frame's probabilities, for each frame it visits if
    someone reads p̂_i, else at most once; under Groves with private
    probabilities and a reader, each visited frame then settles its rows
    again. Each distinct (p̂_i, reported valuation) is scored at most
    once, by the table's scorer and at i's probabilities, never by a
    full-set argmax. A non-reader is evaluated in no frame; a reader
    once per assignment per `values_at` pass at a p̂_i other than the
    table's, and at exactly those p̂_i; and i once per assignment per
    scoring, in exactly the scorings. i's true value is evaluated once
    per distinct assignment of i that a sweep settles (once at
    commitment 1 and once at 0 under commit). Every sweep of the
    constant trio has no reader, every sweep of the two-driver trio has
    one, and the pair has one of each. Commit payments certify every
    sweep of the linear scenarios, and not the deviator's sweep in the
    gate and quadratic pairs."""
    s = by_name(name)
    specs = [c.true_type.valuation for c in s.commuters]
    sweeps = []
    tables = 0
    searches = Counter()
    pricing = Counter()
    outcome_evaluations = Counter()
    row_lists = set()
    where = None

    def track(fn, place):
        def tracked(*args):
            nonlocal where
            outer, where = where, place
            try:
                return fn(*args)
            finally:
                where = outer
        return tracked

    def refuse(*args, **kwargs):
        raise AssertionError("the audit ran a search of its own")

    real_sweep = audit_module._sweep
    real_rows = allocation_module.OutcomeTable.rows
    real_evaluate = allocation_module.evaluate

    def sweep(table, i, mechanism, *args):
        readers = {j for j, spec in enumerate(specs) if j != i and i in referenced_subjects(spec)}
        record = {"i": i, "readers": readers, "events": [], "scorings": [], "grids": 0,
                  "evaluations": Counter(), "true_evaluations": Counter(), "settled": set(),
                  "floor": args[-1], "profile": table.scenario, "p_i": table.p[i]}
        sweeps.append(record)
        record["found"] = real_sweep(table, i, mechanism, *args)
        profile, truth = table.scenario, table.truth()
        record["truth"] = id(truth.allocation)
        record["rows"] = [id(rep.allocation) for rep in real_rows(table)]
        record["p"] = table.p

        def bound(q):
            """The best row settlement less truth's at probabilities `q`,
            every other report evaluated afresh; called after the audit."""
            h = table.pivot(i) if mechanism.pivot is PivotRule.CLARKE else 0.0
            u_truth = settled_utility(profile, i, truth.allocation,
                                      mechanism.entry(profile, h, truth, i))
            settled = []
            for rep in real_rows(table):
                a = rep.allocation
                values = tuple(rep.per_commuter[j] if j == i
                               else real_evaluate(c.reported_type.valuation, a, q)
                               for j, c in enumerate(profile.commuters))
                entry = mechanism.entry(profile, h, WelfareReport(a, math.fsum(values), values), i)
                settled.append(settled_utility(profile, i, a, entry))
            return max(settled) - u_truth
        record["bound"] = bound
        return record["found"]

    real_deviations_for = audit_module.deviations_for

    def grid(*args):
        sweeps[-1]["grids"] += 1
        sweeps[-1]["grid"] = real_deviations_for(*args)
        return sweeps[-1]["grid"]

    def rows(table):
        found = track(real_rows, "outcomes")(table)
        row_lists.add(id(found))
        return found

    real_values_at = allocation_module.OutcomeTable.values_at

    def values_at(table, i, p):
        sweeps[-1]["events"].append(("pass", p[i]))
        return iter(track(lambda: list(real_values_at(table, i, p)), "frame")())

    real_utilities = audit_module.utilities

    def utilities(profile, mechanism, i, h, outcomes, true_values):
        record = sweeps[-1]
        outcomes = list(outcomes)
        settled = [id(a) for a, _ in outcomes]
        record["events"].append(("settle", settled))
        record["settled"].update(id(a[i]) for a, _ in outcomes)
        return real_utilities(profile, mechanism, i, h, outcomes, true_values)

    real_scorer = allocation_module.OutcomeTable.scorer

    def scorer(table, i, p):
        record = sweeps[-1]
        record["events"].append(("scorer", p[i]))
        score = track(real_scorer, "frame")(table, i, p)

        def scoring(spec, q):
            record["scorings"].append((q[record["i"]], id(spec)))
            return track(score, "frame")(spec, q)
        return scoring

    real_argmax = allocation_module._argmax

    def argmax(*args):
        assert where is None, "a frame ran the full-set argmax"
        searches[args[3]] += 1
        return track(real_argmax, "pricing")(*args)

    def evaluate(spec, allocation, p, absent=None):
        if where is not None:
            record = sweeps[-1]
            i, j = record["i"], spec.owner
            assignment = id(allocation[j])
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

    real_payments_evaluate = payments_module.evaluate

    def true_evaluate(spec, allocation, p, absent=None):
        record = sweeps[-1]
        if spec is specs[record["i"]]:
            record["true_evaluations"][id(allocation[spec.owner]), tuple(p)] += 1
        return real_payments_evaluate(spec, allocation, p, absent)

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
    monkeypatch.setattr(audit_module, "utilities", utilities)
    monkeypatch.setattr(allocation_module.OutcomeTable, "rows", rows)
    monkeypatch.setattr(allocation_module.OutcomeTable, "values_at", values_at)
    monkeypatch.setattr(allocation_module.OutcomeTable, "scorer", scorer)
    monkeypatch.setattr(allocation_module, "_argmax", argmax)
    monkeypatch.setattr(allocation_module, "evaluate", evaluate)
    monkeypatch.setattr(payments_module, "evaluate", true_evaluate)
    space = DeviationSpace()
    audit_expost(s, mechanism, space)
    # the replays below price deviations afresh, through the real searches
    monkeypatch.undo()
    private = mechanism.probabilities(s) is None
    clarke = mechanism.pivot is PivotRule.CLARKE
    assert tables == 1
    assert searches == Counter([None, 0, *_SEARCHED_AFTER_TRUTH[name]] if clarke else [None])
    assert set(pricing.values()) == {1}
    assert [r["i"] for r in sweeps] == list(range(s.n))
    assert not outcome_evaluations
    assert len(row_lists) <= 1
    frame_shared = Counter()
    certified = []
    floor = 0.0
    true_p = s.true_p()
    for record, c in zip(sweeps, s.commuters):
        i, events = record["i"], record["events"]
        assert record["floor"] == floor
        if record["found"] is not None:
            assert record["found"].gain > floor
            floor = record["found"].gain
        framed = private and record["readers"] and mechanism is not Mechanism.COMMIT_BASED
        rows = ("settle", record["rows"])
        if framed:
            # truth alone, then the rows once per p̂_i point, before any scorer
            assert events[0] == ("settle", [record["truth"]])
            head = 1
        else:
            # the rows once, at the table's probabilities, before any scorer
            assert events[:2] == [("pass", record["p_i"]), rows]
            head = 2
        if not record["grids"]:
            certified.append(i)
            assert not framed and record["bound"](record["p"]) <= 0.0
            assert record["found"] is None
            assert events[head:] == []
            assert record["scorings"] == []
            continue
        assert record["grids"] == 1
        devs = record["grid"]
        assert devs == deviations_for(c.true_type, space)
        points = sorted({t.p_commit for t in devs})
        if framed:
            assert events[head:head + 2 * len(points)] == [
                e for p_hat in points for e in (("pass", p_hat), rows)]
            head += 2 * len(points)
            bounds = {p_hat: record["bound"](substitute(record["p"], i, p_hat))
                      for p_hat in points}
        else:
            top = record["bound"](record["p"])
            assert top > 0.0
            bounds = dict.fromkeys(points if private else [record["p_i"]], top)

        def frame_of(trip):
            return trip.p_commit if private else record["p_i"]
        scorings, visited, held = _bound_first_scorings(
            devs, frame_of, bounds, record["floor"], _replayed_gains(record["profile"], i, mechanism))
        assert record["scorings"] == scorings
        assert len(set(scorings)) == len(scorings)
        found = record["found"]
        assert (None if found is None else found.report) is (None if held is None else devs[held])
        if framed:
            # each visited frame builds its scorer, then settles its rows again
            assert events[head:] == [e for p_hat in visited for e in (
                ("scorer", p_hat), ("pass", p_hat), ("pass", p_hat), rows)]
        else:
            # a scorer per visited frame, or one for all when nobody reads p̂_i
            built = visited if record["readers"] and private else visited[:1]
            assert events[head:] == [e for p_hat in built for e in (("scorer", p_hat),
                                                                    ("pass", p_hat))]
        passes = [p_hat for kind, p_hat in events if kind == "pass"]
        fresh = Counter(p_hat for p_hat in passes if p_hat != record["p_i"])
        evaluations = record["evaluations"]
        assert {frame for j, frame, _ in evaluations if j == i} == set(scorings)
        assert {frame for j, frame, _ in evaluations if j in record["readers"]} == set(fresh)
        for (j, frame, _), count in evaluations.items():
            assert count == (fresh[frame] if j in record["readers"] else 1), (j, frame)
        frame_shared.update((j, a) for j, frame, a in evaluations if frame is None)
    for record in sweeps:
        # i's true value(s), once per assignment of i the sweep settles
        i = record["i"]
        at = ([substitute(true_p, i, 1.0), substitute(true_p, i, 0.0)]
              if mechanism is Mechanism.COMMIT_BASED else [true_p])
        assert record["true_evaluations"] == Counter(
            (a, q) for a in record["settled"] for q in at)
    assert not frame_shared
    if mechanism is Mechanism.COMMIT_BASED:
        assert (certified == list(range(s.n))) is name.startswith("linear-")
