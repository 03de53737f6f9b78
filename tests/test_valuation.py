"""Valuation evaluation, exclusion, and the linearity/independence checks."""

import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TIE_VALUES,
    bernoulli_expectation,
    check_independence_numeric,
    check_linearity_numeric,
    independence_spread,
    linearity_residual,
)
from rideshare.allocation import efficient_allocation
from rideshare.audit import AuditSizeError, DeviationSpace, Mechanism, audit_expost
from rideshare.corpus import by_name, corpus, linear_entries
from rideshare.model import (
    Assignment,
    Commuter,
    Role,
    Scenario,
    TripType,
    _feasible,
    all_none_allocation,
    full_compatibility,
    validate_scenario,
)
from rideshare.payments import (
    Conditional,
    ExcludedValueError,
    PivotRule,
    commit_payments,
    expected_utility,
    groves_payments,
)
from rideshare.scenario_io import parse_scenario_text
from rideshare.simulate import run_trials
from rideshare.valuation import (
    MAX_EXPONENT,
    MAX_MAGNITUDE,
    MAX_SCALE,
    AnyPartners,
    Clause,
    EXCLUDED,
    GateDirection,
    Monomial,
    OutcomePattern,
    ThresholdGate,
    ValuationSpec,
    evaluate,
    is_external_commit_independent,
    is_linear_in_commitment,
    referenced_subjects,
    spec_violations,
)

SHARE = (
    Assignment(Role.DRIVE, frozenset({1})),
    Assignment(Role.RIDE, frozenset({0})),
)
ALONE = all_none_allocation(2)


def test_driver_value_at_share():
    """alpha * p0 * p1 = -2 * 0.5 * 0.8 = -0.8."""
    spec = by_name("linear-pair-profitable").commuters[0].true_type.valuation
    assert evaluate(spec, SHARE, (0.5, 0.8)) == -0.8


def test_rider_value_at_share():
    spec = by_name("linear-pair-profitable").commuters[1].true_type.valuation
    assert evaluate(spec, SHARE, (0.5, 0.8)) == 2.0
    assert evaluate(spec, ALONE, (0.5, 0.8)) == 0.0


def test_excluded_role_is_sentinel():
    """The pair scenario's driver never rides; that outcome is excluded
    outright rather than merely worthless."""
    spec = by_name("linear-pair-profitable").commuters[0].true_type.valuation
    flipped = (
        Assignment(Role.RIDE, frozenset({1})),
        Assignment(Role.DRIVE, frozenset({0})),
    )
    assert evaluate(spec, flipped, (0.5, 0.8)) is EXCLUDED


def test_threshold_gate_blocks_and_passes():
    """Gate at p0 >= 0.6: value 0 below, 5 * p0 * p1 at or above."""
    spec = by_name("threshold-gate-pair").commuters[1].true_type.valuation
    assert evaluate(spec, SHARE, (0.5, 0.8)) == 0.0
    assert evaluate(spec, SHARE, (0.6, 0.8)) == pytest.approx(2.4, abs=1e-12)
    assert evaluate(spec, SHARE, (1.0, 1.0)) == 5.0


def test_below_gate_direction():
    gate = ThresholdGate(0, 0.5, GateDirection.BELOW)
    clause = Clause(OutcomePattern(Role.NONE, AnyPartners()), (gate,),
                    (Monomial(7.0, ()),), False)
    spec = ValuationSpec(0, (clause,), 0.0)
    assert evaluate(spec, all_none_allocation(1), (0.4,)) == 7.0
    assert evaluate(spec, all_none_allocation(1), (0.5,)) == 0.0


def test_first_matching_clause_wins():
    pattern = OutcomePattern(Role.NONE, AnyPartners())
    first = Clause(pattern, (), (Monomial(1.0, ()),), False)
    second = Clause(pattern, (), (Monomial(99.0, ()),), False)
    spec = ValuationSpec(0, (first, second), 0.0)
    assert evaluate(spec, all_none_allocation(1), (0.5,)) == 1.0


def test_default_value_when_no_clause_matches():
    clause = Clause(OutcomePattern(Role.DRIVE, AnyPartners()), (),
                    (Monomial(1.0, ()),), False)
    spec = ValuationSpec(0, (clause,), -3.5)
    assert evaluate(spec, all_none_allocation(1), (0.5,)) == -3.5


def test_absent_commuter_zeroes_factors_and_fails_gates():
    rider = by_name("threshold-gate-pair").commuters[1].true_type.valuation
    assert evaluate(rider, SHARE, (1.0, 1.0), absent=0) == 0.0
    plain = by_name("linear-pair-profitable").commuters[1].true_type.valuation
    assert evaluate(plain, SHARE, (1.0, 1.0), absent=0) == 0.0


def test_spec_violations_catches_owner_and_subject_errors():
    spec = by_name("linear-pair-profitable").commuters[1].true_type.valuation
    assert spec_violations(spec, 2, expected_owner=1) == []
    assert spec_violations(spec, 2, expected_owner=0) != []
    # subject 1 is out of range in a 1-commuter scenario
    assert spec_violations(spec, 1, expected_owner=1) != []


def test_spec_violations_rejects_terms_on_excluded_clause():
    clause = Clause(OutcomePattern(Role.DRIVE, AnyPartners()), (),
                    (Monomial(1.0, ()),), True)
    fallback = Clause(OutcomePattern(Role.NONE, AnyPartners()), (), (), False)
    spec = ValuationSpec(0, (clause, fallback), 0.0)
    assert spec_violations(spec, 1) != []


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), float("-inf"),
    pytest.param(1e308, id="two-1e308-constants-on-none"),
])
def test_spec_violations_rejects_non_finite_numbers(bad):
    """Non-finite numbers are violations, and so are finite constants whose
    sum overflowed on the stay-home outcome: all are past the magnitude
    bound (reported, never raised)."""
    spec = by_name("linear-pair-profitable").commuters[1].true_type.valuation
    if math.isfinite(bad):
        home = Clause(OutcomePattern(Role.NONE, AnyPartners()), (), (Monomial(bad), Monomial(bad)))
        bent = replace(spec, clauses=spec.clauses[:-1] + (home,))
        assert spec_violations(bent, 2, expected_owner=1) == [
            f"clause {len(spec.clauses) - 1}: sum of |coefficient| inf outside [0, 2**100]"]
        return
    clause = spec.clauses[0]
    term = replace(clause.terms[0], coefficient=bad)
    bent = replace(spec, clauses=(replace(clause, terms=(term,)),) + spec.clauses[1:])
    assert spec_violations(bent, 2, expected_owner=1) == [
        f"clause 0: sum of |coefficient| {abs(bad)} outside [0, 2**100]"]
    assert spec_violations(replace(spec, default_value=bad), 2, expected_owner=1) == [
        f"default value {bad} outside [-2**100, 2**100]"]


def test_spec_violations_rejects_excluded_stay_home():
    spec = ValuationSpec(
        0,
        (Clause(OutcomePattern(Role.NONE, AnyPartners()), (), (), True),),
        0.0,
    )
    assert spec_violations(spec, 1) != []


def test_referenced_subjects():
    driver = by_name("linear-pair-profitable").commuters[0].true_type.valuation
    own_terms = by_name("linear-pair-own-terms").commuters[1].true_type.valuation
    assert referenced_subjects(driver) == (0, 1)
    assert referenced_subjects(own_terms) == (1,)


def test_structural_independence():
    driver = by_name("linear-pair-profitable").commuters[0].true_type.valuation
    own_terms = by_name("linear-pair-own-terms").commuters[1].true_type.valuation
    constant = by_name("linear-trio-constants").commuters[0].true_type.valuation
    assert not is_external_commit_independent(driver)
    assert is_external_commit_independent(own_terms)
    assert is_external_commit_independent(constant)


def test_own_squared_factor_is_independent_but_not_linear():
    """A factor on the owner's own probability, even squared, touches no
    external coordinate. It stays independent while losing linearity."""
    clause = Clause(OutcomePattern(Role.NONE, AnyPartners()), (),
                    (Monomial(4.0, ((0, 2),)),), False)
    spec = ValuationSpec(0, (clause,), 0.0)
    assert spec_violations(spec, 2, expected_owner=0) == []
    assert is_external_commit_independent(spec)
    assert check_independence_numeric(spec, ALONE)
    assert not is_linear_in_commitment(spec)


def test_numeric_independence_flags_external_factor():
    """Perturbing the rider's probability moves the driver's share value by
    the full coefficient swing."""
    spec = by_name("linear-pair-profitable").commuters[0].true_type.valuation
    assert not check_independence_numeric(spec, SHARE)
    assert independence_spread(spec, SHARE) > 1e-3


def test_structural_linearity():
    """The gate, the squared exponent and a subject named twice in one term
    (p0 * p0) break linearity, and the twelve linear corpus entries are the
    ones whose specs all pass."""
    gate = by_name("threshold-gate-pair").commuters[1].true_type.valuation
    squared = by_name("quadratic-reliability-pair").commuters[1].true_type.valuation
    repeated = ValuationSpec(0, (Clause(OutcomePattern(Role.NONE, AnyPartners()), (),
                                        (Monomial(2.0, ((0, 1), (0, 1))),), False),), 0.0)
    assert spec_violations(repeated, 1, expected_owner=0) == []
    assert not is_linear_in_commitment(gate)
    assert not is_linear_in_commitment(squared)
    assert not is_linear_in_commitment(repeated)
    assert not check_linearity_numeric(repeated, all_none_allocation(1))
    assert [e.name for e in linear_entries()] == [
        "linear-pair-profitable", "linear-pair-unprofitable", "linear-pair-certain",
        "linear-pair-never-rider", "linear-pair-own-terms", "linear-solo",
        "linear-trio-shared-driver", "linear-trio-two-drivers", "linear-trio-constants",
        "linear-quad-disjoint-pairs", "linear-quad-full-van", "linear-quad-competition",
    ]


def test_endpoint_gate_still_breaks_linearity():
    """A gate firing only at p = 1 is not vacuous: the value jumps at the
    endpoint, so both checks must reject it."""
    gate = ThresholdGate(0, 1.0, GateDirection.AT_LEAST)
    clause = Clause(OutcomePattern(Role.NONE, AnyPartners()), (gate,),
                    (Monomial(2.0, ((0, 1),)),), False)
    spec = ValuationSpec(0, (clause,), 0.0)
    assert not is_linear_in_commitment(spec)
    assert not check_linearity_numeric(spec, all_none_allocation(1))


def test_vacuous_gates_keep_linearity():
    """Gates that always pass or never pass leave the value affine."""
    always = ThresholdGate(0, 0.0, GateDirection.AT_LEAST)
    never = ThresholdGate(0, 0.0, GateDirection.BELOW)
    term = (Monomial(2.0, ((0, 1),)),)
    pattern = OutcomePattern(Role.NONE, AnyPartners())
    for gate in (always, never):
        spec = ValuationSpec(0, (Clause(pattern, (gate,), term, False),), 0.0)
        assert is_linear_in_commitment(spec)
        assert check_linearity_numeric(spec, all_none_allocation(1))


def test_numeric_linearity_flags_both_nonlinear_specs():
    """Residual above 1e-3 at some lattice point for the gate and the
    squared exponent."""
    gate = by_name("threshold-gate-pair").commuters[1].true_type.valuation
    squared = by_name("quadratic-reliability-pair").commuters[1].true_type.valuation
    assert linearity_residual(gate, SHARE) > 1e-3
    assert linearity_residual(squared, SHARE) > 1e-3
    assert not check_linearity_numeric(gate, SHARE)
    assert not check_linearity_numeric(squared, SHARE)


def test_numeric_checks_agree_with_structural_over_corpus(corpus_entries):
    """Structural and numeric classifications agree for every spec at every
    feasible allocation of its scenario."""
    for e in corpus_entries:
        s = e.scenario
        for c in s.commuters:
            spec = c.true_type.valuation
            lin = is_linear_in_commitment(spec)
            ind = is_external_commit_independent(spec)
            for a in _feasible(s):
                if evaluate(spec, a, [0.5] * s.n) is EXCLUDED:
                    continue
                if lin:
                    assert check_linearity_numeric(spec, a), (e.name, c.id)
                assert check_independence_numeric(spec, a) or not ind, (e.name, c.id)
                if ind:
                    assert independence_spread(spec, a) <= 1e-12


def test_nonlinear_specs_fail_numeric_somewhere():
    """The numeric linearity check rejects each structurally nonlinear spec
    at its sharing allocation."""
    for name in ("threshold-gate-pair", "quadratic-reliability-pair"):
        spec = by_name(name).commuters[1].true_type.valuation
        assert not check_linearity_numeric(spec, SHARE), name


def test_multilinear_specs_match_bernoulli_expectation():
    """evaluate at probabilities equals the exact expectation over commit
    draws for every multilinear corpus spec, within 1e-12."""
    for e in linear_entries():
        s = e.scenario
        p = s.true_p()
        for c in s.commuters:
            spec = c.true_type.valuation
            for a in _feasible(s):
                v = evaluate(spec, a, p)
                if v is EXCLUDED:
                    continue
                expect = bernoulli_expectation(spec, a, p)
                assert abs(v - expect) <= 1e-12, (e.name, c.id)


def test_squared_exponent_disagrees_with_expectation():
    """p0^2 is not the expectation of a Bernoulli square, so the quadratic
    spec must break the multilinear identity."""
    s = by_name("quadratic-reliability-pair")
    spec = s.commuters[1].true_type.valuation
    v = evaluate(spec, SHARE, s.true_p())
    expect = bernoulli_expectation(spec, SHARE, s.true_p())
    assert abs(v - expect) > 1e-3


def test_lattice_grid_must_have_three_points():
    spec = by_name("linear-pair-profitable").commuters[0].true_type.valuation
    with pytest.raises(ValueError):
        check_linearity_numeric(spec, SHARE, grid=2)


def test_the_bounds_admit_every_shipped_scenario(monkeypatch):
    """Every bundled file, every corpus scenario and every scenario of the
    benchmark's seed-0 workloads is admitted, and so is every `TIE_VALUES`
    value as a default and as a coefficient. The largest default or clause
    sum of |coefficient| among the scenarios is far below the bound."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "bench"))
    from workloads import build_audit, build_price, build_settle

    scenarios = [parse_scenario_text(path.read_text(encoding="utf-8"))
                 for path in sorted((root / "scenarios").glob("*.json"))]
    assert len(scenarios) == 4
    scenarios += [e.scenario for e in corpus()]
    scenarios += [op.scenario for build in (build_price, build_audit, build_settle)
                  for op in build(0)]
    for s in scenarios:
        assert validate_scenario(s) == []
    specs = [t.valuation for s in scenarios for c in s.commuters
             for t in (c.true_type, c.reported_type)]
    largest = max(max([abs(spec.default_value)] + [
        math.fsum(abs(term.coefficient) for term in clause.terms) for clause in spec.clauses])
        for spec in specs)
    assert largest < 2.0**10
    none = OutcomePattern(Role.NONE)
    for v in TIE_VALUES:
        assert spec_violations(ValuationSpec(0, (), v), 1) == []
        assert spec_violations(ValuationSpec(0, (Clause(none, terms=(Monomial(v),)),)), 1) == []


def _at_the_bound(draw, total):
    """One or two coefficients whose magnitudes sum to `total` exactly,
    each signed at random."""
    split = draw(st.sampled_from((1.0, 0.5, 0.75)))
    parts = [total * split, total * (1.0 - split)] if split < 1.0 else [total]
    return [x * draw(st.sampled_from((1.0, -1.0))) for x in parts]


@st.composite
def _extreme_scenarios(draw):
    """One to four fully compatible commuters whose default values and
    clause sums of |coefficient| sit at plus or minus the magnitude bound,
    through factors with exponents 1, 2 and `MAX_EXPONENT`, maybe behind a
    gate. Each commuter may truly exclude driving or riding, which their
    report does not, and reports a probability of their own."""
    n = draw(st.integers(1, 4))
    subject = st.integers(0, n - 1)
    probability = st.sampled_from((0.0, 0.5, 1.0))

    def valued(role):
        factors = tuple((draw(subject), draw(st.sampled_from((1, 2, MAX_EXPONENT))))
                        for _ in range(draw(st.integers(0, 2))))
        terms = tuple(Monomial(c, factors) for c in _at_the_bound(draw, MAX_MAGNITUDE))
        gates = ()
        if draw(st.booleans()):
            gates = (ThresholdGate(draw(subject), draw(probability),
                                   draw(st.sampled_from(GateDirection))),)
        return Clause(OutcomePattern(role), gates, terms)

    commuters = []
    for k in range(n):
        clauses = [valued(role) for role in (Role.DRIVE, Role.RIDE, Role.NONE)
                   if role is Role.NONE or draw(st.booleans())]
        default = draw(st.sampled_from((0.0, MAX_MAGNITUDE, -MAX_MAGNITUDE)))
        reported = ValuationSpec(k, tuple(clauses), default)
        truth = ValuationSpec(k, tuple(
            Clause(c.pattern, excluded=True)
            if c.pattern.own_role is not Role.NONE and draw(st.integers(0, 3)) == 0
            else c for c in clauses), default)
        has_vehicle = draw(st.booleans())
        commuters.append(Commuter(k, has_vehicle, draw(st.integers(1, 2)) if has_vehicle else 0,
                                  TripType(truth, draw(probability)),
                                  TripType(reported, draw(probability))))
    return Scenario(tuple(commuters), full_compatibility(n))


def _finite(*xs):
    return all(math.isfinite(x) for x in xs if x is not None)


@given(s=_extreme_scenarios(), mechanism=st.sampled_from(Mechanism),
       seed=st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_admitted_magnitudes_keep_every_number_finite(s, mechanism, seed):
    """At the edges of every bound, the allocation, the three payment
    rules, an ex-post audit rescaling by plus or minus `MAX_SCALE` and a
    short simulation compute only finite numbers, and raise nothing but a
    true valuation's exclusion or an audit refused for its size."""
    assert validate_scenario(s) == []
    rep = efficient_allocation(s)
    assert _finite(rep.welfare, *rep.per_commuter)
    for schedule in (commit_payments(s), groves_payments(s, PivotRule.CLARKE),
                     groves_payments(s, PivotRule.ZERO)):
        for i, entry in enumerate(schedule.entries):
            assert _finite(*((entry.on_commit, entry.on_fail) if isinstance(entry, Conditional)
                             else (entry.amount,)))
            try:
                assert _finite(expected_utility(s, i, schedule))
            except ExcludedValueError:
                pass
        run, summary = run_trials(s, schedule, 20, seed)
        assert _finite(summary.mean_welfare, summary.mean_deficit, *summary.mean_commit,
                       *summary.mean_value, *summary.mean_payment, *summary.mean_utility,
                       *summary.stderr_utility)
        # each drawn key's value, payment and utility cells, and its welfare
        # and deficit: the fsum of its value cells and of its payment cells
        for rows in run.rows.values():
            cells = [[float(x) if x else None for x in row[:-1].split(",")[2:]] for row in rows[1:]]
            values = [v for v, _, _ in cells if v is not None]
            assert _finite(*(x for c in cells for x in c), math.fsum(values),
                           -math.fsum(c for _, c, _ in cells))
    space = DeviationSpace(p_grid=2, coefficient_scales=(-MAX_SCALE, MAX_SCALE))
    try:
        report = audit_expost(s, mechanism, space)
    except (ExcludedValueError, AuditSizeError):
        return
    if report.witness is not None:
        w = report.witness
        assert _finite(w.truthful_utility, w.deviated_utility, w.gain)

