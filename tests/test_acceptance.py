"""Acceptance checks, one per numbered criterion, each printing a verdict
line. Tolerances and time budgets are stated inline; run with -v -s to see
the lines as they pass."""

import time

from conftest import (
    bernoulli_expectation,
    check_linearity_numeric,
    linearity_residual,
    naive_best_allocation,
    rendered_csv,
)
from rideshare.allocation import efficient_allocation
from rideshare.audit import (
    DeviationSpace,
    Mechanism,
    Verdict,
    audit_dominant,
    audit_expost,
    deviations_for,
)
from rideshare.corpus import by_name, corpus, linear_entries
from rideshare.model import _feasible, with_report, with_truthful_reports
from rideshare.payments import (
    PivotRule,
    commit_payments,
    expected_utility,
    groves_payments,
)
from rideshare.simulate import exact_expected_utilities, run_trials
from rideshare.valuation import (
    EXCLUDED,
    evaluate,
    is_linear_in_commitment,
)

FULL_SCALES = (0.0, 0.5, 1.0, 2.0, 10.0)


def _verdict_line(number, label, body):
    try:
        body()
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {label}")
        raise
    print(f"PASS  criterion {number:2d}: {label}")


def test_criterion_1_gate_manipulation_closed_form():
    """Commit audit on the threshold pair finds the hand-derivable gain
    (alpha + beta) * p0 * p1 = 1.2 within 1e-12, in under a second."""

    def body():
        start = time.perf_counter()
        report = audit_expost(by_name("threshold-gate-pair"), Mechanism.COMMIT_BASED)
        elapsed = time.perf_counter() - start
        assert report.verdict is Verdict.VIOLATED
        closed_form = (-2.0 + 5.0) * 0.5 * 0.8
        w = report.witness
        assert abs(w.gain - closed_form) <= 1e-12, w.gain
        assert abs(w.report.p_commit - 0.6) <= 1e-12
        assert w.commuter == 0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    _verdict_line(1, "threshold misreport reproduces the 1.2 closed form", body)


def test_criterion_2_linear_scenarios_commit_clean():
    """No deviation with gain above 1e-9 on any all-linear scenario, over a
    41-point probability grid with the full coefficient scale set; at least
    ten scenarios, all of size four or less, within 60 seconds."""

    def body():
        entries = linear_entries()
        assert len(entries) >= 10
        space = DeviationSpace(p_grid=41, coefficient_scales=FULL_SCALES)
        start = time.perf_counter()
        for e in entries:
            assert e.scenario.n <= 4, e.name
            for c in e.scenario.commuters:
                assert is_linear_in_commitment(c.true_type.valuation), e.name
            report = audit_expost(e.scenario, Mechanism.COMMIT_BASED, space)
            assert report.verdict is Verdict.NO_VIOLATION_FOUND, (
                e.name,
                report.witness,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _verdict_line(2, "commit mechanism clean on every all-linear scenario", body)


def test_criterion_3_private_probabilities_manipulable():
    """Private-probability Clarke on the profitable pair: claiming certainty
    is worth exactly 2.0, witnessed at a reported probability of 1."""

    def body():
        report = audit_expost(by_name("linear-pair-profitable"), Mechanism.GROVES_CLARKE)
        assert report.verdict is Verdict.VIOLATED
        w = report.witness
        assert w.report.p_commit == 1.0
        assert abs(w.gain - 2.0) <= 1e-12

    _verdict_line(3, "private-probability Clarke violated with gain 2.0", body)


def test_criterion_4_public_probabilities_dominant_clean():
    """The same pair under public probabilities survives the full dominant
    sweep (both sides on the 21-point grid and full scales) in under 60s."""

    def body():
        start = time.perf_counter()
        report = audit_dominant(
            by_name("linear-pair-profitable"),
            Mechanism.GROVES_CLARKE_PUBLIC_P,
            DeviationSpace(p_grid=21, coefficient_scales=FULL_SCALES),
            DeviationSpace(p_grid=21, coefficient_scales=FULL_SCALES),
        )
        elapsed = time.perf_counter() - start
        assert report.verdict is Verdict.NO_VIOLATION_FOUND, report.witness
        assert elapsed < 60.0, f"took {elapsed:.1f}s"

    _verdict_line(4, "public-probability Clarke dominant-strategy clean", body)


def test_criterion_5_nonlinear_specs_break_the_mechanism():
    """Both non-linear shapes (threshold gate, squared exponent) are caught
    by the audit and rejected by both linearity checks, with a numeric
    residual above 1e-3 somewhere."""

    def body():
        for name in ("threshold-gate-pair", "quadratic-reliability-pair"):
            s = by_name(name)
            report = audit_expost(s, Mechanism.COMMIT_BASED)
            assert report.verdict is Verdict.VIOLATED, name
            nonlinear = [
                c.true_type.valuation
                for c in s.commuters
                if not is_linear_in_commitment(c.true_type.valuation)
            ]
            assert nonlinear, name
            for spec in nonlinear:
                residual = max(
                    linearity_residual(spec, a)
                    for a in _feasible(s)
                )
                assert residual > 1e-3, (name, residual)

    _verdict_line(5, "gate and exponent scenarios violated and non-linear", body)


def test_criterion_6_linearity_oracle_agreement():
    """Structural and numeric linearity agree on every corpus spec, and
    multilinear specs equal their exact Bernoulli expectation to 1e-12."""

    def body():
        for e in corpus():
            s = e.scenario
            for c in s.commuters:
                spec = c.true_type.valuation
                allocations = [
                    a
                    for a in _feasible(s)
                    if evaluate(spec, a, [0.5] * s.n) is not EXCLUDED
                ]
                numeric = [check_linearity_numeric(spec, a) for a in allocations]
                if is_linear_in_commitment(spec):
                    assert all(numeric), (e.name, c.id)
                else:
                    assert not all(numeric), (e.name, c.id)
        for e in linear_entries():
            s = e.scenario
            assert s.n <= 6
            p = s.true_p()
            for c in s.commuters:
                spec = c.true_type.valuation
                for a in _feasible(s):
                    v = evaluate(spec, a, p)
                    if v is EXCLUDED:
                        continue
                    assert abs(v - bernoulli_expectation(spec, a, p)) <= 1e-12

    _verdict_line(6, "linearity checks agree; multilinear equals expectation", body)


def test_criterion_7_commit_pair_ignores_own_report():
    """Grouping a commuter's swept reports by the allocation they induce,
    the (on_commit, on_fail) pair is bitwise constant inside each group."""

    def body():
        space = DeviationSpace(p_grid=21, coefficient_scales=FULL_SCALES)
        for e in corpus():
            s = e.scenario
            for i in range(s.n):
                groups = {}
                for trip in deviations_for(s.commuters[i].reported_type, space):
                    bent = with_report(s, i, trip)
                    schedule = commit_payments(bent)
                    entry = schedule.entries[i]
                    pair = (entry.on_commit, entry.on_fail)
                    key = schedule.allocation
                    previous = groups.setdefault(key, pair)
                    assert previous == pair, (e.name, i, trip)

    _verdict_line(7, "commit pair depends only on the induced allocation", body)


def test_criterion_8_individual_rationality():
    """Truthful expected utility is never below -1e-12: commit mechanism on
    the all-linear scenarios, public-probability Clarke on everything."""

    def body():
        for e in linear_entries():
            s = with_truthful_reports(e.scenario)
            schedule = commit_payments(s)
            for i in range(s.n):
                assert expected_utility(s, i, schedule) >= -1e-12, (e.name, i)
        for e in corpus():
            s = with_truthful_reports(e.scenario)
            schedule = groves_payments(s, PivotRule.CLARKE, public_p=s.true_p())
            for i in range(s.n):
                assert expected_utility(s, i, schedule) >= -1e-12, (e.name, i)

    _verdict_line(8, "individual rationality holds for truthful reports", body)


def test_criterion_9_simulation_consistency():
    """Exact enumeration matches the analytic utilities to 1e-12 on linear
    scenarios; 200k Monte Carlo trials land within 3 standard errors; and a
    repeated run renders a byte-identical CSV."""

    def body():
        for e in linear_entries():
            s = with_truthful_reports(e.scenario)
            schedule = commit_payments(s)
            exact = exact_expected_utilities(s, schedule)
            for i in range(s.n):
                assert abs(exact[i] - expected_utility(s, i, schedule)) <= 1e-12, e.name

        s = by_name("linear-pair-profitable")
        schedule = commit_payments(s)
        exact = exact_expected_utilities(s, schedule)
        records, summary = run_trials(s, schedule, 200_000, seed=20260814)
        for i in range(s.n):
            gap = abs(summary.mean_utility[i] - exact[i])
            assert gap <= 3 * summary.stderr_utility[i], (i, gap)

        again_records, again_summary = run_trials(s, schedule, 200_000, seed=20260814)
        assert rendered_csv(records, summary) == rendered_csv(again_records, again_summary)

    _verdict_line(9, "simulation agrees with enumeration and reproduces", body)


def test_criterion_10_allocation_oracle():
    """The search returns the same welfare and the same allocation as an
    independent brute-force enumerator on every corpus scenario."""

    def body():
        for e in corpus():
            assert e.scenario.n <= 6
            rep = efficient_allocation(e.scenario)
            best, welfare = naive_best_allocation(e.scenario)
            assert rep.allocation == best, e.name
            assert rep.welfare == welfare, e.name

    _verdict_line(10, "allocation search matches the naive enumerator", body)