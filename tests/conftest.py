"""Shared fixtures: an independent brute-force allocation oracle, a
per-deviation reference audit, numeric linearity and independence oracles
over a probability lattice, a record-by-record simulate CSV, hypothesis
strategies for small random scenarios and for scenarios whose commuters
read few others, and scenarios that outgrow the walk's recursion or
overflow a settled utility or a pivot search."""

import contextlib
import inspect
import itertools
import math
import sys

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rideshare.allocation import efficient_allocation, efficient_allocation_excluding
from rideshare.audit import (
    GAIN_TOLERANCE,
    AuditReport,
    Notion,
    Verdict,
    Witness,
    deviations_for,
)
from rideshare.model import (
    Allocation,
    Assignment,
    Commuter,
    Role,
    Scenario,
    TripType,
    full_compatibility,
    with_report,
    with_truthful_reports,
)
from rideshare.payments import ExcludedValueError, PivotRule, settled_utility
from rideshare.valuation import (
    AnyPartners,
    Clause,
    EXCLUDED,
    ExactPartners,
    GateDirection,
    Monomial,
    OutcomePattern,
    PartnerCountAtLeast,
    ThresholdGate,
    ValuationSpec,
    evaluate,
    referenced_subjects,
    substitute,
)

LINEARITY_TOLERANCE = 1e-9
INDEPENDENCE_TOLERANCE = 1e-12

# `--hypothesis-profile=ci` draws the same examples on every run and Python
# version, and prints a failure's reproduction blob; local runs keep the
# default profile.
settings.register_profile("ci", derandomize=True, print_blob=True)


def naive_choice_valid(s, choices):
    """Check a raw driver-choice vector from scratch, without reusing any
    feasibility logic from the package."""
    riders_of = {}
    for i, d in enumerate(choices):
        if d == -1:
            continue
        if d == i:
            return False
        c = s.commuters[d]
        if not c.has_vehicle:
            return False
        if not s.compatibility[i][d]:
            return False
        if choices[d] != -1:
            return False
        riders_of.setdefault(d, []).append(i)
    for d, riders in riders_of.items():
        if len(riders) > s.commuters[d].seat_capacity:
            return False
    return True


def naive_allocation_from_choices(s, choices):
    riders_of = {}
    for i, d in enumerate(choices):
        if d != -1:
            riders_of.setdefault(d, set()).add(i)
    assignments = []
    for i, d in enumerate(choices):
        if d != -1:
            assignments.append(Assignment(Role.RIDE, frozenset({d})))
        elif i in riders_of:
            assignments.append(Assignment(Role.DRIVE, frozenset(riders_of[i])))
        else:
            assignments.append(Assignment(Role.NONE, frozenset()))
    return Allocation(tuple(assignments))


def naive_feasible_allocations(s):
    """Every feasible allocation, in lexicographic driver-choice order with
    self (-1) first. Enumerates the full candidate product and filters."""
    n = s.n
    candidate_lists = [[-1] + sorted(j for j in range(n) if j != i) for i in range(n)]
    out = []
    for choices in itertools.product(*candidate_lists):
        if naive_choice_valid(s, choices):
            out.append(naive_allocation_from_choices(s, choices))
    return out


def naive_efficient(s, p=None, absent=None):
    """First strict welfare maximizer over the naive enumeration, scored from
    scratch: every present commuter is evaluated on every allocation that
    leaves the absent commuter with role none, and the absent commuter
    counts 0.0. Returns (allocation, welfare, per_commuter)."""
    if p is None:
        p = s.reported_p()
    best = None
    best_welfare = None
    best_values = None
    for a in naive_feasible_allocations(s):
        if absent is not None and a.assignments[absent].role is not Role.NONE:
            continue
        values = [
            0.0 if c.id == absent else evaluate(c.reported_type.valuation, a, p, absent)
            for c in s.commuters
        ]
        if any(v is EXCLUDED for v in values):
            continue
        w = math.fsum(values)
        if best_welfare is None or w > best_welfare:
            best = a
            best_welfare = w
            best_values = tuple(values)
    return best, best_welfare, best_values


def naive_best_allocation(s, p=None):
    """The allocation and welfare of `naive_efficient` with nobody absent."""
    return naive_efficient(s, p)[:2]


def reference_sweep(profile, i, mechanism, devs, opponents=()):
    """Commuter i's first maximal-gain deviation among `devs` against
    `profile`, or None if none gains, and the number of deviations whose
    replay raises ExcludedValueError. Each deviation rebuilds the scenario
    with `with_report`, re-runs `efficient_allocation` and settles through
    `Mechanism.entry`, sharing nothing with any other deviation."""
    public_p = mechanism.probabilities(profile)
    h = 0.0
    if mechanism.pivot is PivotRule.CLARKE:
        h = efficient_allocation_excluding(profile, i, p_override=public_p).welfare

    def utility(trip):
        bent = with_report(profile, i, trip)
        rep = efficient_allocation(bent, p_override=public_p)
        return settled_utility(bent, i, rep.allocation, mechanism.entry(bent, h, rep, i))

    u_truth = utility(profile.commuters[i].true_type)
    found = None
    excluded = 0
    for trip in devs:
        try:
            u = utility(trip)
        except ExcludedValueError:
            excluded += 1
            continue
        gain = u - u_truth
        if gain > (0.0 if found is None else found.gain):
            found = Witness(i, trip, u_truth, u, gain, opponents)
    return found, excluded


def reference_audit(s, mechanism, space, opponent_space=None):
    """The audit replayed one deviation at a time by `reference_sweep`.
    Same sweep order, tie-breaks and exclusion count as `rideshare.audit`;
    the opponent grid is swept when `opponent_space` is given (dominant),
    else everyone else stays truthful (ex post)."""
    base = with_truthful_reports(s)
    truth = [c.true_type for c in base.commuters]
    best = None
    excluded = 0
    for i in range(base.n):
        devs = deviations_for(truth[i], space)
        others = [] if opponent_space is None else [j for j in range(base.n) if j != i]
        grids = [[truth[j]] + deviations_for(truth[j], opponent_space) for j in others]
        for combo in itertools.product(*grids):
            profile = base
            for j, trip in zip(others, combo):
                profile = with_report(profile, j, trip)
            found, skipped = reference_sweep(profile, i, mechanism, devs, tuple(zip(others, combo)))
            excluded += skipped
            if found is not None and (best is None or found.gain > best.gain):
                best = found
    violated = best is not None and best.gain > GAIN_TOLERANCE
    return AuditReport(
        mechanism=mechanism,
        notion=Notion.EX_POST if opponent_space is None else Notion.DOMINANT,
        verdict=Verdict.VIOLATED if violated else Verdict.NO_VIOLATION_FOUND,
        witness=best if violated else None,
        space=space,
        opponent_space=opponent_space,
        excluded_deviations=excluded,
    )


def bernoulli_expectation(spec, allocation, p):
    """Exact expectation of the valuation over independent commit draws:
    sum over all 2^n commit vectors, weighting each by its probability."""
    n = len(p)
    total = 0.0
    for bits in itertools.product((0.0, 1.0), repeat=n):
        weight = 1.0
        for pi, b in zip(p, bits):
            weight *= pi if b == 1.0 else 1.0 - pi
        if weight == 0.0:
            continue
        v = evaluate(spec, allocation, bits)
        assert v is not EXCLUDED
        total += weight * v
    return total


def csv_of_records(records, summary):
    """The simulate CSV written record by record, one row per trial and
    commuter, then the summary rows: the format spelled out field by
    field."""

    def cell(x):
        return "" if x is None else repr(x)

    lines = ["trial,commuter,committed,value,payment,utility\n"]
    for r in records:
        for k, bit in enumerate(r.commit):
            lines.append(f"{r.trial},{k},{bit},{cell(r.values[k])},"
                         f"{r.payments[k]!r},{cell(r.utilities[k])}\n")
    for k, mean_commit in enumerate(summary.mean_commit):
        lines.append(f"mean,{k},{mean_commit!r},{summary.mean_value[k]!r},"
                     f"{summary.mean_payment[k]!r},{summary.mean_utility[k]!r}\n")
        lines.append(f"stderr,{k},,,,{summary.stderr_utility[k]!r}\n")
    return "".join(lines)


def _lattice(n, subjects, grid):
    """Probability vectors with every subject on `grid` evenly spaced points
    over [0, 1] and everyone else at 0.5; the first subject varies slowest."""
    if grid < 3:
        raise ValueError(f"grid must be at least 3, got {grid}")
    points = [k / (grid - 1) for k in range(grid)]
    for combo in itertools.product(points, repeat=len(subjects)):
        p = [0.5] * n
        for subject, value in zip(subjects, combo):
            p[subject] = value
        yield tuple(p)


def linearity_residual(spec, allocation, grid=5):
    """Worst absolute gap between the value and its coordinate-wise affine
    interpolation over a grid lattice. Zero (up to noise) means linear.
    Only the first four referenced subjects (owner included, in id order)
    are put on the lattice, so a bend in any later subject goes unseen.
    Returns 0.0 outright when the outcome is excluded for the owner."""
    if evaluate(spec, allocation, [0.5] * len(allocation.assignments)) is EXCLUDED:
        return 0.0
    subjects = referenced_subjects(spec)[:4]
    worst = 0.0
    for p in _lattice(len(allocation.assignments), subjects, grid):
        v = evaluate(spec, allocation, p)
        for j in subjects:
            v1 = evaluate(spec, allocation, substitute(p, j, 1.0))
            v0 = evaluate(spec, allocation, substitute(p, j, 0.0))
            residual = abs(v - (p[j] * v1 + (1.0 - p[j]) * v0))
            if residual > worst:
                worst = residual
    return worst


def check_linearity_numeric(spec, allocation, grid=5):
    return linearity_residual(spec, allocation, grid) <= LINEARITY_TOLERANCE


def independence_spread(spec, allocation, grid=5):
    """Worst value spread across others' probabilities with the owner's
    probability held fixed, over a grid lattice. Only the first four
    referenced subjects (owner included, in id order) are varied."""
    if evaluate(spec, allocation, [0.5] * len(allocation.assignments)) is EXCLUDED:
        return 0.0
    subjects = referenced_subjects(spec)[:4]
    others = [j for j in subjects if j != spec.owner]
    if not others:
        return 0.0
    lattice = _lattice(len(allocation.assignments), (spec.owner, *others), grid)
    worst = 0.0
    for _, group in itertools.groupby(lattice, key=lambda p: p[spec.owner]):
        values = [evaluate(spec, allocation, p) for p in group]
        worst = max(worst, max(values) - min(values))
    return worst


def check_independence_numeric(spec, allocation, grid=5):
    return independence_spread(spec, allocation, grid) <= INDEPENDENCE_TOLERANCE


def _linear_spec(owner, n, coefficients):
    """Valuation with one multilinear monomial per role, built from a flat
    coefficient list so hypothesis can drive it."""
    drive_coeff, ride_coeff = coefficients
    subjects = tuple(range(n))
    factors = tuple((j, 1) for j in subjects)
    clauses = (
        Clause(OutcomePattern(Role.DRIVE, AnyPartners()), (),
               (Monomial(drive_coeff, factors),), False),
        Clause(OutcomePattern(Role.RIDE, AnyPartners()), (),
               (Monomial(ride_coeff, factors),), False),
        Clause(OutcomePattern(Role.NONE, AnyPartners()), (), (), False),
    )
    return ValuationSpec(owner, clauses, 0.0)


@st.composite
def small_scenarios(draw):
    """Scenarios with 1 to 4 commuters, multilinear valuations, and a random
    symmetric compatibility matrix."""
    n = draw(st.integers(min_value=1, max_value=4))
    coeff = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, width=32)
    commuters = []
    for i in range(n):
        has_vehicle = draw(st.booleans())
        capacity = draw(st.integers(min_value=0, max_value=3)) if has_vehicle else 0
        spec = _linear_spec(i, n, (draw(coeff), draw(coeff)))
        p = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=16))
        commuters.append(Commuter(i, has_vehicle, capacity, TripType(spec, p)))
    if draw(st.booleans()):
        compat = full_compatibility(n)
    else:
        rows = [[True] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                ok = draw(st.booleans())
                rows[i][j] = ok
                rows[j][i] = ok
        compat = tuple(tuple(r) for r in rows)
    return Scenario(tuple(commuters), compat)


# Values that tie exactly, sums one ulp apart near 1, and magnitudes (2**54
# and the 2**60 rescaling) at which adding them rounds such sums together.
TIE_VALUES = (0.0, 1.0, -1.0, 2.0, 3.0, 1.0 + 2**-52, 1.0 - 2**-53, 2.0**54, -(2.0**54))


@st.composite
def pivot_scenarios(draw, excluding_none=True):
    """Two to five fully compatible commuters whose values read few others'
    probabilities, so each pivot has readers and non-readers. Each outcome
    is valued at a constant from `TIE_VALUES`, plus maybe a factor, linear
    or squared, on some commuter's probability and maybe a gate on one;
    some rides are excluded. Reported probabilities differ from the true
    ones. With `excluding_none`, a commuter may also exclude travelling
    alone, which validation forbids, so a search may find no acceptable
    allocation."""
    n = draw(st.integers(min_value=2, max_value=5))
    value = st.sampled_from(TIE_VALUES)
    subject = st.integers(min_value=0, max_value=n - 1)
    probability = st.sampled_from((0.0, 0.25, 0.5, 1.0))

    def valued(pattern):
        terms = [Monomial(draw(value))]
        if draw(st.booleans()):
            terms.append(Monomial(draw(value), ((draw(subject), draw(st.sampled_from((1, 2)))),)))
        gates = ()
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            gates = (ThresholdGate(draw(subject), draw(probability),
                                   draw(st.sampled_from(GateDirection))),)
        return Clause(pattern, gates, tuple(terms))

    def maybe_excluded(pattern, odds):
        if draw(st.integers(min_value=0, max_value=odds - 1)) == 0:
            return Clause(pattern, excluded=True)
        return valued(pattern)

    commuters = []
    for k in range(n):
        clauses = [valued(OutcomePattern(Role.DRIVE, PartnerCountAtLeast(2))),
                   valued(OutcomePattern(Role.DRIVE))]
        clauses += [maybe_excluded(OutcomePattern(Role.RIDE, ExactPartners(frozenset({d}))), 4)
                    for d in range(n) if d != k]
        none = OutcomePattern(Role.NONE)
        clauses.append(maybe_excluded(none, 12) if excluding_none else valued(none))
        spec = ValuationSpec(k, tuple(clauses))
        has_vehicle = draw(st.booleans())
        capacity = draw(st.integers(min_value=1, max_value=2)) if has_vehicle else 0
        commuters.append(Commuter(k, has_vehicle, capacity, TripType(spec, draw(probability)),
                                  TripType(spec, draw(probability))))
    return Scenario(tuple(commuters), full_compatibility(n))


def solo_commuters(n):
    """`n` commuters without vehicles, each compatible only with themselves:
    the walk recurses through all of them to find the one allocation."""
    commuters = tuple(
        Commuter(k, False, 0, TripType(ValuationSpec(k, ()), 0.5)) for k in range(n))
    return Scenario(commuters, tuple(tuple(i == j for j in range(n)) for i in range(n)))


@contextlib.contextmanager
def recursion_headroom(frames):
    """Within the block, the interpreter's recursion limit sits `frames`
    above the current stack depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def overflowing_settlement_scenario():
    """Three fully compatible commuters whose commit settlement overflows.

    0 drives 1 and 2 (capacity 2), 1 and 2 ride; 0 and 1 truly never show
    up but report certainty, 2 shows up with probability 0.49. Near the
    float limit, 2's commit pair is (1.7e308, -1.7e308), so 2's settled
    utility is +inf when 2 stays home and -inf when 2 commits."""
    at_least_zero = (ThresholdGate(2, 0.0, GateDirection.AT_LEAST),)
    excluded = {role: Clause(OutcomePattern(role), excluded=True) for role in Role}

    def valued(role, terms, pattern=AnyPartners(), gates=()):
        return Clause(OutcomePattern(role, pattern), gates, terms)

    driver = ValuationSpec(0, (
        valued(Role.DRIVE, (Monomial(0.85e308, ((0, 1),)), Monomial(-1.7e308, ((2, 1), (0, 1)))),
               ExactPartners(frozenset({1, 2})), at_least_zero),
        excluded[Role.DRIVE],
        excluded[Role.RIDE],
        valued(Role.NONE, ()),
    ))
    rider = ValuationSpec(1, (
        valued(Role.RIDE, (Monomial(0.85e308, ((1, 1),)), Monomial(-1.7e308, ((2, 1), (1, 1)))),
               gates=at_least_zero),
        excluded[Role.DRIVE],
        valued(Role.NONE, ()),
    ))
    late = ValuationSpec(2, (
        valued(Role.RIDE, (Monomial(0.15e308), Monomial(-0.3e308, ((2, 1),)))),
        excluded[Role.DRIVE],
        valued(Role.NONE, ()),
    ))
    return Scenario((
        Commuter(0, True, 2, TripType(driver, 0.0), TripType(driver, 1.0)),
        Commuter(1, False, 0, TripType(rider, 0.0), TripType(rider, 1.0)),
        Commuter(2, False, 0, TripType(late, 0.49)),
    ), full_compatibility(3))


_BIG = 1e308


def reader_overflow_scenario(driver, capacity):
    """Commuter 2 drives `capacity` riders with `driver`'s clauses, and 0
    and 1 may ride with them. Riding is worth 1e308 - 1e308 * p1 + 1e308
    to 0, which is 1e308 at p1 = 1 but passes the float range when 1 is
    absent, so pricing without 1 overflows wherever it values 0 riding."""
    reader = ValuationSpec(0, (
        Clause(OutcomePattern(Role.RIDE),
               terms=(Monomial(_BIG), Monomial(-_BIG, ((1, 1),)), Monomial(_BIG))),
        Clause(OutcomePattern(Role.NONE)),
    ))
    return Scenario((
        Commuter(0, False, 0, TripType(reader, 1.0)),
        Commuter(1, False, 0, TripType(ValuationSpec(1, ()), 1.0)),
        Commuter(2, True, capacity, TripType(ValuationSpec(2, driver), 1.0)),
    ), full_compatibility(3))


# `reader_overflow_scenario` arguments. A refusing driver excludes every
# allocation where 0 rides, but only at 2, after 0 is scored. An
# overflowing driver values carrying both riders at 1e308 + 1e308, so the
# full search overflows on the walk's last allocation, after the search
# without 1 would on an earlier one.
REFUSING_DRIVER = ((Clause(OutcomePattern(Role.DRIVE), excluded=True),), 1)
OVERFLOWING_DRIVER = ((
    Clause(OutcomePattern(Role.DRIVE, PartnerCountAtLeast(2)),
           terms=(Monomial(_BIG), Monomial(_BIG))),
    Clause(OutcomePattern(Role.DRIVE)),
), 2)


@pytest.fixture(scope="session")
def corpus_entries():
    from rideshare.corpus import corpus

    return corpus()
