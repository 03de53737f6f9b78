"""Shared fixtures: an independent brute-force allocation oracle, a
per-deviation reference audit, numeric linearity and independence oracles
over a probability lattice, a record-by-record simulate CSV, a
per-vector settlement and a 2**n exact expectation reference, hypothesis
strategies for small random scenarios and for scenarios whose commuters
read few others, seeded scenarios of the benchmark's pricing shape,
scenarios that outgrow the walk's recursion, the trial-order summary
reductions, and a reference scenario parser and serializer."""

import contextlib
import inspect
import io
import itertools
import json
import math
import random
import sys
from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rideshare.allocation import efficient_allocation
from rideshare.cli import render_trials_csv
from rideshare.audit import (
    GAIN_TOLERANCE,
    AuditReport,
    Notion,
    Verdict,
    Witness,
    deviations_for,
)
from rideshare.model import (
    Assignment,
    Commuter,
    Role,
    Scenario,
    TripType,
    full_compatibility,
    with_report,
    with_truthful_reports,
)
from rideshare.payments import Conditional, ExcludedValueError, PivotRule, settled_utility
from rideshare.scenario_io import SCHEMA_VERSION, ScenarioFormatError, scenario_to_jsonable
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
    return tuple(assignments)


def all_none(allocation):
    """True when every commuter in `allocation` has role none."""
    return all(a.role is Role.NONE for a in allocation)


def naive_feasible_allocations(s):
    """Every feasible allocation, in lexicographic driver-choice order with
    self (-1) first. Enumerates the product of each commuter's choices
    (themselves, or any other commuter with a vehicle) and filters it; the
    vehicle owners alone are offered only so that eight commuters stay
    cheap, as `naive_choice_valid` rejects any other choice."""
    n = s.n
    candidate_lists = [
        [-1] + sorted(j for j in range(n) if j != i and s.commuters[j].has_vehicle)
        for i in range(n)
    ]
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
        if absent is not None and a[absent].role is not Role.NONE:
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
        h = efficient_allocation(profile, p_override=public_p, absent=i).welfare

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


def rendered_csv(run, summary):
    """The text `render_trials_csv` writes for a run."""
    out = io.StringIO()
    render_trials_csv(run, summary, out)
    return out.getvalue()


def csv_of_records(records, summary):
    """The simulate CSV written record by record, one row per trial and
    commuter, then the summary rows: the format spelled out field by
    field. A record is a tuple of the trial number, the commitment vector,
    then the values, payments and utilities of `settle_reference`."""

    def cell(x):
        return "" if x is None else repr(x)

    lines = ["trial,commuter,committed,value,payment,utility\n"]
    for trial, commit, values, payments, utilities, *_ in records:
        for k, bit in enumerate(commit):
            lines.append(f"{trial},{k},{bit},{cell(values[k])},"
                         f"{payments[k]!r},{cell(utilities[k])}\n")
    for k, mean_commit in enumerate(summary.mean_commit):
        lines.append(f"mean,{k},{mean_commit!r},{summary.mean_value[k]!r},"
                     f"{summary.mean_payment[k]!r},{summary.mean_utility[k]!r}\n")
        lines.append(f"stderr,{k},,,,{summary.stderr_utility[k]!r}\n")
    return "".join(lines)


def settle_commuter_reference(s, schedule, k, commit):
    """Commuter k's value, charge and utility after `commit`, settled from
    scratch: their true valuation evaluated at the 0/1 vector, and their
    conditional entry's commit or fail charge by their own bit, or their
    unconditional amount. Value and utility are None where the true
    valuation excludes the allocation."""
    c, entry = s.commuters[k], schedule.entries[k]
    v = evaluate(c.true_type.valuation, schedule.allocation, tuple(map(float, commit)))
    if isinstance(entry, Conditional):
        charge = entry.on_commit if commit[k] else entry.on_fail
    else:
        charge = entry.amount
    if v is EXCLUDED:
        return None, charge, None
    return v, charge, v - charge


def settle_reference(s, schedule, commit):
    """One trial's settlement after `commit`, its commitment vector,
    settled from scratch commuter by commuter: values, payments,
    utilities, welfare (the fsum of the values), deficit (the negated fsum
    of the payments) and the flag, set where some value is None."""
    values, payments, utilities = tuple(zip(*(settle_commuter_reference(s, schedule, k, commit)
                                              for k in range(s.n)))) or ((),) * 3
    welfare = math.fsum(v for v in values if v is not None)
    return values, payments, utilities, welfare, -math.fsum(payments), None in values


def trial_order_mean(xs):
    """The mean of a summary column reduced over its trials in trial
    order: `math.fsum` over the count, 0.0 for none."""
    return math.fsum(xs) / len(xs) if xs else 0.0


def trial_order_stderr(xs):
    """The standard error of a summary column reduced over its trials in
    trial order; 0.0 below two trials."""
    if len(xs) < 2:
        return 0.0
    m = trial_order_mean(xs)
    var = math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))


def reference_exact_expected_utilities(s, schedule):
    """Expected utilities by summing over all 2**n commitment vectors,
    weighted by the true commitment probabilities: the library's exact
    expectations as they were before they summed over each commuter's
    key alone, kept verbatim but for its bound on n and its settlement,
    which is `settle_reference`."""
    n = s.n
    p = s.true_p()
    totals = [[] for _ in range(n)]
    for commit in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for k in range(n):
            weight *= p[k] if commit[k] else 1.0 - p[k]
        values, _, utilities, *_ = settle_reference(s, schedule, commit)
        if None in values:
            raise ExcludedValueError(
                f"commuter {values.index(None)}: true valuation excludes the settled allocation"
            )
        for k, u in enumerate(utilities):
            totals[k].append(weight * u)
    return tuple(math.fsum(xs) for xs in totals)


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
    if evaluate(spec, allocation, [0.5] * len(allocation)) is EXCLUDED:
        return 0.0
    subjects = referenced_subjects(spec)[:4]
    worst = 0.0
    for p in _lattice(len(allocation), subjects, grid):
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
    if evaluate(spec, allocation, [0.5] * len(allocation)) is EXCLUDED:
        return 0.0
    subjects = referenced_subjects(spec)[:4]
    others = [j for j in subjects if j != spec.owner]
    if not others:
        return 0.0
    lattice = _lattice(len(allocation), (spec.owner, *others), grid)
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

    # Hypothesis takes a draw from range(odds) being 0 more often than 1 in
    # `odds`. Over the ci profile's runs of every property drawing these
    # scenarios, a ride is excluded in 1,583 of 4,850 draws (33%, odds 4)
    # and travelling alone in 130 of 911 (14%, odds 12). The pricing
    # property of test_allocation that reads the latter then raises on 228
    # of its 800 (probabilities, order) runs and compares on 572, so both
    # of its branches run.
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


FAMILIES = ("linear", "gated", "quadratic")


def bench_scale_scenario(family):
    """A seeded scenario of the benchmark's pricing shape: eight commuters,
    every other one a two-seat driver, each pair compatible with odds 0.85.
    Drivers pay to drive (more for a full car), give a bonus to one rider
    and, every other one, refuse to ride; riders value two preferred
    drivers above any other ride. Everyone values staying home at 0. The
    `family` sets how a preferred ride reads its driver's probability:
    linearly, also behind a threshold gate on it (`gated`), or squared
    (`quadratic`)."""
    n = 8
    rng = random.Random(family)
    drivers = list(range(0, n, 2))
    rows = [[True] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.random() < 0.85

    def number(lo, hi):
        return round(rng.uniform(lo, hi), 2)

    def clause(role, terms=(), partners=AnyPartners(), gates=(), excluded=False):
        return Clause(OutcomePattern(role, partners), tuple(gates), tuple(terms), excluded)

    def preferred(i, d):
        gates = ()
        if family == "gated":
            gates = (ThresholdGate(d, number(0.4, 0.8), GateDirection.AT_LEAST),)
        factors = ((i, 1), (d, 2 if family == "quadratic" else 1))
        return clause(Role.RIDE, [Monomial(number(2.0, 6.0), factors)],
                      ExactPartners(frozenset((d,))), gates)

    commuters = []
    for i in range(n):
        partners = [j for j in range(n) if j != i and rows[i][j]]
        mine = [d for d in partners if d in drivers]
        if i in drivers:
            cost = number(0.5, 2.5)
            clauses = [clause(Role.DRIVE, [Monomial(-cost - number(0.5, 2.0), ((i, 1),))],
                              PartnerCountAtLeast(2))]
            if partners:
                r = rng.choice(partners)
                clauses.append(clause(Role.DRIVE, [Monomial(-cost, ((i, 1),)),
                                                   Monomial(number(0.0, 1.5), ((i, 1), (r, 1)))],
                                      ExactPartners(frozenset((r,)))))
            clauses.append(clause(Role.DRIVE, [Monomial(-cost, ((i, 1),))]))
            if drivers.index(i) % 2 == 0:
                clauses.append(clause(Role.RIDE, excluded=True))
            else:
                clauses += [preferred(i, d) for d in mine[:1]]
                clauses.append(clause(Role.RIDE, [Monomial(number(0.5, 2.5), ((i, 1),))]))
        else:
            clauses = [preferred(i, d) for d in sorted(rng.sample(mine, min(2, len(mine))))]
            clauses.append(clause(Role.RIDE, [Monomial(number(0.5, 2.5), ((i, 1),))]))
            clauses.append(clause(Role.DRIVE, excluded=True))
        clauses.append(clause(Role.NONE))
        spec = ValuationSpec(i, tuple(clauses))
        trip = TripType(spec, number(0.3, 0.95))
        commuters.append(Commuter(i, i in drivers, 2 if i in drivers else 0, trip))
    return Scenario(tuple(commuters), tuple(tuple(row) for row in rows))


# A reference scenario parser, written for plainness over speed: each
# field goes through an `_as_*` or `_require_keys` helper that is handed
# the field's full path, built whether or not it raises. The package's
# parser reads each field through one checker too, but names fields
# relative to the object it reads and builds a path only to raise.
# `tests/test_scenario_io.py` holds it to this one's results, error texts
# and order of checks.


def _require_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioFormatError(f"{path}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            raise ScenarioFormatError(f"{path}.{key}", "missing field")


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(path, f"expected a finite number, got {value!r}")
    return number


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioFormatError(path, f"expected a boolean, got {value!r}")
    return value


def _parse_pattern(clause: dict, path: str) -> OutcomePattern:
    role_name = clause["role"]
    try:
        role = Role(role_name)
    except ValueError:
        raise ScenarioFormatError(f"{path}.role", f"unknown role {role_name!r}")
    partners = clause.get("partners", "any")
    ppath = f"{path}.partners"
    if partners == "any":
        return OutcomePattern(role, AnyPartners())
    partners = _as_obj(partners, ppath)
    _require_keys(partners, ppath, (), ("exact", "at_least"))
    if "exact" in partners and "at_least" in partners:
        raise ScenarioFormatError(ppath, "choose one of exact / at_least")
    if "exact" in partners:
        ids: set[int] = set()
        for k, v in enumerate(_as_list(partners["exact"], f"{ppath}.exact")):
            ident = _as_int(v, f"{ppath}.exact[{k}]")
            if ident in ids:
                raise ScenarioFormatError(f"{ppath}.exact[{k}]", f"repeated id {ident}")
            ids.add(ident)
        return OutcomePattern(role, ExactPartners(frozenset(ids)))
    if "at_least" in partners:
        return OutcomePattern(role, PartnerCountAtLeast(_as_int(partners["at_least"], f"{ppath}.at_least")))
    raise ScenarioFormatError(ppath, "expected \"any\", exact, or at_least")


def _parse_clause(value: Any, path: str) -> Clause:
    obj = _as_obj(value, path)
    _require_keys(obj, path, ("role",), ("partners", "gates", "terms", "excluded"))
    pattern = _parse_pattern(obj, path)
    gates = []
    for k, g in enumerate(_as_list(obj.get("gates", []), f"{path}.gates")):
        gpath = f"{path}.gates[{k}]"
        gobj = _as_obj(g, gpath)
        _require_keys(gobj, gpath, ("subject", "bound", "direction"))
        try:
            direction = GateDirection(gobj["direction"])
        except ValueError:
            raise ScenarioFormatError(f"{gpath}.direction", f"unknown direction {gobj['direction']!r}")
        gates.append(ThresholdGate(
            _as_int(gobj["subject"], f"{gpath}.subject"),
            _as_number(gobj["bound"], f"{gpath}.bound"),
            direction,
        ))
    terms = []
    for k, t in enumerate(_as_list(obj.get("terms", []), f"{path}.terms")):
        tpath = f"{path}.terms[{k}]"
        tobj = _as_obj(t, tpath)
        _require_keys(tobj, tpath, ("coefficient",), ("factors",))
        factors = []
        for fk, f in enumerate(_as_list(tobj.get("factors", []), f"{tpath}.factors")):
            fpath = f"{tpath}.factors[{fk}]"
            fobj = _as_obj(f, fpath)
            _require_keys(fobj, fpath, ("subject", "exponent"))
            factors.append((
                _as_int(fobj["subject"], f"{fpath}.subject"),
                _as_int(fobj["exponent"], f"{fpath}.exponent"),
            ))
        terms.append(Monomial(_as_number(tobj["coefficient"], f"{tpath}.coefficient"), tuple(factors)))
    excluded = _as_bool(obj.get("excluded", False), f"{path}.excluded")
    return Clause(pattern, tuple(gates), tuple(terms), excluded)


def _parse_valuation(value: Any, path: str) -> ValuationSpec:
    obj = _as_obj(value, path)
    _require_keys(obj, path, ("owner", "clauses"), ("default_value",))
    clauses = tuple(
        _parse_clause(c, f"{path}.clauses[{k}]")
        for k, c in enumerate(_as_list(obj["clauses"], f"{path}.clauses"))
    )
    return ValuationSpec(
        _as_int(obj["owner"], f"{path}.owner"),
        clauses,
        _as_number(obj.get("default_value", 0.0), f"{path}.default_value"),
    )


def _parse_trip(value: Any, path: str) -> TripType:
    obj = _as_obj(value, path)
    _require_keys(obj, path, ("p_commit", "valuation"))
    return TripType(
        _parse_valuation(obj["valuation"], f"{path}.valuation"),
        p_commit=_as_number(obj["p_commit"], f"{path}.p_commit"),
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioFormatError("<document>", f"duplicate key {key!r}")
        obj[key] = value
    return obj


def reference_parse_scenario_text(text: str) -> Scenario:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ScenarioFormatError:
        raise
    except RecursionError:
        raise ScenarioFormatError("<document>", "JSON nested too deeply to parse")
    except ValueError as e:  # invalid JSON, or an integer past the digit limit
        raise ScenarioFormatError("<document>", f"invalid JSON: {e}")
    top = _as_obj(data, "<document>")
    _require_keys(top, "<document>", ("schema_version", "scenario"))
    version = _as_int(top["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            "schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}"
        )
    sobj = _as_obj(top["scenario"], "scenario")
    _require_keys(sobj, "scenario", ("commuters", "compatibility"), ("metadata",))
    commuters = []
    for k, c in enumerate(_as_list(sobj["commuters"], "scenario.commuters")):
        path = f"scenario.commuters[{k}]"
        cobj = _as_obj(c, path)
        _require_keys(cobj, path, ("id", "has_vehicle", "seat_capacity", "true_type"),
                      ("reported_type",))
        reported = None
        if "reported_type" in cobj:
            reported = _parse_trip(cobj["reported_type"], f"{path}.reported_type")
        commuters.append(Commuter(
            id=_as_int(cobj["id"], f"{path}.id"),
            has_vehicle=_as_bool(cobj["has_vehicle"], f"{path}.has_vehicle"),
            seat_capacity=_as_int(cobj["seat_capacity"], f"{path}.seat_capacity"),
            true_type=_parse_trip(cobj["true_type"], f"{path}.true_type"),
            reported_type=reported,
        ))
    rows = []
    for i, row in enumerate(_as_list(sobj["compatibility"], "scenario.compatibility")):
        rows.append(tuple(
            _as_bool(v, f"scenario.compatibility[{i}][{j}]")
            for j, v in enumerate(_as_list(row, f"scenario.compatibility[{i}]"))
        ))
    metadata = {}
    if "metadata" in sobj:
        mobj = _as_obj(sobj["metadata"], "scenario.metadata")
        for key, value in mobj.items():
            if not isinstance(value, str):
                raise ScenarioFormatError(f"scenario.metadata.{key}", "metadata values must be strings")
            metadata[key] = value
    return Scenario(tuple(commuters), tuple(rows), metadata)


# The reference serializer: json's own encoder over the same document.
# `tests/test_scenario_io.py` holds the package's writer to its bytes.
def reference_serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_jsonable(s), indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="session")
def corpus_entries():
    from rideshare.corpus import corpus

    return corpus()
