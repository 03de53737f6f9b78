"""Brute-force deviation audits for truthfulness, plus a suite of bundled
scenarios with known verdicts.

An audit sweeps a commuter's report over a finite deviation grid (commitment
probability points crossed with coefficient rescalings, optionally gate
edits) and compares true expected utility against truthful reporting. The
ex-post notion holds everyone else truthful; the dominant notion additionally
sweeps every opponent over a grid of misreports. A grid search can only ever
certify "no violation found", never truthfulness itself; a reported
violation, on the other hand, comes with a witness that replays exactly.
Both hold for a scenario that `validate_scenario` admits, whose magnitude
bounds keep every sum finite; other input has no guarantee.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

from .allocation import OutcomeTable
# Not called here; kept so that bench/tracer.py can still wrap them here.
from .allocation import efficient_allocation, efficient_allocation_excluding
from .model import CommuterId, Scenario, TripType, with_report, with_truthful_reports
from .payments import Evaluations, Mechanism, PivotRule, settled_utility
from .valuation import (
    MAX_SCALE,
    GateDirection,
    Monomial,
    ThresholdGate,
    ValuationSpec,
    substitute,
)

GAIN_TOLERANCE = 1e-9
MAX_DOMINANT_COMMUTERS = 4
# A dominant audit of the four-commuter corpus scenario linear-quad-full-van
# against 3-point opponent grids counts 1,720,320 scorings. Every sweep
# prunes its scorers, and the audit took 9.3-11.0 s under commit, where the
# certificate clears most sweeps, and 28.9-36.3 s under groves-clarke, 17-21
# µs a counted scoring (Python 3.11, shared 2-core VM), so this bounds such
# an audit, and each ex-post sweep, to under a minute. A scoring costs more
# where a sweep prices many opponent profiles, each with its own table. A
# dominant audit counts every grid's scorings before any grid is built, so
# a sweep the certificate clears without scoring (see `_sweep`) still
# counts toward it; an ex-post sweep counts its own grid only when the
# certificate leaves it to be built.
MAX_SCORINGS = 2_000_000
MAX_P_GRID = 10_001
_MAX_SCALE_COMBOS = 4096


class Notion(Enum):
    DOMINANT = "dominant"
    EX_POST = "expost"


class Verdict(Enum):
    NO_VIOLATION_FOUND = "no-violation-found"
    VIOLATED = "violated"


class AuditSizeError(ValueError):
    """An audit was refused, before any grid it counts was built, because
    it would not terminate in reasonable time: a dominant audit over too
    many commuters or scorings, or an ex-post sweep whose grid has more
    than MAX_SCORINGS deviations."""


@dataclass(frozen=True)
class DeviationSpace:
    """Finite grid of candidate misreports for one commuter.

    p_grid evenly spaced probability points over [0, 1]; every monomial
    coefficient is rescaled by each multiplier (cartesian across monomials,
    falling back to uniform rescaling when that product explodes). With
    gate_toggles set, variants that drop existing threshold gates or add a
    mid-range gate on a referenced commuter are tried as well. A scale
    above `valuation.MAX_SCALE` (2**32) in magnitude is refused: an
    admitted valuation rescaled by at most that still sums without
    overflow.
    """

    p_grid: int = 21
    coefficient_scales: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 10.0)
    gate_toggles: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.p_grid, int) or isinstance(self.p_grid, bool):
            raise ValueError(f"p_grid must be an int, got {type(self.p_grid).__name__}")
        if self.p_grid < 2:
            raise ValueError(f"p_grid must be at least 2, got {self.p_grid}")
        if self.p_grid > MAX_P_GRID:
            raise ValueError(f"p_grid must be at most {MAX_P_GRID}, got {self.p_grid}")
        for scale in self.coefficient_scales:
            if not abs(scale) <= MAX_SCALE:
                raise ValueError(f"coefficient scales must be within [-2**32, 2**32], "
                                 f"got {scale!r}")


# Each opponent's grid in a dominant audit, unless the caller gives one.
DEFAULT_OPPONENT_SPACE = DeviationSpace(p_grid=5)


@dataclass(frozen=True)
class Witness:
    commuter: CommuterId
    report: TripType
    truthful_utility: float
    deviated_utility: float
    gain: float
    opponent_reports: tuple[tuple[CommuterId, TripType], ...] = ()


@dataclass(frozen=True)
class AuditReport:
    """`excluded_deviations` is fixed at 0: a deviation keeps the true clause
    patterns and excluded flags, all that exclusion reads, and the argmax
    never picks an outcome a report excludes, so no deviation wins an
    outcome its deviator truly excludes. The field stays because
    bench/tracer.py (`_after_audit_expost`) reads it on every traced audit."""

    mechanism: Mechanism
    notion: Notion
    verdict: Verdict
    witness: Witness | None
    space: DeviationSpace
    opponent_space: DeviationSpace | None = None
    excluded_deviations: int = 0


def _scaled_spec(spec: ValuationSpec, combo: tuple[float, ...]) -> ValuationSpec:
    it = iter(combo)
    clauses = []
    for clause in spec.clauses:
        terms = tuple(Monomial(next(it) * t.coefficient, t.factors) for t in clause.terms)
        clauses.append(replace(clause, terms=terms))
    return replace(spec, clauses=tuple(clauses))


def _scale_combos(spec: ValuationSpec, scales: tuple[float, ...]) -> list[tuple[float, ...]]:
    m = sum(len(c.terms) for c in spec.clauses)
    identity = (1.0,) * m
    if m == 0:
        return [identity]
    if len(scales) ** m > _MAX_SCALE_COMBOS:
        combos = [(s,) * m for s in scales if s != 1.0]
    else:
        combos = [c for c in itertools.product(scales, repeat=m) if c != identity]
    return [identity] + combos


def _gate_variants(spec: ValuationSpec) -> list[ValuationSpec]:
    variants = [spec]
    positions = [
        (ci, gi)
        for ci, clause in enumerate(spec.clauses)
        for gi in range(len(clause.gates))
    ]
    for ci, gi in positions:
        clauses = list(spec.clauses)
        gates = tuple(g for k, g in enumerate(clauses[ci].gates) if k != gi)
        clauses[ci] = replace(clauses[ci], gates=gates)
        variants.append(replace(spec, clauses=tuple(clauses)))
    if len(positions) > 1:
        clauses = tuple(replace(c, gates=()) for c in spec.clauses)
        variants.append(replace(spec, clauses=clauses))
    for ci, clause in enumerate(spec.clauses):
        if clause.excluded or not clause.terms:
            continue
        subjects = sorted(
            {s for t in clause.terms for s, _ in t.factors if s != spec.owner}
        )
        for subject in subjects:
            clauses = list(spec.clauses)
            extra = ThresholdGate(subject, 0.5, GateDirection.AT_LEAST)
            clauses[ci] = replace(clause, gates=clause.gates + (extra,))
            variants.append(replace(spec, clauses=tuple(clauses)))
    return variants


def deviations_for(trip: TripType, space: DeviationSpace) -> list[TripType]:
    """Candidate misreports in a fixed order: probability points ascending,
    then the reported valuations of `_variants`. The order is the
    tie-break when several deviations share the maximal gain. Raises
    AuditSizeError, naming the valuation's owner, before building a grid
    of more than MAX_SCORINGS deviations."""
    variants = _variants(trip.valuation, space)
    scorings = space.p_grid * len(variants)
    if scorings > MAX_SCORINGS:
        raise AuditSizeError(
            f"ex-post audit would score {scorings} deviations of commuter "
            f"{trip.valuation.owner} and is refused above {MAX_SCORINGS}; use a smaller grid"
        )
    return _grid(variants, space)


def _grid(variants: list[ValuationSpec], space: DeviationSpace) -> list[TripType]:
    """Each of `variants` at each probability point of `space`, points
    ascending."""
    points = [k / (space.p_grid - 1) for k in range(space.p_grid)]
    return [TripType(spec, p_hat) for p_hat in points for spec in variants]


def _variants(spec: ValuationSpec, space: DeviationSpace) -> list[ValuationSpec]:
    """The valuations a deviation in `space` reports: truthful coefficients
    first, then rescalings, gate edits last."""
    variants = []
    for combo in _scale_combos(spec, space.coefficient_scales):
        scaled = _scaled_spec(spec, combo)
        variants.extend(_gate_variants(scaled) if space.gate_toggles else [scaled])
    return variants


def _sweep(
    table: OutcomeTable,
    i: CommuterId,
    mechanism: Mechanism,
    space: DeviationSpace,
    devs: list[TripType] | None,
    opponents: tuple[tuple[CommuterId, TripType], ...],
) -> Witness | None:
    """Commuter i's first maximal-gain deviation in `space` against the
    profile of `table`, priced at the probabilities `mechanism` reads, if
    any gains, as pricing each deviation afresh would find. `devs` is i's
    grid, or None to build it only if the sweep scores it, refused with
    AuditSizeError above MAX_SCORINGS deviations. The table may be shared
    with other sweeps against the same profile; this one asks it for i's
    pivot, then for the efficient report, the order in which a sweep's own
    searches would run.

    Where i's utility is fixed by the chosen allocation, the sweep first
    settles i on every outcome of the table (`_certified`); when none beats
    truth, no deviation gains and the sweep returns None without building
    or scoring the grid. Otherwise a frame starts at each new p̂_i under
    private probabilities, and one frame serves all under public ones; a
    frame asks the table for a new `scorer` only if someone reads p̂_i.
    Utilities are kept per reported valuation per frame, and per outcome
    per sweep where the outcome fixes them, else per frame. Every
    settlement evaluates through one memo per sweep, so i's true spec and
    each reader are evaluated once per assignment at each probability
    vector they are settled at.
    """
    profile = table.scenario
    # the pivot never reads i's report, so it is fixed per profile
    h = table.pivot(i) if mechanism.pivot is PivotRule.CLARKE else 0.0
    truth = table.truth()
    # Entries and settled utilities may read `profile` in place of the
    # deviated scenario: a commit entry reads the reported probabilities
    # only with p̂_i replaced by 1 and by 0, a Groves entry reads only `h`
    # and the others' values in the report, and `settled_utility` reads
    # only true types. So i's utility is fixed by the chosen allocation
    # under commit, and under Groves when nobody's value reads p̂_i: under
    # public probabilities, or when no other spec reads i's.
    memo = Evaluations()
    u_truth = settled_utility(
        profile, i, truth.allocation, mechanism.entry(profile, h, truth, i, memo), memo)
    readers = table.readers(i)
    by_outcome = mechanism is Mechanism.COMMIT_BASED or not readers
    # Memos key on ids, kept alive by `table` and `devs`.
    settled: dict[int, float] = {}
    if by_outcome and _certified(i, mechanism, h, u_truth, table, settled, memo):
        return None
    if devs is None:
        devs = deviations_for(profile.commuters[i].true_type, space)
    q = table.p
    p_hat = utilities = score = None
    best: Witness | None = None
    for trip in devs:
        if utilities is None or (table.private and trip.p_commit != p_hat):
            p_hat = trip.p_commit
            if table.private:
                q = substitute(table.p, i, p_hat)
            if score is None or readers:
                score = table.scorer(i, q)
            utilities = {}
            if not by_outcome:
                settled = {}
        spec_id = id(trip.valuation)
        if spec_id not in utilities:
            rep = score(trip.valuation, q)
            outcome = id(rep.allocation)
            if outcome not in settled:
                entry = mechanism.entry(profile, h, rep, i, memo)
                settled[outcome] = settled_utility(profile, i, rep.allocation, entry, memo)
            utilities[spec_id] = settled[outcome]
        u = utilities[spec_id]
        gain = u - u_truth
        if gain > (0.0 if best is None else best.gain):
            best = Witness(i, trip, u_truth, u, gain, opponents)
    return best


def _certified(
    i: CommuterId,
    mechanism: Mechanism,
    h: float,
    u_truth: float,
    table: OutcomeTable,
    settled: dict[int, float],
    memo: Evaluations,
) -> bool:
    """True when i, whose utility the chosen allocation fixes, gains
    nothing (`U(a) - u_truth <= 0.0`) on any outcome `a` of `table.rows()`.
    Each outcome settled, through `memo`, is filed in `settled` under the
    allocation's id. The rows carry i's own value, which no entry reads.

    Every report i can make wins one of those outcomes (the taxation
    principle), so then no deviation gains. Within the magnitude bounds of
    admitted input no scoring of the grid raises, and neither does this:
    i's report in the profile is i's truth, so no row is one i's truth or
    another report excludes.
    """
    profile = table.scenario
    for rep in table.rows():
        entry = mechanism.entry(profile, h, rep, i, memo)
        u = settled[id(rep.allocation)] = settled_utility(profile, i, rep.allocation, entry, memo)
        if u - u_truth > 0.0:
            return False
    return True


def _audit(
    s: Scenario,
    mechanism: Mechanism,
    space: DeviationSpace,
    opponent_space: DeviationSpace | None,
    devs: list[list[TripType]] | None,
    grids: list[list[TripType]] | None,
) -> AuditReport:
    """Sweep commuter i's deviations in `space`, the i-th list of `devs` if
    given, against each opponent profile: the truthful one alone for
    ex-post (`grids` None), else the product of the others' `grids`,
    truthful first. Ties keep the lowest commuter, then the first profile,
    then the first deviation. Ex post, every sweep shares the truthful
    profile's `OutcomeTable`; a dominant sweep prices its own profile."""
    base = with_truthful_reports(s)
    expost = OutcomeTable(base, mechanism.probabilities(base)) if grids is None else None
    best: Witness | None = None
    for i in range(base.n):
        own = None if devs is None else devs[i]
        others = [] if grids is None else [j for j in range(base.n) if j != i]
        for combo in itertools.product(*(grids[j] for j in others)):
            profile = base
            for j, trip in zip(others, combo):
                profile = with_report(profile, j, trip)
            table = expost or OutcomeTable(profile, mechanism.probabilities(profile))
            found = _sweep(table, i, mechanism, space, own, tuple(zip(others, combo)))
            if found is not None and (best is None or found.gain > best.gain):
                best = found
    violated = best is not None and best.gain > GAIN_TOLERANCE
    return AuditReport(
        mechanism=mechanism,
        notion=Notion.EX_POST if grids is None else Notion.DOMINANT,
        verdict=Verdict.VIOLATED if violated else Verdict.NO_VIOLATION_FOUND,
        witness=best if violated else None,
        space=space,
        opponent_space=opponent_space,
    )


def audit_expost(
    s: Scenario, mechanism: Mechanism, space: DeviationSpace = DeviationSpace()
) -> AuditReport:
    """Hold everyone else truthful and sweep each commuter's misreports.
    Returns the maximal-gain witness when any beats truth by more than
    the gain tolerance. Ties keep the lowest commuter id, then the first
    deviation in grid order. Every sweep runs against the truthful
    profile, so one `OutcomeTable` prices it for every commuter: the
    efficient report is searched once, each pivot once, and the outcomes
    are read from the same value tables. A commuter's grid is built and
    scored only when a one-pass certificate over the outcomes their
    reports can win does not already rule out every gain; raises
    AuditSizeError, before building it, when that grid has more than
    MAX_SCORINGS deviations."""
    return _audit(s, mechanism, space, None, None, None)


def audit_dominant(
    s: Scenario,
    mechanism: Mechanism,
    space: DeviationSpace = DeviationSpace(),
    opponent_space: DeviationSpace = DEFAULT_OPPONENT_SPACE,
) -> AuditReport:
    """Sweep each commuter's misreports against every grid profile of
    opponent misreports (truthful opponents included). Exhaustive in the
    grids, so cost grows as the profile product; refused above
    MAX_DOMINANT_COMMUTERS commuters, and above MAX_SCORINGS argmax
    scorings, counted from each grid's reported valuations before any grid
    is built. Each profile's sweep still tries the certificate first."""
    if s.n > MAX_DOMINANT_COMMUTERS:
        raise AuditSizeError(
            f"dominant audit over {s.n} commuters sweeps a full misreport profile "
            f"product and is refused above {MAX_DOMINANT_COMMUTERS}; use audit_expost "
            "or a smaller scenario"
        )
    # Σ_i |devs_i| × Π_{j≠i} |grids_j|, a grid being the true type and the
    # opponent deviations, with p_grid deviations per reported valuation.
    truth = [c.true_type for c in s.commuters]
    own = [_variants(t.valuation, space) for t in truth]
    theirs = [_variants(t.valuation, opponent_space) for t in truth]
    devs = [space.p_grid * len(v) for v in own]
    grids = [1 + opponent_space.p_grid * len(v) for v in theirs]
    scorings = sum(d * math.prod(g for j, g in enumerate(grids) if j != i)
                   for i, d in enumerate(devs))
    if scorings > MAX_SCORINGS:
        raise AuditSizeError(
            f"dominant audit would score {scorings} deviations against opponent "
            f"profiles and is refused above {MAX_SCORINGS}; use smaller "
            "grids or audit_expost"
        )
    return _audit(s, mechanism, space, opponent_space, [_grid(v, space) for v in own],
                  [[t] + _grid(v, opponent_space) for t, v in zip(truth, theirs)])


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    scenario: Scenario
    mechanism: Mechanism
    expected: Verdict


def truthfulness_suite() -> tuple[SuiteEntry, ...]:
    """Bundled scenarios with known ex-post audit verdicts: private
    commitment probabilities break the classic mechanism, public ones or
    commitment-settled payments with affine valuations repair it, and a
    threshold gate or squared reliability term breaks the repair."""
    from .corpus import by_name

    v = Verdict
    return (
        SuiteEntry("groves-clarke-private-probabilities", by_name("linear-pair-profitable"),
                   Mechanism.GROVES_CLARKE, v.VIOLATED),
        SuiteEntry("groves-clarke-public-probabilities", by_name("linear-pair-profitable"),
                   Mechanism.GROVES_CLARKE_PUBLIC_P, v.NO_VIOLATION_FOUND),
        SuiteEntry("commit-based-linear-pair", by_name("linear-pair-profitable"),
                   Mechanism.COMMIT_BASED, v.NO_VIOLATION_FOUND),
        SuiteEntry("commit-based-linear-trio", by_name("linear-trio-two-drivers"),
                   Mechanism.COMMIT_BASED, v.NO_VIOLATION_FOUND),
        SuiteEntry("commit-based-linear-quad", by_name("linear-quad-competition"),
                   Mechanism.COMMIT_BASED, v.NO_VIOLATION_FOUND),
        SuiteEntry("commit-based-threshold-gate", by_name("threshold-gate-pair"),
                   Mechanism.COMMIT_BASED, v.VIOLATED),
        SuiteEntry("commit-based-quadratic-exponent", by_name("quadratic-reliability-pair"),
                   Mechanism.COMMIT_BASED, v.VIOLATED),
    )
