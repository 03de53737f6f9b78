"""Brute-force deviation audits for truthfulness, plus a suite of bundled
scenarios with known verdicts.

An audit sweeps a commuter's report over a finite deviation grid (commitment
probability points crossed with coefficient rescalings, optionally gate
edits) and compares true expected utility against truthful reporting. The
ex-post notion holds everyone else truthful; the dominant notion additionally
sweeps every opponent over a grid of misreports. A grid search can only ever
certify "no violation found", never truthfulness itself; a reported
violation, on the other hand, comes with a witness that replays exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum

from .allocation import DeviationFrames, OutcomeTable, bounded
# Not called here; kept so that bench/tracer.py can still wrap them here.
from .allocation import efficient_allocation, efficient_allocation_excluding
from .model import CommuterId, Scenario, TripType, with_report, with_truthful_reports
from .payments import Evaluations, Mechanism, PivotRule, settled_utility
from .valuation import GateDirection, Monomial, ThresholdGate, ValuationSpec

GAIN_TOLERANCE = 1e-9
MAX_DOMINANT_COMMUTERS = 4
# A four-commuter corpus scenario scores at about 12 µs a deviation
# (1,720,320 scorings of linear-quad-full-van against 3-point opponent grids
# took 20-22 s under commit and groves-clarke with Python 3.11 on an idle
# 2-core VM, and up to twice that on a loaded one), so this bounds a
# dominant sweep to under a minute. The budget counts the scorings of every
# grid before any sweep runs, so a sweep the certificate clears without
# scoring (see `_sweep`) still counts toward it.
MAX_DOMINANT_SCORINGS = 2_000_000
MAX_P_GRID = 10_001
_MAX_SCALE_COMBOS = 4096


class Notion(Enum):
    DOMINANT = "dominant"
    EX_POST = "expost"


class Verdict(Enum):
    NO_VIOLATION_FOUND = "no-violation-found"
    VIOLATED = "violated"


class AuditSizeError(ValueError):
    """The dominant sweep was refused because it would not terminate in
    reasonable time."""


@dataclass(frozen=True)
class DeviationSpace:
    """Finite grid of candidate misreports for one commuter.

    p_grid evenly spaced probability points over [0, 1]; every monomial
    coefficient is rescaled by each multiplier (cartesian across monomials,
    falling back to uniform rescaling when that product explodes). With
    gate_toggles set, variants that drop existing threshold gates or add a
    mid-range gate on a referenced commuter are tried as well.
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
            if not math.isfinite(scale):
                raise ValueError(f"coefficient scales must be finite, got {scale!r}")


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
    """`excluded_deviations` is fixed at 0, kept for readers of the field: a
    deviation keeps the true clause patterns and excluded flags, all that
    exclusion reads, and the argmax never picks an outcome a report excludes,
    so no deviation wins an outcome its deviator truly excludes."""

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
    truthful coefficients before rescalings, gate edits last. The order is
    the tie-break when several deviations share the maximal gain. A
    rescaling is skipped when some clause's sum of |coefficient| is not
    finite: that sum bounds the clause's total at any probabilities in
    [0, 1], so every kept rescaling totals to a finite value, and the
    audit never blames the scenario for an overflow of its own making. The
    truthful coefficients are always kept."""
    points = [k / (space.p_grid - 1) for k in range(space.p_grid)]
    variant_lists = []
    for k, combo in enumerate(_scale_combos(trip.valuation, space.coefficient_scales)):
        scaled = _scaled_spec(trip.valuation, combo)
        if k and not all(
            math.isfinite(sum(abs(t.coefficient) for t in c.terms)) for c in scaled.clauses
        ):
            continue
        variant_lists.append(_gate_variants(scaled) if space.gate_toggles else [scaled])
    return [TripType(spec, p_hat) for p_hat in points for variants in variant_lists for spec in variants]


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
    grid, or None to build it only if the sweep scores it. The table may be
    shared with other sweeps against the same profile; this one asks it
    for i's pivot, then for the efficient report, the order in which a
    sweep's own searches would run.

    Where i's utility is fixed by the chosen allocation, the sweep first
    settles i on every outcome of the table (`_certified`); when none
    beats truth, no deviation gains and the sweep returns None without
    building or scoring the grid or starting a frame. Otherwise each new
    p̂_i starts a frame of `DeviationFrames` under private probabilities;
    one frame serves all under public ones. Utilities are kept per reported
    valuation per frame, and per outcome per sweep where the outcome fixes
    them, else per frame. Every settlement evaluates through one memo per
    sweep, so i's true spec and each reader are evaluated once per
    assignment at each probability vector they are settled at.
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
    by_outcome = mechanism is Mechanism.COMMIT_BASED or not table.readers(i)
    # Memos key on ids, kept alive by `table` and `devs`.
    settled: dict[int, float] = {}
    if by_outcome and _certified(profile, i, mechanism, space, h, u_truth, table, settled, memo):
        return None
    if devs is None:
        devs = deviations_for(profile.commuters[i].true_type, space)
    frames = DeviationFrames(table, i)
    p_hat = utilities = score = None
    best: Witness | None = None
    for trip in devs:
        if utilities is None or (table.private and trip.p_commit != p_hat):
            p_hat = trip.p_commit
            score = frames(p_hat)
            utilities = {}
            if not by_outcome:
                settled = {}
        spec_id = id(trip.valuation)
        if spec_id not in utilities:
            rep = score(trip.valuation)
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
    profile: Scenario,
    i: CommuterId,
    mechanism: Mechanism,
    space: DeviationSpace,
    h: float,
    u_truth: float,
    table: OutcomeTable,
    settled: dict[int, float],
    memo: Evaluations,
) -> bool:
    """True when i, whose utility the chosen allocation fixes, gains
    nothing (`U(a) - u_truth <= 0.0`) on any outcome `a` of
    `table.outcomes(i)`, and no scoring of i's grid in `space` could raise.
    Each outcome settled, through `memo`, is filed in `settled` under the
    allocation's id.

    Every report i can make wins one of those outcomes (the taxation
    principle), so then no deviation gains. A scoring raises only on an
    overflow, and none can when every probability is in [0, 1] and the
    others' reports and i's truth, rescaled by the largest |scale| of
    `space`, are `bounded`. Anything raised here leaves the grid to decide.
    """
    scale = max(abs(x) for x in space.coefficient_scales + (1.0,))
    commuters = profile.commuters
    try:
        if not (all(0.0 <= x <= 1.0 for x in profile.reported_p() + profile.true_p())
                and bounded(commuters[i].true_type.valuation, scale)
                and all(bounded(c.reported_type.valuation)
                        for j, c in enumerate(commuters) if j != i)):
            return False
        for rep in table.outcomes(i):
            entry = mechanism.entry(profile, h, rep, i, memo)
            u = settled[id(rep.allocation)] = settled_utility(
                profile, i, rep.allocation, entry, memo)
            if u - u_truth > 0.0:
                return False
    except Exception:
        # The grid then raises whatever, and wherever, it would have
        # raised without the certificate.
        return False
    return True


def _dominant_scorings(devs: list[list[TripType]], grids: list[list[TripType]]) -> int:
    """The argmax scorings of a dominant sweep: each commuter's deviations
    once per profile of the others' grids, Σ_i |devs_i| × Π_{j≠i} |grids_j|,
    where a grid holds the true type and the opponent deviations."""
    return sum(
        len(devs[i]) * math.prod(len(g) for j, g in enumerate(grids) if j != i)
        for i in range(len(devs))
    )


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
    reports can win does not already rule out every gain."""
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
    MAX_DOMINANT_COMMUTERS commuters, and above MAX_DOMINANT_SCORINGS
    argmax scorings before any is made. The grids are built up front to
    count those; each profile's sweep still tries the certificate first."""
    if s.n > MAX_DOMINANT_COMMUTERS:
        raise AuditSizeError(
            f"dominant audit over {s.n} commuters sweeps a full misreport profile "
            f"product and is refused above {MAX_DOMINANT_COMMUTERS}; use audit_expost "
            "or a smaller scenario"
        )
    truth = [c.true_type for c in s.commuters]
    devs = [deviations_for(t, space) for t in truth]
    grids = [[t] + deviations_for(t, opponent_space) for t in truth]
    scorings = _dominant_scorings(devs, grids)
    if scorings > MAX_DOMINANT_SCORINGS:
        raise AuditSizeError(
            f"dominant audit would score {scorings} deviations against opponent "
            f"profiles and is refused above {MAX_DOMINANT_SCORINGS}; use smaller "
            "grids or audit_expost"
        )
    return _audit(s, mechanism, space, opponent_space, devs, grids)


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
