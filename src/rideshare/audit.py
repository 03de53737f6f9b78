"""Brute-force deviation audits for truthfulness, plus a suite of bundled
scenarios with known verdicts.

An audit sweeps a commuter's report over a finite deviation grid (commitment
probability points crossed with coefficient rescalings) and compares true
expected utility against truthful reporting. The ex-post notion holds
everyone else truthful; the dominant notion additionally sweeps every
opponent over a grid of misreports. A grid search can only ever
certify "no violation found", never truthfulness itself; a reported
violation, on the other hand, comes with a witness that replays exactly.
Both hold for a scenario that `validate_scenario` admits, whose magnitude
bounds keep every sum finite; other input has no guarantee.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .allocation import OutcomeTable
# Not called here; kept so that bench/tracer.py can still wrap them here.
from .allocation import efficient_allocation, efficient_allocation_excluding
from .model import CommuterId, Scenario, TripType, with_report, with_truthful_reports
from .payments import Mechanism, PivotRule, utilities
from .valuation import MAX_SCALE, Clause, Monomial, ValuationSpec, substitute

GAIN_TOLERANCE = 1e-9
MAX_DOMINANT_COMMUTERS = 4
# A dominant audit of the four-commuter corpus scenario linear-quad-full-van
# against 3-point opponent grids counts 1,720,320 scorings. As a child
# process (CPython 3.11, busy shared 2-core VM, six runs and three) it took
# 7.1-11.0 s under commit, where the sweep certificate clears 12,516 of the
# 16,384 sweeps and the rest score 403,237 of the counted scorings, and
# 14.9-17.8 s under groves-clarke, where the frame bounds, settled on the
# rows, leave 13 to be scored by 13 scorers: 4.1-6.4 and 8.7-10.3 µs a
# counted scoring. So this bounds such an audit, and each ex-post sweep,
# to well under a minute. A scoring costs more where a sweep prices many
# opponent profiles, each with its own table. A dominant audit counts
# every grid's scorings before any grid is built, so a sweep the
# certificate clears, or a frame its bound or the floor skips (see
# `_sweep`), still counts toward it; an ex-post sweep counts its own grid
# only when the sweep certificate leaves it to be built.
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
    falling back to uniform rescaling when that product explodes). A scale
    above `valuation.MAX_SCALE` (2**32) in magnitude is refused: an
    admitted valuation rescaled by at most that still sums without
    overflow.
    """

    p_grid: int = 21
    coefficient_scales: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 10.0)

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
    clauses = tuple(
        Clause(c.pattern, c.gates, tuple(Monomial(next(it) * t.coefficient, t.factors)
                                         for t in c.terms), c.excluded)
        for c in spec.clauses)
    return ValuationSpec(spec.owner, clauses, spec.default_value)


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
    first, then the rescalings of `_scale_combos`."""
    return [_scaled_spec(spec, combo) for combo in _scale_combos(spec, space.coefficient_scales)]


def _sweep(
    table: OutcomeTable,
    i: CommuterId,
    mechanism: Mechanism,
    space: DeviationSpace,
    devs: list[TripType] | None,
    opponents: tuple[tuple[CommuterId, TripType], ...],
    floor: float,
) -> Witness | None:
    """Commuter i's first maximal-gain deviation in `space` against the
    profile of `table`, priced at the probabilities `mechanism` reads, if
    it gains more than `floor` (>= 0.0), as pricing each deviation afresh
    would find. `devs` is i's grid, or None to build it only if the sweep
    scores it, refused with AuditSizeError above MAX_SCORINGS deviations.
    The table may be shared with other sweeps against the same profile;
    this one asks it for i's pivot, then for the efficient report, the
    order in which a sweep's own searches would run.

    `settle(q)` settles i (`payments.utilities`) on each of the table's
    rows, the outcomes any report of i's can win, with the others' values
    at i's probabilities `q` (`OutcomeTable.values_at`). Where the chosen
    allocation fixes i's utility, the sweep settles once, at the table's
    probabilities, truth's row included; when no row beats truth, no
    deviation gains and the sweep returns None without building the grid.
    Neither that certificate nor the grid's refusal reads `floor`, so
    every sweep refuses, or not, as it would without one.

    The grid falls into frames: a frame per p̂_i under private
    probabilities, one frame under public ones. Every deviation of a frame
    wins a row, so the best row settlement less i's truthful utility
    bounds the frame's gain: the certificate's for every frame where the
    allocation fixes i's utility, else the frame's own, settled at its
    p̂_i, where the readers' values fix it. That bound equals the best
    settlement of the frame's scorer's contenders: i's true value reads
    only i's assignment, one object per assignment in the walk; a Groves
    utility is monotone in the others' exact value sum; and the first row
    with the largest such sum among those giving i one assignment is a
    contender. So no scorer is built to bound a frame.

    Every frame is bounded, in grid order, before any scoring; only its
    bound and place in the grid are kept, so a frame with its own bound is
    settled again if it is scored. A scored frame builds the table's
    `scorer` at i's probabilities, one per sweep unless someone reads
    p̂_i. Frames are visited by bound descending, grid order among equal
    bounds, and each scores its deviations in grid order. The held witness
    gives way to a larger gain, or to an equal one earlier in the grid
    (strict `>` otherwise), so it is always the first maximal-gain
    deviation of those scored. A frame stops at its first deviation that
    reaches its bound: the rest of the frame gains no more and comes
    later. The sweep stops at the first frame whose bound is below the
    held gain, or equal to it and later in the grid, as is every frame
    after it, and skips every frame whose bound is at most `floor`.
    So the first maximal-gain deviation, if it gains more than `floor`, is
    scored and then held to the end: stopping short of it, in its frame
    or before, takes a deviation that gains more, or as much and earlier
    in the grid, and there is none.

    Nothing the sweep skips would have raised. The table's rows hold
    truth's allocation, so contenders are never empty and a scoring cannot
    raise for want of one. Within the magnitude bounds of admitted input
    no evaluation raises. And the rows are allocations no report excludes,
    exclusion reading no probability, while i's report in the profile is
    i's truth: no row settles to ExcludedValueError.
    """
    profile = table.scenario
    # the pivot never reads i's report, so it is fixed per profile
    h = table.pivot(i) if mechanism.pivot is PivotRule.CLARKE else 0.0
    truth = table.truth()
    readers = table.readers(i)
    # Settlements may read `profile` in place of the deviated scenario: a
    # commit charge reads the reported probabilities only with p̂_i at 1 and
    # at 0, a Groves charge only `h` and the others' values, and i's true
    # values only true types. So the chosen allocation fixes i's utility
    # under commit, and under Groves when no other value reads p̂_i.
    by_outcome = mechanism is Mechanism.COMMIT_BASED or not readers
    true_values: dict[int, float | tuple[float, float]] = {}

    def settle(q: tuple[float, ...]) -> dict[int, float]:
        return utilities(profile, mechanism, i, h, table.values_at(i, q), true_values)

    def at(p_hat: float) -> tuple[float, ...]:
        return substitute(table.p, i, p_hat) if table.private else table.p

    if by_outcome:
        settled = settle(table.p)
        u_truth = settled[id(truth.allocation)]
        top = max(settled.values()) - u_truth
        if top <= 0.0:
            return None
    else:
        truthful = [(truth.allocation, truth.per_commuter)]
        u_truth = utilities(profile, mechanism, i, h, truthful, true_values)[id(truth.allocation)]
    if devs is None:
        devs = deviations_for(profile.commuters[i].true_type, space)
    starts = [k for k in range(len(devs))
              if k == 0 or table.private and devs[k].p_commit != devs[k - 1].p_commit]
    # (-bound, start, stop) of each frame above the floor; no settlement is kept
    frames: list[tuple[float, int, int]] = []
    for start, stop in zip(starts, starts[1:] + [len(devs)]):
        if by_outcome:
            bound = top
        else:
            bound = max(settle(at(devs[start].p_commit)).values()) - u_truth
        if bound > floor:
            frames.append((-bound, start, stop))
    frames.sort()
    best: Witness | None = None
    held = 0
    score = None
    for neg_bound, start, stop in frames:
        bound = -neg_bound
        if best is not None and (bound < best.gain or bound == best.gain and start > held):
            break
        q = at(devs[start].p_commit)
        if score is None or readers:
            score = table.scorer(i, q)
        if not by_outcome:
            settled = settle(q)
        # utilities per reported valuation: valuations recur under public probabilities
        seen: dict[int, float] = {}
        for k in range(start, stop):
            trip = devs[k]
            spec_id = id(trip.valuation)
            u = seen.get(spec_id)
            if u is None:
                u = seen[spec_id] = settled[id(score(trip.valuation, q).allocation)]
            gain = u - u_truth
            if (gain > floor if best is None
                    else gain > best.gain or gain == best.gain and k < held):
                best, held = Witness(i, trip, u_truth, u, gain, opponents), k
            if gain == bound:
                break
    return best


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
    then the first deviation, so a later sweep's witness is kept only if it
    gains more: each sweep gets the best gain so far, or 0.0, as its
    floor. Ex post, every sweep shares the truthful profile's
    `OutcomeTable`; a dominant sweep prices its own profile."""
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
            floor = 0.0 if best is None else best.gain
            found = _sweep(table, i, mechanism, space, own, tuple(zip(others, combo)), floor)
            if found is not None:
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
