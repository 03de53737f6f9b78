"""Payment rules layered on the efficient allocation.

Groves payments charge each commuter the pivot term minus everyone else's
reported value at the chosen allocation. Commit-based payments replace the
single charge with a pair settled on whether the commuter actually shows
up, computed by substituting their commitment with certainty one or zero.
Positive amounts are paid to the system. A `Mechanism` names one rule
together with where its commitment probabilities come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence, Union

from .allocation import OutcomeTable, WelfareReport
# Not called here; kept so that bench/tracer.py can still wrap them here.
from .allocation import efficient_allocation, efficient_allocation_excluding
from .model import Allocation, CommuterId, Scenario
from .valuation import (
    EXCLUDED,
    ValuationSpec,
    evaluate,
    excludes,
    referenced_subjects,
    substitute,
)


class PivotRule(Enum):
    ZERO = "zero"
    CLARKE = "clarke"


@dataclass(frozen=True)
class Unconditional:
    amount: float


@dataclass(frozen=True)
class Conditional:
    on_commit: float
    on_fail: float


PaymentEntry = Union[Unconditional, Conditional]


@dataclass(frozen=True)
class PaymentSchedule:
    """Per-commuter payment entries plus the allocation they settle."""

    entries: tuple[PaymentEntry, ...]
    allocation: Allocation


class ExcludedValueError(ValueError):
    """A commuter's true valuation excludes the allocation being scored."""


def _others_value(rep: WelfareReport, i: CommuterId) -> float:
    return math.fsum(v for j, v in enumerate(rep.per_commuter) if j != i)


def _groves_entry(h: float, rep: WelfareReport, i: CommuterId) -> Unconditional:
    return Unconditional(h - _others_value(rep, i))


class Evaluations:
    """`evaluate` memoised by spec, probability vector and the spec owner's
    assignment object, for callers that settle many allocations sharing
    assignments. A key holds ids, so a memo is valid only while the specs
    and the allocations it has seen are alive."""

    def __init__(self) -> None:
        self._values: dict[tuple, object] = {}

    def __call__(self, spec: ValuationSpec, allocation: Allocation, p: tuple[float, ...]):
        key = (id(spec), p, id(allocation.assignments[spec.owner]))
        v = self._values.get(key)
        if v is None:
            v = self._values[key] = evaluate(spec, allocation, p)
        return v


# How a payment or settlement evaluates a spec: `evaluate`, or a memo.
Evaluator = Callable[[ValuationSpec, Allocation, tuple[float, ...]], object]


def _commit_entry(s: Scenario, h: float, rep: WelfareReport, i: CommuterId,
                  evaluator: Evaluator | None = None) -> Conditional:
    """Each branch credits the others' reported values with p̂_i forced to
    1 or 0. A value that does not read p̂_i is the same at both, and is the
    one in `rep`; only the readers of p̂_i are evaluated again, with
    `evaluator`, `evaluate` if None."""
    value = evaluator or evaluate
    p_hat = s.reported_p()
    p_one = substitute(p_hat, i, 1.0)
    p_zero = substitute(p_hat, i, 0.0)
    assignments = rep.allocation.assignments
    v_one = []
    v_zero = []
    for j, c in enumerate(s.commuters):
        if j == i:
            continue
        spec = c.reported_type.valuation
        if i in referenced_subjects(spec):
            a = value(spec, rep.allocation, p_one)
            b = value(spec, rep.allocation, p_zero)
        else:
            a = b = EXCLUDED if excludes(spec, assignments[spec.owner]) else rep.per_commuter[j]
        if a is EXCLUDED or b is EXCLUDED:
            raise ExcludedValueError(
                f"commuter {j}: reported valuation excludes the chosen allocation")
        v_one.append(a)
        v_zero.append(b)
    return Conditional(h - math.fsum(v_one), h - math.fsum(v_zero))


_PUBLIC = "-public-p"


class Mechanism(Enum):
    """A payment rule together with where the commitment probabilities it
    reads come from: each commuter's report, or a public source (the true
    probabilities), marked by the `-public-p` suffix."""

    GROVES_ZERO = "groves-zero"
    GROVES_ZERO_PUBLIC_P = "groves-zero-public-p"
    GROVES_CLARKE = "groves-clarke"
    GROVES_CLARKE_PUBLIC_P = "groves-clarke-public-p"
    COMMIT_BASED = "commit"

    @classmethod
    def rules(cls) -> list[str]:
        """Payment rule names accepted by `named`, sorted."""
        return sorted(m.value for m in cls if not m.value.endswith(_PUBLIC))

    @classmethod
    def named(cls, rule: str, public_p: bool) -> Mechanism:
        """The mechanism for a rule name from `rules()`. Commit payments
        settle on reported probabilities only, so they refuse `public_p`."""
        mechanism = cls(rule)
        if not public_p:
            return mechanism
        if mechanism is cls.COMMIT_BASED:
            raise ValueError("public probabilities only apply to groves mechanisms")
        return cls(rule + _PUBLIC)

    @property
    def pivot(self) -> PivotRule:
        """The pivot term's rule; commit payments use the Clarke pivot."""
        if self in (Mechanism.GROVES_ZERO, Mechanism.GROVES_ZERO_PUBLIC_P):
            return PivotRule.ZERO
        return PivotRule.CLARKE

    def probabilities(self, s: Scenario) -> tuple[float, ...] | None:
        """Probabilities that replace the reported ones, or None."""
        return s.true_p() if self.value.endswith(_PUBLIC) else None

    def entry(self, s: Scenario, h: float, rep: WelfareReport, i: CommuterId,
              evaluator: Evaluator | None = None) -> PaymentEntry:
        """Commuter `i`'s payment entry at `rep` given the pivot term `h`.
        `rep` must be scored at the probabilities this mechanism reads: the
        public ones, or `s`'s reported ones with p̂_i free. The entry reads
        the others' values from `rep`, all of them under Groves, and under
        commit those that do not read p̂_i; it evaluates the rest with
        `evaluator`, `evaluate` if None."""
        if self is Mechanism.COMMIT_BASED:
            return _commit_entry(s, h, rep, i, evaluator)
        return _groves_entry(h, rep, i)


def _schedule(s: Scenario, mechanism: Mechanism, public_p: Sequence[float] | None) -> PaymentSchedule:
    """Every commuter's `mechanism` entry at the efficient allocation, with
    the pivot term from the best allocation without them under Clarke.

    One `OutcomeTable` prices the efficient allocation, then each pivot
    just before its commuter's entry, so the error raised is the one the
    first failing step of that order raises, as if each search ran from
    scratch."""
    table = OutcomeTable(s, public_p)
    rep = table.truth()
    clarke = mechanism.pivot is PivotRule.CLARKE
    entries = tuple(mechanism.entry(s, table.pivot(i) if clarke else 0.0, rep, i)
                    for i in range(s.n))
    return PaymentSchedule(entries, rep.allocation)


def groves_payments(
    s: Scenario, pivot: PivotRule, public_p: Sequence[float] | None = None
) -> PaymentSchedule:
    """One unconditional charge per commuter. With `public_p` supplied, the
    given probabilities replace the reported ones in every evaluation, both
    for the allocation and for the payments."""
    mechanism = Mechanism.GROVES_CLARKE if pivot is PivotRule.CLARKE else Mechanism.GROVES_ZERO
    return _schedule(s, mechanism, public_p)


def commit_payments(s: Scenario) -> PaymentSchedule:
    """Commitment-settled pair per commuter: the pivot is everyone else's
    best welfare without them, and each branch credits the others' reported
    value with the commuter's commitment forced to one or zero."""
    return _schedule(s, Mechanism.COMMIT_BASED, None)


def _finite(i: CommuterId, u: float) -> float:
    """Commuter `i`'s settled utility `u`; OverflowError if not finite."""
    if not math.isfinite(u):
        raise OverflowError(f"commuter {i}'s settled utility {u} is not finite")
    return u


def settled_utility(s: Scenario, i: CommuterId, allocation: Allocation, entry: PaymentEntry,
                    evaluator: Evaluator | None = None) -> float:
    """Quasilinear expected utility of commuter `i` under their true type at
    `allocation`, with true probabilities, when settled by `entry`. The
    true valuation is evaluated with `evaluator`, `evaluate` if None.

    Raises ExcludedValueError when the true valuation excludes that
    allocation; callers decide whether that is a modelling error (truthful
    reports) or a searched-over outcome to flag (misreports). Raises
    OverflowError when the utility is not finite, as when a value less a
    charge passes the float range.
    """
    value = evaluator or evaluate
    p = s.true_p()
    spec = s.commuters[i].true_type.valuation
    if isinstance(entry, Unconditional):
        v = value(spec, allocation, p)
        if v is EXCLUDED:
            raise ExcludedValueError(f"commuter {i}: true valuation excludes the chosen allocation")
        return _finite(i, v - entry.amount)
    v_one = value(spec, allocation, substitute(p, i, 1.0))
    v_zero = value(spec, allocation, substitute(p, i, 0.0))
    if v_one is EXCLUDED or v_zero is EXCLUDED:
        raise ExcludedValueError(f"commuter {i}: true valuation excludes the chosen allocation")
    pi = p[i]
    return _finite(i, pi * (v_one - entry.on_commit) + (1.0 - pi) * (v_zero - entry.on_fail))


def expected_utility(s: Scenario, i: CommuterId, schedule: PaymentSchedule) -> float:
    """`settled_utility` of commuter `i` at the schedule's allocation and entry."""
    return settled_utility(s, i, schedule.allocation, schedule.entries[i])
