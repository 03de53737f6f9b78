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
from typing import Iterable, Sequence, Union

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


def _groves_charge(h: float, values: Sequence[float], i: CommuterId) -> float:
    """The Groves charge to i: the pivot term `h` less the others' `values`."""
    return h - math.fsum(values[:i] + values[i + 1:])


def _commit_charges(
    s: Scenario, h: float, allocation: Allocation, values: Sequence[float], i: CommuterId
) -> tuple[float, float]:
    """The commit charges to i at `allocation`, on commit and on fail: each
    credits the others' reported values with p̂_i forced to 1 or 0. A value
    that does not read p̂_i is the same at both, and is the one in
    `values`; only the readers of p̂_i are evaluated again."""
    p_hat = s.reported_p()
    p_one = substitute(p_hat, i, 1.0)
    p_zero = substitute(p_hat, i, 0.0)
    v_one = []
    v_zero = []
    for j, c in enumerate(s.commuters):
        if j == i:
            continue
        spec = c.reported_type.valuation
        if i in referenced_subjects(spec):
            a = evaluate(spec, allocation, p_one)
            b = evaluate(spec, allocation, p_zero)
        else:
            a = b = EXCLUDED if excludes(spec, allocation[spec.owner]) else values[j]
        if a is EXCLUDED or b is EXCLUDED:
            raise ExcludedValueError(
                f"commuter {j}: reported valuation excludes the chosen allocation")
        v_one.append(a)
        v_zero.append(b)
    return h - math.fsum(v_one), h - math.fsum(v_zero)


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

    def entry(self, s: Scenario, h: float, rep: WelfareReport, i: CommuterId) -> PaymentEntry:
        """Commuter `i`'s payment entry at `rep` given the pivot term `h`.
        `rep` must be scored at the probabilities this mechanism reads: the
        public ones, or `s`'s reported ones with p̂_i free. The entry reads
        the others' values from `rep`, all of them under Groves, and under
        commit those that do not read p̂_i; it evaluates the rest."""
        if self is Mechanism.COMMIT_BASED:
            return Conditional(*_commit_charges(s, h, rep.allocation, rep.per_commuter, i))
        return Unconditional(_groves_charge(h, rep.per_commuter, i))


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


def settled_utility(s: Scenario, i: CommuterId, allocation: Allocation, entry: PaymentEntry) -> float:
    """Quasilinear expected utility of commuter `i` under their true type at
    `allocation`, with true probabilities, when settled by `entry`.

    Raises ExcludedValueError when the true valuation excludes that
    allocation; callers decide whether that is a modelling error (truthful
    reports) or a searched-over outcome to flag (misreports). The utility
    is finite within the magnitude bounds of admitted input
    (`valuation.MAX_MAGNITUDE`); other input has no guarantee.
    """
    charge = entry.amount if isinstance(entry, Unconditional) else (entry.on_commit, entry.on_fail)
    return _settle(s.commuters[i].true_type.valuation, i, s.true_p(), allocation, charge, {})


def utilities(
    s: Scenario,
    mechanism: Mechanism,
    i: CommuterId,
    h: float,
    outcomes: Iterable[tuple[Allocation, Sequence[float]]],
    true_values: dict[int, float | tuple[float, float]],
) -> dict[int, float]:
    """Commuter `i`'s utility at each of `outcomes`, an allocation with
    every commuter's reported value there, filed under the allocation's
    id: what `settled_utility` returns, bit for bit, at `mechanism`'s entry,
    with pivot term `h`, of a report holding those values. i's own value is
    not read. `true_values` keeps i's true values per assignment of i
    across calls, as they read only that assignment and true types, so the
    calls must share `s`, `mechanism` and `i`, and draw their allocations
    from one walk, kept alive. Raises ExcludedValueError where the entry
    or `settled_utility` does, keeping nothing for that outcome."""
    spec = s.commuters[i].true_type.valuation
    p = s.true_p()
    commit = mechanism is Mechanism.COMMIT_BASED
    settled = {}
    for allocation, values in outcomes:
        if commit:
            charge = _commit_charges(s, h, allocation, values, i)
        else:
            charge = _groves_charge(h, values, i)
        settled[id(allocation)] = _settle(spec, i, p, allocation, charge, true_values)
    return settled


def _settle(
    spec: ValuationSpec,
    i: CommuterId,
    p: Sequence[float],
    allocation: Allocation,
    charge: float | tuple[float, float],
    true_values: dict[int, float | tuple[float, float]],
) -> float:
    """The utility at `allocation` of commuter `i`, whose true valuation is
    `spec`, at true probabilities `p`: under an `Unconditional` charge,
    i's true value less it; under a `Conditional` pair (on commit, on
    fail), i's true value at commitment 1 and at 0 less that branch's
    charge, weighted by `p[i]`. i's true values there are read from, or
    kept in, `true_values` under the id of the owner's assignment. Raises
    ExcludedValueError when `spec` excludes `allocation`."""
    conditional = type(charge) is tuple
    key = id(allocation[spec.owner])
    v = true_values.get(key)
    if v is None:
        at = (substitute(p, i, 1.0), substitute(p, i, 0.0)) if conditional else (p,)
        v = tuple(evaluate(spec, allocation, q) for q in at)
        if EXCLUDED in v:
            raise ExcludedValueError(f"commuter {i}: true valuation excludes the chosen allocation")
        v = true_values[key] = v if conditional else v[0]
    if not conditional:
        return v - charge
    (v_one, v_zero), (on_commit, on_fail) = v, charge
    pi = p[i]
    return pi * (v_one - on_commit) + (1.0 - pi) * (v_zero - on_fail)


def expected_utility(s: Scenario, i: CommuterId, schedule: PaymentSchedule) -> float:
    """`settled_utility` of commuter `i` at the schedule's allocation and entry."""
    return settled_utility(s, i, schedule.allocation, schedule.entries[i])
