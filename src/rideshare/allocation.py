"""Welfare-maximising allocation by exhaustive search over the feasible set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import _EMPTY, Allocation, CommuterId, Role, Scenario, _feasible
from .valuation import EXCLUDED, ValuationSpec, evaluate

# A commuter to score: id, reported spec, the spec's owner, and that spec's
# values at fixed probabilities and absent set, in two tables: the drive
# dict keyed by rider set, the other by partners (a rider's driver, or none).
Scored = tuple[CommuterId, ValuationSpec, CommuterId, dict, dict]


@dataclass(frozen=True)
class WelfareReport:
    allocation: Allocation
    welfare: float
    per_commuter: tuple[float, ...]


def efficient_allocation(
    s: Scenario,
    *,
    p_override: Sequence[float] | None = None,
    absent: frozenset[int] = _EMPTY,
) -> WelfareReport:
    """Maximise total reported value over feasible allocations.

    Allocations where any present commuter's valuation is excluded are
    skipped. Ties keep the first maximiser, so the deterministic enumeration
    order doubles as the tie-break. `p_override` substitutes the given
    probabilities for the reported ones in every evaluation.
    """
    p = tuple(p_override) if p_override is not None else s.reported_p()
    present = [
        _scored(j, c.reported_type.valuation) for j, c in enumerate(s.commuters) if j not in absent
    ]
    return _argmax(_feasible(s, absent), present, p, absent)


def _scored(j: CommuterId, spec: ValuationSpec) -> Scored:
    """Commuter `j`, scored by `spec`, with empty value tables."""
    return (j, spec, spec.owner, {}, {})


def _argmax(
    allocations: Sequence[Allocation],
    present: Sequence[Scored],
    p: Sequence[float],
    absent: frozenset[int],
) -> WelfareReport:
    """The first allocation of maximal welfare among those no present
    commuter excludes, with `present` in commuter order.

    A commuter's value reads only their own assignment, so each present
    commuter is evaluated once per distinct assignment and the value kept in
    their tables; welfare is the exact sum of the values in commuter order.
    Tables fill lazily, in the order the allocations reach them: an
    allocation is dropped at its first excluded commuter, before anyone
    after them is evaluated. A caller may pass the same entry to later calls
    with the same `p`, `absent` and spec for that commuter, and so reuse its
    values.
    """
    values = [0.0] * len(p)
    best_allocation = None
    best_welfare = 0.0
    best_values: tuple[float, ...] = ()
    for allocation in allocations:
        assignments = allocation.assignments
        for j, spec, owner, drive, other in present:
            a = assignments[owner]
            table = drive if a.role is Role.DRIVE else other
            v = table.get(a.partners)
            if v is None:
                v = table[a.partners] = evaluate(spec, allocation, p, absent)
            if v is EXCLUDED:
                break
            values[j] = v
        else:
            welfare = math.fsum(values)
            if best_allocation is None or welfare > best_welfare:
                best_allocation = allocation
                best_welfare = welfare
                best_values = tuple(values)
    if best_allocation is None:
        raise RuntimeError("no feasible allocation is acceptable to every commuter")
    return WelfareReport(best_allocation, best_welfare, best_values)


def efficient_allocation_excluding(
    s: Scenario, i: CommuterId, *, p_override: Sequence[float] | None = None
) -> WelfareReport:
    """Best allocation of everyone except `i`, who is pinned to role none
    and contributes no value. Factors reading i's probability evaluate to
    zero and gates on i fail, as if i were not part of the scenario."""
    return efficient_allocation(s, p_override=p_override, absent=frozenset((i,)))
