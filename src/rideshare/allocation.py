"""Welfare-maximising allocation by exhaustive search over the feasible set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import _EMPTY, Allocation, CommuterId, Role, Scenario, _feasible
from .valuation import EXCLUDED, evaluate

# One commuter's values at fixed probabilities and absent set: the drive
# dict keyed by rider set, the other by partners (a rider's driver, or none).
ValueTables = tuple[dict, dict]


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
    _tables: list[ValueTables | None] | None = None,
) -> WelfareReport:
    """Maximise total reported value over feasible allocations.

    Allocations where any present commuter's valuation is excluded are
    skipped. Ties keep the first maximiser, so the deterministic enumeration
    order doubles as the tie-break. `p_override` substitutes the given
    probabilities for the reported ones in every evaluation.

    A commuter's value reads only their own assignment, so each present
    commuter is evaluated once per distinct assignment and the value kept in
    their table; welfare is the exact sum of the values in commuter order.
    Tables fill lazily, in the order the allocations reach them: an
    allocation is dropped at its first excluded commuter, before anyone
    after them is evaluated. `_tables` holds one entry per commuter, None
    until this call creates it in place, so a later call can reuse a
    commuter's values when it has the same probabilities, `absent` and
    reported spec for that commuter.
    """
    p = tuple(p_override) if p_override is not None else s.reported_p()
    if _tables is None:
        _tables = [None] * s.n
    present = []
    for j, c in enumerate(s.commuters):
        if j in absent:
            continue
        if _tables[j] is None:
            _tables[j] = ({}, {})
        spec = c.reported_type.valuation
        present.append((j, spec, spec.owner, *_tables[j]))
    values = [0.0] * s.n
    best_allocation = None
    best_welfare = 0.0
    best_values: tuple[float, ...] = ()
    for allocation in _feasible(s, absent):
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
