"""Welfare-maximising allocation by exhaustive search over the feasible set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import Allocation, CommuterId, Scenario, _feasible
from .valuation import EXCLUDED, ValuationSpec, evaluate

# A commuter to score: id, reported spec, the spec's owner, and that spec's
# values at fixed probabilities and absent commuter, keyed by the id of the
# owner's assignment object.
Scored = tuple[CommuterId, ValuationSpec, CommuterId, dict]


@dataclass(frozen=True)
class WelfareReport:
    allocation: Allocation
    welfare: float
    per_commuter: tuple[float, ...]


def efficient_allocation(
    s: Scenario,
    *,
    p_override: Sequence[float] | None = None,
    absent: CommuterId | None = None,
) -> WelfareReport:
    """Maximise total reported value over feasible allocations.

    Allocations where any present commuter's valuation is excluded are
    skipped. Ties keep the first maximiser, so the deterministic enumeration
    order doubles as the tie-break. `p_override` substitutes the given
    probabilities for the reported ones in every evaluation. Commuter
    `absent`, if given, is pinned to role none and scores nothing.
    """
    p = tuple(p_override) if p_override is not None else s.reported_p()
    present = [
        _scored(j, c.reported_type.valuation) for j, c in enumerate(s.commuters) if j != absent
    ]
    return _argmax(_feasible(s, absent), present, p, absent)


def _scored(j: CommuterId, spec: ValuationSpec) -> Scored:
    """Commuter `j`, scored by `spec`, with an empty value table."""
    return (j, spec, spec.owner, {})


def _argmax(
    allocations: Sequence[Allocation],
    present: Sequence[Scored],
    p: Sequence[float],
    absent: CommuterId | None,
) -> WelfareReport:
    """The first allocation of maximal welfare among those no present
    commuter excludes, with `present` in commuter order.

    A commuter's value reads only their own assignment, and `_walk` makes
    each distinct assignment one object, so each present commuter is
    evaluated once per assignment, keyed by its id in their table; welfare
    is the exact sum of the values in commuter order. Tables fill lazily:
    an allocation is dropped at its first excluded commuter, before anyone
    after them is evaluated. A caller may pass the same entry to later calls
    with the same `p`, `absent` and spec for that commuter, and so reuse its
    values, but only while the allocations that filled it are alive.
    """
    values = [0.0] * len(p)
    best_allocation = None
    best_welfare = 0.0
    best_values: tuple[float, ...] = ()
    for allocation in allocations:
        assignments = allocation.assignments
        for j, spec, owner, table in present:
            key = id(assignments[owner])
            v = table.get(key)
            if v is None:
                v = table[key] = evaluate(spec, allocation, p, absent)
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
    return efficient_allocation(s, p_override=p_override, absent=i)
