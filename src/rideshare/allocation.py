"""Welfare-maximising allocation by exhaustive search over the feasible set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import _EMPTY, Allocation, CommuterId, Scenario, _feasible
from .valuation import EXCLUDED, evaluate


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
    specs = [c.reported_type.valuation for c in s.commuters]
    best_allocation = None
    best_welfare = 0.0
    best_values: tuple[float, ...] = ()
    for allocation in _feasible(s, absent):
        values = []
        skip = False
        for j, spec in enumerate(specs):
            if j in absent:
                values.append(0.0)
                continue
            v = evaluate(spec, allocation, p, absent)
            if v is EXCLUDED:
                skip = True
                break
            values.append(v)
        if skip:
            continue
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
