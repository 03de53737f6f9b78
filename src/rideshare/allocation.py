"""Welfare-maximising allocation by exhaustive search over the feasible set."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .model import Allocation, CommuterId, Scenario, _feasible
from .valuation import EXCLUDED, ValuationSpec, evaluate, excludes, referenced_subjects

# A commuter to score: id, reported spec, the spec's owner, and that spec's
# values at fixed probabilities and absent commuter, keyed by the id of the
# owner's assignment object.
Scored = tuple[CommuterId, ValuationSpec, CommuterId, dict]

# Fewer than 2**23 values each below this magnitude sum inside the float
# range, so no `math.fsum` over them, or over their differences, overflows.
_PRUNABLE = 2.0**1000


def bounded(spec: ValuationSpec, scale: float = 1.0) -> bool:
    """True when `spec`'s default value, and each clause's sum of
    |coefficient| with every coefficient multiplied by `scale`, are below
    2**1000 in magnitude. Then, with its coefficients rescaled by factors of
    magnitude at most `scale` and at probabilities in [0, 1], the spec
    values every outcome finitely and below 2**1000 up to rounding, so no
    evaluation raises and no `math.fsum` over such values overflows."""
    try:
        return abs(spec.default_value) < _PRUNABLE and all(
            math.fsum(abs(scale * t.coefficient) for t in clause.terms) < _PRUNABLE
            for clause in spec.clauses)
    except OverflowError:  # a sum past the float range
        return False


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
    with the same spec for that commuter, the same values of the
    probabilities that spec reads (its `referenced_subjects`), and an
    `absent` that is the same or that the spec does not read, and so reuse
    its values, but only while the allocations that filled it are alive.
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


class OutcomeTable:
    """The reports in `scenario`, valued at `public_p` if given, else at the
    reported probabilities: the one priced view of the profile. It holds
    the feasible set, each commuter's pivot set, and one value table per
    commuter (entries of `Scored`), and lazily searches the efficient
    report (`truth`), each Clarke pivot's welfare (`pivot`) and the
    outcomes, each feasible allocation that no report excludes.

    The value tables hold values with nobody absent, at the table's
    probabilities, each evaluated at most once per distinct assignment, and
    are shared by every search and reader of the table. A memo hit only
    stands in for an evaluation that has returned, so each search
    evaluates, and raises, in the order of the same search run from
    scratch.

    Every allocation a misreport of commuter i's can win is an outcome, as
    long as the misreport excludes what i's report excludes, as each of
    `deviations_for` does. The set is the same for every i, so one table
    serves each commuter's certificate (`outcomes`) and frames
    (`DeviationFrames`) against the profile.
    """

    def __init__(self, scenario: Scenario, public_p: Sequence[float] | None) -> None:
        s = self.scenario = scenario
        self.allocations = _feasible(s, None)
        # Fetched now: `_walk` keeps one structure, and a pivot set fetched
        # after another was walked would hold new assignment objects, which
        # miss every entry of the tables.
        self._pivot_sets = [_feasible(s, k) for k in range(s.n)]
        self.present = [_scored(j, c.reported_type.valuation) for j, c in enumerate(s.commuters)]
        self.p = tuple(s.reported_p() if public_p is None else public_p)
        self.private = public_p is None
        self._truth: WelfareReport | None = None
        self._pivots: dict[CommuterId, float] = {}
        self._rows: list[tuple[Allocation, list[float]]] | None = None

    def truth(self) -> WelfareReport:
        """What `efficient_allocation` returns, or raises, on the scenario
        at the table's probabilities; searched once."""
        if self._truth is None:
            self._truth = _argmax(self.allocations, self.present, self.p, None)
        return self._truth

    def pivot(self, k: CommuterId) -> float:
        """The welfare `efficient_allocation_excluding(scenario, k)` returns
        at the table's probabilities, or what it raises; searched once per
        k. Only k's readers, the others whose spec reads k's probability,
        value anything differently with k absent, so they alone get fresh
        tables; everyone else's values are the shared tables' floats."""
        h = self._pivots.get(k)
        if h is None:
            entries = [
                _scored(j, spec) if k in referenced_subjects(spec) else (j, spec, owner, table)
                for j, spec, owner, table in self.present if j != k
            ]
            h = self._pivots[k] = _argmax(self._pivot_sets[k], entries, self.p, k).welfare
        return h

    def readers(self, i: CommuterId) -> tuple[CommuterId, ...]:
        """The others whose report reads i's probability; none under
        public probabilities, where no report's probability is read."""
        if not self.private:
            return ()
        return tuple(
            j for j, spec, _, _ in self.present if j != i and i in referenced_subjects(spec))

    def outcomes(self, i: CommuterId) -> list[WelfareReport]:
        """The outcomes in walk order, each as the report of the others'
        values at the table's probabilities, i's slot 0.0 and the welfare
        their exact sum: what a frame's scorer puts in `per_commuter` for
        the others, except a reader of i's at a reported probability of i's
        other than the table's. The first call reads everyone where `truth`
        does, evaluating only what that search has not; later calls, for
        any i, evaluate nothing. Raises what an evaluation raises.
        """
        if self._rows is None:
            rows = []
            values = [0.0] * len(self.present)
            for allocation in self.allocations:
                assignments = allocation.assignments
                for j, spec, owner, table in self.present:
                    key = id(assignments[owner])
                    v = table.get(key)
                    if v is None:
                        v = table[key] = evaluate(spec, allocation, self.p, None)
                    if v is EXCLUDED:
                        break
                    values[j] = v
                else:
                    rows.append((allocation, values[:]))
            self._rows = rows
        out = []
        for allocation, values in self._rows:
            row = values[:]
            row[i] = 0.0
            out.append(WelfareReport(allocation, math.fsum(row), tuple(row)))
        return out


class DeviationFrames:
    """Commuter i's misreports against the profile of `table`: scorers
    for each misreport. `frames(p_hat)(spec)` returns, or raises, what
    `efficient_allocation` does on the table's scenario, at its public
    probabilities if any, with i reporting `spec` and `p_hat`. Each scored
    valuation must exclude what i's report in the scenario excludes, as
    each of `deviations_for` does.

    Only the readers, the others whose spec reads i's probability, read i's
    report; none does under public probabilities. So the feasible set and
    the others' value tables are the table's, and a new `p_hat` rebuilds
    the scorer, and the readers' tables if there are any. A reader keeps
    the table's entry only while `p_hat` is i's probability in the table,
    so the shared tables gain only values at the table's probabilities.
    Scorers read the latest `p_hat`, so each serves until the next call.
    """

    def __init__(self, table: OutcomeTable, i: CommuterId) -> None:
        self._i = i
        self._allocations = table.allocations
        self._present = list(table.present)
        self._readers = table.readers(i)
        self._p = list(table.p)
        self._private = table.private
        self._score: Callable[[ValuationSpec], WelfareReport] | None = None

    def __call__(self, p_hat: float) -> Callable[[ValuationSpec], WelfareReport]:
        p, i = self._p, self._i
        stale = self._readers and p[i] != p_hat
        if self._private:
            p[i] = p_hat
        if stale:
            for j in self._readers:
                self._present[j] = _scored(j, self._present[j][1])
        if stale or self._score is None:
            self._score = _frame_scorer(self._allocations, self._present, i, p)
        return self._score


def _frame_scorer(
    allocations: Sequence[Allocation], present: Sequence[Scored], i: CommuterId, p: Sequence[float]
) -> Callable[[ValuationSpec], WelfareReport]:
    """`scorer(spec)` returns, or raises, what `_argmax(allocations,
    present, p, None)` does with a fresh entry of commuter i's `spec` at
    position i. Entry i's spec fixes the outcomes every scored spec
    excludes; its values are never read. Between scorings, `p` may change
    only where no other commuter's spec reads it.

    One pass over `allocations`, evaluating everyone else where `_argmax`
    would, keeps the contenders: allocations that nobody excludes, whose
    others' exact value sum is strictly greater than that of every earlier
    such allocation giving i the same assignment. For a fixed value of i,
    welfare (the correctly rounded exact sum) is monotone in the others'
    exact sum, so a dropped allocation has an earlier contender with the
    same assignment of i that scores at least as high under any valuation
    of i, and the first maximiser is a contender. A scoring evaluates i on
    each assignment `_argmax` would evaluate i on and i does not exclude,
    then sums each contender once, in commuter order. When a value reaches
    2**1000 in magnitude or an evaluation raises, a sum over a dropped
    allocation might overflow, so the frame, or that scoring, runs `_argmax`
    over every allocation instead.
    """
    entries = list(present)

    def unpruned(spec: ValuationSpec) -> WelfareReport:
        entries[i] = _scored(i, spec)
        return _argmax(allocations, entries, p, None)

    n = len(present)
    reached: dict[int, bool] = {}
    probes: dict[int, Allocation] = {}
    leaders: dict[int, tuple[float, list[float]]] = {}
    contenders: list[tuple[Allocation, int, list[float]]] = []
    for allocation in allocations:
        assignments = allocation.assignments
        values = [0.0] * n
        for j, spec, owner, table in present:
            key = id(assignments[owner])
            if j == i:
                mine = key
                kept = reached.get(key)
                if kept is None:
                    kept = reached[key] = not excludes(spec, assignments[owner])
                    if kept:
                        probes[key] = allocation
                if not kept:
                    break
                continue
            v = table.get(key)
            if v is None:
                try:
                    v = table[key] = evaluate(spec, allocation, p, None)
                except OverflowError:
                    return unpruned
            if v is EXCLUDED:
                break
            if not -_PRUNABLE < v < _PRUNABLE:
                return unpruned
            values[j] = v
        else:
            total = math.fsum(values)
            leader = leaders.get(mine)
            # Rounding is monotone, so unequal rounded sums order the exact
            # sums alike; level ones are ordered by their exact difference.
            if (leader is None or total > leader[0] or total == leader[0]
                    and math.fsum(values + [-x for x in leader[1]]) > 0.0):
                leaders[mine] = (total, values)
                contenders.append((allocation, mine, values))

    def score(spec: ValuationSpec) -> WelfareReport:
        table: dict[int, float] = {}
        for key, allocation in probes.items():
            v = table.get(key)
            if v is None:
                try:
                    v = table[key] = evaluate(spec, allocation, p, None)
                except OverflowError:
                    return unpruned(spec)
            if v is EXCLUDED or not -_PRUNABLE < v < _PRUNABLE:
                return unpruned(spec)
        best_allocation = None
        best_welfare = 0.0
        best_values: tuple[float, ...] = ()
        for allocation, key, values in contenders:
            values[i] = table[key]
            welfare = math.fsum(values)
            if best_allocation is None or welfare > best_welfare:
                best_allocation = allocation
                best_welfare = welfare
                best_values = tuple(values)
        if best_allocation is None:
            raise RuntimeError("no feasible allocation is acceptable to every commuter")
        return WelfareReport(best_allocation, best_welfare, best_values)

    return score


def efficient_allocation_excluding(
    s: Scenario, i: CommuterId, *, p_override: Sequence[float] | None = None
) -> WelfareReport:
    """Best allocation of everyone except `i`, who is pinned to role none
    and contributes no value. Factors reading i's probability evaluate to
    zero and gates on i fail, as if i were not part of the scenario."""
    return efficient_allocation(s, p_override=p_override, absent=i)
