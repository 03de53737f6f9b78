"""Welfare-maximising allocation by exhaustive search over the feasible set."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .model import Allocation, CommuterId, Scenario, _feasible
from .valuation import EXCLUDED, ExactPartners, ValuationSpec, evaluate, referenced_subjects

# A commuter to score: id, reported spec, the spec's owner, and that spec's
# values at fixed probabilities and absent commuter, keyed by the id of the
# owner's assignment object.
_Scored = tuple[CommuterId, ValuationSpec, CommuterId, dict]

_NONE_ACCEPTABLE = "no feasible allocation is acceptable to every commuter"


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


def _scored(j: CommuterId, spec: ValuationSpec) -> _Scored:
    """Commuter `j`, scored by `spec`, with an empty value table."""
    return (j, spec, spec.owner, {})


def _argmax(
    allocations: Sequence[Allocation],
    present: Sequence[_Scored],
    p: Sequence[float],
    absent: CommuterId | None,
    idle: list[float | None] | None = None,
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

    `idle`, if given, is a list of None, one per commuter. The search then
    leaves in `idle[k]` the first maximal welfare among the scored
    allocations that give k the first allocation's assignment of k (in the
    full set, the walk's role-none object): the first such welfare,
    replaced in walk order only by a strictly greater one, as a search of
    k's pivot set keeps its best; None if no such allocation is scored.
    Once every entry is a float, a welfare no greater than the least of
    them beats none, and skips the pass over the commuters.
    """
    values = [0.0] * len(p)
    best_allocation = None
    best_welfare = 0.0
    best_values: tuple[float, ...] = ()
    if idle is not None:
        nobody = allocations[0]
        unset = len(idle)
        floor = math.nan
    for allocation in allocations:
        for j, spec, owner, table in present:
            key = id(allocation[owner])
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
            # A NaN kept first makes `floor` NaN, and then every welfare
            # takes the pass.
            if idle is not None and (unset or not welfare <= floor):
                for k, a in enumerate(allocation):
                    if a is nobody[k] and (idle[k] is None or welfare > idle[k]):
                        idle[k] = welfare
                unset = idle.count(None)
                if not unset:
                    floor = min(idle)
    if best_allocation is None:
        raise RuntimeError(_NONE_ACCEPTABLE)
    return WelfareReport(best_allocation, best_welfare, best_values)


class OutcomeTable:
    """The reports in `scenario`, valued at `public_p` if given, else at the
    reported probabilities: the one priced view of the profile. It holds
    the feasible set, each commuter's pivot set, cut from it when the table
    is built, and one value table per commuter (entries of `_Scored`), and
    lazily searches the efficient report (`truth`), each Clarke pivot's
    welfare (`pivot`) and the outcomes (`rows`), each feasible allocation
    that no report excludes. The efficient search also prices every pivot
    whose commuter's absence changes no value (see `pivot`), so those
    pivots search nothing.

    The value tables hold values with nobody absent, at the table's
    probabilities, each evaluated at most once per distinct assignment, and
    are shared by every search and reader of the table. A memo hit only
    stands in for an evaluation that has returned, so each search
    evaluates, and raises, in the order of the same search run from
    scratch.

    Every allocation a misreport of commuter i's can win is an outcome, as
    long as the misreport excludes what i's report excludes, as each of
    `deviations_for` does. The set is the same for every i, so one pass
    serves each commuter's settlements (`values_at`) and scorers (`scorer`)
    against the profile.
    """

    def __init__(self, scenario: Scenario, public_p: Sequence[float] | None) -> None:
        s = self.scenario = scenario
        self.allocations = _feasible(s, None)
        # Fetched now, for the pivots that search: `_walk` keeps one
        # structure, and a pivot set fetched after another was walked would
        # hold new assignment objects, which miss every entry of the tables.
        self._pivot_sets = [_feasible(s, k) for k in range(s.n)]
        self.present = [_scored(j, c.reported_type.valuation) for j, c in enumerate(s.commuters)]
        self.p = tuple(s.reported_p() if public_p is None else public_p)
        self.private = public_p is None
        self._truth: WelfareReport | None = None
        self._idle: list[float | None] = []
        self._pivots: dict[CommuterId, float] = {}
        self._rows: list[WelfareReport] | None = None

    def truth(self) -> WelfareReport:
        """What `efficient_allocation` returns, or raises, on the scenario
        at the table's probabilities; searched once. The search also keeps,
        for each commuter k, the first maximal welfare among the
        allocations it scores that leave k with role none (`_argmax`'s
        `idle`), from which `pivot` answers."""
        if self._truth is None:
            idle: list[float | None] = [None] * self.scenario.n
            self._truth = _argmax(self.allocations, self.present, self.p, None, idle)
            self._idle = idle
        return self._truth

    def pivot(self, k: CommuterId) -> float:
        """The welfare `efficient_allocation_excluding(scenario, k)` returns
        at the table's probabilities, or what it raises; priced once per k.

        No search runs, and the pivot is the welfare `truth` kept for k,
        when three things hold:

        - k is blind while idle: no other report reads k's probability, in
          a gate or a factor, in a clause that is not excluded and can match
          while k has role none, which is any clause but one whose exact
          partners name k, as nobody partners an idle commuter;
        - k's report is k's own (its owner is k, as validation requires)
          and values role none at the float +0.0 in k's table;
        - `truth` has returned.

        k's pivot set is the allocations that leave k with role none. On
        each of them the first holds every other report's arithmetic to
        what it is with nobody absent, so the search's value list is the
        truthful one, with the +0.0 it holds in k's place where the
        truthful list holds k's +0.0 (the second), and `math.fsum` returns
        the same float. Both drop the same allocations, k excluding none of
        them, and both keep the first maximum in walk order by strict `>`,
        so -0.0 and 0.0 ties resolve alike. The truthful search has made,
        and returned from, every evaluation and sum the pivot search would
        make (the third), so that search raises nothing, unless it keeps no
        allocation: then the same RuntimeError is raised here.

        Otherwise k's pivot set is searched. Only k's readers, the others
        whose spec reads k's probability, value anything differently with k
        absent, so they alone get fresh tables; everyone else's values are
        the shared tables' floats."""
        h = self._pivots.get(k)
        if h is None:
            if self._truth is not None and self._priced_by_truth(k):
                h = self._idle[k]
                if h is None:
                    raise RuntimeError(_NONE_ACCEPTABLE)
            else:
                entries = [
                    _scored(j, spec) if k in referenced_subjects(spec) else (j, spec, owner, table)
                    for j, spec, owner, table in self.present if j != k
                ]
                h = _argmax(self._pivot_sets[k], entries, self.p, k).welfare
            self._pivots[k] = h
        return h

    def _priced_by_truth(self, k: CommuterId) -> bool:
        """True when k's absence changes no value on k's pivot set: k's
        report is k's own, k's table values k's role-none assignment at the
        float +0.0, and no other report reads k's probability there."""
        _, _, owner, table = self.present[k]
        v = table.get(id(self.allocations[0][k]))
        return (owner == k and type(v) is float and v == 0.0 and math.copysign(1.0, v) == 1.0
                and k not in self._read_idle)

    @functools.cached_property
    def _read_idle(self) -> frozenset[CommuterId]:
        """The commuters k whose probability another report reads, in a gate
        or a factor, in a clause that is not excluded and can match while k
        has role none: any clause but one whose exact partners name k, as
        nobody partners an idle commuter."""
        read = set()
        for j, spec, _, _ in self.present:
            for clause in spec.clauses:
                if clause.excluded:
                    continue
                c = clause.pattern.partner_constraint
                named = c.partners if isinstance(c, ExactPartners) else ()
                subjects = [gate.subject for gate in clause.gates]
                subjects += [subject for t in clause.terms for subject, _ in t.factors]
                read.update(k for k in subjects if k != j and k not in named)
        return frozenset(read)

    def readers(self, i: CommuterId) -> tuple[CommuterId, ...]:
        """The others whose report reads i's probability; none under
        public probabilities, where no report's probability is read."""
        if not self.private:
            return ()
        return tuple(
            j for j, spec, _, _ in self.present if j != i and i in referenced_subjects(spec))

    def rows(self) -> list[WelfareReport]:
        """The outcomes in walk order, each as the report a search choosing
        it returns: everyone's values at the table's probabilities and
        their exact sum. Built once; the list is shared, not to be changed.
        The first call reads everyone where `truth` does, evaluating only
        what that search has not; later calls evaluate nothing. Raises
        what an evaluation or a welfare sum raises."""
        if self._rows is None:
            rows = []
            values = [0.0] * len(self.present)
            for allocation in self.allocations:
                for j, spec, owner, table in self.present:
                    key = id(allocation[owner])
                    v = table.get(key)
                    if v is None:
                        v = table[key] = evaluate(spec, allocation, self.p, None)
                    if v is EXCLUDED:
                        break
                    values[j] = v
                else:
                    rows.append(WelfareReport(allocation, math.fsum(values), tuple(values)))
            self._rows = rows
        return self._rows

    def values_at(
        self, i: CommuterId, p: Sequence[float]
    ) -> Iterator[tuple[Allocation, list[float]]]:
        """Each of the table's `rows`, in walk order, as its allocation and
        a fresh list of everyone's values there: the row's, with the readers
        of i's probability valued at `p` instead, in fresh tables, when
        `p[i]` is not the table's. `p` may differ from the table's
        probabilities only at i. Raises what an evaluation raises; within
        the magnitude bounds of admitted input none does."""
        fresh = [_scored(j, self.present[j][1])
                 for j in (self.readers(i) if p[i] != self.p[i] else ())]
        for row in self.rows():
            allocation = row.allocation
            values = list(row.per_commuter)
            for j, spec, owner, table in fresh:
                key = id(allocation[owner])
                v = table.get(key)
                if v is None:
                    v = table[key] = evaluate(spec, allocation, p, None)
                values[j] = v
            yield allocation, values

    def scorer(
        self, i: CommuterId, p: Sequence[float]
    ) -> Callable[[ValuationSpec, Sequence[float]], WelfareReport]:
        """`score(spec, q)` returns, or raises, what `_argmax` over the
        table's feasible set does at `q` with the table's reports, i's
        replaced by `spec`, which must exclude exactly what i's report
        excludes. The readers of i's probability are valued at `p`, in
        fresh tables when `p[i]` is not the table's; `q` may differ from
        `p` only where no other commuter's spec reads it.

        That holds within the magnitude bounds of admitted input
        (`valuation.MAX_MAGNITUDE`): every probability, `q`'s included, in
        [0, 1], and every report, and `spec` up to a rescaling of its
        coefficients by at most MAX_SCALE, within them. Then no evaluation
        raises and no sum of values, or of their differences, overflows;
        other input has no guarantee. One pass over `values_at(i, p)`
        keeps the contenders. Exclusion reads no probability, so the rows
        are the allocations nobody excludes whatever i reports; the others'
        values are the rows', the readers' revalued if fresh. A contender's
        others' exact value sum is strictly greater than that of every
        earlier row giving i the same assignment. For a fixed value of i,
        welfare (the correctly rounded exact sum) is monotone in the
        others' exact sum, so a dropped allocation has an earlier contender
        with the same assignment of i that scores at least as high under
        any valuation of i, and the first maximiser is a contender. A
        scoring evaluates i once per assignment of i among the contenders,
        then sums each contender once, in commuter order.
        """
        mine = self.present[i][2]
        leaders: dict[int, tuple[float, list[float]]] = {}
        contenders: list[tuple[Allocation, int, list[float]]] = []
        for allocation, values in self.values_at(i, p):
            values[i] = 0.0
            key = id(allocation[mine])
            total = math.fsum(values)
            leader = leaders.get(key)
            # Rounding is monotone, so unequal rounded sums order the exact
            # sums alike; level ones are ordered by their exact difference.
            if (leader is None or total > leader[0] or total == leader[0]
                    and math.fsum(values + [-x for x in leader[1]]) > 0.0):
                leaders[key] = (total, values)
                contenders.append((allocation, key, values))

        def score(spec: ValuationSpec, q: Sequence[float]) -> WelfareReport:
            own: dict[int, float] = {}
            best_allocation = None
            best_welfare = 0.0
            best_values: tuple[float, ...] = ()
            for allocation, key, values in contenders:
                v = own.get(key)
                if v is None:
                    v = own[key] = evaluate(spec, allocation, q, None)
                values[i] = v
                welfare = math.fsum(values)
                if best_allocation is None or welfare > best_welfare:
                    best_allocation = allocation
                    best_welfare = welfare
                    best_values = tuple(values)
            if best_allocation is None:
                raise RuntimeError(_NONE_ACCEPTABLE)
            return WelfareReport(best_allocation, best_welfare, best_values)

        return score


def efficient_allocation_excluding(s: Scenario, i: CommuterId) -> WelfareReport:
    """Best allocation of everyone except `i`, who is pinned to role none
    and contributes no value. Factors reading i's probability evaluate to
    zero and gates on i fail, as if i were not part of the scenario."""
    return efficient_allocation(s, absent=i)
