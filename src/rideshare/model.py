"""Core data model: commuters, trip types, allocations, feasibility."""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .valuation import ValuationSpec

CommuterId = int

_EMPTY: frozenset[int] = frozenset()


# The most feasible allocations the walk stores, a bound set by memory:
# walking and pricing cost about 185 bytes of peak memory and 3.3-4.0 µs
# per allocation. A generated 12-commuter scenario (6 two-seat drivers,
# every pair compatible) has 1,697,887; on a shared 2-core VM with Python
# 3.11 the walk took 3.2-3.5 s, pricing it under commit 2.3-3.5 s more,
# and the process peaked at 314 MB resident. So this bounds one pricing to
# about 370 MB and 8 s.
MAX_ALLOCATIONS = 2_000_000


class TooManyCommutersError(ValueError):
    """The scenario is too large for the feasible-set walk: it has more than
    MAX_ALLOCATIONS feasible allocations, or about as many commuters as the
    interpreter's recursion limit (1,000 by default), as the walk recurses
    once per commuter. Raised in place of building the set or of
    RecursionError. The walk stores allocations until it passes the budget,
    so refusing costs about what pricing a scenario just under it does: a
    generated 13-commuter scenario (6 two-seat drivers, every pair
    compatible) is refused after 5-6 s at a 309 MB peak."""


class Role(Enum):
    DRIVE = "drive"
    RIDE = "ride"
    NONE = "none"


@dataclass(frozen=True)
class TripType:
    """A commuter's private type: how they value outcomes and how likely
    they are to actually show up."""

    valuation: ValuationSpec
    p_commit: float


@dataclass(frozen=True)
class Commuter:
    id: CommuterId
    has_vehicle: bool
    seat_capacity: int
    true_type: TripType
    reported_type: TripType | None = None

    def __post_init__(self) -> None:
        if self.reported_type is None:
            object.__setattr__(self, "reported_type", self.true_type)


@dataclass(frozen=True)
class Assignment:
    role: Role
    partners: frozenset[CommuterId]


# An allocation is one assignment per commuter, indexed by commuter id.
# Drivers carry their rider set, riders carry their single driver,
# unscheduled commuters carry nothing.
Allocation = tuple[Assignment, ...]


def all_none_allocation(n: int) -> Allocation:
    return (Assignment(Role.NONE, _EMPTY),) * n


@dataclass(frozen=True)
class Scenario:
    commuters: tuple[Commuter, ...]
    compatibility: tuple[tuple[bool, ...], ...]
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.commuters)

    def true_p(self) -> tuple[float, ...]:
        return tuple(c.true_type.p_commit for c in self.commuters)

    def reported_p(self) -> tuple[float, ...]:
        return tuple(c.reported_type.p_commit for c in self.commuters)


def full_compatibility(n: int) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(True for _ in range(n)) for _ in range(n))


def with_report(s: Scenario, i: CommuterId, trip: TripType) -> Scenario:
    commuters = list(s.commuters)
    commuters[i] = replace(commuters[i], reported_type=trip)
    return replace(s, commuters=tuple(commuters))


def with_truthful_reports(s: Scenario) -> Scenario:
    commuters = tuple(replace(c, reported_type=c.true_type) for c in s.commuters)
    return replace(s, commuters=commuters)


def allocation_violations(s: Scenario, a: Allocation) -> list[str]:
    """Check the structural allocation invariants. Returns human-readable
    violations; an empty list means the allocation is well formed."""
    out: list[str] = []
    n = s.n
    if len(a) != n:
        return [f"allocation has {len(a)} assignments for {n} commuters"]
    ride_memberships: dict[int, list[int]] = {}
    for i, asg in enumerate(a):
        if i in asg.partners:
            out.append(f"commuter {i}: partnered with itself")
        if any(j < 0 or j >= n for j in asg.partners):
            out.append(f"commuter {i}: partner id out of range")
            continue
        if asg.role is Role.NONE:
            if asg.partners:
                out.append(f"commuter {i}: role none but has partners")
        elif asg.role is Role.RIDE:
            if len(asg.partners) != 1:
                out.append(f"commuter {i}: rider must have exactly one driver")
            else:
                d = min(asg.partners)
                if a[d].role is not Role.DRIVE:
                    out.append(f"commuter {i}: rides with {d} who is not driving")
                elif i not in a[d].partners:
                    out.append(f"commuter {i}: driver {d} does not list them")
        elif asg.role is Role.DRIVE:
            if not asg.partners:
                out.append(f"commuter {i}: driving with no riders")
            if not s.commuters[i].has_vehicle:
                out.append(f"commuter {i}: driving without a vehicle")
            if len(asg.partners) > s.commuters[i].seat_capacity:
                out.append(f"commuter {i}: {len(asg.partners)} riders exceed capacity "
                           f"{s.commuters[i].seat_capacity}")
            for r in asg.partners:
                ride_memberships.setdefault(r, []).append(i)
                if a[r].role is not Role.RIDE:
                    out.append(f"commuter {i}: partner {r} is not riding")
                elif a[r].partners != frozenset((i,)):
                    out.append(f"commuter {i}: partner {r} does not ride with them alone")
    for r, drivers in ride_memberships.items():
        if len(drivers) > 1:
            out.append(f"commuter {r}: claimed by drivers {sorted(drivers)}")
    return out


def validate_scenario(s: Scenario) -> list[str]:
    """Semantic validation. Violations are returned as data, never raised.
    An admitted scenario keeps the magnitude bounds of
    `valuation.MAX_MAGNITUDE`, under which nothing the package computes
    from it overflows; for a scenario not admitted there is no such
    guarantee."""
    from .valuation import spec_violations

    out: list[str] = []
    n = s.n
    if n < 1:
        return ["scenario has no commuters"]
    for k, c in enumerate(s.commuters):
        if c.id != k:
            out.append(f"commuter at index {k} has id {c.id}; ids must be 0..{n - 1} in order")
        if c.seat_capacity < 0:
            out.append(f"commuter {k}: negative seat_capacity {c.seat_capacity}")
        if not c.has_vehicle and c.seat_capacity != 0:
            out.append(f"commuter {k}: seat_capacity {c.seat_capacity} without a vehicle")
        truth = c.true_type.valuation
        true_lines = spec_violations(truth, n, expected_owner=k)
        for label, trip in (("true", c.true_type), ("reported", c.reported_type)):
            if not 0.0 <= trip.p_commit <= 1.0:
                out.append(f"commuter {k}: {label} p_commit {trip.p_commit} outside [0, 1]")
            # a report of the true valuation object repeats its lines
            lines = (true_lines if trip.valuation is truth
                     else spec_violations(trip.valuation, n, expected_owner=k))
            for v in lines:
                out.append(f"commuter {k} {label} valuation: {v}")
    if len(s.compatibility) != n or any(len(row) != n for row in s.compatibility):
        out.append(f"compatibility matrix is not {n}x{n}")
        return out
    for i in range(n):
        if not s.compatibility[i][i]:
            out.append(f"compatibility: diagonal entry ({i}, {i}) must be true")
        for j in range(i + 1, n):
            if s.compatibility[i][j] != s.compatibility[j][i]:
                out.append(f"compatibility: asymmetric at ({i}, {j})")
    return out


@functools.lru_cache(maxsize=1)
def _walk(
    has_vehicle: tuple[bool, ...],
    capacity: tuple[int, ...],
    compatibility: tuple[tuple[bool, ...], ...],
) -> tuple[Allocation, ...]:
    """Every feasible allocation with nobody absent, in lexicographic order.

    Commuters choose in id order, "not riding" (-1) first and then eligible
    drivers ascending. A commuter who already has riders may only choose -1;
    a driver who is riding or whose seats are full is skipped. Only the last
    structure is cached: callers enumerate one structure many times in a row.
    Raises TooManyCommutersError instead of storing allocation
    MAX_ALLOCATIONS + 1.

    Equal assignments are one object across the result: one per rider
    set for drivers, one per driver for riders and one for role none, which
    fills the first allocation. Allocations share them, so within one
    result an assignment's id names it, and per-commuter value tables key
    on that id. Each allocation is a tuple of its own, so its id names it
    too while the result is alive.
    """
    n = len(has_vehicle)
    if not n:  # no commuter to choose: one empty allocation
        return ((),)
    eligible = [
        [d for d in range(n) if d != r and has_vehicle[d] and compatibility[r][d]]
        for r in range(n)
    ]
    none = Assignment(Role.NONE, _EMPTY)
    ride = [Assignment(Role.RIDE, frozenset((d,))) for d in range(n)]
    # A driver is tracked by the assignment they hold: `none` until a rider
    # boards, then the drive object of their rider set, reached from the
    # one before through `boarded`, keyed by that object's id and the new
    # rider. `seats` counts each object's riders; a riding driver holds a
    # `ride` object, which it lacks, so they are never offered a seat.
    boarded: dict[tuple[int, int], Assignment] = {}
    seats = {id(none): 0}
    row = [none] * n
    out: list[Allocation] = []
    budget = MAX_ALLOCATIONS
    last = n - 1

    def assign(r: int) -> None:
        # The last commuter's choices are leaves, stored here, not one call each.
        if r < last:
            assign(r + 1)
        elif len(out) < budget:
            out.append(tuple(row))
        else:
            raise _over_budget(n, budget)
        if row[r] is not none:
            return
        for d in eligible[r]:
            held = row[d]
            taken = seats.get(id(held))
            if taken is None or taken >= capacity[d]:
                continue
            key = (id(held), r)
            grown = boarded.get(key)
            if grown is None:
                grown = boarded[key] = Assignment(Role.DRIVE, held.partners | {r})
                seats[id(grown)] = taken + 1
            row[r] = ride[d]
            row[d] = grown
            if r < last:
                assign(r + 1)
            elif len(out) < budget:
                out.append(tuple(row))
            else:
                raise _over_budget(n, budget)
            row[d] = held
        row[r] = none

    try:
        assign(0)
    except RecursionError:
        raise TooManyCommutersError(
            f"scenario has {n} commuters, too many for the feasible-set walk, which "
            f"recurses once per commuter (recursion limit {sys.getrecursionlimit()})"
        ) from None
    return tuple(out)


def _over_budget(n: int, budget: int) -> TooManyCommutersError:
    return TooManyCommutersError(
        f"scenario has {n} commuters and more than {budget} feasible "
        "allocations, too many for the feasible-set walk"
    )


def _feasible(s: Scenario, absent: CommuterId | None = None) -> tuple[Allocation, ...]:
    """The feasible allocations with commuter `absent`, if any, pinned to
    role none, in walk order, as objects of the walk's full tuple: the full
    tuple itself, or those of its allocations that give `absent` the walk's
    role-none object, as an absent commuter neither rides nor drives.
    Anything other than None or an id in 0..n-1 raises ValueError."""
    if absent is not None and (type(absent) is not int or not 0 <= absent < s.n):
        raise ValueError(f"absent commuter id {absent!r} outside 0..{s.n - 1}")
    full = _walk(
        tuple(c.has_vehicle for c in s.commuters),
        tuple(c.seat_capacity for c in s.commuters),
        s.compatibility,
    )
    if absent is None:
        return full
    none = full[0][absent]
    return tuple([a for a in full if a[absent] is none])


def enumerate_feasible_allocations(
    s: Scenario, absent: CommuterId | None = None
) -> Iterator[Allocation]:
    """Iterate over every feasible allocation in a fixed deterministic order.

    Order is lexicographic over the per-commuter driver-choice encoding with
    "not riding" (-1) first, so the all-none allocation always comes first.
    Commuter `absent`, if given, is pinned to role none and cannot drive; an
    id outside 0..n-1 raises ValueError.
    """
    return iter(_feasible(s, absent))
