"""Seeded scenario generator for the benchmark.

Three valuation families share one shape:

- ``linear``: every term is multilinear in the commitment probabilities and
  no clause carries a gate, so commitment-settled payments are truthful.
- ``gated``: as linear, but a rider's value for a preferred driver is gated
  on that driver's commitment probability reaching a bound.
- ``quadratic``: as linear, but a preferred driver's probability enters a
  rider's value squared.

Drivers pay a cost for driving (more for a full car), may give a bonus to one
preferred rider, and alternately refuse or accept riding themselves. Riders value
a ride with a preferred driver above any other ride. A compact scenario gives
every commuter a single valued term (a driver's cost, a rider's value for one
preferred driver), which keeps an audit's deviation grid, whose size grows
as 5**terms, small. Numbers are rounded to two decimals so that the scenario
files stay short and exact.

Every scenario is checked with ``validate_scenario`` before it is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rideshare.model import Commuter, Role, Scenario, TripType, validate_scenario
from rideshare.valuation import (
    AnyPartners,
    Clause,
    ExactPartners,
    GateDirection,
    Monomial,
    OutcomePattern,
    PartnerCountAtLeast,
    ThresholdGate,
    ValuationSpec,
)

FAMILIES = ("linear", "gated", "quadratic")


@dataclass(frozen=True)
class Shape:
    """Structural parameters of one generated scenario."""

    n: int
    family: str
    drivers: int
    capacity: int
    density: float  # share of compatible pairs, among pairs with and without a driver
    compact: bool = False

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1 <= self.drivers <= self.n:
            raise ValueError(f"drivers must be in 1..{self.n}, got {self.drivers}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {self.capacity}")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 2)


def _clause(role: Role, terms=(), partners=AnyPartners(), gates=(), excluded=False) -> Clause:
    return Clause(OutcomePattern(role, partners), tuple(gates), tuple(terms), excluded)


def _mono(coefficient: float, *factors: tuple[int, int]) -> Monomial:
    return Monomial(coefficient, tuple(factors))


def _preferred_ride(rng: random.Random, family: str, owner: int, driver: int) -> Clause:
    exponent = 2 if family == "quadratic" else 1
    gates = ()
    if family == "gated":
        gates = (ThresholdGate(driver, _num(rng, 0.4, 0.8), GateDirection.AT_LEAST),)
    term = _mono(_num(rng, 2.0, 6.0), (owner, 1), (driver, exponent))
    return _clause(Role.RIDE, [term], ExactPartners(frozenset((driver,))), gates)


def _driver_spec(rng: random.Random, shape: Shape, i: int, riders: list[int],
                 drivers: list[int], refuses_ride: bool) -> ValuationSpec:
    cost = _num(rng, 0.5, 2.5)
    if shape.compact:
        ride = _clause(Role.RIDE, excluded=refuses_ride)
        clauses = (_clause(Role.DRIVE, [_mono(-cost, (i, 1))]), ride, _clause(Role.NONE))
        return ValuationSpec(i, clauses)
    clauses = []
    if shape.capacity >= 2:
        full = cost + _num(rng, 0.5, 2.0)
        clauses.append(_clause(Role.DRIVE, [_mono(-full, (i, 1))], PartnerCountAtLeast(2)))
    if riders:
        r = rng.choice(riders)
        terms = [_mono(-cost, (i, 1)), _mono(_num(rng, 0.0, 1.5), (i, 1), (r, 1))]
        clauses.append(_clause(Role.DRIVE, terms, ExactPartners(frozenset((r,)))))
    clauses.append(_clause(Role.DRIVE, [_mono(-cost, (i, 1))]))
    if refuses_ride:
        clauses.append(_clause(Role.RIDE, excluded=True))
    else:
        if drivers:
            clauses.append(_preferred_ride(rng, shape.family, i, rng.choice(drivers)))
        clauses.append(_clause(Role.RIDE, [_mono(_num(rng, 0.5, 2.5), (i, 1))]))
    clauses.append(_clause(Role.NONE))
    return ValuationSpec(i, tuple(clauses))


def _rider_spec(rng: random.Random, shape: Shape, i: int, drivers: list[int]) -> ValuationSpec:
    preferred = 1 if shape.compact else 2
    clauses = [
        _preferred_ride(rng, shape.family, i, d)
        for d in sorted(rng.sample(drivers, min(preferred, len(drivers))))
    ]
    if not shape.compact:
        clauses.append(_clause(Role.RIDE, [_mono(_num(rng, 0.5, 2.5), (i, 1))]))
    clauses.append(_clause(Role.DRIVE, excluded=True))
    clauses.append(_clause(Role.NONE))
    return ValuationSpec(i, tuple(clauses))


def structure_key(s: Scenario) -> tuple:
    """What the feasible set depends on: vehicles, seats and compatibility."""
    return (
        tuple(c.has_vehicle for c in s.commuters),
        tuple(c.seat_capacity for c in s.commuters),
        s.compatibility,
    )


def scenario(rng: random.Random, shape: Shape, name: str) -> Scenario:
    """One scenario of the given shape; all randomness comes from `rng`."""
    n = shape.n
    driver_ids = set(rng.sample(range(n), shape.drivers))
    rows = [[True] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Only pairs with a driver in them shape the feasible set. Each of the two
    # classes gets exactly round(density * size) compatible pairs, so that
    # scenarios of one shape differ in which pairs match, not in how many.
    for group in ([p for p in pairs if driver_ids & set(p)],
                  [p for p in pairs if not driver_ids & set(p)]):
        compatible = set(rng.sample(group, round(shape.density * len(group))))
        for i, j in group:
            rows[i][j] = rows[j][i] = (i, j) in compatible
    commuters = []
    for i in range(n):
        p = _num(rng, 0.3, 0.95)
        partners = [j for j in range(n) if j != i and rows[i][j]]
        drivers = [j for j in partners if j in driver_ids]
        if i in driver_ids:
            # every other driver refuses to ride, so that each scenario of a
            # shape skips the same share of allocations as excluded
            refuses = sorted(driver_ids).index(i) % 2 == 0
            spec = _driver_spec(rng, shape, i, partners, drivers, refuses)
            commuters.append(Commuter(i, True, shape.capacity, TripType(spec, p)))
        else:
            spec = _rider_spec(rng, shape, i, drivers)
            commuters.append(Commuter(i, False, 0, TripType(spec, p)))
    s = Scenario(
        tuple(commuters),
        tuple(tuple(r) for r in rows),
        {"name": name, "family": shape.family},
    )
    violations = validate_scenario(s)
    if violations:
        raise ValueError(f"generated scenario {name} is invalid: {violations}")
    return s


def scenarios(seed: int, shapes: list[Shape], prefix: str,
              distinct_structure: bool = False) -> list[Scenario]:
    """One scenario per shape, drawn from a single seeded stream. With
    `distinct_structure`, a draw whose vehicles, seats and compatibility
    repeat an earlier scenario's is redrawn, so no two scenarios share a
    feasible set."""
    rng = random.Random(seed)
    seen: set[tuple] = set()
    out = []
    for k, shape in enumerate(shapes):
        name = f"{prefix}-{k:03d}"
        for _ in range(1000):
            s = scenario(rng, shape, name)
            key = structure_key(s)
            if not distinct_structure or key not in seen:
                break
        else:
            raise ValueError(f"could not draw a distinct structure for {name}")
        seen.add(key)
        out.append(s)
    return out
