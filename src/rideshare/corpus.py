"""Bundled scenarios used by the built-in suite and the test corpus.

Most entries follow the same shape: drivers carry a per-trip cost that
scales with both parties' commitment, riders carry a positive value for
being driven. The "linear" entries are affine in every commitment
coordinate; the threshold and quadratic entries each break that in one
documented way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import Commuter, Role, Scenario, TripType, full_compatibility, with_report
from .valuation import (
    AnyPartners,
    Clause,
    ExactPartners,
    GateDirection,
    Monomial,
    OutcomePattern,
    ThresholdGate,
    ValuationSpec,
    is_linear_in_commitment,
)


def _clause(role: Role, terms=(), partners=AnyPartners(), gates=(), excluded=False) -> Clause:
    return Clause(OutcomePattern(role, partners), tuple(gates), tuple(terms), excluded)


def _mono(coefficient: float, *subjects: int, exponents: tuple[int, ...] = ()) -> Monomial:
    exps = exponents or tuple(1 for _ in subjects)
    return Monomial(coefficient, tuple(zip(subjects, exps)))


def _driver_spec(owner: int, drive_clauses: list[Clause]) -> ValuationSpec:
    clauses = tuple(drive_clauses) + (
        _clause(Role.RIDE, excluded=True),
        _clause(Role.NONE),
    )
    return ValuationSpec(owner, clauses)


def _rider_spec(owner: int, ride_clauses: list[Clause]) -> ValuationSpec:
    clauses = tuple(ride_clauses) + (
        _clause(Role.DRIVE, excluded=True),
        _clause(Role.NONE),
    )
    return ValuationSpec(owner, clauses)


def _driver(i: int, spec: ValuationSpec, p: float, capacity: int = 1) -> Commuter:
    return Commuter(i, has_vehicle=True, seat_capacity=capacity, true_type=TripType(spec, p))


def _rider(i: int, spec: ValuationSpec, p: float) -> Commuter:
    return Commuter(i, has_vehicle=False, seat_capacity=0, true_type=TripType(spec, p))


def _pair(alpha: float, beta: float, p0: float, p1: float, ride_gate: float | None = None,
          name: str = "") -> Scenario:
    gates = (ThresholdGate(0, ride_gate, GateDirection.AT_LEAST),) if ride_gate is not None else ()
    driver = _driver_spec(0, [_clause(Role.DRIVE, [_mono(alpha, 0, 1)])])
    rider = _rider_spec(1, [_clause(Role.RIDE, [_mono(beta, 0, 1)], gates=gates)])
    return Scenario(
        (_driver(0, driver, p0), _rider(1, rider, p1)),
        full_compatibility(2),
        metadata={"name": name} if name else {},
    )


def _linear_pair_profitable() -> Scenario:
    """Shared trip is worth it: cost -2, rider value 5, both affine."""
    return _pair(-2.0, 5.0, 0.5, 0.8, name="linear-pair-profitable")


def _linear_pair_unprofitable() -> Scenario:
    return _pair(-2.0, 1.0, 0.5, 0.8, name="linear-pair-unprofitable")


def _linear_pair_certain() -> Scenario:
    return _pair(-1.0, 3.0, 1.0, 1.0, name="linear-pair-certain")


def _linear_pair_never_rider() -> Scenario:
    return _pair(-2.0, 5.0, 0.6, 0.0, name="linear-pair-never-rider")


def _linear_pair_own_terms() -> Scenario:
    """Rider value reads only their own commitment."""
    driver = _driver_spec(0, [_clause(Role.DRIVE, [_mono(-2.0, 0, 1)])])
    rider = _rider_spec(1, [_clause(Role.RIDE, [_mono(3.0, 1)])])
    return Scenario(
        (_driver(0, driver, 0.5), _rider(1, rider, 0.8)),
        full_compatibility(2),
        metadata={"name": "linear-pair-own-terms"},
    )


def _linear_solo() -> Scenario:
    spec = ValuationSpec(0, (_clause(Role.NONE),))
    return Scenario(
        (_driver(0, spec, 0.7),),
        full_compatibility(1),
        metadata={"name": "linear-solo"},
    )


def _linear_trio_shared_driver() -> Scenario:
    driver = _driver_spec(0, [
        _clause(Role.DRIVE, [_mono(-1.0, 0, 1)], partners=ExactPartners(frozenset((1,)))),
        _clause(Role.DRIVE, [_mono(-1.0, 0, 2)], partners=ExactPartners(frozenset((2,)))),
        _clause(Role.DRIVE, [_mono(-1.5, 0, 1), _mono(-1.5, 0, 2)],
                partners=ExactPartners(frozenset((1, 2)))),
    ])
    r1 = _rider_spec(1, [_clause(Role.RIDE, [_mono(3.0, 0, 1)])])
    r2 = _rider_spec(2, [_clause(Role.RIDE, [_mono(2.5, 0, 2)])])
    return Scenario(
        (_driver(0, driver, 0.9, capacity=2), _rider(1, r1, 0.6), _rider(2, r2, 0.7)),
        full_compatibility(3),
        metadata={"name": "linear-trio-shared-driver"},
    )


def _linear_trio_two_drivers() -> Scenario:
    d0 = _driver_spec(0, [
        _clause(Role.DRIVE, [_mono(-1.0, 0, 2)], partners=ExactPartners(frozenset((2,)))),
        _clause(Role.DRIVE, [_mono(-1.0, 0, 1)], partners=ExactPartners(frozenset((1,)))),
    ])
    d1 = _driver_spec(1, [
        _clause(Role.DRIVE, [_mono(-0.5, 1, 2)], partners=ExactPartners(frozenset((2,)))),
    ])
    rider = _rider_spec(2, [
        _clause(Role.RIDE, [_mono(4.0, 0, 2)], partners=ExactPartners(frozenset((0,)))),
        _clause(Role.RIDE, [_mono(3.5, 1, 2)], partners=ExactPartners(frozenset((1,)))),
    ])
    return Scenario(
        (_driver(0, d0, 0.8), _driver(1, d1, 0.5), _rider(2, rider, 0.9)),
        full_compatibility(3),
        metadata={"name": "linear-trio-two-drivers"},
    )


def _linear_trio_constants() -> Scenario:
    """Values do not read commitment at all; the classic auction setting."""
    driver = _driver_spec(0, [_clause(Role.DRIVE, [Monomial(-1.0)])])
    r1 = _rider_spec(1, [_clause(Role.RIDE, [Monomial(2.0)])])
    r2 = _rider_spec(2, [_clause(Role.RIDE, [Monomial(1.5)])])
    return Scenario(
        (_driver(0, driver, 0.9, capacity=2), _rider(1, r1, 0.8), _rider(2, r2, 0.4)),
        full_compatibility(3),
        metadata={"name": "linear-trio-constants"},
    )


def _linear_quad_disjoint_pairs() -> Scenario:
    d0 = _driver_spec(0, [_clause(Role.DRIVE, [_mono(-1.0, 0, 2)])])
    d1 = _driver_spec(1, [_clause(Role.DRIVE, [_mono(-0.5, 1, 3)])])
    r2 = _rider_spec(2, [_clause(Role.RIDE, [_mono(3.0, 0, 2)])])
    r3 = _rider_spec(3, [_clause(Role.RIDE, [_mono(2.0, 1, 3)])])
    compat = (
        (True, False, True, False),
        (False, True, False, True),
        (True, False, True, False),
        (False, True, False, True),
    )
    return Scenario(
        (_driver(0, d0, 0.9), _driver(1, d1, 0.7), _rider(2, r2, 0.8), _rider(3, r3, 0.6)),
        compat,
        metadata={"name": "linear-quad-disjoint-pairs"},
    )


def _linear_quad_full_van() -> Scenario:
    """One driver, three riders, a cost clause per rider subset."""
    cost = -0.4
    subsets = [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    drive_clauses = [
        _clause(Role.DRIVE, [_mono(cost, 0, r) for r in subset],
                partners=ExactPartners(frozenset(subset)))
        for subset in subsets
    ]
    d0 = _driver_spec(0, drive_clauses)
    riders = [
        _rider_spec(1, [_clause(Role.RIDE, [_mono(2.0, 0, 1)])]),
        _rider_spec(2, [_clause(Role.RIDE, [_mono(1.8, 0, 2)])]),
        _rider_spec(3, [_clause(Role.RIDE, [_mono(1.6, 0, 3)])]),
    ]
    return Scenario(
        (
            _driver(0, d0, 0.95, capacity=3),
            _rider(1, riders[0], 0.5),
            _rider(2, riders[1], 0.6),
            _rider(3, riders[2], 0.7),
        ),
        full_compatibility(4),
        metadata={"name": "linear-quad-full-van"},
    )


def _linear_quad_competition() -> Scenario:
    d0 = _driver_spec(0, [
        _clause(Role.DRIVE, [_mono(-1.0, 0, 2)], partners=ExactPartners(frozenset((2,)))),
        _clause(Role.DRIVE, [_mono(-1.0, 0, 3)], partners=ExactPartners(frozenset((3,)))),
    ])
    d1 = _driver_spec(1, [
        _clause(Role.DRIVE, [_mono(-0.8, 1, 2)], partners=ExactPartners(frozenset((2,)))),
        _clause(Role.DRIVE, [_mono(-0.8, 1, 3)], partners=ExactPartners(frozenset((3,)))),
    ])
    r2 = _rider_spec(2, [
        _clause(Role.RIDE, [_mono(3.0, 0, 2)], partners=ExactPartners(frozenset((0,)))),
        _clause(Role.RIDE, [_mono(2.0, 1, 2)], partners=ExactPartners(frozenset((1,)))),
    ])
    r3 = _rider_spec(3, [
        _clause(Role.RIDE, [_mono(2.5, 0, 3)], partners=ExactPartners(frozenset((0,)))),
        _clause(Role.RIDE, [_mono(2.2, 1, 3)], partners=ExactPartners(frozenset((1,)))),
    ])
    return Scenario(
        (_driver(0, d0, 0.9), _driver(1, d1, 0.85), _rider(2, r2, 0.6), _rider(3, r3, 0.75)),
        full_compatibility(4),
        metadata={"name": "linear-quad-competition"},
    )


def _threshold_gate_pair() -> Scenario:
    """The rider only values drivers whose commitment clears 0.6, which
    makes their value jump rather than interpolate."""
    return _pair(-2.0, 5.0, 0.5, 0.8, ride_gate=0.6, name="threshold-gate-pair")


def _threshold_gate_pair_misreport() -> Scenario:
    """Same scenario, but the driver reports commitment 0.6 instead of 0.5."""
    base = _threshold_gate_pair()
    trip = TripType(base.commuters[0].true_type.valuation, 0.6)
    s = with_report(base, 0, trip)
    return replace(s, metadata={"name": "threshold-gate-pair-misreport"})


def _quadratic_reliability_pair() -> Scenario:
    """The rider prizes driver reliability superlinearly (squared term)."""
    driver = _driver_spec(0, [_clause(Role.DRIVE, [_mono(-2.0, 0, 1)])])
    rider = _rider_spec(1, [_clause(Role.RIDE, [_mono(4.0, 0, 1, exponents=(2, 1))])])
    return Scenario(
        (_driver(0, driver, 0.25), _rider(1, rider, 0.8)),
        full_compatibility(2),
        metadata={"name": "quadratic-reliability-pair"},
    )


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    scenario: Scenario


def corpus() -> tuple[CorpusEntry, ...]:
    return tuple(CorpusEntry(s.metadata["name"], s) for s in (
        _linear_pair_profitable(),
        _linear_pair_unprofitable(),
        _linear_pair_certain(),
        _linear_pair_never_rider(),
        _linear_pair_own_terms(),
        _linear_solo(),
        _linear_trio_shared_driver(),
        _linear_trio_two_drivers(),
        _linear_trio_constants(),
        _linear_quad_disjoint_pairs(),
        _linear_quad_full_van(),
        _linear_quad_competition(),
        _threshold_gate_pair(),
        _threshold_gate_pair_misreport(),
        _quadratic_reliability_pair(),
    ))


def by_name(name: str) -> Scenario:
    for e in corpus():
        if e.name == name:
            return e.scenario
    raise KeyError(f"no bundled scenario named {name!r}")


def linear_entries() -> tuple[CorpusEntry, ...]:
    """The entries whose true and reported specs all pass
    `is_linear_in_commitment`."""
    return tuple(e for e in corpus() if all(
        is_linear_in_commitment(trip.valuation)
        for c in e.scenario.commuters for trip in (c.true_type, c.reported_type)))
