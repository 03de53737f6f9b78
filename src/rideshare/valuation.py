"""Clause-based valuation language over allocation outcomes and commitment
probabilities.

A valuation is an ordered list of clauses. The first clause whose outcome
pattern matches the owner's assignment decides the value: excluded clauses
mark the outcome as unacceptable, threshold gates zero the value when a
probability misses a bound, and otherwise the monomial terms are summed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Union

from .model import Allocation, Assignment, CommuterId, Role, all_none_allocation

# The magnitude bounds of admitted input. `spec_violations` refuses a
# default value above MAX_MAGNITUDE in magnitude, a clause whose sum of
# |coefficient|, added in term order, is above it (the margin below absorbs
# that sum's rounding), and a factor exponent above MAX_EXPONENT, up to
# which every int is exactly a float, so `p ** exponent` converts it
# without raising and stays in [0, 1] for p in [0, 1]. `audit.DeviationSpace`
# refuses a coefficient scale above MAX_SCALE in magnitude. So every value,
# reported, true or rescaled by an audit, is at most
# V = MAX_MAGNITUDE * MAX_SCALE = 2**132 in magnitude.
# A file of n commuters carries an n x n compatibility matrix, so n < 2**24
# (a larger one would take 2**48 booleans). Every other number is a sum or
# difference of values, at most 8 n**2 V in magnitude: a welfare n V, a
# payment (a pivot less the others' values) 2n V, a settled utility
# (2n + 1) V, an audit gain twice that, and a simulated deficit (n
# payments) 2 n**2 V. The largest, a utility column's sum of squared
# deviations over at most cli.MAX_TRIAL_ROWS < 2**21 trials, is below
#     2**21 * (16 * n**2 * V)**2 < 2**21 * (2**52 * 2**132)**2 = 2**389,
# far inside the float range (below 2**1024): no sum or difference of
# admitted values overflows, whatever the order of its terms.
MAX_MAGNITUDE = 2.0**100
MAX_SCALE = 2.0**32
MAX_EXPONENT = 2**53


class _Excluded:
    """Sentinel for outcomes a commuter rules out entirely."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Excluded"


EXCLUDED = _Excluded()


@dataclass(frozen=True)
class AnyPartners:
    pass


@dataclass(frozen=True)
class ExactPartners:
    partners: frozenset[CommuterId]


@dataclass(frozen=True)
class PartnerCountAtLeast:
    count: int


PartnerConstraint = Union[AnyPartners, ExactPartners, PartnerCountAtLeast]


@dataclass(frozen=True)
class OutcomePattern:
    own_role: Role
    partner_constraint: PartnerConstraint = AnyPartners()


class GateDirection(Enum):
    AT_LEAST = "at_least"
    BELOW = "below"


@dataclass(frozen=True)
class ThresholdGate:
    subject: CommuterId
    bound: float
    direction: GateDirection


@dataclass(frozen=True)
class Monomial:
    """coefficient * product of p[subject] ** exponent. Empty factors make
    a constant term."""

    coefficient: float
    factors: tuple[tuple[CommuterId, int], ...] = ()


@dataclass(frozen=True)
class Clause:
    pattern: OutcomePattern
    gates: tuple[ThresholdGate, ...] = ()
    terms: tuple[Monomial, ...] = ()
    excluded: bool = False


@dataclass(frozen=True)
class ValuationSpec:
    owner: CommuterId
    clauses: tuple[Clause, ...]
    default_value: float = 0.0

    @functools.cached_property
    def _subjects(self) -> tuple[CommuterId, ...]:
        """`referenced_subjects(self)`, worked out on first use: payments
        ask it of the same spec once per commuter they price."""
        subjects = {self.owner}
        for clause in self.clauses:
            if clause.excluded:
                continue
            for gate in clause.gates:
                subjects.add(gate.subject)
            for term in clause.terms:
                for subject, _ in term.factors:
                    subjects.add(subject)
        return tuple(sorted(subjects))


def _matches(pattern: OutcomePattern, assignment: Assignment) -> bool:
    if pattern.own_role is not assignment.role:
        return False
    c = pattern.partner_constraint
    if isinstance(c, AnyPartners):
        return True
    if isinstance(c, ExactPartners):
        return assignment.partners == c.partners
    return len(assignment.partners) >= c.count


def evaluate(
    spec: ValuationSpec,
    allocation: Allocation,
    p: Sequence[float],
    absent: CommuterId | None = None,
):
    """Value of `allocation` to the spec's owner at probability vector `p`.

    Returns a float, or EXCLUDED when the first matching clause is excluded.
    Exclusion depends only on the outcome pattern, never on probabilities.
    Commuter `absent`, if given, is treated as missing: factors on them
    evaluate to zero and gates on them fail. The value is finite when the
    spec passes `spec_violations` and `p` lies in [0, 1]; no other input
    has that guarantee.
    """
    assignment = allocation[spec.owner]
    for clause in spec.clauses:
        if not _matches(clause.pattern, assignment):
            continue
        if clause.excluded:
            return EXCLUDED
        for gate in clause.gates:
            if gate.subject == absent:
                return 0.0
            v = p[gate.subject]
            passed = v >= gate.bound if gate.direction is GateDirection.AT_LEAST else v < gate.bound
            if not passed:
                return 0.0
        total = 0.0
        for term in clause.terms:
            x = term.coefficient
            for subject, exponent in term.factors:
                if subject == absent:
                    x = 0.0
                    break
                v = p[subject]
                x *= v if exponent == 1 else v**exponent
            total += x
        return total
    return spec.default_value


def excludes(spec: ValuationSpec, assignment: Assignment) -> bool:
    """True when `evaluate` returns EXCLUDED on an allocation giving the
    spec's owner `assignment`: the first clause matching it is excluded."""
    for clause in spec.clauses:
        if _matches(clause.pattern, assignment):
            return clause.excluded
    return False


def substitute(p: Sequence[float], i: CommuterId, value: float) -> tuple[float, ...]:
    out = list(p)
    out[i] = value
    return tuple(out)


def spec_violations(spec: ValuationSpec, n: int, expected_owner: CommuterId | None = None) -> list[str]:
    """Structural checks a spec must pass before it is evaluated, the
    magnitude bounds among them (see MAX_MAGNITUDE)."""
    out: list[str] = []
    if expected_owner is not None and spec.owner != expected_owner:
        out.append(f"owner {spec.owner} does not match commuter {expected_owner}")
    if not 0 <= spec.owner < n:
        out.append(f"owner {spec.owner} out of range")
    if not abs(spec.default_value) <= MAX_MAGNITUDE:
        out.append(f"default value {spec.default_value} outside [-2**100, 2**100]")
    for ci, clause in enumerate(spec.clauses):
        c = clause.pattern.partner_constraint
        if isinstance(c, ExactPartners):
            if spec.owner in c.partners:
                out.append(f"clause {ci}: exact partners include the owner")
            if any(j < 0 or j >= n for j in c.partners):
                out.append(f"clause {ci}: exact partner id out of range")
        elif isinstance(c, PartnerCountAtLeast) and c.count < 1:
            out.append(f"clause {ci}: partner count bound must be at least 1")
        for gate in clause.gates:
            if not 0 <= gate.subject < n:
                out.append(f"clause {ci}: gate subject {gate.subject} out of range")
            if not 0.0 <= gate.bound <= 1.0:
                out.append(f"clause {ci}: gate bound {gate.bound} outside [0, 1]")
        total = 0.0
        for ti, term in enumerate(clause.terms):
            total += abs(term.coefficient)
            for subject, exponent in term.factors:
                if not 0 <= subject < n:
                    out.append(f"clause {ci}: factor subject {subject} out of range")
                if exponent < 1:
                    out.append(f"clause {ci}: factor exponent {exponent} below 1")
                elif exponent > MAX_EXPONENT:
                    out.append(f"clause {ci}: term {ti} factor exponent {exponent} above 2**53")
        if not total <= MAX_MAGNITUDE:
            out.append(f"clause {ci}: sum of |coefficient| {total} outside [0, 2**100]")
        if clause.excluded and clause.terms:
            out.append(f"clause {ci}: excluded clause carries terms")
        if clause.excluded and clause.gates:
            out.append(f"clause {ci}: excluded clause carries gates")
    # travelling alone must always be an acceptable fallback
    if not out and evaluate(spec, *_travel_alone(n)) is EXCLUDED:
        out.append("the all-none outcome is excluded")
    return out


@functools.lru_cache(maxsize=1)
def _travel_alone(n: int) -> tuple[Allocation, tuple[float, ...]]:
    """The all-none allocation of n commuters and all-zero probabilities,
    shared by the 2n specs of one scenario's validation."""
    return all_none_allocation(n), (0.0,) * n


def referenced_subjects(spec: ValuationSpec) -> tuple[CommuterId, ...]:
    """Owner plus every commuter whose probability the spec reads.
    Excluded clauses never contribute a value, so they are ignored."""
    return spec._subjects


def is_external_commit_independent(spec: ValuationSpec) -> bool:
    """True when no gate or factor reads another commuter's probability."""
    return all(subject == spec.owner for subject in referenced_subjects(spec))


def is_linear_in_commitment(spec: ValuationSpec) -> bool:
    """True when each subject of a term has exponents summing to 1 (a
    subject named twice, as in p0 * p0, is squared) and every gate is
    vacuous over [0, 1]. Such specs are affine in each probability
    coordinate. A gate with 0 < bound <= 1 flips somewhere on the interval
    (for either direction), so it bends the value and disqualifies the
    spec."""
    for clause in spec.clauses:
        if clause.excluded:
            continue
        for gate in clause.gates:
            if 0.0 < gate.bound <= 1.0:
                return False
        for term in clause.terms:
            exponents: dict[CommuterId, int] = {}
            for subject, exponent in term.factors:
                exponents[subject] = exponents.get(subject, 0) + exponent
            if any(total != 1 for total in exponents.values()):
                return False
    return True
