"""Seeded Monte Carlo over commitment draws, plus exact enumeration.

Commitment bits come from a counter-based generator keyed by
(seed, trial, commuter), so any draw can be recomputed in isolation and
runs are reproducible regardless of evaluation order or platform.

With the allocation and payments fixed, a trial's settlement is a function
of its commitment vector alone. `_settle` computes it, once per distinct
vector in a Monte Carlo run and once per vector in the exact enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .model import Scenario
from .payments import ExcludedValueError, PaymentSchedule, Unconditional
from .valuation import EXCLUDED, evaluate

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


CommitVector = tuple[int, ...]


def realize(p: Sequence[float], seed: int, trial: int = 0) -> CommitVector:
    """Draw one commitment vector: bit k is 1 with probability p[k].

    Bit k compares a uniform draw hashed from (seed, trial, k) with p[k];
    the (seed, trial) prefix of that hash is computed once per call.
    """
    h = _splitmix64(_splitmix64(seed & _MASK) ^ (trial & _MASK))
    return tuple(1 if (_splitmix64(h ^ k) >> 11) * 2.0**-53 < p[k] else 0 for k in range(len(p)))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    commit: CommitVector
    values: tuple[float | None, ...]
    payments: tuple[float, ...]
    utilities: tuple[float | None, ...]
    welfare: float
    deficit: float
    flagged: bool


@dataclass(frozen=True)
class SimulationSummary:
    trials: int
    flagged: int
    mean_commit: tuple[float, ...]
    mean_value: tuple[float, ...]
    mean_payment: tuple[float, ...]
    mean_utility: tuple[float, ...]
    stderr_utility: tuple[float, ...]
    mean_welfare: float
    mean_deficit: float


def _settle(s: Scenario, schedule: PaymentSchedule, commit: CommitVector) -> tuple:
    """The `TrialRecord` fields after `commit` for one commitment vector:
    values, payments, utilities, welfare, deficit and the flag. A commuter
    whose true valuation excludes the allocation gets value and utility
    None, which flags the vector."""
    degenerate = tuple(float(b) for b in commit)
    values: list[float | None] = []
    payments: list[float] = []
    utilities: list[float | None] = []
    for c, entry, bit in zip(s.commuters, schedule.entries, commit):
        v = evaluate(c.true_type.valuation, schedule.allocation, degenerate)
        if isinstance(entry, Unconditional):
            charge = entry.amount
        else:
            charge = entry.on_commit if bit else entry.on_fail
        payments.append(charge)
        values.append(None if v is EXCLUDED else v)
        utilities.append(None if v is EXCLUDED else v - charge)
    welfare = math.fsum(v for v in values if v is not None)
    flagged = None in values
    return tuple(values), tuple(payments), tuple(utilities), welfare, -math.fsum(payments), flagged


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs) if xs else 0.0


def _stderr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    var = math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))


def run_trials(
    s: Scenario, schedule: PaymentSchedule, trials: int, seed: int
) -> tuple[list[TrialRecord], SimulationSummary]:
    """Simulate settlement over `trials` independent commitment draws.

    Each distinct commitment vector is settled once per call, and every
    trial that draws it shares that settlement. Trials where some
    commuter's true valuation excludes the realized outcome carry no number
    for that commuter; such trials are flagged and left out of the summary
    means. Summaries reduce with exact summation, so they do not depend on
    accumulation order.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    p = s.true_p()
    settled: dict[CommitVector, tuple] = {}
    records = []
    for t in range(trials):
        commit = realize(p, seed, t)
        if commit not in settled:
            settled[commit] = _settle(s, schedule, commit)
        records.append(TrialRecord(t, commit, *settled[commit]))
    clean = [r for r in records if not r.flagged]
    n = s.n
    mean_commit = tuple(_mean([float(r.commit[k]) for r in clean]) for k in range(n))
    mean_value = tuple(_mean([r.values[k] for r in clean]) for k in range(n))
    mean_payment = tuple(_mean([r.payments[k] for r in clean]) for k in range(n))
    mean_utility = tuple(_mean([r.utilities[k] for r in clean]) for k in range(n))
    stderr_utility = tuple(_stderr([r.utilities[k] for r in clean]) for k in range(n))
    summary = SimulationSummary(
        trials=trials,
        flagged=len(records) - len(clean),
        mean_commit=mean_commit,
        mean_value=mean_value,
        mean_payment=mean_payment,
        mean_utility=mean_utility,
        stderr_utility=stderr_utility,
        mean_welfare=_mean([r.welfare for r in clean]),
        mean_deficit=_mean([r.deficit for r in clean]),
    )
    return records, summary


def exact_expected_utilities(s: Scenario, schedule: PaymentSchedule) -> tuple[float, ...]:
    """Expected utilities by summing over all 2**n commitment vectors,
    weighted by the true commitment probabilities. Exact counterpart to
    the Monte Carlo mean; practical for small scenarios only."""
    n = s.n
    p = s.true_p()
    totals = [[] for _ in range(n)]
    for commit in product((0, 1), repeat=n):
        weight = 1.0
        for k in range(n):
            weight *= p[k] if commit[k] else 1.0 - p[k]
        values, _, utilities, _, _, flagged = _settle(s, schedule, commit)
        if flagged:
            raise ExcludedValueError(
                f"commuter {values.index(None)}: true valuation excludes the settled allocation"
            )
        for k, u in enumerate(utilities):
            totals[k].append(weight * u)
    return tuple(math.fsum(xs) for xs in totals)
