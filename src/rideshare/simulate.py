"""Seeded Monte Carlo over commitment draws, plus exact enumeration.

Commitment bits come from a counter-based generator keyed by
(seed, trial, commuter), so any draw can be recomputed in isolation and
runs are reproducible regardless of evaluation order or platform. One
kernel, `_draws`, draws every trial of a run: it hashes the seed once,
compares each commuter's hash with an integer threshold (`_threshold`, an
exact rewrite of the float test (x >> 11) * 2**-53 < p[k]), and makes
equal vectors one tuple. `realize` is the kernel run for one trial.

With the allocation and payments fixed, a trial's settlement is a function
of its commitment vector alone. `_settle` computes it, once per distinct
vector in a Monte Carlo run and once per vector in the exact enumeration.
The summary reduces over trials in trial order: `math.fsum` is exact,
but whether it raises on an intermediate overflow depends on the order of
its inputs, so regrouping them by vector could turn a run that sums into
one that fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .model import Scenario
from .payments import ExcludedValueError, PaymentSchedule, Unconditional
from .valuation import EXCLUDED, evaluate

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(words: Iterable[int]) -> list[int]:
    """The splitmix64 output function of each 64-bit word, in order."""
    out = []
    for x in words:
        x = (x + _GOLDEN) & _MASK
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(x ^ (x >> 31))
    return out


def _threshold(q: float) -> int:
    """The bit rule as a bound on the 64-bit hash x: bit 1 exactly when
    x < _threshold(q).

    The rule is the float test (x >> 11) * 2**-53 < q. For q in [0, 1]
    scaling by 2**53 is exact, so it reads x >> 11 < q * 2**53, which for
    the integer x >> 11 is x >> 11 < ceil(q * 2**53), that is
    x < ceil(q * 2**53) << 11. NaN and q <= 0 never draw 1 and q >= 1
    always does, as under the float test.
    """
    if not q > 0:
        return 0
    return math.ceil(min(q, 1.0) * 2**53) << 11


CommitVector = tuple[int, ...]


def _draws(p: Sequence[float], seed: int, trials: Iterable[int]) -> list[CommitVector]:
    """The commitment vector of each trial in `trials`, in order.

    Bit k of trial t compares the hash of (seed, t, k) with
    `_threshold(p[k])`. The seed is hashed once per call and (seed, t)
    once per trial, and trials that draw the same vector share one tuple.
    """
    thresholds = [_threshold(q) for q in p]
    n = len(thresholds)
    (key,) = _splitmix64((seed & _MASK,))
    prefixes = _splitmix64([key ^ (t & _MASK) for t in trials])
    words = iter(_splitmix64([h ^ k for h in prefixes for k in range(n)]))
    shared: dict[int, CommitVector] = {}
    vectors = []
    for _ in prefixes:
        mask = 0
        for k, bound in enumerate(thresholds):
            if next(words) < bound:
                mask |= 1 << k
        commit = shared.get(mask)
        if commit is None:
            commit = shared[mask] = tuple((mask >> k) & 1 for k in range(n))
        vectors.append(commit)
    return vectors


def realize(p: Sequence[float], seed: int, trial: int = 0) -> CommitVector:
    """Draw one commitment vector: bit k is 1 with probability p[k].

    Bit k compares a uniform draw hashed from (seed, trial, k) with p[k].
    This is `_draws`, the kernel `run_trials` draws with, for one trial.
    """
    return _draws(p, seed, (trial,))[0]


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
    means. Summaries reduce with exact summation, in trial order.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    p = s.true_p()
    settled: dict[CommitVector, tuple] = {}
    records = []
    for t, commit in enumerate(_draws(p, seed, range(trials))):
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
