"""Seeded Monte Carlo over commitment draws, plus exact expectations.

Commitment bits come from a counter-based generator keyed by
(seed, trial, commuter), so any draw can be recomputed in isolation and
runs are reproducible regardless of evaluation order or platform. One
kernel, `_draws`, draws every trial of a run: it hashes the seed once,
compares each commuter's hash with an integer threshold (`_threshold`, an
exact rewrite of the float test (x >> 11) * 2**-53 < p[k]), and packs a
trial's bits into one int, its key, with commuter k's bit at bit k. It
hashes a chunk of trials at a time, one 64-bit word per 128-bit lane of a
single Python int, and runs the threshold test in the same lanes. Each
commuter's flag is shifted into bit k % 64 of its lane in an accumulator
per 64 commuters, so only the hash and the test run per commuter: each
accumulator is read once per chunk, as one little-endian word per trial,
and a trial's key is its word, or its words joined past 64 commuters. The
lane constants depend only on the chunk's length and are built once per
length per process. `realize` is the kernel run for one trial.

With the allocation and payments fixed, a commuter's settlement depends
only on the commitment bits their true valuation reads, their own bit
among them: the charge reads the own bit alone, and the value reads the
bits of `referenced_subjects`. Those bits are the commuter's key, cut
from a trial's key with one mask per commuter. `_Settlements` computes
each commuter's value, charge, utility and CSV row once per distinct key.
A run returns `TrialRows`: the key each trial drew and, per distinct
trial key, its CSV rows, so a run holds one int per trial, and
`render_trials_csv` writes the rows a block of trials at a time. The
summary is reduced in the same pass over the distinct keys: each
commuter's column is the exact sum of count * x over the keys that
commuter's clean trials read, and the welfare and deficit columns over
the distinct clean trial keys, rounded once, which is what `math.fsum`
returns over the trials, in any order: within the magnitude bounds of
admitted input (`valuation.MAX_MAGNITUDE`) no partial sum overflows.
`exact_expected_utilities` sums each commuter's utility over the patterns
of their own key alone, through the same settlements.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, TextIO

from .model import Allocation, Commuter, Scenario
from .payments import ExcludedValueError, PaymentEntry, PaymentSchedule, Unconditional
from .valuation import EXCLUDED, evaluate, referenced_subjects

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# The lane kernel's ints are 16 * _CHUNK bytes long: long enough that the
# interpreter's cost per operation vanishes, short enough to stay in cache.
_CHUNK = 1024


def _pack(words: Sequence[int]) -> int:
    """The 64-bit `words` in 128-bit lanes of one int, the first lowest:
    each word little-endian, then 8 zero bytes."""
    return int.from_bytes(struct.pack("<" + "Q8x" * len(words), *words), "little")


@functools.lru_cache(maxsize=4)
def _lanes(count: int) -> tuple[int, int, int, int, int, struct.Struct]:
    """The constants of a chunk of `count` lanes, built once per length (a
    run meets at most two lengths, `realize` one more): ones, holding 1 in
    every lane; mask, 2**64 - 1; golden, the splitmix64 increment; iota,
    the lane's index; flag, 2**64; and the layout that reads the low 64
    bits of every lane, first lane first, from the chunk's little-endian
    bytes."""
    ones = _pack([1] * count)
    return (ones, _MASK * ones, _GOLDEN * ones, _pack(range(count)), ones << 64,
            struct.Struct("<" + "Q8x" * count))


def _splitmix64_lanes(x: int, mask: int, golden: int) -> int:
    """The splitmix64 output function of the 64-bit word in every 128-bit
    lane of x at once; an int below 2**64 is one lane.

    `mask` holds 2**64 - 1 and `golden` the increment in every lane. Each
    lane is cut back to 64 bits after the add, before every multiply (so the
    128-bit product stays in its lane) and after each xor-shift, which pulls
    the next lane's low bits into the top of this one.
    """
    x = (x + golden) & mask
    x = ((x ^ (x >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    x = ((x ^ (x >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (x ^ (x >> 31)) & mask


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


# Commuters per accumulator: the low 64 bits of a 128-bit lane.
_WORD = 64


def _vector(key: int, n: int) -> CommitVector:
    """The commitment vector of `n` commuters whose bits `key` holds:
    commuter k's bit is bit k."""
    return tuple(key >> k & 1 for k in range(n))


def _draws(p: Sequence[float], seed: int, trials: range) -> tuple[list[int], Counter[int]]:
    """Each trial's key, in trial order, and each distinct key's count.

    A trial's key holds commuter k's commitment bit at bit k. Bit k of
    trial t compares the hash of (seed, t, k) with `_threshold(p[k])`.
    `trials` is a range of consecutive trial numbers. The seed is hashed
    once per call. The trials go through in chunks of `_CHUNK`, each
    hashed in 128-bit lanes of one int: first (seed, t) per trial, with
    the lane words t mod 2**64 made by arithmetic from the chunk's first
    trial, then (seed, t, k) for each commuter k. The bit test runs in the
    same lanes: a lane holding threshold - 1 + 2**64 minus the hash x is at
    least 0 and below 2**65, and its bit 64 is set exactly when
    x < threshold. That bit is shifted to bit k % 64 of the lane in
    accumulator k // 64, so after the last commuter the low 64 bits of each
    lane hold the trial's flags. Each accumulator is read once per chunk,
    lane by lane as little-endian words, and a trial's key is its word, or
    its words joined, word i at bit 64 * i, past 64 commuters. Keys are
    counted in order of first draw. The lane constants depend on the
    chunk's length alone and are built once per length (`_lanes`). Each
    commuter's threshold - 1 + 2**64 and index k in every lane are built
    once per call, at the first chunk's length; only the last chunk can be
    shorter, and its lanes are the low ones of those ints, cut off with a
    mask, since every lane holds the same word.
    """
    biased = [_threshold(q) - 1 + (1 << 64) for q in p]
    n = len(biased)
    seed_hash = _splitmix64_lanes(seed & _MASK, _MASK, _GOLDEN)
    counts: Counter[int] = Counter()
    keys: list[int] = []
    for first in range(0, len(trials), _CHUNK):
        count = min(_CHUNK, len(trials) - first)
        ones, mask, golden, iota, flag, layout = _lanes(count)
        if not first:
            bounds = [b * ones for b in biased]
            indices = [k * ones for k in range(n)]
        elif count < _CHUNK:
            low = (1 << 128 * count) - 1
            bounds = [b & low for b in bounds]
            indices = [i & low for i in indices]
        words = ((trials[first] & _MASK) * ones + iota) & mask
        prefixes = _splitmix64_lanes(words ^ seed_hash * ones, mask, golden)
        accumulators = [0] * max(1, (n + _WORD - 1) // _WORD)
        for k, (bound, index) in enumerate(zip(bounds, indices)):
            words = _splitmix64_lanes(prefixes ^ index, mask, golden)
            tested = bound - words
            accumulators[k // _WORD] |= (tested & flag) >> (64 - k % _WORD)
        chunk = layout.unpack(accumulators[0].to_bytes(layout.size, "little"))
        for i, a in enumerate(accumulators[1:], 1):
            chunk = [key | word << _WORD * i
                     for key, word in zip(chunk, layout.unpack(a.to_bytes(layout.size, "little")))]
        counts.update(chunk)
        keys += chunk
    return keys, counts


def realize(p: Sequence[float], seed: int, trial: int = 0) -> CommitVector:
    """Draw one commitment vector: bit k is 1 with probability p[k].

    Bit k compares a uniform draw hashed from (seed, trial, k) with p[k].
    This is `_draws`, the kernel `run_trials` draws with, for one trial.
    """
    return _vector(_draws(p, seed, range(trial, trial + 1))[0][0], len(p))


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


# A commuter's settlement: their commitment bit, value, charge and utility,
# and their CSV row after the trial number. Value and utility are None
# where the true valuation excludes the allocation.
_Settlement = tuple[int, float | None, float, float | None, str]


def _settlement(k: int, c: Commuter, entry: PaymentEntry, allocation: Allocation,
                key: int, n: int) -> _Settlement:
    """Commuter `k`'s settlement after the commitment bits of `key`, of `n`
    commuters."""
    v = evaluate(c.true_type.valuation, allocation, tuple(map(float, _vector(key, n))))
    bit = key >> k & 1
    if isinstance(entry, Unconditional):
        charge = entry.amount
    else:
        charge = entry.on_commit if bit else entry.on_fail
    if v is EXCLUDED:
        return bit, None, charge, None, f"{k},{bit},,{charge!r},\n"
    u = v - charge
    return bit, v, charge, u, f"{k},{bit},{v!r},{charge!r},{u!r}\n"


class _Settlements:
    """Each commuter's settlements under one schedule, each computed once
    per distinct key: the commitment bits the commuter's true valuation
    reads, their own bit included.

    `masks[k]` holds the bits of commuter k's key, so a trial's key & that
    mask is k's key, and `entries[k]` maps each of k's keys met so far to
    k's settlement. Calling the instance on a trial's key settles its
    commuters in order, so the first settlement that raises is the first
    one a commuter-by-commuter pass over the keys would reach.
    """

    def __init__(self, s: Scenario, schedule: PaymentSchedule):
        self.allocation = schedule.allocation
        self.commuters = tuple(zip(s.commuters, schedule.entries))
        self.masks = [sum(1 << j for j in {k, *referenced_subjects(c.true_type.valuation)})
                      for k, c in enumerate(s.commuters)]
        self.entries: list[dict[int, _Settlement]] = [{} for _ in s.commuters]

    def of(self, k: int, key: int) -> _Settlement:
        """Commuter k's settlement after the bits of `key` that k reads."""
        own = key & self.masks[k]
        known = self.entries[k]
        entry = known.get(own)
        if entry is None:
            entry = known[own] = _settlement(k, *self.commuters[k], self.allocation, own,
                                             len(self.masks))
        return entry

    def __call__(self, key: int) -> list[_Settlement]:
        """The settlements of the trial key's commuters, in order."""
        return [self.of(k, key) for k in range(len(self.masks))]


class TrialRows(NamedTuple):
    """A run's CSV rows: `keys` holds the key each trial drew, in trial
    order, and `rows` maps each distinct key to its commuters' CSV rows
    after the trial number, after an empty string, so that joining them
    with the trial's "t," puts that prefix before every row."""

    keys: list[int]
    rows: dict[int, tuple[str, ...]]


def _weighted_sum(xs: list[float], weights: list[int]) -> float:
    """The sum of weights[i] * xs[i], rounded once: `math.fsum` over the
    multiset, in any order, as both round the exact sum to nearest and the
    int true division here rounds correctly. An exact zero gives 0.0, as
    fsum does."""
    # Columns repeat few values (a payment takes one of two), so the
    # weights are gathered per distinct value before the exact sum.
    weight_of: dict[float, int] = {}
    for x, w in zip(xs, weights):
        weight_of[x] = weight_of.get(x, 0) + w
    numerator = exponent = 0  # the sum so far is numerator / 2**exponent
    for x, w in weight_of.items():
        a, b = x.as_integer_ratio()
        e = b.bit_length() - 1
        if e > exponent:
            numerator <<= e - exponent
            exponent = e
        numerator += w * a << (exponent - e)
    return numerator / (1 << exponent)


def _mean(xs: list[float], weights: list[int]) -> float:
    """`math.fsum` of the column that holds each xs[i] weights[i] times,
    over its length; 0.0 when it is empty."""
    total = sum(weights)
    return _weighted_sum(xs, weights) / total if total else 0.0


def _stderr(xs: list[float], weights: list[int], mean: float) -> float:
    """The standard error of the column that holds each xs[i] weights[i]
    times, given its mean: the square root of the fsum of squared
    deviations, over the length less one, over the length; 0.0 below two
    entries. Equal values have equal squared deviations, so these group
    too."""
    total = sum(weights)
    if total < 2:
        return 0.0
    s = _weighted_sum([(x - mean) ** 2 for x in xs], weights)
    return math.sqrt(s / (total - 1) / total)


def run_trials(
    s: Scenario, schedule: PaymentSchedule, trials: int, seed: int
) -> tuple[TrialRows, SimulationSummary]:
    """Simulate settlement over `trials` independent commitment draws:
    the drawn keys and their CSV rows, and the summary.

    Each commuter is settled once per distinct key of the commitment bits
    their true valuation reads, and each distinct trial key's CSV rows are
    put together from its commuters' settlements, so a run holds one int
    per trial and the rows per distinct key. Trials where some commuter's
    true valuation excludes the realized outcome carry no number for that
    commuter; such trials are flagged and left out of the summary means.
    The same pass over the distinct keys reduces the summary: a clean
    key's count adds to the weight of each commuter's own key, and its
    welfare, the fsum of its values, and its deficit, the negated fsum of
    its charges, are kept with its count. Each summary column is the exact
    count-weighted sum, rounded once, which is what `math.fsum` over the
    trials returns. Every number is finite when `validate_scenario` admits
    `s` and `schedule` prices it; other input has no guarantee.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    keys, counts = _draws(s.true_p(), seed, range(trials))
    settle = _Settlements(s, schedule)
    rows = {}
    own_weights: list[dict[int, int]] = [{} for _ in settle.masks]
    welfare, deficit, clean = [], [], []
    for key, count in counts.items():
        settled = settle(key)
        rows[key] = ("", *(e[4] for e in settled))
        values = [e[1] for e in settled]
        if None in values:
            continue
        for weights, mask in zip(own_weights, settle.masks):
            own = key & mask
            weights[own] = weights.get(own, 0) + count
        welfare.append(math.fsum(values))
        deficit.append(-math.fsum(e[2] for e in settled))
        clean.append(count)
    columns = [([entries[own] for own in weights], list(weights.values()))
               for entries, weights in zip(settle.entries, own_weights)]
    mean_commit, mean_value, mean_payment, mean_utility = (
        tuple(_mean([float(e[column]) for e in entries], weights) for entries, weights in columns)
        for column in range(4))
    summary = SimulationSummary(
        trials=trials,
        flagged=trials - sum(clean),
        mean_commit=mean_commit,
        mean_value=mean_value,
        mean_payment=mean_payment,
        mean_utility=mean_utility,
        stderr_utility=tuple(_stderr([e[3] for e in entries], weights, mean)
                             for (entries, weights), mean in zip(columns, mean_utility)),
        mean_welfare=_mean(welfare, clean),
        mean_deficit=_mean(deficit, clean),
    )
    return TrialRows(keys, rows), summary


def render_trials_csv(run: TrialRows, summary: SimulationSummary, out: TextIO) -> None:
    """Write the per-trial CSV to `out`: one row per trial and commuter,
    then the summary, a block of trials at a time, so memory never holds
    the text when `out` is a file.

    Every field is a number, a fixed word or empty, so none needs quoting
    and each row is its fields joined by commas. A trial's rows after its
    number depend on its key alone, and were formatted once per commuter's
    settlement by `run_trials`, so they are written in trial order straight
    from the drawn keys, one string per `_CHUNK` trials.
    """
    out.write("trial,commuter,committed,value,payment,utility\n")
    keys, rows = run
    for first in range(0, len(keys), _CHUNK):
        out.write("".join([f"{t},".join(rows[key])
                           for t, key in enumerate(keys[first:first + _CHUNK], first)]))
    for k in range(len(summary.mean_commit)):
        out.write(
            f"mean,{k},{summary.mean_commit[k]!r},{summary.mean_value[k]!r},"
            f"{summary.mean_payment[k]!r},{summary.mean_utility[k]!r}\n"
            f"stderr,{k},,,,{summary.stderr_utility[k]!r}\n"
        )


# Commuter k's expectation settles each of the 2**b patterns of their b key
# bits: at this bound that is 65,536 settlements, and each bit more
# doubles them, so a wider key is refused before any settlement.
_MAX_KEY_BITS = 16


def exact_expected_utilities(s: Scenario, schedule: PaymentSchedule) -> tuple[float, ...]:
    """Each commuter's expected utility, weighted by the true commitment
    probabilities: the exact counterpart to the Monte Carlo mean.

    A commuter's settlement reads their key bits alone, so their
    expectation sums over the patterns of those bits, each weighted by the
    product of its bits' probabilities in commuter order, and settled
    through the same `_Settlements` as `run_trials`. Raises ValueError
    when some key reads more than `_MAX_KEY_BITS` bits, and
    ExcludedValueError when some pattern's true valuation excludes the
    allocation."""
    settle = _Settlements(s, schedule)
    for k, mask in enumerate(settle.masks):
        if mask.bit_count() > _MAX_KEY_BITS:
            raise ValueError(f"exact expectations read at most {_MAX_KEY_BITS} commitment bits "
                             f"per commuter, commuter {k} reads {mask.bit_count()}")
    p = s.true_p()
    expected = []
    for k, mask in enumerate(settle.masks):
        keys, weights = [0], [1.0]
        for j in range(mask.bit_length()):
            if mask >> j & 1:
                keys += [key | 1 << j for key in keys]
                weights = [w * (1.0 - p[j]) for w in weights] + [w * p[j] for w in weights]
        terms = []
        for key, weight in zip(keys, weights):
            _, v, _, u, _ = settle.of(k, key)
            if v is None:
                raise ExcludedValueError(
                    f"commuter {k}: true valuation excludes the settled allocation")
            terms.append(weight * u)
        expected.append(math.fsum(terms))
    return tuple(expected)
