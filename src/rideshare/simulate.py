"""Seeded Monte Carlo over commitment draws, plus exact enumeration.

Commitment bits come from a counter-based generator keyed by
(seed, trial, commuter), so any draw can be recomputed in isolation and
runs are reproducible regardless of evaluation order or platform. One
kernel, `_draws`, draws every trial of a run: it hashes the seed once,
compares each commuter's hash with an integer threshold (`_threshold`, an
exact rewrite of the float test (x >> 11) * 2**-53 < p[k]), and makes
equal vectors one tuple. It hashes a chunk of trials at a time, one
64-bit word per 128-bit lane of a single Python int, and runs the
threshold test in the same lanes. Each commuter's flag is shifted into
bit k % 64 of its lane in an accumulator per 64 commuters, so only the
hash and the test run per commuter: each accumulator is read once per
chunk, as one little-endian integer key per trial, and each distinct key
becomes one tuple. The lane constants depend only on the chunk's length
and are built once per length per process. `realize` is the kernel run
for one trial.

With the allocation and payments fixed, a commuter's settlement depends
only on the commitment bits their true valuation reads, their own bit
among them: the charge reads the own bit alone, and the value reads the
bits of `referenced_subjects`. `_Settlements` computes each commuter's
value, charge, utility and CSV row once per distinct tuple of those bits,
and a vector's settlement is its commuters' entries, with the welfare and
the deficit summed from them. A run's records are a `TrialRecords` view
over the drawn vectors and those settlements: a record is built only when
a caller reads it, so a run holds one reference per trial, and
`render_trials_csv` builds none; it writes the rows a block of trials at a
time. The summary is reduced per distinct key: each commuter's column is
the exact sum of count * x over the keys that commuter's clean trials
read, and the welfare and deficit columns over the distinct clean
vectors, rounded once, which is what `math.fsum` returns over the trials.
Where fsum could overflow on the way, its result depends on the order of
its inputs, so such a column is reduced over the trials in trial order
instead.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, fields
from itertools import product
from operator import itemgetter
from typing import TextIO

from .model import Allocation, Commuter, Scenario
from .payments import ExcludedValueError, PaymentEntry, PaymentSchedule, Unconditional, _finite
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


def _vector(key: int | tuple[int, ...], n: int) -> CommitVector:
    """The commitment vector of `n` commuters whose bits a trial's key
    holds: bit k % 64 of its word k // 64, where a key of one word is
    that word."""
    words = key if isinstance(key, tuple) else (key,)
    return tuple(words[k // _WORD] >> k % _WORD & 1 for k in range(n))


def _draws(p: Sequence[float], seed: int, trials: range) -> tuple[list[CommitVector], dict]:
    """Each trial's commitment vector, in trial order, and each distinct one's count.

    Bit k of trial t compares the hash of (seed, t, k) with
    `_threshold(p[k])`. `trials` is a range of consecutive trial numbers.
    The seed is hashed once per call. The trials go through in chunks of
    `_CHUNK`, each hashed in 128-bit lanes of one int: first (seed, t) per
    trial, with the lane words t mod 2**64 made by arithmetic from the
    chunk's first trial, then (seed, t, k) for each commuter k. The bit
    test runs in the same lanes: a lane holding threshold - 1 + 2**64
    minus the hash x is at least 0 and below 2**65, and its bit 64 is set
    exactly when x < threshold. That bit is shifted to bit k % 64 of the
    lane in accumulator k // 64, so after the last commuter the low 64
    bits of each lane hold the trial's flags. Each accumulator is read
    once per chunk, lane by lane as little-endian words, and a trial's
    key is its word, or the tuple of its words past 64 commuters. Keys are
    counted in order of first draw, and each distinct key becomes one
    tuple, which every trial that drew it shares. The lane constants
    depend on the chunk's length alone and are built once per length
    (`_lanes`). Each commuter's threshold - 1 + 2**64 and index k in every
    lane are built once per call, at the first chunk's length; only the
    last chunk can be shorter, and its lanes are the low ones of those
    ints, cut off with a mask, since every lane holds the same word.
    """
    biased = [_threshold(q) - 1 + (1 << 64) for q in p]
    n = len(biased)
    seed_hash = _splitmix64_lanes(seed & _MASK, _MASK, _GOLDEN)
    shared: dict[int | tuple[int, ...], CommitVector] = {}
    counts: Counter[int | tuple[int, ...]] = Counter()
    vectors: list[CommitVector] = []
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
        patterns = [layout.unpack(a.to_bytes(layout.size, "little")) for a in accumulators]
        keys = patterns[0] if n <= _WORD else list(zip(*patterns))
        counts.update(keys)
        if len(counts) > len(shared):
            for key in set(keys).difference(shared):
                shared[key] = _vector(key, n)
        vectors += map(shared.__getitem__, keys)
    return vectors, {shared[key]: c for key, c in counts.items()}


def realize(p: Sequence[float], seed: int, trial: int = 0) -> CommitVector:
    """Draw one commitment vector: bit k is 1 with probability p[k].

    Bit k compares a uniform draw hashed from (seed, trial, k) with p[k].
    This is `_draws`, the kernel `run_trials` draws with, for one trial.
    """
    return _draws(p, seed, range(trial, trial + 1))[0][0]


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


# Every field but the trial number: what one commitment vector settles to.
_SETTLED_FIELDS = tuple(f.name for f in fields(TrialRecord))[1:]


class TrialRecords(Sequence):
    """The records of one `run_trials` call, in trial order, built on access.

    A trial's record is its number, its commitment vector and that vector's
    settlement, so the view keeps only `vectors`, the vector each trial
    drew, `settled`, the record fields but `trial` of each distinct
    vector, and `rows`, each distinct vector's CSV rows after the trial
    number. Indexing or iterating builds each record with the constructor;
    nothing else does. Two views are equal when their records are.
    """

    __slots__ = ("vectors", "settled", "rows")

    def __init__(self, vectors: list[CommitVector], settled: dict[CommitVector, dict],
                 rows: dict[CommitVector, tuple[str, ...]]):
        self.vectors = vectors
        self.settled = settled
        self.rows = rows

    def _record(self, trial: int) -> TrialRecord:
        return TrialRecord(trial=trial, **self.settled[self.vectors[trial]])

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, index):
        trials = range(len(self.vectors))
        if isinstance(index, slice):
            return [self._record(t) for t in trials[index]]
        return self._record(trials[index])

    def __iter__(self) -> Iterator[TrialRecord]:
        return map(self._record, range(len(self.vectors)))

    def __eq__(self, other):
        if not isinstance(other, TrialRecords):
            return NotImplemented
        return self.vectors == other.vectors and self.settled == other.settled


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
                commit: CommitVector) -> _Settlement:
    """Commuter `k`'s settlement after `commit`. Raises OverflowError when
    the value or the utility is not finite."""
    v = evaluate(c.true_type.valuation, allocation, tuple(map(float, commit)))
    bit = commit[k]
    if isinstance(entry, Unconditional):
        charge = entry.amount
    else:
        charge = entry.on_commit if bit else entry.on_fail
    if v is EXCLUDED:
        return bit, None, charge, None, f"{k},{bit},,{charge!r},\n"
    u = _finite(c.id, v - charge)
    return bit, v, charge, u, f"{k},{bit},{v!r},{charge!r},{u!r}\n"


class _Settlements:
    """Each commuter's settlements under one schedule, each computed once
    per distinct key: the tuple of commitment bits the commuter's true
    valuation reads, their own bit included.

    `readers[k]` maps a vector to commuter k's key and `entries[k]` maps
    each key met so far to k's settlement. Calling the instance on a
    vector settles its commuters in order, so the first settlement that
    raises is the first one a commuter-by-commuter pass over the vectors
    would reach.
    """

    def __init__(self, s: Scenario, schedule: PaymentSchedule):
        self.allocation = schedule.allocation
        self.commuters = tuple(zip(s.commuters, schedule.entries))
        self.readers: list[Callable[[CommitVector], object]] = [
            itemgetter(*sorted({k, *referenced_subjects(c.true_type.valuation)}))
            for k, c in enumerate(s.commuters)]
        self.entries: list[dict[object, _Settlement]] = [{} for _ in s.commuters]

    def __call__(self, commit: CommitVector) -> tuple[tuple, ...]:
        """The settlements of `commit`'s commuters as five columns: bits,
        values, charges, utilities and rows."""
        settled = []
        for k, read in enumerate(self.readers):
            known = self.entries[k]
            key = read(commit)
            entry = known.get(key)
            if entry is None:
                entry = known[key] = _settlement(k, *self.commuters[k], self.allocation, commit)
            settled.append(entry)
        return tuple(zip(*settled)) or ((),) * 5


def _fields(values: tuple, payments: tuple, utilities: tuple) -> tuple:
    """The `TrialRecord` fields after `commit` of a vector whose commuters
    settle to `values`, `payments` and `utilities`: those three, the
    welfare, the deficit, and the flag, set when some value is None."""
    welfare = math.fsum(v for v in values if v is not None)
    return values, payments, utilities, welfare, -math.fsum(payments), None in values


def _settle(s: Scenario, schedule: PaymentSchedule, commit: CommitVector) -> tuple:
    """The `TrialRecord` fields after `commit` for one commitment vector,
    settled afresh: values, payments, utilities, welfare, deficit and the
    flag. A commuter whose true valuation excludes the allocation gets
    value and utility None, which flags the vector. Raises OverflowError
    when a value or a utility is not finite."""
    return _fields(*_Settlements(s, schedule)(commit)[1:4])


def _mean(xs: list[float]) -> float:
    return math.fsum(xs) / len(xs) if xs else 0.0


def _stderr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    var = math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return math.sqrt(var / len(xs))


# Below this bound on trials * max |x| no partial sum of math.fsum can
# overflow, whatever the order of its inputs.
_SUM_BOUND = 2.0**1020


def _weighted_sum(xs: list[float], weights: list[int], total: int) -> float | None:
    """The sum of weights[i] * xs[i], rounded once, where `total` is the
    sum of the weights; None unless every x is finite and
    total * max |x| < 2**1020.

    Under that bound this is `math.fsum` over the multiset, in any order:
    both round the exact sum to nearest, and the int true division here
    rounds correctly. An exact zero gives 0.0, as fsum does.
    """
    if not (all(map(math.isfinite, xs)) and total * max(map(abs, xs)) < _SUM_BOUND):
        return None
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


class _Grouped:
    """The summary columns of one run, reduced per part of its distinct
    clean vectors.

    `clean` lists the distinct unflagged vectors, `read` maps each to its
    part (each vector is its own part by default), `parts` lists the parts
    in order of first draw and `weights` how many trials drew each; a
    column lists one value per part. A column whose weighted sum is not
    safe (see `_weighted_sum`) is replayed over the trials in trial order
    and reduced as `_mean` and `_stderr` would.
    """

    def __init__(self, vectors: list[CommitVector], clean: list[CommitVector], counts: dict,
                 read: Callable[[CommitVector], object] | None = None):
        self.vectors = vectors
        self.clean = clean
        self.keys = clean if read is None else list(map(read, clean))
        weight_of: dict[object, int] = {}
        for key, v in zip(self.keys, clean):
            weight_of[key] = weight_of.get(key, 0) + counts[v]
        self.parts = list(weight_of)
        self.weights = list(weight_of.values())
        self.total = sum(self.weights)

    def _in_trial_order(self, xs: list[float]) -> list[float]:
        x_of_part = dict(zip(self.parts, xs))
        x_of = {v: x_of_part[key] for v, key in zip(self.clean, self.keys)}
        return [x_of[v] for v in self.vectors if v in x_of]

    def mean(self, xs: list[float]) -> float:
        """`_mean` of the column over the clean trials."""
        if not self.total:
            return 0.0
        s = _weighted_sum(xs, self.weights, self.total)
        return _mean(self._in_trial_order(xs)) if s is None else s / self.total

    def stderr(self, xs: list[float], mean: float) -> float:
        """`_stderr` of the column over the clean trials, given its mean.
        Equal values have equal squared deviations, so these group too."""
        if self.total < 2:
            return 0.0
        try:
            s = _weighted_sum([(x - mean) ** 2 for x in xs], self.weights, self.total)
        except OverflowError:
            s = None
        if s is None:
            return _stderr(self._in_trial_order(xs))
        return math.sqrt(s / (self.total - 1) / self.total)


def run_trials(
    s: Scenario, schedule: PaymentSchedule, trials: int, seed: int
) -> tuple[TrialRecords, SimulationSummary]:
    """Simulate settlement over `trials` independent commitment draws.

    Each commuter is settled once per distinct tuple of the commitment bits
    their true valuation reads, and each distinct vector's record fields
    and CSV rows are put together from its commuters' settlements. The
    records come back as a `TrialRecords` view over the drawn vectors and
    those settlements, so a run holds one reference per trial and no record
    until a caller reads one. Trials where some commuter's true valuation
    excludes the realized outcome carry no number for that commuter; such
    trials are flagged and left out of the summary means. Each summary
    column is the exact count-weighted sum, rounded once, which is what
    `math.fsum` over the trials returns: a commuter's columns sum over the
    keys that commuter's clean trials read, the welfare and the deficit
    over the distinct clean vectors. Where some value is not finite, or
    trials * max |x| reaches 2**1020, fsum could overflow partway, and
    whether it does depends on the order of its inputs; that column is then
    reduced with fsum over the trials in trial order, so it raises or sums
    exactly as that does.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    vectors, counts = _draws(s.true_p(), seed, range(trials))
    settle = _Settlements(s, schedule)
    settled: dict[CommitVector, dict] = {}
    rows: dict[CommitVector, tuple[str, ...]] = {}
    for commit in counts:
        _, values, payments, utilities, rows[commit] = settle(commit)
        settled[commit] = dict(zip(_SETTLED_FIELDS,
                                   (commit, *_fields(values, payments, utilities))))
    clean = [commit for commit, f in settled.items() if not f["flagged"]]
    grouped = _Grouped(vectors, clean, counts)
    per_commuter = []
    for read, entries in zip(settle.readers, settle.entries):
        by_key = _Grouped(vectors, clean, counts, read)
        per_commuter.append((by_key, [entries[key] for key in by_key.parts]))
    # The columns are reduced in the order of the trial-order summary, so
    # a run that raises raises on the same column.
    mean_commit, mean_value, mean_payment, mean_utility = (
        tuple(by_key.mean([float(e[column]) for e in entries]) for by_key, entries in per_commuter)
        for column in range(4))
    stderr_utility = tuple(by_key.stderr([e[3] for e in entries], mean)
                           for (by_key, entries), mean in zip(per_commuter, mean_utility))
    clean_fields = [settled[commit] for commit in clean]
    summary = SimulationSummary(
        trials=trials,
        flagged=trials - grouped.total,
        mean_commit=mean_commit,
        mean_value=mean_value,
        mean_payment=mean_payment,
        mean_utility=mean_utility,
        stderr_utility=stderr_utility,
        mean_welfare=grouped.mean([f["welfare"] for f in clean_fields]),
        mean_deficit=grouped.mean([f["deficit"] for f in clean_fields]),
    )
    return TrialRecords(vectors, settled, rows), summary


def render_trials_csv(records: TrialRecords, summary: SimulationSummary, out: TextIO) -> None:
    """Write the per-trial CSV to `out`: one row per trial and commuter,
    then the summary, a block of trials at a time, so memory never holds
    the text when `out` is a file.

    Every field is a number, a fixed word or empty, so none needs quoting
    and each row is its fields joined by commas. A trial's rows after its
    number depend on its commitment vector alone, and were formatted once
    per commuter's settlement by `run_trials`, so they are written in trial
    order straight from the drawn vectors, one string per `_CHUNK` trials;
    no record is built.
    """
    out.write("trial,commuter,committed,value,payment,utility\n")
    # Each vector's rows follow an empty string, so joining them with a
    # trial's "t," puts that prefix before every row, and before none when
    # there are no commuters.
    rows_of = {commit: ("", *rows) for commit, rows in records.rows.items()}
    vectors = records.vectors
    for first in range(0, len(vectors), _CHUNK):
        out.write("".join([f"{t},".join(rows_of[commit])
                           for t, commit in enumerate(vectors[first:first + _CHUNK], first)]))
    for k in range(len(summary.mean_commit)):
        out.write(
            f"mean,{k},{summary.mean_commit[k]!r},{summary.mean_value[k]!r},"
            f"{summary.mean_payment[k]!r},{summary.mean_utility[k]!r}\n"
            f"stderr,{k},,,,{summary.stderr_utility[k]!r}\n"
        )


# An exact enumeration settles 2**n vectors and keeps n * 2**n products:
# at this bound that is about a second and 35 MB, and each commuter more
# doubles both, so a larger scenario is refused up front.
MAX_EXACT_COMMUTERS = 16


def exact_expected_utilities(s: Scenario, schedule: PaymentSchedule) -> tuple[float, ...]:
    """Expected utilities by summing over all 2**n commitment vectors,
    weighted by the true commitment probabilities. Exact counterpart to
    the Monte Carlo mean; each commuter is settled once per key, as in
    `run_trials`. Raises ValueError past `MAX_EXACT_COMMUTERS` commuters."""
    n = s.n
    if n > MAX_EXACT_COMMUTERS:
        raise ValueError(f"exact enumeration covers at most {MAX_EXACT_COMMUTERS} commuters, "
                         f"got {n}")
    p = s.true_p()
    settle = _Settlements(s, schedule)
    totals = [[] for _ in range(n)]
    for commit in product((0, 1), repeat=n):
        weight = 1.0
        for k in range(n):
            weight *= p[k] if commit[k] else 1.0 - p[k]
        _, values, _, utilities, _ = settle(commit)
        if None in values:
            raise ExcludedValueError(
                f"commuter {values.index(None)}: true valuation excludes the settled allocation"
            )
        for k, u in enumerate(utilities):
            totals[k].append(weight * u)
    return tuple(math.fsum(xs) for xs in totals)
