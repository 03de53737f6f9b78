"""The benchmark's workloads: which scenarios each one generates, which
``rideshare`` command each operation runs, and how each output is checked.

Scenario structure (size, family, drivers, density, mechanism) cycles with
the operation index so that every seed gets the same mix; the seed draws the
numbers, driver positions and compatibility edges.

Why each workload exists:

- ``price-n7``: ``pay`` on distinct n=7 linear scenarios, alternating commit
  and Groves-Clarke. Each op enumerates the feasible set n+1 times with a
  different absent set, and no two scenarios share a structure, so the
  enumeration cache never hits: enumeration dominates and the unbounded cache
  sets peak memory.
- ``audit-n4``: ``audit --notion expost`` on n=3-4 scenarios of all three
  families, rotating commit, Groves-Clarke and Groves-Clarke with public
  probabilities. The per-deviation argmax (``efficient_allocation`` and
  ``evaluate``) dominates while the enumeration cache is warm.
- ``settle-mc``: ``simulate --trials 2000`` on n=4-6 linear scenarios. The
  trial loop, commitment draws and CSV rendering dominate; ``evaluate`` runs
  on 0/1 commitment vectors against one fixed allocation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

from rideshare.audit import GAIN_TOLERANCE
from rideshare.model import Scenario, allocation_violations, with_report, with_truthful_reports
from rideshare.payments import (
    Conditional,
    PaymentSchedule,
    PivotRule,
    commit_payments,
    expected_utility,
    groves_payments,
)
from rideshare.scenario_io import parse_scenario_text, scenario_to_jsonable
from rideshare.simulate import exact_expected_utilities

from generate import Shape, scenarios

TRIALS = 2000
# Monte Carlo means may sit this many standard errors from the exact value.
STDERR_BOUND = 6.0

_MECHANISM_ARGS = {
    "commit": ["--mechanism", "commit"],
    "groves-clarke": ["--mechanism", "groves-clarke"],
    "groves-clarke-public-p": ["--mechanism", "groves-clarke", "--public-p"],
}


@dataclass(frozen=True)
class Op:
    """One benchmark operation: a CLI invocation on one generated scenario.
    `argv` holds ``{scenario}`` and ``{out}`` placeholders for paths."""

    index: int
    scenario: Scenario
    mechanism: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], list[Op]]
    check: Callable[[Op, int, str, str, str], list[str]]


def _schedule(s: Scenario, mechanism: str) -> PaymentSchedule:
    if mechanism == "commit":
        return commit_payments(s)
    public_p = s.true_p() if mechanism == "groves-clarke-public-p" else None
    return groves_payments(s, PivotRule.CLARKE, public_p=public_p)


def _common(rc: int, stderr: str, expected_rc: tuple[int, ...] = (0,)) -> list[str]:
    out = []
    if rc not in expected_rc:
        out.append(f"exit code {rc}")
    if stderr:
        out.append(f"stderr: {stderr.strip()[:200]}")
    return out


# --- price-n7 -------------------------------------------------------------

PRICE_OPS = 150


def build_price(seed: int) -> list[Op]:
    # Densities 0.7, 0.85 and 1.0 come in shares 3:5:2, so that the median
    # falls mid-way through the 0.85 scenarios' cost range and the 90th
    # percentile inside the 1.0 scenarios', not on the step between two
    # densities. A complete graph has only C(7, 3) = 35 structures, which
    # caps the complete-graph scenarios at 35.
    densities = (0.7, 0.85, 1.0, 0.85, 0.7, 0.85, 0.85, 1.0, 0.7, 0.85)
    shapes = [
        Shape(7, "linear", drivers=3, capacity=2, density=densities[k % 10])
        for k in range(PRICE_OPS)
    ]
    ops = []
    for k, s in enumerate(scenarios(seed, shapes, "price", distinct_structure=True)):
        mechanism = ("commit", "groves-clarke")[k % 2]
        argv = ("pay", "{scenario}", *_MECHANISM_ARGS[mechanism])
        ops.append(Op(k, s, mechanism, argv))
    return ops


def _entry_line(i: int, entry) -> str:
    if isinstance(entry, Conditional):
        return f"payment[{i}]: ({entry.on_commit}, {entry.on_fail})"
    return f"payment[{i}]: {entry.amount}"


def check_price(op: Op, rc: int, stdout: str, stderr: str, csv_text: str) -> list[str]:
    """The printed schedule is the library's schedule for the scenario, and
    its allocation passes the structural allocation checks."""
    out = _common(rc, stderr)
    schedule = _schedule(op.scenario, op.mechanism)
    violations = allocation_violations(op.scenario, schedule.allocation)
    out.extend(f"allocation: {v}" for v in violations)
    expected = [f"mechanism: {op.mechanism}"]
    expected += [_entry_line(i, e) for i, e in enumerate(schedule.entries)]
    if stdout.splitlines() != expected:
        out.append("printed schedule differs from the payment schedule")
    return out


# --- audit-n4 -------------------------------------------------------------

AUDIT_OPS = 200
_AUDIT_MECHANISMS = ("commit", "groves-clarke", "groves-clarke-public-p")


def _audit_shape(k: int) -> Shape:
    family = ("linear", "gated", "quadratic")[k % 3]
    n = (3, 4)[(k // 9) % 2]
    return Shape(n, family, drivers=(1, 2)[(k // 18) % 2], capacity=(1, 2)[(k // 2) % 2],
                 density=(0.85, 1.0)[(k // 4) % 2], compact=True)


def build_audit(seed: int) -> list[Op]:
    shapes = [_audit_shape(k) for k in range(AUDIT_OPS)]
    ops = []
    for k, s in enumerate(scenarios(seed, shapes, "audit")):
        mechanism = _AUDIT_MECHANISMS[(k // 3) % 3]
        argv = ("audit", "{scenario}", *_MECHANISM_ARGS[mechanism], "--notion", "expost")
        ops.append(Op(k, s, mechanism, argv))
    return ops


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _replay_gain(s: Scenario, mechanism: str, i: int, report_json: str) -> tuple[float, float]:
    """Truthful and deviated utility of commuter `i`, recomputed through the
    public API from the printed report."""
    base = with_truthful_reports(s)
    doc = scenario_to_jsonable(base)
    doc["scenario"]["commuters"][i]["reported_type"] = json.loads(report_json)
    trip = parse_scenario_text(json.dumps(doc)).commuters[i].reported_type
    deviated = with_report(base, i, trip)
    u_truth = expected_utility(base, i, _schedule(base, mechanism))
    u_dev = expected_utility(deviated, i, _schedule(deviated, mechanism))
    return u_truth, u_dev


def check_audit(op: Op, rc: int, stdout: str, stderr: str, csv_text: str) -> list[str]:
    """Commit payments are clean on all-linear scenarios, the exit code
    matches the verdict, and every witness replays to its printed gain."""
    f = _fields(stdout)
    verdict = f.get("verdict")
    if verdict not in ("violated", "no-violation-found"):
        return _common(rc, stderr, (0, 1)) + [f"unreadable verdict {verdict!r}"]
    out = _common(rc, stderr, (1,) if verdict == "violated" else (0,))
    linear = op.scenario.metadata["family"] == "linear"
    if op.mechanism == "commit" and linear and verdict != "no-violation-found":
        out.append("commit payments violated on an all-linear scenario")
    if verdict != "violated":
        if "witness commuter" in f:
            out.append("clean verdict printed a witness")
        return out
    try:
        i = int(f["witness commuter"])
        truthful = float(f["truthful utility"])
        deviated = float(f["deviated utility"])
        gain = float(f["gain"])
        u_truth, u_dev = _replay_gain(op.scenario, op.mechanism, i, f["deviated report"])
    except (KeyError, ValueError) as e:
        return out + [f"unreadable witness: {e!r}"]
    if not gain > GAIN_TOLERANCE:
        out.append(f"witness gain {gain} not above the tolerance")
    for label, printed, replayed in (("truthful", truthful, u_truth),
                                     ("deviated", deviated, u_dev),
                                     ("gain", gain, u_dev - u_truth)):
        if not abs(printed - replayed) <= GAIN_TOLERANCE:
            out.append(f"witness {label} {printed} replays to {replayed}")
    return out


# --- settle-mc ------------------------------------------------------------

SETTLE_OPS = 120


def build_settle(seed: int) -> list[Op]:
    shapes = []
    for k in range(SETTLE_OPS):
        n = (4, 5, 6)[k % 3]
        shapes.append(Shape(n, "linear", drivers=n // 2, capacity=2,
                            density=(0.85, 1.0)[(k // 3) % 2], compact=True))
    ops = []
    for k, s in enumerate(scenarios(seed, shapes, "settle")):
        argv = ("simulate", "{scenario}", "--trials", str(TRIALS), "--seed", str(k),
                "--out", "{out}")
        ops.append(Op(k, s, "commit", argv))
    return ops


def _mean_repr(xs: list[float]) -> str:
    return repr(math.fsum(xs) / len(xs))


def check_settle(op: Op, rc: int, stdout: str, stderr: str, csv_text: str) -> list[str]:
    """Monte Carlo means lie within STDERR_BOUND standard errors of the exact
    expectation, and the CSV has one row per trial and commuter whose
    utilities add up to the printed means."""
    out = _common(rc, stderr)
    s = op.scenario
    n = s.n
    lines = stdout.splitlines()
    if not lines or lines[0] != f"trials: {TRIALS}  seed: {op.index}  flagged: 0":
        return out + ["unexpected summary line"]
    means, stderrs = [], []
    for k in range(n):
        prefix = f"commuter {k}: mean utility "
        line = lines[1 + k] if len(lines) > 1 + k else ""
        if not line.startswith(prefix):
            return out + [f"missing line for commuter {k}"]
        mean_text, _, rest = line[len(prefix):].partition(" (stderr ")
        means.append(mean_text)
        stderrs.append(float(rest.partition(")")[0]))
    exact = exact_expected_utilities(s, commit_payments(s))
    for k in range(n):
        gap = abs(float(means[k]) - exact[k])
        if gap > STDERR_BOUND * stderrs[k] + 1e-9 * (1.0 + abs(exact[k])):
            out.append(f"commuter {k}: mean {means[k]} is {gap} from exact {exact[k]}")
    # rows are streamed, so that checking adds little to the pass's peak memory
    rows = csv.reader(io.StringIO(csv_text))
    if next(rows, None) != ["trial", "commuter", "committed", "value", "payment", "utility"]:
        return out + ["CSV header"]
    utilities: list[list[float]] = [[] for _ in range(n)]
    for r in range(TRIALS * n):
        row = next(rows, None)
        t, k = divmod(r, n)
        if row is None or row[:2] != [str(t), str(k)] or row[2] not in ("0", "1"):
            return out + [f"CSV row {r + 1}: {row}"]
        u = float(row[5])
        if u != float(row[3]) - float(row[4]):
            return out + [f"CSV row {r + 1}: utility is not value minus payment"]
        utilities[k].append(u)
    summary = list(rows)
    if len(summary) != 2 * n:
        return out + [f"CSV has {len(summary)} summary rows, expected {2 * n}"]
    for k in range(n):
        mean_row = summary[2 * k]
        if mean_row[:2] != ["mean", str(k)] or mean_row[5] != means[k]:
            out.append(f"CSV mean row for commuter {k} differs from stdout")
        if _mean_repr(utilities[k]) != means[k]:
            out.append(f"CSV utilities of commuter {k} do not average to {means[k]}")
    return out


WORKLOADS = {
    "price-n7": Workload(build_price, check_price),
    "audit-n4": Workload(build_audit, check_audit),
    "settle-mc": Workload(build_settle, check_settle),
}
