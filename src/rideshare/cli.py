"""Command-line front end.

Exit codes: 0 success (and audits that find nothing), 1 a violation or a
failed suite entry, 2 bad input, 3 could not write output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .allocation import efficient_allocation
from .audit import (
    DEFAULT_OPPONENT_SPACE,
    AuditSizeError,
    DeviationSpace,
    Verdict,
    audit_dominant,
    audit_expost,
    truthfulness_suite,
)
from .model import Role, Scenario, TooManyCommutersError, validate_scenario
from .payments import Conditional, Mechanism, commit_payments, groves_payments
from .scenario_io import ScenarioFormatError, parse_scenario_text, trip_to_json
from .simulate import render_trials_csv, run_trials

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_IO = 3

# A run writes one CSV row per trial and commuter, and its time, the file
# and its memory (each distinct commitment key holds a row per commuter)
# grow with those rows. A run of more rows is refused before any draw
# rather than left to run for minutes or fill a disk or memory. At the
# bound, a million trials of a pair write a 47 MB file at a 25 MB peak in
# under a second, and 10,000 trials of 200 solo commuters a 45 MB file at
# a 49 MB peak in 1.6 s (Python 3.11, shared 2-core VM).
MAX_TRIAL_ROWS = 2_000_000
# The draws read the seed mod 2**64, so a seed outside 0..MAX_SEED would
# write the trials of the seed it aliases under its own name.
MAX_SEED = 2**64 - 1


class _InputError(Exception):
    pass


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _InputError(f"cannot read {path}: {e}")
    try:
        s = parse_scenario_text(text)
    except ScenarioFormatError as e:
        raise _InputError(f"{path}: {e}")
    violations = validate_scenario(s)
    if violations:
        listing = "\n".join(f"  {v}" for v in violations)
        raise _InputError(f"{path}: invalid scenario\n{listing}")
    return s


def _mechanism(args) -> Mechanism:
    try:
        return Mechanism.named(args.mechanism, args.public_p)
    except ValueError as e:
        raise _InputError(f"--mechanism {args.mechanism} --public-p: {e}")


def _schedule(s: Scenario, mechanism: Mechanism):
    if mechanism is Mechanism.COMMIT_BASED:
        return commit_payments(s)
    return groves_payments(s, mechanism.pivot, public_p=mechanism.probabilities(s))


def _cmd_allocate(args) -> int:
    s = _load_scenario(args.scenario)
    rep = efficient_allocation(s)
    if all(a.role is Role.NONE for a in rep.allocation):
        print("all travel alone")
    else:
        for i, a in enumerate(rep.allocation):
            partners = sorted(a.partners)
            suffix = f" {partners}" if partners else ""
            print(f"{i}: {a.role.value}{suffix}")
    print(f"welfare: {rep.welfare}")
    for i, v in enumerate(rep.per_commuter):
        print(f"value[{i}]: {v}")
    return EXIT_OK


def _cmd_pay(args) -> int:
    s = _load_scenario(args.scenario)
    schedule = _schedule(s, _mechanism(args))
    print(f"mechanism: {args.mechanism}" + (" (public p)" if args.public_p else ""))
    for i, entry in enumerate(schedule.entries):
        if isinstance(entry, Conditional):
            print(f"payment[{i}]: ({entry.on_commit}, {entry.on_fail})")
        else:
            print(f"payment[{i}]: {entry.amount}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    s = _load_scenario(args.scenario)
    if args.trials < 1:
        raise _InputError(f"--trials must be at least 1, got {args.trials}")
    if args.trials * s.n > MAX_TRIAL_ROWS:
        raise _InputError(f"--trials must be at most {MAX_TRIAL_ROWS // s.n} for {s.n} commuters "
                          f"({MAX_TRIAL_ROWS} trial rows), got {args.trials}")
    if not 0 <= args.seed <= MAX_SEED:
        raise _InputError(f"--seed must be between 0 and {MAX_SEED}, got {args.seed}")
    schedule = _schedule(s, _mechanism(args))
    records, summary = run_trials(s, schedule, args.trials, args.seed)
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            render_trials_csv(records, summary, fh)
    except OSError as e:
        print(f"cannot write {args.out}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"trials: {summary.trials}  seed: {args.seed}  flagged: {summary.flagged}")
    for k in range(s.n):
        print(
            f"commuter {k}: mean utility {summary.mean_utility[k]} "
            f"(stderr {summary.stderr_utility[k]}), mean value {summary.mean_value[k]}, "
            f"mean payment {summary.mean_payment[k]}"
        )
    print(f"mean welfare: {summary.mean_welfare}")
    print(f"mean deficit: {summary.mean_deficit}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _space(flag: str, p_grid: int) -> DeviationSpace:
    try:
        return DeviationSpace(p_grid=p_grid)
    except ValueError as e:
        raise _InputError(f"{flag}: {e}")


def _cmd_audit(args) -> int:
    s = _load_scenario(args.scenario)
    mechanism = _mechanism(args)
    space = _space("--grid", args.grid)
    opponent_space = _space("--opponent-grid", args.opponent_grid)
    try:
        if args.notion == "expost":
            report = audit_expost(s, mechanism, space)
        else:
            report = audit_dominant(s, mechanism, space, opponent_space)
    except AuditSizeError as e:
        raise _InputError(str(e))
    print(f"mechanism: {report.mechanism.value}")
    print(f"notion: {report.notion.value}")
    print(f"p-grid: {report.space.p_grid}")
    print(f"verdict: {report.verdict.value}")
    if report.witness is not None:
        w = report.witness
        print(f"witness commuter: {w.commuter}")
        print(f"truthful utility: {w.truthful_utility}")
        print(f"deviated utility: {w.deviated_utility}")
        print(f"gain: {w.gain}")
        print(f"deviated report: {trip_to_json(w.report)}")
        for j, trip in w.opponent_reports:
            print(f"opponent {j} report: {trip_to_json(trip)}")
    return EXIT_VIOLATION if report.verdict is Verdict.VIOLATED else EXIT_OK


def _cmd_suite(args) -> int:
    failures = 0
    for entry in truthfulness_suite():
        report = audit_expost(entry.scenario, entry.mechanism)
        ok = report.verdict is entry.expected
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {entry.name}: expected {entry.expected.value}, got {report.verdict.value}")
    print(f"{'all suite entries passed' if failures == 0 else f'{failures} suite entries failed'}")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rideshare",
        description="Allocate shared trips, price them, and audit truthfulness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("scenario", help="scenario file (JSON)")
    priced = argparse.ArgumentParser(add_help=False, parents=[scenario])
    priced.add_argument("--mechanism", choices=Mechanism.rules(), default="commit",
                        help="payment rule")
    priced.add_argument("--public-p", action="store_true",
                        help="treat true commitment probabilities as publicly known")

    p = sub.add_parser("allocate", parents=[scenario],
                       help="print the welfare-maximising allocation")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("pay", parents=[priced], help="print the payment schedule")
    p.set_defaults(func=_cmd_pay)

    p = sub.add_parser("simulate", parents=[priced],
                       help="Monte Carlo settlement over commitment draws")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="per-trial CSV output path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("audit", parents=[priced], help="grid search for profitable misreports")
    p.add_argument("--notion", choices=["expost", "dominant"], default="expost")
    p.add_argument("--grid", type=int, default=DeviationSpace.p_grid,
                   help="probability grid points")
    p.add_argument("--opponent-grid", type=int, default=DEFAULT_OPPONENT_SPACE.p_grid,
                   help="probability grid points per opponent (read by dominant audits, "
                        "checked under either notion)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("suite", help="run the bundled known-verdict scenarios")
    p.set_defaults(func=_cmd_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call: parsing
    never mutates it, and help and usage read the streams and the terminal
    width when they print."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except (_InputError, TooManyCommutersError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
