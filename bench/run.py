"""Benchmark for the ``rideshare`` package.

Usage:
    python3 bench/run.py --workload price-n7 [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all        # every workload, one after another

A run repeats passes until ``--seconds`` have gone by (finishing the pass it
is in). Each pass is a fresh process (``worker.py``) that generates the
workload's scenarios from ``--seed``, writes them as files, and runs every
operation once, so the package's process-global caches and peak memory
start cold in every pass. Operation times are divided by the time of a
pure-Python reference kernel measured between operations (``refkernel.py``),
which removes most of the host's speed drift; the raw figures are printed
beside them.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
passes alternate between untraced and traced, and the run reports the
per-layer metrics of the traced passes plus the tracing overhead; the traced
passes' spans go to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import refkernel

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

WORKLOADS = ("price-n7", "audit-n4", "settle-mc")
DEFAULT_SEED = 0
# A run must end well inside three minutes, whatever --seconds says.
TIME_LIMIT_S = 165.0
# Workers that only set up, on top of one set-up per pass, so that the
# set-up median rests on several samples.
SETUP_ONLY_RUNS = 4

UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {
    "trace.op_ms": "ms/op",
    "trace.overhead_frac": "frac",
    "model.enum_calls": "count/op",
    "model.enum_allocs": "count/op",
    "model.enum_ms": "ms/op",
    "model.enum_repeat_frac": "frac",
    "model.validate_ms": "ms/op",
    "valuation.evaluate_calls": "count/op",
    "valuation.evaluate_ms": "ms/op",
    "allocation.efficient_calls": "count/op",
    "allocation.allocs_scored": "count/op",
    "allocation.self_ms": "ms/op",
    "audit.deviations": "count/op",
    "audit.excluded": "count/op",
    "audit.efficient_per_deviation": "ratio",
    "audit.self_ms": "ms/op",
    "payments.schedule_calls": "count/op",
    "payments.self_ms": "ms/op",
    "simulate.trials": "count/op",
    "simulate.realize_ms": "ms/op",
    "simulate.self_ms": "ms/op",
    "simulate.flagged": "count/op",
    "cli.render_ms": "ms/op",
    "cli.self_ms": "ms/op",
    "scenario_io.parse_ms": "ms/op",
}

# Workload design, as shares of traced op time: (label, numerator metrics,
# comparison, threshold).
PREDICTIONS = {
    "price-n7": [("enumeration", ["model.enum_ms"], ">=", 0.5)],
    "audit-n4": [
        ("evaluate + allocation", ["valuation.evaluate_ms", "allocation.self_ms"], ">=", 0.5),
        ("enumeration", ["model.enum_ms"], "<", 0.1),
    ],
    "settle-mc": [
        ("simulate + render",
         ["simulate.realize_ms", "simulate.self_ms", "cli.render_ms"], ">=", 0.5),
        ("enumeration", ["model.enum_ms"], "<", 0.1),
    ],
}


def _quantile(xs: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of xs."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _pass_scale(p: dict) -> float:
    """Reference ms per raw ms over a whole pass."""
    return refkernel.REFERENCE_MS / statistics.median(p["ref_ms"])


def _spawn(config: dict, deadline: float) -> dict:
    """Run one worker process and return its result, with the time from
    spawning it to its first operation as ``setup_raw_s``."""
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(config)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"a {config['workload']} worker ran past the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"a {config['workload']} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_raw_s"] = result["t_first_op"] - spawn
    result["wall_s"] = time.monotonic() - spawn
    return result


def _run_passes(args, expected: list[str]) -> tuple[list[dict], list[dict]]:
    """Set-up-only workers, then passes until --seconds have gone by."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    base = {"workload": args.workload, "seed": args.seed, "ops": args.ops}
    setups = [] if args.trace else [
        _spawn({**base, "setup_only": True}, deadline) for _ in range(SETUP_ONLY_RUNS)
    ]
    passes: list[dict] = []
    out_dir = os.path.join(ROOT, ".bench_out")
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        config = {**base, "trace": traced, "expected_digests": expected}
        if traced:
            os.makedirs(out_dir, exist_ok=True)
            config["spans_path"] = os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        result = _spawn(config, deadline)
        result["traced"] = traced
        passes.append(result)
        now = time.monotonic()
        done = now - start >= args.seconds and (not args.trace or len(passes) >= 2)
        longest = max(p["wall_s"] for p in passes)
        if done or now + longest > deadline:
            return setups, passes


def _per_op(passes: list[dict], key: str) -> list[float]:
    """Each operation's median time over the passes (all passes run the same
    operations), which damps host-speed bursts that hit one pass."""
    return [statistics.median(ms) for ms in zip(*(p[key] for p in passes))]


def _end_to_end(setups: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    norm = _per_op(passes, "norm_ms")
    raw = _per_op(passes, "raw_ms")
    setup = [p["setup_raw_s"] * _pass_scale(p) for p in setups + passes]
    metrics = {
        "op_p50_ms": statistics.median(norm),
        "op_p90_ms": _quantile(norm, 90),
        "ops_per_s": len(norm) / (sum(norm) / 1000.0),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }
    raw_metrics = {
        "op_p50_ms": statistics.median(raw),
        "op_p90_ms": _quantile(raw, 90),
        "ops_per_s": len(raw) / (sum(raw) / 1000.0),
        "setup_s": statistics.median(p["setup_raw_s"] for p in setups + passes),
    }
    return metrics, raw_metrics


def _layers(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        metrics[name] = None if None in values else statistics.median(values)

    def mean_op(ps):
        xs = [ms for p in ps for ms in p["norm_ms"]]
        return sum(xs) / len(xs)

    metrics["trace.overhead_frac"] = mean_op(traced) / mean_op(plain) - 1.0
    return metrics


def _print_predictions(workload: str, layers: dict) -> None:
    op_ms = layers["trace.op_ms"]
    for label, names, op, threshold in PREDICTIONS[workload]:
        values = [layers[n] for n in names]
        if None in values:
            print(f"prediction {label} {op} {threshold} of op time: missing")
            continue
        share = sum(values) / op_ms
        holds = share >= threshold if op == ">=" else share < threshold
        print(f"prediction {label} {op} {threshold} of op time: {share:.3f} "
              f"({'holds' if holds else 'does not hold'})")


def run_workload(args) -> int:
    expected: list[str] = []
    if args.seed == DEFAULT_SEED and os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload, [])
    setups, passes = _run_passes(args, expected)
    attempted = sum(len(p["raw_ms"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    ref = [ms for p in passes for ms in p["ref_ms"]]
    ref_q = statistics.quantiles(ref, n=4)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"ops {attempted}  failed {len(failures)}  failed_frac {len(failures) / attempted}")
    print(f"reference kernel: median {statistics.median(ref):.4f} ms, "
          f"quartiles {ref_q[0]:.4f}..{ref_q[2]:.4f} ms over {len(ref)} samples")
    for index, problems in failures[:10]:
        print(f"failed op {index}: {'; '.join(problems)}")
    if args.trace:
        metrics = _layers(passes)
        units = LAYER_UNITS
        for name, value in metrics.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:32s} {shown} {units[name]}")
        _print_predictions(args.workload, metrics)
    else:
        metrics, raw = _end_to_end(setups, passes)
        units = UNITS
        for name, value in metrics.items():
            extra = f"   (raw {raw[name]:.6g})" if name in raw else ""
            print(f"{name:14s} {value:.6g} {units[name]}{extra}")
    if args.write_digests:
        _write_digests(args, passes[0]["digests"])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _write_digests(args, digests: list[str]) -> None:
    if args.seed != DEFAULT_SEED or args.ops:
        raise SystemExit("digests are recorded for the default seed and all ops only")
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    recorded[args.workload] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Run every workload in its own process and pass its output through."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--ops", str(args.ops)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run only the first N operations of each pass (0: all)")
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's stdout digests for the default seed")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rideshare", "__init__.py")):
        print(f"no rideshare sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
