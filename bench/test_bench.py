"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

from rideshare import cli  # noqa: E402
from rideshare.model import validate_scenario  # noqa: E402
from rideshare.scenario_io import parse_scenario_text, serialize_scenario  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, check_audit, check_settle  # noqa: E402


def _files(workload: str, seed: int) -> list[str]:
    return [serialize_scenario(op.scenario) for op in WORKLOADS[workload].build(seed)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_valid_files(workload):
    first = _files(workload, 7)
    assert first == _files(workload, 7)
    assert first != _files(workload, 8)
    for text in first:
        assert validate_scenario(parse_scenario_text(text)) == []


def test_price_scenarios_never_share_a_feasible_set():
    from generate import structure_key

    ops = WORKLOADS["price-n7"].build(3)
    assert len({structure_key(op.scenario) for op in ops}) == len(ops)


def _run(op, tmp_path) -> tuple[int, str, str, str]:
    path = tmp_path / "scenario.json"
    path.write_text(serialize_scenario(op.scenario))
    out = tmp_path / "trials.csv"
    argv = [a.format(scenario=str(path), out=str(out)) for a in op.argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    csv_text = out.read_text() if out.exists() else ""
    return rc, stdout.getvalue(), stderr.getvalue(), csv_text


def test_tampered_witness_gain_fails_the_check(tmp_path):
    ops = [op for op in WORKLOADS["audit-n4"].build(0) if op.mechanism == "groves-clarke"]
    for op in ops:
        rc, stdout, stderr, _ = _run(op, tmp_path)
        if rc == 1:
            break
    else:
        pytest.fail("no private Clarke audit found a violation")
    assert check_audit(op, rc, stdout, stderr, "") == []
    lines = stdout.splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("gain: "))
    gain = float(lines[k].split(": ")[1])
    lines[k] = f"gain: {gain * 1.01}"
    assert check_audit(op, rc, "\n".join(lines) + "\n", stderr, "")


def test_altered_csv_row_fails_the_check(tmp_path):
    op = WORKLOADS["settle-mc"].build(0)[0]
    rc, stdout, stderr, csv_text = _run(op, tmp_path)
    assert check_settle(op, rc, stdout, stderr, csv_text) == []
    rows = csv_text.splitlines()
    fields = rows[5].split(",")
    fields[5] = repr(float(fields[5]) + 0.25)
    rows[5] = ",".join(fields)
    assert check_settle(op, rc, stdout, stderr, "\n".join(rows) + "\n")
    assert check_settle(op, rc, stdout, stderr, "\n".join(rows[:-3]) + "\n")


def test_digest_mismatch_fails_the_op():
    result = worker.run_pass({"workload": "price-n7", "seed": 0, "ops": 1, "trace": False,
                              "expected_digests": ["0" * 16]})
    assert result["failures"] == [[0, ["stdout digest differs from the recorded one"]]]


def _boundaries():
    for module_name, attr, _ in tracer.SPAN_BOUNDARIES + tracer.AGGREGATE_BOUNDARIES:
        module = importlib.import_module(module_name)
        yield module, attr


def test_tracer_restores_every_wrapped_attribute():
    before = [(m, a, getattr(m, a)) for m, a in _boundaries()]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(getattr(m, a) is not original for m, a, original in before)
        result = worker.run_pass({"workload": "audit-n4", "seed": 0, "ops": 1, "trace": False})
    finally:
        t.restore()
    assert all(getattr(m, a) is original for m, a, original in before)
    assert result["failures"] == []


def test_traced_pass_restores_attributes_and_counts_layers():
    before = [(m, a, getattr(m, a)) for m, a in _boundaries()]
    result = worker.run_pass({"workload": "price-n7", "seed": 0, "ops": 2, "trace": True})
    assert all(getattr(m, a) is original for m, a, original in before)
    layers = result["layers"]
    assert layers["model.enum_calls"] == 8.0
    assert layers["payments.schedule_calls"] == 1.0
    assert layers["model.enum_repeat_frac"] == 0.0
    assert result["missing"] == []


def test_missing_boundary_is_reported_not_fatal(monkeypatch):
    import rideshare.allocation

    monkeypatch.delattr(rideshare.allocation, "_feasible")
    t = tracer.Tracer()
    t.install()
    t.restore()
    assert t.missing == {"rideshare.allocation._feasible"}
    metrics = t.metrics(1000.0)
    assert metrics["model.enum_ms"] is None
    assert metrics["valuation.evaluate_ms"] is not None


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_completes(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--ops", "3",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (6 if trace == "1" else 3)
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _declared(kind)
