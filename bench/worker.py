"""One benchmark pass, run in a fresh process by ``run.py``.

A pass imports ``rideshare``, generates the workload's scenario files, then
runs every operation once through ``rideshare.cli.main`` in this process with
its output captured, so parsing, validation, computation and printing are all
inside the timed operation. Between operations it times the reference kernel.
Each output is checked after its timing ends. The pass prints one JSON object
with its timings, check failures, stdout digests and peak memory.

Usage: python3 bench/worker.py '<json config>' (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _digest(stdout: str, rc: int, csv_text: str) -> str:
    h = hashlib.sha256()
    for part in (stdout, f"rc={rc}", csv_text):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def run_pass(config: dict) -> dict:
    """Run one pass as described by `config` (keys: workload, seed, ops,
    trace, spans_path, expected_digests) and return its results. With
    `setup_only`, stop once the scenario files are written."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from rideshare import cli
    from rideshare.scenario_io import serialize_scenario

    import refkernel
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[config["workload"]]
    ops = workload.build(config["seed"])
    if config.get("ops"):
        ops = ops[: config["ops"]]
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        paths = []
        for op in ops:
            path = os.path.join(tmp, f"{op.scenario.metadata['name']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_scenario(op.scenario))
            paths.append(path)
        t_first_op = time.monotonic()
        if config.get("setup_only"):
            return {"t_first_op": t_first_op,
                    "ref_ms": [refkernel.time_kernel() for _ in range(9)]}
        tracer = Tracer() if config["trace"] else None
        expected = config.get("expected_digests") or []
        ref_ms = [refkernel.time_kernel()]
        raw_ms, digests, failures = [], [], []
        for op, path in zip(ops, paths):
            out_path = os.path.join(tmp, "trials.csv")
            argv = [a.format(scenario=path, out=out_path) for a in op.argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            error = None
            if tracer is not None:
                tracer.install()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    t0 = time.perf_counter()
                    try:
                        if tracer is not None:
                            rc = tracer.run_op(op.index, cli.main, argv)
                        else:
                            rc = cli.main(argv)
                    except Exception as e:  # an op that raises counts as failed
                        rc, error = -1, e
                    t1 = time.perf_counter()
            finally:
                if tracer is not None:
                    tracer.restore()
            raw_ms.append((t1 - t0) * 1000.0)
            csv_text = ""
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    csv_text = fh.read()
                os.remove(out_path)
            text = stdout.getvalue().replace(tmp, "<tmp>")
            digests.append(_digest(text, rc, csv_text))
            if error is not None:
                problems = [f"raised {error!r}"]
            else:
                try:
                    problems = workload.check(op, rc, text, stderr.getvalue(), csv_text)
                except Exception as e:  # a check that cannot read the output fails the op
                    problems = [f"check raised {e!r}"]
            if op.index < len(expected) and expected[op.index] != digests[-1]:
                problems.append("stdout digest differs from the recorded one")
            if problems:
                failures.append([op.index, problems])
            ref_ms.append(refkernel.time_kernel())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    norm_ms = [ms * refkernel.local_scale(ref_ms, k + 1) for k, ms in enumerate(raw_ms)]
    result = {
        "t_first_op": t_first_op,
        "raw_ms": raw_ms,
        "norm_ms": norm_ms,
        "ref_ms": ref_ms,
        "failures": failures,
        "digests": digests,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        scale = refkernel.REFERENCE_MS / statistics.median(ref_ms) * 1000.0
        result["layers"] = tracer.metrics(scale)
        result["missing"] = sorted(tracer.missing)
        if config.get("spans_path"):
            with open(config["spans_path"], "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
