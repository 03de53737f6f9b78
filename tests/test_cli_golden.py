"""Golden CLI outputs: sha256 digests of every subcommand's stdout, stderr,
exit code and simulate CSV on every sample scenario.

A refactor or speed-up must leave these byte-identical. After a deliberate
behaviour change, rewrite the recorded digests with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from rideshare import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

MECHANISMS = (
    ("--mechanism", "groves-zero"),
    ("--mechanism", "groves-zero", "--public-p"),
    ("--mechanism", "groves-clarke"),
    ("--mechanism", "groves-clarke", "--public-p"),
    ("--mechanism", "commit"),
)
OUT = "<out>"


def _runs():
    """(argv, writes_csv) for every recorded run; scenario paths are relative
    to the repo root and the CSV path is the placeholder OUT."""
    for path in SCENARIOS:
        scenario = str(path.relative_to(ROOT))
        yield ["allocate", scenario], False
        for mechanism in MECHANISMS:
            yield ["pay", scenario, *mechanism], False
            yield ["simulate", scenario, *mechanism,
                   "--trials", "200", "--seed", "7", "--out", OUT], True
            yield ["audit", scenario, *mechanism], False
            yield ["audit", scenario, *mechanism,
                   "--notion", "dominant", "--grid", "4", "--opponent-grid", "3"], False
    yield ["suite"], False


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests():
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = str(Path(tmp) / "trials.csv")
        for argv, writes_csv in _runs():
            real = [str(ROOT / a) if a.startswith("scenarios/") else a for a in argv]
            real = [csv_path if a == OUT else a for a in real]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(real)
            record = {
                "exit": code,
                "stdout": _sha(stdout.getvalue().replace(csv_path, OUT)),
                "stderr": _sha(stderr.getvalue()),
            }
            if writes_csv:
                record["csv"] = _sha(Path(csv_path).read_text(encoding="utf-8"))
            out[" ".join(argv)] = record
    return out


def test_cli_outputs_match_recorded_digests():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = _digests()
    assert sorted(actual) == sorted(recorded)
    changed = [run for run in recorded if actual[run] != recorded[run]]
    assert not changed, f"{len(changed)} CLI runs changed output, first: {changed[:3]}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
