"""End-to-end command line behavior and scenario file round-trips."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    recursion_headroom,
    solo_commuters,
)
from rideshare import allocation, cli, model
from rideshare.audit import MAX_P_GRID
from rideshare.corpus import by_name, corpus
from rideshare.payments import PivotRule, commit_payments, expected_utility, groves_payments
from rideshare.scenario_io import (
    ScenarioFormatError,
    parse_scenario_text,
    serialize_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PAIR = str(SCENARIOS / "linear-pair-profitable.json")
GATE = str(SCENARIOS / "threshold-gate-pair.json")
GATE_MISREPORT = str(SCENARIOS / "threshold-gate-pair-misreport.json")
QUADRATIC = str(SCENARIOS / "quadratic-reliability-pair.json")


def test_allocate_pair(capsys):
    assert cli.main(["allocate", PAIR]) == 0
    out = capsys.readouterr().out
    assert "0: drive [1]" in out
    assert "1: ride [0]" in out
    assert "welfare: 1.2" in out


def test_allocate_gate_stays_home(capsys):
    assert cli.main(["allocate", GATE]) == 0
    out = capsys.readouterr().out
    assert "all travel alone" in out


def test_pay_public_clarke(capsys):
    assert cli.main(["pay", PAIR, "--mechanism", "groves-clarke", "--public-p"]) == 0
    out = capsys.readouterr().out
    assert "payment[0]: -2.0" in out
    assert "payment[1]: 0.8" in out


def test_pay_defaults_to_commit(capsys):
    assert cli.main(["pay", PAIR]) == 0
    out = capsys.readouterr().out
    assert "mechanism: commit" in out
    assert "payment[0]: (-4.0, 0.0)" in out


def test_audit_gate_violated_exit_code(capsys):
    assert cli.main(["audit", GATE, "--mechanism", "commit"]) == 1
    out = capsys.readouterr().out
    assert "verdict: violated" in out
    assert "witness commuter: 0" in out
    assert "gain: 1.2" in out
    assert '"p_commit": 0.6' in out


def test_audit_clean_exit_code(capsys):
    assert cli.main(["audit", PAIR, "--mechanism", "commit"]) == 0
    out = capsys.readouterr().out
    assert "verdict: no-violation-found" in out


@pytest.mark.parametrize("public_p", [False, True], ids=["reported-p", "public-p"])
@pytest.mark.parametrize("rule", ["commit", "groves-zero", "groves-clarke"])
@pytest.mark.parametrize("command", ["pay", "simulate", "audit"])
def test_mechanism_flags(tmp_path, capsys, command, rule, public_p):
    """Every subcommand accepts the same mechanisms: commit with public
    probabilities is refused alike everywhere, and every other combination
    runs. On the pair scenario only the private-probability Groves audits
    find a violation."""
    argv = [command, PAIR, "--mechanism", rule] + (["--public-p"] if public_p else [])
    if command == "simulate":
        argv += ["--trials", "20", "--out", str(tmp_path / "t.csv")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    if rule == "commit" and public_p:
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "--mechanism commit --public-p: public probabilities only apply to groves mechanisms\n"
        )
    elif command == "audit":
        violated = rule != "commit" and not public_p
        assert code == (1 if violated else 0)
        assert f"mechanism: {rule}{'-public-p' if public_p else ''}\n" in captured.out
        verdict = "violated" if violated else "no-violation-found"
        assert f"verdict: {verdict}\n" in captured.out
    else:
        assert code == 0, captured.err


def test_audit_dominant_flag(capsys):
    code = cli.main([
        "audit", PAIR, "--mechanism", "commit",
        "--notion", "dominant", "--opponent-grid", "11",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "notion: dominant" in out
    assert "opponent 0 report:" in out


@pytest.mark.parametrize("name, argv", [
    ("threshold-gate-pair", ["--mechanism", "commit"]),
    ("quadratic-reliability-pair", ["--mechanism", "commit"]),
    ("linear-pair-profitable", ["--mechanism", "groves-clarke"]),
    ("linear-pair-profitable", ["--mechanism", "commit", "--notion", "dominant"]),
], ids=["gate-commit", "quadratic-commit", "pair-clarke", "pair-commit-dominant"])
def test_printed_witness_replays_from_a_file(capsys, name, argv):
    """The printed deviated and opponent reports, written back into the file
    as `reported_type`, price the deviator at the printed deviated utility
    under the audited mechanism's schedule."""
    path = SCENARIOS / f"{name}.json"
    assert cli.main(["audit", str(path), *argv]) == 1
    out = capsys.readouterr().out
    doc = json.loads(path.read_text())
    commuters = doc["scenario"]["commuters"]
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    i = int(fields["witness commuter"])
    commuters[i]["reported_type"] = json.loads(fields["deviated report"])
    for j in range(len(commuters)):
        if f"opponent {j} report" in fields:
            commuters[j]["reported_type"] = json.loads(fields[f"opponent {j} report"])
    s = parse_scenario_text(json.dumps(doc))
    if fields["mechanism"] == "commit":
        schedule = commit_payments(s)
    else:
        schedule = groves_payments(s, PivotRule.CLARKE)
    assert repr(expected_utility(s, i, schedule)) == fields["deviated utility"]


@pytest.mark.parametrize("argv, message", [
    (["--grid", "1"], "p_grid must be at least 2"),
    (["--grid", "-3"], "p_grid must be at least 2"),
    (["--notion", "dominant", "--opponent-grid", "1"], "p_grid must be at least 2"),
    (["--grid", str(MAX_P_GRID + 1)], f"p_grid must be at most {MAX_P_GRID}"),
    (["--notion", "dominant", "--opponent-grid", str(MAX_P_GRID + 1)],
     f"p_grid must be at most {MAX_P_GRID}"),
    (["--opponent-grid", "0"], "p_grid must be at least 2"),
    (["--notion", "expost", "--opponent-grid", "1"], "p_grid must be at least 2"),
    (["--notion", "expost", "--opponent-grid", str(MAX_P_GRID + 1)],
     f"p_grid must be at most {MAX_P_GRID}"),
], ids=["grid-1", "grid-negative", "opponent-grid-1", "grid-above-cap", "opponent-grid-above-cap",
        "expost-default-opponent-grid-0", "expost-opponent-grid-1",
        "expost-opponent-grid-above-cap"])
def test_audit_grid_below_two_is_input_error(capsys, argv, message):
    """A grid below two points, or above the cap, is refused before any
    deviation is built, under either notion: an ex-post audit ignores the
    opponent grid but still checks it."""
    assert cli.main(["audit", PAIR] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[-2]}: {message}" in captured.err
    assert "Traceback" not in captured.err


def test_audit_dominant_over_the_scoring_budget_is_input_error(capsys):
    """Each commuter of the pair has 40 × 5 deviations and an opponent grid
    of 1 + 1,000 × 5 reports: 2 × 200 × 5,001 = 2,000,400 scorings, just over
    the budget, refused with exit 2 before the sweep."""
    code = cli.main([
        "audit", PAIR, "--notion", "dominant", "--grid", "40", "--opponent-grid", "1000",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "dominant audit would score 2000400 deviations" in captured.err
    assert "Traceback" not in captured.err


def test_audit_expost_over_the_scoring_budget_is_input_error(tmp_path, capsys):
    """Commuter 0 of the shared-driver trio has 625 reported valuations, so
    a 10,001-point groves-clarke grid would score 6,250,625 deviations and
    is refused with exit 2 before it is built. Under commit the
    certificate clears every sweep at the same grid, so nothing is
    counted and the audit finds nothing."""
    path = tmp_path / "trio.json"
    path.write_text(serialize_scenario(by_name("linear-trio-shared-driver")), encoding="utf-8")
    code = cli.main(["audit", str(path), "--mechanism", "groves-clarke", "--grid", "10001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("ex-post audit would score 6250625 deviations of commuter 0 "
                            "and is refused above 2000000; use a smaller grid\n")
    assert cli.main(["audit", str(path), "--mechanism", "commit", "--grid", "10001"]) == 0
    assert "verdict: no-violation-found" in capsys.readouterr().out


def test_suite_passes(capsys):
    assert cli.main(["suite"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", PAIR, "--trials", "200", "--seed", "9"]
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    a = out_a.read_bytes()
    assert a == out_b.read_bytes()
    header = a.decode().splitlines()[0]
    assert header == "trial,commuter,committed,value,payment,utility"
    assert a.decode().count("\nmean,") == 2
    assert a.decode().count("\nstderr,") == 2


def test_simulate_rejects_zero_trials(tmp_path, monkeypatch, capsys):
    """A trial count below 1, or past the cap on trial rows, is refused
    before any trial runs: the pair gets at most a million trials."""
    def no_trials(*args):
        raise AssertionError("run_trials called")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    out = str(tmp_path / "x.csv")
    assert cli.main(["simulate", PAIR, "--trials", "0", "--out", out]) == 2
    assert cli.main(["simulate", PAIR, "--trials", "1000001", "--out", out]) == 2
    assert ("--trials must be at most 1000000 for 2 commuters (2000000 trial rows), "
            "got 1000001") in capsys.readouterr().err


def test_simulate_bounds_trials_times_commuters(tmp_path, monkeypatch, capsys):
    """The cap is on trial rows, trials times commuters, as the CSV, the
    run time and the distinct vectors grow with both: 200 commuters at
    20,000 trials, a run that writes a 92 MB file, are refused before any
    trial is drawn, and 10,000 trials are admitted."""
    path = tmp_path / "solo.json"
    path.write_text(serialize_scenario(solo_commuters(200)), encoding="utf-8")
    drawn = []

    def no_trials(s, schedule, trials, seed):
        drawn.append(trials)
        raise AssertionError("run_trials called")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", str(path), "--trials", "20000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("--trials must be at most 10000 for 200 commuters "
                            "(2000000 trial rows), got 20000\n")
    assert captured.out == ""
    assert drawn == [] and not out.exists()
    with pytest.raises(AssertionError, match="run_trials called"):
        cli.main(["simulate", str(path), "--trials", "10000", "--out", str(out)])
    assert drawn == [10000]


@pytest.mark.parametrize("seed, code", [(-1, 2), (2**64, 2), (0, 0), (2**64 - 1, 0)])
def test_simulate_seed_must_fit_64_bits(seed, code, tmp_path, capsys):
    """The draws read the seed mod 2**64, so a seed outside 0..2**64 - 1
    would write another seed's trials under its own name; it is refused."""
    out = str(tmp_path / "x.csv")
    assert cli.main(["simulate", PAIR, "--trials", "5", "--seed", str(seed), "--out", out]) == code
    captured = capsys.readouterr()
    if code:
        assert f"--seed must be between 0 and {2**64 - 1}, got {seed}" in captured.err
    else:
        assert f"seed: {seed} " in captured.out


def test_simulate_unwritable_output(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.csv"
    code = cli.main(["simulate", PAIR, "--trials", "5", "--out", str(target)])
    assert code == 3


def test_missing_file_is_input_error(capsys):
    assert cli.main(["allocate", str(SCENARIOS / "nope.json")]) == 2


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["allocate", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


DELETE = object()
COMMUTER = ("scenario", "commuters", 0)
CLAUSE = COMMUTER + ("true_type", "valuation", "clauses", 0)
CLAUSE_PATH = "scenario.commuters[0].true_type.valuation.clauses[0]"


@pytest.mark.parametrize("where, edits, line", [
    pytest.param(COMMUTER, {"seats": 1, "seat_capacity": DELETE},
                 "scenario.commuters[0].seats: unknown field", id="unknown-field"),
    pytest.param(COMMUTER, {"has_vehicle": DELETE},
                 "scenario.commuters[0].has_vehicle: missing field", id="missing-field"),
    pytest.param(COMMUTER, {"true_type": []},
                 "scenario.commuters[0].true_type: expected an object, got list", id="object"),
    pytest.param(COMMUTER + ("true_type", "valuation"), {"clauses": {}},
                 "scenario.commuters[0].true_type.valuation.clauses: expected a list, got dict",
                 id="list"),
    pytest.param(COMMUTER, {"seat_capacity": 1.5},
                 "scenario.commuters[0].seat_capacity: expected an integer, got 1.5", id="integer"),
    pytest.param(COMMUTER, {"has_vehicle": 1},
                 "scenario.commuters[0].has_vehicle: expected a boolean, got 1", id="boolean"),
    pytest.param(CLAUSE, {"role": "fly"}, f"{CLAUSE_PATH}.role: unknown role 'fly'", id="role"),
    pytest.param(CLAUSE, {"gates": [{"subject": 1, "bound": 0.5, "direction": "up"}]},
                 f"{CLAUSE_PATH}.gates[0].direction: unknown direction 'up'", id="direction"),
    pytest.param(CLAUSE, {"partners": {"exact": [1], "at_least": 1}},
                 f"{CLAUSE_PATH}.partners: choose one of exact / at_least", id="exact-and-at-least"),
    pytest.param(CLAUSE, {"partners": {}},
                 f'{CLAUSE_PATH}.partners: expected "any", exact, or at_least', id="no-partners-key"),
    pytest.param(("scenario", "metadata"), {"name": 7},
                 "scenario.metadata.name: metadata values must be strings", id="metadata"),
])
def test_unknown_field_names_the_path(tmp_path, capsys, where, edits, line):
    """One edit of a bundled file per parser rejection: the command exits 2
    with the offending field's path and the reason, and prints no result."""
    doc = json.loads(Path(PAIR).read_text())
    obj = doc
    for key in where:
        obj = obj[key]
    for key, value in edits.items():
        if value is DELETE:
            del obj[key]
        else:
            obj[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["allocate", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{bad}: {line}\n"


def test_version_mismatch_is_input_error(tmp_path, capsys):
    doc = json.loads(Path(PAIR).read_text())
    doc["schema_version"] = 99
    bad = tmp_path / "v99.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["allocate", str(bad)]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_invalid_scenario_is_input_error(tmp_path, capsys):
    doc = json.loads(Path(PAIR).read_text())
    doc["scenario"]["commuters"][0]["true_type"]["p_commit"] = 1.5
    bad = tmp_path / "p15.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["allocate", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_unknown_subcommand_is_input_error(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_main_builds_its_parser_once_and_no_output_shows_it(tmp_path, monkeypatch, capsys):
    """`main` parses with one tree per process: valid commands, argparse
    usage errors and help all run through it, and each prints and exits
    exactly as with a freshly built parser. Help at two terminal widths
    shows that the width is read when the help prints."""
    out = str(tmp_path / "x.csv")
    valid = [
        ["allocate", PAIR],
        ["pay", PAIR, "--mechanism", "groves-clarke"],
        ["simulate", PAIR, "--trials", "50", "--seed", "3", "--out", out],
        ["audit", GATE, "--mechanism", "commit"],
        ["suite"],
    ]
    usage_errors = [
        [], ["bogus"], ["pay"], ["pay", PAIR, "--mechanism", "nope"], ["simulate", PAIR],
    ]
    helps = [("80", ["--help"]), ("60", ["pay", "--help"]), ("200", ["pay", "--help"])]
    calls = [
        *(("80", argv) for argv in valid + usage_errors),
        *helps,
        *(("80", argv) for argv in valid),
    ]

    def replay():
        results = []
        for columns, argv in calls:
            monkeypatch.setenv("COLUMNS", columns)
            code = cli.main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    build_parser = cli.build_parser
    assert build_parser() is not build_parser()
    builds = []

    def counted():
        builds.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    cached = replay()
    assert len(builds) == 1

    monkeypatch.setattr(cli, "_parser", counted)
    assert replay() == cached
    assert len(builds) == 1 + len(calls)

    codes = [code for code, _, _ in cached]
    assert codes[len(valid):len(valid) + len(usage_errors)] == [2] * len(usage_errors)
    help_runs = cached[len(valid) + len(usage_errors):-len(valid)]
    assert [code for code, _, _ in help_runs] == [0] * len(helps)
    assert help_runs[1][1] != help_runs[2][1]


def test_importing_the_cli_builds_no_parser():
    """The tree is built on the first `main` call, never at import, so a
    cold `import rideshare.cli` does not pay for it."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = "from rideshare import cli; print(cli._parser.cache_info().currsize)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == "0\n"


def test_bundled_files_are_canonical():
    """Each shipped scenario file is byte-identical to its own re-serialized
    parse, so editing tools cannot silently change meaning."""
    files = sorted(SCENARIOS.glob("*.json"))
    assert len(files) >= 4
    for path in files:
        text = path.read_text()
        s = parse_scenario_text(text)
        assert serialize_scenario(s) == text, path.name


def test_bundled_files_match_the_corpus():
    """Each shipped scenario file is the serialized corpus entry of its name."""
    for path in sorted(SCENARIOS.glob("*.json")):
        assert path.read_text() == serialize_scenario(by_name(path.stem)), path.name


def test_corpus_round_trips_through_json():
    for e in corpus():
        text = serialize_scenario(e.scenario)
        assert parse_scenario_text(text) == e.scenario, e.name


def test_misreport_file_keeps_reported_type():
    s = parse_scenario_text(Path(GATE_MISREPORT).read_text())
    assert s.reported_p() != s.true_p()
    assert s == by_name("threshold-gate-pair-misreport")


def test_parse_rejects_bool_probability():
    doc = json.loads(Path(PAIR).read_text())
    doc["scenario"]["commuters"][0]["true_type"]["p_commit"] = True
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario_text(json.dumps(doc))
    assert "p_commit" in str(exc.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_non_finite_coefficient_is_input_error(tmp_path, capsys, value):
    doc = json.loads(Path(PAIR).read_text())
    clause = doc["scenario"]["commuters"][0]["true_type"]["valuation"]["clauses"][0]
    clause["terms"][0]["coefficient"] = value
    bad = tmp_path / "nonfinite.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["audit", str(bad), "--mechanism", "commit"]) == 2
    captured = capsys.readouterr()
    assert "coefficient: expected a finite number" in captured.err
    assert "no-violation-found" not in captured.out


# Every subcommand that reads a scenario file.
_SCENARIO_COMMANDS = {
    "allocate": ["allocate"],
    "pay": ["pay"],
    "audit": ["audit", "--mechanism", "commit"],
    "simulate": ["simulate", "--trials", "5", "--out", "{out}"],
}


def _run_on(tmp_path, command, text):
    path = tmp_path / "scenario.json"
    path.write_bytes(text.encode() if isinstance(text, str) else text)
    argv = [command[0], str(path)] + [a.format(out=tmp_path / "t.csv") for a in command[1:]]
    return cli.main(argv)


def _repeat_p_commit(text):
    first = '"p_commit": 0.5,'
    assert text.count(first) == 1
    return text.replace(first, first + ' "p_commit": 0.9,')


def _repeat_exact_partner(text):
    doc = json.loads(text)
    clause = doc["scenario"]["commuters"][0]["true_type"]["valuation"]["clauses"][0]
    clause["partners"] = {"exact": [1, 1]}
    return json.dumps(doc)


@pytest.mark.parametrize("command", _SCENARIO_COMMANDS.values(), ids=_SCENARIO_COMMANDS)
@pytest.mark.parametrize("edit, message", [
    pytest.param(_repeat_p_commit, "duplicate key 'p_commit'", id="duplicate-key"),
    pytest.param(_repeat_exact_partner, "partners.exact[1]: repeated id 1", id="repeated-exact-id"),
])
def test_repeated_key_or_partner_is_input_error(tmp_path, capsys, command, edit, message):
    """A key given twice, or a partner id listed twice, has no single meaning;
    reading it as the last key or as a set would price a scenario the file
    does not state."""
    assert _run_on(tmp_path, command, edit(Path(PAIR).read_text())) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def _not_utf8(text):
    return text.replace('"metadata": {', '"metadata": {"note": "caf\u00e9", ', 1).encode("latin-1")


def _nested_too_deep(text):
    return ("[" * 100000).encode()


def _integer_past_digit_limit(text):
    return text.replace('"p_commit": 0.5', '"p_commit": ' + "1" * 5000, 1).encode()


@pytest.mark.parametrize("command", _SCENARIO_COMMANDS.values(), ids=_SCENARIO_COMMANDS)
@pytest.mark.parametrize("edit, message", [
    pytest.param(_not_utf8, "cannot read", id="not-utf-8"),
    pytest.param(_nested_too_deep, "nested too deeply", id="nested-too-deep"),
    pytest.param(_integer_past_digit_limit, "<document>: invalid JSON", id="integer-past-digit-limit"),
])
def test_unparseable_file_is_input_error(tmp_path, capsys, command, edit, message):
    """Bytes that are not UTF-8, nesting past the recursion limit and an
    integer literal past the digit limit are unreadable input, not a crash."""
    assert _run_on(tmp_path, command, edit(Path(PAIR).read_text())) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Each commuter's first term gets these coefficients: one large value per
# commuter overflowed the welfare sum; two on the rider overflowed its own
# value to inf; two more on the driver made the welfare sum -inf + inf.
_OVERFLOW_SHAPES = {
    "": ([1e308], [1e308]),
    "-value-inf": ([-2.0], [1e308, 1e308]),
    "-values-inf-and-minus-inf": ([-1e308, -1e308], [1e308, 1e308]),
}


@pytest.mark.parametrize("command, coefficients", [
    pytest.param(command, coefficients, id=name + shape)
    for shape, coefficients in _OVERFLOW_SHAPES.items()
    for name, command in _SCENARIO_COMMANDS.items()
])
def test_arithmetic_overflow_is_input_error(tmp_path, capsys, command, coefficients):
    """Coefficients near the float limit overflowed the exact welfare sums
    or a commuter's own value. They are bad input, refused at load with
    each clause past the magnitude bound named, before any arithmetic."""
    doc = json.loads(Path(PAIR).read_text())
    for c, values in zip(doc["scenario"]["commuters"], coefficients):
        c["true_type"]["p_commit"] = 1.0
        clause = c["true_type"]["valuation"]["clauses"][0]
        clause["terms"] = [dict(clause["terms"][0], coefficient=v) for v in values]
    assert _run_on(tmp_path, command, json.dumps(doc)) == 2
    captured = capsys.readouterr()
    past = [f"commuter {k} {label} valuation: clause 0: sum of |coefficient| "
            f"{sum(map(abs, values))} outside [0, 2**100]"
            for k, values in enumerate(coefficients) if sum(map(abs, values)) > 2.0**100
            for label in ("true", "reported")]
    assert [line.strip() for line in captured.err.splitlines()[1:]] == past
    assert captured.out == ""


def _quadratic_rider(edit):
    """The quadratic pair's file with `edit` applied to the rider's true
    valuation, whose clause 0 term 0 reads the driver's probability
    squared."""
    doc = json.loads(Path(QUADRATIC).read_text())
    edit(doc["scenario"]["commuters"][1]["true_type"]["valuation"])
    return json.dumps(doc)


def _default(v):
    return lambda spec: spec.update(default_value=v)


def _coefficients(*vs):
    def edit(spec):
        term = spec["clauses"][0]["terms"][0]
        spec["clauses"][0]["terms"] = [dict(term, coefficient=v) for v in vs]
    return edit


def _exponent(e):
    return lambda spec: spec["clauses"][0]["terms"][0]["factors"][0].update(exponent=e)


_ABOVE = math.nextafter(2.0**100, math.inf)


@pytest.mark.parametrize("at, past, reason", [
    pytest.param(_default(2.0**100), _default(_ABOVE),
                 f"default value {_ABOVE} outside [-2**100, 2**100]", id="default"),
    pytest.param(_default(-2.0**100), _default(-_ABOVE),
                 f"default value {-_ABOVE} outside [-2**100, 2**100]", id="negative-default"),
    pytest.param(_coefficients(2.0**100), _coefficients(_ABOVE),
                 f"clause 0: sum of |coefficient| {_ABOVE} outside [0, 2**100]", id="coefficient"),
    pytest.param(_coefficients(-2.0**99, 2.0**99), _coefficients(-2.0**99, _ABOVE - 2.0**99),
                 f"clause 0: sum of |coefficient| {_ABOVE} outside [0, 2**100]", id="clause-sum"),
    pytest.param(_exponent(2**53), _exponent(2**53 + 1),
                 f"clause 0: term 0 factor exponent {2**53 + 1} above 2**53", id="exponent"),
    pytest.param(_exponent(1), _exponent(0), "clause 0: factor exponent 0 below 1",
                 id="exponent-below-one"),
])
@pytest.mark.parametrize("command", _SCENARIO_COMMANDS.values(), ids=_SCENARIO_COMMANDS)
def test_each_bound_admits_its_edge_and_refuses_the_next_number(
        tmp_path, capsys, command, at, past, reason):
    """A value at a magnitude bound is admitted and priced; the next float,
    or int for an exponent (also below 1), past it exits 2 at load, its
    reason on stderr for the true and the reported valuation alike, and
    nothing on stdout."""
    assert _run_on(tmp_path, command, _quadratic_rider(at)) in (0, 1)
    assert capsys.readouterr().err == ""
    assert _run_on(tmp_path, command, _quadratic_rider(past)) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[1:] == [f"  commuter 1 {label} valuation: {reason}"
                                            for label in ("true", "reported")]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["allocate", "pay"])
def test_an_exponent_past_the_float_range_is_input_error(tmp_path, capsys, command):
    """An exponent of 10**400 passed the check for exponents below 1, and
    evaluating it raised OverflowError converting it to a float. It is now
    refused at load, naming the clause and the term, with no traceback."""
    assert _run_on(tmp_path, [command], _quadratic_rider(_exponent(10**400))) == 2
    captured = capsys.readouterr()
    reason = f"clause 0: term 0 factor exponent {10**400} above 2**53"
    assert captured.err.splitlines()[1:] == [f"  commuter 1 {label} valuation: {reason}"
                                            for label in ("true", "reported")]
    assert captured.out == ""


def test_values_are_scored_only_where_the_search_reaches_them(tmp_path, capsys, monkeypatch):
    """The only allocation where the rider rides is one the driver's
    excluded clause rules out first, so the rider's ride value, two terms
    at the magnitude bound, is never computed and the pair travels
    alone."""
    doc = json.loads(Path(PAIR).read_text())
    driver, rider = doc["scenario"]["commuters"]
    driver["true_type"]["valuation"]["clauses"][0] = {"role": "drive", "excluded": True}
    for c in (driver, rider):
        c["true_type"]["p_commit"] = 1.0
    clause = rider["true_type"]["valuation"]["clauses"][0]
    clause["terms"] = [dict(clause["terms"][0], coefficient=2.0**99)] * 2
    evaluated = []
    real = allocation.evaluate

    def evaluate(spec, a, p, absent=None):
        evaluated.append((spec.owner, a[spec.owner].role.value))
        return real(spec, a, p, absent)

    monkeypatch.setattr(allocation, "evaluate", evaluate)
    assert _run_on(tmp_path, ["allocate"], json.dumps(doc)) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("all travel alone\n")
    assert captured.err == ""
    assert (0, "drive") in evaluated and (1, "ride") not in evaluated


@pytest.mark.parametrize("mechanism", ["commit", "groves-clarke"])
def test_audit_overflow_on_a_dominated_allocation_is_input_error(tmp_path, capsys, mechanism):
    """Commuter 0 always travels alone; 1 can drive 2. The others' values
    are (-1e308, 1e308) when all travel alone and (1e308, -1.5e308) when 1
    drives 2, so the second allocation can never win for 0; yet 0's x10
    rescaling made its welfare sum overflow, and the audit reported that
    as bad input. Now every command refuses the file at load, naming the
    clauses past the magnitude bound, and nothing is priced."""
    def constant(role, coefficient):
        return {"role": role, "terms": [{"coefficient": coefficient, "factors": []}]}

    def commuter(k, vehicle, clauses):
        return {"id": k, "has_vehicle": vehicle, "seat_capacity": int(vehicle),
                "true_type": {"p_commit": 0.5, "valuation": {"owner": k, "clauses": clauses}}}

    doc = json.loads(Path(PAIR).read_text())
    doc["scenario"]["commuters"] = [
        commuter(0, False, [constant("none", 1e307)]),
        commuter(1, True, [constant("drive", 1e308), constant("none", -1e308)]),
        commuter(2, False, [constant("ride", -1.5e308), constant("none", 1e308)]),
    ]
    doc["scenario"]["compatibility"] = [[True, False, False], [False, True, True],
                                        [False, True, True]]
    text = json.dumps(doc)
    past = [f"commuter {k} {label} valuation: clause {ci}: sum of |coefficient| {abs(v)} "
            "outside [0, 2**100]"
            for k, values in enumerate([[1e307], [1e308, -1e308], [-1.5e308, 1e308]])
            for label in ("true", "reported") for ci, v in enumerate(values)]
    for command in (["allocate"], ["pay", "--mechanism", mechanism],
                    ["audit", "--mechanism", mechanism]):
        assert _run_on(tmp_path, command, text) == 2
        captured = capsys.readouterr()
        assert [line.strip() for line in captured.err.splitlines()[1:]] == past
        assert captured.out == ""


@pytest.mark.parametrize("mechanism, expected", [
    (["--mechanism", "commit"], 0),
    (["--mechanism", "groves-clarke"], 1),
    (["--mechanism", "groves-clarke", "--public-p"], 0),
])
def test_audit_scores_every_rescaling_of_a_coefficient_at_the_bound(tmp_path, capsys, mechanism, expected):
    """A coefficient at the magnitude bound prices fine, and the audit's
    own x10 rescaling of it stays far inside the float range, so it is
    scored like any other: no rescaling needs skipping."""
    doc = json.loads(Path(PAIR).read_text())
    clause = doc["scenario"]["commuters"][1]["true_type"]["valuation"]["clauses"][0]
    clause["terms"][0]["coefficient"] = 2.0**100
    big = tmp_path / "at-bound.json"
    big.write_text(json.dumps(doc))
    assert cli.main(["audit", str(big), *mechanism]) == expected
    captured = capsys.readouterr()
    assert captured.err == ""
    verdict = "violated" if expected == 1 else "no-violation-found"
    assert f"verdict: {verdict}" in captured.out


@pytest.mark.parametrize("mechanism", [
    ["--mechanism", "commit"],
    ["--mechanism", "groves-clarke"],
    ["--mechanism", "groves-clarke", "--public-p"],
])
def test_audit_scores_every_rescaling_of_a_clause_total_at_the_bound(tmp_path, capsys, mechanism):
    """Two constant terms that sum to the magnitude bound price fine, and
    so does every rescaling of them: the clause total times the largest
    scale stays far inside the float range, so nothing is skipped."""
    doc = json.loads(Path(PAIR).read_text())
    clause = doc["scenario"]["commuters"][1]["true_type"]["valuation"]["clauses"][0]
    clause["terms"] = [{"coefficient": 2.0**99, "factors": []}] * 2
    big = tmp_path / "constant-pair.json"
    big.write_text(json.dumps(doc))
    for command in (["allocate"], ["pay"]):
        assert cli.main([command[0], str(big)]) == 0
    assert cli.main(["audit", str(big), *mechanism]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "verdict: no-violation-found" in captured.out


@pytest.mark.parametrize("command", _SCENARIO_COMMANDS.values(), ids=_SCENARIO_COMMANDS)
def test_too_many_commuters_for_the_walk_is_input_error(tmp_path, capsys, command):
    """A scenario with about as many commuters as the recursion limit is
    refused in one line naming the count, not with a traceback; for audit,
    exit 1 would read as a violation."""
    text = serialize_scenario(solo_commuters(300))
    with recursion_headroom(150):
        assert _run_on(tmp_path, command, text) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("scenario has 300 commuters")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_feasible_set_over_the_budget_is_input_error(tmp_path, monkeypatch, capsys):
    """The pair has two feasible allocations: a budget of one refuses every
    command in one line, and a budget of two prices it."""
    monkeypatch.setattr(model, "MAX_ALLOCATIONS", 1)
    model._walk.cache_clear()
    for command in _SCENARIO_COMMANDS.values():
        assert _run_on(tmp_path, command, Path(PAIR).read_text()) == 2
        captured = capsys.readouterr()
        assert captured.err == ("scenario has 2 commuters and more than 1 feasible "
                                "allocations, too many for the feasible-set walk\n")
        assert captured.out == ""
    monkeypatch.setattr(model, "MAX_ALLOCATIONS", 2)
    assert cli.main(["pay", PAIR]) == 0
    assert capsys.readouterr().err == ""


def test_settled_utility_overflow_is_input_error(tmp_path, capsys):
    """A commit pair near the float limit once settled to +inf and -inf
    after the draws. Such a file is refused at load, before any draw and
    before the CSV is opened, naming the clause past the magnitude bound."""
    doc = json.loads(Path(PAIR).read_text())
    clause = doc["scenario"]["commuters"][1]["true_type"]["valuation"]["clauses"][0]
    clause["terms"][0]["coefficient"] = 1.7e308
    command = ["simulate", "--trials", "2", "--seed", "0", "--out", "{out}"]
    assert _run_on(tmp_path, command, json.dumps(doc)) == 2
    captured = capsys.readouterr()
    past = "clause 0: sum of |coefficient| 1.7e+308 outside [0, 2**100]\n"
    assert captured.err.endswith(f"invalid scenario\n  commuter 1 true valuation: {past}"
                                 f"  commuter 1 reported valuation: {past}")
    assert captured.out == ""
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("mechanism", [["commit"], ["groves-clarke"], ["groves-clarke", "--public-p"]],
                         ids=["commit", "groves-clarke", "groves-clarke-public-p"])
@pytest.mark.parametrize("command", [["pay"], ["simulate", "--trials", "20", "--out", "{out}"],
                                     ["audit", "--notion", "expost"],
                                     ["audit", "--notion", "dominant", "--grid", "3",
                                      "--opponent-grid", "2"]],
                         ids=["pay", "simulate", "expost", "dominant"])
def test_each_command_asks_each_pivot_once_per_table(tmp_path, monkeypatch, capsys, command,
                                                     mechanism):
    """`OutcomeTable.pivot` keeps nothing, so a second call for one
    commuter on one table would price that pivot again. `pay`,
    `simulate` and the ex-post and dominant audits, on the pair and on
    the two-driver trio, ask each table for each commuter's pivot at most
    once; the one table of `pay`, `simulate` and an ex-post audit is
    asked for every commuter's."""
    trio = tmp_path / "trio.json"
    trio.write_text(serialize_scenario(by_name("linear-trio-two-drivers")))
    real_pivot = allocation.OutcomeTable.pivot
    for path, n in ((PAIR, 2), (str(trio), 3)):
        tables = {}
        asked = Counter()

        def pivot(table, k):
            tables[id(table)] = table  # kept alive, so no id is reused
            asked[id(table), k] += 1
            return real_pivot(table, k)

        monkeypatch.setattr(allocation.OutcomeTable, "pivot", pivot)
        argv = [command[0], path, "--mechanism", *mechanism, *command[1:]]
        assert cli.main([a.format(out=tmp_path / "t.csv") for a in argv]) in (0, 1)
        capsys.readouterr()
        assert asked and max(asked.values()) == 1, path
        if "dominant" not in command:
            assert sorted(k for _, k in asked) == list(range(n)), path
