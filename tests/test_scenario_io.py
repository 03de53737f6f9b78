"""The scenario parser against the reference parser in `conftest`: on
serialized corpus and bench-shaped scenarios with faults put in, the two
return equal scenarios or raise the same error text, and they check a
file's fields in the same order. The writer against json: it serializes
scenarios as the reference serializer, `json.dumps(..., indent=2,
sort_keys=True)`, does, and it raises what json raises on a value no
scenario document holds."""

import copy
import functools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FAMILIES,
    bench_scale_scenario,
    pivot_scenarios,
    reference_parse_scenario_text,
    reference_serialize_scenario,
    small_scenarios,
)
from rideshare import scenario_io
from rideshare.corpus import by_name, corpus
from rideshare.model import Commuter, Role, Scenario, TripType, full_compatibility
from rideshare.scenario_io import ScenarioFormatError, parse_scenario_text, serialize_scenario
from rideshare.valuation import AnyPartners, Clause, Monomial, OutcomePattern, ValuationSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class _Obj(list):
    """A JSON object as a list of [key, value] pairs, so a key can repeat."""


class _Raw(str):
    """JSON text written as is: a literal `json.dumps` cannot write."""


# Values a field is retyped to: a boolean for an integer, a string, lists,
# null, an object, NaN, literals past the float range and past the integer
# digit limit, and well-formed numbers of the other kind.
RETYPED = (True, "text", [], [1], None, _Obj(), float("nan"), _Raw("1e400"), _Raw("1" * 5000),
           2, 1.5, 10**300)
ROLES = ("fly", "", "Drive", "drive ", 1, None, ["drive"], _Obj([["drive", True]]))
DIRECTIONS = ("up", "AT_LEAST", "", 0, None, ["below"], _Obj([["below", True]]))


def _tree(value):
    if isinstance(value, dict):
        return _Obj([key, _tree(v)] for key, v in value.items())
    if isinstance(value, list):
        return [_tree(v) for v in value]
    return value


def _text(node):
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(key)}: {_text(v)}" for key, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_text, node)) + "]"
    if isinstance(node, _Raw):
        return node
    return json.dumps(node)


@functools.lru_cache(maxsize=1)
def _documents():
    """Serialized corpus scenarios and the three bench-shaped ones."""
    scenarios = [e.scenario for e in corpus()] + [bench_scale_scenario(f) for f in FAMILIES]
    return tuple(serialize_scenario(s) for s in scenarios)


def _children(node, path):
    """(container, index, field path) of each value directly in `node`,
    whose field path is `path`."""
    if isinstance(node, _Obj):
        return [(pair, 1, f"{path}.{pair[0]}" if path else pair[0]) for pair in node]
    return [(node, k, f"{path}[{k}]") for k in range(len(node))]


def _nodes(node, path=""):
    """Every object and list in the tree with its field path, outermost first."""
    yield node, path
    for container, k, sub in _children(node, path):
        if isinstance(container[k], list):
            yield from _nodes(container[k], sub)


def _objects_with(tree, key):
    return [c for c, _ in _nodes(tree) if isinstance(c, _Obj) and any(k == key for k, _ in c)]


def _set(obj, key, value):
    for pair in obj:
        if pair[0] == key:
            pair[1] = value
            return
    obj.append([key, value])


def _any(values):
    """One of `values`, copied, so that a later fault edits only its own."""
    return st.sampled_from(values).map(copy.deepcopy)


FAULTS = ("drop", "unknown", "repeat", "retype-field", "retype-item", "role", "direction",
          "exact-and-at-least", "repeat-id", "metadata")


def _fault(draw, tree, scope):
    """Put one fault into `scope`, a part of the tree, in place, if it has a
    place for that fault; a metadata fault goes to the scenario."""
    containers = [c for c, _ in _nodes(scope)]
    objects = [c for c in containers if isinstance(c, _Obj)]
    filled = [c for c in objects if c]
    lists = [c for c in containers if c and not isinstance(c, _Obj)]
    clauses = _objects_with(scope, "role")
    kind = draw(st.sampled_from(FAULTS))
    if kind == "drop" and filled:
        obj = draw(st.sampled_from(filled))
        del obj[draw(st.integers(0, len(obj) - 1))]
    elif kind == "unknown" and objects:
        obj = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(("bogus", "Role", "seats", "")))
        obj.insert(draw(st.integers(0, len(obj))), [key, draw(_any(RETYPED))])
    elif kind == "repeat" and filled:
        obj = draw(st.sampled_from(filled))
        k = draw(st.integers(0, len(obj) - 1))
        value = draw(_any((obj[k][1],) + RETYPED))
        obj.insert(draw(st.integers(k + 1, len(obj))), [obj[k][0], value])
    elif kind == "retype-field" and filled:
        # a field name first, so that rare fields are retyped as often as common ones
        key = draw(st.sampled_from(sorted({k for obj in filled for k, _ in obj})))
        _set(draw(st.sampled_from(_objects_with(scope, key))), key, draw(_any(RETYPED)))
    elif kind == "retype-item" and lists:
        items = draw(st.sampled_from(lists))
        items[draw(st.integers(0, len(items) - 1))] = draw(_any(RETYPED))
    elif kind == "role" and clauses:
        _set(draw(st.sampled_from(clauses)), "role", draw(_any(ROLES)))
    elif kind == "direction" and _objects_with(scope, "direction"):
        gate = draw(st.sampled_from(_objects_with(scope, "direction")))
        _set(gate, "direction", draw(_any(DIRECTIONS)))
    elif kind == "exact-and-at-least" and clauses:
        pairs = [["exact", [1]], ["at_least", 1]]
        if draw(st.booleans()):
            pairs.reverse()
        _set(draw(st.sampled_from(clauses)), "partners", _Obj(pairs))
    elif kind == "repeat-id" and _objects_with(scope, "exact"):
        exact = dict(draw(st.sampled_from(_objects_with(scope, "exact"))))["exact"]
        if isinstance(exact, list) and exact:
            exact.insert(draw(st.integers(0, len(exact))), draw(_any(exact)))
    elif kind == "metadata" and isinstance(dict(tree).get("scenario"), _Obj):
        pairs = [["name", "x"]] if draw(st.booleans()) else []
        pairs.insert(draw(st.integers(0, len(pairs))), ["note", draw(_any(RETYPED))])
        _set(dict(tree)["scenario"], "metadata", _Obj(pairs))


def _outcome(parse, text):
    try:
        s = parse(text)
    except ScenarioFormatError as e:
        return "error", str(e)
    return "parsed", s, repr(s)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parser_matches_the_reference_on_faulty_files(data):
    """One or two faults (a key dropped, added or repeated, a value
    retyped, an unknown role or gate direction, exact and at_least
    together, a repeated exact id, a non-string metadata value) in a
    serialized scenario: the parser returns the reference's scenario, equal
    and with the same repr, or raises ScenarioFormatError with the
    reference's text."""
    tree = _tree(json.loads(data.draw(st.sampled_from(_documents()))))
    # Both faults land in one commuter, trip or clause, or anywhere, so
    # that the order of checks within one object decides which is reported.
    scopes = [tree] + [o for key in ("id", "p_commit", "role") for o in _objects_with(tree, key)]
    scope = data.draw(st.sampled_from(scopes))
    for _ in range(data.draw(st.integers(1, 2))):
        _fault(data.draw, tree, scope)
    text = _text(tree)
    assert _outcome(parse_scenario_text, text) == _outcome(reference_parse_scenario_text, text)


def test_parser_matches_the_reference_on_unfaulted_files():
    for text in _documents():
        assert repr(parse_scenario_text(text)) == repr(reference_parse_scenario_text(text))


def _every_field_document():
    """threshold-gate-pair-misreport (a gate, factors, an excluded clause, a
    reported type and metadata) with a partner count, exact partners, a
    default value, and a gate and a term on the excluded clause added."""
    doc = json.loads(serialize_scenario(by_name("threshold-gate-pair-misreport")))
    driver, rider = doc["scenario"]["commuters"]
    driver["true_type"]["valuation"]["clauses"][0]["partners"] = {"at_least": 1}
    driver["true_type"]["valuation"]["clauses"][1].update(
        gates=[{"bound": 0.5, "direction": "below", "subject": 1}], terms=[{"coefficient": 1.0}])
    rider["true_type"]["valuation"]["clauses"][0]["partners"] = {"exact": [0]}
    rider["true_type"]["valuation"]["default_value"] = 1.5
    return doc


def _single_faults(tree):
    """The tree's text with one fault each: every value retyped, every key
    dropped, repeated, or preceded by an unknown or a clashing key, and
    every list item repeated. The tree is restored after each."""
    for container, _ in list(_nodes(tree)):
        for k in range(len(container)):
            if isinstance(container, _Obj):
                pair = container[k]
                original = pair[1]
                extra = {"role": ROLES, "direction": DIRECTIONS}.get(pair[0], ())
                for value in RETYPED + extra:
                    pair[1] = value
                    yield _text(tree)
                pair[1] = original
                del container[k]
                yield _text(tree)
                container.insert(k, pair)
                for added in ([pair[0], original], ["bogus", 1], ["exact", [1]], ["at_least", 1]):
                    container.insert(k, added)
                    yield _text(tree)
                    del container[k]
            else:
                original = container[k]
                for value in RETYPED:
                    container[k] = value
                    yield _text(tree)
                container[k] = original
                container.insert(k, original)
                yield _text(tree)
                del container[k]


def test_every_single_fault_matches_the_reference():
    """Each fault of `_single_faults`, put into a file that gives every
    field: the parser returns the reference's scenario or raises its error
    text, and the file is whole again afterwards."""
    tree = _tree(_every_field_document())
    for text in _single_faults(tree):
        assert _outcome(parse_scenario_text, text) == _outcome(reference_parse_scenario_text, text)
    assert _text(tree) == json.dumps(_every_field_document())


def _check_order(tree, slots):
    """Set every slot to null; then, until the file parses, both parsers
    report the same first error, and the slot it names is put back."""
    held = {path: (container, k, container[k]) for container, k, path in slots}
    for container, k, _ in held.values():
        container[k] = None
    while held:
        text = _text(tree)
        with pytest.raises(ScenarioFormatError) as caught:
            reference_parse_scenario_text(text)
        assert _outcome(parse_scenario_text, text) == ("error", str(caught.value))
        container, k, value = held.pop(caught.value.field)
        container[k] = value


def test_fields_are_checked_in_the_reference_order():
    """With every scalar of a file null, each parser reports the first field
    it checks; putting that one back and parsing again reports the next.
    The parsers agree at every step, so they check the scalars in the same
    order. The same holds for the values directly in each object and list,
    which orders the checks of an object's lists and objects too."""
    tree = _tree(_every_field_document())
    nodes = list(_nodes(tree))
    _check_order(tree, [(container, k, path) for node, parent in nodes
                        for container, k, path in _children(node, parent)
                        if not isinstance(container[k], list)])
    for node, path in nodes:
        _check_order(tree, _children(node, path))
    assert _text(tree) == json.dumps(_every_field_document())


def _solo(true_type, reported_type=None):
    commuter = {"id": 0, "has_vehicle": False, "seat_capacity": 0, "true_type": true_type}
    if reported_type is not None:
        commuter["reported_type"] = reported_type
    return json.dumps({"schema_version": 1,
                       "scenario": {"commuters": [commuter], "compatibility": [[True]]}})


def _trip(default_value=None, coefficient=1.0):
    valuation = {"owner": 0, "clauses": [{"role": "none", "terms": [{"coefficient": coefficient}]}]}
    if default_value is not None:
        valuation["default_value"] = default_value
    return {"p_commit": 0.5, "valuation": valuation}


@pytest.mark.parametrize("text", [
    _solo(_trip(default_value=-0.0)),
    _solo(_trip(), _trip(default_value=-0.0)),
    _solo(_trip(coefficient=0.0), _trip(coefficient=-0.0)),
    _solo(_trip(coefficient=-0.0), _trip(coefficient=0.0)),
], ids=["true-default", "reported-default", "reported-coefficient", "true-coefficient"])
def test_serialization_keeps_the_sign_of_a_zero(text):
    """-0.0 == 0.0, but a value of -0.0 prints as -0.0: the writer keeps a
    default value of -0.0 and a report that differs from the truth only in
    the sign of a zero, so parsing the written file gives the same repr."""
    s = parse_scenario_text(text)
    assert repr(parse_scenario_text(serialize_scenario(s))) == repr(s)


@pytest.mark.parametrize("value, error", [
    (object(), TypeError),
    ([1, {"a": {1, 2}}], TypeError),
    ({"a": b"bytes"}, TypeError),
    ({"a": 1, 2: 1}, TypeError),
    (10**5000, ValueError),
    ({"a": [-(10**5000)]}, ValueError),
], ids=["object", "set", "bytes", "mixed-keys", "long-int", "nested-long-int"])
def test_writer_raises_what_json_raises(value, error):
    """A type no scenario document holds and a mix of keys raise TypeError,
    and an int past the digit limit raises ValueError, each with json's
    message."""
    with pytest.raises(error) as expected:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(error) as caught:
        scenario_io._written(value, "\n")
    assert str(caught.value) == str(expected.value)


def _edge_scenario():
    """Metadata with a quote, a backslash, control characters, non-ASCII
    text and a lone surrogate, numbers at json's edges: -0.0, the smallest
    subnormal, 1e308, and NaN and infinite probabilities, and an empty
    list of clauses."""
    spec = ValuationSpec(0, (Clause(OutcomePattern(Role.NONE, AnyPartners()), (),
                                    (Monomial(5e-324, ((0, 1),)), Monomial(1e308, ())), False),),
                         -0.0)
    commuters = (Commuter(0, False, 0, TripType(spec, float("nan")), TripType(spec, float("inf"))),
                 Commuter(1, False, 0, TripType(ValuationSpec(1, (), 0.0), float("-inf"))))
    metadata = {"name": 'a"b\\c', "note": "\x00\x1f\x7f\n\t\u2028 é \U0001f600 \ud800"}
    return Scenario(commuters, full_compatibility(2), metadata)


# Few examples: the edge strings and numbers are in the bundled scenarios below.
@given(st.one_of(small_scenarios(), pivot_scenarios()))
@settings(max_examples=40, deadline=None)
def test_serialization_matches_the_reference_on_generated_scenarios(s):
    assert serialize_scenario(s) == reference_serialize_scenario(s)


def test_serialization_matches_the_reference_on_bundled_scenarios():
    """Every corpus entry, the bench-shaped scenarios, the files in
    `scenarios/`, parsed, and a scenario of edge strings and numbers."""
    scenarios = [e.scenario for e in corpus()] + [bench_scale_scenario(f) for f in FAMILIES]
    scenarios.append(_edge_scenario())
    files = sorted(SCENARIOS.glob("*.json"))
    assert len(files) == 4
    scenarios += [parse_scenario_text(path.read_text(encoding="utf-8")) for path in files]
    for s in scenarios:
        assert serialize_scenario(s) == reference_serialize_scenario(s), s.metadata
