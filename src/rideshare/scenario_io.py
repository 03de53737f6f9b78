"""Scenario files: strict JSON parsing and canonical serialization.

The parser rejects unknown fields, duplicate keys and wrong types, naming
the offending field. The serializer emits a canonical form (sorted keys,
two-space indent, defaults omitted, -0.0 kept), so serialize(parse(text))
is a fixed point and parse(serialize(s)) gives back s. It writes the
text that `json.dumps(..., indent=2, sort_keys=True)` writes with its own
recursive writer of the documents `scenario_to_jsonable` builds: str-keyed
objects, lists, strings, numbers and booleans, one join per list or object.

Parsing is one pass over the decoded document. Each field is read through
one checker for its JSON type (`_obj`, `_list`, `_int`, `_number`,
`_bool`, or `_choice` for a role or gate direction), which tests the exact
type in place, returns the value and raises the error when the test fails.
So the checks run in one fixed order, field by field as the file is read,
and the first error found is the one reported. Field paths are formatted
only when an error is raised: each parse function names fields relative
to the object it reads, and its caller prefixes its own step, such as the
`[k]` that `_items` adds for a list item, as the error passes up.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, NamedTuple

from .model import Commuter, Role, Scenario, TripType
from .valuation import (
    AnyPartners,
    Clause,
    ExactPartners,
    GateDirection,
    Monomial,
    OutcomePattern,
    PartnerConstraint,
    PartnerCountAtLeast,
    ThresholdGate,
    ValuationSpec,
)

SCHEMA_VERSION = 1

_ROLES = {role.value: role for role in Role}
_DIRECTIONS = {direction.value: direction for direction in GateDirection}
_ANY_PARTNERS = AnyPartners()


class _Keys(NamedTuple):
    """The keys of one kind of object: the required ones, in the order a
    missing one is reported and as a set, and every key it may hold."""

    order: tuple[str, ...]
    required: frozenset[str]
    allowed: frozenset[str]


def _keys(required: tuple[str, ...], optional: tuple[str, ...] = ()) -> _Keys:
    return _Keys(required, frozenset(required), frozenset(required + optional))


_TOP = _keys(("schema_version", "scenario"))
_SCENARIO = _keys(("commuters", "compatibility"), ("metadata",))
_COMMUTER = _keys(("id", "has_vehicle", "seat_capacity", "true_type"), ("reported_type",))
_TRIP = _keys(("p_commit", "valuation"))
_VALUATION = _keys(("owner", "clauses"), ("default_value",))
_CLAUSE = _keys(("role",), ("partners", "gates", "terms", "excluded"))
_PARTNERS = _keys((), ("exact", "at_least"))
_GATE = _keys(("subject", "bound", "direction"))
_TERM = _keys(("coefficient",), ("factors",))
_FACTOR = _keys(("subject", "exponent"))


class ScenarioFormatError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        self.reason = message
        super().__init__(f"{field}: {message}")

    def within(self, path: str) -> ScenarioFormatError:
        """This error with `path` prefixed to its field."""
        return ScenarioFormatError(path + self.field, self.reason)


def _obj(value: Any, path: str, keys: _Keys | None) -> dict:
    """`value` as an object holding `keys`, or any keys if None."""
    if type(value) is not dict:
        raise ScenarioFormatError(path, f"expected an object, got {type(value).__name__}")
    if keys is not None and not keys.required <= value.keys() <= keys.allowed:
        for key in value:
            if key not in keys.allowed:
                raise ScenarioFormatError(f"{path}.{key}", "unknown field")
        missing = next(key for key in keys.order if key not in value)
        raise ScenarioFormatError(f"{path}.{missing}", "missing field")
    return value


def _list(value: Any, path: str) -> list:
    if type(value) is not list:
        raise ScenarioFormatError(path, f"expected a list, got {type(value).__name__}")
    return value


def _int(value: Any, path: str = "") -> int:
    if type(value) is not int:
        raise ScenarioFormatError(path, f"expected an integer, got {value!r}")
    return value


def _number(value: Any, path: str) -> float:
    """`value` as a finite float; an integer is converted."""
    if type(value) is not float and type(value) is not int:
        raise ScenarioFormatError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(path, f"expected a finite number, got {value!r}")
    return number


def _bool(value: Any, path: str = "") -> bool:
    if type(value) is not bool:
        raise ScenarioFormatError(path, f"expected a boolean, got {value!r}")
    return value


def _choice(value: Any, path: str, choices: dict, what: str) -> Any:
    """The member of `choices` that the string `value` names."""
    member = choices.get(value) if type(value) is str else None
    if member is None:
        raise ScenarioFormatError(path, f"unknown {what} {value!r}")
    return member


def _items(values: Any, path: str, parse: Callable[[Any], Any]) -> tuple:
    """`parse` of each item of the list `values`; an item's error is
    prefixed with `path[k]`."""
    values = _list(values, path)
    out = []
    try:
        for value in values:
            out.append(parse(value))
    except ScenarioFormatError as e:
        raise e.within(f"{path}[{len(out)}]") from None
    return tuple(out)


def _parse_partners(value: Any) -> PartnerConstraint:
    obj = _obj(value, ".partners", _PARTNERS)
    if "exact" in obj:
        if "at_least" in obj:
            raise ScenarioFormatError(".partners", "choose one of exact / at_least")
        seen: set[int] = set()

        def unseen(item: Any) -> int:
            ident = _int(item)
            if ident in seen:
                raise ScenarioFormatError("", f"repeated id {ident}")
            seen.add(ident)
            return ident

        return ExactPartners(frozenset(_items(obj["exact"], ".partners.exact", unseen)))
    if "at_least" in obj:
        return PartnerCountAtLeast(_int(obj["at_least"], ".partners.at_least"))
    raise ScenarioFormatError(".partners", "expected \"any\", exact, or at_least")


def _parse_gate(value: Any) -> ThresholdGate:
    obj = _obj(value, "", _GATE)
    direction = _choice(obj["direction"], ".direction", _DIRECTIONS, "direction")
    return ThresholdGate(_int(obj["subject"], ".subject"), _number(obj["bound"], ".bound"), direction)


def _parse_factor(value: Any) -> tuple[int, int]:
    obj = _obj(value, "", _FACTOR)
    return _int(obj["subject"], ".subject"), _int(obj["exponent"], ".exponent")


def _parse_term(value: Any) -> Monomial:
    obj = _obj(value, "", _TERM)
    factors = _items(obj["factors"], ".factors", _parse_factor) if "factors" in obj else ()
    return Monomial(_number(obj["coefficient"], ".coefficient"), factors)


def _parse_clause(value: Any) -> Clause:
    obj = _obj(value, "", _CLAUSE)
    role = _choice(obj["role"], ".role", _ROLES, "role")
    partners = obj.get("partners", "any")
    pattern = OutcomePattern(role, _ANY_PARTNERS if partners == "any" else _parse_partners(partners))
    gates = _items(obj["gates"], ".gates", _parse_gate) if "gates" in obj else ()
    terms = _items(obj["terms"], ".terms", _parse_term) if "terms" in obj else ()
    return Clause(pattern, gates, terms, _bool(obj.get("excluded", False), ".excluded"))


def _parse_trip(commuter: dict, key: str) -> TripType:
    """The true or reported type `commuter[key]`."""
    try:
        obj = _obj(commuter[key], "", _TRIP)
        valuation = _obj(obj["valuation"], ".valuation", _VALUATION)
        clauses = _items(valuation["clauses"], ".valuation.clauses", _parse_clause)
        spec = ValuationSpec(_int(valuation["owner"], ".valuation.owner"), clauses,
                             _number(valuation.get("default_value", 0.0), ".valuation.default_value"))
        return TripType(spec, p_commit=_number(obj["p_commit"], ".p_commit"))
    except ScenarioFormatError as e:
        raise e.within(f".{key}") from None


def _parse_commuter(value: Any) -> Commuter:
    obj = _obj(value, "", _COMMUTER)
    reported = _parse_trip(obj, "reported_type") if "reported_type" in obj else None
    ident = _int(obj["id"], ".id")
    has_vehicle = _bool(obj["has_vehicle"], ".has_vehicle")
    seats = _int(obj["seat_capacity"], ".seat_capacity")
    return Commuter(ident, has_vehicle, seats, _parse_trip(obj, "true_type"), reported)


def _parse_row(value: Any) -> tuple[bool, ...]:
    return _items(value, "", _bool)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ScenarioFormatError("<document>", f"duplicate key {key!r}")
            seen.add(key)
    return obj


def parse_scenario_text(text: str) -> Scenario:
    try:
        top = json.loads(text, object_pairs_hook=_unique_keys)
    except ScenarioFormatError:
        raise
    except RecursionError:
        raise ScenarioFormatError("<document>", "JSON nested too deeply to parse")
    except ValueError as e:  # invalid JSON, or an integer past the digit limit
        raise ScenarioFormatError("<document>", f"invalid JSON: {e}")
    top = _obj(top, "<document>", _TOP)
    version = _int(top["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            "schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}"
        )
    sobj = _obj(top["scenario"], "scenario", _SCENARIO)
    commuters = _items(sobj["commuters"], "scenario.commuters", _parse_commuter)
    rows = _items(sobj["compatibility"], "scenario.compatibility", _parse_row)
    metadata = {}
    if "metadata" in sobj:
        metadata = _obj(sobj["metadata"], "scenario.metadata", None)
        for key, value in metadata.items():
            if type(value) is not str:
                raise ScenarioFormatError(f"scenario.metadata.{key}", "metadata values must be strings")
    return Scenario(commuters, rows, metadata)


def _pattern_jsonable(pattern: OutcomePattern) -> dict:
    out: dict[str, Any] = {"role": pattern.own_role.value}
    c = pattern.partner_constraint
    if isinstance(c, ExactPartners):
        out["partners"] = {"exact": sorted(c.partners)}
    elif isinstance(c, PartnerCountAtLeast):
        out["partners"] = {"at_least": c.count}
    return out


def _clause_jsonable(clause: Clause) -> dict:
    out = _pattern_jsonable(clause.pattern)
    if clause.gates:
        out["gates"] = [
            {"subject": g.subject, "bound": g.bound, "direction": g.direction.value}
            for g in clause.gates
        ]
    if clause.terms:
        out["terms"] = [
            {"coefficient": t.coefficient}
            | ({"factors": [{"subject": s, "exponent": e} for s, e in t.factors]} if t.factors else {})
            for t in clause.terms
        ]
    if clause.excluded:
        out["excluded"] = True
    return out


def _trip_jsonable(trip: TripType) -> dict:
    spec = trip.valuation
    valuation: dict[str, Any] = {
        "owner": spec.owner,
        "clauses": [_clause_jsonable(c) for c in spec.clauses],
    }
    if spec.default_value != 0.0 or math.copysign(1.0, spec.default_value) < 0:  # keeps -0.0
        valuation["default_value"] = spec.default_value
    return {"p_commit": trip.p_commit, "valuation": valuation}


def scenario_to_jsonable(s: Scenario) -> dict:
    commuters = []
    for c in s.commuters:
        obj = {
            "id": c.id,
            "has_vehicle": c.has_vehicle,
            "seat_capacity": c.seat_capacity,
            "true_type": _trip_jsonable(c.true_type),
        }
        # A report equal to the truth is omitted, unless it differs only in
        # the sign of a zero, which == does not see.
        reported = c.reported_type
        if reported is not c.true_type and (
                reported != c.true_type or repr(reported) != repr(c.true_type)):
            obj["reported_type"] = _trip_jsonable(reported)
        commuters.append(obj)
    scenario: dict[str, Any] = {
        "commuters": commuters,
        "compatibility": [list(row) for row in s.compatibility],
    }
    if s.metadata:
        scenario["metadata"] = dict(sorted(s.metadata.items()))
    return {"schema_version": SCHEMA_VERSION, "scenario": scenario}


def _written(value: Any, newline: str) -> str:
    """`value`, a document `scenario_to_jsonable` builds, as
    `json.dumps(value, indent=2, sort_keys=True)` writes it, with `newline`
    the line break and indent `value` starts at. Only str-keyed dicts,
    lists, str, int, float and bool are written; any other type raises
    TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_written(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _written(v, inner)
             for k, v in sorted(value.items())]) + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def serialize_scenario(s: Scenario) -> str:
    """The canonical text of `s`: byte for byte what
    `json.dumps(scenario_to_jsonable(s), indent=2, sort_keys=True)` writes,
    and a final newline. Its writer knows only the types that document
    holds. It does not call json.dumps, because json encodes in C only
    without an indent; with one, its pure-Python encoder passes every
    token up through a generator per enclosing list and object, where this
    writer joins each list and object once."""
    return _written(scenario_to_jsonable(s), "\n") + "\n"


def trip_to_json(trip: TripType) -> str:
    """Single-line JSON for a report; used to print replayable witnesses."""
    return json.dumps(_trip_jsonable(trip), sort_keys=True)
