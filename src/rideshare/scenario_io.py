"""Scenario files: strict JSON parsing and canonical serialization.

The parser rejects unknown fields, duplicate keys and wrong types, naming
the offending field. The serializer emits a canonical form (sorted keys,
two-space indent, defaults omitted), so serialize(parse(text)) is a fixed
point.

Parsing is one pass over the decoded document. Each field is checked in
place by its exact JSON type (`type(v) is int`, a key-set comparison, a
role looked up by value), and the `_as_*` and `_require_keys` helpers run
only when that check fails, to raise the error. So the checks run in one
fixed order, field by field as the file is read, and the first error found
is the one reported; the `_as_number` helper also turns an integer into a
float. Field paths are formatted only when an error is raised: each parse
function names fields relative to the object it reads, and its caller
prefixes its own step as the error passes up.
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple

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
    missing one is reported and as a set, and every key it may hold. An
    object whose keys are all required is checked by equality with
    `allowed`."""

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


def _require_keys(obj: dict, path: str, keys: _Keys):
    for key in obj:
        if key not in keys.allowed:
            raise ScenarioFormatError(f"{path}.{key}", "unknown field")
    for key in keys.order:
        if key not in obj:
            raise ScenarioFormatError(f"{path}.{key}", "missing field")


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(path, f"expected an object, got {type(value).__name__}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioFormatError(path, f"expected a finite number, got {value!r}")
    return number


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioFormatError(path, f"expected a boolean, got {value!r}")
    return value


def _as_ids(value: Any, path: str) -> frozenset[int]:
    ids: set[int] = set()
    for k, v in enumerate(_as_list(value, path)):
        ident = _as_int(v, f"{path}[{k}]")
        if ident in ids:
            raise ScenarioFormatError(f"{path}[{k}]", f"repeated id {ident}")
        ids.add(ident)
    return frozenset(ids)


def _parse_partners(partners: Any) -> PartnerConstraint:
    if type(partners) is not dict:
        partners = _as_obj(partners, ".partners")
    if not partners.keys() <= _PARTNERS.allowed:
        _require_keys(partners, ".partners", _PARTNERS)
    if "exact" in partners:
        if "at_least" in partners:
            raise ScenarioFormatError(".partners", "choose one of exact / at_least")
        exact = partners["exact"]
        ids = None
        if type(exact) is list and all(type(v) is int for v in exact):
            ids = frozenset(exact)
        if ids is None or len(ids) != len(exact):
            ids = _as_ids(exact, ".partners.exact")
        return ExactPartners(ids)
    if "at_least" in partners:
        count = partners["at_least"]
        if type(count) is not int:
            count = _as_int(count, ".partners.at_least")
        return PartnerCountAtLeast(count)
    raise ScenarioFormatError(".partners", "expected \"any\", exact, or at_least")


def _parse_clause(obj: Any) -> Clause:
    if type(obj) is not dict:
        obj = _as_obj(obj, "")
    if not _CLAUSE.required <= obj.keys() <= _CLAUSE.allowed:
        _require_keys(obj, "", _CLAUSE)
    name = obj["role"]
    role = _ROLES.get(name) if type(name) is str else None
    if role is None:
        raise ScenarioFormatError(".role", f"unknown role {name!r}")
    partners = obj.get("partners", "any")
    pattern = OutcomePattern(role, _ANY_PARTNERS if partners == "any" else _parse_partners(partners))
    gates = []
    if "gates" in obj:
        items = obj["gates"]
        if type(items) is not list:
            items = _as_list(items, ".gates")
        for k, g in enumerate(items):
            if type(g) is not dict or g.keys() != _GATE.allowed:
                _require_keys(_as_obj(g, f".gates[{k}]"), f".gates[{k}]", _GATE)
            name = g["direction"]
            direction = _DIRECTIONS.get(name) if type(name) is str else None
            if direction is None:
                raise ScenarioFormatError(f".gates[{k}].direction", f"unknown direction {name!r}")
            subject = g["subject"]
            if type(subject) is not int:
                subject = _as_int(subject, f".gates[{k}].subject")
            bound = g["bound"]
            if type(bound) is not float or not math.isfinite(bound):
                bound = _as_number(bound, f".gates[{k}].bound")
            gates.append(ThresholdGate(subject, bound, direction))
    terms = []
    if "terms" in obj:
        items = obj["terms"]
        if type(items) is not list:
            items = _as_list(items, ".terms")
        for k, t in enumerate(items):
            if type(t) is not dict:
                t = _as_obj(t, f".terms[{k}]")
            if not _TERM.required <= t.keys() <= _TERM.allowed:
                _require_keys(t, f".terms[{k}]", _TERM)
            factors = []
            if "factors" in t:
                listed = t["factors"]
                if type(listed) is not list:
                    listed = _as_list(listed, f".terms[{k}].factors")
                for fk, f in enumerate(listed):
                    if type(f) is not dict or f.keys() != _FACTOR.allowed:
                        fpath = f".terms[{k}].factors[{fk}]"
                        _require_keys(_as_obj(f, fpath), fpath, _FACTOR)
                    subject = f["subject"]
                    if type(subject) is not int:
                        subject = _as_int(subject, f".terms[{k}].factors[{fk}].subject")
                    exponent = f["exponent"]
                    if type(exponent) is not int:
                        exponent = _as_int(exponent, f".terms[{k}].factors[{fk}].exponent")
                    factors.append((subject, exponent))
            coefficient = t["coefficient"]
            if type(coefficient) is not float or not math.isfinite(coefficient):
                coefficient = _as_number(coefficient, f".terms[{k}].coefficient")
            terms.append(Monomial(coefficient, tuple(factors)))
    excluded = obj.get("excluded", False)
    if type(excluded) is not bool:
        excluded = _as_bool(excluded, ".excluded")
    return Clause(pattern, tuple(gates), tuple(terms), excluded)


def _parse_trip(obj: Any) -> TripType:
    if type(obj) is not dict:
        obj = _as_obj(obj, "")
    if obj.keys() != _TRIP.allowed:
        _require_keys(obj, "", _TRIP)
    valuation = obj["valuation"]
    if type(valuation) is not dict:
        valuation = _as_obj(valuation, ".valuation")
    if not _VALUATION.required <= valuation.keys() <= _VALUATION.allowed:
        _require_keys(valuation, ".valuation", _VALUATION)
    items = valuation["clauses"]
    if type(items) is not list:
        items = _as_list(items, ".valuation.clauses")
    clauses = []
    for k, c in enumerate(items):
        try:
            clauses.append(_parse_clause(c))
        except ScenarioFormatError as e:
            raise e.within(f".valuation.clauses[{k}]") from None
    owner = valuation["owner"]
    if type(owner) is not int:
        owner = _as_int(owner, ".valuation.owner")
    default = valuation.get("default_value", 0.0)
    if type(default) is not float or not math.isfinite(default):
        default = _as_number(default, ".valuation.default_value")
    p = obj["p_commit"]
    if type(p) is not float or not math.isfinite(p):
        p = _as_number(p, ".p_commit")
    return TripType(ValuationSpec(owner, tuple(clauses), default), p_commit=p)


def _parse_commuter(obj: Any) -> Commuter:
    if type(obj) is not dict:
        obj = _as_obj(obj, "")
    if not _COMMUTER.required <= obj.keys() <= _COMMUTER.allowed:
        _require_keys(obj, "", _COMMUTER)
    reported = None
    if "reported_type" in obj:
        try:
            reported = _parse_trip(obj["reported_type"])
        except ScenarioFormatError as e:
            raise e.within(".reported_type") from None
    ident = obj["id"]
    if type(ident) is not int:
        ident = _as_int(ident, ".id")
    has_vehicle = obj["has_vehicle"]
    if type(has_vehicle) is not bool:
        has_vehicle = _as_bool(has_vehicle, ".has_vehicle")
    seats = obj["seat_capacity"]
    if type(seats) is not int:
        seats = _as_int(seats, ".seat_capacity")
    try:
        true_type = _parse_trip(obj["true_type"])
    except ScenarioFormatError as e:
        raise e.within(".true_type") from None
    return Commuter(ident, has_vehicle, seats, true_type, reported)


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
    if type(top) is not dict:
        top = _as_obj(top, "<document>")
    if top.keys() != _TOP.allowed:
        _require_keys(top, "<document>", _TOP)
    version = top["schema_version"]
    if type(version) is not int:
        version = _as_int(version, "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            "schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}"
        )
    sobj = top["scenario"]
    if type(sobj) is not dict:
        sobj = _as_obj(sobj, "scenario")
    if not _SCENARIO.required <= sobj.keys() <= _SCENARIO.allowed:
        _require_keys(sobj, "scenario", _SCENARIO)
    items = sobj["commuters"]
    if type(items) is not list:
        items = _as_list(items, "scenario.commuters")
    commuters = []
    for k, c in enumerate(items):
        try:
            commuters.append(_parse_commuter(c))
        except ScenarioFormatError as e:
            raise e.within(f"scenario.commuters[{k}]") from None
    items = sobj["compatibility"]
    if type(items) is not list:
        items = _as_list(items, "scenario.compatibility")
    rows = []
    for i, row in enumerate(items):
        if type(row) is not list or not all(type(v) is bool for v in row):
            row = [_as_bool(v, f"scenario.compatibility[{i}][{j}]")
                   for j, v in enumerate(_as_list(row, f"scenario.compatibility[{i}]"))]
        rows.append(tuple(row))
    metadata = {}
    if "metadata" in sobj:
        metadata = sobj["metadata"]
        if type(metadata) is not dict:
            metadata = _as_obj(metadata, "scenario.metadata")
        for key, value in metadata.items():
            if type(value) is not str:
                raise ScenarioFormatError(f"scenario.metadata.{key}", "metadata values must be strings")
    return Scenario(tuple(commuters), tuple(rows), metadata)


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
    if spec.default_value != 0.0:
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
        if c.reported_type != c.true_type:
            obj["reported_type"] = _trip_jsonable(c.reported_type)
        commuters.append(obj)
    scenario: dict[str, Any] = {
        "commuters": commuters,
        "compatibility": [list(row) for row in s.compatibility],
    }
    if s.metadata:
        scenario["metadata"] = dict(sorted(s.metadata.items()))
    return {"schema_version": SCHEMA_VERSION, "scenario": scenario}


def serialize_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_jsonable(s), indent=2, sort_keys=True) + "\n"


def trip_to_json(trip: TripType) -> str:
    """Single-line JSON for a report; used to print replayable witnesses."""
    return json.dumps(_trip_jsonable(trip), sort_keys=True)
