"""Scenario files: strict JSON parsing and canonical serialization.

The parser rejects unknown fields, duplicate keys and wrong types, naming
the offending field. The serializer emits a canonical form (sorted keys,
two-space indent, defaults omitted), so serialize(parse(text)) is a fixed
point.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .model import Commuter, Role, Scenario, TripType
from .valuation import (
    AnyPartners,
    Clause,
    ExactPartners,
    GateDirection,
    Monomial,
    OutcomePattern,
    PartnerCountAtLeast,
    ThresholdGate,
    ValuationSpec,
)

SCHEMA_VERSION = 1


class ScenarioFormatError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _require_keys(obj: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioFormatError(f"{path}.{key}", "unknown field")
    for key in required:
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


def _parse_pattern(clause: dict, path: str) -> OutcomePattern:
    role_name = clause["role"]
    try:
        role = Role(role_name)
    except ValueError:
        raise ScenarioFormatError(f"{path}.role", f"unknown role {role_name!r}")
    partners = clause.get("partners", "any")
    ppath = f"{path}.partners"
    if partners == "any":
        return OutcomePattern(role, AnyPartners())
    partners = _as_obj(partners, ppath)
    _require_keys(partners, ppath, (), ("exact", "at_least"))
    if "exact" in partners and "at_least" in partners:
        raise ScenarioFormatError(ppath, "choose one of exact / at_least")
    if "exact" in partners:
        ids: set[int] = set()
        for k, v in enumerate(_as_list(partners["exact"], f"{ppath}.exact")):
            ident = _as_int(v, f"{ppath}.exact[{k}]")
            if ident in ids:
                raise ScenarioFormatError(f"{ppath}.exact[{k}]", f"repeated id {ident}")
            ids.add(ident)
        return OutcomePattern(role, ExactPartners(frozenset(ids)))
    if "at_least" in partners:
        return OutcomePattern(role, PartnerCountAtLeast(_as_int(partners["at_least"], f"{ppath}.at_least")))
    raise ScenarioFormatError(ppath, "expected \"any\", exact, or at_least")


def _parse_clause(value: Any, path: str) -> Clause:
    obj = _as_obj(value, path)
    _require_keys(obj, path, ("role",), ("partners", "gates", "terms", "excluded"))
    pattern = _parse_pattern(obj, path)
    gates = []
    for k, g in enumerate(_as_list(obj.get("gates", []), f"{path}.gates")):
        gpath = f"{path}.gates[{k}]"
        gobj = _as_obj(g, gpath)
        _require_keys(gobj, gpath, ("subject", "bound", "direction"))
        try:
            direction = GateDirection(gobj["direction"])
        except ValueError:
            raise ScenarioFormatError(f"{gpath}.direction", f"unknown direction {gobj['direction']!r}")
        gates.append(ThresholdGate(
            _as_int(gobj["subject"], f"{gpath}.subject"),
            _as_number(gobj["bound"], f"{gpath}.bound"),
            direction,
        ))
    terms = []
    for k, t in enumerate(_as_list(obj.get("terms", []), f"{path}.terms")):
        tpath = f"{path}.terms[{k}]"
        tobj = _as_obj(t, tpath)
        _require_keys(tobj, tpath, ("coefficient",), ("factors",))
        factors = []
        for fk, f in enumerate(_as_list(tobj.get("factors", []), f"{tpath}.factors")):
            fpath = f"{tpath}.factors[{fk}]"
            fobj = _as_obj(f, fpath)
            _require_keys(fobj, fpath, ("subject", "exponent"))
            factors.append((
                _as_int(fobj["subject"], f"{fpath}.subject"),
                _as_int(fobj["exponent"], f"{fpath}.exponent"),
            ))
        terms.append(Monomial(_as_number(tobj["coefficient"], f"{tpath}.coefficient"), tuple(factors)))
    excluded = _as_bool(obj.get("excluded", False), f"{path}.excluded")
    return Clause(pattern, tuple(gates), tuple(terms), excluded)


def _parse_valuation(value: Any, path: str) -> ValuationSpec:
    obj = _as_obj(value, path)
    _require_keys(obj, path, ("owner", "clauses"), ("default_value",))
    clauses = tuple(
        _parse_clause(c, f"{path}.clauses[{k}]")
        for k, c in enumerate(_as_list(obj["clauses"], f"{path}.clauses"))
    )
    return ValuationSpec(
        _as_int(obj["owner"], f"{path}.owner"),
        clauses,
        _as_number(obj.get("default_value", 0.0), f"{path}.default_value"),
    )


def _parse_trip(value: Any, path: str) -> TripType:
    obj = _as_obj(value, path)
    _require_keys(obj, path, ("p_commit", "valuation"))
    return TripType(
        _parse_valuation(obj["valuation"], f"{path}.valuation"),
        p_commit=_as_number(obj["p_commit"], f"{path}.p_commit"),
    )


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioFormatError("<document>", f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_scenario_text(text: str) -> Scenario:
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ScenarioFormatError:
        raise
    except RecursionError:
        raise ScenarioFormatError("<document>", "JSON nested too deeply to parse")
    except ValueError as e:  # invalid JSON, or an integer past the digit limit
        raise ScenarioFormatError("<document>", f"invalid JSON: {e}")
    top = _as_obj(data, "<document>")
    _require_keys(top, "<document>", ("schema_version", "scenario"))
    version = _as_int(top["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            "schema_version", f"unsupported version {version}, expected {SCHEMA_VERSION}"
        )
    sobj = _as_obj(top["scenario"], "scenario")
    _require_keys(sobj, "scenario", ("commuters", "compatibility"), ("metadata",))
    commuters = []
    for k, c in enumerate(_as_list(sobj["commuters"], "scenario.commuters")):
        path = f"scenario.commuters[{k}]"
        cobj = _as_obj(c, path)
        _require_keys(cobj, path, ("id", "has_vehicle", "seat_capacity", "true_type"),
                      ("reported_type",))
        reported = None
        if "reported_type" in cobj:
            reported = _parse_trip(cobj["reported_type"], f"{path}.reported_type")
        commuters.append(Commuter(
            id=_as_int(cobj["id"], f"{path}.id"),
            has_vehicle=_as_bool(cobj["has_vehicle"], f"{path}.has_vehicle"),
            seat_capacity=_as_int(cobj["seat_capacity"], f"{path}.seat_capacity"),
            true_type=_parse_trip(cobj["true_type"], f"{path}.true_type"),
            reported_type=reported,
        ))
    rows = []
    for i, row in enumerate(_as_list(sobj["compatibility"], "scenario.compatibility")):
        rows.append(tuple(
            _as_bool(v, f"scenario.compatibility[{i}][{j}]")
            for j, v in enumerate(_as_list(row, f"scenario.compatibility[{i}]"))
        ))
    metadata = {}
    if "metadata" in sobj:
        mobj = _as_obj(sobj["metadata"], "scenario.metadata")
        for key, value in mobj.items():
            if not isinstance(value, str):
                raise ScenarioFormatError(f"scenario.metadata.{key}", "metadata values must be strings")
            metadata[key] = value
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
