"""JSON snapshots of a functional database.

A snapshot captures everything needed to resume: the schema (object
types including products, functionalities, base/derived split), the
derivations of derived functions, every stored fact quadruple, the NC
registry, and the null / NC index counters (so fresh indices stay
unique across a save/load cycle).

Supported data values are JSON atoms (str, int, float, bool, None),
tuples of values (objects of product types), and
:class:`repro.fdb.values.NullValue`. Values are encoded with explicit
tags so e.g. the string ``"n1"`` never collides with the null ``n1``
and tuples survive the round trip (JSON would otherwise turn them into
lists).

:func:`carry` re-reads a snapshot under a new design: what a re-design
keeps of the instance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import PersistenceError
from repro.core.derivation import Derivation, Op, Step
from repro.core.schema import FunctionDef
from repro.core.types import ObjectType, TypeFunctionality
from repro.faults.registry import FAULTS
from repro.fdb import storage
from repro.fdb.database import FunctionalDatabase
from repro.fdb.facts import NO_NCS, Fact, FactRef
from repro.fdb.logic import Truth
from repro.fdb.nc import NCRegistry, NegatedConjunction
from repro.fdb.values import NullFactory, NullValue, Value

if TYPE_CHECKING:
    from repro.core.design_aid import DesignOutcome

__all__ = ["to_dict", "from_dict", "dumps", "loads", "save", "load",
           "load_with_meta", "carry"]

_FORMAT = "repro-fdb-snapshot"
_VERSION = 1

FAULTS.register(
    "persistence.save.before",
    "persistence.save: before the atomic snapshot write",
)


# -- value encoding -------------------------------------------------------------


def _encode_value(value: Value) -> Any:
    if isinstance(value, NullValue):
        return {"null": value.index}
    if isinstance(value, tuple):
        return {"tuple": [_encode_value(item) for item in value]}
    if isinstance(value, bool) or value is None:
        return {"atom": value}
    if isinstance(value, (str, int, float)):
        return {"atom": value}
    raise PersistenceError(
        f"value of type {type(value).__name__} cannot be persisted"
    )


def _decode_value(data: Any) -> Value:
    if not isinstance(data, dict) or len(data) != 1:
        raise PersistenceError(f"malformed value encoding: {data!r}")
    if "null" in data:
        return NullValue(data["null"])
    if "tuple" in data:
        return tuple(_decode_value(item) for item in data["tuple"])
    if "atom" in data:
        return data["atom"]
    raise PersistenceError(f"malformed value encoding: {data!r}")


# -- schema encoding ------------------------------------------------------------------


def _encode_type(object_type: ObjectType) -> Any:
    return {
        "name": object_type.name,
        "components": list(object_type.components),
    }


def _decode_type(data: Any) -> ObjectType:
    return ObjectType(data["name"], tuple(data["components"]))


def _encode_function(definition: FunctionDef) -> Any:
    return {
        "name": definition.name,
        "domain": _encode_type(definition.domain),
        "range": _encode_type(definition.range),
        "functionality": str(definition.functionality),
    }


def _decode_function(data: Any) -> FunctionDef:
    return FunctionDef(
        data["name"],
        _decode_type(data["domain"]),
        _decode_type(data["range"]),
        TypeFunctionality.parse(data["functionality"]),
    )


# -- snapshotting ------------------------------------------------------------------------


def to_dict(db: FunctionalDatabase, *,
            wal_applied: int | None = None,
            term: int | None = None) -> dict:
    """Snapshot a database into a JSON-serializable dict.

    ``wal_applied`` stamps the snapshot with the highest write-ahead
    log sequence number it folds in; :func:`repro.fdb.wal.recover`
    uses it to skip log records the snapshot already contains (the
    crash-between-snapshot-and-truncate case). ``term`` stamps the
    replication epoch the snapshot was taken under, so a replica
    bootstrapped from it knows which primary generation it extends.
    """
    base = []
    for name in db.base_names:
        table = db.table(name)
        base.append({
            "definition": _encode_function(db.schema[name]),
            "facts": [
                {
                    "x": _encode_value(fact.x),
                    "y": _encode_value(fact.y),
                    "flag": fact.flag,
                    "ncl": sorted(fact.ncl),
                }
                for fact in table.facts()
            ],
        })
    derived = []
    for function in db.derived_functions():
        derived.append({
            "definition": _encode_function(function.definition),
            "derivations": [
                [
                    {"function": step.function.name, "op": step.op.value}
                    for step in derivation
                ]
                for derivation in function.derivations
            ],
        })
    ncs = [
        {
            "index": nc.index,
            "members": [
                {
                    "function": ref.function,
                    "x": _encode_value(ref.x),
                    "y": _encode_value(ref.y),
                }
                for ref in nc.members
            ],
        }
        for nc in db.ncs
    ]
    data = {
        "format": _FORMAT,
        "version": _VERSION,
        "insert_mode": db.insert_mode,
        "base": base,
        "derived": derived,
        "ncs": ncs,
        "next_null_index": db.nulls.next_index,
        "next_nc_index": db.ncs.next_index,
    }
    if wal_applied is not None:
        data["wal_applied"] = wal_applied
    if term is not None:
        data["term"] = term
    return data


def from_dict(data: dict) -> FunctionalDatabase:
    """Rebuild a database from :func:`to_dict` output."""
    if data.get("format") != _FORMAT:
        raise PersistenceError("not a functional database snapshot")
    if data.get("version") != _VERSION:
        raise PersistenceError(
            f"unsupported snapshot version {data.get('version')!r}"
        )
    db = FunctionalDatabase(insert_mode=data["insert_mode"])
    for entry in data["base"]:
        definition = _decode_function(entry["definition"])
        table = db.declare_base(definition)
        for fact_data in entry["facts"]:
            table.add(Fact(
                _decode_value(fact_data["x"]),
                _decode_value(fact_data["y"]),
                Truth.from_flag(fact_data["flag"]),
                frozenset(fact_data["ncl"]) or NO_NCS,
            ))
    for entry in data["derived"]:
        definition = _decode_function(entry["definition"])
        derivations = tuple(
            Derivation(
                Step(db.schema[step["function"]], Op(step["op"]))
                for step in steps
            )
            for steps in entry["derivations"]
        )
        db.declare_derived(definition, derivations)
    registry = NCRegistry(db._tables.__getitem__, data["next_nc_index"],
                          db._undo)
    for entry in data["ncs"]:
        members = tuple(
            FactRef(
                m["function"], _decode_value(m["x"]), _decode_value(m["y"])
            )
            for m in entry["members"]
        )
        registry._ncs[entry["index"]] = NegatedConjunction(
            entry["index"], members
        )
    db.ncs = registry
    db.nulls = NullFactory(data["next_null_index"], db._undo)
    _check_consistency(db)
    return db


def carry(db: FunctionalDatabase,
          outcome: DesignOutcome) -> FunctionalDatabase:
    """``db`` re-read under a new design: the database ``outcome``
    describes, holding the stored facts of every function that stays
    base (flags and NCLs too), every NC whose members all stay stored,
    and both index counters, so no null or NC index is issued twice.
    An NC that loses a member goes as ``dismantle-NC`` takes it: the
    members that stay keep their ambiguity but not its index. A
    function re-classified from base to derived keeps no table."""
    data = to_dict(FunctionalDatabase.from_design(
        outcome, insert_mode=db.insert_mode))
    old = to_dict(db)
    stays = {entry["definition"]["name"] for entry in data["base"]}
    ncs = [nc for nc in old["ncs"]
           if all(m["function"] in stays for m in nc["members"])]
    live = {nc["index"] for nc in ncs}
    facts = {entry["definition"]["name"]: entry["facts"]
             for entry in old["base"]}
    for entry in data["base"]:
        entry["facts"] = [
            dict(fact, ncl=[i for i in fact["ncl"] if i in live])
            for fact in facts.get(entry["definition"]["name"], ())]
    data.update(ncs=ncs, next_null_index=old["next_null_index"],
                next_nc_index=old["next_nc_index"])
    return from_dict(data)


def _check_consistency(db: FunctionalDatabase) -> None:
    """Verify the NC/NCL dual structure of a loaded snapshot."""
    fault = db.structure_fault()
    if fault is not None:
        raise PersistenceError(f"snapshot is inconsistent: {fault}")


def dumps(db: FunctionalDatabase, *,
          wal_applied: int | None = None,
          term: int | None = None) -> str:
    """The snapshot as compact JSON, one line: no indent, so ``json``
    uses its C encoder. Indented snapshots written before load the
    same way."""
    return json.dumps(to_dict(db, wal_applied=wal_applied, term=term),
                      separators=(",", ":"))


def loads(text: str) -> FunctionalDatabase:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid snapshot JSON: {exc}") from exc
    return from_dict(data)


def save(db: FunctionalDatabase, path: str | Path, *,
         wal_applied: int | None = None,
         term: int | None = None) -> None:
    """Write a snapshot atomically: a crash mid-save leaves the
    previous snapshot intact, never a torn file."""
    FAULTS.fire("persistence.save.before")
    storage.atomic_write(path, dumps(db, wal_applied=wal_applied,
                                     term=term))


def load(path: str | Path) -> FunctionalDatabase:
    return load_with_meta(path)[0]


def load_with_meta(path: str | Path) -> tuple[FunctionalDatabase, dict]:
    """Load a snapshot plus its durability metadata (``wal_applied``),
    which :func:`from_dict` ignores but recovery needs."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(f"cannot read snapshot: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"invalid snapshot JSON: {exc}") from exc
    meta = {"wal_applied": data.get("wal_applied"),
            "term": data.get("term", 0)} \
        if isinstance(data, dict) else {}
    return from_dict(data), meta
