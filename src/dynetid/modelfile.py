"""Strict JSON ingestion and serialization of model files.

The on-disk format is versioned and closed: unknown keys anywhere in the
document are rejected, so a typo fails loudly instead of silently changing
the model. Structural problems (wrong types, out-of-range ids, duplicates)
raise ModelFileError; rule violations like self-loop modules are left to
the model validator, which reports them rather than raising here.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from dynetid.model import EntryStatus, ModelSet

SCHEMA_VERSION = 1

_STATUS_BY_NAME = {
    "param": EntryStatus.PARAMETERIZED,
    "known": EntryStatus.KNOWN,
}
_NAME_BY_STATUS = {v: k for k, v in _STATUS_BY_NAME.items()}


class ModelFileError(ValueError):
    """The document does not conform to the model file schema."""


def _require_object(obj: Any, where: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(obj, dict):
        raise ModelFileError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ModelFileError(f"{where} has unknown keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ModelFileError(f"{where} is missing keys: {', '.join(missing)}")


def _int_field(value: Any, where: str, lo: int, hi: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFileError(f"{where} must be an integer")
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ModelFileError(f"{where} must be {span}, got {value}")
    return value


def _status_field(value: Any, where: str) -> EntryStatus:
    if not isinstance(value, str) or value not in _STATUS_BY_NAME:
        raise ModelFileError(f'{where} must be "param" or "known"')
    return _STATUS_BY_NAME[value]


def model_from_json(doc: Any) -> ModelSet:
    _require_object(
        doc,
        "document",
        required=("schema", "L", "modules", "excited", "strictly_proper"),
        optional=("noise", "feedthrough_edges"),
    )
    if type(doc["schema"]) is not int or doc["schema"] != SCHEMA_VERSION:
        raise ModelFileError(f'"schema" must be {SCHEMA_VERSION}')
    L = _int_field(doc["L"], '"L"', 1)

    if not isinstance(doc["modules"], list):
        raise ModelFileError('"modules" must be a list')
    modules: dict[tuple[int, int], EntryStatus] = {}
    for k, entry in enumerate(doc["modules"]):
        where = f"modules[{k}]"
        _require_object(entry, where, required=("from", "to", "status"))
        tail = _int_field(entry["from"], f'{where}.\"from\"', 1, L)
        head = _int_field(entry["to"], f'{where}.\"to\"', 1, L)
        if (tail, head) in modules:
            raise ModelFileError(f"{where} duplicates module ({tail}, {head})")
        modules[(tail, head)] = _status_field(entry["status"], f'{where}.\"status\"')

    columns: list[dict[int, EntryStatus]] = []
    if "noise" in doc:
        noise = doc["noise"]
        _require_object(noise, '"noise"', required=("p", "columns"))
        p = _int_field(noise["p"], '"noise.p"', 0)
        if not isinstance(noise["columns"], list) or len(noise["columns"]) != p:
            raise ModelFileError('"noise.columns" must list exactly p columns')
        for c, column in enumerate(noise["columns"]):
            where = f"noise.columns[{c}]"
            if not isinstance(column, list):
                raise ModelFileError(f"{where} must be a list")
            parsed: dict[int, EntryStatus] = {}
            for k, entry in enumerate(column):
                cell = f"{where}[{k}]"
                _require_object(entry, cell, required=("row", "status"))
                row = _int_field(entry["row"], f'{cell}.\"row\"', 1, L)
                if row in parsed:
                    raise ModelFileError(f"{cell} duplicates row {row}")
                parsed[row] = _status_field(entry["status"], f'{cell}.\"status\"')
            columns.append(parsed)

    if not isinstance(doc["excited"], list):
        raise ModelFileError('"excited" must be a list')
    excited = []
    for k, v in enumerate(doc["excited"]):
        vertex = _int_field(v, f"excited[{k}]", 1, L)
        if vertex in excited:
            raise ModelFileError(f"excited[{k}] duplicates vertex {vertex}")
        excited.append(vertex)

    if not isinstance(doc["strictly_proper"], bool):
        raise ModelFileError('"strictly_proper" must be a boolean')

    feedthrough = None
    if "feedthrough_edges" in doc:
        raw = doc["feedthrough_edges"]
        if not isinstance(raw, list):
            raise ModelFileError('"feedthrough_edges" must be a list')
        feedthrough = set()
        for k, pair in enumerate(raw):
            where = f"feedthrough_edges[{k}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ModelFileError(f"{where} must be a [from, to] pair")
            tail = _int_field(pair[0], f"{where}[0]", 1, L)
            head = _int_field(pair[1], f"{where}[1]", 1, L)
            if (tail, head) in feedthrough:
                raise ModelFileError(f"{where} duplicates edge ({tail}, {head})")
            feedthrough.add((tail, head))

    return ModelSet(
        L=L,
        modules=modules,
        noise=tuple(columns),
        excited=frozenset(excited),
        strictly_proper_modules=doc["strictly_proper"],
        feedthrough_edges=None if feedthrough is None else frozenset(feedthrough),
    )


def parse_model(text: str) -> ModelSet:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ModelFileError(f"not valid JSON: {exc}") from exc
    return model_from_json(doc)


def model_to_json(m: ModelSet) -> dict:
    doc: dict[str, Any] = {"schema": SCHEMA_VERSION, "L": m.L}
    doc["modules"] = [
        {"from": t, "to": h, "status": _NAME_BY_STATUS[s]}
        for (t, h), s in sorted(m.modules.items())
    ]
    if m.p:
        doc["noise"] = {
            "p": m.p,
            "columns": [
                [{"row": j, "status": _NAME_BY_STATUS[s]} for j, s in sorted(column.items())]
                for column in m.noise
            ],
        }
    doc["excited"] = sorted(m.excited)
    doc["strictly_proper"] = m.strictly_proper_modules
    if m.feedthrough_edges is not None:
        doc["feedthrough_edges"] = [list(e) for e in sorted(m.feedthrough_edges)]
    return doc


def serialize_model(m: ModelSet) -> str:
    return json.dumps(model_to_json(m), indent=2) + "\n"


def input_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
