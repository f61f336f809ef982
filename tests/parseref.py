"""Reference model-file parser for differential tests.

This is the parser the library used before it gave each check a fast
`type(x) is T` test: it formats every entry's `where` string and runs the
field helpers on every entry, accepted or not, and it checks excited
duplicates by scanning a list. The messages, the order in which the checks
fire, and the subclasses the helpers accept are the contract, so the tests
require the library to give an equal ModelSet or the same error as this
parser on every document, subclass values included.
"""

from __future__ import annotations

from typing import Any

from dynetid.model import EntryStatus, ModelSet
from dynetid.modelfile import SCHEMA_VERSION, ModelFileError, _STATUS_BY_NAME


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
