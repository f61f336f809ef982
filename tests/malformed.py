"""Seeded malformations of model-file documents, for parser tests.

`mutate(doc, rng, kind)` breaks one entry of the given kind and returns the
document (a new object only when the whole document is replaced). The kinds
follow the schema's layers: the document itself, the noise object, and the
entries of "modules", the noise columns, "excited" and "feedthrough_edges".
`kinds_of(doc)` lists the kinds a document has something to break in.

Every mutation is one of: a wrong type in an int or status slot, a value of
0 or L + 1, an extra or a missing key, an entry replaced by a non-object, a
duplicated entry, or a pair of the wrong length. A few leave the document
well-formed (L + 1 for "L", say); the tests compare parsers, so that is
fine. Standard library only, so tests/report_digest.py can use it too.
"""

from __future__ import annotations

import copy
import random
from typing import Any

KINDS = ("document", "noise", "module", "cell", "excited", "pair")

BAD_VALUES = (True, 1.0, "1", None, [], {})
NON_OBJECTS = ([1, 2], 1, "x", None, True)


def kinds_of(doc: dict) -> list[str]:
    kinds = ["document"]
    if "noise" in doc:
        kinds.append("noise")
        if any(doc["noise"]["columns"]):
            kinds.append("cell")
    for kind, key in (("module", "modules"), ("excited", "excited"), ("pair", "feedthrough_edges")):
        if doc.get(key):
            kinds.append(kind)
    return kinds


def _bad(rng: random.Random, slot: Any, L: int) -> Any:
    if slot == "status":
        return copy.deepcopy(rng.choice(BAD_VALUES + ("free", 1)))
    return copy.deepcopy(rng.choice(BAD_VALUES + (0, L + 1)))


def _break_object(rng: random.Random, obj: dict, slots: tuple, L: int) -> Any:
    """One malformation of a JSON object whose keys are exactly `slots`."""
    how = rng.choice(("slots", "slots", "extra", "missing", "nonobject"))
    if how == "nonobject":
        return copy.deepcopy(rng.choice(NON_OBJECTS))
    if how == "extra":
        obj[rng.choice(("weight", "From", "row", "to", "zz"))] = 1
    elif how == "missing":
        for key in rng.sample(slots, rng.randint(1, len(slots))):
            del obj[key]
    else:
        for key in rng.sample(slots, rng.randint(1, len(slots))):
            obj[key] = _bad(rng, key, L)
    return obj


def _break_list(rng: random.Random, items: list, fix) -> None:
    """Break one entry of `items` in place; `fix(item)` breaks that item."""
    k = rng.randrange(len(items))
    if rng.random() < 0.2:
        twin = copy.deepcopy(items[k])
        items.insert(rng.randint(0, len(items)), twin)
    else:
        items[k] = fix(items[k])


def mutate(doc: dict, rng: random.Random, kind: str) -> Any:
    L = doc["L"] if type(doc.get("L")) is int else 1
    if kind == "document":
        how = rng.choice(("slot", "slot", "extra", "missing", "nonobject", "list"))
        if how == "nonobject":
            return copy.deepcopy(rng.choice(NON_OBJECTS))
        if how == "extra":
            doc[rng.choice(("extra", "Noise", "p"))] = 1
        elif how == "missing":
            del doc[rng.choice(sorted(doc))]
        elif how == "list":
            key = rng.choice([k for k in ("modules", "excited", "feedthrough_edges") if k in doc])
            doc[key] = copy.deepcopy(rng.choice(({}, 1, "x", None)))
        else:
            slot = rng.choice(("schema", "L", "strictly_proper"))
            doc[slot] = rng.choice((2, 0, L + 1)) if rng.random() < 0.4 else _bad(rng, slot, L)
        return doc
    if kind == "noise":
        noise = doc["noise"]
        how = rng.choice(("p", "p", "extra", "missing", "nonobject", "column"))
        if how == "p":
            noise["p"] = rng.choice((-1, noise["p"] + 1, max(0, noise["p"] - 1))) \
                if rng.random() < 0.5 else _bad(rng, "p", L)
        elif how == "column" and noise["columns"]:
            c = rng.randrange(len(noise["columns"]))
            noise["columns"][c] = copy.deepcopy(rng.choice(({}, 1, "x", None)))
        else:
            doc["noise"] = _break_object(rng, noise, ("p", "columns"), L)
        return doc
    if kind == "module":
        _break_list(rng, doc["modules"], lambda e: _break_object(rng, e, ("from", "to", "status"), L))
    elif kind == "cell":
        column = rng.choice([c for c in doc["noise"]["columns"] if c])
        _break_list(rng, column, lambda e: _break_object(rng, e, ("row", "status"), L))
    elif kind == "excited":
        _break_list(rng, doc["excited"], lambda v: _bad(rng, 0, L))
    elif kind == "pair":
        _break_list(rng, doc["feedthrough_edges"], lambda pair: _break_pair(rng, pair, L))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return doc


def _break_pair(rng: random.Random, pair: list, L: int) -> Any:
    how = rng.choice(("slots", "slots", "length", "nonobject"))
    if how == "length":
        return rng.choice((pair[:1], pair + pair[1:], []))
    if how == "nonobject":
        return copy.deepcopy(rng.choice(({"from": pair[0]}, 5, "x", None)))
    for i in rng.sample((0, 1), rng.randint(1, 2)):
        pair[i] = _bad(rng, i, L)
    return pair
