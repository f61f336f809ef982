"""Strict JSON model-file parsing and lossless serialization."""

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynetid.model import EntryStatus, ModelSet
from dynetid.modelfile import (
    ModelFileError,
    input_digest,
    model_from_json,
    model_to_json,
    parse_model,
    serialize_model,
)

from . import parseref
from .malformed import KINDS, kinds_of, mutate
from .randgen import random_model, random_sparse_model
from .test_model import correlated_noise_model

P, K = EntryStatus.PARAMETERIZED, EntryStatus.KNOWN

SEEDS = st.integers(0, 10**9)


def diamond_doc() -> dict:
    return {
        "schema": 1,
        "L": 4,
        "modules": [
            {"from": 1, "to": 2, "status": "param"},
            {"from": 1, "to": 3, "status": "param"},
            {"from": 2, "to": 4, "status": "param"},
            {"from": 3, "to": 4, "status": "param"},
        ],
        "excited": [1, 3],
        "strictly_proper": True,
    }


class TestParsing:
    def test_minimal_document(self):
        m = model_from_json(diamond_doc())
        assert m.L == 4
        assert m.modules[(1, 2)] is P
        assert m.excited == {1, 3}
        assert m.p == 0

    def test_noise_key_optional(self):
        doc = diamond_doc()
        doc["noise"] = {"p": 0, "columns": []}
        assert model_from_json(doc) == model_from_json(diamond_doc())

    def test_noise_columns(self):
        doc = diamond_doc()
        doc["noise"] = {
            "p": 2,
            "columns": [
                [{"row": 1, "status": "param"}, {"row": 2, "status": "param"}],
                [{"row": 3, "status": "known"}],
            ],
        }
        m = model_from_json(doc)
        assert m.p == 2
        assert m.noise == ({1: P, 2: P}, {3: K})

    def test_feedthrough_edges(self):
        doc = diamond_doc()
        doc["strictly_proper"] = False
        doc["feedthrough_edges"] = [[1, 2]]
        m = model_from_json(doc)
        assert m.feedthrough_edges == {(1, 2)}

    def test_not_json(self):
        with pytest.raises(ModelFileError, match="not valid JSON"):
            parse_model("{nope")

    def test_document_must_be_object(self):
        with pytest.raises(ModelFileError, match="must be a JSON object"):
            model_from_json([1, 2])

    def test_unknown_top_level_key(self):
        doc = diamond_doc()
        doc["extra"] = 1
        with pytest.raises(ModelFileError, match="unknown keys: extra"):
            model_from_json(doc)

    def test_missing_key(self):
        doc = diamond_doc()
        del doc["excited"]
        with pytest.raises(ModelFileError, match="missing keys: excited"):
            model_from_json(doc)

    def test_schema_version_checked(self):
        # true and 1.0 compare equal to 1 but are not the integer 1
        for version in (2, True, 1.0):
            doc = diamond_doc()
            doc["schema"] = version
            with pytest.raises(ModelFileError, match='"schema" must be 1'):
                model_from_json(doc)

    def test_l_rejects_bool(self):
        doc = diamond_doc()
        doc["L"] = True
        with pytest.raises(ModelFileError, match="must be an integer"):
            model_from_json(doc)

    def test_l_positive(self):
        doc = diamond_doc()
        doc["L"] = 0
        with pytest.raises(ModelFileError, match=">= 1"):
            model_from_json(doc)

    def test_modules_must_be_list(self):
        doc = diamond_doc()
        doc["modules"] = {}
        with pytest.raises(ModelFileError, match='"modules" must be a list'):
            model_from_json(doc)

    def test_module_unknown_key(self):
        doc = diamond_doc()
        doc["modules"][0]["weight"] = 3
        with pytest.raises(ModelFileError, match=r"modules\[0\] has unknown keys"):
            model_from_json(doc)

    def test_module_endpoint_range(self):
        doc = diamond_doc()
        doc["modules"][1]["to"] = 9
        with pytest.raises(ModelFileError, match="in 1..4, got 9"):
            model_from_json(doc)

    def test_duplicate_module(self):
        doc = diamond_doc()
        doc["modules"].append({"from": 1, "to": 2, "status": "known"})
        with pytest.raises(ModelFileError, match=r"duplicates module \(1, 2\)"):
            model_from_json(doc)

    def test_bad_status(self):
        doc = diamond_doc()
        doc["modules"][0]["status"] = "free"
        with pytest.raises(ModelFileError, match='"param" or "known"'):
            model_from_json(doc)

    def test_unhashable_status(self):
        for status in ([], {}):
            doc = diamond_doc()
            doc["modules"][0]["status"] = status
            with pytest.raises(ModelFileError, match='"param" or "known"'):
                model_from_json(doc)
            doc = diamond_doc()
            doc["noise"] = {"p": 1, "columns": [[{"row": 1, "status": status}]]}
            with pytest.raises(ModelFileError, match='"param" or "known"'):
                model_from_json(doc)

    def test_noise_column_count_must_match_p(self):
        doc = diamond_doc()
        doc["noise"] = {"p": 2, "columns": [[{"row": 1, "status": "param"}]]}
        with pytest.raises(ModelFileError, match="exactly p columns"):
            model_from_json(doc)

    def test_noise_unknown_key(self):
        doc = diamond_doc()
        doc["noise"] = {"p": 0, "columns": [], "spectrum": 1}
        with pytest.raises(ModelFileError, match='"noise" has unknown keys'):
            model_from_json(doc)

    def test_duplicate_noise_row(self):
        doc = diamond_doc()
        doc["noise"] = {
            "p": 1,
            "columns": [
                [{"row": 1, "status": "param"}, {"row": 1, "status": "param"}]
            ],
        }
        with pytest.raises(ModelFileError, match="duplicates row 1"):
            model_from_json(doc)

    def test_excited_duplicates(self):
        doc = diamond_doc()
        doc["excited"] = [1, 1]
        with pytest.raises(ModelFileError, match="duplicates vertex 1"):
            model_from_json(doc)

    def test_excited_duplicate_check_is_not_quadratic(self):
        n = 200_000
        doc = {"schema": 1, "L": n, "modules": [], "excited": list(range(1, n + 1)),
               "strictly_proper": True}
        start = time.perf_counter()
        assert len(model_from_json(doc).excited) == n
        doc["excited"].append(7)
        with pytest.raises(ModelFileError) as info:
            model_from_json(doc)
        assert time.perf_counter() - start < 5.0
        assert str(info.value) == f"excited[{n}] duplicates vertex 7"

    def test_excited_range(self):
        doc = diamond_doc()
        doc["excited"] = [5]
        with pytest.raises(ModelFileError, match="in 1..4, got 5"):
            model_from_json(doc)

    def test_strictly_proper_rejects_int(self):
        doc = diamond_doc()
        doc["strictly_proper"] = 1
        with pytest.raises(ModelFileError, match="must be a boolean"):
            model_from_json(doc)

    def test_feedthrough_pair_shape(self):
        doc = diamond_doc()
        doc["feedthrough_edges"] = [[1, 2, 3]]
        with pytest.raises(ModelFileError, match=r"\[from, to\] pair"):
            model_from_json(doc)

    def test_duplicate_feedthrough(self):
        doc = diamond_doc()
        doc["feedthrough_edges"] = [[1, 2], [1, 2]]
        with pytest.raises(ModelFileError, match=r"duplicates edge \(1, 2\)"):
            model_from_json(doc)


def _outcome(parse, doc):
    try:
        return parse(doc)
    except Exception as exc:  # the exception type and message are the contract
        return type(exc), str(exc)


# A plain subclass of each JSON container and scalar type the parser reads.
_SUBCLASS = {t: type(f"_{t.__name__}", (t,), {}) for t in (int, str, dict, list)}


def _rewrap(value, rng: random.Random, share: float):
    """`value` with about `share` of its ints, strs, dicts and lists, at any
    depth, rebuilt as instances of subclasses (dict keys and bools stay)."""
    if type(value) is dict:
        value = {key: _rewrap(v, rng, share) for key, v in value.items()}
    elif type(value) is list:
        value = [_rewrap(v, rng, share) for v in value]
    subclass = _SUBCLASS.get(type(value))
    return subclass(value) if subclass is not None and rng.random() < share else value


class TestAgainstReference:
    """The single-pass parser against the helper-per-entry reference."""

    @staticmethod
    def _document(rng: random.Random) -> dict:
        m = random_model(rng, max_vertices=6, max_noise=3, with_excitations=True)
        doc = model_to_json(m)
        if doc["modules"] and rng.random() < 0.8:
            doc["strictly_proper"] = False
            modules = [[e["from"], e["to"]] for e in doc["modules"]]
            doc["feedthrough_edges"] = rng.sample(modules, rng.randint(1, len(modules)))
        return doc

    @classmethod
    def _malformed(cls, rng: random.Random):
        doc = cls._document(rng)
        kinds = kinds_of(doc)
        # Entries first and the enclosing objects last, so no mutation
        # removes what a later one breaks. A broken document hides every
        # other error, so it is broken least often.
        for kind in reversed(KINDS):
            if kind in kinds and rng.random() < (0.15 if kind == "document" else 0.5):
                doc = mutate(doc, rng, kind)
        return doc

    @given(SEEDS)
    @settings(max_examples=500, deadline=None)
    def test_same_model_or_same_error(self, seed):
        doc = self._malformed(random.Random(seed))
        expected = _outcome(parseref.model_from_json, doc)
        assert _outcome(model_from_json, doc) == expected

    @given(SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_subclass_values(self, seed):
        # json.loads never builds subclasses, but a caller of model_from_json
        # may pass them: the helpers accept int, str, dict and list subclasses
        # wherever the plain type is accepted, and refuse bool as an integer.
        rng = random.Random(seed)
        doc = self._malformed(rng)
        if type(doc) is dict:
            share = rng.random()
            for key in ("modules", "noise", "excited", "feedthrough_edges"):
                if key in doc:
                    doc[key] = _rewrap(doc[key], rng, share)
        expected = _outcome(parseref.model_from_json, doc)
        assert _outcome(model_from_json, doc) == expected


class TestAgainstReferenceAtScale:
    """Both parsers on one L = 2,000 document with every kind of entry, whole
    and with single entries broken anywhere in its lists."""

    L = 2000

    @pytest.fixture(scope="class")
    def doc(self) -> dict:
        rng = random.Random(self.L)
        doc = model_to_json(random_sparse_model(random.Random(self.L), self.L))
        for entry in doc["modules"]:
            if rng.random() < 0.15:
                entry["status"] = "known"
        rows = range(1, self.L + 1)
        doc["noise"] = {"p": 4, "columns": [
            [{"row": r, "status": "param"} for r in sorted(rng.sample(rows, self.L // 10))],
            [{"row": rng.choice(rows), "status": "known"}],
            [{"row": r, "status": "param"} for r in sorted(rng.sample(rows, self.L // 4))],
            [{"row": rng.choice(rows), "status": "known"}],
        ]}
        doc["strictly_proper"] = False
        modules = [[e["from"], e["to"]] for e in doc["modules"]]
        doc["feedthrough_edges"] = rng.sample(modules, len(modules) // 2)
        return doc

    def test_same_model(self, doc):
        m = model_from_json(doc)
        assert m == parseref.model_from_json(doc)
        assert m.p == 4 and not m.strictly_proper_modules
        assert K in m.modules.values() and P in m.modules.values()

    @pytest.mark.parametrize("kind", ("module", "cell", "excited", "pair"))
    def test_same_error(self, doc, kind):
        rng = random.Random(f"{self.L}/{kind}")
        errors = 0
        for _ in range(20):
            # mutate breaks entries in place, so each round copies every
            # entry of the document's lists (their values are ints and strs).
            broken = {**doc, "noise": {**doc["noise"], "columns": [
                [dict(cell) for cell in column] for column in doc["noise"]["columns"]
            ]}}
            for key in ("modules", "feedthrough_edges"):
                broken[key] = [type(e)(e) for e in doc[key]]
            broken["excited"] = list(doc["excited"])
            broken = mutate(broken, rng, kind)
            expected = _outcome(parseref.model_from_json, broken)
            assert _outcome(model_from_json, broken) == expected
            errors += isinstance(expected, tuple)
        # A few mutations leave the document well-formed (a cell's extra
        # "row" key, say); nearly all of them must be errors.
        assert errors >= 15


class TestSerialization:
    def test_round_trip_fixture(self):
        # The one-vertex model has no module, noise row or excitation.
        for m in (correlated_noise_model(), ModelSet.from_edges(1)):
            assert parse_model(serialize_model(m)) == m

    def test_round_trip_known_and_feedthrough(self):
        m = ModelSet.from_edges(
            3,
            [(1, 2, P), (2, 3, K)],
            excited=[1],
            strictly_proper_modules=False,
            feedthrough_edges=[(1, 2)],
        )
        assert parse_model(serialize_model(m)) == m

    def test_round_trip_int_subclass_ids(self):
        # The model admits any int id but a bool; json writes an int
        # subclass as its int, which parse_model reads back.
        class Id(int):
            pass

        one, two, three = Id(1), Id(2), Id(3)
        m = ModelSet.from_edges(
            3,
            [(one, two), (two, three, K)],
            noise_columns=[[(three, P)]],
            excited=[one, two],
            strictly_proper_modules=False,
            feedthrough_edges=[(one, two)],
        )
        text = serialize_model(m)
        assert parse_model(text) == m
        assert serialize_model(parse_model(text)) == text

    def test_noise_omitted_when_absent(self):
        doc = model_to_json(ModelSet.from_edges(2, [(1, 2)]))
        assert "noise" not in doc

    def test_serialization_is_stable(self):
        m = correlated_noise_model()
        assert serialize_model(m) == serialize_model(m)
        assert serialize_model(m).endswith("\n")

    def test_modules_sorted_by_endpoint(self):
        doc = model_to_json(correlated_noise_model())
        pairs = [(e["from"], e["to"]) for e in doc["modules"]]
        assert pairs == sorted(pairs)

    @given(SEEDS)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_random_models(self, seed):
        rng = random.Random(seed)
        m = random_model(rng, with_excitations=True)
        text = serialize_model(m)
        assert parse_model(text) == m
        assert json.loads(text)["schema"] == 1


class TestDigest:
    def test_sha256_hex(self):
        assert input_digest(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_distinct_inputs_distinct_digests(self):
        assert input_digest(b"a") != input_digest(b"b")
