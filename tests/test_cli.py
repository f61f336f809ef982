"""Command-line behavior: exit codes, report payloads, DOT export."""

import argparse
import enum
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dynetid
import dynetid.cli as cli
import dynetid.dual
import dynetid.model
from dynetid.allocation import AllocationResult
from dynetid.cli import main
from dynetid.graph import DiGraph
from dynetid.model import EntryStatus, ModelSet
from dynetid.modelfile import serialize_model
from dynetid.pseudotree import Covering

from .test_model import correlated_noise_model

P, K = EntryStatus.PARAMETERIZED, EntryStatus.KNOWN


def diamond_model() -> ModelSet:
    return ModelSet.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)], excited=[1, 3])


def write_model(tmp_path, m: ModelSet, name: str = "model.json") -> str:
    path = tmp_path / name
    path.write_text(serialize_model(m), encoding="utf-8")
    return str(path)


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def empty_covering() -> Covering:
    host = DiGraph.of([1], [])
    return Covering(trees=(), host=host, target_edges=frozenset())


class TestValidateCommand:
    def test_valid_model(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["validate", write_model(tmp_path, diamond_model())])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "validate"
        assert report["result"] == {"ok": True, "violations": []}
        assert re.fullmatch(r"[0-9a-f]{64}", report["input_digest"])

    def test_invalid_model(self, tmp_path, capsys):
        m = ModelSet.from_edges(2, [(1, 1), (1, 2)])
        code, out, _ = run(capsys, ["validate", write_model(tmp_path, m)])
        assert code == 2
        report = json.loads(out)
        assert not report["result"]["ok"]
        assert any("self-loop" in v for v in report["result"]["violations"])

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["validate", "/no/such/file.json"])
        assert code == 1
        assert "error:" in err

    def test_invalid_utf8(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: not valid UTF-8")

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: not valid JSON")

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for integers longer than
        # Python's int-string conversion limit (4,300 digits by default)
        path = tmp_path / "long.json"
        path.write_text('{"schema": 1, "L": ' + "9" * 5000 + "}", encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: not valid JSON")
        assert "Traceback" not in err


def parse_error_doc() -> dict:
    """A well-formed document with every optional part, to break one field of."""
    return {
        "schema": 1,
        "L": 4,
        "modules": [
            {"from": 1, "to": 2, "status": "param"},
            {"from": 1, "to": 3, "status": "param"},
            {"from": 2, "to": 4, "status": "known"},
            {"from": 3, "to": 4, "status": "param"},
        ],
        "noise": {"p": 1, "columns": [[{"row": 2, "status": "param"}, {"row": 3, "status": "param"}]]},
        "excited": [1, 3],
        "strictly_proper": False,
        "feedthrough_edges": [[1, 2], [2, 4]],
    }


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(*path, value):
    def edit(doc):
        _at(doc, path[:-1])[path[-1]] = value
        return doc
    return edit


def drop(*path):
    def edit(doc):
        del _at(doc, path[:-1])[path[-1]]
        return doc
    return edit


def append(*path, value):
    def edit(doc):
        _at(doc, path).append(value)
        return doc
    return edit


# One malformed file per ModelFileError message family, with its exact text.
PARSE_ERRORS = [
    ("document-not-object", lambda doc: [doc], "document must be a JSON object"),
    ("document-unknown", put("extra", value=1), "document has unknown keys: extra"),
    ("document-missing", drop("excited"), "document is missing keys: excited"),
    ("module-not-object", put("modules", 1, value="x"), "modules[1] must be a JSON object"),
    ("module-unknown", put("modules", 1, "weight", value=2), "modules[1] has unknown keys: weight"),
    ("module-missing", drop("modules", 1, "to"), "modules[1] is missing keys: to"),
    ("noise-not-object", put("noise", value=[]), '"noise" must be a JSON object'),
    ("noise-unknown", put("noise", "q", value=1), '"noise" has unknown keys: q'),
    ("noise-missing", drop("noise", "p"), '"noise" is missing keys: p'),
    ("cell-not-object", put("noise", "columns", 0, 1, value=3),
     "noise.columns[0][1] must be a JSON object"),
    ("cell-unknown", put("noise", "columns", 0, 1, "col", value=1),
     "noise.columns[0][1] has unknown keys: col"),
    ("cell-missing", drop("noise", "columns", 0, 1, "row"),
     "noise.columns[0][1] is missing keys: row"),
    ("L-type", put("L", value="4"), '"L" must be an integer'),
    ("L-range", put("L", value=0), '"L" must be >= 1, got 0'),
    ("from-type", put("modules", 2, "from", value=2.0), 'modules[2]."from" must be an integer'),
    ("from-range", put("modules", 2, "from", value=5), 'modules[2]."from" must be in 1..4, got 5'),
    ("to-type", put("modules", 2, "to", value=True), 'modules[2]."to" must be an integer'),
    ("to-range", put("modules", 2, "to", value=0), 'modules[2]."to" must be in 1..4, got 0'),
    ("row-type", put("noise", "columns", 0, 0, "row", value=None),
     'noise.columns[0][0]."row" must be an integer'),
    ("row-range", put("noise", "columns", 0, 0, "row", value=5),
     'noise.columns[0][0]."row" must be in 1..4, got 5'),
    ("p-type", put("noise", "p", value="1"), '"noise.p" must be an integer'),
    ("p-range", put("noise", "p", value=-1), '"noise.p" must be >= 0, got -1'),
    ("excited-type", put("excited", 1, value=[3]), "excited[1] must be an integer"),
    ("excited-range", put("excited", 1, value=9), "excited[1] must be in 1..4, got 9"),
    ("pair-from-type", put("feedthrough_edges", 1, 0, value="2"),
     "feedthrough_edges[1][0] must be an integer"),
    ("pair-to-range", put("feedthrough_edges", 1, 1, value=5),
     "feedthrough_edges[1][1] must be in 1..4, got 5"),
    ("module-status", put("modules", 0, "status", value="free"),
     'modules[0]."status" must be "param" or "known"'),
    ("cell-status", put("noise", "columns", 0, 1, "status", value=1),
     'noise.columns[0][1]."status" must be "param" or "known"'),
    ("duplicate-module", append("modules", value={"from": 2, "to": 4, "status": "param"}),
     "modules[4] duplicates module (2, 4)"),
    ("duplicate-row", append("noise", "columns", 0, value={"row": 2, "status": "known"}),
     "noise.columns[0][2] duplicates row 2"),
    ("duplicate-vertex", append("excited", value=1), "excited[2] duplicates vertex 1"),
    ("duplicate-edge", append("feedthrough_edges", value=[1, 2]),
     "feedthrough_edges[2] duplicates edge (1, 2)"),
    ("column-count", put("noise", "p", value=2), '"noise.columns" must list exactly p columns'),
    ("column-not-list", put("noise", "columns", 0, value={}), "noise.columns[0] must be a list"),
    ("pair-shape", put("feedthrough_edges", 0, value=[1, 2, 3]),
     "feedthrough_edges[0] must be a [from, to] pair"),
    ("schema", put("schema", value=2), '"schema" must be 1'),
    ("strictly-proper", put("strictly_proper", value=0), '"strictly_proper" must be a boolean'),
    ("modules-list", put("modules", value={}), '"modules" must be a list'),
    ("excited-list", put("excited", value=None), '"excited" must be a list'),
    ("feedthrough-list", put("feedthrough_edges", value=1), '"feedthrough_edges" must be a list'),
]


class TestParseErrors:
    def test_base_document_is_well_formed(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(parse_error_doc()), encoding="utf-8")
        code, out, err = run(capsys, ["validate", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["ok"]

    @pytest.mark.parametrize(
        "edit, message", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
    )
    def test_exact_stderr_and_no_report(self, tmp_path, capsys, edit, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(parse_error_doc())), encoding="utf-8")
        report = tmp_path / "report.json"
        code, out, err = run(capsys, ["validate", str(path), "--out", str(report)])
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"
        assert not report.exists()


class TestCheckCommand:
    def test_identifiable(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["check", write_model(tmp_path, diamond_model())])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["identifiable"] is True
        assert result["failing"] == []
        assert {"vertex": 4, "required": 2, "achieved": 2} in result["per_vertex"]

    def test_not_identifiable(self, tmp_path, capsys):
        m = ModelSet.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)], excited=[1])
        code, out, _ = run(capsys, ["check", write_model(tmp_path, m)])
        assert code == 3
        assert json.loads(out)["result"]["failing"] == [4]

    def test_vacuous_without_parameterized_edges(self, tmp_path, capsys):
        m = ModelSet.from_edges(2, [(1, 2, K)])
        code, out, _ = run(capsys, ["check", write_model(tmp_path, m)])
        assert code == 0
        assert json.loads(out)["result"]["identifiable"] is True

    def test_invalid_model_gates(self, tmp_path, capsys):
        m = ModelSet.from_edges(2, [(1, 1), (1, 2)])
        code, out, _ = run(capsys, ["check", write_model(tmp_path, m)])
        assert code == 2
        assert json.loads(out)["result"]["ok"] is False


class TestCoverCommand:
    def test_diamond(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["cover", write_model(tmp_path, diamond_model())])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["tree_count"] == 2
        assert result["trace"] == [[2, 1]]
        assert result["trees"][0]["index"] == 1

    def test_single_edge(self, tmp_path, capsys):
        m = ModelSet.from_edges(2, [(1, 2)], excited=[1])
        code, out, _ = run(capsys, ["cover", write_model(tmp_path, m)])
        assert code == 0
        assert json.loads(out)["result"]["tree_count"] == 1

    def test_dot_export_colors_each_tree(self, tmp_path, capsys):
        dot_path = tmp_path / "covering.dot"
        code, out, _ = run(
            capsys,
            ["cover", write_model(tmp_path, diamond_model()), "--emit-dot", str(dot_path)],
        )
        assert code == 0
        dot = dot_path.read_text(encoding="utf-8")
        assert dot.startswith("digraph covering {")
        colors = set(re.findall(r'color="(#[0-9a-f]{6})"', dot))
        assert len(colors) == json.loads(out)["result"]["tree_count"]

    def test_dot_marks_noise_and_uncovered_edges(self, tmp_path, capsys):
        dot_path = tmp_path / "covering.dot"
        run(
            capsys,
            [
                "cover",
                write_model(tmp_path, correlated_noise_model()),
                "--emit-dot",
                str(dot_path),
            ],
        )
        dot = dot_path.read_text(encoding="utf-8")
        for noise_vertex in (6, 7, 8):
            assert f"{noise_vertex} [style=dashed];" in dot

    def test_dot_known_edges_dotted(self, tmp_path, capsys):
        dot_path = tmp_path / "covering.dot"
        m = ModelSet.from_edges(3, [(1, 2, P), (2, 3, K)], excited=[1])
        run(capsys, ["cover", write_model(tmp_path, m), "--emit-dot", str(dot_path)])
        dot = dot_path.read_text(encoding="utf-8")
        assert "2 -> 3 [style=dotted];" in dot
        assert '2 -> 3 [color=' not in dot


class TestAllocateCommand:
    def test_diamond(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["allocate", write_model(tmp_path, diamond_model())])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["excited"] == [1, 3]
        assert result["verified"] is True
        assert result["bounds"] == {"lower": 2, "upper": 2}

    def test_fixture(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["allocate", write_model(tmp_path, correlated_noise_model())]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["excited"] == [5]
        assert result["tree_count"] == 4
        assert result["bounds"] == {"lower": 1, "upper": 1}

    def test_unverified_result_exits_4(self, tmp_path, capsys, monkeypatch):
        fake = AllocationResult(
            excited=(),
            covering_used=empty_covering(),
            pruned=(),
            verified=False,
            bounds=(2, 0),
        )
        monkeypatch.setattr(cli, "allocate", lambda m: fake)
        code, out, _ = run(capsys, ["allocate", write_model(tmp_path, diamond_model())])
        assert code == 4
        result = json.loads(out)["result"]
        assert result["verified"] is False
        assert result["bounds"] == {"lower": 2, "upper": 0}
        assert result["reason"] == "no excitation set passed verification"


class TestAllocateMeasurementsCommand:
    def test_chain(self, tmp_path, capsys):
        m = ModelSet.from_edges(3, [(1, 2), (2, 3)])
        code, out, _ = run(capsys, ["allocate-measurements", write_model(tmp_path, m)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["measured"] == [3]
        assert result["verified"] is True
        assert result["anti_tree_count"] == 1

    def test_noise_model_rejected(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["allocate-measurements", write_model(tmp_path, correlated_noise_model())],
        )
        assert code == 2
        violations = json.loads(out)["result"]["violations"]
        assert any("noise-free" in v for v in violations)

    def test_known_module_rejected(self, tmp_path, capsys):
        m = ModelSet.from_edges(3, [(1, 2, K), (2, 3), (3, 1, K)])
        code, out, _ = run(capsys, ["allocate-measurements", write_model(tmp_path, m)])
        assert code == 2
        assert json.loads(out)["result"]["violations"] == [
            f"module {e} is known; measurement selection"
            " expects every nonzero module to be parameterized"
            for e in ((3, 1), (1, 2))
        ]

    def test_validate_violations_come_first(self, tmp_path, capsys):
        # The self-loop breaks a rule of validate, the known module one of
        # the dual; validate gates every command, so only its list shows.
        m = ModelSet.from_edges(3, [(1, 1), (1, 2, K), (2, 3)])
        path = write_model(tmp_path, m)
        code, out, _ = run(capsys, ["allocate-measurements", path])
        assert code == 2
        result = json.loads(out)["result"]
        assert result == {"ok": False, "violations": ["self-loop module at vertex 1"]}
        code, out, _ = run(capsys, ["validate", path])
        assert (code, json.loads(out)["result"]) == (2, result)

    def test_unverified_result_exits_4(self, tmp_path, capsys, monkeypatch):
        fake = AllocationResult(
            excited=(),
            covering_used=empty_covering(),
            pruned=(),
            verified=False,
            bounds=(1, 0),
        )
        monkeypatch.setattr(cli, "select_measurements", lambda eg: fake)
        m = ModelSet.from_edges(3, [(1, 2), (2, 3)])
        code, out, _ = run(capsys, ["allocate-measurements", write_model(tmp_path, m)])
        assert code == 4
        result = json.loads(out)["result"]
        assert result["bounds"] == {"lower": 1, "upper": 0}
        assert result["reason"] == "no measurement set passed verification"


class TestBoundsCommand:
    def test_diamond(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["bounds", write_model(tmp_path, diamond_model())])
        assert code == 0
        assert json.loads(out)["result"] == {
            "lower": 2,
            "upper": 2,
            "covering_size": 2,
            "noise_channels": 0,
        }


class TestOracleCompareCommand:
    def test_diamond_agrees(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, ["oracle-compare", write_model(tmp_path, diamond_model())]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["kappa_oracle"] == 2
        assert result["heuristic_size"] == 2
        assert result["agree"] is True

    def test_budget_flag_validated(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            ["oracle-compare", write_model(tmp_path, diamond_model()), "--budget", "0"],
        )
        assert code == 1
        assert "--budget must be at least 1" in err

    def test_invalid_model_gates_before_budget_flag(self, tmp_path, capsys):
        m = ModelSet.from_edges(2, [(1, 1), (1, 2)])
        code, out, err = run(
            capsys, ["oracle-compare", write_model(tmp_path, m), "--budget", "0"]
        )
        assert (code, err) == (2, "")
        assert json.loads(out)["result"] == {
            "ok": False,
            "violations": ["self-loop module at vertex 1"],
        }

    def test_over_budget_exits_5(self, tmp_path, capsys):
        m = ModelSet.from_edges(8, [(1, 2)], excited=[1])
        code, out, err = run(capsys, ["oracle-compare", write_model(tmp_path, m)])
        assert code == 5
        assert out == ""
        assert "budget exceeded" in err

    def test_deep_chain_is_searched(self, tmp_path, capsys):
        # the path from 1 is deeper than the interpreter's default
        # recursion limit of 1000
        L = 1200
        edges = [(i, i + 1, K) for i in range(1, L - 1)] + [(L - 1, L, P)]
        m = ModelSet.from_edges(L, edges, excited=[1])
        code, out, err = run(
            capsys, ["oracle-compare", write_model(tmp_path, m), "--budget", "1300"]
        )
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["paths"][-1] == {"vertex": L, "flow": 1, "brute": 1}
        assert result["kappa_oracle"] == result["heuristic_size"] == 1
        assert result["agree"] is True

    def test_disagreement_exits_6(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "brute_disjoint_paths", lambda *a, **k: 0)
        code, out, _ = run(
            capsys, ["oracle-compare", write_model(tmp_path, diamond_model())]
        )
        assert code == 6
        result = json.loads(out)["result"]
        assert result["paths_agree"] is False
        assert result["agree"] is False


class TestReportPlumbing:
    def test_out_file_instead_of_stdout(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["validate", write_model(tmp_path, diamond_model()), "--out", str(report_path)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(report_path.read_text(encoding="utf-8"))["result"]["ok"]

    @pytest.mark.parametrize("command, flag", [("check", "--out"), ("cover", "--emit-dot")])
    def test_unwritable_output_path(self, tmp_path, capsys, command, flag):
        target = tmp_path / "missing" / "file"
        code, out, err = run(
            capsys, [command, write_model(tmp_path, diamond_model()), flag, str(target)]
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.parent.exists()

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            ["check", write_model(tmp_path, diamond_model()), "--format", "text"],
        )
        assert code == 0
        assert out.startswith('command: "check"')
        assert "identifiable: true" in out

    def test_repeated_runs_are_byte_identical(self, tmp_path, capsys):
        path = write_model(tmp_path, correlated_noise_model())
        outputs = {run(capsys, ["allocate", path])[1] for _ in range(3)}
        assert len(outputs) == 1

    def test_module_entry_point(self, tmp_path):
        path = write_model(tmp_path, diamond_model())
        # the child imports the same dynetid this process did, installed or not
        src_root = os.path.dirname(os.path.dirname(dynetid.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "dynetid", "validate", path],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["ok"] is True

    @pytest.mark.parametrize(
        "command",
        ["validate", "check", "cover", "bounds", "allocate", "allocate-measurements",
         "oracle-compare"],
    )
    @pytest.mark.parametrize("valid", [True, False], ids=["diamond", "invalid"])
    def test_every_command_writes_canonical_json(self, tmp_path, capsys, command, valid):
        # A report is exactly json.dumps(report, indent=2) plus a newline,
        # on stdout and in --out alike.
        m = diamond_model() if valid else ModelSet.from_edges(2, [(1, 1), (1, 2)])
        path = write_model(tmp_path, m)
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, [command, path])
        assert code == (0 if valid else 2)
        assert run(capsys, [command, path, "--out", str(report_path)]) == (code, "", "")
        assert report_path.read_text(encoding="utf-8") == out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class _Color(enum.IntEnum):
    RED = 1


_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.sampled_from([_Color.RED, float("nan"), float("inf"), -0.0])
)
_KEY = st.text() | st.integers() | st.floats() | st.booleans() | st.none()


# Lists of dicts sharing one key set; a row's key order or a bool or
# IntEnum value may break the shape the writer's row template takes.
_ROWS = st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(
        st.tuples(
            st.permutations(keys),
            st.lists(st.integers() | st.booleans() | st.just(_Color.RED),
                     min_size=len(keys), max_size=len(keys)),
        ),
        min_size=1,
        max_size=4,
    ).map(lambda rows: [dict(zip(*row)) for row in rows])
)

_JSONISH = st.recursive(
    _SCALAR | _ROWS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(st.integers(), max_size=4)
        | st.tuples(inner, inner)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
        | st.dictionaries(_KEY, inner, max_size=3)
        | st.sets(st.integers(), min_size=1, max_size=2)
    ),
    max_leaves=12,
)


def _same_as_json(value, pad="\n") -> None:
    try:
        want = json.dumps(value, indent=2).replace("\n", pad)
    except Exception as exc:  # the writer must fail the same way
        with pytest.raises(type(exc)):
            cli._indented(value, pad)
    else:
        assert cli._indented(value, pad) == want


CHECK_ROWS = [
    {"vertex": 1, "required": 2, "achieved": 2},
    {"vertex": 3, "required": 0, "achieved": 0},
]


class TestIndentedWriter:
    """cli._indented, which _emit writes every JSON report through, against
    json.dumps(indent=2)."""

    @settings(max_examples=500, deadline=None)
    @given(_JSONISH, st.sampled_from(["\n", "\n    "]))
    @example({"a": {1, 2}}, "\n")
    def test_matches_json(self, value, pad):
        _same_as_json(value, pad)

    @pytest.mark.parametrize(
        "rows",
        [
            CHECK_ROWS,
            [CHECK_ROWS[0], {**CHECK_ROWS[1], "achieved": True}],
            [CHECK_ROWS[0], {**CHECK_ROWS[1], "vertex": _Color.RED}],
            [CHECK_ROWS[0], {"achieved": 0, "required": 0, "vertex": 3}],
            [CHECK_ROWS[0], {**CHECK_ROWS[1], "extra": 5}],
            [CHECK_ROWS[0], {"vertex": 3, "required": 0}],
            [CHECK_ROWS[0], [1, 2]],
            [{"%d \"q\" \u00e9": 1}, {"%d \"q\" \u00e9": 2}],
            [{"a": 1.0}, {"a": 2}],
        ],
        ids=["rows", "bool", "intenum", "key-order", "extra-key", "missing-key", "not-a-row",
             "escaped-key", "float"],
    )
    def test_row_lists(self, rows):
        _same_as_json(rows)
        _same_as_json({"result": {"per_vertex": rows}})

    @pytest.mark.parametrize(
        "value",
        [
            [float("nan"), float("inf"), float("-inf"), -0.0, 0.1],
            {"x": float("nan"), "y": [-0.0, {"z": float("inf")}]},
            {"\u00e9\u4e2d\x00\x1f\"\\\n\t": "\u00fc\ud83d\ude00\x7f\"\\\r"},
            ["\u2028", "\\n", "a\nb", {"k\n": ["\n"]}],
            {1: "int", 2.5: "float", None: "none", "s": 1},
            {True: "bool", False: [0]},
            {float("nan"): [1], -0.0: {"a": 1}},
            (1, (2, [3, (4,)]), {"t": ()}),
            {"t": (1, {"u": (2, 3)})},
            [],
            {},
            [[]],
            [{}],
            {"a": [], "b": {}, "c": [[], {}, [[]], [{}]], "d": {"e": {"f": []}}},
            [[[], [[], [{}]]], {"g": [{}, []]}],
            [1, True, 2],
            [10**30, -(10**30), 0],
            {"s": {3, 4}},
            [1, {1, 2}],
            {(1, 2): 1},
        ],
    )
    def test_edge_cases(self, value):
        _same_as_json(value)


class TestSharedParser:
    """main builds its parser once per process, and no flag value of one
    call reaches the next."""

    def test_emit_dot_is_not_repeated(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        path = write_model(tmp_path, diamond_model())
        dot = tmp_path / "covering.dot"
        assert run(capsys, ["cover", path, "--emit-dot", str(dot)])[0] == 0
        dot.unlink()
        assert run(capsys, ["cover", path])[0] == 0
        assert not dot.exists()

    def test_format_falls_back_to_json(self, tmp_path, capsys):
        path = write_model(tmp_path, diamond_model())
        _, out, _ = run(capsys, ["check", path, "--format", "text"])
        assert out.startswith('command: "check"')
        _, out, _ = run(capsys, ["check", path])
        assert json.loads(out)["command"] == "check"

    def test_budget_falls_back_to_default(self, tmp_path, capsys):
        path = write_model(tmp_path, diamond_model())
        assert run(capsys, ["oracle-compare", path, "--budget", "3"])[0] == 5
        assert run(capsys, ["oracle-compare", path])[0] == 0


_COMMON = ("-h", "--help", "model", "--format", "--out")


class TestCommandTable:
    """The parser is built from one command table; this pins what it
    declares, so no command or flag can drop out or move."""

    def test_subcommands_help_and_options(self):
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]

        def options(name):
            return tuple(s for a in sub.choices[name]._actions for s in a.option_strings or [a.dest])

        declared = [(a.dest, a.help, options(a.dest)) for a in sub._choices_actions]
        assert declared == [
            ("validate", "check the structural rules", _COMMON),
            ("check", "decide generic identifiability", _COMMON),
            ("cover", "compute a disjoint pseudotree covering", _COMMON + ("--emit-dot",)),
            ("allocate", "choose excitation vertices", _COMMON),
            ("allocate-measurements", "choose measured vertices (p = 0)", _COMMON),
            ("bounds", "report excitation count bounds", _COMMON),
            ("oracle-compare", "cross-check against brute force", _COMMON + ("--budget",)),
        ]
        assert list(sub.choices) == [name for name, _, _ in declared]

    def test_package_exports_resolve(self):
        assert len(set(dynetid.__all__)) == len(dynetid.__all__)
        for name in dynetid.__all__:
            assert getattr(dynetid, name) is not None, name


class TestValidationCount:
    @pytest.mark.parametrize(
        "command",
        [
            "validate",
            "check",
            "cover",
            "allocate",
            "allocate-measurements",
            "bounds",
            "oracle-compare",
        ],
    )
    def test_each_command_validates_once(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        original = dynetid.model.validate

        def counting(m):
            calls.append(m)
            return original(m)

        # The CLI holds its own binding of validate; patch both.
        monkeypatch.setattr(dynetid.model, "validate", counting)
        monkeypatch.setattr(cli, "validate", counting)
        code, _, _ = run(capsys, [command, write_model(tmp_path, diamond_model())])
        assert code == 0
        assert len(calls) == 1

    def test_validate_builds_no_extended_graph(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_extended_graph", built.append)
        code, _, _ = run(capsys, ["validate", write_model(tmp_path, diamond_model())])
        assert (code, built) == (0, [])

    def test_allocate_measurements_reads_the_dual_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(dynetid.dual, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(dynetid.dual, name, wrapper)

        counting("validate_dual")
        counting("_reversed_extended")
        m = ModelSet.from_edges(3, [(1, 2), (2, 3)])
        code, _, _ = run(capsys, ["allocate-measurements", write_model(tmp_path, m)])
        assert code == 0
        assert sorted(calls) == ["_reversed_extended", "validate_dual"]
