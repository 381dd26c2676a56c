"""Command-line interface: output formats, exit statuses, and the
error JSON convention on stderr."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redukt import (
    EMPTY,
    arg_to_json,
    build_extended_reduction_graph,
    build_reduction_graph,
    extended_from_json,
    extended_to_json,
    parse_legal_string,
    pc_to_json,
    pointer_component_graph,
    validate_arg,
)
from redukt.cli import _graph_to_dot, _graph_to_json, main

from oracles import legal_string_strategy

FIXTURES = Path(__file__).parent / "fixtures"
U_TEXT = "2 -7 4 7 3 5 3 -4 2 6 5 6"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_payload(err):
    return json.loads(err.strip())


@pytest.fixture
def graph_file(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


class TestBuild:
    def test_json(self, capsys):
        code, out, err = run(capsys, "build", U_TEXT)
        assert code == 0 and not err
        data = json.loads(out)
        assert len(data["vertices"]) == 26
        assert len(data["reality"]) == 13
        assert len(data["desire"]) == 12
        assert "merge" not in data

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "build", "2 2")
        assert code == 0
        code, out, _ = run(capsys, "build", "2 2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph")
        assert "[style=bold]" in out
        assert "[style=dashed]" not in out

    def test_text(self, capsys):
        code, out, _ = run(capsys, "build", "2 2", "--format", "text")
        assert code == 0
        assert out.splitlines()[0].startswith("vertices: ")
        assert any(line.startswith("reality: ") for line in out.splitlines())

    def test_empty_string(self, capsys):
        code, out, _ = run(capsys, "build", "")
        data = json.loads(out)
        assert code == 0
        assert {v["id"] for v in data["vertices"]} == {"s", "t"}
        assert data["reality"] == [["s", "t"]]

    def test_illegal_string(self, capsys):
        code, out, err = run(capsys, "build", "2 2 3")
        assert code == 1 and not out
        payload = error_payload(err)
        assert payload["error"] == "legality"
        assert "3" in payload["message"]

    def test_unparsable_string(self, capsys):
        code, _, err = run(capsys, "build", "two two")
        assert code == 1
        assert error_payload(err)["error"] == "parse"

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "² ²"),
            ("extend", "² ²"),
            ("pc", "² ²"),
            ("fiber-check", "² ²", "2 2"),
            ("orbit", "² ²"),
            ("reduce", "2 ² 2 ²"),
        ],
    )
    def test_non_decimal_digit(self, capsys, argv):
        # '²' is a digit to str.isdigit but not to int(): once a traceback
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out
        assert error_payload(err)["error"] == "parse"


class TestExtend:
    def test_json_has_merge(self, capsys):
        code, out, _ = run(capsys, "extend", U_TEXT)
        assert code == 0
        data = json.loads(out)
        assert len(data["merge"]) == 12

    def test_dot_has_dashed_merge(self, capsys):
        code, out, _ = run(capsys, "extend", "2 2", "--format", "dot")
        assert code == 0
        assert "[style=dashed]" in out


GOLDEN = FIXTURES / "golden"
# argv of each golden case; its stdout in format f is pinned in
# tests/fixtures/golden/<case>.<ext of f>
GOLDEN_ARGV = {
    "build": ("build", U_TEXT),
    "extend": ("extend", U_TEXT),
    "pc": ("pc", U_TEXT),
    "check-range-in": ("check-range", str(GOLDEN / "build.json")),
    "recover": ("recover", str(GOLDEN / "build.json")),
    "realize-pc": ("realize-pc", str(GOLDEN / "pc.json")),
    "fiber-check-yes": ("fiber-check", U_TEXT, "2 7 4 -7 3 5 3 -4 2 6 5 6"),
    "orbit": ("orbit", U_TEXT),
    "reduce": ("reduce", U_TEXT),
    "check-range-out": ("check-range", str(FIXTURES / "theta_empty.json")),
    "fiber-check-no": ("fiber-check", "2 2", "2 -2"),
}
ALL_FORMATS = [("json", "json"), ("dot", "dot"), ("text", "txt")]
STRING_FORMATS = [("json", "json"), ("text", "txt")]


def golden_cases(*cases):
    return [
        (case, fmt, ext)
        for case in cases
        for fmt, ext in (ALL_FORMATS if case in ("build", "extend", "pc") else STRING_FORMATS)
    ]


class TestGolden:
    # exact stdout, pinned in tests/fixtures/golden; the string has 12
    # positions, so I10 must follow I9' in every format
    @pytest.mark.parametrize(
        "command,fmt,ext",
        golden_cases(
            "build", "extend", "pc", "check-range-in", "recover", "realize-pc",
            "fiber-check-yes", "orbit", "reduce",
        ),
    )
    def test_stdout(self, capsys, command, fmt, ext):
        code, out, err = run(capsys, *GOLDEN_ARGV[command], "--format", fmt)
        assert code == 0 and not err
        assert out == (FIXTURES / "golden" / f"{command}.{ext}").read_text()

    @pytest.mark.parametrize("command,fmt,ext", golden_cases("check-range-out", "fiber-check-no"))
    def test_negative_decision_stdout(self, capsys, command, fmt, ext):
        code, out, err = run(capsys, *GOLDEN_ARGV[command], "--format", fmt)
        assert (code, err) == (2, "")
        assert out == (GOLDEN / f"{command}.{ext}").read_text()

    # exact stderr and exit status of each error kind the CLI can reach
    @pytest.mark.parametrize(
        "argv,status,stderr",
        [
            (("build", "two two"), 1, {"error": "parse", "message": "bad token 'two'"}),
            (
                ("build", "2 2 3"),
                1,
                {"error": "legality", "message": "symbols not occurring exactly twice: [3]"},
            ),
            (
                ("check-range", str(GOLDEN / "pc.json")),
                1,
                {
                    "error": "invalid-graph",
                    "message": "graph data rejected",
                    "diagnostics": [
                        "missing key 'vertices'",
                        "missing key 'reality'",
                        "missing key 'desire'",
                    ],
                },
            ),
            (
                ("recover", str(FIXTURES / "theta_empty.json")),
                2,
                {
                    "error": "out-of-range",
                    "message": "graph is not isomorphic to any reduction graph",
                },
            ),
            (
                ("orbit", U_TEXT, "--max", "1"),
                2,
                {"error": "budget-exceeded", "message": "orbit exceeds 1 members"},
            ),
            (
                ("build",),
                1,
                {"error": "usage", "message": "the following arguments are required: string"},
            ),
        ],
        ids=["parse", "legality", "invalid-graph", "out-of-range", "budget-exceeded", "usage"],
    )
    def test_error(self, capsys, argv, status, stderr):
        assert run(capsys, *argv) == (status, "", json.dumps(stderr) + "\n")


def renamed(doc, names):
    # the graph document with each vertex id v replaced by names.get(v, v)
    out = {"vertices": [{**v, "id": names.get(v["id"], v["id"])} for v in doc["vertices"]]}
    for key in ("reality", "desire", "merge"):
        if key in doc:
            out[key] = [[names.get(a, a), names.get(b, b)] for a, b in doc[key]]
    return out


# vertex ids that json.dumps escapes: quotes, backslashes, control
# characters, non-ASCII letters and lone surrogates, among plain ones
SPECIAL = ['"', "\\", "\x00", "\x1f", "\n", "\x7f", "\xe9", "\u03a9", "\ud800", "\udfff", "I", "1", "'"]
JSON_IDS = st.text(st.sampled_from(SPECIAL) | st.characters(), min_size=1).filter(
    lambda v: v not in ("s", "t")
)


class TestGraphJsonWriter:
    # --format json of build and extend prints exactly json.dumps(doc, indent=2)
    @given(legal_string_strategy(), st.data())
    def test_equals_json_dumps(self, u, data):
        docs = [arg_to_json(build_reduction_graph(v)) for v in (EMPTY, u)]
        docs += [extended_to_json(build_extended_reduction_graph(v)) for v in (EMPTY, u)]
        # the extended graph of u again, its ids drawn, read back through validate_arg
        old = [v["id"] for v in docs[-1]["vertices"] if v["id"] not in ("s", "t")]
        new = data.draw(st.lists(JSON_IDS, min_size=len(old), max_size=len(old), unique=True))
        extended = renamed(docs[-1], dict(zip(old, new)))
        docs.append(arg_to_json(validate_arg({k: extended[k] for k in ("vertices", "reality", "desire")})))
        docs.append(extended_to_json(extended_from_json(extended)))
        for doc in docs:
            text = _graph_to_json(doc)
            assert text == json.dumps(doc, indent=2)
            assert text.isascii()


# a DOT quoted string: any character but a quote or backslash, or an escape
DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def dot_strings(line):
    return [re.sub(r"\\(.)", r"\1", q[1:-1]) for q in re.findall(DOT_STRING, line)]


class TestDotQuoting:
    # ids holding a quote or a trailing backslash: every statement still
    # parses, and its quoted strings give back the ids
    NAMES = {"I1": '"A', "I1'": "c", "I2": "a\\", "I2'": "d"}

    def test_pc(self, capsys, graph_file):
        doc = renamed(arg_to_json(build_reduction_graph(parse_legal_string("2 2"))), self.NAMES)
        code, out, err = run(capsys, "pc", graph_file("g.json", doc), "--format", "dot")
        assert (code, err) == (0, "")
        lines = out.splitlines()[1:-1]
        q = DOT_STRING
        assert all(re.fullmatch(rf"  {q}( -- {q} \[label={q}\])?;", line) for line in lines)
        assert [dot_strings(line) for line in lines] == [['"A'], ["a\\"], ['"A', "a\\", "2"]]

    def test_graph(self):
        g = build_extended_reduction_graph(parse_legal_string("2 2"))
        doc = renamed(extended_to_json(g), self.NAMES)
        lines = _graph_to_dot(doc).splitlines()[1:-1]
        q = DOT_STRING
        style = r"( \[style=(bold|dashed)\])?"
        assert all(re.fullmatch(rf"  ({q} \[label={q}\]|{q} -- {q}{style});", line) for line in lines)
        ids = [v["id"] for v in doc["vertices"]]
        assert [dot_strings(line) for line in lines[:6]] == [
            [v, str(p)] for v, p in zip(ids, [2, 2, 2, 2, "s", "t"])
        ]
        edges = [e for key in ("reality", "desire", "merge") for e in doc[key]]
        assert [dot_strings(line) for line in lines[6:]] == edges


class TestPc:
    def test_from_string(self, capsys):
        code, out, _ = run(capsys, "pc", U_TEXT)
        assert code == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 4
        assert len(data["edges"]) == 6
        assert data["bridges"] == [2, 3, 4, 6, 7]

    def test_from_file(self, capsys, graph_file):
        path = graph_file("g.json", arg_to_json(build_reduction_graph(parse_legal_string("2 2"))))
        code, out, _ = run(capsys, "pc", path)
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 2

    def test_text(self, capsys):
        code, out, _ = run(capsys, "pc", U_TEXT, "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("nodes: ")
        assert lines[-1] == "bridges: 2 3 4 6 7"

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "pc", U_TEXT, "--format", "dot")
        assert code == 0
        assert out.startswith("graph")

    def test_string_longer_than_a_file_name(self, capsys):
        # over 255 bytes: probing it as a path raises ENAMETOOLONG
        text = " ".join([str(p) for p in range(2, 258)] * 2)
        code, out, err = run(capsys, "pc", text)
        assert code == 0 and not err
        m = pointer_component_graph(build_reduction_graph(parse_legal_string(text)))
        assert {k: v for k, v in json.loads(out).items() if k != "bridges"} == pc_to_json(m)

    def test_bad_source(self, capsys):
        code, _, err = run(capsys, "pc", "no such source")
        assert code == 1
        assert error_payload(err)["error"] == "parse"


class TestCheckRange:
    def test_in_range(self, capsys, graph_file):
        path = graph_file("g.json", arg_to_json(build_reduction_graph(parse_legal_string(U_TEXT))))
        code, out, _ = run(capsys, "check-range", path)
        assert code == 0
        assert json.loads(out) == {"in_range": True, "reasons": []}

    def test_out_of_range(self, capsys):
        code, out, _ = run(capsys, "check-range", str(FIXTURES / "theta_empty.json"))
        assert code == 2
        data = json.loads(out)
        assert data["in_range"] is False
        assert data["reasons"]

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "check-range", str(FIXTURES / "theta_empty.json"), "--format", "text"
        )
        assert code == 2
        assert out.startswith("out of range")

    def test_malformed_graph(self, capsys, graph_file):
        path = graph_file("bad.json", {"vertices": []})
        code, _, err = run(capsys, "check-range", path)
        assert code == 1
        payload = error_payload(err)
        assert payload["error"] == "invalid-graph"
        assert payload["diagnostics"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check-range", str(tmp_path / "absent.json"))
        assert code == 1
        payload = error_payload(err)
        assert payload["error"] == "invalid-graph"
        assert any("cannot read" in d for d in payload["diagnostics"])

    def test_superscript_digit_ids(self, capsys, graph_file):
        # ids with a digit that is not a decimal digit sort as text
        data = json.dumps(arg_to_json(build_reduction_graph(parse_legal_string("2 3 -2 3"))))
        data = data.replace('"I1"', '"²"').replace('"I2"', '"I3²"')
        path = graph_file("g.json", json.loads(data))
        code, out, err = run(capsys, "check-range", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"in_range": True, "reasons": []}
        assert run(capsys, "pc", path)[0] == 0
        code, out, _ = run(capsys, "recover", path, "--format", "text")
        assert code == 0
        assert len(out.split()) == 4

    def test_unreadable_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "check-range", str(path))
        assert code == 1
        assert any("bad JSON" in d for d in error_payload(err)["diagnostics"])


class TestContainerTypes:
    # a container of the wrong type is rejected with one error line, no traceback
    @pytest.mark.parametrize(
        "command,data,diagnostic",
        [
            ("realize-pc", ["A"], "multigraph data must be an object"),
            (
                "realize-pc",
                {"nodes": ["A"], "edges": [{"ends": ["A"]}]},
                "bad edge entry {'ends': ['A']}",
            ),
            ("check-range", {"vertices": 3, "reality": [], "desire": []}, "'vertices' must be a list"),
            (
                "check-range",
                {"vertices": [{"id": "s"}, {"id": "t"}], "reality": 5, "desire": []},
                "'reality' must be a list of vertex pairs",
            ),
        ],
        ids=["multigraph-not-object", "edge-without-label", "vertices-int", "reality-int"],
    )
    def test_exits_1(self, capsys, graph_file, command, data, diagnostic):
        payload = {"error": "invalid-graph", "message": "graph data rejected"}
        payload["diagnostics"] = [diagnostic]
        assert run(capsys, command, graph_file("g.json", data)) == (1, "", json.dumps(payload) + "\n")


class TestOversizedInput:
    """Inputs past int()'s 4,300-digit limit or the recursion limit: a
    result or one JSON error line, never a traceback."""

    def test_long_digit_run_in_a_vertex_id(self, capsys, graph_file):
        data = json.dumps(arg_to_json(build_reduction_graph(parse_legal_string("2 3 -2 3"))))
        data = data.replace('"I1"', f'"x{"1" * 5000}"').replace('"I2"', f'"x{"1" * 4999}"')
        path = graph_file("g.json", json.loads(data))
        assert run(capsys, "check-range", path, "--format", "text") == (0, "in range\n", "")
        code, out, err = run(capsys, "pc", path)
        assert (code, err) == (0, "") and json.loads(out)["nodes"]
        code, out, err = run(capsys, "recover", path, "--format", "text")
        assert (code, err) == (0, "") and len(out.split()) == 4

    @pytest.mark.parametrize(
        "text,reason",
        [("[" * 100_000, "maximum recursion depth"), ('{"vertices": ' + "1" * 5000 + "}", "4300")],
        ids=["nested", "long-number"],
    )
    @pytest.mark.parametrize("command", ["recover", "check-range", "pc", "realize-pc"])
    def test_bad_json(self, capsys, tmp_path, command, text, reason):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, "")
        payload = error_payload(err)
        assert payload["error"] == "invalid-graph" and "Traceback" not in err
        [diagnostic] = payload["diagnostics"]
        assert diagnostic.startswith(f"bad JSON in {path}: ") and reason in diagnostic

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "recover", str(path))
        assert (code, out) == (1, "")
        assert error_payload(err)["diagnostics"][0].startswith(f"cannot read {path}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "{0} {0}"),
            ("extend", "{0} {0}"),
            ("pc", "{0} {0}"),
            ("reduce", "{0} -{0}"),
            ("orbit", "{0} {0}"),
            ("fiber-check", "2 2", "{0} {0}"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_long_token(self, capsys, argv):
        token = "2" * 5000
        code, out, err = run(capsys, *(a.format(token) for a in argv))
        assert (code, out) == (1, "")
        payload = error_payload(err)
        assert payload == {"error": "parse", "message": f"bad token {token!r}: too many digits"}


class TestRecover:
    def test_round_trip(self, capsys, graph_file):
        path = graph_file("g.json", arg_to_json(build_reduction_graph(parse_legal_string("2 2"))))
        code, out, _ = run(capsys, "recover", path)
        assert code == 0
        assert json.loads(out) == {"string": "2 2"}

    def test_text_format(self, capsys, graph_file):
        path = graph_file("g.json", arg_to_json(build_reduction_graph(parse_legal_string(U_TEXT))))
        code, out, _ = run(capsys, "recover", path, "--format", "text")
        assert code == 0
        assert out.strip() == "2 7 4 -7 3 5 3 -4 2 6 5 6"

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "recover", str(FIXTURES / "theta_empty.json"))
        assert code == 2
        assert error_payload(err)["error"] == "out-of-range"


class TestFiberCheck:
    def test_equivalent_pair(self, capsys):
        code, out, _ = run(capsys, "fiber-check", "2 -2", "-2 2")
        assert code == 0
        assert json.loads(out) == {"dual_equivalent": True}

    def test_inequivalent_pair(self, capsys):
        code, out, _ = run(capsys, "fiber-check", "2 2", "2 -2")
        assert code == 2
        assert json.loads(out) == {"dual_equivalent": False}

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "fiber-check", "2 2", "2 2", "--format", "text")
        assert code == 0
        assert out.strip() == "dual-equivalent"


class TestOrbit:
    def test_small_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "2 3 2 3")
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 3
        assert data["orbit"] == ["2 3 -2 3", "2 3 2 -3", "2 3 2 3"]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "orbit", "2 2", "--format", "text")
        assert code == 0
        assert out.strip() == "2 2"

    def test_budget_flag(self, capsys):
        code, _, err = run(capsys, "orbit", "2 3 2 3", "--max", "2")
        assert code == 2
        assert error_payload(err)["error"] == "budget-exceeded"

    def test_env_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("REDUKT_MAX_ORBIT", "2")
        code, _, err = run(capsys, "orbit", "2 3 2 3", "--max", "100")
        assert code == 2
        assert error_payload(err)["error"] == "budget-exceeded"

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("REDUKT_MAX_ORBIT", "lots")
        code, _, err = run(capsys, "orbit", "2 2")
        assert code == 1
        assert error_payload(err)["error"] == "usage"

    @pytest.mark.parametrize("budget", ["0", "-1", "lots"])
    def test_budget_flag_below_one(self, capsys, budget):
        code, out, err = run(capsys, "orbit", "2 2", "--max", budget)
        assert code == 1
        assert out == ""
        assert error_payload(err)["error"] == "usage"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_env_value_below_one(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("REDUKT_MAX_ORBIT", budget)
        code, _, err = run(capsys, "orbit", "2 3 2 3", "--max", "100")
        assert code == 1
        assert error_payload(err)["error"] == "usage"

    def test_budget_flag_past_the_int_digit_limit(self, capsys):
        # more digits than int() converts: the CLI's own usage message,
        # not argparse's "invalid _orbit_budget value"
        budget = "9" * 5000
        code, out, err = run(capsys, "orbit", "2 3 2 3", "--max", budget)
        assert (code, out) == (1, "")
        message = f"argument --max: orbit budget must be an integer >= 1, got '{budget}'"
        assert error_payload(err) == {"error": "usage", "message": message}

    def test_env_value_past_the_int_digit_limit(self, capsys, monkeypatch):
        budget = "9" * 5000
        monkeypatch.setenv("REDUKT_MAX_ORBIT", budget)
        code, out, err = run(capsys, "orbit", "2 3 2 3")
        assert (code, out) == (1, "")
        message = f"REDUKT_MAX_ORBIT: orbit budget must be an integer >= 1, got '{budget}'"
        assert error_payload(err) == {"error": "usage", "message": message}

    def test_budget_of_one(self, capsys, monkeypatch):
        monkeypatch.delenv("REDUKT_MAX_ORBIT", raising=False)
        code, out, _ = run(capsys, "orbit", "2 2", "--max", "1")
        assert code == 0
        assert json.loads(out)["size"] == 1


class TestRealizePc:
    def test_loop(self, capsys, graph_file):
        path = graph_file("m.json", {"nodes": ["A"], "edges": [{"label": 2, "ends": ["A"]}]})
        code, out, _ = run(capsys, "realize-pc", path)
        assert code == 0
        assert json.loads(out) == {"string": "2 -2"}

    def test_linear_flag(self, capsys, graph_file):
        path = graph_file(
            "m.json",
            {"nodes": ["A", "B"], "edges": [{"label": 2, "ends": ["A", "B"]}]},
        )
        code, out, _ = run(capsys, "realize-pc", path, "--linear", "B", "--format", "text")
        assert code == 0
        assert out.strip() == "2 2"

    def test_unknown_linear_node(self, capsys, graph_file):
        path = graph_file("m.json", {"nodes": ["A"], "edges": []})
        code, _, err = run(capsys, "realize-pc", path, "--linear", "Z")
        assert code == 1
        assert error_payload(err)["error"] == "invalid-graph"

    def test_disconnected(self, capsys, graph_file):
        path = graph_file(
            "m.json",
            {
                "nodes": ["A", "B"],
                "edges": [{"label": 2, "ends": ["A"]}, {"label": 3, "ends": ["B"]}],
            },
        )
        code, _, err = run(capsys, "realize-pc", path)
        assert code == 2
        assert error_payload(err)["error"] == "out-of-range"

    def test_empty_multigraph(self, capsys, graph_file):
        path = graph_file("m.json", {"nodes": [], "edges": []})
        code, out, err = run(capsys, "realize-pc", path)
        assert (code, out) == (2, "")
        assert error_payload(err)["error"] == "out-of-range"
        code, out, err = run(capsys, "realize-pc", path, "--linear", "A")
        assert (code, out) == (1, "")
        assert error_payload(err)["error"] == "invalid-graph"


class TestReduce:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "reduce", U_TEXT)
        assert code == 0
        assert json.loads(out) == {
            "rules": ["spr(4)", "spr(5)", "spr(2)", "snr(7)", "snr(3)", "snr(6)"]
        }

    def test_text(self, capsys):
        code, out, _ = run(capsys, "reduce", "2 3 2 3", "--format", "text")
        assert code == 0
        assert out.strip() == "sdr(2,3)"


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "no-such-command")
        assert code == 1
        assert error_payload(err)["error"] == "usage"

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "build")
        assert code == 1
        assert error_payload(err)["error"] == "usage"

    def test_bad_format_choice(self, capsys):
        code, _, err = run(capsys, "build", "2 2", "--format", "xml")
        assert code == 1
        assert error_payload(err)["error"] == "usage"


def test_console_script():
    # without an installed `redukt` script, run the same entry point from src
    exe = shutil.which("redukt")
    env = None
    cmd = [exe]
    if exe is None:
        src = str(Path(__file__).parents[1] / "src")
        path = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        cmd = [sys.executable, "-m", "redukt.cli"]
    proc = subprocess.run(
        [*cmd, "fiber-check", "2 -2", "-2 2"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"dual_equivalent": True}


def test_closed_reader_exits_1_without_a_traceback():
    # build at k=500 writes about 180 kB, far more than a pipe buffer holds;
    # the reader stops after one line, so the write fails with EPIPE
    src = str(Path(__file__).parents[1] / "src")
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    string = " ".join(str(p) for p in range(2, 502) for _ in "ab")
    cmd = [sys.executable, "-m", "redukt.cli", "build", string]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
    assert proc.returncode == 1
