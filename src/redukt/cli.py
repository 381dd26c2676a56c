"""Command-line front end.

Subcommands
    build "<string>"            reduction graph of a legal string
    extend "<string>"           the same graph with merge edges
    pc <graph.json|string>      pointer-component graph + bridge set
    check-range <graph.json>    is the graph isomorphic to a reduction graph
    recover <graph.json>        a legal string realizing the graph
    fiber-check "<u>" "<v>"     do u and v share a reduction graph
    orbit "<u>" [--max N]       all canonical fiber members of u
    realize-pc <m.json> [--linear NODE]   a string with the given
                                pointer-component graph
    reduce "<u>"                a successful reduction sequence

Each command computes one JSON document.  --format json (the default)
writes it; --format text, and dot for the graph commands build, extend
and pc, write a rendering of it.  The other commands take json|text.

Exit status: 0 success, 1 malformed input, 2 negative decision.  A
graph out of range (check-range) or a pair that is not dual-equivalent
(fiber-check) exits 2 with its document on stdout.  Every error is one
JSON object {"error": kind, "message": ...} on stderr instead; kinds
parse, legality, invalid-graph (with "diagnostics") and usage exit 1,
out-of-range, not-applicable and budget-exceeded exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .flips import OutOfRangeError, is_reduction_graph, realize_pc, recover_legal_string
from .pcgraph import _dot_str, bridge_set, pc_to_dot, pc_to_json, pointer_component_graph
from .redgraph import (
    InvalidGraphError,
    arg_to_json,
    build_extended_reduction_graph,
    build_reduction_graph,
    extended_to_json,
    validate_arg,
)
from .rules import NotApplicableError, OrbitLimitError, orbit, successful_reduction_search
from .rules import dual_equivalent as _dual_equivalent
from .strings import LegalityError, ParseError, format_legal_string, parse_legal_string

DEFAULT_MAX_ORBIT = 10000


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1 with the JSON error convention, not
    # argparse's default status 2
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(1)


def _emit_error(kind: str, message: str, diagnostics: list[str] | None = None) -> None:
    payload: dict = {"error": kind, "message": message}
    if diagnostics:
        payload["diagnostics"] = diagnostics
    print(json.dumps(payload), file=sys.stderr)


def _load_json_file(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidGraphError([f"cannot read {path}: {exc}"]) from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a number past int()'s digit limit is a bare ValueError
        raise InvalidGraphError([f"bad JSON in {path}: {exc}"]) from exc


# DOT and text are renderings of a command's JSON document, so all three
# formats list vertices and edges in one order
_DOT_STYLES = {"reality": " [style=bold]", "desire": "", "merge": " [style=dashed]"}


def _graph_to_json(data: dict) -> str:
    # json.dumps(data, indent=2) of an arg_to_json or extended_to_json document, byte
    # for byte: with indent set, the stdlib encodes in pure Python, several times slower
    parts = []
    for key, items in data.items():
        if key == "vertices":
            lines = [
                f'{{\n      "id": {_json_str(v["id"])}'
                + (f',\n      "label": {v["label"]}' if "label" in v else "")
                + "\n    }"
                for v in items
            ]
        else:
            lines = [f"[\n      {_json_str(a)},\n      {_json_str(b)}\n    ]" for a, b in items]
        body = ",\n    ".join(lines)
        parts.append(f"  {_json_str(key)}: " + (f"[\n    {body}\n  ]" if lines else "[]"))
    return "{\n" + ",\n".join(parts) + "\n}"


def _graph_to_dot(data: dict) -> str:
    lines = ["graph reduction {"]
    for v in data["vertices"]:
        lines.append(f'  {_dot_str(v["id"])} [label={_dot_str(v.get("label", v["id"]))}];')
    for key, style in _DOT_STYLES.items():
        lines += [f"  {_dot_str(a)} -- {_dot_str(b)}{style};" for a, b in data.get(key, ())]
    lines.append("}")
    return "\n".join(lines)


def _graph_to_text(data: dict) -> str:
    vs = (f"{v['id']}[{v['label']}]" if "label" in v else v["id"] for v in data["vertices"])
    lines = ["vertices: " + " ".join(vs)]
    for key in ("reality", "desire", "merge"):
        if key in data:
            lines.append(f"{key}: " + " ".join(f"{a}-{b}" for a, b in data[key]))
    return "\n".join(lines)


def _pc_to_text(data: dict) -> str:
    edges = " ".join(f"{e['label']}:{'-'.join(e['ends'])}" for e in data["edges"])
    bridges = " ".join(str(p) for p in data["bridges"])
    return f"nodes: {' '.join(data['nodes'])}\nedges: {edges}\nbridges: {bridges}"


def _range_to_text(doc: dict) -> str:
    return "in range" if doc["in_range"] else "out of range: " + "; ".join(doc["reasons"])


# Each handler returns (exit status, JSON document, renderers): the
# renderers map a format to a function of the document; main writes the
# chosen one, or json.dumps(doc, indent=2) for a json without a renderer
_GRAPH = {"json": _graph_to_json, "dot": _graph_to_dot, "text": _graph_to_text}
_STRING = {"text": lambda doc: doc["string"]}
_RANGE = {"text": _range_to_text}
_FIBER = {"text": lambda doc: ("" if doc["dual_equivalent"] else "not ") + "dual-equivalent"}
_ORBIT = {"text": lambda doc: "\n".join(doc["orbit"])}
_RULES = {"text": lambda doc: " ".join(doc["rules"])}


def _cmd_build(args) -> tuple[int, dict, dict]:
    return 0, arg_to_json(build_reduction_graph(parse_legal_string(args.string))), _GRAPH


def _cmd_extend(args) -> tuple[int, dict, dict]:
    g = build_extended_reduction_graph(parse_legal_string(args.string))
    return 0, extended_to_json(g), _GRAPH


def _cmd_pc(args) -> tuple[int, dict, dict]:
    try:
        is_file = Path(args.source).is_file()
    except OSError:  # ENAMETOOLONG: a legal string too long for a file name
        is_file = False
    if is_file:
        g = validate_arg(_load_json_file(args.source))
    else:
        g = build_reduction_graph(parse_legal_string(args.source))
    m = pointer_component_graph(g)
    doc = {**pc_to_json(m), "bridges": sorted(bridge_set(m))}
    return 0, doc, {"dot": lambda doc: pc_to_dot(m), "text": _pc_to_text}


def _cmd_check_range(args) -> tuple[int, dict, dict]:
    in_range = is_reduction_graph(validate_arg(_load_json_file(args.graph)))
    reasons = [] if in_range else ["pointer-component graph disconnected"]
    return 0 if in_range else 2, {"in_range": in_range, "reasons": reasons}, _RANGE


def _cmd_recover(args) -> tuple[int, dict, dict]:
    u = recover_legal_string(validate_arg(_load_json_file(args.graph)))
    return 0, {"string": format_legal_string(u)}, _STRING


def _cmd_fiber_check(args) -> tuple[int, dict, dict]:
    verdict = _dual_equivalent(parse_legal_string(args.u), parse_legal_string(args.v))
    return 0 if verdict else 2, {"dual_equivalent": verdict}, _FIBER


def _orbit_budget(text: str) -> int:
    try:
        if text.strip().isdecimal() and int(text) >= 1:
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise argparse.ArgumentTypeError(f"orbit budget must be an integer >= 1, got {text!r}")


def _max_orbit(args) -> int:
    env = os.environ.get("REDUKT_MAX_ORBIT")
    try:
        return args.max if env is None else _orbit_budget(env)
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"REDUKT_MAX_ORBIT: {exc}") from None


def _cmd_orbit(args) -> tuple[int, dict, dict]:
    members = orbit(parse_legal_string(args.string), _max_orbit(args))
    texts = sorted(format_legal_string(u) for u in members)
    return 0, {"orbit": texts, "size": len(texts)}, _ORBIT


def _cmd_realize_pc(args) -> tuple[int, dict, dict]:
    u = realize_pc(_load_json_file(args.multigraph), args.linear)
    return 0, {"string": format_legal_string(u)}, _STRING


def _cmd_reduce(args) -> tuple[int, dict, dict]:
    rules = successful_reduction_search(parse_legal_string(args.string))
    return 0, {"rules": [str(r) for r in rules]}, _RULES


def _build_parser() -> _Parser:
    parser = _Parser(prog="redukt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, fmt_choices=("json", "dot", "text")):
        p = sub.add_parser(name)
        p.add_argument("--format", choices=fmt_choices, default="json")
        p.set_defaults(handler=handler)
        return p

    p = add("build", _cmd_build)
    p.add_argument("string")
    p = add("extend", _cmd_extend)
    p.add_argument("string")
    p = add("pc", _cmd_pc)
    p.add_argument("source", help="graph JSON file or legal string")
    p = add("check-range", _cmd_check_range, ("json", "text"))
    p.add_argument("graph")
    p = add("recover", _cmd_recover, ("json", "text"))
    p.add_argument("graph")
    p = add("fiber-check", _cmd_fiber_check, ("json", "text"))
    p.add_argument("u")
    p.add_argument("v")
    p = add("orbit", _cmd_orbit, ("json", "text"))
    p.add_argument("string")
    p.add_argument("--max", type=_orbit_budget, default=DEFAULT_MAX_ORBIT, help="orbit size budget")
    p = add("realize-pc", _cmd_realize_pc, ("json", "text"))
    p.add_argument("multigraph")
    p.add_argument("--linear", default=None, help="node hosting the s-t path")
    p = add("reduce", _cmd_reduce, ("json", "text"))
    p.add_argument("string")
    return parser


# exception class, error kind, exit status; the first match wins
_ERRORS = (
    (ParseError, "parse", 1),
    (LegalityError, "legality", 1),
    (InvalidGraphError, "invalid-graph", 1),
    (argparse.ArgumentTypeError, "usage", 1),
    (OutOfRangeError, "out-of-range", 2),
    (NotApplicableError, "not-applicable", 2),
    (OrbitLimitError, "budget-exceeded", 2),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, doc, renderers = args.handler(args)
    except tuple(cls for cls, _, _ in _ERRORS) as exc:
        kind, code = next((kind, code) for cls, kind, code in _ERRORS if isinstance(exc, cls))
        if isinstance(exc, InvalidGraphError):
            _emit_error(kind, "graph data rejected", exc.diagnostics)
        else:
            _emit_error(kind, str(exc))
        return code
    render = renderers.get(args.format)
    try:
        print(render(doc) if render else json.dumps(doc, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: per "Note on SIGPIPE" in the signal docs, exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
