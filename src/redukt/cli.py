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

Exit status: 0 success, 1 malformed input, 2 negative decision (graph
out of range, rule not applicable, orbit budget exceeded).  Errors are
reported as one JSON object on stderr.  Graph commands take
--format json|dot|text; string-valued commands take json|text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .flips import OutOfRangeError, is_reduction_graph, realize_pc, recover_legal_string
from .pcgraph import bridge_set, pc_to_dot, pc_to_json, pointer_component_graph
from .redgraph import (
    ARG,
    ExtendedARG,
    InvalidGraphError,
    arg_to_json,
    build_extended_reduction_graph,
    build_reduction_graph,
    extended_to_json,
    validate_arg,
)
from .rules import (
    NotApplicableError,
    OrbitLimitError,
    orbit,
    successful_reduction_search,
)
from .rules import dual_equivalent as _dual_equivalent
from .strings import (
    LegalityError,
    ParseError,
    format_legal_string,
    parse_legal_string,
)

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


def _print_json(data) -> None:
    print(json.dumps(data, indent=2))


def _load_json_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidGraphError([f"cannot read {path}: {exc}"]) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGraphError([f"bad JSON in {path}: {exc}"]) from exc


# DOT and text are formatters of the JSON document, so all three
# formats list vertices and edges in one order
_DOT_STYLES = {"reality": " [style=bold]", "desire": "", "merge": " [style=dashed]"}


def _graph_to_dot(data: dict) -> str:
    lines = ["graph reduction {"]
    for v in data["vertices"]:
        lines.append(f'  "{v["id"]}" [label="{v.get("label", v["id"])}"];')
    for key, style in _DOT_STYLES.items():
        lines += [f'  "{a}" -- "{b}"{style};' for a, b in data.get(key, ())]
    lines.append("}")
    return "\n".join(lines)


def _graph_to_text(data: dict) -> str:
    vs = (f"{v['id']}[{v['label']}]" if "label" in v else v["id"] for v in data["vertices"])
    lines = ["vertices: " + " ".join(vs)]
    for key in ("reality", "desire", "merge"):
        if key in data:
            lines.append(f"{key}: " + " ".join(f"{a}-{b}" for a, b in data[key]))
    return "\n".join(lines)


def _emit_graph(fmt: str, g: ARG | ExtendedARG) -> None:
    data = arg_to_json(g) if isinstance(g, ARG) else extended_to_json(g)
    if fmt == "json":
        _print_json(data)
    elif fmt == "dot":
        print(_graph_to_dot(data))
    else:
        print(_graph_to_text(data))


def _emit_string(fmt: str, u) -> None:
    text = format_legal_string(u)
    if fmt == "json":
        _print_json({"string": text})
    else:
        print(text)


def _cmd_build(args) -> int:
    g = build_reduction_graph(parse_legal_string(args.string))
    _emit_graph(args.format, g)
    return 0


def _cmd_extend(args) -> int:
    _emit_graph(args.format, build_extended_reduction_graph(parse_legal_string(args.string)))
    return 0


def _cmd_pc(args) -> int:
    try:
        is_file = Path(args.source).is_file()
    except OSError:  # ENAMETOOLONG: a legal string too long for a file name
        is_file = False
    if is_file:
        g = validate_arg(_load_json_file(args.source))
    else:
        g = build_reduction_graph(parse_legal_string(args.source))
    m = pointer_component_graph(g)
    bridges = sorted(bridge_set(m))
    if args.format == "json":
        out = pc_to_json(m)
        out["bridges"] = bridges
        _print_json(out)
    elif args.format == "dot":
        print(pc_to_dot(m))
    else:
        data = pc_to_json(m)
        print("nodes: " + " ".join(data["nodes"]))
        print(
            "edges: "
            + " ".join(f"{e['label']}:{'-'.join(e['ends'])}" for e in data["edges"])
        )
        print("bridges: " + " ".join(str(p) for p in bridges))
    return 0


def _cmd_check_range(args) -> int:
    g = validate_arg(_load_json_file(args.graph))
    in_range = is_reduction_graph(g)
    reasons = [] if in_range else ["pointer-component graph disconnected"]
    if args.format == "json":
        _print_json({"in_range": in_range, "reasons": reasons})
    else:
        print("in range" if in_range else "out of range: " + "; ".join(reasons))
    return 0 if in_range else 2


def _cmd_recover(args) -> int:
    u = recover_legal_string(validate_arg(_load_json_file(args.graph)))
    _emit_string(args.format, u)
    return 0


def _cmd_fiber_check(args) -> int:
    verdict = _dual_equivalent(parse_legal_string(args.u), parse_legal_string(args.v))
    if args.format == "json":
        _print_json({"dual_equivalent": verdict})
    else:
        print("dual-equivalent" if verdict else "not dual-equivalent")
    return 0 if verdict else 2


def _orbit_budget(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"orbit budget must be an integer >= 1, got {text!r}")
    return int(text)


def _max_orbit(args) -> int:
    env = os.environ.get("REDUKT_MAX_ORBIT")
    try:
        return args.max if env is None else _orbit_budget(env)
    except argparse.ArgumentTypeError:
        raise InvalidGraphError([f"bad REDUKT_MAX_ORBIT value {env!r}"]) from None


def _cmd_orbit(args) -> int:
    members = orbit(parse_legal_string(args.string), _max_orbit(args))
    texts = sorted(format_legal_string(u) for u in members)
    if args.format == "json":
        _print_json({"orbit": texts, "size": len(texts)})
    else:
        for t in texts:
            print(t)
    return 0


def _cmd_realize_pc(args) -> int:
    u = realize_pc(_load_json_file(args.multigraph), args.linear)
    _emit_string(args.format, u)
    return 0


def _cmd_reduce(args) -> int:
    rules = successful_reduction_search(parse_legal_string(args.string))
    if args.format == "json":
        _print_json({"rules": [str(r) for r in rules]})
    else:
        print(" ".join(str(r) for r in rules))
    return 0


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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        _emit_error("parse", str(exc))
        return 1
    except LegalityError as exc:
        _emit_error("legality", str(exc))
        return 1
    except InvalidGraphError as exc:
        _emit_error("invalid-graph", "graph data rejected", exc.diagnostics)
        return 1
    except OutOfRangeError as exc:
        _emit_error("out-of-range", str(exc))
        return 2
    except NotApplicableError as exc:
        _emit_error("not-applicable", str(exc))
        return 2
    except OrbitLimitError as exc:
        _emit_error("budget-exceeded", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
