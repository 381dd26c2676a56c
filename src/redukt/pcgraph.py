"""Pointer-component graphs: the component-level multigraph of a graph.

Nodes are the connected components of the underlying graph (over reality
and desire edges together); there is one edge per symbol, whose
endpoints are the components containing the four vertices labelled by
that symbol.  Since desire edges keep a symbol inside at most two
components, every symbol yields an ordinary edge or a loop.

Bridges (symbols joining two distinct components) admit the merge rule,
which fuses the two endpoint components and keeps the symbol as a loop.

JSON schema:

    {"nodes": ["C1", "C2"],
     "edges": [{"label": 2, "ends": ["C1", "C2"]},
               {"label": 3, "ends": ["C1"]}]}        (loops list one end)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .redgraph import ARG, InvalidGraphError, _Index, _decompose
from .strings import _is_symbol


@dataclass(frozen=True, eq=True)
class PointerComponentGraph:
    """A multigraph with one edge per symbol.

    endpoints maps each symbol to the 1- or 2-element set of incident
    nodes; a 1-element set is a loop.
    """

    nodes: frozenset[str]
    endpoints: Mapping[int, frozenset[str]]

    @property
    def edge_labels(self) -> frozenset[int]:
        return frozenset(self.endpoints)


BridgeSet = frozenset  # frozenset[int]


def pointer_component_graph(g: ARG) -> PointerComponentGraph:
    """The pointer-component graph of an abstract reduction graph.

    Node ids are the smallest vertex id of each component, under the
    natural order that puts I2 before I10.
    """
    return _pc(g._index)


def _pc(idx: _Index) -> PointerComponentGraph:
    name = idx.ids[:]
    for walk in _decompose(idx):
        first = idx.ids[min(walk)]
        for v in walk:
            name[v] = first
    # a-b and c-d are desire edges, so each lies inside one component
    endpoints = {p: frozenset((name[a], name[c])) for p, (a, _, c, _) in idx.quads.items()}
    return PointerComponentGraph(nodes=frozenset(name), endpoints=endpoints)


def bridge_set(m: PointerComponentGraph) -> frozenset[int]:
    """Symbols whose edge joins two distinct nodes."""
    return frozenset(p for p, ends in m.endpoints.items() if len(ends) == 2)


def merge_rule(m: PointerComponentGraph, p: int) -> PointerComponentGraph:
    """Fuse the two endpoint nodes of bridge p; p stays as a loop.

    The fused node gets the deterministic fresh id "m:<a>+<b>" from the
    sorted ids of the fused nodes, primed until no node has it.
    """
    ends = m.endpoints.get(p) if _is_symbol(p) else None
    if ends is None or len(ends) != 2:
        raise ValueError(f"symbol {p} is not a bridge")
    a, b = sorted(ends)
    fused = f"m:{a}+{b}"
    while fused in m.nodes:
        fused += "'"

    def rename(n: str) -> str:
        return fused if n in ends else n

    nodes = frozenset(rename(n) for n in m.nodes)
    endpoints = {q: frozenset(rename(n) for n in ns) for q, ns in m.endpoints.items()}
    return PointerComponentGraph(nodes=nodes, endpoints=endpoints)


def is_connected(m: PointerComponentGraph) -> bool:
    """Multigraph connectivity; loops are irrelevant."""
    return len(_forest(m)) >= len(m.nodes) - 1


def _forest(m: PointerComponentGraph) -> list[int]:
    """A spanning forest of the multigraph, as symbols: greedy over
    symbols in increasing order, skipping loops and edges inside an
    already-joined class."""
    uf = _UnionFind(m.nodes)
    bridges = (p for p in sorted(m.endpoints) if len(m.endpoints[p]) == 2)
    return [p for p in bridges if uf.union(*m.endpoints[p])]


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def is_well_coloured(g: ARG) -> bool:
    """No vertex bipartition separates the labels without cutting a
    reality edge.

    Computed by closing the vertex set under "joined by a reality edge"
    and "carry the same label" with union-find: the graph is
    well-coloured exactly when one class remains.  This is a different
    code path from is_connected(pointer_component_graph(g)), and the two
    must agree on every graph.
    """
    uf = _UnionFind(g.vertices)
    for e in g.reality:
        a, b = tuple(e)
        uf.union(a, b)
    by_symbol: dict[int, str] = {}
    for v, p in g.label.items():
        if p in by_symbol:
            uf.union(by_symbol[p], v)
        else:
            by_symbol[p] = v
    roots = {uf.find(v) for v in g.vertices}
    return len(roots) == 1


def spanning_tree_pointers(m: PointerComponentGraph) -> frozenset[int]:
    """A deterministic spanning tree of the multigraph, as symbols: the
    greedy forest of _forest.  It raises exactly when is_connected is
    False; the multigraph with no nodes is connected and its tree empty.
    """
    chosen = _forest(m)
    if len(chosen) < len(m.nodes) - 1:
        raise ValueError("pointer-component graph disconnected")
    return frozenset(chosen)


def pc_to_json(m: PointerComponentGraph) -> dict:
    edges = []
    for p in sorted(m.endpoints):
        edges.append({"label": p, "ends": sorted(m.endpoints[p])})
    return {"nodes": sorted(m.nodes), "edges": edges}


def pc_from_json(data) -> PointerComponentGraph:
    """Read the multigraph schema, rejecting malformed data."""
    if not isinstance(data, Mapping):
        raise InvalidGraphError(["multigraph data must be an object"])
    missing = [k for k in ("nodes", "edges") if k not in data]
    if missing:
        raise InvalidGraphError([f"missing key {k!r}" for k in missing])
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise InvalidGraphError(["'nodes' must be a list of strings"])
    if len(set(nodes)) != len(nodes):
        raise InvalidGraphError(["duplicate node ids"])
    node_set = frozenset(nodes)
    endpoints: dict[int, frozenset[str]] = {}
    if not isinstance(data["edges"], list):
        raise InvalidGraphError(["'edges' must be a list"])
    for entry in data["edges"]:
        if not isinstance(entry, Mapping) or "label" not in entry or "ends" not in entry:
            raise InvalidGraphError([f"bad edge entry {entry!r}"])
        p = entry["label"]
        if not _is_symbol(p):
            raise InvalidGraphError([f"bad edge label {p!r}"])
        if p in endpoints:
            raise InvalidGraphError([f"duplicate edge label {p}"])
        ends = entry["ends"]
        if not isinstance(ends, list) or not 1 <= len(ends) <= 2:
            raise InvalidGraphError([f"bad ends for edge {p}: {ends!r}"])
        for n in ends:
            if not isinstance(n, str) or n not in node_set:
                raise InvalidGraphError([f"unknown node {n!r} in ends of edge {p}"])
        endpoints[p] = frozenset(ends)
    return PointerComponentGraph(nodes=node_set, endpoints=endpoints)


def _dot_str(value) -> str:
    # a DOT quoted string: backslashes first, so the quotes' escapes stay single
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def pc_to_dot(m: PointerComponentGraph) -> str:
    """DOT rendering; loops come out as self-edges."""
    lines = ["graph pc {"]
    for n in sorted(m.nodes):
        lines.append(f"  {_dot_str(n)};")
    for p in sorted(m.endpoints):
        ends = sorted(m.endpoints[p])
        lines.append(f"  {_dot_str(ends[0])} -- {_dot_str(ends[-1])} [label={_dot_str(p)}];")
    lines.append("}")
    return "\n".join(lines)


__all__ = [
    "BridgeSet",
    "PointerComponentGraph",
    "bridge_set",
    "is_connected",
    "is_well_coloured",
    "merge_rule",
    "pc_from_json",
    "pc_to_dot",
    "pc_to_json",
    "pointer_component_graph",
    "spanning_tree_pointers",
]
