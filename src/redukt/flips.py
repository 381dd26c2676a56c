"""Merge-legal edge sets, the flip action on them, and the algorithms
they support: deciding whether a graph is isomorphic to a reduction
graph, recovering a legal string from one, and realizing a prescribed
pointer-component graph.

A merge-legal set for a graph g is a desirable edge set (same-label
endpoints covering every labelled vertex exactly once) that avoids g's
desire edges.  For each symbol there are exactly two such matchings of
its four vertices, so the merge-legal sets number 2^|dom(g)| and the
per-symbol flip operations act on them as commuting involutions.  The
sets whose union with the reality edges connects the graph are exactly
the valid merge edge sets; finding one, when it exists, takes a
spanning tree of the pointer-component graph of reality plus an
arbitrary merge-legal set.
"""

from __future__ import annotations

from typing import Iterable

from .pcgraph import (
    PointerComponentGraph,
    is_connected,
    pc_from_json,
    pointer_component_graph,
    spanning_tree_pointers,
)
from .redgraph import (
    ARG,
    Edge,
    ExtendedARG,
    InvalidGraphError,
    _merge_partners,
    _pair,
    _positional_base,
    _walk,
    desire_partition,
    dom,
    legalization_representative,
    validate_arg,
)
from .strings import LegalString

MergeLegalSet = frozenset  # frozenset[Edge]
FlipSet = frozenset  # frozenset[int]


class OutOfRangeError(ValueError):
    """The graph is not isomorphic to any reduction graph."""


def is_merge_legal(g: ARG, e: Iterable[Edge]) -> bool:
    """Desirable for g's base and disjoint from g's desire edges."""
    idx = g._index  # outside the try: a malformed g raises InvalidGraphError, a ValueError
    try:
        _merge_partners(idx, frozenset(frozenset(x) for x in e))
    except ValueError:
        return False
    return True


def some_merge_legal(g: ARG) -> frozenset:
    """A deterministic merge-legal set.

    Per symbol, of the two matchings of its four vertices that avoid the
    desire edges, take the one containing the smallest non-desire pair
    (pairs ordered by sorted vertex ids).
    """
    ids = g._index.ids
    out: set[Edge] = set()
    for a, b, c, d in g._index.quads.values():
        # a is the smallest vertex and b its desire partner, c < d
        out.add(_pair(ids[a], ids[c]))
        out.add(_pair(ids[b], ids[d]))
    return frozenset(out)


def is_theta(g: ARG, e: Iterable[Edge]) -> bool:
    """Whether reality plus e connects the graph; e must be merge-legal."""
    idx = g._index
    try:
        merge = _merge_partners(idx, frozenset(frozenset(x) for x in e))
    except ValueError:
        raise ValueError("edge set is not merge-legal for the graph") from None
    return len(_walk(idx.reality, merge, idx.s)) == len(idx.ids)


def _symbol_edges(g: ARG, edges: frozenset, p: int) -> tuple[frozenset, frozenset, frozenset]:
    """p's edges in edges, and p's two matchings that avoid the desire edges."""
    (a, b), (c, d) = desire_partition(g, p)
    pairs = (_pair(a, c), _pair(b, d), _pair(a, d), _pair(b, c), _pair(a, b), _pair(c, d))
    own = frozenset(x for x in pairs if x in edges)
    return own, frozenset(pairs[:2]), frozenset(pairs[2:4])


def flip(g: ARG, e: Iterable[Edge], p: int) -> frozenset:
    """Swap the two p-edges of e for the other non-desire matching.

    e is assumed merge-legal; its edges on symbols other than p are kept
    unchanged.  Self-inverse, and flips for distinct symbols commute.
    """
    edges = frozenset(frozenset(x) for x in e)
    current, one, other = _symbol_edges(g, edges, p)
    if current not in (one, other):
        raise ValueError(f"edges of symbol {p} do not form a merge-legal matching")
    return (edges - current) | (other if current == one else one)


def flip_set(g: ARG, e: Iterable[Edge], d: Iterable[int]) -> frozenset:
    """Fold flip over the symbols of d; the order cannot matter.

    Each flip sees only its own symbol's edges, so the fold takes time
    linear in |e| + |d|.
    """
    symbols = frozenset(d)
    if not symbols <= dom(g):
        raise ValueError("flip set is not a subset of the domain")
    edges = frozenset(frozenset(x) for x in e)
    own = {p: _symbol_edges(g, edges, p)[0] for p in sorted(symbols)}
    return edges.difference(*own.values()).union(*(flip(g, own[p], p) for p in own))


def find_theta(g: ARG) -> frozenset | None:
    """Some merge edge set connecting the graph, or None when none exists.

    Start from any merge-legal set e.  Flipping the symbols of any
    spanning tree of the pointer-component graph of reality plus e
    connects the graph; not only spanning trees do.  That multigraph is
    connected iff the original pointer-component graph is, so its
    connectivity decides existence.
    """
    e = some_merge_legal(g)
    pc = pointer_component_graph(ARG(base=g.base, reality=g.reality, desire=e))
    if not is_connected(pc):
        return None
    return flip_set(g, e, spanning_tree_pointers(pc))


def _as_arg(data) -> ARG:
    return data if isinstance(data, ARG) else validate_arg(data)


def is_reduction_graph(data) -> bool:
    """Whether the data describes a graph isomorphic to a reduction
    graph: a valid abstract reduction graph whose pointer-component
    graph is connected.  False (not an error) on malformed data,
    whether raw or an ARG built directly."""
    try:
        return is_connected(pointer_component_graph(_as_arg(data)))
    except InvalidGraphError:
        return False


def recover_legal_string(data) -> LegalString:
    """A legal string whose reduction graph is isomorphic to the input.

    Raises OutOfRangeError when the graph is not one.  The result is the
    canonical member of its equivalence class.
    """
    g = _as_arg(data)
    e = find_theta(g)
    if e is None:
        raise OutOfRangeError("graph is not isomorphic to any reduction graph")
    return legalization_representative(ExtendedARG(arg=g, merge=e))


def realize_pc(m, linear_node: str | None = None) -> LegalString:
    """A legal string whose reduction graph has the given
    pointer-component graph, up to multigraph isomorphism.

    Every nonempty connected multigraph with distinct symbol edges is realizable.
    Each node becomes one component: its incident symbols (loops twice)
    are laid out as desire edges on an alternating cycle, except the
    linear node, which hosts the s-t path.  linear_node defaults to the
    smallest node id.
    """
    if not isinstance(m, PointerComponentGraph):
        m = pc_from_json(m)
    if linear_node is None:
        if not m.nodes:
            raise OutOfRangeError("the empty multigraph is no pointer-component graph")
        linear_node = min(m.nodes)
    if linear_node not in m.nodes:
        raise InvalidGraphError([f"unknown node {linear_node!r}"])
    if not is_connected(m):
        raise OutOfRangeError("a disconnected multigraph is no pointer-component graph")

    # slots in sorted node order; slot j becomes the desire edge Ij-Ij',
    # ids whose natural order is known without sorting
    slots: dict[str, list[int]] = {n: [] for n in sorted(m.nodes)}
    for p in sorted(m.endpoints):
        ends = sorted(m.endpoints[p])
        if len(ends) == 1:
            slots[ends[0]] += [p, p]
        else:
            slots[ends[0]].append(p)
            slots[ends[1]].append(p)

    base, all_heads, all_tails = _positional_base([p for ps in slots.values() for p in ps])
    reality: set[Edge] = set()
    done = 0
    for node, symbols in slots.items():
        k = len(symbols)
        heads, tails = all_heads[done : done + k], all_tails[done : done + k]
        done += k
        if node == linear_node:
            if k == 0:
                reality.add(frozenset({"s", "t"}))
            else:
                reality.add(frozenset({"s", heads[0]}))
                reality.add(frozenset({tails[-1], "t"}))
                reality.update(frozenset({tails[i], heads[i + 1]}) for i in range(k - 1))
        else:
            # connectivity guarantees k >= 1 here, so the cycle is real
            reality.update(frozenset({tails[i], heads[(i + 1) % k]}) for i in range(k))

    desire = frozenset(map(_pair, all_heads, all_tails))
    return recover_legal_string(ARG(base=base, reality=frozenset(reality), desire=desire))


__all__ = [
    "FlipSet",
    "MergeLegalSet",
    "OutOfRangeError",
    "find_theta",
    "flip",
    "flip_set",
    "is_merge_legal",
    "is_reduction_graph",
    "is_theta",
    "realize_pc",
    "recover_legal_string",
    "some_merge_legal",
]
