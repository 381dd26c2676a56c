"""Reduction graphs and their abstractions.

The reduction graph of a legal string u = p_1 ... p_n has vertices
I1, I1', ..., In, In' (two per position) plus two unlabelled endpoint
vertices s and t.  Reality edges follow the linear order of the string:
{s,I1}, {Ii',Ii+1} for 1 <= i <= n-1, and {In',t}.  Desire edges pair up
the two occurrences of every symbol: positions i < j carrying the same
symbol contribute {Ii',Ij} and {Ii,Ij'} when the occurrences are barred
alike, and {Ii,Ij} and {Ii',Ij'} when they are barred oppositely.  Every
vertex of position i is labelled with the unbarred symbol at i.

The builders number these vertices positionally: Ii is 2i-2 and Ii' is
2i-1, then s is 2n and t is 2n+1, which is also the natural order of the
ids.  So the reality edges pair the chain s, 0, 1, ..., 2n-1, t two by
two, and the generic merge edges {Ii, Ii'} pair each v < 2n with v^1.

An abstract reduction graph is any graph of this shape: every label has
exactly four vertices, the reality edges form a perfect matching of all
vertices including s and t, and the desire edges cover every labelled
vertex exactly once with same-label endpoints.  Since each vertex lies
on at most one reality and at most one desire edge, such a graph is a
disjoint union of one alternating s-t path and zero or more alternating
cycles.  The canonical form below encodes exactly that decomposition, so
two graphs are isomorphic (by a label-preserving bijection fixing s and
t) if and only if their canonical forms are equal.

A graph extended with merge edges restores the linear order: reality and
merge edges together form a single alternating path from s to t through
every vertex.  Reading labels along that path, and signs off the way
desire edges cross it, recovers a legal string.

JSON schema shared with the command line front end:

    {"vertices": [{"id": "I1", "label": 2}, ..., {"id": "s"}, {"id": "t"}],
     "reality": [["s", "I1"], ...],
     "desire":  [["I1", "I9'"], ...],
     "merge":   [["I1", "I1'"], ...]}        (merge is optional)

The two unlabelled vertices must have ids "s" and "t".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Mapping

from .strings import LegalString, _from_word, _is_symbol, _scan

Edge = frozenset  # frozenset[str] with exactly two vertex ids

class InvalidGraphError(ValueError):
    """Raised when raw graph data violates the required shape.

    The .diagnostics attribute lists every violated condition.
    """

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True, eq=True)
class ColouredBase:
    """Vertices with two distinguished endpoints and a labelling map.

    label is defined exactly on vertices minus {s, t}; values are
    integer symbols >= 2.
    """

    vertices: frozenset[str]
    s: str
    t: str
    label: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.s == self.t or not {self.s, self.t} <= set(self.vertices):
            raise ValueError("s and t must be distinct vertices of the graph")
        if set(self.label) != set(self.vertices) - {self.s, self.t}:
            raise ValueError("label must be defined exactly on the non-endpoint vertices")


@dataclass(frozen=True, eq=True)
class ARG:
    """An abstract reduction graph: a coloured base plus reality and
    desire edge sets.  See the module docstring for the invariants."""

    base: ColouredBase
    reality: frozenset[Edge]
    desire: frozenset[Edge]

    @property
    def vertices(self) -> frozenset[str]:
        return self.base.vertices

    @property
    def s(self) -> str:
        return self.base.s

    @property
    def t(self) -> str:
        return self.base.t

    @property
    def label(self) -> Mapping[str, int]:
        return self.base.label

    # cached_property writes to the instance __dict__, outside the
    # dataclass fields, so ==, hash and repr ignore the cache
    @cached_property
    def _index(self) -> _Index:
        return _checked_index(self.base, self.reality, self.desire)


def _indexed(base: ColouredBase, reality: frozenset[Edge], desire: frozenset[Edge], idx: _Index) -> ARG:
    g = ARG(base=base, reality=reality, desire=desire)
    g.__dict__["_index"] = idx  # where ARG._index caches it
    return g


class _Index:
    """Integer view of an ARG, cached on it: by ARG._index on first use,
    or by the builders and validate_arg from the arrays they made.

    Vertices are numbered in the natural order of their ids: vertex i
    has id ids[i] (num is the inverse, made here unless given) and label
    label[i], 0 on s and t.  reality[i] and desire[i] are i's partners,
    desire -1 on s and t.  quads[p] = (a, b, c, d) lists p's four
    vertices with a-b and c-d its desire edges, a < b, c < d and a < c.
    The arrays are taken as given: _checked_index is what makes them from
    edge sets and checks them."""

    __slots__ = ("ids", "num", "label", "reality", "desire", "quads", "s")

    def __init__(self, ids: list[str], label: list[int], reality: list[int], desire: list[int], s: int,
                 num: dict[str, int] | None = None):
        self.ids, self.label, self.reality, self.desire, self.s = ids, label, reality, desire, s
        self.num = {v: i for i, v in enumerate(ids)} if num is None else num
        self.quads = quads = {}
        for v, w in enumerate(desire):
            if v < w and label[v] == label[w]:
                quads.setdefault(label[v], []).extend((v, w))


def _checked_index(base: ColouredBase, reality: Collection[Edge], desire: Collection[Edge]) -> _Index:
    """The index of a graph given by edges, vertices numbered in natural
    id order.  Raises InvalidGraphError when a shape condition of the
    module docstring fails, so every walk over the arrays ends within
    |V| steps; edges given as a list, one listed twice fails."""
    ids = sorted(base.vertices, key=_id_key)
    num = {v: i for i, v in enumerate(ids)}
    r, d = _partners(num, reality), _partners(num, desire)
    if None not in (r, d) and -1 not in r:
        idx = _Index(ids, [base.label.get(v, 0) for v in ids], r, d, num[base.s], num)
        # each labelled vertex, and no other, needs a desire partner in its class of four
        quads = idx.quads.items()
        if 4 * len(quads) == len(base.label) and all(len(q) == 4 and _is_symbol(p) for p, q in quads):
            return idx
    raise InvalidGraphError(_shape_problems(base.vertices, base.label, reality, desire))


def _partners(num: Mapping[str, int], edges: Iterable[Edge]) -> list[int] | None:
    """Partner array of a matching, or None when some edge is not a pair
    of distinct vertices of num or two edges share a vertex."""
    out = [-1] * len(num)
    for edge in edges:
        try:
            a, b = edge
            x, y = num[a], num[b]
        except (KeyError, TypeError, ValueError):
            return None
        if x == y or out[x] >= 0 or out[y] >= 0:
            return None
        out[x], out[y] = y, x
    return out


def _walk(first: list[int], second: list[int], start: int) -> list[int]:
    """The walk from start stepping along the first partner array, then
    the second, and so on, until it closes at start or meets a vertex
    without partner (-1).  Every component over two matchings is a path
    or a cycle, so this finds it; a walk longer than |V| raises."""
    arrays = (second, first)
    walk, v = [start], first[start]
    while v != start and v >= 0:
        if len(walk) == len(first):
            raise InvalidGraphError(["alternating walk longer than the vertex count"])
        walk.append(v)
        v = arrays[len(walk) % 2][v]
    return walk


def _decompose(idx: _Index) -> list[list[int]]:
    """The s-t path, then every cycle, of reality plus desire edges."""
    seen = [False] * len(idx.ids)
    walks = []
    for start in [idx.s, *range(len(seen))]:
        if not seen[start]:
            walk = _walk(idx.reality, idx.desire, start)
            for v in walk:
                seen[v] = True
            walks.append(walk)
    return walks


def dom(g: ARG) -> frozenset[int]:
    """The set of symbols used as vertex labels."""
    return frozenset(g.label.values())


@dataclass(frozen=True, eq=True)
class ExtendedARG:
    """An abstract reduction graph together with merge edges.

    The merge edges must be desirable, disjoint from the desire edges,
    and reality plus merge edges must connect the graph, which forces a
    unique alternating s-t path through every vertex.
    """

    arg: ARG
    merge: frozenset[Edge]

    def __post_init__(self) -> None:
        idx = self.arg._index
        merge = _merge_partners(idx, self.merge)
        path = _walk(idx.reality, merge, idx.s)
        if len(path) != len(merge):
            raise ValueError("reality and merge edges do not connect the graph")
        # the merge partners, s-t path and path positions, cached outside
        # the dataclass fields
        pos = [0] * len(path)
        for k, v in enumerate(path):
            pos[v] = k
        self.__dict__.update(_merge=merge, _path=path, _pos=pos)


def _merge_partners(idx: _Index, edges: Collection[Edge]) -> list[int]:
    """Partner array of a merge-legal edge set: same-label pairs of
    labelled vertices, no desire edge among them, covering every labelled
    vertex exactly once.  Raises ValueError naming the first violation,
    with the edges taken in the order of their ends' vertex numbers, so
    that the message does not depend on set iteration order."""
    try:
        return _merge_array(idx, edges)
    except ValueError:
        pass
    # only on the error path: the same check again, edges sorted, raises
    n = len(idx.ids)
    return _merge_array(idx, sorted(edges, key=lambda e: sorted((idx.num.get(v, n), repr(v)) for v in e)))


def _merge_array(idx: _Index, edges: Iterable[Edge]) -> list[int]:
    merge = [-1] * len(idx.ids)
    overlap = False
    for e in edges:
        x, y = (idx.num.get(v) for v in e)
        if x is None or y is None or not idx.label[x] or idx.label[x] != idx.label[y]:
            # key=str: an edge passed to is_merge_legal may hold non-string ends
            raise ValueError(f"merge edge {sorted(e, key=str)} does not join equal labels")
        if idx.desire[x] == y:
            raise ValueError(f"merge edge {sorted(e)} is also a desire edge")
        overlap = overlap or merge[x] >= 0 or merge[y] >= 0
        merge[x], merge[y] = y, x
    if any(p and m < 0 for p, m in zip(idx.label, merge)):
        raise ValueError("merge edges must cover every labelled vertex exactly once")
    if overlap:
        raise ValueError("merge edges overlap")
    return merge


@dataclass(frozen=True, eq=True)
class CanonicalForm:
    """Complete isomorphism invariant of an abstract reduction graph.

    path_word: the labels along the unique s-t path, in order from s.
    cycle_words: one canonical word per alternating cycle, sorted; each
    word lists (edge colour, label of the vertex stepped onto) pairs and
    is minimal over every starting vertex and both directions.
    """

    path_word: tuple[int, ...]
    cycle_words: tuple[tuple[tuple[int, int], ...], ...]


_split_digit_runs = re.compile(r"(\d+)").split


def _id_key(v: str) -> list:
    # natural sort: "I10'" sorts after "I2" and before "s"/"t".  The split
    # alternates text and digit runs, so the key is text, run value, text,
    # ..., text, then -1 and the raw id: -1 sorts below every run value
    # ("Ix" < "Ix2"), and the raw id orders ids equal up to leading zeros
    # ("x01" < "x1").  \d and int() accept the same decimal digits, not "²"
    parts = _split_digit_runs(v)
    try:
        parts[1::2] = map(int, parts[1::2])
    except ValueError:
        # a run past int()'s digit limit: Decimal has none and compares
        # exactly with int; imported here, since no common id needs it
        from decimal import Decimal
        parts[1::2] = map(Decimal, parts[1::2])
    parts += (-1, v)
    return parts


def _positional(symbols: list[int], chains: Iterable[list[int]], desire: list[int]) -> ARG:
    """The graph on I1, I1', ..., In, In', s, t for the n symbols, numbered
    0 ... 2n+1 in their natural order, as in the module docstring.  Reality
    edges join each chain two by two; desire partners vertices 0 ... 2n-1."""
    ids = [v for i in range(1, len(symbols) + 1) for v in (f"I{i}", f"I{i}'")] + ["s", "t"]
    reality = [-1] * len(ids)
    for chain in chains:
        for v, w in zip(chain[::2], chain[1::2]):
            reality[v], reality[w] = w, v
    label = [p for p in symbols for _ in "ab"]
    base = ColouredBase(vertices=frozenset(ids), s="s", t="t", label=dict(zip(ids, label)))
    idx = _Index(ids, label + [0, 0], reality, desire + [-1, -1], len(ids) - 2)
    return _indexed(base, _edge_set(ids, reality), _edge_set(ids, desire), idx)


def build_reduction_graph(u: LegalString) -> ARG:
    """Construct the reduction graph of a legal string."""
    n, w = len(u), u._word
    desire = [-1] * (2 * n)
    for i, j in u._occ.values():
        # barred alike: Ii'-Ij and Ii-Ij'; barred oppositely: Ii-Ij and Ii'-Ij'
        a, b = (2 * i + 1, 2 * i) if w[i] == w[j] else (2 * i, 2 * i + 1)
        desire[a], desire[2 * j], desire[b], desire[2 * j + 1] = 2 * j, a, 2 * j + 1, b
    return _positional(list(map(abs, w)), [[2 * n, *range(2 * n), 2 * n + 1]], desire)


def build_extended_reduction_graph(u: LegalString) -> ExtendedARG:
    """The reduction graph of u plus the generic merge edges {Ii, Ii'}."""
    g = build_reduction_graph(u)
    return ExtendedARG(arg=g, merge=_edge_set(g._index.ids, [v ^ 1 for v in range(2 * len(u))]))


def arg_diagnostics(data) -> list[str]:
    """Check raw graph data against the required shape.

    Returns a list of violated conditions, empty when the data describes
    a valid abstract reduction graph.
    """
    problems, parsed = _read_graph(data, ("reality", "desire"))
    return problems if parsed is None else _shape_problems(*parsed)


def _read_graph(data, keys: tuple[str, ...]) -> tuple[list[str], tuple | None]:
    # checks of the raw data: (problems, None), or ([], (ids, label, *edge lists of keys))
    if not isinstance(data, Mapping):
        return ["graph data must be a JSON object"], None
    problems = [f"missing key {key!r}" for key in ("vertices", *keys) if key not in data]
    if problems:
        return problems, None

    label: dict[str, int] = {}
    ids: set[str] = set()
    unlabelled: list[str] = []
    if not isinstance(data["vertices"], list):
        return ["'vertices' must be a list"], None
    for entry in data["vertices"]:
        mapping = type(entry) is dict or isinstance(entry, Mapping)  # the ABC check is slow
        if not mapping or "id" not in entry or not isinstance(entry["id"], str):
            problems.append(f"bad vertex entry {entry!r}")
            continue
        vid = entry["id"]
        if vid in ids:
            problems.append(f"duplicate vertex id {vid!r}")
            continue
        ids.add(vid)
        if "label" in entry:
            value = entry["label"]
            if not (type(value) is int and value >= 2 or _is_symbol(value)):
                problems.append(f"vertex {vid!r} has bad label {value!r}")
            else:
                label[vid] = value
        else:
            unlabelled.append(vid)
    if sorted(unlabelled) != ["s", "t"]:
        problems.append(f"unlabelled vertices must be exactly 's' and 't', got {sorted(unlabelled)}")
    if problems:
        return problems, None

    def read_edges(key: str) -> list[Edge] | None:
        if not isinstance(data[key], list):
            problems.append(f"{key!r} must be a list of vertex pairs")
            return None
        out = []
        for raw in data[key]:
            a, b = raw if isinstance(raw, list) and len(raw) == 2 else (None, None)
            if not (isinstance(a, str) and isinstance(b, str)):
                problems.append(f"bad {key} edge {raw!r}")
                continue
            if a not in ids or b not in ids:
                problems.append(f"{key} edge {raw!r} mentions an unknown vertex")
                continue
            if a == b:
                problems.append(f"{key} edge {raw!r} is a loop")
                continue
            out.append(frozenset(raw))
        return out

    edges = [read_edges(key) for key in keys]
    if problems or None in edges:
        return problems, None
    return problems, (ids, label, *edges)


def _shape_problems(vertices, label, reality, desire) -> list[str]:
    """Every violated shape condition of a graph whose unlabelled
    vertices are exactly its two endpoints.  Only the vertices and edges
    reported are sorted, in natural id order, so a valid graph costs one
    pass over its edges and the report does not depend on set order."""
    problems = [
        f"vertex {v!r} has bad label {label[v]!r}"
        for v in sorted((v for v in label if not _is_symbol(label[v])), key=_id_key)
    ]
    for key, edges in (("reality", reality), ("desire", desire)):
        bad = [e for e in edges if len(e) != 2 or not set(e) <= vertices]
        # key=str: an edge of a directly built ARG may hold non-string ends
        for e in sorted(bad, key=lambda e: sorted(_id_key(str(v)) for v in e)):
            problems.append(f"{key} edge {sorted(e, key=str)} is not a pair of distinct vertices")
    if problems:
        return problems

    # condition (1): every used label occurs on exactly four vertices
    counts: dict[int, int] = {}
    for v in label.values():
        counts[v] = counts.get(v, 0) + 1
    for p in sorted(p for p, c in counts.items() if c != 4):
        problems.append(f"label {p} occurs on {counts[p]} vertices, expected 4")

    # condition (2): reality edges form a perfect matching of all vertices
    seen = dict.fromkeys(vertices, 0)
    for e in reality:
        for v in e:
            seen[v] += 1
    for v in sorted((v for v, c in seen.items() if c != 1), key=_id_key):
        problems.append(f"vertex {v!r} lies in {seen[v]} reality edges, expected exactly 1")

    # condition (3): desire edges are desirable
    dcount = dict.fromkeys(label, 0)
    bad = []
    for e in desire:
        a, b = sorted(e)
        if a not in label or b not in label:
            bad.append((a, b, "touches an unlabelled vertex"))
            continue
        if label[a] != label[b]:
            bad.append((a, b, f"joins labels {label[a]} and {label[b]}"))
        dcount[a] += 1
        dcount[b] += 1
    for a, b, problem in sorted(bad, key=lambda x: (_id_key(x[0]), _id_key(x[1]))):
        problems.append(f"desire edge {[a, b]} {problem}")
    for v in sorted((v for v, c in dcount.items() if c != 1), key=_id_key):
        problems.append(f"vertex {v!r} lies in {dcount[v]} desire edges, expected exactly 1")
    return problems


def validate_arg(data) -> ARG:
    """Build a typed graph from raw data, raising InvalidGraphError with
    the full list of violated conditions when the shape is wrong."""
    return _validated(data, ("reality", "desire"))[0]


def extended_from_json(data) -> ExtendedARG:
    """Build an extended graph from raw data carrying a merge edge set."""
    g, merge = _validated(data, ("reality", "desire", "merge"))
    try:
        return ExtendedARG(arg=g, merge=frozenset(merge))
    except ValueError as exc:
        raise InvalidGraphError([str(exc)]) from exc


def _validated(data, keys: tuple[str, ...]) -> tuple:
    # the graph read from data, then the edge lists of the keys after reality and desire
    problems, parsed = _read_graph(data, keys)
    if parsed is None:
        raise InvalidGraphError(problems)
    ids, label, reality, desire, *rest = parsed
    base = ColouredBase(vertices=frozenset(ids), s="s", t="t", label=label)
    idx = _checked_index(base, reality, desire)  # from the lists: an edge listed twice fails
    return _indexed(base, frozenset(reality), frozenset(desire), idx), *rest


def _matching(ids: list[str], partner: list[int]) -> list[list[str]]:
    # vertices are numbered in natural id order and each lies on at most
    # one edge, so listing every edge from its smaller end sorts the edges
    return [[ids[v], ids[w]] for v, w in enumerate(partner) if v < w]


def _edge_set(ids: list[str], partner: list[int]) -> frozenset[Edge]:
    # _matching's edges as an ARG field, made from tuples, not its slower lists
    return frozenset([frozenset((ids[v], ids[w])) for v, w in enumerate(partner) if v < w])


def arg_to_json(g: ARG) -> dict:
    idx = g._index
    return {
        "vertices": [{"id": v, "label": p} if p else {"id": v} for v, p in zip(idx.ids, idx.label)],
        "reality": _matching(idx.ids, idx.reality),
        "desire": _matching(idx.ids, idx.desire),
    }


def extended_to_json(e: ExtendedARG) -> dict:
    out = arg_to_json(e.arg)
    out["merge"] = _matching(e.arg._index.ids, e._merge)
    return out


def _quad(g: ARG, p: int) -> tuple[int, int, int, int]:
    # p's four vertices, as _Index.quads lists them; a non-symbol is absent
    quads = g._index.quads
    if not (_is_symbol(p) and p in quads):
        raise ValueError(f"symbol {p} not in the domain of the graph")
    return quads[p]


def desire_partition(g: ARG, p: int) -> frozenset[Edge]:
    """The two desire edges whose endpoints carry label p."""
    a, b, c, d = (g._index.ids[v] for v in _quad(g, p))
    return frozenset({frozenset((a, b)), frozenset((c, d))})


def components(g: ARG) -> list[frozenset[str]]:
    """Connected components over reality and desire edges together."""
    ids = g._index.ids
    return [frozenset(ids[v] for v in walk) for walk in _decompose(g._index)]


def canonical_form(g: ARG) -> CanonicalForm:
    """Canonical form of the path plus cycle decomposition."""
    label = g._index.label
    path, *cycles = _decompose(g._index)
    cycle_words = tuple(sorted(_canonical_cycle_word([label[v] for v in c]) for c in cycles))
    return CanonicalForm(path_word=tuple(label[v] for v in path[1:-1]), cycle_words=cycle_words)


def _canonical_cycle_word(labels: list[int]) -> tuple[tuple[int, int], ...]:
    # labels of a cycle's vertices in traversal order; consecutive edges
    # alternate reality, desire, reality, ... starting from the first.
    # A step is (edge colour, label of the vertex stepped onto); stepping
    # back from cycle[i] to cycle[i-1] takes the colour of edge (i-1, i).
    m = len(labels)
    forward = tuple((i % 2, labels[(i + 1) % m]) for i in range(m))
    backward = tuple((i % 2, labels[i]) for i in range(m - 1, -1, -1))
    # the least rotation starts with the least step; a label sits on four
    # vertices, so at most eight rotations do
    first = min(min(forward), min(backward))
    return min(w[i:] + w[:i] for w in (forward, backward) for i in range(m) if w[i] == first)


def are_isomorphic(g: ARG, h: ARG) -> bool:
    """Label-preserving isomorphism with s and t fixed, via canonical forms."""
    return canonical_form(g) == canonical_form(h)


def st_path(e: ExtendedARG) -> tuple[str, ...]:
    """The unique alternating reality/merge path from s to t, as vertices."""
    ids = e.arg._index.ids
    return tuple(ids[v] for v in e._path)


NEGATIVE = "negative"
POSITIVE = "positive"


def pointer_sign(e: ExtendedARG, p: int) -> str:
    """Whether p is negative or positive in the extended graph.

    p is negative when its two desire edges connect opposite sides of
    their two merge pairs (the parallel configuration along the path),
    positive when they connect equal sides (the crossing one).
    """
    # ends an odd distance apart along the path lie on opposite sides
    pos = e._pos
    a, b, c, d = _quad(e.arg, p)
    if (pos[a] - pos[b]) % 2 != (pos[c] - pos[d]) % 2:
        raise ValueError(f"desire edges of {p} are inconsistent with the path")
    return NEGATIVE if (pos[a] - pos[b]) % 2 else POSITIVE


def legalization_representative(e: ExtendedARG) -> LegalString:
    """The canonical member of the set of legal strings read off e.

    Letters are the labels along the s-t path, one per merge pair; the
    second occurrence of a symbol is barred exactly when the symbol is
    positive in the graph, so first occurrences are unbarred.
    """
    label = e.arg._index.label
    seen: set[int] = set()
    word = []
    for p in (label[v] for v in e._path[1:-1:2]):
        word.append(-p if p in seen and pointer_sign(e, p) == POSITIVE else p)
        seen.add(p)
    return _from_word(tuple(word), _scan(word)[1])


def extended_canonical_form(e: ExtendedARG):
    """Complete invariant for extended graphs.

    The s-t path through all vertices forces any isomorphism to match
    path positions, so the pair labels along the path plus the desire
    edges written as position pairs determine the graph up to
    isomorphism.
    """
    idx, pos = e.arg._index, e._pos
    word = tuple(idx.label[v] for v in e._path[1:-1:2])
    desire = sorted(tuple(sorted((pos[v], pos[w]))) for v, w in enumerate(idx.desire) if v < w)
    return word, tuple(desire)


def are_isomorphic_extended(e1: ExtendedARG, e2: ExtendedARG) -> bool:
    return extended_canonical_form(e1) == extended_canonical_form(e2)


__all__ = [
    "ARG",
    "CanonicalForm",
    "ColouredBase",
    "ExtendedARG",
    "InvalidGraphError",
    "NEGATIVE",
    "POSITIVE",
    "arg_diagnostics",
    "arg_to_json",
    "are_isomorphic",
    "are_isomorphic_extended",
    "build_extended_reduction_graph",
    "build_reduction_graph",
    "canonical_form",
    "components",
    "desire_partition",
    "dom",
    "extended_canonical_form",
    "extended_from_json",
    "extended_to_json",
    "legalization_representative",
    "pointer_sign",
    "st_path",
    "validate_arg",
]
