"""Independent reference code that checks redukt's CLI outputs.

Nothing here imports redukt.  Strings are tuples of (symbol, barred)
letters; graphs use integer vertices with reality and desire partner
arrays.  Every check recomputes the answer from the definitions in the
package docstrings:

* graph isomorphism (label-preserving, s and t fixed): equal label words
  along the s-t path and equal multisets of cycle words, each cycle word
  taken up to rotation and reflection with Booth's least-rotation
  algorithm;
* range: the pointer-component graph (components over reality plus
  desire, one edge per symbol) is connected;
* reduce: the rules are replayed here and must end at the empty string,
  using every symbol exactly once;
* orbit: breadth-first closure under dspr/dsdr over canonical
  representatives, implemented here.

Each check_* function returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import json
import re
from collections import deque

# --- strings ---------------------------------------------------------------


def parse_string(text: str) -> tuple:
    letters = []
    for tok in text.split():
        barred = tok.startswith("-")
        letters.append((int(tok[1:] if barred else tok), barred))
    return tuple(letters)


def format_string(letters) -> str:
    return " ".join(f"-{p}" if b else str(p) for p, b in letters)


def random_string(rng, k: int, bars: bool, first_symbol: int = 2) -> tuple:
    symbols = [first_symbol + i for i in range(k) for _ in range(2)]
    rng.shuffle(symbols)
    return tuple((p, bars and rng.random() < 0.5) for p in symbols)


def _where(u) -> dict:
    pos: dict = {}
    for i, (p, _) in enumerate(u):
        pos.setdefault(p, []).append(i)
    return pos


def _positive(u, pos, p) -> bool:
    i, j = pos[p]
    return u[i][1] != u[j][1]


def _inv(seg) -> tuple:
    return tuple((p, not b) for p, b in reversed(seg))


def canonical_rep(u) -> tuple:
    """First occurrences unbarred, second barred iff the symbol is positive."""
    pos = _where(u)
    return tuple((p, i != pos[p][0] and _positive(u, pos, p)) for i, (p, _) in enumerate(u))


def dspr(u, p: int) -> tuple:
    """u1 p u2 p u3 -> u1 p inv(u2) p u3, for p negative."""
    i, j = _where(u)[p]
    return u[: i + 1] + _inv(u[i + 1 : j]) + u[j:]


def dsdr(u, p: int, q: int) -> tuple:
    """u1 p u2 q u3 p' u4 q' u5 -> u1 p u4 q u3 p' u2 q' u5, p and q positive."""
    pos = _where(u)
    (i1, i2), (j1, j2) = pos[p], pos[q]
    return (
        u[: i1 + 1] + u[i2 + 1 : j2] + (u[j1],) + u[j1 + 1 : i2]
        + (u[i2],) + u[i1 + 1 : j1] + (u[j2],) + u[j2 + 1 :]
    )


def dsdr_partners(u, pos, p) -> list:
    """Positive symbols q whose first occurrence lies inside p's interval
    and whose second lies after it: dsdr(p, q) applies, p positive."""
    i1, i2 = pos[p]
    return [q for q, (j1, j2) in pos.items() if i1 < j1 < i2 < j2 and _positive(u, pos, q)]


def dual_images(u) -> list:
    """Every dspr/dsdr image of u (package docstring of rules.py)."""
    pos = _where(u)
    out = []
    for p in pos:
        if _positive(u, pos, p):
            out += [dsdr(u, p, q) for q in dsdr_partners(u, pos, p)]
        else:
            out.append(dspr(u, p))
    return out


def random_dual_image(rng, u) -> tuple:
    """One dspr or dsdr image of u, chosen at random; u must have a
    negative symbol or an overlapping positive pair."""
    pos = _where(u)
    symbols = list(pos)
    rng.shuffle(symbols)
    for p in symbols:
        if not _positive(u, pos, p):
            if rng.random() < 0.5:
                return dspr(u, p)
        else:
            partners = dsdr_partners(u, pos, p)
            if partners:
                return dsdr(u, p, rng.choice(partners))
    return dspr(u, next(p for p in symbols if not _positive(u, pos, p)))


def orbit(u, limit: int) -> set | None:
    """Canonical representatives reachable by dual rules; None past limit."""
    start = canonical_rep(u)
    seen = {start}
    queue = deque([start])
    while queue:
        for w in dual_images(queue.popleft()):
            w = canonical_rep(w)
            if w not in seen:
                if len(seen) >= limit:
                    return None
                seen.add(w)
                queue.append(w)
    return seen


_RULE = re.compile(r"(snr|spr|sdr)\((\d+)(?:,(\d+))?\)\Z")


def replay_reduction(u, rules: list) -> str | None:
    """Apply snr/spr/sdr as defined in the rules.py docstring."""
    used: set = set()
    for text in rules:
        m = _RULE.match(text)
        if not m:
            return f"bad rule {text!r}"
        kind, p = m.group(1), int(m.group(2))
        q = int(m.group(3)) if m.group(3) else None
        symbols = {p} if q is None else {p, q}
        if (kind == "sdr") != (q is not None) or symbols & used or len(symbols) != (1 if q is None else 2):
            return f"rule {text} reuses a symbol or has the wrong arity"
        used |= symbols
        pos = _where(u)
        if not symbols <= pos.keys():
            return f"rule {text}: symbol not in the string"
        i, j = pos[p]
        if kind == "snr":
            if j != i + 1 or u[i] != u[j]:
                return f"snr({p}) does not apply"
            u = u[:i] + u[j + 1 :]
        elif kind == "spr":
            if not _positive(u, pos, p):
                return f"spr({p}) does not apply"
            u = u[:i] + _inv(u[i + 1 : j]) + u[j + 1 :]
        else:
            j1, j2 = pos[q]
            if not (i < j1 < j < j2) or _positive(u, pos, p) or _positive(u, pos, q):
                return f"sdr({p},{q}) does not apply"
            u = u[:i] + u[j + 1 : j2] + u[j1 + 1 : j] + u[i + 1 : j1] + u[j2 + 1 :]
    if u:
        return f"reduction leaves {len(u)} letters"
    return None


# --- graphs ----------------------------------------------------------------


class Graph:
    """Integer vertices; label[v] is 0 on s and t; partner arrays hold -1
    where a vertex has no edge of that colour."""

    def __init__(self, label, reality, desire, s, t, merge=None):
        self.label, self.reality, self.desire = label, reality, desire
        self.s, self.t, self.merge = s, t, merge

    def __len__(self):
        return len(self.label)


def graph_of_string(u, with_merge: bool = False) -> Graph:
    """Vertices 2i (Ii) and 2i+1 (Ii') for position i; s = 2n, t = 2n+1."""
    n = len(u)
    s, t = 2 * n, 2 * n + 1
    label = [p for p, _ in u for _ in range(2)] + [0, 0]
    reality = [-1] * (2 * n + 2)

    def join(arr, a, b):
        arr[a], arr[b] = b, a

    if n == 0:
        join(reality, s, t)
    else:
        join(reality, s, 0)
        join(reality, 2 * n - 1, t)
        for i in range(n - 1):
            join(reality, 2 * i + 1, 2 * i + 2)
    desire = [-1] * (2 * n + 2)
    for i, j in _where(u).values():
        if u[i][1] == u[j][1]:
            join(desire, 2 * i + 1, 2 * j)
            join(desire, 2 * i, 2 * j + 1)
        else:
            join(desire, 2 * i, 2 * j)
            join(desire, 2 * i + 1, 2 * j + 1)
    merge = None
    if with_merge:
        merge = [-1] * (2 * n + 2)
        for i in range(n):
            join(merge, 2 * i, 2 * i + 1)
    return Graph(label, reality, desire, s, t, merge)


def string_ids(n: int) -> list:
    """The vertex ids the package gives graph_of_string's vertices."""
    ids = []
    for i in range(1, n + 1):
        ids += [f"I{i}", f"I{i}'"]
    return ids + ["s", "t"]


def graph_from_edges(labels: dict, reality, desire, merge=None):
    """Graph plus its id list from id -> label (None on s, t) and edge lists.

    Returns a reason string when the data is not a well-formed graph.
    """
    ids = sorted(labels)
    index = {v: i for i, v in enumerate(ids)}
    if "s" not in index or "t" not in index:
        return "no s or t vertex"
    label = [labels[v] or 0 for v in ids]
    arrays = []
    for edges in (reality, desire, merge):
        if edges is None:
            arrays.append(None)
            continue
        arr = [-1] * len(ids)
        for a, b in edges:
            if a not in index or b not in index:
                return f"edge {a}-{b} has an unknown end"
            x, y = index[a], index[b]
            if x == y:
                return f"loop edge at {a}"
            if arr[x] != -1 or arr[y] != -1:
                return f"vertex {a} or {b} lies on two edges of one colour"
            arr[x], arr[y] = y, x
        arrays.append(arr)
    g = Graph(label, arrays[0], arrays[1], index["s"], index["t"], arrays[2])
    if any(r == -1 for r in g.reality):
        return "reality edges are not a perfect matching"
    for v, lab in enumerate(label):
        d = g.desire[v]
        if (lab == 0) != (d == -1) or (d != -1 and label[d] != lab):
            return f"desire edge at {ids[v]} is missing or joins unequal labels"
    return g, ids


def graph_from_json(data: dict):
    labels = {v["id"]: v.get("label") for v in data["vertices"]}
    return graph_from_edges(labels, data["reality"], data["desire"], data.get("merge"))


def least_rotation(seq: list) -> tuple:
    """Booth's algorithm: the lexicographically least rotation, O(len)."""
    n = len(seq)
    doubled = seq + seq
    fail = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        x = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and x != doubled[k + i + 1]:
            if x < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if i == -1 and x != doubled[k + i + 1]:
            if x < doubled[k + i + 1]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return tuple(doubled[k : k + n])


def _walks(g: Graph):
    """Yield (is_path, vertices) for the s-t path and then every cycle.

    Every vertex lies on one reality and at most one desire edge, so the
    components over both colours are one alternating path and cycles.
    """
    seen = [False] * len(g)
    path = [g.s]
    v = g.reality[g.s]
    while v != g.t:
        path += [v, g.desire[v]]
        v = g.reality[g.desire[v]]
    path.append(g.t)
    for v in path:
        seen[v] = True
    yield True, path
    for start in range(len(g)):
        if seen[start]:
            continue
        cycle = []
        v = start
        while not seen[v]:
            w = g.reality[v]
            seen[v] = seen[w] = True
            cycle += [v, w]
            v = g.desire[w]
        yield False, cycle


def invariant(g: Graph) -> tuple:
    """Complete isomorphism invariant: path labels plus canonical cycle words.

    A cycle is the cyclic sequence of the labels of its desire edges;
    rotation and reflection give the same cycle.
    """
    path_word = None
    cycles = []
    for is_path, walk in _walks(g):
        if is_path:
            path_word = tuple(g.label[v] for v in walk[1:-1])
        else:
            word = [g.label[walk[i]] for i in range(1, len(walk), 2)]
            cycles.append(min(least_rotation(word), least_rotation(word[::-1])))
    return path_word, tuple(sorted(cycles))


def components(g: Graph) -> list:
    comp = [0] * len(g)
    for c, (_, walk) in enumerate(_walks(g)):
        for v in walk:
            comp[v] = c
    return comp


def pc_ends(g: Graph, comp: list) -> dict:
    """symbol -> frozenset of the components holding its four vertices."""
    ends: dict = {}
    for v, p in enumerate(g.label):
        if p:
            ends.setdefault(p, set()).add(comp[v])
    return {p: frozenset(c) for p, c in ends.items()}


def in_range(g: Graph) -> bool:
    comp = components(g)
    parent = list(range(max(comp) + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ends in pc_ends(g, comp).values():
        a, *rest = ends
        for b in rest:
            parent[find(a)] = find(b)
    return len({find(c) for c in parent}) == 1


def extended_invariant(g: Graph) -> tuple:
    """Labels along the reality/merge s-t path and desire edges as position pairs."""
    at = {g.s: 0}
    v, step = g.reality[g.s], 1
    while v != g.t:
        nxt = g.merge[v]
        if v in at or nxt == -1 or nxt in at:
            return None
        at[v], at[nxt] = step, step + 1
        v, step = g.reality[nxt], step + 2
    at[g.t] = step
    if len(at) != len(g):
        return None
    word = tuple(g.label[v] for v, i in sorted(at.items(), key=lambda x: x[1]) if i % 2)
    desire = sorted(tuple(sorted((at[a], at[b]))) for a, b in enumerate(g.desire) if b > a)
    return word, tuple(desire)


def natural_key(v: str) -> tuple:
    """Order that puts I2 before I10: runs of digits compare as numbers."""
    return tuple((1, int(r)) if r.isdigit() else (0, r) for r in re.split(r"(\d+)", v))


# --- output checks -----------------------------------------------------------


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_pc(out: str, g: Graph, ids: list) -> str | None:
    data = _json(out)
    if not isinstance(data, dict) or {"nodes", "edges", "bridges"} - data.keys():
        return "pc output is not the pc JSON object"
    comp = components(g)
    names: dict = {}
    for v in sorted(range(len(g)), key=lambda v: natural_key(ids[v])):
        names.setdefault(comp[v], ids[v])
    if sorted(data["nodes"]) != sorted(names.values()):
        return f"pc nodes: {len(data['nodes'])} given, {len(names)} expected"
    ends = pc_ends(g, comp)
    got = {e["label"]: frozenset(e["ends"]) for e in data["edges"]}
    want = {p: frozenset(names[c] for c in cs) for p, cs in ends.items()}
    if got != want:
        return "pc edges differ"
    if sorted(data["bridges"]) != sorted(p for p, cs in ends.items() if len(cs) == 2):
        return "pc bridges differ"
    return None


def check_check_range(out: str, expected: bool) -> str | None:
    data = _json(out)
    if not isinstance(data, dict) or data.get("in_range") is not expected:
        return f"check-range verdict is not {expected}"
    return None


def check_string_graph(out: str, inv: tuple) -> str | None:
    """A {"string": ...} output whose reduction graph has invariant inv."""
    data = _json(out)
    if not isinstance(data, dict) or not isinstance(data.get("string"), str):
        return "output is not a string object"
    if invariant(graph_of_string(parse_string(data["string"]))) != inv:
        return "the string's reduction graph is not isomorphic to the input"
    return None


def pc_signature(ends: dict) -> list:
    """Per node, its incident symbols tagged loop or not; sorted."""
    inc: dict = {}
    for p, nodes in ends.items():
        for n in nodes:
            inc.setdefault(n, set()).add((p, len(nodes) == 1))
    return sorted(tuple(sorted(s)) for s in inc.values())


def check_realize_pc(out: str, signature: list, n_nodes: int) -> str | None:
    data = _json(out)
    if not isinstance(data, dict) or not isinstance(data.get("string"), str):
        return "output is not a string object"
    g = graph_of_string(parse_string(data["string"]))
    comp = components(g)
    if max(comp) + 1 != n_nodes or pc_signature(pc_ends(g, comp)) != signature:
        return "the string's pointer-component graph differs from the multigraph"
    return None


_DOT_VERTEX = re.compile(r'\s*"([^"]+)" \[label="([^"]+)"\];')
_DOT_EDGE = re.compile(r'\s*"([^"]+)" -- "([^"]+)"( \[style=(bold|dashed)\])?;')


def _parse_dot(out: str):
    labels, edges = {}, {None: [], "bold": [], "dashed": []}
    for line in out.splitlines()[1:-1]:
        m = _DOT_EDGE.fullmatch(line)
        if m:
            edges[m.group(4)].append((m.group(1), m.group(2)))
            continue
        m = _DOT_VERTEX.fullmatch(line)
        if not m:
            return None
        labels[m.group(1)] = None if m.group(1) in ("s", "t") else int(m.group(2))
    return labels, edges["bold"], edges[None]


def _parse_text(out: str):
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    labels = {}
    for tok in fields.get("vertices", "").split():
        name, _, lab = tok.partition("[")
        labels[name] = int(lab[:-1]) if lab else None
    reality = [tuple(e.split("-")) for e in fields.get("reality", "").split()]
    desire = [tuple(e.split("-")) for e in fields.get("desire", "").split()]
    return labels, reality, desire


def check_graph(out: str, fmt: str, inv: tuple, ext: tuple | None = None) -> str | None:
    """A build/extend output isomorphic to the string's reduction graph."""
    try:
        if fmt == "json":
            parsed = graph_from_json(json.loads(out))
        else:
            parts = _parse_dot(out) if fmt == "dot" else _parse_text(out)
            parsed = graph_from_edges(*parts) if parts else "unparsable output"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable {fmt} graph: {exc}"
    if isinstance(parsed, str):
        return parsed
    g, _ = parsed
    if invariant(g) != inv:
        return "graph is not isomorphic to the string's reduction graph"
    if ext is not None and (g.merge is None or extended_invariant(g) != ext):
        return "merge edges do not give the string's linear order"
    return None


def check_fiber(out: str, expected: bool) -> str | None:
    data = _json(out)
    if not isinstance(data, dict) or data.get("dual_equivalent") is not expected:
        return f"fiber-check verdict is not {expected}"
    return None


def check_reduce(out: str, u) -> str | None:
    data = _json(out)
    if not isinstance(data, dict) or not isinstance(data.get("rules"), list):
        return "reduce output is not a rules object"
    return replay_reduction(u, data["rules"])


def check_orbit(out: str, members: set) -> str | None:
    data = _json(out)
    if not isinstance(data, dict) or not isinstance(data.get("orbit"), list):
        return "orbit output is not an orbit object"
    if data.get("size") != len(data["orbit"]):
        return "orbit size field disagrees with the member list"
    if sorted(data["orbit"]) != sorted(format_string(w) for w in members):
        return f"orbit has {len(data['orbit'])} members, expected {len(members)}"
    return None
