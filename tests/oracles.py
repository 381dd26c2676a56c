"""Independent oracles and generators for the test suite.

Everything here recomputes results by brute force and avoids the
production algorithms: isomorphism by backtracking bijection search,
merge-legal sets by per-symbol matching enumeration, connectivity by a
local breadth-first search, reduction graphs by their textbook edge
rules, occurrences by a letter scan, the five rules by their textbook
definitions on (symbol, barred) pairs, the greedy reduction by
enumerating every pair in the documented order, orbits by trying
every rule instance on every member, and canonical cycle words by
taking the least of every rotation in both directions.  Tests compare
library output against these; nothing here imports redukt.rules or a
redukt.redgraph builder.
"""

from __future__ import annotations

import re
from itertools import combinations, permutations, product

from hypothesis import strategies as st

from redukt import ARG, CanonicalForm, ColouredBase, LegalString, Pointer
from redukt.pcgraph import PointerComponentGraph


def legal_string_strategy(max_symbols: int = 6, bars: bool = True):
    @st.composite
    def build(draw):
        k = draw(st.integers(0, max_symbols))
        perm = draw(st.permutations([p for p in range(2, 2 + k) for _ in range(2)]))
        flags = draw(st.lists(st.booleans(), min_size=2 * k, max_size=2 * k))
        return LegalString(tuple(Pointer(p, b and bars) for p, b in zip(perm, flags)))

    return build()


def oracle_occurrences(u: LegalString) -> dict[int, list[int]]:
    """The 0-based positions of every symbol, by scanning every letter."""
    out: dict[int, list[int]] = {}
    for i, x in enumerate(u.letters):
        out.setdefault(x.symbol, []).append(i)
    return out


def _interleave(a, b) -> bool:
    return a[0] < b[0] < a[1] < b[1] or b[0] < a[0] < b[1] < a[1]


def _pairs(u: LegalString) -> tuple:
    return tuple((x.symbol, x.barred) for x in u.letters)


def _inverse(segment) -> tuple:
    return tuple((s, not b) for s, b in reversed(segment))


def textbook_rule(w: tuple, kind: str, pointers: tuple) -> tuple | None:
    """The image of the (symbol, barred) word w under one rule instance,
    cut into the segments of its textbook definition, or None when the
    rule does not match w.  p' is p with the other bar:

        snr_p      u1 p p u2                 -> u1 u2
        spr_p      u1 p u2 p' u3             -> u1 inv(u2) u3
        dspr_p     u1 p u2 p u3              -> u1 p inv(u2) p u3
        sdr_p,q    u1 p u2 q u3 p u4 q u5    -> u1 u4 u3 u2 u5
        dsdr_p,q   u1 p u2 q u3 p' u4 q' u5  -> u1 p u4 q u3 p' u2 q' u5
    """
    pos: dict[int, list[int]] = {}
    for i, (s, _) in enumerate(w):
        pos.setdefault(s, []).append(i)
    if any(p not in pos for p in pointers):
        return None
    positive = {s for s, (i, j) in pos.items() if w[i][1] != w[j][1]}
    if len(pointers) == 1:
        (p,) = pointers
        i, j = pos[p]
        u1, u2, u3 = w[:i], w[i + 1 : j], w[j + 1 :]
        if kind == "snr" and not u2 and w[i] == w[j]:
            return u1 + u3
        if kind == "spr" and p in positive:
            return u1 + _inverse(u2) + u3
        if kind == "dspr" and p not in positive:
            return u1 + (w[i],) + _inverse(u2) + (w[j],) + u3
        return None
    p, q = pointers
    (i1, i2), (j1, j2) = pos[p], pos[q]
    if p == q or not i1 < j1 < i2 < j2:
        return None
    u1, u2, u3, u4, u5 = w[:i1], w[i1 + 1 : j1], w[j1 + 1 : i2], w[i2 + 1 : j2], w[j2 + 1 :]
    if kind == "sdr" and not {p, q} & positive:
        return u1 + u4 + u3 + u2 + u5
    if kind == "dsdr" and {p, q} <= positive:
        return u1 + (w[i1],) + u4 + (w[j1],) + u3 + (w[i2],) + u2 + (w[j2],) + u5
    return None


def oracle_rule(u: LegalString, kind: str, pointers: tuple) -> LegalString | None:
    """textbook_rule on a legal string."""
    w = textbook_rule(_pairs(u), kind, pointers)
    return None if w is None else LegalString(tuple(Pointer(s, b) for s, b in w))


def oracle_reduction(u: LegalString) -> list[str]:
    """The greedy reduction sequence, by enumeration in the documented
    order: snr on the least symbol whose letters are adjacent and equal,
    else spr on the least positive symbol, else sdr on the first
    overlapping pair of all pairs p < q, named in first-occurrence
    order.  Rules are applied to (symbol, barred) pairs."""
    w = _pairs(u)
    out = []
    while w:
        pos: dict[int, list[int]] = {}
        for i, (p, _) in enumerate(w):
            pos.setdefault(p, []).append(i)
        adjacent = sorted(w[i][0] for i in range(len(w) - 1) if w[i] == w[i + 1])
        positive = sorted(p for p, (i, j) in pos.items() if w[i][1] != w[j][1])
        if adjacent:
            kind, pointers = "snr", (adjacent[0],)
        elif positive:
            kind, pointers = "spr", (positive[0],)
        else:
            pairs = [(p, q) for p, q in combinations(sorted(pos), 2) if _interleave(pos[p], pos[q])]
            p, q = pairs[0]
            kind, pointers = "sdr", (p, q) if pos[p][0] < pos[q][0] else (q, p)
        w = textbook_rule(w, kind, pointers)
        out.append(f"{kind}({','.join(map(str, pointers))})")
    return out


def _resigned(w: tuple) -> tuple:
    # the equivalent word whose first occurrences are unbarred
    flip: dict[int, bool] = {}
    return tuple((s, b != flip.setdefault(s, b)) for s, b in w)


def oracle_orbit(u: LegalString) -> frozenset:
    """The canonical representatives reachable from u by dual rules, by
    breadth-first search that tries dspr on every symbol and dsdr on
    every ordered pair of each member, by their textbook definitions."""
    start = _resigned(_pairs(u))
    seen, frontier = {start}, [start]
    while frontier:
        images = []
        for w in frontier:
            symbols = sorted({s for s, _ in w})
            tries = [("dspr", (p,)) for p in symbols]
            tries += [("dsdr", pq) for pq in permutations(symbols, 2)]
            images += [textbook_rule(w, kind, pointers) for kind, pointers in tries]
        frontier = [v for v in {_resigned(v) for v in images if v is not None} if v not in seen]
        seen.update(frontier)
    return frozenset(LegalString(tuple(Pointer(s, b) for s, b in w)) for w in seen)


def oracle_reduction_graph(u: LegalString) -> ARG:
    """The reduction graph of u by the textbook edge rules, on the ids I1,
    I1', ..., In, In', s, t: reality edges {s,I1}, {Ii',Ii+1} and {In',t},
    or {s,t} for the empty string; for occurrences i < j of a symbol,
    desire edges {Ii',Ij} and {Ii,Ij'} when they are barred alike, else
    {Ii,Ij} and {Ii',Ij'}; both vertices of position i carry its symbol."""
    x = u.letters
    n = len(x)
    heads = [f"I{i}" for i in range(1, n + 1)]
    tails = [f"I{i}'" for i in range(1, n + 1)]
    reality = set(map(frozenset, zip(["s", *tails], [*heads, "t"])))
    desire = set()
    for i, j in combinations(range(n), 2):
        if x[i].symbol == x[j].symbol:
            if x[i].barred == x[j].barred:
                desire |= {frozenset({tails[i], heads[j]}), frozenset({heads[i], tails[j]})}
            else:
                desire |= {frozenset({heads[i], heads[j]}), frozenset({tails[i], tails[j]})}
    label = {v: x[i].symbol for i in range(n) for v in (heads[i], tails[i])}
    base = ColouredBase(vertices=frozenset([*heads, *tails, "s", "t"]), s="s", t="t", label=label)
    return ARG(base=base, reality=frozenset(reality), desire=frozenset(desire))


def _partner_maps(g: ARG):
    reality, desire = {}, {}
    for e in g.reality:
        a, b = tuple(e)
        reality[a], reality[b] = b, a
    for e in g.desire:
        a, b = tuple(e)
        desire[a], desire[b] = b, a
    return reality, desire


def oracle_isomorphic(g: ARG, h: ARG) -> bool:
    """Label-preserving isomorphism with s, t pinned, by exhaustive
    backtracking search over vertex bijections."""
    if len(g.vertices) != len(h.vertices):
        return False
    gcount: dict[int, int] = {}
    hcount: dict[int, int] = {}
    for p in g.label.values():
        gcount[p] = gcount.get(p, 0) + 1
    for p in h.label.values():
        hcount[p] = hcount.get(p, 0) + 1
    if gcount != hcount:
        return False

    gr, gd = _partner_maps(g)
    hr, hd = _partner_maps(h)
    order = sorted(g.vertices - {g.s, g.t})
    h_pool = sorted(h.vertices - {h.s, h.t})
    mapping = {g.s: h.s, g.t: h.t}
    used = {h.s, h.t}

    def consistent(v: str, w: str) -> bool:
        for gp, hp in ((gr, hr), (gd, hd)):
            pv, pw = gp.get(v), hp.get(w)
            if (pv is None) != (pw is None):
                return False
            if pv is None:
                continue
            if pv in mapping:
                if mapping[pv] != pw:
                    return False
            elif pw in used:
                return False
        return True

    def rec(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in h_pool:
            if w in used or h.label[w] != g.label[v]:
                continue
            if not consistent(v, w):
                continue
            mapping[v] = w
            used.add(w)
            if rec(k + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    # s and t are pinned, so their reality partners must be compatible
    if not consistent(g.s, h.s) or not consistent(g.t, h.t):
        return False
    return rec(0)


def oracle_cycle_word(labels: list[int]) -> tuple[tuple[int, int], ...]:
    """Reference for redgraph._canonical_cycle_word: the least of all 2m
    rotations of the cycle's step word, in both directions."""
    # labels of a cycle's vertices in traversal order; consecutive edges
    # alternate reality, desire, reality, ... starting from the first.
    m = len(labels)
    words = []
    for start in range(m):
        # forward: step colours keep the alternation of the traversal
        word = tuple(((start + k) % 2, labels[(start + k + 1) % m]) for k in range(m))
        words.append(word)
        # backward: the step from cycle[i] back to cycle[i-1] has the
        # colour of the forward edge (i-1, i)
        word = tuple(((start - k - 1) % 2, labels[(start - k - 1) % m]) for k in range(m))
        words.append(word)
    return min(words)


def oracle_canonical_form(g: ARG) -> CanonicalForm:
    """The canonical form from a walk over g's edge sets, reality first
    from every start, with oracle_cycle_word for each cycle."""
    reality, desire = _partner_maps(g)

    def walk(start: str) -> list[str]:
        out, v = [start], reality.get(start)
        while v is not None and v != start:
            out.append(v)
            v = (desire, reality)[len(out) % 2].get(v)
        return out

    path = walk(g.s)
    seen = set(path)
    words = []
    for v in g.vertices:
        if v not in seen:
            cycle = walk(v)
            seen.update(cycle)
            words.append(oracle_cycle_word([g.label[x] for x in cycle]))
    return CanonicalForm(path_word=tuple(g.label[v] for v in path[1:-1]), cycle_words=tuple(sorted(words)))


def oracle_multigraph_isomorphic(m1: PointerComponentGraph, m2: PointerComponentGraph) -> bool:
    """Multigraph isomorphism by trying every node bijection."""
    if len(m1.nodes) != len(m2.nodes):
        return False
    if set(m1.endpoints) != set(m2.endpoints):
        return False
    nodes1 = sorted(m1.nodes)
    for image in permutations(sorted(m2.nodes)):
        alpha = dict(zip(nodes1, image))
        if all(
            frozenset(alpha[n] for n in ends) == m2.endpoints[p]
            for p, ends in m1.endpoints.items()
        ):
            return True
    return False


def oracle_connected(vertices, edges) -> bool:
    """Plain breadth-first connectivity over an explicit edge list."""
    vertices = set(vertices)
    if not vertices:
        return True
    adj = {v: set() for v in vertices}
    for e in edges:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    start = next(iter(vertices))
    seen = {start}
    frontier = [start]
    while frontier:
        frontier = [y for x in frontier for y in adj[x] if y not in seen]
        seen.update(frontier)
    return seen == vertices


def oracle_component_count(g: ARG) -> int:
    adj = {v: set() for v in g.vertices}
    for e in list(g.reality) + list(g.desire):
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    seen: set[str] = set()
    count = 0
    for v in g.vertices:
        if v in seen:
            continue
        count += 1
        frontier = [v]
        seen.add(v)
        while frontier:
            frontier = [y for x in frontier for y in adj[x] if y not in seen]
            seen.update(frontier)
    return count


def _three_matchings(vs):
    a, b, c, d = vs
    return [
        frozenset({frozenset({a, b}), frozenset({c, d})}),
        frozenset({frozenset({a, c}), frozenset({b, d})}),
        frozenset({frozenset({a, d}), frozenset({b, c})}),
    ]


def enumerate_merge_legal(g: ARG):
    """All merge-legal sets, by enumerating per-symbol matchings of the
    four same-labelled vertices and keeping the desire-avoiding ones."""
    per_symbol = []
    for p in sorted(set(g.label.values())):
        vs = sorted(v for v, q in g.label.items() if q == p)
        options = [m for m in _three_matchings(vs) if not (m & g.desire)]
        per_symbol.append(options)
    out = []
    for choice in product(*per_symbol):
        out.append(frozenset().union(*choice) if choice else frozenset())
    return out


def projections(symbols):
    """All arrangements of the given symbols, each appearing twice."""
    remaining = {p: 2 for p in symbols}
    cur: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec():
        if len(cur) == 2 * len(remaining):
            out.append(tuple(cur))
            return
        for p in sorted(remaining):
            if remaining[p]:
                remaining[p] -= 1
                cur.append(p)
                rec()
                cur.pop()
                remaining[p] += 1

    rec()
    return out


def _string_from(projection, barred_flags) -> LegalString:
    return LegalString(tuple(Pointer(p, b) for p, b in zip(projection, barred_flags)))


def canonical_strings(symbols):
    """Every legal string over the given symbols whose first occurrences
    are unbarred: one representative per equivalence class."""
    symbols = sorted(symbols)
    out = []
    for proj in projections(symbols):
        for signs in product((False, True), repeat=len(symbols)):
            positive = {p for p, s in zip(symbols, signs) if s}
            seen: set[int] = set()
            flags = []
            for p in proj:
                flags.append(p in seen and p in positive)
                seen.add(p)
            out.append(_string_from(proj, flags))
    return out


def all_strings(symbols):
    """Every legal string over the given symbols, all barrings."""
    symbols = sorted(symbols)
    out = []
    for proj in projections(symbols):
        for flags in product((False, True), repeat=len(proj)):
            out.append(_string_from(proj, flags))
    return out


def random_legal_string(rng, max_symbols: int = 6) -> LegalString:
    k = rng.randint(0, max_symbols)
    letters = [p for p in range(2, 2 + k) for _ in range(2)]
    rng.shuffle(letters)
    return LegalString(tuple(Pointer(p, rng.random() < 0.5) for p in letters))


def random_arg(rng, max_symbols: int = 5) -> ARG:
    """A random abstract reduction graph: four fresh vertices per
    symbol, a random reality perfect matching over everything, and a
    random desire matching per symbol."""
    k = rng.randint(0, max_symbols)
    label = {f"v{p}{c}": p for p in range(2, 2 + k) for c in "abcd"}
    vs = sorted(label) + ["s", "t"]
    rng.shuffle(vs)
    reality = frozenset(frozenset(vs[i : i + 2]) for i in range(0, len(vs), 2))
    desire: set = set()
    for p in range(2, 2 + k):
        four = sorted(v for v in label if label[v] == p)
        desire |= rng.choice(_three_matchings(four))
    base = ColouredBase(vertices=frozenset(vs), s="s", t="t", label=label)
    return ARG(base=base, reality=reality, desire=frozenset(desire))


def relabeled(g: ARG, rng) -> ARG:
    """The same graph under a random vertex renaming (s, t move too)."""
    names = sorted(g.vertices)
    images = [f"w{i}" for i in range(len(names))]
    rng.shuffle(images)
    m = dict(zip(names, images))
    base = ColouredBase(
        vertices=frozenset(m.values()),
        s=m[g.s],
        t=m[g.t],
        label={m[v]: p for v, p in g.label.items()},
    )
    return ARG(
        base=base,
        reality=frozenset(frozenset(m[v] for v in e) for e in g.reality),
        desire=frozenset(frozenset(m[v] for v in e) for e in g.desire),
    )


def oracle_id_key(v: str):
    """Reference natural-order key for redgraph._id_key: each part of the
    digit-run split tagged (0, text) or (1, int), then (-1, v), which
    orders ids that tie on their parts."""
    parts = re.split(r"(\d+)", v)
    return (*((1, int(p)) if p.isdecimal() else (0, p) for p in parts), (-1, v))


def random_connected_multigraph(rng, max_nodes: int = 5, max_edges: int = 8) -> dict:
    """JSON for a random connected multigraph with distinct symbol
    edges: a random spanning tree plus extra edges and loops."""
    n = rng.randint(1, max_nodes)
    nodes = [f"n{i}" for i in range(1, n + 1)]
    edges = []
    label = 2
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, n):
        other = rng.choice(order[:i])
        edges.append({"label": label, "ends": sorted((order[i], other))})
        label += 1
    for _ in range(rng.randint(0, max_edges - (n - 1))):
        a, b = rng.choice(nodes), rng.choice(nodes)
        edges.append({"label": label, "ends": sorted({a, b})})
        label += 1
    return {"nodes": nodes, "edges": edges}
