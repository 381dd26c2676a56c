"""Seeded inputs for the three workloads, and the guards that keep them
exercising what each workload exists for.

make_pass(workload, rng, workdir) returns one pass of operations: fresh
inputs at every size tier, each operation a CLI argv with its expected
exit code and an output check from checker.py.  Graph and multigraph
inputs are written as JSON files under workdir.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import checker as C

WORKLOADS = ("recover", "build", "rewrite")

# Inputs per size tier (symbols k).  The inputs of a tier spread evenly,
# on a log scale, over a factor 2**0.25 either side of it, and every pass
# has the same sizes, so runs differ only in the strings drawn.  The
# counts are set so that the median and the 90th latency percentile
# each fall inside a cluster of operations of similar cost rather than on
# a gap between two clusters: with equal counts per tier the 90th
# percentile of recover sat on such a gap and moved by 10% between seeds.
RECOVER_GRAPHS = {24: 2, 48: 4, 96: 4, 192: 8}  # every fourth is out of range
RECOVER_MULTIGRAPHS = {24: 2, 48: 2, 96: 4, 192: 8}  # realize-pc inputs
BUILD_STRINGS = {64: 1, 256: 4, 1024: 2}
# fiber-check strings have their own, smaller tiers.  canonical_form
# builds O(m^2) words for a cycle of m vertices and random strings have a
# cycle of length Theta(k) with a heavy tail: one fiber-check at k = 901
# took 14.6 s with a peak RSS of 1.08 GB, at k ~ 250 from 0.05 to 1.5 s,
# and at k ~ 128 the peak RSS of a run moved between 39 and 59 MB.
FIBER_STRINGS = {16: 1, 32: 1, 64: 1}
REDUCE_STRINGS = {24: 4, 48: 4, 96: 4, 192: 6}  # half with random bars, half with none
ORBIT_SIZES = (20, 105)  # rewrite: the orbit sizes drawn
# Orbit time is about proportional to orbit size, and the median latency
# of rewrite falls among the orbit operations.  So that every pass has the
# same orbit-size profile, each k = 6..9 has six orbit strings, one per
# band of sizes [lo, hi) below; the bands are cut at the sextiles of the
# orbit sizes of random strings with 20 to 105 members.  Over ten seeds on
# a shared 2-vCPU Linux VM, the quartile spread of rewrite's median latency
# was 0.084 of it with sizes drawn without bands, 0.039 with them.
ORBIT_BANDS = {
    6: (20, 21, 24, 28, 31, 35, 106),
    7: (20, 24, 29, 34, 43, 57, 106),
    8: (20, 30, 37, 48, 62, 77, 106),
    9: (20, 34, 51, 60, 73, 91, 106),
}
ORBIT_MAX = "1000"


@dataclass
class Op:
    argv: list
    expect: int  # exit code
    check: Callable  # stdout -> None or the reason it is wrong
    kind: str
    k: int  # symbols in the input
    tier: int  # the nominal k the input was drawn around


def _sizes(tier: int, count: int) -> list:
    return [max(2, round(tier * 2 ** (0.5 * (i + 0.5) / count - 0.25))) for i in range(count)]


def _write(workdir, name: str, data) -> str:
    path = workdir / name
    path.write_text(json.dumps(data))
    return str(path)


def _edges(ids, arr) -> list:
    return [(ids[a], ids[b]) for a, b in enumerate(arr) if a < b]


def _graph_input(rng, k: int, out_of_range: bool):
    """A string's reduction graph with shuffled vertex ids, optionally plus
    cycle-only components over disjoint symbols.

    The extra components are another string's reduction graph with s and
    t removed and their two neighbours joined by a reality edge, so no
    symbol joins them to the rest and the graph is out of range.
    Returns (labels, reality, desire) keyed by the final vertex ids.
    """
    g = C.graph_of_string(C.random_string(rng, k, bars=True))
    ids = C.string_ids(2 * k)
    labels = {ids[v]: g.label[v] or None for v in range(len(g))}
    reality, desire = _edges(ids, g.reality), _edges(ids, g.desire)
    if out_of_range:
        kw = max(2, k // 4)
        w = C.graph_of_string(C.random_string(rng, kw, bars=True, first_symbol=k + 2))
        wids = ["w" + v for v in C.string_ids(2 * kw)]
        labels.update({wids[v]: w.label[v] for v in range(len(w)) if v not in (w.s, w.t)})
        reality += [e for e in _edges(wids, w.reality) if not {"ws", "wt"} & set(e)]
        reality.append((wids[w.reality[w.s]], wids[w.reality[w.t]]))
        desire += _edges(wids, w.desire)
    # with the builder's own I<i> ids, some_merge_legal already picks the
    # string's merge edges and find_theta never flips; shuffled ids make it
    names = [v for v in labels if v not in ("s", "t")]
    perm = list(range(1, len(names) + 1))
    rng.shuffle(perm)
    rename = {v: f"x{n}" for v, n in zip(names, perm)}
    rename.update(s="s", t="t")
    labels = {rename[v]: lab for v, lab in labels.items()}
    reality = [(rename[a], rename[b]) for a, b in reality]
    desire = [(rename[a], rename[b]) for a, b in desire]
    return labels, reality, desire


def _graph_json(rng, labels, reality, desire) -> dict:
    vertices = [{"id": v, "label": lab} if lab else {"id": v} for v, lab in labels.items()]
    rng.shuffle(vertices)

    def edges(es):
        out = [[a, b] if rng.random() < 0.5 else [b, a] for a, b in es]
        rng.shuffle(out)
        return out

    return {"vertices": vertices, "reality": edges(reality), "desire": edges(desire)}


def _multigraph(rng, k: int) -> tuple:
    """A connected multigraph with about k/4 nodes and one edge per symbol."""
    nodes = [f"C{i}" for i in range(1, max(2, round(k / 4)) + 1)]
    order = nodes[:]
    rng.shuffle(order)
    symbols = list(range(2, k + 2))
    rng.shuffle(symbols)
    ends = {}
    for i in range(1, len(order)):  # a random spanning tree first
        ends[symbols[i - 1]] = frozenset((order[i], rng.choice(order[:i])))
    for p in symbols[len(order) - 1 :]:
        ends[p] = frozenset([rng.choice(nodes)] if rng.random() < 0.25 else rng.sample(nodes, 2))
    edges = [{"label": p, "ends": rng.sample(sorted(e), len(e))} for p, e in ends.items()]
    rng.shuffle(edges)
    return {"nodes": order, "edges": edges}, C.pc_signature(ends), len(nodes)


def _recover_pass(rng, workdir) -> list:
    ops = []
    for size, count in RECOVER_GRAPHS.items():
        sizes = _sizes(size, count)
        rng.shuffle(sizes)
        for i, k in enumerate(sizes):
            out = i % 4 == 0
            labels, reality, desire = _graph_input(rng, k, out)
            g, ids = C.graph_from_edges(labels, reality, desire)
            inv, ok = C.invariant(g), C.in_range(g)
            if ok == out:
                raise RuntimeError("generator produced the wrong range verdict")
            path = _write(workdir, f"g{size}_{i}.json", _graph_json(rng, labels, reality, desire))
            ks = len({p for p in labels.values() if p})
            ops += [
                Op(["check-range", path], 0 if ok else 2,
                   lambda o, ok=ok: C.check_check_range(o, ok), "check-range", ks, size),
                Op(["pc", path], 0, lambda o, g=g, ids=ids: C.check_pc(o, g, ids), "pc", ks, size),
                Op(["recover", path], 0 if ok else 2,
                   (lambda o, inv=inv: C.check_string_graph(o, inv)) if ok else (lambda o: None if o == "" else "stdout not empty"),
                   "recover", ks, size),
            ]
    for size, count in RECOVER_MULTIGRAPHS.items():
        for i, k in enumerate(_sizes(size, count)):
            data, signature, n = _multigraph(rng, k)
            path = _write(workdir, f"m{size}_{i}.json", data)
            ops.append(Op(["realize-pc", path], 0,
                          lambda o, sg=signature, n=n: C.check_realize_pc(o, sg, n), "realize-pc", k, size))
    return ops


def _build_pass(rng, workdir) -> list:
    ops = []
    for size, count in BUILD_STRINGS.items():
        for k in _sizes(size, count):
            u = C.random_string(rng, k, bars=True)
            text = C.format_string(u)
            inv = C.invariant(C.graph_of_string(u))
            ext = C.extended_invariant(C.graph_of_string(u, with_merge=True))

            def op(argv, check, kind):
                return Op(argv, 0, check, kind, k, size)

            ops += [
                op(["build", "--format", "json", text], lambda o, inv=inv: C.check_graph(o, "json", inv), "build-json"),
                op(["build", "--format", "dot", text], lambda o, inv=inv: C.check_graph(o, "dot", inv), "build-dot"),
                op(["build", "--format", "text", text], lambda o, inv=inv: C.check_graph(o, "text", inv), "build-text"),
                op(["extend", "--format", "json", text],
                   lambda o, inv=inv, ext=ext: C.check_graph(o, "json", inv, ext), "extend-json"),
            ]
    for size, count in FIBER_STRINGS.items():
        for k in _sizes(size, count):
            u = C.random_string(rng, k, bars=True)
            text = C.format_string(u)
            inv = C.invariant(C.graph_of_string(u))
            yes = C.format_string(C.random_dual_image(rng, u))
            i = rng.randrange(len(u))
            flipped = u[:i] + ((u[i][0], not u[i][1]),) + u[i + 1 :]
            same = C.invariant(C.graph_of_string(flipped)) == inv
            ops += [
                Op(["fiber-check", text, yes], 0, lambda o: C.check_fiber(o, True), "fiber-check", k, size),
                Op(["fiber-check", text, C.format_string(flipped)], 0 if same else 2,
                   lambda o, same=same: C.check_fiber(o, same), "fiber-check", k, size),
            ]
    return ops


def _rewrite_pass(rng, workdir) -> list:
    ops = []
    for size, count in REDUCE_STRINGS.items():
        for i, k in enumerate(_sizes(size, count)):
            u = C.random_string(rng, k, bars=i % 2 == 0)
            ops.append(Op(["reduce", C.format_string(u)], 0, lambda o, u=u: C.check_reduce(o, u), "reduce", k, size))
    for k, edges in ORBIT_BANDS.items():
        for lo, hi in zip(edges, edges[1:]):
            while True:
                u = C.random_string(rng, k, bars=True)
                members = C.orbit(u, hi - 1)
                if members is not None and len(members) >= lo:
                    break
            ops.append(Op(["orbit", C.format_string(u), "--max", ORBIT_MAX], 0,
                          lambda o, m=members: C.check_orbit(o, m), "orbit", k, k))
    return ops


def make_pass(workload: str, rng, workdir) -> list:
    ops = {"recover": _recover_pass, "build": _build_pass, "rewrite": _rewrite_pass}[workload](rng, workdir)
    rng.shuffle(ops)
    return ops


# redukt 0.1.0 dies on `pc "<u>"` with an uncaught OSError ENAMETOOLONG once
# the string passes 255 bytes (k >= about 40): cli._cmd_pc calls
# Path(source).is_file() on it.  The build workload runs this operation once
# per run, untimed and outside the attempted/failed counts, and reports the
# defect on a "#" line while it lasts; pc itself is timed on recover, through
# `pc g.json`.
PROBE_K = 256


def probes(workload: str, rng) -> list:
    """Untimed operations that report a known defect; run once per run."""
    if workload != "build":
        return []
    u = C.random_string(rng, PROBE_K, bars=True)
    g, ids = C.graph_of_string(u), C.string_ids(len(u))
    return [Op(["pc", C.format_string(u)], 0, lambda o: C.check_pc(o, g, ids), "pc-string", PROBE_K, PROBE_K)]


def known_defect(op: Op, error: dict) -> bool:
    """Whether an uncaught exception is the pc ENAMETOOLONG defect above."""
    return op.kind == "pc-string" and error["type"] == "OSError" and error["errno"] == 36


def observe(op: Op, out: str, facts: dict) -> None:
    """Record what a checked output shows about the workload's mechanism."""
    if op.kind == "reduce":
        for kind in ("snr", "spr", "sdr"):
            facts[kind] = facts.get(kind, 0) + out.count(f'"{kind}(')
    elif op.kind == "orbit":
        size = json.loads(out)["size"]
        facts["orbit_min"] = min(facts.get("orbit_min", size), size)
        facts["orbit_max"] = max(facts.get("orbit_max", size), size)
    elif op.kind == "check-range" and op.expect == 2:
        facts["out_of_range"] = facts.get("out_of_range", 0) + 1


def guard(workload: str, facts: dict, calls: dict | None) -> list:
    """Reasons the inputs no longer exercise the workload's mechanism.

    calls maps traced function names to call counts; None when untraced.
    """
    problems = []
    if workload == "recover":
        if not facts.get("out_of_range"):
            problems.append("no out-of-range graph was answered")
        if calls is not None and not calls.get("flips.flip"):
            problems.append("find_theta flipped no symbol: flips.flip.calls is 0")
    elif workload == "rewrite":
        if not (facts.get("spr") and facts.get("sdr")):
            problems.append(f"reduce outputs lack spr or sdr steps: {facts}")
        lo, hi = ORBIT_SIZES
        if not lo <= facts.get("orbit_min", 0) <= facts.get("orbit_max", 0) <= hi:
            problems.append(f"orbit sizes outside {lo}..{hi}: {facts}")
    return problems
