"""Differential driver for the command line.

Runs a fixed, seeded list of argv lists through redukt.cli.main in one
process and writes one JSON line per call to stdout: the environment
override, argv, exit code, stdout and stderr.  The calls cover every
command and output format, random legal strings, graphs in and out of
range, malformed strings, graph and multigraph files, and bad flags.
Two checkouts behave the same on them exactly when their outputs are
byte-identical:

    PYTHONPATH=src python tests/cli_differential.py > new.jsonl
    PYTHONPATH=<other checkout>/src python tests/cli_differential.py > old.jsonl
    cmp old.jsonl new.jsonl

Graph inputs come from the build command's own output, mutated, and from
an independent random generator, so they do not depend on library code
beyond the CLI.  A call that raises out of main is recorded with the
exception's type name as its code, so a run completes on a checkout
that crashes on some input.  Files are written to a temporary directory
that is the working directory while the calls run, so records name them
by relative path.  pytest does not collect this module: its name does
not match test_*.py.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from copy import deepcopy
from pathlib import Path

from redukt.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
ENV = "REDUKT_MAX_ORBIT"


def call(argv: list[str], env: str | None = None) -> dict:
    """One CLI call, with ENV set to env (or unset), as a record."""
    saved = os.environ.pop(ENV, None)
    if env is not None:
        os.environ[ENV] = env
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash, recorded by type so that the run goes on
                code = type(exc).__name__
    finally:
        os.environ.pop(ENV, None)
        if saved is not None:
            os.environ[ENV] = saved
    return {"env": env, "argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def random_string(rng: random.Random, k: int) -> str:
    symbols = [p for p in range(2, k + 2) for _ in "ab"]
    rng.shuffle(symbols)
    return " ".join(f"-{p}" if rng.random() < 0.5 else str(p) for p in symbols)


def random_arg(rng: random.Random, k: int) -> dict:
    """A random abstract reduction graph: random reality matching, and a
    random pairing of each label's four vertices as desire edges."""
    ids = [f"v{i}" for i in range(4 * k)]
    rng.shuffle(ids)
    vertices = [{"id": v, "label": 2 + i // 4} for i, v in enumerate(ids)] + [{"id": "s"}, {"id": "t"}]
    ends = ids + ["s", "t"]
    rng.shuffle(ends)
    desire = []
    for i in range(0, 4 * k, 4):
        quad = ids[i : i + 4]
        rng.shuffle(quad)
        desire += [quad[:2], quad[2:]]
    return {"vertices": vertices, "reality": [ends[i : i + 2] for i in range(0, len(ends), 2)], "desire": desire}


def mutations(rng: random.Random, g: dict) -> list:
    """Malformed variants of a valid graph document, one fault each."""
    out = []

    def pick(key: str) -> int:
        return rng.randrange(len(g[key]))

    h = deepcopy(g)
    del h["reality"][pick("reality")]
    out.append(h)
    h = deepcopy(g)
    h["desire"].append(h["desire"][pick("desire")])
    out.append(h)
    h = deepcopy(g)
    h["reality"][pick("reality")][1] = "nowhere"
    out.append(h)
    h = deepcopy(g)
    a = h["desire"][pick("desire")][0]
    h["desire"].append([a, a])
    out.append(h)
    h = deepcopy(g)
    labelled = [v for v in h["vertices"] if "label" in v]
    if labelled:
        rng.choice(labelled)["label"] = rng.choice([1, 0, -2, 2.5, True, "3", 99])
    out.append(h)
    h = deepcopy(g)
    h["vertices"].append(dict(rng.choice(h["vertices"])))
    out.append(h)
    h = deepcopy(g)
    h["vertices"] = [v for v in h["vertices"] if v["id"] != "t"]
    out.append(h)
    h = deepcopy(g)
    del h[rng.choice(["vertices", "reality", "desire"])]
    out.append(h)
    h = deepcopy(g)
    h[rng.choice(["reality", "desire"])] = {"not": "a list"}
    out.append(h)
    h = deepcopy(g)
    h["reality"].append(["s", 3])
    h["desire"].append(["only one"])
    out.append(h)
    if len(g["desire"]) >= 2:
        # two desire edges of different symbols swap an end: labels disagree
        h = deepcopy(g)
        i, j = rng.sample(range(len(h["desire"])), 2)
        h["desire"][i][0], h["desire"][j][0] = h["desire"][j][0], h["desire"][i][0]
        out.append(h)
    # renamed ids: natural order with digit runs, leading zeros and non-ASCII
    names = {v["id"] for v in g["vertices"]} - {"s", "t"}
    new = rng.sample([f"x{i:0{rng.choice([1, 2])}d}" for i in range(len(names) * 3)] + ["é", "I²", 'q"\\'], len(names))
    rename = dict(zip(sorted(names), new), s="s", t="t")
    h = deepcopy(g)
    h["vertices"] = [{**v, "id": rename[v["id"]]} for v in h["vertices"]]
    for key in ("reality", "desire"):
        h[key] = [[rename[a], rename[b]] for a, b in h[key]]
    out.append(h)
    return out


def multigraphs(rng: random.Random) -> list:
    out = [
        {"nodes": [], "edges": []},
        {"nodes": ["A"], "edges": []},
        {"nodes": ["A", "A"], "edges": []},
        {"nodes": ["A", "B"], "edges": [{"label": 2, "ends": ["A"]}, {"label": 3, "ends": ["B"]}]},
        {"nodes": ["A"], "edges": [{"label": 1, "ends": ["A"]}]},
        {"nodes": ["A"], "edges": [{"label": 2, "ends": ["B"]}]},
        {"nodes": ["A"], "edges": [{"label": 2, "ends": []}]},
        {"nodes": ["A"], "edges": [{"label": 2, "ends": ["A"]}, {"label": 2, "ends": ["A"]}]},
        {"nodes": "A", "edges": []},
        {"edges": []},
        [],
    ]
    for _ in range(12):
        nodes = [f"N{i}" for i in range(rng.randint(1, 5))]
        edges = []
        for i, p in enumerate(rng.sample(range(2, 40), rng.randint(0, 7))):
            a = nodes[i % len(nodes)] if i < len(nodes) else rng.choice(nodes)
            b = rng.choice(nodes)
            edges.append({"label": p, "ends": [a] if a == b else [a, b]})
        out.append({"nodes": nodes, "edges": edges})
    return out


def write(name: str, text: str) -> str:
    Path(name).write_text(text)
    return name


def cases(rng: random.Random) -> list:
    """The calls, as (argv, env) pairs, in a fixed order."""
    calls: list = []
    fmts3, fmts2 = ("json", "dot", "text"), ("json", "text")
    strings = ["", "2 2", "2 -2", "2 3 2 3", "2 -7 4 7 3 5 3 -4 2 6 5 6"]
    strings += [random_string(rng, k) for k in (1, 2, 3, 3, 4, 5, 6, 8, 12, 20, 40)]
    bad_strings = ["2 3", "x", "2 2 2", "1 1", "2.0 2.0", "- 2", "--2 2", "2 02", "²2 2", "3 -3 3"]
    for s in strings + bad_strings:
        for cmd in ("build", "extend", "pc"):
            calls += [([cmd, s, "--format", f], None) for f in fmts3]
        calls += [(["reduce", s, "--format", f], None) for f in fmts2]
    for s in strings[:9] + bad_strings[:3]:
        calls += [(["orbit", s, "--format", f], None) for f in fmts2]
    for u, v in [("2 -2", "-2 2"), ("2 2", "2 -2"), ("2 3 2 3", "2 3 -2 3"), ("2 2", "2 3")]:
        calls += [(["fiber-check", u, v, "--format", f], None) for f in fmts2]
    for _ in range(6):
        k = rng.randint(1, 4)
        u, v = random_string(rng, k), random_string(rng, k)
        calls.append((["fiber-check", u, v], None))
    # the orbit budget, by flag and by environment
    for budget in ("1", "2", "3", "0", "-1", "lots", " 2", "1e3"):
        calls.append((["orbit", "2 3 2 3", "--max", budget], None))
        calls.append((["orbit", "2 3 2 3"], budget))
    # graph files: built graphs, their mutations, random graphs and fixtures
    graphs = []
    for s in strings:
        record = call(["build", s])
        graphs.append(json.loads(record["stdout"]))
    docs = list(graphs)
    for g in graphs[1:]:
        docs += mutations(rng, g)
    docs += [random_arg(rng, k) for k in (1, 2, 2, 3, 3, 4, 5, 6, 8) * 3]
    docs += [json.loads(p.read_text()) for p in sorted(FIXTURES.glob("*.json"))]
    docs += [[], {}, "graph", None]
    for i, doc in enumerate(docs):
        name = write(f"g{i}.json", json.dumps(doc))
        for cmd in ("check-range", "recover"):
            calls += [([cmd, name, "--format", f], None) for f in fmts2]
        calls += [(["pc", name, "--format", f], None) for f in fmts3]
    for name in (write("bad.json", "{not json"), write("empty.json", ""), "missing.json"):
        for cmd in ("check-range", "recover", "pc", "realize-pc"):
            calls.append(([cmd, name], None))
    # multigraph files, from pc output too
    pcs = multigraphs(rng)
    for s in strings[1:]:
        doc = json.loads(call(["pc", s])["stdout"])
        pcs.append({"nodes": doc["nodes"], "edges": doc["edges"]})
    for i, m in enumerate(pcs):
        name = write(f"m{i}.json", json.dumps(m))
        calls += [(["realize-pc", name, "--format", f], None) for f in fmts2]
        nodes = m.get("nodes") if isinstance(m, dict) and isinstance(m.get("nodes"), list) else []
        for node in list(nodes)[:3] + ["nope"]:
            calls.append((["realize-pc", name, "--linear", node], None))
    # usage errors
    calls += [
        ([], None),
        (["frobnicate"], None),
        (["build"], None),
        (["build", "2 2", "extra"], None),
        (["build", "2 2", "--format", "yaml"], None),
        (["recover", "g1.json", "--format", "dot"], None),
        (["orbit", "2 2", "--max"], None),
        (["fiber-check", "2 2"], None),
        (["realize-pc"], None),
        (["--format", "json", "build", "2 2"], None),
    ]
    # inputs past int()'s 4,300-digit limit or the recursion limit, and a
    # file that is not UTF-8; nothing here is drawn from rng
    long_id = json.dumps(graphs[3]).replace('"I1"', f'"x{"1" * 5000}"')
    for name in (
        write("long_id.json", long_id),
        write("long_number.json", '{"vertices": ' + "1" * 5000 + "}"),
        write("nested.json", "[" * 100_000),
    ):
        for cmd in ("check-range", "recover", "pc", "realize-pc"):
            calls.append(([cmd, name], None))
    Path("not_utf8.json").write_bytes(b"\xff{}")
    calls.append((["recover", "not_utf8.json"], None))
    token = "2" * 5000
    for cmd in ("build", "extend", "pc", "reduce", "orbit"):
        calls.append(([cmd, f"{token} -{token}"], None))
    calls.append((["fiber-check", "2 2", f"{token} {token}"], None))
    # the odd-k single cycle, a yes pair and a no pair (one bar flipped), and
    # orbit budgets past int()'s digit limit; nothing here is drawn from rng
    for k in (101, 501):
        u = " ".join(map(str, [*range(2, k + 2)] * 2))
        calls += [(["fiber-check", u, u], None), (["fiber-check", u, f"-{u}"], None)]
    calls += [(["orbit", "2 3 2 3", "--max", "9" * 5000], None), (["orbit", "2 3 2 3"], "9" * 5000)]
    return calls


def run(seed: int, out) -> int:
    rng = random.Random(seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            n = 0
            for argv, env in cases(rng):
                out.write(json.dumps(call(argv, env), sort_keys=True) + "\n")
                n += 1
        finally:
            os.chdir(cwd)
    return n


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the random inputs")
    n = run(parser.parse_args().seed, sys.stdout)
    print(f"{n} calls", file=sys.stderr)
