"""Reduction graphs: construction, validation, canonical forms,
extension, signs, and legalization."""

import json
import os
import random
import subprocess
import sys
import textwrap
import types
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from redukt import (
    ARG,
    ColouredBase,
    ExtendedARG,
    InvalidGraphError,
    LegalString,
    Pointer,
    arg_diagnostics,
    arg_to_json,
    are_isomorphic,
    are_isomorphic_extended,
    build_extended_reduction_graph,
    build_reduction_graph,
    canonical_equiv_rep,
    canonical_form,
    components,
    desire_partition,
    dom,
    domain,
    equivalent,
    extended_canonical_form,
    extended_from_json,
    extended_to_json,
    format_legal_string,
    is_merge_legal,
    is_reduction_graph,
    legalization_representative,
    parse_legal_string,
    pointer_component_graph,
    pointer_sign,
    realize_pc,
    recover_legal_string,
    st_path,
    validate_arg,
)
from redukt import redgraph

from oracles import (
    all_strings,
    canonical_strings,
    legal_string_strategy,
    oracle_canonical_form,
    oracle_component_count,
    oracle_cycle_word,
    oracle_id_key,
    oracle_isomorphic,
    oracle_reduction_graph,
    random_arg,
    relabeled,
)

FIXTURES = Path(__file__).parent / "fixtures"
U = parse_legal_string("2 -7 4 7 3 5 3 -4 2 6 5 6")

legal_strings = legal_string_strategy()


@st.composite
def cycle_labels(draw):
    """Even-length label lists over two or three labels: a drawn pattern
    repeated, so labels repeat more than four times and words are often
    periodic; a one-label pattern makes a 2-cycle."""
    alphabet = st.integers(2, draw(st.integers(3, 4)))
    labels = draw(st.lists(alphabet, min_size=1, max_size=10)) * draw(st.integers(1, 4))
    return labels * (1 + len(labels) % 2)


def load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def edge(a, b):
    return frozenset({a, b})


def check_against_textbook_oracle(u):
    # the same edges, and the order set without sorting is the natural one
    g, oracle = build_reduction_graph(u), oracle_reduction_graph(u)
    assert g == oracle
    assert arg_to_json(g) == arg_to_json(oracle)
    merge = {edge(f"I{i}", f"I{i}'") for i in range(1, len(u) + 1)}
    assert build_extended_reduction_graph(u).merge == merge


class TestBuild:
    @pytest.mark.parametrize("bars", [True, False])
    @given(data=st.data())
    def test_agrees_with_textbook_oracle(self, bars, data):
        check_against_textbook_oracle(data.draw(legal_string_strategy(12, bars=bars)))

    def test_empty_string_agrees_with_textbook_oracle(self):
        check_against_textbook_oracle(parse_legal_string(""))

    def test_example_counts(self):
        g = build_reduction_graph(U)
        assert len(g.vertices) == 26
        assert len(g.reality) == 13
        assert len(g.desire) == 12
        assert len(components(g)) == 4
        assert dom(g) == {2, 3, 4, 5, 6, 7}

    def test_two_negative_occurrences(self):
        g = build_reduction_graph(parse_legal_string("2 2"))
        assert g.reality == {edge("s", "I1"), edge("I1'", "I2"), edge("I2'", "t")}
        assert g.desire == {edge("I1'", "I2"), edge("I1", "I2'")}
        # the desire edge parallel to a reality edge closes a 2-cycle,
        # leaving the path component s I1 I2' t
        assert len(components(g)) == 2

    def test_two_positive_occurrences(self):
        g = build_reduction_graph(parse_legal_string("2 -2"))
        assert g.desire == {edge("I1", "I2"), edge("I1'", "I2'")}
        assert len(components(g)) == 1

    def test_empty_string(self):
        g = build_reduction_graph(parse_legal_string(""))
        assert g.vertices == {"s", "t"}
        assert g.reality == {edge("s", "t")}
        assert g.desire == frozenset()

    @given(legal_strings)
    def test_shape_invariants(self, u):
        g = build_reduction_graph(u)
        assert len(g.vertices) == 2 * len(u) + 2
        coverage = {v: 0 for v in g.vertices}
        for e in g.reality:
            for v in e:
                coverage[v] += 1
        assert all(c == 1 for c in coverage.values())
        desire_cover = {v: 0 for v in g.vertices if v not in ("s", "t")}
        for e in g.desire:
            a, b = tuple(e)
            assert g.label[a] == g.label[b]
            desire_cover[a] += 1
            desire_cover[b] += 1
        assert all(c == 1 for c in desire_cover.values())

    def test_desire_partition(self):
        assert desire_partition(build_reduction_graph(parse_legal_string("2 2")), 2) == {
            edge("I1'", "I2"),
            edge("I1", "I2'"),
        }
        assert desire_partition(build_reduction_graph(parse_legal_string("2 -2")), 2) == {
            edge("I1", "I2"),
            edge("I1'", "I2'"),
        }
        assert desire_partition(validate_arg(load("theta_empty")), 3) == {
            edge("3a", "3c"),
            edge("3b", "3d"),
        }
        with pytest.raises(ValueError):
            desire_partition(build_reduction_graph(U), 9)


class TestValidate:
    @pytest.mark.parametrize("name", ["theta_empty", "two_components", "path_and_cycle"])
    def test_fixtures_valid(self, name):
        g = validate_arg(load(name))
        assert arg_diagnostics(load(name)) == []
        assert isinstance(g, ARG)

    def test_round_trip(self):
        data = arg_to_json(build_reduction_graph(U))
        assert validate_arg(data) == build_reduction_graph(U)

    def test_rendering_of_ids_equal_up_to_leading_zeros_ignores_hash_seed(self):
        # x1 and x01 tie on their digit runs; the raw id breaks the tie
        script = textwrap.dedent(
            """
            import json
            from redukt import arg_to_json, validate_arg

            names = {2: ("x1", "x01", "x2", "x02"), 3: ("y1", "y01", "y2", "y02")}
            data = {
                "vertices": [{"id": "s"}, {"id": "t"}]
                + [{"id": v, "label": p} for p, vs in names.items() for v in vs],
                "reality": [["s", "x1"], ["x01", "y1"], ["y01", "x2"], ["x02", "y2"], ["y02", "t"]],
                "desire": [["x1", "x2"], ["x01", "x02"], ["y1", "y02"], ["y01", "y2"]],
            }
            print(json.dumps(arg_to_json(validate_arg(data))))
            """
        )
        src = str(Path(__file__).parents[1] / "src")
        outputs = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
                capture_output=True,
                text=True,
                timeout=30,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        data = json.loads(outputs.pop())
        ids = [v["id"] for v in data["vertices"]]
        assert ids == ["s", "t", "x01", "x1", "x02", "x2", "y01", "y1", "y02", "y2"]
        assert data["desire"] == [["x01", "x02"], ["x1", "x2"], ["y01", "y2"], ["y1", "y02"]]

    def test_error_messages_ignore_hash_seed(self):
        # a merge set with four bad edges names one of them, and a directly
        # built ARG lists its problems, in the same order under every seed
        script = textwrap.dedent(
            """
            from redukt import ARG, ColouredBase, ExtendedARG, InvalidGraphError
            from redukt import build_reduction_graph, canonical_form, parse_legal_string

            g = build_reduction_graph(parse_legal_string("2 3 4 5 2 3 4 5"))
            merge = frozenset(frozenset((f"I{i}", f"I{i + 1}")) for i in (7, 5, 3, 1))
            try:
                ExtendedARG(g, merge)
            except ValueError as exc:
                print(exc)
            label = {f"{p}{c}": p for p in (2, 3, 4) for c in "abcd"}
            base = ColouredBase(frozenset(label) | {"s", "t"}, "s", "t", label)
            vs = ["s", *sorted(label), "t"]
            reality = frozenset(frozenset(vs[i : i + 2]) for i in range(0, len(vs), 2))
            desire = [("2a", "3a"), ("2b", "4b"), ("3c", "4c"), ("2c", "2d"), ("3b", "s"), ("4a", "t")]
            bad_pairs = reality | {frozenset(("s", "x9")), frozenset(("y", "t"))}
            for r in (reality, bad_pairs):
                try:
                    canonical_form(ARG(base, r, frozenset(map(frozenset, desire))))
                except InvalidGraphError as exc:
                    print(exc.diagnostics)
            """
        )
        src = str(Path(__file__).parents[1] / "src")
        outputs = set()
        for seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
                capture_output=True,
                text=True,
                timeout=30,
                env={**os.environ, "PYTHONHASHSEED": str(seed)},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        merge_message, shape, pairs = outputs.pop().splitlines()
        assert merge_message == "merge edge ['I1', 'I2'] does not join equal labels"
        assert shape.startswith(
            "[\"desire edge ['2a', '3a'] joins labels 2 and 3\", "
            "\"desire edge ['2b', '4b'] joins labels 2 and 4\", "
            "\"desire edge ['3b', 's'] touches an unlabelled vertex\", "
            "\"desire edge ['3c', '4c'] joins labels 3 and 4\", "
        )
        assert pairs == (
            "[\"reality edge ['s', 'x9'] is not a pair of distinct vertices\", "
            "\"reality edge ['t', 'y'] is not a pair of distinct vertices\"]"
        )

    def test_edge_with_a_non_string_end_is_reported(self):
        g = build_reduction_graph(parse_legal_string("2 2"))
        reality = (g.reality - {frozenset({"s", "I1"})}) | {frozenset({"s", 3})}
        with pytest.raises(InvalidGraphError) as info:
            canonical_form(ARG(g.base, reality, g.desire))
        assert "reality edge [3, 's'] is not a pair of distinct vertices" in info.value.diagnostics

    def test_label_quadruple_violation(self):
        data = {
            "vertices": [{"id": "a", "label": 2}, {"id": "b", "label": 2}, {"id": "s"}, {"id": "t"}],
            "reality": [["s", "a"], ["b", "t"]],
            "desire": [["a", "b"]],
        }
        msgs = arg_diagnostics(data)
        assert any("label 2 occurs on 2 vertices" in m for m in msgs)

    def test_reality_matching_violation(self):
        data = load("theta_empty")
        data["reality"] = [e for e in data["reality"] if "s" not in e]
        msgs = arg_diagnostics(data)
        assert any("'s' lies in 0 reality edges" in m for m in msgs)
        with pytest.raises(InvalidGraphError):
            validate_arg(data)

    def test_desire_label_violation(self):
        data = load("theta_empty")
        data["desire"] = [["2a", "3a"], ["2b", "2c"], ["2d", "3b"], ["3c", "3d"]]
        msgs = arg_diagnostics(data)
        assert any("joins labels 2 and 3" in m for m in msgs)

    def test_desire_edges_must_cover_each_label_class(self):
        # every vertex lies in one desire edge, but no edge stays inside a
        # label, so no label class has its two desire edges
        ids = [f"{p}{c}" for p in (2, 3) for c in "abcd"]
        data = {
            "vertices": [{"id": v, "label": int(v[0])} for v in ids] + [{"id": "s"}, {"id": "t"}],
            "reality": [["s", "2a"], ["2b", "2c"], ["2d", "3a"], ["3b", "3c"], ["3d", "t"]],
            "desire": [[f"2{c}", f"3{c}"] for c in "abcd"],
        }
        with pytest.raises(InvalidGraphError) as info:
            validate_arg(data)
        joins = [f"desire edge ['2{c}', '3{c}'] joins labels 2 and 3" for c in "abcd"]
        assert info.value.diagnostics == joins

    def test_malformed_direct_arg_raises_rather_than_hangs(self):
        # a and b each lie in two reality edges; queries on such an ARG
        # once walked forever, so they run in a child with a timeout
        script = textwrap.dedent(
            """
            from redukt import ARG, ColouredBase, InvalidGraphError, canonical_form
            from redukt import is_reduction_graph, recover_legal_string

            base = ColouredBase(frozenset("sabcdt"), "s", "t", dict.fromkeys("abcd", 2))
            reality = frozenset(map(frozenset, ["sa", "ab", "bt", "cd"]))
            g = ARG(base, reality, frozenset(map(frozenset, ["ac", "bd"])))
            assert not is_reduction_graph(g)
            for query in (canonical_form, recover_legal_string):
                try:
                    query(g)
                except InvalidGraphError as exc:
                    assert "vertex 'a' lies in 2 reality edges, expected exactly 1" in (
                        exc.diagnostics
                    )
                else:
                    raise AssertionError(query.__name__ + " accepted the graph")
            """
        )
        src = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0, proc.stderr

    @given(legal_strings, st.randoms(use_true_random=False))
    def test_rewired_edge_is_rejected_by_every_query(self, u, rng):
        assume(len(u) > 0)
        g = build_reduction_graph(u)
        key = rng.choice(["reality", "desire"])
        edges = set(getattr(g, key))
        a, b = old = rng.choice(sorted(map(sorted, edges)))
        edges.remove(frozenset(old))
        c = rng.choice(sorted(set(g.label) - {a, b}))
        edges.add(frozenset({a, c}))
        bad = ARG(base=g.base, **{"reality": g.reality, "desire": g.desire, key: frozenset(edges)})
        assert not is_reduction_graph(bad)
        queries = (canonical_form, components, pointer_component_graph, recover_legal_string)
        for query in (*queries, arg_to_json, lambda g: is_merge_legal(g, ())):
            with pytest.raises(InvalidGraphError):
                query(bad)

    def test_desire_on_endpoint_violation(self):
        data = load("theta_empty")
        data["desire"][0] = ["s", "2a"]
        assert any("unlabelled" in m for m in arg_diagnostics(data))

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d["reality"].append(["2a", "2a"]), "loop"),
            (lambda d: d["reality"].append(["2a", "zz"]), "unknown vertex"),
            (lambda d: d["vertices"].append({"id": "2a", "label": 2}), "duplicate"),
            (lambda d: d["vertices"].append({"id": "x"}), "unlabelled"),
            (lambda d: d.pop("desire"), "missing key"),
            (lambda d: d["vertices"].append({"id": "y", "label": 1}), "bad label"),
        ],
    )
    def test_structural_diagnostics(self, mutate, needle):
        data = load("theta_empty")
        mutate(data)
        msgs = arg_diagnostics(data)
        assert any(needle in m for m in msgs), msgs

    def test_all_violations_reported(self):
        data = load("theta_empty")
        data["reality"] = data["reality"][1:]
        data["desire"] = data["desire"][1:]
        msgs = arg_diagnostics(data)
        assert len(msgs) >= 4  # s, 2a uncovered by reality; 2a, 2b by desire


class TestCanonicalForm:
    def test_label_values_distinguish(self):
        g2 = build_reduction_graph(parse_legal_string("2 2"))
        g3 = build_reduction_graph(parse_legal_string("3 3"))
        assert canonical_form(g2) != canonical_form(g3)
        assert not are_isomorphic(g2, g3)

    def test_equivalent_strings_same_graph(self):
        g1 = build_reduction_graph(parse_legal_string("2 -2"))
        g2 = build_reduction_graph(parse_legal_string("-2 2"))
        assert canonical_form(g1) == canonical_form(g2)
        assert are_isomorphic(g1, g2)

    def test_sign_patterns_distinguish(self):
        assert not are_isomorphic(
            build_reduction_graph(parse_legal_string("2 2")),
            build_reduction_graph(parse_legal_string("2 -2")),
        )

    def test_self_isomorphic(self):
        g = build_reduction_graph(U)
        assert are_isomorphic(g, g)

    def test_labels_pinned_along_path(self):
        # the vertex adjacent to s carries label 2 in one graph, 3 in the
        # other, so no label-preserving isomorphism exists
        assert not are_isomorphic(
            build_reduction_graph(parse_legal_string("2 2 3 3")),
            build_reduction_graph(parse_legal_string("3 3 2 2")),
        )

    def test_dual_rule_image_isomorphic(self):
        v = parse_legal_string("2 4 -3 -5 -3 -7 -4 7 2 6 5 6")
        assert are_isomorphic(build_reduction_graph(U), build_reduction_graph(v))

    def test_agrees_with_oracle_on_canonical_strings(self):
        graphs = [build_reduction_graph(u) for u in canonical_strings([2, 3])]
        for g, h in combinations(graphs, 2):
            assert (canonical_form(g) == canonical_form(h)) == oracle_isomorphic(g, h)

    def test_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(60):
            g = random_arg(rng, max_symbols=3)
            h = random_arg(rng, max_symbols=3)
            assert (canonical_form(g) == canonical_form(h)) == oracle_isomorphic(g, h)

    def test_invariant_under_relabelling(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_arg(rng, max_symbols=4)
            h = relabeled(g, rng)
            assert canonical_form(g) == canonical_form(h)
            assert oracle_isomorphic(g, h)

    @given(cycle_labels())
    def test_cycle_word_agrees_with_oracle(self, labels):
        assert redgraph._canonical_cycle_word(labels) == oracle_cycle_word(labels)

    @given(st.randoms(use_true_random=False))
    def test_agrees_with_oracle_form_on_random_graphs(self, rng):
        g = random_arg(rng, max_symbols=8)
        assert canonical_form(g) == oracle_canonical_form(g)

    @given(legal_string_strategy(max_symbols=10))
    def test_agrees_with_oracle_form_on_every_cycle(self, u):
        g = build_reduction_graph(u)
        assert canonical_form(g) == oracle_canonical_form(g)

    def test_large_graphs_in_a_child_process(self):
        # the k=3200 round trip on three seeds, and fiber-check on the odd-k
        # single cycle of 8,002 vertices, under a 2 GiB address-space limit
        script = textwrap.dedent(
            """
            import json, random, resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from redukt import LegalString, Pointer, are_isomorphic, arg_to_json
            from redukt import build_reduction_graph, recover_legal_string, validate_arg
            from redukt.cli import main

            for seed in range(3):
                rng = random.Random(seed)
                letters = [p for p in range(2, 3202) for _ in range(2)]
                rng.shuffle(letters)
                g = build_reduction_graph(LegalString(tuple(Pointer(p, rng.random() < 0.5) for p in letters)))
                w = recover_legal_string(validate_arg(json.loads(json.dumps(arg_to_json(g)))))
                assert are_isomorphic(build_reduction_graph(w), g), seed
            u = " ".join(map(str, [*range(2, 4003)] * 2))
            raise SystemExit(main(["fiber-check", u, u]))
            """
        )
        src = str(Path(__file__).parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{script}"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"dual_equivalent": True}

    @given(legal_strings)
    def test_component_counts_match_oracle(self, u):
        g = build_reduction_graph(u)
        form = canonical_form(g)
        assert 1 + len(form.cycle_words) == oracle_component_count(g)


class TestExtended:
    def test_merge_edges(self):
        e = build_extended_reduction_graph(U)
        assert len(e.merge) == 12
        assert e.merge == frozenset(edge(f"I{i}", f"I{i}'") for i in range(1, 13))
        small = build_extended_reduction_graph(parse_legal_string("2 2"))
        assert small.merge == frozenset({edge("I1", "I1'"), edge("I2", "I2'")})

    def test_st_path_generic_order(self):
        e = build_extended_reduction_graph(U)
        expected = ["s"]
        for i in range(1, 13):
            expected += [f"I{i}", f"I{i}'"]
        expected.append("t")
        assert st_path(e) == tuple(expected)

    def test_st_path_small(self):
        e = build_extended_reduction_graph(parse_legal_string("2 2"))
        assert st_path(e) == ("s", "I1", "I1'", "I2", "I2'", "t")

    def test_crossed_merge_path_visits_everything(self):
        e = extended_from_json(load("crossed_merge"))
        path = st_path(e)
        assert len(path) == 26
        assert set(path) == set(e.arg.vertices)

    def test_pointer_signs(self):
        e = build_extended_reduction_graph(U)
        assert pointer_sign(e, 2) == "negative"
        assert pointer_sign(e, 7) == "positive"
        e2 = build_extended_reduction_graph(parse_legal_string("2 -2"))
        assert pointer_sign(e2, 2) == "positive"

    @given(legal_strings)
    def test_signs_match_string(self, u):
        e = build_extended_reduction_graph(u)
        for p in domain(u):
            expected = "positive" if (u.letters and _positive_in(u, p)) else "negative"
            assert pointer_sign(e, p) == expected

    def test_legalization_of_generic_extension(self):
        e = build_extended_reduction_graph(U)
        assert format_legal_string(legalization_representative(e)) == "2 7 4 -7 3 5 3 -4 2 6 5 6"

    @pytest.mark.parametrize("text", ["2 2", "2 -2"])
    def test_legalization_of_small_extensions(self, text):
        e = build_extended_reduction_graph(parse_legal_string(text))
        assert format_legal_string(legalization_representative(e)) == text

    def test_legalization_of_crossed_merge(self):
        e = extended_from_json(load("crossed_merge"))
        assert format_legal_string(legalization_representative(e)) == "2 7 4 2 6 5 3 7 4 3 -5 6"

    @given(legal_strings)
    def test_string_is_member_of_own_legalization(self, u):
        e = build_extended_reduction_graph(u)
        rep = legalization_representative(e)
        assert rep == canonical_equiv_rep(u)
        assert equivalent(rep, u)

    def test_merge_must_avoid_desire(self):
        g = build_reduction_graph(parse_legal_string("2 -2"))
        with pytest.raises(ValueError, match="also a desire edge"):
            ExtendedARG(arg=g, merge=frozenset({edge("I1", "I2"), edge("I1'", "I2'")}))

    def test_merge_edges_must_not_overlap(self):
        # I1 lies in two merge edges; every labelled vertex is covered
        g = build_reduction_graph(parse_legal_string("2 2"))
        merge = frozenset({edge("I1", "I1'"), edge("I2", "I2'"), edge("I1", "I2")})
        with pytest.raises(ValueError, match=r"\Amerge edges overlap\Z"):
            ExtendedARG(arg=g, merge=merge)

    def test_merge_must_connect(self):
        g = validate_arg(load("path_and_cycle"))
        bad = frozenset({edge("2a", "2d"), edge("2b", "2c"), edge("3a", "3c"), edge("3b", "3d")})
        with pytest.raises(ValueError, match="connect"):
            ExtendedARG(arg=g, merge=bad)

    def test_merge_must_match_labels(self):
        g = validate_arg(load("path_and_cycle"))
        bad = frozenset({edge("2a", "3a"), edge("2b", "2d"), edge("2c", "3c"), edge("3b", "3d")})
        with pytest.raises(ValueError, match="equal labels"):
            ExtendedARG(arg=g, merge=bad)

    def test_extended_canonical_form_value(self):
        # path labels, then each desire edge as its two positions on the s-t path
        e = build_extended_reduction_graph(parse_legal_string("2 2"))
        assert extended_canonical_form(e) == ((2, 2), ((1, 4), (2, 3)))

    def test_extended_json_round_trip(self):
        e = extended_from_json(load("crossed_merge"))
        assert extended_from_json(extended_to_json(e)) == e

    def test_large_extended_json_round_trip(self):
        rng = random.Random(33)
        symbols = [p for p in range(2, 3202) for _ in range(2)]
        rng.shuffle(symbols)
        u = LegalString(tuple(Pointer(p, rng.random() < 0.5) for p in symbols))
        e = build_extended_reduction_graph(u)
        assert extended_from_json(extended_to_json(e)) == e

    def test_extended_isomorphism_examples(self):
        e_generic = build_extended_reduction_graph(U)
        e_crossed = extended_from_json(load("crossed_merge"))
        assert not are_isomorphic_extended(e_generic, e_crossed)
        e_rep = build_extended_reduction_graph(canonical_equiv_rep(U))
        assert are_isomorphic_extended(e_generic, e_rep)

    def test_extension_characterizes_equivalence(self):
        # same extended canonical form exactly for equivalent strings
        universe = all_strings([2, 3])
        for u in universe:
            fu = extended_canonical_form(build_extended_reduction_graph(u))
            for v in universe[:24]:
                fv = extended_canonical_form(build_extended_reduction_graph(v))
                assert (fu == fv) == equivalent(u, v)


class TestIdKey:
    """redgraph._id_key, the one natural-order key of vertex ids."""

    # ASCII digits, leading zeros, a digit int() rejects ("²"), Arabic-Indic
    # digits ("٣" is 3, "٠" is 0), letters and quotes; the empty id too
    @given(st.lists(st.text(alphabet="0019²٣٠abIst'\"", max_size=7), max_size=12))
    def test_order_is_the_tagged_keys(self, ids):
        ids += [v[:i] for v in ids for i in range(len(v))]  # with every prefix, such as "a" of "a0"
        assert sorted(ids, key=redgraph._id_key) == sorted(ids, key=oracle_id_key)

    def test_runs_past_the_int_digit_limit_sort_by_value(self):
        big = "1" * 5000
        ids = [
            f"x{big}",
            f"x{'0' * 7}{big}",  # the same value: the raw id breaks the tie
            f"x{big[:-1]}2",
            f"x{'9' * 4999}",
            f"x{'٣' * 5000}",
            f"x{big}y10",
            f"x{big}y9",
            "x2",
        ]
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)  # no limit: the reference converts every run
            expected = sorted(ids, key=oracle_id_key)
            sys.set_int_max_str_digits(640)  # the lowest limit int() allows
            assert sorted(ids, key=redgraph._id_key) == expected
        finally:
            sys.set_int_max_str_digits(saved)
        assert expected[0] == "x2" and expected[-1] == f"x{'٣' * 5000}"


class TestReadGraph:
    def test_messages_and_their_order(self):
        data = arg_to_json(build_reduction_graph(parse_legal_string("2 2")))
        # any Mapping is a vertex entry; a dict is only the common case
        data["vertices"][0] = types.MappingProxyType(data["vertices"][0])
        data["vertices"] += [["id", "a"], {"label": 2}, {"id": 5}, {"id": "b", "label": True}]
        assert arg_diagnostics(data) == [
            "bad vertex entry ['id', 'a']",
            "bad vertex entry {'label': 2}",
            "bad vertex entry {'id': 5}",
            "vertex 'b' has bad label True",
        ]
        data = arg_to_json(build_reduction_graph(parse_legal_string("2 2")))
        data["reality"] += [("s", "I1"), ["s", 3], ["s", "I1", "t"], "st", ["s", "x"]]
        assert arg_diagnostics(data) == [
            "bad reality edge ('s', 'I1')",
            "bad reality edge ['s', 3]",
            "bad reality edge ['s', 'I1', 't']",
            "bad reality edge 'st'",
            "reality edge ['s', 'x'] mentions an unknown vertex",
        ]


class TestExtendedFromJson:
    def test_missing_merge(self):
        data = arg_to_json(build_reduction_graph(parse_legal_string("2 2")))
        with pytest.raises(InvalidGraphError) as exc:
            extended_from_json(data)
        assert exc.value.diagnostics == ["missing key 'merge'"]

    def test_missing_keys_are_listed_together(self):
        with pytest.raises(InvalidGraphError) as exc:
            extended_from_json({"reality": [], "desire": []})
        assert exc.value.diagnostics == ["missing key 'vertices'", "missing key 'merge'"]

    def test_merge_must_be_a_list(self):
        data = {**arg_to_json(build_reduction_graph(parse_legal_string("2 2"))), "merge": {}}
        with pytest.raises(InvalidGraphError) as exc:
            extended_from_json(data)
        assert exc.value.diagnostics == ["'merge' must be a list of vertex pairs"]

    def test_every_bad_merge_edge_is_listed(self):
        data = extended_to_json(build_extended_reduction_graph(parse_legal_string("2 2")))
        data["merge"] += [["I1"], ["I1", "x"], ["I2", "I2"], [3, "I2"]]
        with pytest.raises(InvalidGraphError) as exc:
            extended_from_json(data)
        assert exc.value.diagnostics == [
            "bad merge edge ['I1']",
            "merge edge ['I1', 'x'] mentions an unknown vertex",
            "merge edge ['I2', 'I2'] is a loop",
            "bad merge edge [3, 'I2']",
        ]

    def test_duplicate_merge_edge_counts_once(self):
        e = build_extended_reduction_graph(U)
        data = extended_to_json(e)
        data["merge"].append(data["merge"][0][::-1])
        assert extended_from_json(data) == e


class TestIndexHandOver:
    """Built and validated graphs carry the index they were made from."""

    def test_builders_convert_no_edge_set(self, monkeypatch):
        m = pointer_component_graph(build_reduction_graph(U))
        expected = (
            arg_to_json(build_reduction_graph(U)),
            extended_to_json(build_extended_reduction_graph(U)),
            realize_pc(m),
        )

        def refuse(num, edges):
            raise AssertionError("an edge set was converted to a partner array")

        monkeypatch.setattr(redgraph, "_partners", refuse)
        got = (
            arg_to_json(build_reduction_graph(U)),
            extended_to_json(build_extended_reduction_graph(U)),
            realize_pc(m),
        )
        assert got == expected

    def test_recover_sorts_the_ids_once(self, monkeypatch):
        data = arg_to_json(build_reduction_graph(U))
        keyed = []

        def counting_key(v):
            keyed.append(v)
            return id_key(v)

        id_key = redgraph._id_key
        monkeypatch.setattr(redgraph, "_id_key", counting_key)
        recover_legal_string(validate_arg(data))
        assert len(keyed) == len(data["vertices"])


def _positive_in(u, p):
    occ = [x for x in u.letters if x.symbol == p]
    return occ[0].barred != occ[1].barred


class TestColouredBase:
    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            ColouredBase(vertices=frozenset({"s"}), s="s", t="t", label={})

    def test_rejects_mislabelled(self):
        with pytest.raises(ValueError):
            ColouredBase(vertices=frozenset({"s", "t", "a"}), s="s", t="t", label={})
