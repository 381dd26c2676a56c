"""Pointer-component multigraphs: construction, bridges, merging,
well-colouredness, spanning trees, and serialization."""

import json
import random
from pathlib import Path

import pytest

from redukt import (
    InvalidGraphError,
    PointerComponentGraph,
    bridge_set,
    build_reduction_graph,
    is_connected,
    is_well_coloured,
    merge_rule,
    parse_legal_string,
    pc_from_json,
    pc_to_dot,
    pc_to_json,
    pointer_component_graph,
    spanning_tree_pointers,
    validate_arg,
)

from oracles import canonical_strings, oracle_multigraph_isomorphic, random_arg

FIXTURES = Path(__file__).parent / "fixtures"
U = parse_legal_string("2 -7 4 7 3 5 3 -4 2 6 5 6")


def load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def pc_of(u):
    return pointer_component_graph(build_reduction_graph(u))


class TestConstruction:
    def test_generic_example(self):
        m = pc_of(U)
        assert m.nodes == frozenset({"I1", "I1'", "I2'", "I5'"})
        assert {p: set(v) for p, v in m.endpoints.items()} == {
            2: {"I1", "I1'"},
            3: {"I2'", "I5'"},
            4: {"I1'", "I2'"},
            5: {"I5'"},
            6: {"I1", "I5'"},
            7: {"I1'", "I2'"},
        }
        assert is_connected(m)

    def test_loop_only(self):
        m = pc_of(parse_legal_string("2 -2"))
        assert len(m.nodes) == 1
        assert m.endpoints[2] == m.nodes

    def test_disconnected_fixture(self):
        m = pointer_component_graph(validate_arg(load("theta_empty")))
        assert len(m.nodes) == 2
        assert all(len(ends) == 1 for ends in m.endpoints.values())
        assert not is_connected(m)

    def test_two_components_fixture(self):
        m = pointer_component_graph(validate_arg(load("two_components")))
        assert m.nodes == frozenset({"r1c1", "r1c3", "r1c6", "r2c9", "r3c1", "r3c3"})
        assert len(m.endpoints) == 8
        loops = {p for p, ends in m.endpoints.items() if len(ends) == 1}
        assert loops == {3, 6}
        assert not is_connected(m)

    def test_empty_string(self):
        m = pc_of(parse_legal_string(""))
        assert len(m.nodes) == 1
        assert not m.endpoints
        assert is_connected(m)


class TestBridges:
    def test_generic_example(self):
        assert bridge_set(pc_of(U)) == frozenset({2, 3, 4, 6, 7})

    def test_two_components_fixture(self):
        m = pointer_component_graph(validate_arg(load("two_components")))
        assert bridge_set(m) == frozenset({2, 4, 5, 7, 8, 9})

    def test_loops_never_bridges(self):
        assert bridge_set(pc_of(parse_legal_string("2 -2"))) == frozenset()

    def test_negative_adjacent_pair_is_a_bridge(self):
        # "2 2" splits into two components joined by the symbol's edge
        m = pc_of(parse_legal_string("2 2"))
        assert len(m.nodes) == 2
        assert bridge_set(m) == frozenset({2})


class TestMergeRule:
    def test_smallest_case(self):
        m = pc_from_json(
            {"nodes": ["A", "B"], "edges": [{"label": 2, "ends": ["A", "B"]}]}
        )
        merged = merge_rule(m, 2)
        assert merged.nodes == frozenset({"m:A+B"})
        assert merged.endpoints == {2: frozenset({"m:A+B"})}

    def test_fuses_endpoints(self):
        m = pointer_component_graph(validate_arg(load("two_components")))
        merged = merge_rule(m, 9)
        assert merged.nodes == frozenset(
            {"m:r1c3+r2c9", "r1c1", "r1c6", "r3c1", "r3c3"}
        )
        assert merged.endpoints[9] == frozenset({"m:r1c3+r2c9"})
        assert merged.endpoints[5] == frozenset({"m:r1c3+r2c9", "r1c1"})
        assert merged.endpoints[2] == frozenset({"r1c1", "r3c1"})

    def test_fused_id_is_fresh(self):
        # an existing node may carry the fused id already; it stays its own node
        m = pc_from_json(
            {
                "nodes": ["a", "b", "m:a+b", "c"],
                "edges": [{"label": 2, "ends": ["a", "b"]}, {"label": 3, "ends": ["m:a+b", "c"]}],
            }
        )
        merged = merge_rule(m, 2)
        assert merged.nodes == frozenset({"m:a+b'", "m:a+b", "c"})
        assert merged.endpoints == {2: frozenset({"m:a+b'"}), 3: frozenset({"m:a+b", "c"})}

    def test_decrements_node_count(self):
        m = pc_of(U)
        for p in bridge_set(m):
            assert len(merge_rule(m, p).nodes) == len(m.nodes) - 1

    def test_rejects_loops_and_unknown_symbols(self):
        m = pc_of(U)
        with pytest.raises(ValueError, match="not a bridge"):
            merge_rule(m, 5)
        with pytest.raises(ValueError, match="not a bridge"):
            merge_rule(m, 99)

    def test_commutes_up_to_isomorphism(self):
        m = pointer_component_graph(validate_arg(load("two_components")))
        for p, q in [(2, 9), (2, 4), (4, 5)]:
            a = merge_rule(merge_rule(m, p), q)
            b = merge_rule(merge_rule(m, q), p)
            assert oracle_multigraph_isomorphic(a, b)

    def test_connects_components(self):
        m = pointer_component_graph(validate_arg(load("two_components")))
        # merging every bridge in ascending order must leave one node per
        # original multigraph component
        for p in sorted(bridge_set(m)):
            if len(m.endpoints[p]) == 2:
                m = merge_rule(m, p)
        assert len(m.nodes) == 2


class TestWellColoured:
    def test_examples(self):
        assert is_well_coloured(build_reduction_graph(U))
        assert not is_well_coloured(validate_arg(load("theta_empty")))
        assert not is_well_coloured(validate_arg(load("two_components")))
        assert is_well_coloured(validate_arg(load("path_and_cycle")))

    def test_matches_pc_connectivity_exhaustively(self):
        for u in canonical_strings([2, 3]):
            g = build_reduction_graph(u)
            assert is_well_coloured(g) == is_connected(pointer_component_graph(g))

    def test_matches_pc_connectivity_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(150):
            g = random_arg(rng, max_symbols=5)
            assert is_well_coloured(g) == is_connected(pointer_component_graph(g))


class TestSpanningTree:
    def test_generic_example(self):
        assert spanning_tree_pointers(pc_of(U)) == frozenset({2, 3, 4})

    def test_prefers_smallest_symbols(self):
        m = pc_from_json(
            {
                "nodes": ["A", "B"],
                "edges": [
                    {"label": 2, "ends": ["A", "B"]},
                    {"label": 3, "ends": ["A", "B"]},
                ],
            }
        )
        assert spanning_tree_pointers(m) == frozenset({2})

    def test_single_node(self):
        assert spanning_tree_pointers(pc_of(parse_legal_string("2 -2"))) == frozenset()

    def test_disconnected_raises(self):
        m = pointer_component_graph(validate_arg(load("theta_empty")))
        with pytest.raises(ValueError, match="disconnected"):
            spanning_tree_pointers(m)

    def test_tree_shape(self):
        rng = random.Random(12)
        for _ in range(80):
            g = random_arg(rng, max_symbols=5)
            m = pointer_component_graph(g)
            if not is_connected(m):
                continue
            tree = spanning_tree_pointers(m)
            assert len(tree) == len(m.nodes) - 1
            assert all(len(m.endpoints[p]) == 2 for p in tree)
            ends = {p: m.endpoints[p] for p in tree}
            restricted = m.__class__(nodes=m.nodes, endpoints=ends)
            assert is_connected(restricted)

    def test_connectivity_on_random_multigraphs(self):
        # built directly, so isolated nodes and the empty multigraph occur;
        # checked against a breadth-first search over the edges
        rng = random.Random(13)
        for _ in range(300):
            nodes = [f"N{i}" for i in range(rng.randrange(6))]
            count = rng.randrange(7) if nodes else 0
            endpoints = {p: frozenset(rng.choices(nodes, k=2)) for p in range(2, 2 + count)}
            m = PointerComponentGraph(nodes=frozenset(nodes), endpoints=endpoints)
            seen, frontier = set(nodes[:1]), nodes[:1]
            while frontier:
                n = frontier.pop()
                for ends in endpoints.values():
                    if n in ends:
                        frontier += ends - seen
                        seen |= ends
            assert is_connected(m) == (len(seen) == len(nodes))
            if is_connected(m):
                assert len(spanning_tree_pointers(m)) == max(len(nodes) - 1, 0)
            else:
                with pytest.raises(ValueError, match="disconnected"):
                    spanning_tree_pointers(m)


class TestSerialization:
    def test_json_round_trip(self):
        for src in [pc_of(U), pointer_component_graph(validate_arg(load("two_components")))]:
            assert pc_from_json(pc_to_json(src)) == src

    def test_json_shape(self):
        data = pc_to_json(pc_of(parse_legal_string("2 -2")))
        assert data["nodes"] == ["I1"]
        assert data["edges"] == [{"label": 2, "ends": ["I1"]}]

    @pytest.mark.parametrize(
        "data,needle",
        [
            ({"nodes": ["A"], "edges": [{"label": 2, "ends": ["A", "B"]}]}, "unknown"),
            (
                {
                    "nodes": ["A", "B"],
                    "edges": [
                        {"label": 2, "ends": ["A", "B"]},
                        {"label": 2, "ends": ["A", "B"]},
                    ],
                },
                "duplicate",
            ),
            ({"nodes": ["A", "B"], "edges": [{"label": 2, "ends": []}]}, "ends"),
            ({"nodes": []}, "missing key"),
            ({"nodes": ["A", "A"], "edges": []}, "duplicate"),
        ],
    )
    def test_rejects_malformed(self, data, needle):
        with pytest.raises(InvalidGraphError, match=needle):
            pc_from_json(data)

    @pytest.mark.parametrize("label", ["x", 1, 2.0, True])
    def test_rejects_bad_edge_label(self, label):
        with pytest.raises(InvalidGraphError) as info:
            pc_from_json({"nodes": ["A"], "edges": [{"label": label, "ends": ["A"]}]})
        assert info.value.diagnostics == [f"bad edge label {label!r}"]

    def test_dot_output(self):
        dot = pc_to_dot(pc_of(U))
        assert dot == pc_to_dot(pc_of(U))
        assert dot.startswith("graph")
        assert '"I5\'" -- "I5\'" [label="5"];' in dot
        assert '"I1" -- "I1\'" [label="2"];' in dot
