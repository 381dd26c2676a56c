"""Merge-legal sets, flips, theta sets, range checking, recovery, and
multigraph realization."""

import json
import random
from itertools import chain, combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redukt import (
    ARG,
    InvalidGraphError,
    LegalString,
    OutOfRangeError,
    Pointer,
    PointerComponentGraph,
    arg_to_json,
    are_isomorphic,
    bridge_set,
    build_extended_reduction_graph,
    build_reduction_graph,
    canonical_form,
    dom,
    find_theta,
    flip,
    flip_set,
    format_legal_string,
    is_connected,
    is_merge_legal,
    is_reduction_graph,
    is_theta,
    is_well_coloured,
    merge_rule,
    parse_legal_string,
    pc_from_json,
    pc_to_json,
    pointer_component_graph,
    realize_pc,
    recover_legal_string,
    some_merge_legal,
    validate_arg,
)

from oracles import (
    enumerate_merge_legal,
    legal_string_strategy,
    oracle_multigraph_isomorphic,
    random_arg,
    random_connected_multigraph,
    relabeled,
)

FIXTURES = Path(__file__).parent / "fixtures"
U = parse_legal_string("2 -7 4 7 3 5 3 -4 2 6 5 6")

legal_strings = legal_string_strategy()


def load(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def edge(a, b):
    return frozenset({a, b})


def pc_with(g, e):
    """The pointer-component multigraph of (V, reality ∪ e)."""
    return pointer_component_graph(ARG(base=g.base, reality=g.reality, desire=e))


E_BAD = frozenset({edge("2a", "2d"), edge("2b", "2c"), edge("3a", "3c"), edge("3b", "3d")})
E_GOOD = frozenset({edge("2a", "2c"), edge("2b", "2d"), edge("3a", "3c"), edge("3b", "3d")})


def subsets(it):
    xs = sorted(it)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


class TestMergeLegal:
    def test_example(self):
        g = build_reduction_graph(parse_legal_string("2 2"))
        assert some_merge_legal(g) == frozenset({edge("I1", "I1'"), edge("I2", "I2'")})

    def test_merge_of_extension_is_merge_legal(self):
        g = build_reduction_graph(U)
        assert is_merge_legal(g, build_extended_reduction_graph(U).merge)

    def test_desire_partition_is_not(self):
        g = build_reduction_graph(U)
        assert not is_merge_legal(g, g.desire)

    def test_partial_cover_is_not(self):
        g = build_reduction_graph(U)
        assert not is_merge_legal(g, frozenset())
        assert not is_merge_legal(g, frozenset({edge("I1", "I9")}))

    def test_empty_graph(self):
        g = build_reduction_graph(parse_legal_string(""))
        assert is_merge_legal(g, frozenset())
        assert some_merge_legal(g) == frozenset()

    def test_count_is_two_per_symbol(self):
        g = build_reduction_graph(U)
        assert len(enumerate_merge_legal(g)) == 2 ** len(dom(g)) == 64

    @given(legal_strings)
    def test_some_merge_legal_is_merge_legal(self, u):
        g = build_reduction_graph(u)
        assert is_merge_legal(g, some_merge_legal(g))

    def test_random_graphs(self):
        rng = random.Random(20)
        for _ in range(50):
            g = random_arg(rng, max_symbols=4)
            e = some_merge_legal(g)
            assert is_merge_legal(g, e)
            assert e in enumerate_merge_legal(g)


class TestTheta:
    def test_fixture_members(self):
        g = validate_arg(load("path_and_cycle"))
        assert not is_theta(g, E_BAD)
        assert is_theta(g, E_GOOD)

    def test_requires_merge_legal(self):
        g = validate_arg(load("path_and_cycle"))
        with pytest.raises(ValueError, match="merge-legal"):
            is_theta(g, g.desire)

    def test_canonical_merge_always_in_theta(self):
        for text in ["", "2 2", "2 -2", "2 -7 4 7 3 5 3 -4 2 6 5 6"]:
            u = parse_legal_string(text)
            e = build_extended_reduction_graph(u)
            assert is_theta(e.arg, e.merge)

    def test_membership_matches_extension_invariant(self):
        # a merge-legal set is in theta exactly when the extension accepts it
        rng = random.Random(21)
        for _ in range(40):
            g = random_arg(rng, max_symbols=3)
            for e in enumerate_merge_legal(g):
                if is_theta(g, e):
                    from redukt import ExtendedARG

                    ExtendedARG(arg=g, merge=e)
                else:
                    with pytest.raises(ValueError):
                        ExtendedARG(arg=g, merge=e)


class TestFlip:
    def test_example(self):
        g = validate_arg(load("path_and_cycle"))
        assert flip(g, E_BAD, 2) == E_GOOD
        assert flip(g, E_GOOD, 2) == E_BAD

    def test_laws(self):
        rng = random.Random(22)
        seen = 0
        while seen < 60:
            g = random_arg(rng, max_symbols=4)
            if not dom(g):
                continue
            seen += 1
            e = rng.choice(enumerate_merge_legal(g))
            p = rng.choice(sorted(dom(g)))
            q = rng.choice(sorted(dom(g)))
            flipped = flip(g, e, p)
            assert is_merge_legal(g, flipped)
            assert flipped != e
            assert flip(g, flipped, p) == e
            if p != q:
                assert flip(g, flip(g, e, q), p) == flip(g, flipped, q)

    def test_changes_only_that_symbol(self):
        g = build_reduction_graph(U)
        e = some_merge_legal(g)
        flipped = flip(g, e, 4)
        touched = {v for pair in e ^ flipped for v in pair}
        assert all(g.label[v] == 4 for v in touched)

    def test_rejects_malformed_matching(self):
        g = build_reduction_graph(U)
        with pytest.raises(ValueError):
            flip(g, frozenset({edge("I1", "I9")}), 2)


class TestFlipSet:
    def test_identity_and_involution(self):
        g = build_reduction_graph(U)
        e = some_merge_legal(g)
        assert flip_set(g, e, frozenset()) == e
        d = frozenset({2, 5, 7})
        assert flip_set(g, flip_set(g, e, d), d) == e

    def test_composition_by_symmetric_difference(self):
        g = build_reduction_graph(U)
        e = some_merge_legal(g)
        d1, d2 = frozenset({2, 3, 4}), frozenset({3, 4, 5})
        assert flip_set(g, flip_set(g, e, d1), d2) == flip_set(g, e, d1 ^ d2)

    def test_orbit_is_all_merge_legal_sets(self):
        g = build_reduction_graph(U)
        e = some_merge_legal(g)
        images = {flip_set(g, e, frozenset(d)) for d in subsets(dom(g))}
        assert len(images) == 2 ** len(dom(g))
        assert images == set(enumerate_merge_legal(g))

    def test_rejects_symbols_outside_domain(self):
        g = build_reduction_graph(U)
        with pytest.raises(ValueError, match="not a subset of the domain"):
            flip_set(g, some_merge_legal(g), frozenset({99}))


class TestFindTheta:
    def test_fixture_without_theta(self):
        assert find_theta(validate_arg(load("theta_empty"))) is None
        assert find_theta(validate_arg(load("two_components"))) is None

    def test_fixture_with_theta(self):
        g = validate_arg(load("path_and_cycle"))
        e = find_theta(g)
        assert e is not None
        assert is_theta(g, e)

    def test_exhaustive_on_fixture(self):
        # the fixture admits four merge-legal sets and none lies in theta
        g = validate_arg(load("theta_empty"))
        sets = enumerate_merge_legal(g)
        assert len(sets) == 4
        assert not any(is_theta(g, e) for e in sets)

    @given(legal_strings)
    def test_reduction_graphs_always_have_theta(self, u):
        g = build_reduction_graph(u)
        e = find_theta(g)
        assert e is not None
        assert is_theta(g, e)

    @given(legal_strings, st.randoms(use_true_random=False))
    def test_any_spanning_tree_gives_theta(self, u, rng):
        # the direction of find_theta's argument that holds: flipping the
        # symbols of any spanning tree of the pointer-component graph of
        # reality plus a merge-legal set connects the graph
        g = relabeled(build_reduction_graph(u), rng)
        e = some_merge_legal(g)
        m = pc_with(g, e)
        root = {n: n for n in m.nodes}

        def find(n):
            while root[n] != n:
                n = root[n]
            return n

        tree = set()
        for p in rng.sample(sorted(m.endpoints), len(m.endpoints)):
            ends = [find(n) for n in m.endpoints[p]]
            if len(ends) == 2 and ends[0] != ends[1]:
                root[ends[0]] = ends[1]
                tree.add(p)
        assert len(tree) == len(m.nodes) - 1
        assert is_theta(g, flip_set(g, e, tree))

    def test_agrees_with_exhaustive_search(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_arg(rng, max_symbols=3)
            found = find_theta(g)
            brute = [e for e in enumerate_merge_legal(g) if is_theta(g, e)]
            assert (found is not None) == bool(brute)
            if found is not None:
                assert found in brute

    def test_connectivity_independent_of_filling(self):
        rng = random.Random(24)
        for _ in range(40):
            g = random_arg(rng, max_symbols=3)
            vals = {is_connected(pc_with(g, e)) for e in enumerate_merge_legal(g)}
            assert len(vals) == 1


class TestFlipVersusMerge:
    def test_bridge_flip_merges_nodes(self):
        rng = random.Random(25)
        bridge_cases = loop_cases = 0
        while bridge_cases + loop_cases < 80:
            g = random_arg(rng, max_symbols=4)
            if not dom(g):
                continue
            e = rng.choice(enumerate_merge_legal(g))
            p = rng.choice(sorted(dom(g)))
            before = pc_with(g, e)
            after = pc_with(g, flip(g, e, p))
            if p in bridge_set(before):
                assert len(after.nodes) == len(before.nodes) - 1
                assert oracle_multigraph_isomorphic(after, merge_rule(before, p))
                bridge_cases += 1
            else:
                assert len(after.nodes) - len(before.nodes) in (0, 1)
                loop_cases += 1
        assert bridge_cases and loop_cases


class TestRangeCheck:
    def test_reduction_graphs_are_in_range(self):
        assert is_reduction_graph(arg_to_json(build_reduction_graph(U)))
        assert is_reduction_graph(build_reduction_graph(parse_legal_string("")))

    def test_fixtures_out_of_range(self):
        assert not is_reduction_graph(load("theta_empty"))
        assert not is_reduction_graph(load("two_components"))

    def test_malformed_is_false_not_error(self):
        assert not is_reduction_graph({"vertices": []})
        assert not is_reduction_graph(["not", "a", "graph"])
        data = load("theta_empty")
        data["reality"] = data["reality"][1:]
        assert not is_reduction_graph(data)

    def test_matches_well_colouredness(self):
        rng = random.Random(26)
        for _ in range(80):
            g = random_arg(rng, max_symbols=4)
            assert is_reduction_graph(g) == is_well_coloured(g)


class TestRecover:
    def test_small_example(self):
        g = build_reduction_graph(parse_legal_string("2 2"))
        assert format_legal_string(recover_legal_string(g)) == "2 2"

    def test_generic_example(self):
        g = build_reduction_graph(U)
        assert format_legal_string(recover_legal_string(g)) == "2 7 4 -7 3 5 3 -4 2 6 5 6"

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="not isomorphic to any reduction graph"):
            recover_legal_string(validate_arg(load("theta_empty")))

    def test_accepts_raw_json(self):
        w = recover_legal_string(arg_to_json(build_reduction_graph(U)))
        assert are_isomorphic(build_reduction_graph(w), build_reduction_graph(U))

    def test_large_round_trip_with_shuffled_ids(self):
        rng = random.Random(28)
        symbols = [p for p in range(2, 802) for _ in range(2)]
        rng.shuffle(symbols)
        u = LegalString(tuple(Pointer(p, rng.random() < 0.5) for p in symbols))
        g = build_reduction_graph(u)
        # shuffled ids keep some_merge_legal from picking the string's own merge edges
        names = sorted(g.label)
        rename = dict(zip(names, rng.sample([f"v{i}" for i in range(len(names))], len(names))))
        rename.update(s="s", t="t")
        data = arg_to_json(g)
        data = {
            "vertices": [{**v, "id": rename[v["id"]]} for v in data["vertices"]],
            "reality": [[rename[a], rename[b]] for a, b in data["reality"]],
            "desire": [[rename[a], rename[b]] for a, b in data["desire"]],
        }
        w = recover_legal_string(validate_arg(data))
        assert are_isomorphic(build_reduction_graph(w), g)

    @given(legal_strings)
    def test_round_trip_up_to_isomorphism(self, u):
        g = build_reduction_graph(u)
        w = recover_legal_string(g)
        assert canonical_form(build_reduction_graph(w)) == canonical_form(g)


class TestRealize:
    def test_single_loop(self):
        w = realize_pc({"nodes": ["A"], "edges": [{"label": 2, "ends": ["A"]}]})
        assert format_legal_string(w) == "2 -2"

    def test_single_bridge(self):
        w = realize_pc({"nodes": ["A", "B"], "edges": [{"label": 2, "ends": ["A", "B"]}]})
        assert format_legal_string(w) == "2 2"

    def test_single_bare_node(self):
        assert realize_pc({"nodes": ["A"], "edges": []}) == parse_legal_string("")

    def test_round_trip_on_example(self):
        m = pointer_component_graph(build_reduction_graph(U))
        w = realize_pc(pc_to_json(m))
        realized = pointer_component_graph(build_reduction_graph(w))
        assert oracle_multigraph_isomorphic(realized, m)

    def test_linear_node_choice_is_free(self):
        m = pointer_component_graph(build_reduction_graph(U))
        for node in sorted(m.nodes):
            w = realize_pc(m, linear_node=node)
            realized = pointer_component_graph(build_reduction_graph(w))
            assert oracle_multigraph_isomorphic(realized, m)

    def test_unknown_linear_node(self):
        m = pointer_component_graph(build_reduction_graph(U))
        with pytest.raises(InvalidGraphError):
            realize_pc(m, linear_node="nope")

    def test_disconnected_input(self):
        data = {
            "nodes": ["A", "B"],
            "edges": [{"label": 2, "ends": ["A"]}, {"label": 3, "ends": ["B"]}],
        }
        with pytest.raises(OutOfRangeError, match="disconnected"):
            realize_pc(data)

    def test_malformed_input(self):
        with pytest.raises(InvalidGraphError):
            realize_pc({"nodes": ["A", "A"], "edges": []})

    @pytest.mark.parametrize("label", [1, True, 2.0])
    def test_directly_built_multigraph_with_a_bad_label(self, label):
        m = PointerComponentGraph(nodes=frozenset({"A"}), endpoints={label: frozenset({"A"})})
        with pytest.raises(InvalidGraphError, match="bad edge label"):
            realize_pc(m)

    def test_empty_multigraph(self):
        with pytest.raises(OutOfRangeError, match="the empty multigraph is no pointer-component graph"):
            realize_pc({"nodes": [], "edges": []})
        with pytest.raises(InvalidGraphError, match="unknown node 'A'"):
            realize_pc({"nodes": [], "edges": []}, linear_node="A")

    def test_random_multigraphs(self):
        rng = random.Random(27)
        for _ in range(40):
            m = pc_from_json(random_connected_multigraph(rng, max_nodes=4, max_edges=6))
            w = realize_pc(m)
            realized = pointer_component_graph(build_reduction_graph(w))
            assert oracle_multigraph_isomorphic(realized, m)
