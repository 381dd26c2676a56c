"""Rewriting rules on legal strings: the three reducing rules, the two
in-place duals, rule sequences, reduction search, orbits, and the
graph-equivalence decision."""

import random
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given

import redukt.rules as rules_module
from redukt import (
    DualRule,
    ExtendedARG,
    LegalString,
    NotApplicableError,
    OrbitLimitError,
    RuleSequence,
    StringRule,
    applicable_dual_rules,
    apply_dsdr,
    apply_dspr,
    apply_rule,
    apply_sdr,
    apply_sequence,
    apply_snr,
    apply_spr,
    are_isomorphic_extended,
    build_extended_reduction_graph,
    build_reduction_graph,
    canonical_equiv_rep,
    domain,
    dual_equivalent,
    equivalent,
    flip_set,
    format_legal_string,
    format_rule_sequence,
    is_positive,
    is_theta,
    legalization_representative,
    orbit,
    overlap,
    p_interval,
    parse_legal_string,
    parse_rule,
    parse_rule_sequence,
    successful_reduction_search,
)

from oracles import (
    all_strings,
    enumerate_merge_legal,
    legal_string_strategy,
    oracle_connected,
    oracle_orbit,
    oracle_reduction,
    oracle_rule,
    random_legal_string,
)

P = parse_legal_string
F = format_legal_string
U = P("2 -7 4 7 3 5 3 -4 2 6 5 6")

legal_strings = legal_string_strategy()


def subsets(xs):
    xs = sorted(xs)
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


class TestStringRules:
    @pytest.mark.parametrize(
        "text,p,expected",
        [
            ("2 3 3 2", 3, "2 2"),
            ("2 -3 -3 2", 3, "2 2"),
            ("3 2 2 3", 2, "3 3"),
            ("2 2", 2, ""),
            ("-2 -2", 2, ""),
        ],
    )
    def test_snr(self, text, p, expected):
        assert F(apply_snr(P(text), p)) == expected

    @pytest.mark.parametrize(
        "text,p",
        [
            ("2 3 2 3", 2),  # occurrences not adjacent
            ("2 -2", 2),  # adjacent but opposite bars
            ("2 2", 3),  # symbol absent
        ],
    )
    def test_snr_not_applicable(self, text, p):
        with pytest.raises(NotApplicableError):
            apply_snr(P(text), p)

    @pytest.mark.parametrize(
        "text,p,expected",
        [
            ("2 3 -2 3", 2, "-3 3"),
            ("2 -2", 2, ""),
            ("2 3 4 -3 4 -2", 2, "-4 3 -4 -3"),
        ],
    )
    def test_spr(self, text, p, expected):
        assert F(apply_spr(P(text), p)) == expected

    def test_spr_needs_positive_symbol(self):
        with pytest.raises(NotApplicableError):
            apply_spr(P("2 2"), 2)

    def test_sdr(self):
        assert F(apply_sdr(P("2 4 3 2 3 4"), 2, 3)) == "4 4"
        assert F(apply_sdr(P("2 3 2 3"), 2, 3)) == ""

    def test_sdr_requires_role_order(self):
        # the first named pointer must be the one occurring first
        with pytest.raises(NotApplicableError, match="precede"):
            apply_sdr(P("2 4 3 2 3 4"), 3, 2)

    @pytest.mark.parametrize(
        "text,p,q",
        [
            ("2 2 3 3", 2, 3),  # no overlap
            ("2 3 -2 3", 2, 3),  # 2 is positive
            ("2 3 2 -3", 2, 3),  # 3 is positive
            ("2 3 2 3", 2, 2),  # not distinct
        ],
    )
    def test_sdr_not_applicable(self, text, p, q):
        with pytest.raises((NotApplicableError, ValueError)):
            apply_sdr(P(text), p, q)

    @given(legal_strings)
    def test_reducing_rules_shorten_by_their_domain(self, u):
        for p in domain(u):
            for fn in (apply_snr, apply_spr):
                try:
                    v = fn(u, p)
                except NotApplicableError:
                    continue
                assert len(v) == len(u) - 2
                assert domain(v) == domain(u) - {p}


class TestDualRules:
    def test_dspr(self):
        assert F(apply_dspr(U, 2)) == "2 4 -3 -5 -3 -7 -4 7 2 6 5 6"
        assert F(apply_dspr(P("2 2"), 2)) == "2 2"
        assert F(apply_dspr(P("2 3 3 2"), 2)) == "2 -3 -3 2"

    def test_dspr_needs_negative_symbol(self):
        with pytest.raises(NotApplicableError):
            apply_dspr(P("2 -2"), 2)

    def test_dsdr(self):
        assert F(apply_dsdr(P("2 4 3 -2 5 -3 5 4"), 2, 3)) == "2 5 3 -2 4 -3 5 4"
        # an alternating overlap with this sign pattern is a fixed point
        assert F(apply_dsdr(P("2 3 -2 -3"), 2, 3)) == "2 3 -2 -3"

    @pytest.mark.parametrize(
        "text,p,q",
        [
            ("2 3 2 -3", 2, 3),  # 2 is negative
            ("2 -2 3 -3", 2, 3),  # no overlap
        ],
    )
    def test_dsdr_not_applicable(self, text, p, q):
        with pytest.raises(NotApplicableError):
            apply_dsdr(P(text), p, q)

    @given(legal_strings)
    def test_duals_preserve_length_and_domain(self, u):
        for rule in applicable_dual_rules(u):
            v = apply_rule(u, rule)
            assert len(v) == len(u)
            assert domain(v) == domain(u)

    @given(legal_strings)
    def test_duals_are_involutions(self, u):
        for rule in applicable_dual_rules(u):
            v = apply_rule(u, rule)
            assert apply_rule(v, rule) == u

    def test_applicable_listing(self):
        assert [str(r) for r in applicable_dual_rules(U)] == [
            "dspr(2)",
            "dspr(3)",
            "dspr(5)",
            "dspr(6)",
            "dsdr(7,4)",
        ]
        assert [str(r) for r in applicable_dual_rules(P("2 3 -2 -3"))] == ["dsdr(2,3)"]
        assert applicable_dual_rules(P("2 -2")) == []

    @given(legal_strings)
    def test_applicable_listing_is_complete(self, u):
        listed = set(applicable_dual_rules(u))
        for p in domain(u):
            occ = [x for x in u.letters if x.symbol == p]
            negative = occ[0].barred == occ[1].barred
            assert (DualRule("dspr", (p,)) in listed) == negative
        for p, q in combinations(sorted(domain(u)), 2):
            expected = is_positive(u, p) and is_positive(u, q) and overlap(u, p, q)
            i, j = p_interval(u, p)[0], p_interval(u, q)[0]
            ordered = (p, q) if i < j else (q, p)
            assert (DualRule("dsdr", ordered) in listed) == expected

    @pytest.mark.parametrize(
        "fn,text,symbols,message",
        [
            (apply_snr, "2 2", (3,), "symbol 3 not in domain"),
            (apply_snr, "2 3 2 3", (2,), "snr(2): occurrences not adjacent and equal-signed"),
            (apply_snr, "2 -2", (2,), "snr(2): occurrences not adjacent and equal-signed"),
            (apply_spr, "2 -2", (5,), "symbol 5 not in domain"),
            (apply_spr, "2 3 2 3", (3,), "spr(3): 3 is not positive"),
            (apply_dspr, "2 2", (3,), "symbol 3 not in domain"),
            (apply_dspr, "2 3 -2 3", (2,), "dspr(2): 2 is not negative"),
            (apply_sdr, "2 3 2 3", (2, 2), "the two pointers must be distinct"),
            (apply_sdr, "2 3 2 3", (4, 3), "symbol 4 not in domain"),
            (apply_sdr, "2 3 2 3", (2, 4), "symbol 4 not in domain"),
            (apply_sdr, "2 2 3 3", (2, 3), "2 and 3 do not overlap"),
            (apply_sdr, "2 4 3 2 3 4", (3, 2), "first occurrence of 3 must precede that of 2"),
            (apply_sdr, "2 3 -2 3", (2, 3), "sdr(2,3): both pointers must be negative"),
            (apply_sdr, "2 3 2 -3", (2, 3), "sdr(2,3): both pointers must be negative"),
            (apply_dsdr, "2 -3 -2 3", (3, 3), "the two pointers must be distinct"),
            (apply_dsdr, "2 -3 -2 3", (5, 3), "symbol 5 not in domain"),
            (apply_dsdr, "2 -3 -2 3", (2, 5), "symbol 5 not in domain"),
            (apply_dsdr, "2 -2 3 -3", (2, 3), "2 and 3 do not overlap"),
            (apply_dsdr, "2 -3 -2 3", (3, 2), "first occurrence of 3 must precede that of 2"),
            (apply_dsdr, "2 3 2 -3", (2, 3), "dsdr(2,3): both pointers must be positive"),
            (apply_dsdr, "2 3 -2 3", (2, 3), "dsdr(2,3): both pointers must be positive"),
        ],
    )
    def test_not_applicable_messages(self, fn, text, symbols, message):
        # every reason of every rule, by exact message, through apply_rule too
        # where the symbols make a rule
        with pytest.raises(NotApplicableError) as info:
            fn(P(text), *symbols)
        assert str(info.value) == message
        if len(set(symbols)) == len(symbols):
            kind = fn.__name__.removeprefix("apply_")
            with pytest.raises(NotApplicableError) as info:
                apply_rule(P(text), parse_rule(f"{kind}({','.join(map(str, symbols))})"))
            assert str(info.value) == message

    def test_image_extension_is_flipped_extension(self):
        rng = random.Random(31)
        for _ in range(60):
            u = random_legal_string(rng, max_symbols=4)
            g = build_reduction_graph(u)
            base = build_extended_reduction_graph(u).merge
            for rule in applicable_dual_rules(u):
                image = build_extended_reduction_graph(apply_rule(u, rule))
                flipped = ExtendedARG(arg=g, merge=flip_set(g, base, rule.dom))
                assert are_isomorphic_extended(image, flipped)


class TestTextbookRules:
    @given(legal_string_strategy(max_symbols=6))
    def test_every_rule_instance_agrees_with_textbook(self, u):
        # each rule on every symbol and ordered pair: the library image
        # equals the textbook one, or both say the rule does not match
        symbols = sorted(domain(u))
        instances = [
            (kind, cls, pointers)
            for kind, cls, arity in [
                ("snr", StringRule, 1),
                ("spr", StringRule, 1),
                ("sdr", StringRule, 2),
                ("dspr", DualRule, 1),
                ("dsdr", DualRule, 2),
            ]
            for pointers in permutations(symbols, arity)
        ]
        for kind, cls, pointers in instances:
            expected = oracle_rule(u, kind, pointers)
            if expected is None:
                with pytest.raises(NotApplicableError):
                    apply_rule(u, cls(kind, pointers))
            else:
                assert apply_rule(u, cls(kind, pointers)) == expected


class TestRuleText:
    def test_parse_examples(self):
        assert parse_rule("sdr(2,3)") == StringRule("sdr", (2, 3))
        assert parse_rule("dspr(7)") == DualRule("dspr", (7,))
        assert str(parse_rule("dsdr(7,4)")) == "dsdr(7,4)"

    @pytest.mark.parametrize(
        "text",
        ["xyz(2)", "snr(2,3)", "sdr(2)", "dspr()", "snr(1)", "sdr(2,2)", "snr 2"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rule(text)

    @pytest.mark.parametrize("parse", [parse_rule, parse_rule_sequence])
    def test_symbol_past_the_int_digit_limit_is_bad_text(self, parse):
        text = "snr(" + "9" * 5000 + ")"
        with pytest.raises(ValueError, match=r"\Abad rule text 'snr\(9+\)'\Z"):
            parse(text)

    @pytest.mark.parametrize(
        "cls,kind", [(StringRule, "dspr"), (DualRule, "snr"), (StringRule, "xyz"), (DualRule, "xyz")]
    )
    def test_kind_must_belong_to_the_class(self, cls, kind):
        with pytest.raises(ValueError, match=rf"\Aunknown rule kind '{kind}'\Z"):
            cls(kind, (2,))

    def test_sequence_round_trip(self):
        seq = parse_rule_sequence("dspr(2) dsdr(3,5) snr(4)")
        assert format_rule_sequence(seq) == "dspr(2) dsdr(3,5) snr(4)"
        assert parse_rule_sequence(format_rule_sequence(seq)) == seq

    def test_sequence_domains(self):
        seq = parse_rule_sequence("dspr(2) dsdr(3,5)")
        assert seq.dom == frozenset({2, 3, 5})
        assert seq.odom == frozenset({2, 3, 5})
        assert seq.is_reduced

    def test_repeated_symbols_cancel_in_odom(self):
        seq = parse_rule_sequence("dspr(2) dspr(2)")
        assert seq.dom == frozenset({2})
        assert seq.odom == frozenset()
        assert not seq.is_reduced

    def test_empty_sequence(self):
        seq = parse_rule_sequence("")
        assert seq.rules == ()
        assert seq.dom == seq.odom == frozenset()
        assert seq.is_reduced


class TestReduction:
    def test_generic_example(self):
        seq = successful_reduction_search(U)
        assert str(seq) == "spr(4) spr(5) spr(2) snr(7) snr(3) snr(6)"
        assert seq.is_reduced
        assert apply_sequence(U, seq) == P("")

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("", ""),
            ("2 2", "snr(2)"),
            ("2 -2", "spr(2)"),
            ("2 3 2 3", "sdr(2,3)"),
        ],
    )
    def test_small_examples(self, text, expected):
        assert str(successful_reduction_search(P(text))) == expected

    @given(legal_strings)
    def test_always_reaches_empty(self, u):
        seq = successful_reduction_search(u)
        assert apply_sequence(u, seq) == P("")
        assert seq.dom == domain(u)
        assert seq.is_reduced
        assert all(r.kind in ("snr", "spr", "sdr") for r in seq)

    @given(legal_string_strategy(max_symbols=12))
    def test_agrees_with_greedy_oracle(self, u):
        assert [str(r) for r in successful_reduction_search(u)] == oracle_reduction(u)

    @given(legal_string_strategy(max_symbols=12, bars=False))
    def test_agrees_with_greedy_oracle_without_bars(self, u):
        assert [str(r) for r in successful_reduction_search(u)] == oracle_reduction(u)

    def test_least_overlapping_pair_is_chosen(self):
        # all negative, no adjacent pair: 2 is the least symbol overlapping
        # another, its least partner is 3, and 3 occurs first
        u = P("4 5 3 2 6 4 5 3 6 2")
        assert str(successful_reduction_search(u)).startswith("sdr(3,2)")

    @pytest.mark.parametrize("bars", [True, False])
    def test_long_string(self, bars):
        rng = random.Random(800)
        letters = [p for p in range(2, 802) for _ in range(2)]
        rng.shuffle(letters)
        u = P(" ".join(("-" if bars and rng.random() < 0.5 else "") + str(p) for p in letters))
        seq = successful_reduction_search(u)
        assert seq.is_reduced
        assert seq.dom == domain(u)
        assert apply_sequence(u, seq) == P("")


def greedy_realization(u, d, biggest=False):
    """A dual rule sequence with odd domain d, clearing one negative or
    two overlapping positive symbols of d per step; returns (None, u)
    when the walk gets stuck."""
    rules, v, remaining = [], u, set(d)
    while remaining:
        order = sorted(remaining, reverse=biggest)
        neg = [p for p in order if not is_positive(v, p)]
        if neg:
            rule = DualRule("dspr", (neg[0],))
        else:
            pair = next(
                ((p, q) for p, q in combinations(order, 2) if overlap(v, p, q)), None
            )
            if pair is None:
                return None, v
            i, j = p_interval(v, pair[0])[0], p_interval(v, pair[1])[0]
            rule = DualRule("dsdr", pair if i < j else (pair[1], pair[0]))
        rules.append(rule)
        v = apply_rule(v, rule)
        remaining ^= set(rule.dom)
    return RuleSequence(tuple(rules)), v


class TestFlipRealization:
    def test_every_theta_member_is_reachable(self):
        rng = random.Random(33)
        for _ in range(25):
            u = random_legal_string(rng, max_symbols=4)
            g = build_reduction_graph(u)
            base = build_extended_reduction_graph(u).merge
            for d in subsets(domain(u)):
                d = frozenset(d)
                target = flip_set(g, base, d)
                seq, v = greedy_realization(u, d)
                if is_theta(g, target):
                    assert seq is not None
                    assert seq.odom == d
                    assert are_isomorphic_extended(
                        build_extended_reduction_graph(v),
                        ExtendedARG(arg=g, merge=target),
                    )
                else:
                    assert seq is None

    def test_odd_domain_determines_result(self):
        rng = random.Random(34)
        for _ in range(25):
            u = random_legal_string(rng, max_symbols=4)
            g = build_reduction_graph(u)
            base = build_extended_reduction_graph(u).merge
            for d in subsets(domain(u)):
                d = frozenset(d)
                if not is_theta(g, flip_set(g, base, d)):
                    continue
                _, small_first = greedy_realization(u, d)
                _, big_first = greedy_realization(u, d, biggest=True)
                assert equivalent(small_first, big_first)


class TestOrbit:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("2 2", {"2 2"}),
            ("2 -2", {"2 -2"}),
            ("2 2 3 3", {"2 2 3 3"}),
            ("2 3 2 3", {"2 3 2 3", "2 3 -2 3", "2 3 2 -3"}),
        ],
    )
    def test_examples(self, text, expected):
        assert {F(v) for v in orbit(P(text))} == expected

    def test_generic_example_size(self):
        assert len(orbit(U)) == 16

    def test_budget(self):
        with pytest.raises(OrbitLimitError):
            orbit(P("2 3 2 3"), max_size=2)
        assert len(orbit(P("2 3 2 3"), max_size=3)) == 3

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="at least 1"):
            orbit(P("2 2"), max_size=budget)
        assert len(orbit(P("2 2"), max_size=1)) == 1

    @given(legal_string_strategy(max_symbols=5))
    def test_fiber_from_the_graph_side(self, u):
        # every theta set of u's graph legalizes to one orbit member, and
        # every member arises so: the fiber theorem read from the graph
        g = build_reduction_graph(u)
        readings = {
            canonical_equiv_rep(legalization_representative(ExtendedARG(g, e)))
            for e in enumerate_merge_legal(g)
            if oracle_connected(g.vertices, g.reality | e)
        }
        assert readings == orbit(u)

    @given(legal_string_strategy(max_symbols=7))
    def test_agrees_with_oracle(self, u):
        assert orbit(u) == oracle_orbit(u)

    @given(legal_string_strategy(max_symbols=7, bars=False))
    def test_agrees_with_oracle_without_bars(self, u):
        assert orbit(u) == oracle_orbit(u)

    @given(legal_string_strategy(max_symbols=6))
    def test_budget_is_exact(self, u):
        # the budget error depends on the orbit's size only
        n = len(oracle_orbit(u))
        assert len(orbit(u, max_size=n)) == n
        if n >= 2:
            with pytest.raises(OrbitLimitError, match=f"exceeds {n - 1} members"):
                orbit(u, max_size=n - 1)

    def test_words_are_not_legal_strings(self, monkeypatch):
        # orbit and reduce step signed-integer words: orbit builds one
        # LegalString per member, at the end, and reduce builds none
        rng = random.Random(35)
        strings = [U, P("2 3 -2 -3 4 5 4 -5")] + [random_legal_string(rng, 8) for _ in range(8)]
        built = []  # strings built through either constructor
        construct, init = rules_module._from_word, LegalString.__init__

        def from_word(word, occ):
            built.append(word)
            return construct(word, occ)

        def from_letters(u, letters):
            built.append(letters)
            init(u, letters)

        monkeypatch.setattr(rules_module, "_from_word", from_word)
        monkeypatch.setattr(LegalString, "__init__", from_letters)
        for u in strings:
            built.clear()
            members = orbit(u)
            assert len(built) <= len(members) + 1
            built.clear()
            successful_reduction_search(u)
            assert built == []

    @given(legal_strings)
    def test_closure_and_membership(self, u):
        members = orbit(u)
        assert canonical_equiv_rep(u) in members
        for v in members:
            assert dual_equivalent(u, v)
            for rule in applicable_dual_rules(v):
                assert canonical_equiv_rep(apply_rule(v, rule)) in members


class TestDualEquivalence:
    def test_examples(self):
        assert not dual_equivalent(P("2 2"), P("2 -2"))
        assert dual_equivalent(P("2 -2"), P("-2 2"))
        assert dual_equivalent(U, apply_dspr(U, 2))
        assert not dual_equivalent(P("2 2"), P("3 3"))

    def test_orbit_members_share_graph(self):
        canon = {F(v) for v in orbit(U)}
        for v_text in sorted(canon)[:6]:
            assert dual_equivalent(U, P(v_text))

    def test_agrees_with_orbit_partition_on_one_symbol(self):
        universe = all_strings([2])
        for u in universe:
            members = orbit(u)
            for v in universe:
                assert dual_equivalent(u, v) == (canonical_equiv_rep(v) in members)
