"""Legal-string parsing, positivity, intervals, overlap, equivalence."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redukt import (
    EMPTY,
    LegalString,
    LegalityError,
    ParseError,
    Pointer,
    canonical_equiv_rep,
    domain,
    equivalent,
    format_legal_string,
    inverse,
    is_positive,
    legal_string,
    overlap,
    p_interval,
    parse_legal_string,
    positive_symbols,
)

from oracles import all_strings, canonical_strings, legal_string_strategy, oracle_occurrences

U_TEXT = "2 -7 4 7 3 5 3 -4 2 6 5 6"

legal_strings = legal_string_strategy()


class TestPointer:
    def test_bar_involution(self):
        p = Pointer(7, True)
        assert p.bar().bar() == p

    @pytest.mark.parametrize("bad", [1, 0, -3, True])
    def test_rejects_bad_symbols(self, bad):
        with pytest.raises(ValueError):
            Pointer(bad)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_rejects_non_bool_bar_flags(self, flag):
        # else Pointer(2, "no") would print as -2 yet differ from Pointer(2, True)
        with pytest.raises(ParseError, match="bar flag must be a bool"):
            Pointer(2, flag)

    def test_str(self):
        assert str(Pointer(7)) == "7"
        assert str(Pointer(7, True)) == "-7"


class TestParse:
    def test_example_string(self):
        u = parse_legal_string(U_TEXT)
        assert len(u) == 12
        assert u.letters[1] == Pointer(7, True)
        assert format_legal_string(u) == U_TEXT

    def test_empty(self):
        assert parse_legal_string("") == EMPTY
        assert format_legal_string(EMPTY) == ""

    def test_single_occurrence_rejected(self):
        with pytest.raises(LegalityError):
            parse_legal_string("2 3 2")

    @pytest.mark.parametrize("text", ["2 x 2", "1 1", "0 0", "2 --2", "2.5 2.5", "-"])
    def test_bad_tokens(self, text):
        with pytest.raises((ParseError, LegalityError)):
            parse_legal_string(text)

    @pytest.mark.parametrize("text", ["1 1", "0 0", "-1 -1"])
    def test_symbols_below_two_rejected(self, text):
        # the one symbol check on parsed text: no Pointer is built
        with pytest.raises(ParseError, match="symbol must be >= 2"):
            parse_legal_string(text)

    @pytest.mark.parametrize("text", ["² ²", "2 ² 2 ²", "-² -²", "3³ 3³"])
    def test_non_decimal_digits_rejected(self, text):
        # str.isdigit accepts '²', int() does not: a ParseError, not a ValueError from int()
        with pytest.raises(ParseError, match="bad token"):
            parse_legal_string(text)

    def test_triple_occurrence_rejected(self):
        with pytest.raises(LegalityError):
            legal_string([Pointer(2), Pointer(2), Pointer(2, True), Pointer(3)])

    @given(legal_strings)
    def test_round_trip(self, u):
        assert parse_legal_string(format_legal_string(u)) == u


class TestConstruction:
    @pytest.mark.parametrize(
        "letters", [(2, 2), ("2", "2"), (Pointer(2), 2), [Pointer(3), (3, False)]]
    )
    def test_letters_must_be_pointers(self, letters):
        with pytest.raises(ParseError):
            LegalString(letters)

    def test_letters_are_stored_as_a_tuple(self):
        letters = [Pointer(2), Pointer(2)]
        u = LegalString(letters)
        assert u.letters == (Pointer(2), Pointer(2))
        assert hash(u) == hash(parse_legal_string("2 2"))
        letters.append(Pointer(3))  # the caller's list is not shared
        assert len(u) == 2 and p_interval(u, 2) == (1, 2)
        assert u == parse_legal_string("2 2")

    def test_index_is_not_a_field(self):
        u = parse_legal_string("2 3 -2 3")
        assert repr(u) == repr(LegalString(tuple(u.letters)))
        assert "_occ" not in repr(u)


class TestWord:
    @given(legal_strings, st.data())
    def test_every_constructor_gives_the_same_value(self, u, data):
        flags = data.draw(st.lists(st.booleans(), min_size=len(domain(u)), max_size=len(domain(u))))
        flip = {p for p, f in zip(sorted(domain(u)), flags) if f}
        resigned = LegalString(x.bar() if x.symbol in flip else x for x in u.letters)
        rep = canonical_equiv_rep(u)
        pairs = [
            (u, LegalString(u.letters)),
            (u, parse_legal_string(str(u))),
            (rep, canonical_equiv_rep(resigned)),
            (rep, LegalString(rep.letters)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_only_the_word_is_stored(self):
        u = parse_legal_string("2 3 -2 3")
        assert set(vars(u)) == {"_word", "_occ"}
        assert hash(u) == hash((u._word,))
        assert u._word == (2, 3, -2, 3)
        for name in ("letters", "_word"):
            with pytest.raises(AttributeError):
                setattr(u, name, ())
        assert u == parse_legal_string("2 3 -2 3")


class TestOccurrenceIndex:
    @given(legal_string_strategy(max_symbols=12))
    def test_queries_agree_with_a_letter_scan(self, u):
        occ = oracle_occurrences(u)
        assert domain(u) == frozenset(occ)
        sign = {p: u.letters[i].barred != u.letters[j].barred for p, (i, j) in occ.items()}
        for p, (i, j) in occ.items():
            assert p_interval(u, p) == (i + 1, j + 1)
            assert is_positive(u, p) == sign[p]
            for q, (k, m) in occ.items():
                if q != p:
                    assert overlap(u, p, q) == (i < k < j < m or k < i < m < j)
        assert positive_symbols(u) == frozenset(p for p in occ if sign[p])
        rep = [(x.symbol, x.barred) for x in canonical_equiv_rep(u).letters]
        assert rep == [
            (x.symbol, i == occ[x.symbol][1] and sign[x.symbol]) for i, x in enumerate(u.letters)
        ]


class TestDomainPositivity:
    def test_domain(self):
        assert domain(parse_legal_string(U_TEXT)) == {2, 3, 4, 5, 6, 7}
        assert domain(EMPTY) == frozenset()
        assert domain(parse_legal_string("2 -2")) == {2}

    def test_is_positive(self):
        u = parse_legal_string(U_TEXT)
        assert is_positive(u, 7)
        assert not is_positive(u, 2)
        assert is_positive(parse_legal_string("2 -2"), 2)
        assert positive_symbols(u) == {4, 7}

    def test_missing_symbol(self):
        with pytest.raises(ValueError):
            is_positive(parse_legal_string("2 2"), 3)

    def test_p_interval(self):
        u = parse_legal_string(U_TEXT)
        assert p_interval(u, 2) == (1, 9)
        assert p_interval(u, 5) == (6, 11)
        assert p_interval(parse_legal_string("2 -2"), 2) == (1, 2)
        with pytest.raises(ValueError):
            p_interval(u, 9)


class TestOverlap:
    @pytest.mark.parametrize(
        "text,p,q,expected",
        [
            ("2 3 -2 -3", 2, 3, True),
            ("2 2 3 3", 2, 3, False),
            (U_TEXT, 2, 6, False),
            (U_TEXT, 2, 7, False),
            (U_TEXT, 3, 5, True),
            ("2 3 3 2", 2, 3, False),
        ],
    )
    def test_examples(self, text, p, q, expected):
        assert overlap(parse_legal_string(text), p, q) is expected

    def test_equal_symbols_rejected(self):
        with pytest.raises(ValueError):
            overlap(parse_legal_string("2 2 3 3"), 2, 2)

    @given(legal_strings)
    def test_symmetric(self, u):
        ps = sorted(domain(u))
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                assert overlap(u, p, q) == overlap(u, q, p)


class TestInverse:
    def test_examples(self):
        assert inverse((Pointer(2), Pointer(3))) == (Pointer(3, True), Pointer(2, True))
        assert inverse(EMPTY) == EMPTY
        assert format_legal_string(inverse(parse_legal_string("2 -3 2 3"))) == "-3 -2 3 -2"

    @given(legal_strings)
    def test_involution(self, u):
        assert inverse(inverse(u)) == u


class TestEquivalence:
    def test_examples(self):
        assert equivalent(parse_legal_string("2 -2 3 3"), parse_legal_string("-2 2 3 3"))
        assert not equivalent(parse_legal_string("2 -2 3 3"), parse_legal_string("2 -2 -3 3"))
        u = parse_legal_string(U_TEXT)
        assert equivalent(u, u)

    def test_canonical_examples(self):
        assert format_legal_string(canonical_equiv_rep(parse_legal_string("-2 2 3 3"))) == "2 -2 3 3"
        assert format_legal_string(canonical_equiv_rep(parse_legal_string("2 -2 3 3"))) == "2 -2 3 3"
        assert format_legal_string(canonical_equiv_rep(parse_legal_string("-2 -2"))) == "2 2"
        assert (
            format_legal_string(canonical_equiv_rep(parse_legal_string(U_TEXT)))
            == "2 7 4 -7 3 5 3 -4 2 6 5 6"
        )

    def test_equivalence_relation_via_characterization(self):
        # equivalent(u, v) must hold exactly when the pair (projection,
        # positive set) coincides, which makes it an equivalence relation
        universe = all_strings([2, 3])
        for u in universe:
            cu = (tuple(x.symbol for x in u.letters), positive_symbols(u))
            for v in universe:
                cv = (tuple(x.symbol for x in v.letters), positive_symbols(v))
                assert equivalent(u, v) == (cu == cv)

    def test_class_size_and_representative(self):
        # each class over dom {2,3} has 2^2 members, one canonical
        universe = all_strings([2, 3])
        classes: dict[LegalString, list[LegalString]] = {}
        for u in universe:
            classes.setdefault(canonical_equiv_rep(u), []).append(u)
        assert set(classes) == set(canonical_strings([2, 3]))
        assert all(len(members) == 4 for members in classes.values())

    @given(legal_strings)
    def test_canonical_properties(self, u):
        rep = canonical_equiv_rep(u)
        assert equivalent(u, rep)
        assert canonical_equiv_rep(rep) == rep
        seen = set()
        for x in rep.letters:
            if x.symbol not in seen:
                assert not x.barred
                seen.add(x.symbol)
