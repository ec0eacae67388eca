"""Pattern and word primitives: parsing, symmetries, layered structure."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from wordpack.core import (
    KIND_CONSTANT,
    KIND_DECREASING,
    KIND_MIXED,
    KIND_SINGLE,
    CanonicalizationWarning,
    ParseError,
    Pattern,
    WeightedPatternSet,
    Word,
    as_classical,
    blocks,
    complement,
    flatten,
    format_pattern,
    format_word,
    inverse,
    is_canonical,
    layered_decompose,
    parse_pattern,
    parse_word,
    reverse,
    symmetry_class,
)

letters_strategy = st.lists(st.integers(1, 6), min_size=1, max_size=7)


def random_patterns() -> st.SearchStrategy:
    def build(letters, hyphen_bits):
        flat = flatten(tuple(letters))
        gaps = frozenset(
            g for g, bit in zip(range(1, len(flat)), hyphen_bits) if bit
        )
        return Pattern(flat, gaps)

    return st.builds(
        build, letters_strategy, st.lists(st.booleans(), min_size=6, max_size=6)
    )


class TestFlatten:
    def test_examples(self):
        assert flatten((5, 2, 5)) == (2, 1, 2)
        assert flatten((2, 1, 3, 3, 2, 2)) == (2, 1, 3, 3, 2, 2)
        assert flatten((7,)) == (1,)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
    def test_idempotent_and_canonical(self, xs):
        f = flatten(tuple(xs))
        assert flatten(f) == f
        assert is_canonical(f)

    @given(st.lists(st.integers(1, 50), min_size=2, max_size=10))
    def test_order_preserving(self, xs):
        f = flatten(tuple(xs))
        for i in range(len(xs)):
            for j in range(len(xs)):
                assert (xs[i] < xs[j]) == (f[i] < f[j])
                assert (xs[i] == xs[j]) == (f[i] == f[j])


class TestPattern:
    def test_classical_constructor(self):
        p = Pattern.classical((1, 2, 2))
        assert p.m == 3 and p.l == 2 and p.b == 3
        assert p.is_classical and not p.is_subword
        assert p.hyphens == frozenset({1, 2})

    def test_block_count(self):
        assert Pattern((1, 2, 1), frozenset({2})).b == 2
        assert Pattern((1, 2, 1), frozenset()).b == 1
        assert Pattern((1,), frozenset()).b == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Pattern((1, 3), frozenset({1}))  # letters not {1..l}
        with pytest.raises(ValueError):
            Pattern((1, 2), frozenset({2}))  # gap out of range
        with pytest.raises(ValueError):
            Pattern((), frozenset())

    def test_is_permutation_and_constant(self):
        assert Pattern.classical((1, 3, 2)).is_permutation
        assert not Pattern.classical((1, 2, 2)).is_permutation
        assert Pattern.classical((1, 1, 1)).is_constant
        assert not Pattern.classical((1, 2)).is_constant

    def test_blocks_method(self):
        p = parse_pattern("12-1")
        assert p.blocks() == ((1, 2), (1,))
        assert Pattern.classical((1, 3, 2)).blocks() == ((1,), (3,), (2,))


class TestParsing:
    def test_hyphen_free_is_classical(self):
        p = parse_pattern("132")
        assert p.letters == (1, 3, 2) and p.b == 3 and p.is_classical

    def test_g_suffix_is_subword(self):
        p = parse_pattern("132g")
        assert p.letters == (1, 3, 2) and p.b == 1 and p.is_subword

    def test_literal_hyphens(self):
        p = parse_pattern("12-1")
        assert p.letters == (1, 2, 1) and p.hyphens == frozenset({2}) and p.b == 2
        q = parse_pattern("11-2")
        assert q.letters == (1, 1, 2) and q.hyphens == frozenset({2})

    def test_fully_hyphenated_equals_classical(self):
        assert parse_pattern("1-2-1") == parse_pattern("121")

    def test_comma_mode(self):
        p = parse_pattern("1,2,3,4,5,6,7,8,9,10")
        assert p.m == 10 and p.is_classical
        assert format_pattern(p) == "1,2,3,4,5,6,7,8,9,10"
        q = parse_pattern("1,2,3-4,5,6,7,8,9,10")
        assert q.hyphens == frozenset({3})
        assert format_pattern(q) == "1,2,3-4,5,6,7,8,9,10"

    def test_canonicalization_warning(self):
        with pytest.warns(CanonicalizationWarning):
            p = parse_pattern("1,10,2")
        assert p == parse_pattern("132")

    @pytest.mark.parametrize(
        "bad", ["", "1--2", "-12", "12-", "1,2-", "1,,2", "a", "0", "1-g2"]
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_pattern(bad)

    def test_subword_suffix_conflicts_with_hyphens(self):
        with pytest.raises(ParseError):
            parse_pattern("12-1g")

    def test_word_parsing(self):
        w = parse_word("213322")
        assert w.letters == (2, 1, 3, 3, 2, 2) and w.n == 6 and w.k == 3
        assert format_word(w) == "213322"
        with pytest.raises(ParseError):
            parse_word("1-2")

    def test_word_alphabet_override(self):
        w = parse_word("112", k=5)
        assert w.k == 5
        assert w.canonical().k == 2

    @given(random_patterns())
    def test_format_parse_round_trip(self, p):
        assert parse_pattern(format_pattern(p)) == p


class TestWord:
    def test_defaults(self):
        w = Word((2, 4, 2))
        assert w.k == 4 and w.n == 3
        assert w.canonical().letters == (1, 2, 1)

    def test_not_auto_canonicalized(self):
        assert Word((2, 4, 2)).letters == (2, 4, 2)

    @pytest.mark.parametrize(
        "letters, k, shown",
        [((1, 0, 2), 3, "1..3"), ((1, 4, 2), 3, "1..3"), ((1, -2), 2, "1..2"),
         ((0,), 0, "1..0"), ((-1, -3), 0, "1..-1")],
        ids=["zero", "above-k", "negative", "zero-default-k", "negative-default-k"],
    )
    def test_letters_out_of_range(self, letters, k, shown):
        with pytest.raises(ValueError, match=rf"^letters out of range {shown}: "
                                             rf"{re.escape(str(letters))}$"):
            Word(letters, k)

    def test_letters_become_a_tuple(self):
        w = Word([3, 1, 3])
        assert type(w.letters) is tuple and w.letters == (3, 1, 3) and w.k == 3
        assert w == Word((3, 1, 3)) and hash(w) == hash(Word((3, 1, 3)))
        assert Word(iter((1, 2)), 5) == Word((1, 2), 5)

    def test_k_defaults_to_the_largest_letter(self):
        assert Word((1, 1)).k == 1
        assert Word((5, 2, 7, 1)).k == 7
        assert Word((1, 2), 9).k == 9

    def test_empty_word(self):
        w = Word(())
        assert (w.letters, w.k, w.n) == ((), 0, 0)
        assert Word([], 4) == Word((), 4) and Word((), 4).k == 4
        assert w.canonical() == w


class TestWeightedPatternSet:
    def test_uniform(self):
        ps = WeightedPatternSet.uniform([parse_pattern("112"), parse_pattern("121")])
        assert ps.m == 3 and ps.b == 3
        assert all(w == Fraction(1) for _, w in ps.entries)

    def test_mixed_shape_rejected(self):
        with pytest.raises(ValueError):
            WeightedPatternSet.uniform([parse_pattern("12"), parse_pattern("121")])
        with pytest.raises(ValueError):
            WeightedPatternSet.uniform([parse_pattern("121"), parse_pattern("12-1")])

    def test_weight_validation(self):
        p, q = parse_pattern("112"), parse_pattern("121")
        with pytest.raises(ValueError):
            WeightedPatternSet(((p, Fraction(-1)), (q, Fraction(1))))
        with pytest.raises(ValueError):
            WeightedPatternSet(((p, Fraction(0)),))
        with pytest.raises(ValueError):
            WeightedPatternSet(((p, Fraction(1)), (p, Fraction(1))))

    def test_zero_weight_alongside_positive_ok(self):
        p, q = parse_pattern("112"), parse_pattern("121")
        ps = WeightedPatternSet(((p, Fraction(0)), (q, Fraction(1))))
        assert len(ps.entries) == 2


class TestSymmetries:
    def test_reverse(self):
        assert reverse(parse_pattern("132")) == parse_pattern("231")
        assert reverse(parse_pattern("12-1")) == parse_pattern("1-21")

    def test_complement(self):
        assert complement(parse_pattern("132")) == parse_pattern("312")
        assert complement(parse_pattern("12-1")) == parse_pattern("21-2")

    def test_inverse(self):
        assert inverse(parse_pattern("2413")) == parse_pattern("3142")
        assert inverse(parse_pattern("132")) == parse_pattern("132")
        with pytest.raises(ValueError):
            inverse(parse_pattern("112"))
        with pytest.raises(ValueError):
            inverse(parse_pattern("12-3"))

    @given(random_patterns())
    def test_involutions(self, p):
        assert reverse(reverse(p)) == p
        assert complement(complement(p)) == p

    def test_symmetry_class_1342(self):
        base = parse_pattern("1342")
        four = symmetry_class(base)
        assert len(four) == 4
        eight = symmetry_class(base, include_inverse=True)
        assert len(eight) == 8
        texts = {format_pattern(q) for q in eight}
        assert texts == {
            "1342", "2431", "4213", "3124", "1423", "2314", "3241", "4132",
        }

    def test_symmetry_class_sorted_deterministic(self):
        cls = symmetry_class(parse_pattern("132"))
        assert cls == tuple(sorted(cls, key=lambda p: (p.letters, sorted(p.hyphens))))

    def test_three_letter_class_representatives(self):
        seen = set()
        for letters in [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3),
                        (1, 3, 2), (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1),
                        (2, 3, 1), (3, 1, 2), (3, 2, 1)]:
            cls = symmetry_class(Pattern.classical(letters))
            seen.add(cls[0].letters)
        assert seen == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2)}


class TestLayered:
    @pytest.mark.parametrize(
        "text,lengths,kinds",
        [
            ("1", (1,), (KIND_SINGLE,)),
            ("21", (2,), (KIND_DECREASING,)),
            ("12", (1, 1), (KIND_SINGLE, KIND_SINGLE)),
            ("132", (1, 2), (KIND_SINGLE, KIND_DECREASING)),
            ("213", (2, 1), (KIND_DECREASING, KIND_SINGLE)),
            ("321", (3,), (KIND_DECREASING,)),
            ("2143", (2, 2), (KIND_DECREASING, KIND_DECREASING)),
            ("1122", (2, 2), (KIND_CONSTANT, KIND_CONSTANT)),
            ("112", (2, 1), (KIND_CONSTANT, KIND_SINGLE)),
            ("22143", (3, 2), (KIND_MIXED, KIND_DECREASING)),
        ],
    )
    def test_layered_shapes(self, text, lengths, kinds):
        shape = layered_decompose(parse_pattern(text))
        assert shape is not None
        assert shape.lengths == lengths
        assert shape.kinds == kinds
        assert shape.r == len(lengths) and shape.m == sum(lengths)

    @pytest.mark.parametrize("text", ["231", "1342", "121", "2413", "312"])
    def test_not_layered(self, text):
        assert layered_decompose(parse_pattern(text)) is None

    def test_layered_iff_avoiding_231_and_312(self):
        """Layered permutations are exactly those avoiding 231 and 312."""
        from itertools import combinations, permutations

        forb = [(2, 3, 1), (3, 1, 2)]
        for n in range(1, 7):
            for perm in permutations(range(1, n + 1)):
                contains = any(
                    flatten(tuple(perm[i] for i in c)) == f
                    for f in forb
                    for c in combinations(range(n), 3)
                )
                is_layered = (
                    layered_decompose(Pattern.classical(perm)) is not None
                )
                assert is_layered == (not contains), perm


class TestBlocks:
    def test_monotone_blocks(self):
        assert blocks(parse_pattern("1122")) == (2, 2)
        assert blocks(parse_pattern("112")) == (2, 1)
        assert blocks(parse_pattern("123")) == (1, 1, 1)
        assert blocks(parse_pattern("1")) == (1,)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            blocks(parse_pattern("121"))

    def test_as_classical(self):
        p = parse_pattern("12-1")
        q = as_classical(p)
        assert q.letters == p.letters and q.is_classical
