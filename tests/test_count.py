"""Occurrence counting: scalar engine, bulk tables, densities, tie-break map."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from wordpack.core import Pattern, WeightedPatternSet, Word, flatten, parse_pattern, parse_word
from wordpack.count import (
    AutomatonTables,
    CountReport,
    count_classical,
    count_generalized,
    density,
    occurrence_denominator,
    pattern_table,
    table_lookup,
    tiebreak_permutation,
    weighted_count,
)


class TestFrozenValues:
    """Anchor values, each independently verified by the brute-force oracle."""

    def test_opening_example(self):
        assert count_classical(parse_pattern("122"), parse_word("213322")) == 3

    def test_scalar_anchors(self):
        cases = [
            ("132", "1423", 2),
            ("112", "213322", 0),
            ("12-1", "1211", 2),
            ("11-2", "112", 1),
            ("121", "1212", 1),
            ("121", "1213", 1),
            ("112", "1212", 1),
            ("123g", "1234", 2),
        ]
        for ptxt, wtxt, expect in cases:
            p, w = parse_pattern(ptxt), parse_word(wtxt)
            assert count_generalized(p, w) == expect, ptxt
            assert oracles.naive_count(p.letters, set(p.hyphens), w.letters) == expect

    def test_density_anchors(self):
        assert density(parse_pattern("112"), parse_word("1112")).density == Fraction(3, 4)
        rep = density(parse_pattern("12-1"), parse_word("121"))
        assert rep.count == 1 and rep.denom == 1 and rep.density == Fraction(1)
        assert density(parse_pattern("122"), parse_word("213322")).density == Fraction(3, 20)

    def test_constant_pattern_saturates_subword_bound(self):
        p = parse_pattern("111g")
        w = Word((1,) * 7, 1)
        rep = density(p, w)
        assert rep.count == rep.denom == occurrence_denominator(3, 1, 7) == 5
        assert rep.density == 1


class TestDenominator:
    def test_classical_is_binomial(self):
        for m in range(1, 5):
            for n in range(m, 10):
                assert occurrence_denominator(m, m, n) == comb(n, m)

    def test_subword_is_window_count(self):
        for m in range(1, 5):
            for n in range(m, 10):
                assert occurrence_denominator(m, 1, n) == n - m + 1

    def test_vincular_anchor(self):
        assert occurrence_denominator(3, 2, 3) == 1
        assert occurrence_denominator(3, 2, 6) == 10

    def test_short_word(self):
        assert occurrence_denominator(3, 3, 2) == 0
        with pytest.raises(ValueError):
            density(parse_pattern("123"), parse_word("12"))


class TestEngineAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_cases(self, data):
        """Patterns of 1-5 letters in all three forms, in words of up to 12
        letters over up to 12 values: wide alphabets are where the
        automaton's states forget values and merge."""
        kind = data.draw(st.sampled_from(("classical", "vincular", "subword")))
        flat = flatten(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)))
        if kind == "classical":
            gaps = frozenset(range(1, len(flat)))
        elif kind == "subword":
            gaps = frozenset()
        else:
            gaps = frozenset(
                g for g in range(1, len(flat)) if data.draw(st.booleans(), label=f"gap{g}")
            )
        p = Pattern(flat, gaps)
        n = data.draw(st.integers(p.m, 12))
        k = data.draw(st.integers(1, 12))
        w = tuple(data.draw(st.integers(1, k)) for _ in range(n))
        assert count_generalized(p, Word(w, k)) == oracles.naive_count(
            flat, gaps, w
        )

    def test_weighted_count(self):
        ps = WeightedPatternSet.uniform(
            [parse_pattern("112"), parse_pattern("121")]
        )
        w = parse_word("1212")
        expect = Fraction(
            oracles.naive_count((1, 1, 2), {1, 2}, w.letters)
            + oracles.naive_count((1, 2, 1), {1, 2}, w.letters),
            1,
        )
        assert weighted_count(ps, w) == expect

    def test_report_shape(self):
        rep = density(parse_pattern("122"), parse_word("213322"))
        assert isinstance(rep, CountReport)
        assert rep.m == 3 and rep.b == 3 and rep.n == 6
        assert rep.density == Fraction(rep.count, rep.denom)


class TestAutomaton:
    """Rows of the compiled automaton tables driven through random pushes,
    pops and re-pushes always count the occurrences in the current prefix:
    a push takes the child row, a pop returns to the parent row."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_push_pop_matches_oracle(self, data):
        kind = data.draw(st.sampled_from(("classical", "vincular", "subword")))
        # 123, 1122 and 321 have states with several sources for one letter
        letters = data.draw(st.sampled_from(((1, 2, 3), (1, 1, 2, 2), (3, 2, 1))) | st.lists(
            st.integers(1, 4), min_size=1, max_size=4).map(flatten))
        m = len(letters)
        if kind == "classical":
            gaps = frozenset(range(1, m))
        elif kind == "subword":
            gaps = frozenset()
        else:
            gaps = frozenset(
                g for g in range(1, m) if data.draw(st.booleans(), label=f"gap{g}")
            )
        k = data.draw(st.integers(1, 6))
        tables = AutomatonTables([Pattern(letters, gaps)], k)
        row, count = tables.start, 0
        parents = []
        prefix = []
        # 0 pops, any other value pushes that letter
        for op in data.draw(st.lists(st.integers(0, k), max_size=16)):
            if op == 0:
                if not prefix:
                    continue
                prefix.pop()
                row, count = parents.pop()
            elif len(prefix) < 10:
                parents.append((row, count))
                prefix.append(op)
                count += int(row @ tables.complete[:, op - 1])
                row = row[tables.keep] + row[tables.src[op - 1]].sum(-1)
            assert count == oracles.naive_count(letters, gaps, prefix)
            assert row[0] == 0  # the zero slot stays empty

    @pytest.mark.parametrize("text, k, slots", [
        ("2143", 8, 38), ("121", 8, 17), ("1122", 8, 25), ("13524", 12, 345), ("123456", 14, 62),
    ])
    def test_slot_counts_are_pinned(self, text, k, slots):
        """States keep only the values a later step reads (with every value
        kept, these were 94, 38, 46, 795 and 3,474 slots)."""
        assert len(AutomatonTables([parse_pattern(text)], k).keep) == slots

    @pytest.mark.parametrize(
        "texts", [("132",), ("1-2-1", "12-1"), ("21-3", "11-2"), ("1122",), ("123", "2431")])
    def test_smaller_cap_is_a_cut(self, texts):
        """Branch and bound grows its tables with the largest letter it
        reaches and keeps the rows it made: growing the tables from 3
        letters to 5 keeps every old slot's pattern, level, keep and start,
        and the row a prefix over 1..3 had before growth, padded with
        zeros, is its row after growth, cut to the old slots.  Pushing any
        letter 1..5 onto it counts what the oracle counts."""
        patterns = [parse_pattern(t) for t in texts]
        tables = AutomatonTables(patterns, 3)
        old = {name: getattr(tables, name).copy() for name in ("pattern", "level", "keep", "start")}
        size = len(tables.keep)
        before = {(): tables.start}
        for prefix in itertools.chain.from_iterable(
                itertools.product((1, 2, 3), repeat=t) for t in range(1, 5)):
            row = before[prefix[:-1]]
            before[prefix] = row[tables.keep] + row[tables.src[prefix[-1] - 1]].sum(-1)
        tables.grow(5)
        for name, values in old.items():
            assert getattr(tables, name)[:size].tolist() == values.tolist(), name
        after = {(): tables.start}
        for prefix, made in before.items():
            if prefix:
                row = after[prefix[:-1]]
                after[prefix] = row[tables.keep] + row[tables.src[prefix[-1] - 1]].sum(-1)
            padded = np.concatenate((made, np.zeros(len(tables.keep) - size, dtype=made.dtype)))
            assert padded.tolist() == after[prefix].tolist(), prefix
            for x in range(1, 6):
                grown = prefix + (x,)
                expect = sum(oracles.naive_count(p.letters, p.hyphens, grown)
                             - oracles.naive_count(p.letters, p.hyphens, prefix)
                             for p in patterns)
                assert int(padded @ tables.complete[:, x - 1]) == expect, grown


class TestPatternTable:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for letters in oracles.canonical_words(n, n):
                w = Word(letters)
                table = pattern_table(w, max_m=4)
                naive = oracles.naive_table(letters, max_m=4)
                assert table == naive, letters

    def test_lookup_matches_scalar(self):
        rng = random.Random(11)
        pats = [
            parse_pattern(t)
            for t in ("132", "112", "1122", "12-1", "11-2", "121g", "1234")
        ]
        for _ in range(40):
            n = rng.randint(4, 8)
            k = rng.randint(2, n)
            w = Word(tuple(rng.randint(1, k) for _ in range(n)), k).canonical()
            table = pattern_table(w, max_m=4)
            for p in pats:
                assert table_lookup(table, p) == count_generalized(p, w), (p, w)

    def test_missing_pattern_is_zero(self):
        w = parse_word("111")
        table = pattern_table(w, max_m=3)
        assert table_lookup(table, parse_pattern("123")) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=0, max_size=12),
        st.integers(0, 5),
    )
    @example([1, 2, 1], 0)
    @example([3, 1, 4, 1, 5, 6, 2], 9)
    @example([2, 1, 2], 5)
    @example([6, 6, 1, 6], 5)
    @example([3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 6, 4], 5)
    def test_matches_oracle(self, letters, max_m):
        # raw letters, so words need not be canonical and the alphabet
        # size varies; max_m may exceed the word length
        w = Word(tuple(letters), 6)
        assert pattern_table(w, max_m) == oracles.naive_table(letters, max_m)

    def test_interleaved_calls_agree_with_oracle(self):
        rng = random.Random(23)
        cases = []
        for _ in range(12):
            n = rng.randint(1, 11)
            k = rng.randint(1, 9)
            letters = tuple(rng.randint(1, k) for _ in range(n))
            cases.append((letters, rng.randint(1, 5)))
        # words the scan takes (n >= 22 at m = 4): one wide, one narrow
        cases.append((tuple(rng.randint(1, 60) for _ in range(24)), 4))
        cases.append((tuple(rng.randint(1, 3) for _ in range(26)), 4))
        expect = [oracles.naive_table(letters, m) for letters, m in cases]
        for order in (cases, cases[::-1], cases[::2] + cases[1::2]):
            for letters, m in order:
                got = pattern_table(Word(letters), m)
                assert got == expect[cases.index((letters, m))], (letters, m)

    def test_each_call_returns_a_fresh_table(self):
        w = parse_word("21322131")
        first = pattern_table(w, max_m=4)
        expect = dict(first)
        for key in first:
            first[key] += 100
        first[((1, 2, 3), 3)] = 7
        second = pattern_table(w, max_m=4)
        assert second is not first
        assert second == expect == oracles.naive_table(w.letters, 4)

    @settings(max_examples=150, deadline=None)
    @given(
        # a few values or many, small or past 2**63, each word drawn over them
        st.sampled_from((1, 2, 3, 6, 40, 40000, 2 ** 24, 2 ** 63, 2 ** 80))
        .flatmap(lambda top: st.lists(st.integers(1, top), min_size=1, max_size=22, unique=True))
        .flatmap(lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=22)),
        st.integers(1, 5),
    )
    @example([5, 3, 5, 1], 3)
    @example([2 ** 64, 2 ** 63, 2 ** 64 + 1, 2 ** 63, 7], 5)
    @example([9, 40000, 9, 1, 40000, 2, 39999, 9, 1, 3, 40000, 5, 5, 2, 1, 2, 9, 4, 4, 3, 1, 2], 5)
    def test_plan_and_scan_agree(self, letters, max_m):
        """The two engines give the same table on the same word, whatever
        its alphabet."""
        from wordpack import count

        letters = tuple(letters)
        plan = count._plan_table(letters, min(max_m, len(letters)))
        assert plan == count._scan_table(letters, max_m)

    @pytest.mark.parametrize("max_m", [1, 2, 3, 4, 5])
    def test_engines_split_at_the_row_limit(self, max_m, monkeypatch):
        """pattern_table takes the plan up to the last word length whose
        position sets of sizes 1..max_m fit the row limit, and the scan from
        the next length on; on both sides it matches the oracle."""
        from wordpack import count

        last = {1: 8192, 2: 127, 3: 36, 4: 21, 5: 16}[max_m]
        ran = []
        for name in ("_plan_table", "_scan_table"):
            engine = getattr(count, name)
            monkeypatch.setattr(count, name, lambda *a, name=name, engine=engine: ran.append(name) or engine(*a))
        rng = random.Random(max_m)
        for n in (last, last + 1):
            letters = tuple(rng.randint(1, 5) for _ in range(n))
            assert pattern_table(Word(letters), max_m) == oracles.naive_table(letters, max_m), n
        assert ran == ["_plan_table", "_scan_table"]

    def test_scan_words_on_wide_alphabets(self):
        rng = random.Random(5)
        for _ in range(16):
            # words the scan takes (too many position sets for the plan), on
            # wide alphabets: each brings thousands of distinct value sequences
            letters = tuple(rng.randint(1, 60) for _ in range(24))
            assert pattern_table(Word(letters), 4) == oracles.naive_table(letters, 4), letters


class TestTiebreak:
    def test_anchors(self):
        assert tiebreak_permutation(parse_word("121")).letters == (2, 3, 1)
        assert tiebreak_permutation(parse_word("213322")).letters == (4, 1, 6, 5, 3, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=7))
    def test_output_is_permutation(self, letters):
        w = Word(tuple(letters)).canonical()
        f = tiebreak_permutation(w)
        assert sorted(f.letters) == list(range(1, w.n + 1))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_never_loses_classical_permutation_occurrences(self, data):
        perm = data.draw(
            st.permutations(list(range(1, data.draw(st.integers(2, 4)) + 1)))
        )
        p = Pattern.classical(tuple(perm))
        n = data.draw(st.integers(p.m, 7))
        w = Word(
            tuple(data.draw(st.integers(1, 4)) for _ in range(n))
        ).canonical()
        f = tiebreak_permutation(w)
        assert count_generalized(p, f) >= count_generalized(p, w)

    def test_ties_broken_right_to_left(self):
        # equal letters receive decreasing ranks left to right
        f = tiebreak_permutation(parse_word("1111"))
        assert f.letters == (4, 3, 2, 1)
