"""Tests for universality checking and shortest-superpattern search."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordpack import search, superpattern
from wordpack.core import Pattern, Word, flatten
from wordpack.search import SearchBudget, canonical_count
from wordpack.superpattern import (
    _class_table,
    _classes,
    _levels,
    _universe_indices,
    is_universal,
    pattern_universe,
    shortest_superpattern,
)
from wordpack.construct import superpattern_word


def brute_is_universal(letters, l, m):
    """Independent universality check from first principles."""
    found = {flatten(c) for c in itertools.combinations(letters, m)}
    return all(p.letters in found for p in pattern_universe(l, m))


def brute_shortest(l, m, max_len=12):
    """Smallest L such that some word in {1..l}^L is universal, by full
    enumeration of the unrestricted space (no canonical-form reduction)."""
    for length in range(m, max_len + 1):
        for letters in itertools.product(range(1, l + 1), repeat=length):
            if brute_is_universal(letters, l, m):
                return length
    raise AssertionError(f"no universal word up to length {max_len}")


class TestPatternUniverse:
    def test_two_two(self):
        universe = pattern_universe(2, 2)
        texts = {"".join(map(str, p.letters)) for p in universe}
        assert texts == {"11", "12", "21"}
        assert len(universe) == 3

    def test_three_three_count_and_members(self):
        universe = pattern_universe(3, 3)
        assert len(universe) == 13
        texts = {"".join(map(str, p.letters)) for p in universe}
        assert texts == {
            "111", "112", "121", "122", "211", "212", "221",
            "123", "132", "213", "231", "312", "321",
        }

    def test_size_matches_canonical_count(self):
        for l in range(1, 5):
            for m in range(1, 5):
                universe = pattern_universe(l, m)
                assert len(universe) == canonical_count(m, min(l, m))

    def test_wide_alphabet_reduces(self):
        assert pattern_universe(5, 3) is pattern_universe(3, 3)
        assert len(pattern_universe(7, 2)) == 3

    def test_patterns_are_classical_and_lex_sorted(self):
        universe = pattern_universe(3, 3)
        assert all(p.is_classical for p in universe)
        letters = [p.letters for p in universe]
        assert letters == sorted(letters)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pattern_universe(0, 3)
        with pytest.raises(ValueError):
            pattern_universe(2, 0)


class TestIsUniversal:
    def test_known_witness(self):
        ok, missing = is_universal(Word((1, 2, 1, 3, 1, 2, 1)), 3, 3)
        assert ok and missing == ()

    def test_missing_patterns_exact(self):
        ok, missing = is_universal(Word((1, 2, 3, 1, 2, 3)), 3, 3)
        assert not ok
        texts = {"".join(map(str, p.letters)) for p in missing}
        assert "321" in texts and "221" in texts

    def test_constant_word(self):
        ok, missing = is_universal(Word((1, 1, 1, 1)), 2, 2)
        assert not ok
        texts = {"".join(map(str, p.letters)) for p in missing}
        assert texts == {"12", "21"}

    def test_agrees_with_brute_force(self):
        for letters in itertools.product((1, 2), repeat=5):
            ok, _ = is_universal(Word(letters), 2, 2)
            assert ok == brute_is_universal(letters, 2, 2)

    def test_wide_alphabet_reduction(self):
        ok, _ = is_universal(Word((1, 2, 1)), 9, 2)
        assert ok

    def test_more_values_than_l_can_be_shorter(self):
        """Lengths are certified over words on [l]: this word on 5 values
        is universal for (4, 4) with 11 letters, one fewer than the
        shortest word on [4]."""
        letters = tuple(map(int, "13541425141"))
        assert is_universal(Word(letters), 4, 4) == (True, ())
        assert brute_is_universal(letters, 4, 4)
        assert len(letters) == 11 and len(set(letters)) == 5

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 5), max_size=10),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_matches_brute_force_with_missing_list(self, letters, l, m):
        found = {flatten(c) for c in itertools.combinations(letters, m)}
        want = tuple(p for p in pattern_universe(l, m) if p.letters not in found)
        ok, missing = is_universal(Word(tuple(letters)), l, m)
        assert ok == brute_is_universal(letters, l, m) == (want == ())
        assert missing == want

    @pytest.mark.parametrize("values", [8, 12])
    def test_wide_words_agree_with_brute_force(self, values):
        """Words on more values than l are checked in base d, their number
        of distinct values; level 4 then has d^4 bits, thousands here."""
        rng = random.Random(values)
        for n in (values, 14):
            letters = list(range(1, values + 1))
            letters += [rng.randint(1, values) for _ in range(n - values)]
            rng.shuffle(letters)
            found = {flatten(c) for c in itertools.combinations(letters, 4)}
            want = tuple(p for p in pattern_universe(4, 4) if p.letters not in found)
            ok, missing = is_universal(Word(tuple(letters)), 4, 4)
            assert ok == brute_is_universal(letters, 4, 4) == (want == ())
            assert missing == want


class TestBitsetState:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 5), max_size=10), st.integers(1, 5))
    def test_classes_per_level_are_the_flattened_subsequences(self, letters, m):
        """Level j of a word on d values, in base d, holds exactly the value
        tuples of its length-j subsequences, and their classes are the
        flattenings of those subsequences."""
        letters = flatten(letters)
        base = max(letters, default=1)
        levels = _levels(letters, base, m)
        for j in range(m + 1):
            tuples = set(itertools.combinations(letters, j))
            got = {sum((v - 1) * base**k for k, v in enumerate(t)) for t in tuples}
            assert levels[j] == sum(1 << i for i in got)
            classes = _classes(levels[j], _class_table(base, j)) if j else []
            decoded = {tuple(c // base**k % base + 1 for k in range(j)) for c in classes}
            assert decoded == ({flatten(t) for t in tuples} if j else set())

    def test_class_table_is_the_flattened_digits(self):
        """Entry i of the (base, j) table is the flattening of tuple i's
        digits, read as an index in base ``base``, for every base up to 64
        and every j with base^j <= 4,096."""
        for base in range(1, 65):
            for j in range(13):
                if base**j > 4096:
                    break
                want = []
                for i in range(base**j):
                    digits = [i // base**k % base + 1 for k in range(j)]
                    want.append(sum((v - 1) * base**k for k, v in enumerate(flatten(digits))))
                assert _class_table(base, j) == want, (base, j)

    def test_wide_word_builds_its_table_once(self):
        """A word on 20 values at (3, 4) sets up to 160,000 tuples, past the
        65,536 entries at which a shared memo was once emptied; checking it
        twice builds its table once."""
        rng = random.Random(20)
        letters = list(range(1, 21)) + [rng.randint(1, 20) for _ in range(20)]
        rng.shuffle(letters)
        w = Word(tuple(letters))
        _class_table.cache_clear()
        first = is_universal(w, 3, 4)
        assert is_universal(w, 3, 4) == first
        info = _class_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert first[0] == brute_is_universal(letters, 3, 4)


class TestLevelBound:
    @pytest.fixture(autouse=True)
    def nothing_is_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("a level, universe or table was built for a refused input")

        for name in ("_levels", "_universe_cached", "_class_table"):
            monkeypatch.setattr(superpattern, name, build)

    def test_wide_word_is_refused(self):
        """A permutation of 20 at (6, 6) would need levels of 20^6 = 64M bits."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"20\^6 bits, past 2\^22"):
            is_universal(Word(tuple(range(1, 21))), 6, 6)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("l, m", [(8, 8), (2, 10**9)])
    def test_wide_search_is_refused(self, l, m):
        """An m past 22 is refused without computing l^m."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"{l}\^{m} bits, past 2\^22"):
            shortest_superpattern(l, m)
        assert time.perf_counter() - start < 0.5


class TestUniverseIndices:
    def test_indices_are_the_patterns_class_indices(self):
        """Read from the canonical rows, each (l, m) pattern's index in base
        ``base`` is its letters' flattened index, or -1 past base letters."""
        for m in range(1, 6):
            for l in range(1, m + 1):
                for base in range(1, 7):
                    want = tuple(
                        sum((v - 1) * base**k for k, v in enumerate(p.letters))
                        if max(p.letters) <= base else -1
                        for p in pattern_universe(l, m)
                    )
                    assert _universe_indices(l, m, base) == want, (l, m, base)


class TestNoPatternUniverse:
    """A universal check, a search and a refusal build no Pattern universe."""

    @pytest.fixture(autouse=True)
    def no_universe(self, monkeypatch):
        def build(*args):
            raise AssertionError("the Pattern universe was built")

        monkeypatch.setattr(superpattern, "_universe_cached", build)

    def test_universal_word(self):
        assert is_universal(superpattern_word(7, 7).word, 7, 7) == (True, ())

    def test_search_certifies(self):
        res = shortest_superpattern(3, 4)
        assert res.witness == Word(tuple(map(int, "1231231213"))) and res.lower_bound_certified

    def test_oversize_universe_is_refused_before_its_rows(self, monkeypatch):
        """(10, 10) has 102,247,563 patterns, past the 8,000,000-word limit
        on canonical rows, though a two-letter word's level 10 is small."""
        def rows(*args):
            raise AssertionError("the canonical rows were built")

        monkeypatch.setattr(search, "_canonical_array", rows)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="102247563 canonical words; the limit is 8000000"):
            is_universal(Word((1, 2)), 10, 10)
        assert time.perf_counter() - start < 0.5

    def test_bad_arguments_keep_their_message(self):
        with pytest.raises(ValueError, match=r"need l, m >= 1, got l=0, m=3"):
            shortest_superpattern(0, 3)
        with pytest.raises(ValueError, match=r"need l, m >= 1, got l=2, m=0"):
            is_universal(Word((1, 2)), 2, 0)


class TestShortestSuperpattern:
    def test_two_two(self):
        res = shortest_superpattern(2, 2)
        assert res.length == 3
        assert res.witness.letters == (1, 2, 1)
        assert res.lower_bound == 3 and res.lower_bound_certified
        assert brute_shortest(2, 2) == 3

    def test_three_three(self):
        res = shortest_superpattern(3, 3)
        assert res.length == 7
        assert res.witness.letters == (1, 2, 1, 3, 1, 2, 1)
        assert res.lower_bound == 7 and res.lower_bound_certified
        verdicts = [(v.length, v.verdict) for v in res.log]
        assert verdicts == [(6, "exhausted"), (7, "witness")]

    def test_three_three_matches_brute(self):
        assert brute_shortest(3, 3) == 7

    def test_two_three(self):
        res = shortest_superpattern(2, 3)
        assert res.length == 5
        assert res.witness.letters == (1, 2, 1, 2, 1)
        assert res.lower_bound_certified
        assert brute_shortest(2, 3) == 5

    def test_two_four(self):
        res = shortest_superpattern(2, 4)
        assert res.length == 7
        assert res.lower_bound_certified
        assert brute_shortest(2, 4) == 7

    def test_one_letter_and_single_position(self):
        res = shortest_superpattern(1, 5)
        assert res.length == 5
        assert res.witness.letters == (1,) * 5
        assert shortest_superpattern(1, 1).length == 1

    def test_wide_alphabet_reduces(self):
        res = shortest_superpattern(4, 2)
        assert res.l == 2 and res.length == 3

    def test_witness_always_reverified_universal(self):
        for l, m in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            res = shortest_superpattern(l, m)
            ok, missing = is_universal(res.witness, l, m)
            assert ok and missing == ()

    @pytest.mark.parametrize("budget, checks", [(None, 2), (500, 1)])
    def test_each_returned_word_is_verified_once(self, monkeypatch, budget, checks):
        """The constructive word is checked once, at the start; a found
        witness once more, and a budget-stopped result returns the
        constructive word without checking it again."""
        words = []

        def counting(w, l, m):
            words.append(w)
            return is_universal(w, l, m)

        monkeypatch.setattr(superpattern, "is_universal", counting)
        res = shortest_superpattern(3, 4, budget)
        assert len(words) == checks and words.count(res.witness) == 1

    def test_length_within_constructive_bound(self):
        for l, m in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
            res = shortest_superpattern(l, m)
            assert res.length <= l * (m - 1) + 1
            assert res.length >= m

    def test_lex_least_witness(self):
        """No universal word of the optimal length precedes the witness."""
        res = shortest_superpattern(2, 3)
        earlier = [
            w
            for w in itertools.product((1, 2), repeat=res.length)
            if w < res.witness.letters and brute_is_universal(w, 2, 3)
        ]
        assert earlier == []


class TestBudgets:
    def test_budget_exhaustion_is_honest(self):
        res = shortest_superpattern(3, 4, budget=SearchBudget(max_nodes=500))
        assert not res.lower_bound_certified
        assert res.length == 10  # constructive fallback 3*(4-1)+1
        assert res.lower_bound == 8  # counting bound, nothing exhausted
        assert res.log[-1].verdict == "inconclusive"
        ok, _ = is_universal(res.witness, 3, 4)
        assert ok

    def test_int_budget_accepted(self):
        res = shortest_superpattern(3, 4, budget=500)
        assert not res.lower_bound_certified

    def test_large_budget_certifies(self):
        res = shortest_superpattern(3, 4, budget=SearchBudget(max_nodes=10**7))
        assert res.lower_bound_certified
        assert res.length == 10
        assert res.lower_bound == 10

    def test_time_budget_is_honest(self):
        res = shortest_superpattern(4, 4, budget=SearchBudget(max_seconds=0.1))
        assert not res.lower_bound_certified
        assert res.length == 13  # constructive fallback
        ok, _ = is_universal(res.witness, 4, 4)
        assert ok

    def test_unspent_shard_budget_carries_to_the_next_shard(self):
        """Shard (1, 1) of length 9 exhausts in 940 nodes and (1, 2) needs
        3,684 more: 5000 nodes certify length 9, and the 376 left go to
        length 10."""
        res = shortest_superpattern(4, 4, SearchBudget(max_nodes=5000))
        assert [(v.length, v.verdict, v.nodes) for v in res.log] == [
            (9, "exhausted", 4624),
            (10, "inconclusive", 376),
        ]
        assert res.lower_bound == 10 and not res.lower_bound_certified

    def test_budget_that_exactly_exhausts_a_length(self):
        """Length 8 of (3, 4) exhausts in 525 nodes; a budget of exactly
        that certifies 9 as a lower bound and stops at length 9's first node."""
        res = shortest_superpattern(3, 4, SearchBudget(max_nodes=525))
        assert [(v.length, v.verdict, v.nodes) for v in res.log] == [
            (8, "exhausted", 525),
            (9, "inconclusive", 0),
        ]
        assert res.lower_bound == 9 and not res.lower_bound_certified

    def test_lower_bound_reaching_the_fallback_is_not_certified(self):
        """2336 = 525 + 1811 nodes exhaust lengths 8 and 9, so the lower
        bound meets the constructive length 10; but 1231231231 is not known
        to be the lex-least witness, so the result stays uncertified."""
        res = shortest_superpattern(3, 4, SearchBudget(max_nodes=2336))
        assert [(v.length, v.verdict, v.nodes) for v in res.log] == [
            (8, "exhausted", 525),
            (9, "exhausted", 1811),
            (10, "inconclusive", 0),
        ]
        assert res.lower_bound == res.length == 10
        assert res.witness == Word((1, 2, 3, 1, 2, 3, 1, 2, 3, 1))
        assert not res.lower_bound_certified


class TestDeterminism:
    def test_threads_do_not_change_results(self):
        for kwargs in (
            {},
            {"budget": SearchBudget(max_nodes=500)},
            {"budget": SearchBudget(max_nodes=10**6)},
        ):
            a = shortest_superpattern(3, 4, **kwargs)
            b = shortest_superpattern(3, 4, threads=4, **kwargs)
            assert a.length == b.length
            assert a.witness == b.witness
            assert a.lower_bound == b.lower_bound
            assert a.lower_bound_certified == b.lower_bound_certified
            assert a.log == b.log  # even per-length node counts agree

    def test_reverse_shards_reverifies_exhausted_lengths(self):
        normal = shortest_superpattern(3, 3)
        rev = shortest_superpattern(3, 3, reverse_shards=True)
        assert normal.length == rev.length
        assert normal.lower_bound == rev.lower_bound
        norm_exh = {v.length: v.nodes for v in normal.log if v.verdict == "exhausted"}
        rev_exh = {v.length: v.nodes for v in rev.log if v.verdict == "exhausted"}
        assert norm_exh == rev_exh  # full-length sweeps are order-independent

    def test_repeat_runs_identical(self):
        a = shortest_superpattern(3, 4)
        b = shortest_superpattern(3, 4)
        assert a == b

    @pytest.mark.parametrize(
        "l, m, log",
        [
            (3, 3, [(6, "exhausted", 154), (7, "witness", 245)]),
            (
                3,
                4,
                [(8, "exhausted", 525), (9, "exhausted", 1811), (10, "witness", 4940)],
            ),
            (2, 5, [(8, "exhausted", 70), (9, "witness", 116)]),
        ],
    )
    def test_logs_pin_the_pruning(self, l, m, log):
        """The per-length node counts pin which branches the prunes cut."""
        res = shortest_superpattern(l, m)
        assert [(v.length, v.verdict, v.nodes) for v in res.log] == log
        assert res.nodes == sum(nodes for _, _, nodes in log)

    def test_budgeted_log_is_pinned(self):
        """Shard (1, 1) exhausts in 940 of 2001 nodes; (1, 2) spends the
        rest, so the length's one meter stops at exactly the budget."""
        res = shortest_superpattern(4, 4, SearchBudget(max_nodes=2001))
        assert [(v.length, v.verdict, v.nodes) for v in res.log] == [
            (9, "inconclusive", 2001)
        ]


class TestConstructiveWordBridge:
    def test_constructive_word_universal_small_grid(self):
        for m in range(1, 6):
            for l in range(1, m + 1):
                built = superpattern_word(l, m)
                ok, missing = is_universal(built.word, l, m)
                assert ok, (l, m, missing)
                assert built.word.n == l * (m - 1) + 1
