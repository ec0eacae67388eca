"""Extremal search: canonical enumeration, branch-and-bound, exact densities."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from wordpack import search
from wordpack.core import (
    Pattern,
    WeightedPatternSet,
    Word,
    flatten,
    parse_pattern,
    parse_word,
)
from wordpack.count import count_generalized, occurrence_denominator, weighted_count
from wordpack.search import (
    SearchBudget,
    _BudgetExceeded,
    _Meter,
    _canonical_array,
    _count_vector,
    _normalize_weights,
    canonical_count,
    delta_series,
    enumerate_canonical,
    max_count,
    max_count_by_alphabet,
    surjection_count,
    verify_layered_witness,
    verify_perm_restriction,
    verify_tiebreak_map,
)

FUBINI = [1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


class TestEnumeration:
    def test_counts_match_fubini(self):
        for n in range(1, 9):
            assert canonical_count(n) == FUBINI[n]

    def test_lex_order_and_completeness(self):
        for n in range(1, 6):
            got = [w.letters for w in enumerate_canonical(n)]
            want = sorted(oracles.canonical_words(n, n))
            assert got == want

    def test_capped_alphabet(self):
        got = [w.letters for w in enumerate_canonical(5, 2)]
        want = sorted(oracles.canonical_words(5, 2))
        assert got == want
        assert canonical_count(5, 2) == len(want) == 31  # 1 + (2^5 - 2)

    def test_batches_cover_every_row(self):
        words = [w.letters for w in enumerate_canonical(8)]  # nine batches
        assert len(words) == FUBINI[8]
        assert all(a < b for a, b in zip(words, words[1:]))

    def test_oversize_raises_before_building(self):
        before = _canonical_array.cache_info()
        with pytest.raises(ValueError, match="102247563"):  # Fubini(10)
            enumerate_canonical(10)
        assert _canonical_array.cache_info() == before

    def test_empty_spaces(self):
        assert list(enumerate_canonical(0)) == []
        assert list(enumerate_canonical(4, 0)) == []

    def test_surjection_count(self):
        assert surjection_count(3, 2) == 6
        assert surjection_count(4, 4) == 24
        assert sum(surjection_count(4, d) for d in range(1, 5)) == FUBINI[4]


class TestSweepKernels:
    """The exhaustive sweep's word array and count vector against the
    cube-flattening and subset-enumerating oracles."""

    def test_canonical_array_matches_enumeration(self):
        cases = [(n, cap) for n in range(1, 7) for cap in range(1, n + 1)] + [(7, 3)]
        for n, cap in cases:
            words, support = _canonical_array(n, cap)
            want = oracles.canonical_words(n, cap)
            assert words.shape == (len(want), n) and words.dtype == "int8"
            assert [tuple(r) for r in words.tolist()] == want
            assert support.tolist() == [len(set(w)) for w in want]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_count_vector_matches_oracle(self, data):
        kind = data.draw(st.sampled_from(("classical", "vincular", "subword")))
        letters = flatten(
            data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        )
        m = len(letters)
        if kind == "classical":
            gaps = frozenset(range(1, m))
        elif kind == "subword":
            gaps = frozenset()
        else:
            gaps = frozenset(
                g for g in range(1, m) if data.draw(st.booleans(), label=f"gap{g}")
            )
        p = Pattern(letters, gaps)
        n = data.draw(st.integers(1, 6))
        words, _ = _canonical_array(n, data.draw(st.integers(1, n)))
        got = _count_vector(p, words).tolist()
        want = [oracles.naive_count(letters, gaps, row) for row in words.tolist()]
        assert got == want


    @pytest.mark.parametrize(
        "ptxt, n, dtype",
        [("12-1", 24, "uint8"), ("12-1", 25, "uint16"), ("1-2", 23, "uint8"),
         ("1-2", 24, "uint16"), ("1", 255, "uint8"), ("1", 256, "uint16")],
    )
    def test_counters_either_side_of_255(self, ptxt, n, dtype):
        """C(n - m + b, b) placements, on either side of 255 (12-1 has
        C(n - 1, 2): 253 at n = 24, 276 at 25), in the narrowest counter
        that holds them, against the oracle on random words and on the
        constant word, which is an occurrence at every placement of 11-1."""
        p = parse_pattern(ptxt)
        rng = np.random.default_rng(n)
        words = np.vstack([np.ones((1, n), dtype=np.int8),
                           rng.integers(1, 4, size=(3, n), dtype=np.int8)])
        got = _count_vector(p, words)
        assert got.dtype == dtype
        want = [oracles.naive_count(p.letters, p.hyphens, row) for row in words.tolist()]
        assert got.tolist() == want
        flat = parse_pattern("11-1" if p.m == 3 else "1" * p.m)
        assert _count_vector(flat, words[:1]).tolist() == [occurrence_denominator(p.m, p.b, n)]

    @pytest.mark.parametrize("n, dtype", [(363, "uint16"), (364, "uint32")])
    def test_counters_either_side_of_65535(self, n, dtype):
        """11-1 has C(n - 1, 2) placements: 65,341 at n = 363, 65,703 at
        364; the constant word is an occurrence at each of them, and a word
        with one 2 loses the placements that take it."""
        p = parse_pattern("11-1")
        words = np.ones((2, n), dtype=np.int8)
        two = n // 2
        words[1, two] = 2
        got = _count_vector(p, words)
        assert got.dtype == dtype
        total = comb(n - 1, 2)
        apart = sum(two not in (i, i + 1, c) for i in range(n - 1) for c in range(i + 2, n))
        assert got.tolist() == [total, apart]
        assert total == occurrence_denominator(3, 2, n) and (total > 65535) == (n == 364)

    def test_counter_dtype_boundaries(self):
        for most, dtype in [(0, np.uint8), (255, np.uint8), (256, np.uint16),
                            (65535, np.uint16), (65536, np.uint32),
                            (2 ** 32 - 1, np.uint32), (2 ** 32, np.uint64)]:
            assert search._counter_dtype(most) is dtype


class TestCanonicalArrayCache:
    def test_each_array_is_built_once(self):
        """A run of sweeps over a few lengths and alphabets, as in a table of
        exact maxima, builds each (n, cap) array once, even when later
        sweeps come back to earlier arrays."""
        calls = []
        for _ in range(2):
            for n in range(4, 8):
                calls += [("k", "121", k, n) for k in (2, 3, n)]
                calls += [("d", "12-1", None, n), ("k", "1122", 2, n)]
        _canonical_array.cache_clear()
        for kind, ptxt, k, n in calls:
            if kind == "k":
                max_count(parse_pattern(ptxt), k, n)
            else:
                max_count_by_alphabet(parse_pattern(ptxt), n)
        keys = {(n, n if k is None else min(k, n)) for _, _, k, n in calls}
        info = _canonical_array.cache_info()
        assert len(keys) == 12 and info.misses == len(keys)
        assert info.hits == len(calls) - len(keys)


class TestMaxCountAgainstOracle:
    @pytest.mark.parametrize(
        "ptxt", ["132", "112", "121", "12-1", "11-2", "1122", "121g", "2-13"]
    )
    def test_small_grid(self, ptxt):
        p = parse_pattern(ptxt)
        for n in range(p.m, 6):
            for k in (1, 2, n):
                if k > n:
                    continue
                want_mu, want_w = oracles.naive_max_count(
                    p.letters, set(p.hyphens), k, n
                )
                got = max_count(p, k, n)
                assert got.count == want_mu, (ptxt, k, n)
                assert got.witness.letters == want_w, (ptxt, k, n)
                assert got.exhaustive and got.denom > 0
                assert got.density == Fraction(got.count, got.denom)

    def test_witness_recount(self):
        for ptxt in ("132", "1122", "12-1"):
            p = parse_pattern(ptxt)
            r = max_count(p, 6, 6)
            assert count_generalized(p, r.witness) == r.count

    def test_weighted_set_search(self):
        from wordpack.core import WeightedPatternSet

        ps = WeightedPatternSet.uniform(
            [parse_pattern("123"), parse_pattern("321")]
        )
        r = max_count(ps, 5, 5)
        assert weighted_count(ps, r.witness) == r.count
        best = max(
            weighted_count(ps, Word(w)) for w in oracles.canonical_words(5, 5)
        )
        assert r.count == best

    def test_input_validation(self):
        with pytest.raises(ValueError):
            max_count(parse_pattern("123"), 3, 2)
        with pytest.raises(ValueError):
            max_count(parse_pattern("123"), 0, 4)


class TestMeter:
    def test_no_budget_never_raises(self):
        for budget in (None, SearchBudget()):
            meter = _Meter(budget)
            for _ in range(5000):
                meter.tick()
            assert meter.nodes == 5000

    def test_node_budget_raises_on_the_next_tick(self):
        meter = _Meter(SearchBudget(max_nodes=3))
        for _ in range(3):
            meter.tick()
        with pytest.raises(_BudgetExceeded):
            meter.tick()
        assert meter.nodes == 3

    def test_passed_deadline_raises_on_the_first_tick(self):
        meter = _Meter(SearchBudget(max_seconds=-1.0))
        with pytest.raises(_BudgetExceeded):
            meter.tick()
        assert meter.nodes == 0


class TestBranchAndBound:
    def test_dfs_matches_vectorized_including_witness(self):
        for ptxt in ("132", "1122", "12-1", "121g"):
            p = parse_pattern(ptxt)
            for n in range(p.m, 7):
                vec = max_count(p, n, n)
                dfs = max_count(p, n, n, budget=SearchBudget(10 ** 9))
                assert (dfs.count, dfs.witness) == (vec.count, vec.witness)
                assert dfs.exhaustive

    def test_thread_count_does_not_change_result(self):
        p = parse_pattern("1122")
        one = max_count(p, 7, 7, budget=SearchBudget(10 ** 9), threads=1)
        four = max_count(p, 7, 7, budget=SearchBudget(10 ** 9), threads=4)
        assert one == four

    def test_budget_exhaustion_is_reported(self):
        p = parse_pattern("132")
        full = max_count(p, 7, 7)
        partial = max_count(p, 7, 7, budget=SearchBudget(3000))
        assert not partial.exhaustive
        assert partial.count <= full.count

    def test_budgeted_run_is_pinned(self):
        """The one meter stops the search at exactly the budget."""
        r = max_count(parse_pattern("121"), 7, 8, budget=SearchBudget(10007))
        assert (r.nodes, r.count, str(r.witness)) == (10007, 19, "11123211")
        assert not r.exhaustive

    @pytest.mark.parametrize(
        "text, k, n, budget, count, witness, nodes, exhaustive",
        [
            ("1-2-1", 3, 40, 50000, 1016, "1111111111111111111111111111223322111111",
             50000, False),
            ("112", 8, 8, 10 ** 7, 31, "11111223", 12627, True),
            ("132", 7, 7, 10 ** 7, 20, "1165432", 10786, True),
            ("21-3", 9, 9, 20000, 14, "132154768", 20000, False),
            ("13524", 12, 12, 20000, 47, "111113577246", 20000, False),
        ],
        ids=["1-2-1-n40", "112", "132", "21-3", "13524-wide"],
    )
    def test_runs_are_pinned(self, text, k, n, budget, count, witness, nodes, exhaustive):
        """Completed and budget-stopped runs keep their counts, witnesses,
        node counts and stop flags; 13524 on 12 letters has about 800
        automaton states, most of which a node's letters leave out."""
        r = max_count(parse_pattern(text), k, n, budget=SearchBudget(budget))
        assert (r.count, str(r.witness), r.nodes, r.exhaustive) == (
            count, witness, nodes, exhaustive)

    def test_budgeted_by_alphabet_run_is_pinned(self):
        by = max_count_by_alphabet(parse_pattern("12-1"), 10, budget=SearchBudget(3000))
        got = {d: (by[d].count, str(by[d].witness)) for d in range(2, 7)}
        assert got == {2: (7, "1111212111"), 3: (7, "1111213111"), 4: (6, "1111213141"),
                       5: (3, "1111213145"), 6: (1, "1111213456")}
        assert all(r.nodes == 3000 and not r.exhaustive for r in by.values())

    def test_budget_stopped_run_spends_the_whole_budget(self):
        """No allowance is lost to parts of the tree that finish early."""
        r = max_count(parse_pattern("121"), 7, 7, budget=SearchBudget(20000))
        assert r.nodes == 20000 and not r.exhaustive

    def test_budgeted_run_leaves_the_word_arrays_alone(self):
        before = _canonical_array.cache_info()
        max_count(parse_pattern("121"), 7, 8, budget=SearchBudget(2000))
        assert _canonical_array.cache_info() == before

    def test_budget_too_small_to_reach_any_word(self):
        with pytest.raises(RuntimeError, match="no complete word"):
            max_count(parse_pattern("132"), 7, 7, budget=SearchBudget(6))

    def test_unbudgeted_oversize_refused(self):
        with pytest.raises(ValueError, match="budget"):
            max_count(parse_pattern("123"), 12, 12)


def _weighted(*pairs):
    return WeightedPatternSet(tuple((parse_pattern(t), Fraction(w)) for t, w in pairs))


#: budgeted runs checked against the sweep: k < n, hyphenated patterns,
#: sets with fractional (and zero) weights, and tables whose sources sit
#: past the slots a row uses
_CROSS_CHECKS = [
    ("121", parse_pattern("121"), 3, 7),
    ("132", parse_pattern("132"), 3, 7),
    ("1122", parse_pattern("1122"), 2, 7),
    ("1-2-1", parse_pattern("1-2-1"), 3, 7),
    ("2-13", parse_pattern("2-13"), 3, 7),
    ("2-13 k5", parse_pattern("2-13"), 5, 6),
    ("132+123+213", _weighted(("132", "1/3"), ("123", "3/4"), ("213", 0)), 4, 6),
    ("12-1+21-2", _weighted(("12-1", "1/2"), ("21-2", "2/3")), 3, 7),
    ("2431", parse_pattern("2431"), 5, 7),
    ("321+231", _weighted(("321", 1), ("231", "1/2")), 4, 7),
]


class TestBranchAndBoundAgainstSweep:
    @pytest.mark.parametrize(
        "ps, k, nmax", [c[1:] for c in _CROSS_CHECKS], ids=[c[0] for c in _CROSS_CHECKS]
    )
    def test_max_count(self, ps, k, nmax):
        for n in range(ps.m, nmax + 1):
            vec = max_count(ps, k, n)
            dfs = max_count(ps, k, n, budget=SearchBudget(10 ** 9))
            assert dfs.exhaustive
            assert (dfs.count, dfs.witness) == (vec.count, vec.witness), n

    @pytest.mark.parametrize("text", ["121", "1-2-1", "2-13", "1122", "2143"])
    def test_max_count_by_alphabet(self, text):
        p = parse_pattern(text)
        vec = max_count_by_alphabet(p, 6)
        dfs = max_count_by_alphabet(p, 6, budget=SearchBudget(10 ** 9))
        assert sorted(dfs) == sorted(vec) == list(range(1, 7))
        for d in vec:
            assert dfs[d].exhaustive
            assert (dfs[d].count, dfs[d].witness) == (vec[d].count, vec[d].witness), d

    def test_max_count_by_alphabet_carries_the_floors(self):
        """One search carries each d's best along the lex order, so later
        subtrees prune against the floors earlier ones found."""
        p = parse_pattern("132")
        vec = max_count_by_alphabet(p, 7)
        dfs = max_count_by_alphabet(p, 7, budget=SearchBudget(10 ** 7))
        assert sorted(dfs) == sorted(vec) == list(range(1, 8))
        for d in vec:
            assert dfs[d].exhaustive and dfs[d].nodes == 14903
            assert (dfs[d].count, dfs[d].witness) == (vec[d].count, vec[d].witness), d

    @pytest.mark.parametrize(
        "weights",
        [(Fraction(1, 3 ** 38), Fraction(1, 2)), (Fraction(1, 3 ** 40), Fraction(1, 5 ** 28))],
        ids=["3^-38+2^-1", "3^-40+5^-28"],
    )
    def test_weights_past_int64(self, weights):
        """Scaled to integers, these weights pass 2**63: both engines count
        exactly and agree."""
        ps = _weighted(("12-1", weights[0]), ("21-2", weights[1]))
        vec = max_count(ps, 3, 8)
        dfs = max_count(ps, 3, 8, budget=SearchBudget(10 ** 9))
        assert dfs.exhaustive
        assert (dfs.count, dfs.witness) == (vec.count, vec.witness)
        assert vec.count == weighted_count(ps, vec.witness)

    @pytest.mark.parametrize(
        "ps, k, n, per_d",
        [
            (parse_pattern("121"), 3, 6, False),
            (parse_pattern("121"), 5, 5, True),
            (parse_pattern("1-2-1"), 3, 6, False),
            (parse_pattern("1-2-1"), 5, 5, True),
            (parse_pattern("2-13"), 3, 6, False),
            (parse_pattern("2-13"), 5, 5, True),
            (parse_pattern("12-1"), 5, 5, False),
            (_weighted(("12-1", "1/2"), ("21-2", "2/3")), 3, 6, False),
            (_weighted(("12-1", "1/2"), ("21-2", "2/3")), 5, 5, True),
        ],
        ids=["121", "121-by-d", "1-2-1", "1-2-1-by-d", "2-13", "2-13-by-d", "12-1",
             "12-1+21-2", "12-1+21-2-by-d"],
    )
    def test_bound_covers_every_completion(self, monkeypatch, ps, k, n, per_d):
        """For every child a run's batched expansion bounds, the bound is at
        least the weighted count of every word on [k] that extends the
        child's prefix, and at most its count plus every placement that
        reaches past it."""
        if isinstance(ps, Pattern):
            ps = WeightedPatternSet.single(ps)
        bounds = {}

        class Recording(search._BranchAndBound):
            def _expand(self, t, row, cur, last):
                counts, bnds, kids = super()._expand(t, row, cur, last)
                if bnds is not None:
                    for x, b, c in zip(range(1, last + 1), bnds, counts):
                        bounds[(*self.prefix, x)] = (b, c)
                return counts, bnds, kids

        monkeypatch.setattr(search, "_BranchAndBound", Recording)
        if per_d:  # the by-alphabet search runs over every word on [n]
            assert k == n
            max_count_by_alphabet(ps, n, budget=SearchBudget(10 ** 9))
        else:
            max_count(ps, k, n, budget=SearchBudget(10 ** 9))
        assert bounds
        entries, scale = _normalize_weights(ps)
        wsum = sum(w for _, w in entries)
        best = {}
        for letters in itertools.product(range(1, k + 1), repeat=n):
            c = weighted_count(ps, Word(letters)) * scale
            for t in range(1, n):
                best[letters[:t]] = max(best.get(letters[:t], 0), c)
        for prefix, (b, cur) in bounds.items():
            reach = occurrence_denominator(ps.m, ps.b, n) - occurrence_denominator(
                ps.m, ps.b, len(prefix)
            )
            assert best[prefix] <= b <= cur + wsum * reach, prefix


class TestByAlphabet:
    def test_reduction_matches_direct(self):
        p = parse_pattern("1122")
        per = max_count_by_alphabet(p, 6)
        for k in range(1, 7):
            direct = max_count(p, k, 6)
            assert direct.count == max(r.count for d, r in per.items() if d <= k)

    def test_monotone_in_distinct_letters_for_distinct_pattern(self):
        per = max_count_by_alphabet(parse_pattern("123"), 6)
        assert per[6].count >= per[3].count >= per[1].count


class TestKnownIdentities:
    def test_twelve_one_two_letter_formula(self):
        p = parse_pattern("12-1")
        for n in range(3, 13):
            want = max(
                d * (d - 1) // 2 + d * (n - 2 * d) for d in range(1, n // 2 + 1)
            )
            assert max_count(p, 2, n).count == want

    def test_constant_pattern_attains_binomial(self):
        p = parse_pattern("11")
        r = max_count(p, 3, 6)
        assert r.count == 15 and r.witness.letters == (1,) * 6


class TestSeries:
    def test_diagonal_nonincreasing(self):
        rep = delta_series(parse_pattern("132"), range(3, 8))
        assert rep.violations == ()
        densities = [row.density for row in rep.rows]
        assert densities == sorted(densities, reverse=True)

    def test_fixed_k_nonincreasing(self):
        rep = delta_series(parse_pattern("12-1"), range(3, 10), k=2)
        assert rep.violations == ()
        assert all(row.k == 2 for row in rep.rows)

    def test_rows_carry_search_results(self):
        rep = delta_series(parse_pattern("121"), range(3, 6), k=2)
        for row in rep.rows:
            assert row == max_count(parse_pattern("121"), 2, row.n)
            assert row.exhaustive and row.nodes > 0


class TestStructuralChecks:
    def test_perm_restriction_small(self):
        for ptxt in ("132", "123"):
            for n in (4, 5):
                rep = verify_perm_restriction(parse_pattern(ptxt), n)
                assert rep.equal, (ptxt, n)

    def test_perm_restriction_requires_permutation_patterns(self):
        with pytest.raises(ValueError):
            verify_perm_restriction(parse_pattern("112"), 4)

    def test_tiebreak_sampling(self):
        rep = verify_tiebreak_map(parse_pattern("132"), 6, samples=100, seed=5)
        assert rep.violations == 0 and rep.samples == 100

    def test_layered_witness(self):
        rep = verify_layered_witness(parse_pattern("2143"), 4)
        assert rep.layered_maximizer_exists
        assert rep.all_maximizers_layered is True
        rep2 = verify_layered_witness(parse_pattern("132"), 5)
        assert rep2.layered_maximizer_exists
        assert rep2.all_maximizers_layered is None  # a singleton layer

    def test_layered_witness_requires_layered_pattern(self):
        with pytest.raises(ValueError):
            verify_layered_witness(parse_pattern("231"), 4)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        p = parse_pattern("1122")
        a = max_count(p, 6, 6)
        b = max_count(p, 6, 6)
        assert a == b
        da = max_count(p, 6, 6, budget=SearchBudget(10 ** 7), threads=3)
        db = max_count(p, 6, 6, budget=SearchBudget(10 ** 7), threads=3)
        assert da == db
