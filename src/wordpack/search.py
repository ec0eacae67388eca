"""Extremal search over words: maxima of occurrence counts and exact finite
packing densities.

Order-isomorphic words contain every pattern equally often, so all searches
run over canonical words (distinct letters exactly {1..d}, d <= min(k, n)),
one representative per isomorphism class.  Enumeration is lexicographic and
the reported witness is always the lexicographically least maximizer, so
the two engines below give the same results.

Two engines sit behind max_count: an exhaustive vectorized sweep used when no
node budget is given and the space is small enough, and a branch-and-bound
depth-first search over the occurrence automata compiled into dense tables
(count.AutomatonTables) for budgeted runs.  One builder grows the canonical
words into an int8 array a letter column at a time for enumerate_canonical
and the sweep.  The sweep, for each set of positions an occurrence may
take, compares m - 1 pairs of columns to find the words order-isomorphic to
the pattern.  The sweep tracks the best word per alphabet-support size d,
so one sweep of the n-letter space answers every k at once.  Both engines
count in int64 unless the weights could carry a count past it, and in
Python ints then.

The branch and bound is one lex-ordered DFS from the empty prefix, counted
by one _Meter.  A node holds the row of partial-match counts of its prefix
over the tables and computes the counts, rows and bounds of all its
children in one batch of array operations; a loop then ticks the meter
and visits the children in lex order.  It bounds a prefix of length t by
its count plus, per pattern, what the rem = n - t letters left can add.
Every later occurrence extends exactly one partial match the row holds
(the empty one included), so the partial matches with j letters matched
add at most their count times C(rem, m - j).  Each pattern's share is
capped by the placements that reach past the prefix.  max_count prunes
against one incumbent, the best count so far: it recurses only while the
bound beats the incumbent, so a pruned subtree could at most tie a word
found earlier and the witness stays lex-least.  max_count_by_alphabet
prunes against the per-d bests so far, the least over the d a completion
can reach, which keeps each per-d witness lex-least the same way.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import Pattern, WeightedPatternSet, Word, layered_decompose
from .count import (
    AutomatonTables,
    occurrence_denominator,
    tiebreak_permutation,
    weighted_count,
)

#: refuse exhaustive runs beyond this many candidate words unless budgeted
EXHAUSTIVE_WORD_LIMIT = 8_000_000
#: refuse words longer than this: branch and bound recurses once per letter
#: (CPython stops at 1,000 frames) and holds n + 1 bound arrays
MAX_SEARCH_N = 500


def surjection_count(n: int, d: int) -> int:
    """Words of length n using every letter of {1..d}."""
    return sum((-1) ** i * comb(d, i) * (d - i) ** n for i in range(d + 1))


def canonical_count(n: int, k: Optional[int] = None) -> int:
    """Number of canonical words of length n on at most k letters."""
    cap = n if k is None else min(k, n)
    return sum(surjection_count(n, d) for d in range(1, cap + 1))


def _fits(newmax, newd, slots):
    """The canonical-prefix rule: a prefix with maximum newmax and newd
    distinct letters extends to a canonical word iff the letters missing
    below its maximum fit in the slots left.  Works on ints and on arrays."""
    return newmax - newd <= slots


def _next_letters(
    n: int, cap: int, t: int, maxv: int, dcount: int, used: Sequence[int]
) -> Iterator[Tuple[int, int, int]]:
    """The letters x that may follow a canonical prefix of length t with
    maximum maxv and dcount distinct letters (used[x] nonzero iff x
    occurs), as (x, new maximum, new distinct count), in increasing order,
    so every canonical word of length n on at most cap letters is reached
    exactly once."""
    slots = n - t - 1
    for x in range(1, cap + 1):
        newmax = x if x > maxv else maxv
        newd = dcount if used[x] else dcount + 1
        if _fits(newmax, newd, slots):
            yield x, newmax, newd


def enumerate_canonical(n: int, k: Optional[int] = None) -> Iterator[Word]:
    """Canonical words of length n on at most k letters, lexicographically.

    Every word is built up front (the rows of _canonical_array), so a space
    of more than EXHAUSTIVE_WORD_LIMIT words raises ValueError instead."""
    cap = n if k is None else min(k, n)
    if cap < 1:
        return iter(())
    total = canonical_count(n, cap)
    if total > EXHAUSTIVE_WORD_LIMIT:
        raise ValueError(f"enumerating {total} canonical words; the limit is "
                         f"{EXHAUSTIVE_WORD_LIMIT}")
    words, dcnt = _canonical_array(n, cap)
    step = 1 << 16  # rows per batch, so the lists of letters stay small
    return itertools.chain.from_iterable(
        map(Word, zip(*words[i:i + step].T.tolist()), dcnt[i:i + step].tolist())
        for i in range(0, len(dcnt), step)
    )


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock allowance for branch-and-bound runs; None means
    unbounded.  Node budgets keep results deterministic; time budgets are
    inherently run-dependent and mark results non-exhaustive when hit."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    @property
    def bounded(self) -> bool:
        return self.max_nodes is not None or self.max_seconds is not None


@dataclass(frozen=True)
class SearchResult:
    """Maximum weighted count over the searched space with the
    lexicographically least witness."""

    count: Fraction
    denom: int
    density: Fraction
    witness: Word
    k: int
    n: int
    nodes: int
    exhaustive: bool


def _normalize_weights(ps: WeightedPatternSet) -> Tuple[List[Tuple[Pattern, int]], int]:
    """Scale weights to integers; returns (entries, scale)."""
    scale = 1
    for _, w in ps.entries:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    return [(p, int(w * scale)) for p, w in ps.entries], scale


class _BudgetExceeded(Exception):
    pass


class _Meter:
    """The budget of one search call, and the only place a SearchBudget
    becomes a running allowance: tick() counts a node, or raises
    _BudgetExceeded once budget.max_nodes nodes are counted or, checked
    every 1024 nodes, once budget.max_seconds have passed since the meter
    was made.  A None budget, or a None field, sets no limit.  A search
    with several stages shares one meter and reads a stage's nodes as the
    change in ``nodes`` across it."""

    def __init__(self, budget: Optional[SearchBudget]) -> None:
        self.allowance = budget.max_nodes if budget else None
        seconds = budget.max_seconds if budget else None
        self.deadline = time.monotonic() + seconds if seconds is not None else None
        self.nodes = 0

    def tick(self) -> None:
        if (
            self.deadline is not None
            and (self.nodes & 1023) == 0
            and time.monotonic() > self.deadline
        ):
            raise _BudgetExceeded
        if self.allowance is not None and self.nodes >= self.allowance:
            raise _BudgetExceeded
        self.nodes += 1


def _int_dtype(entries: List[Tuple[Pattern, int]], n: int):
    """The dtype for the integers either engine forms over words of length
    n: int64 while they stay below 2**63, else object (Python ints).  A
    weighted count is at most max weight x #patterns x C(n - m + b, b),
    and one pattern's weighted partial-match sum in branch and bound at
    most max weight x C(n, m)."""
    m, b = entries[0][0].m, entries[0][0].b
    reach = max(len(entries) * occurrence_denominator(m, b, n), comb(n, m))
    return np.int64 if max(w for _, w in entries) * reach < 1 << 63 else object


class _BranchAndBound:
    """Lex-ordered branch-and-bound DFS over the canonical words of length
    n on at most cap letters, from the empty prefix.  With per_d it tracks
    the best count per d (the alphabet support of the complete word), each
    pruning against the least of the d it can reach; without, one best over
    every d in slot 0.  Every best starts at -1.

    A node carries the row of its prefix over the AutomatonTables of the
    patterns and expands its children in one batch (_expand) before it
    visits them in lex order.  The tables cover the letters up to
    tables.cap and grow to x when the search first reaches a larger
    letter x, so a budgeted run on a wide pattern compiles only the states
    it can meet.  Growth renumbers no slot, so a row made before it,
    padded with zeros, is still the row of its prefix: _expand pads it
    and reads every slot."""

    def __init__(
        self,
        entries: List[Tuple[Pattern, int]],
        n: int,
        cap: int,
        meter: _Meter,
        per_d: bool,
    ) -> None:
        self.n = n
        self.cap = cap
        self.meter = meter
        self.tables = AutomatonTables([p for p, _ in entries], 0)
        dtype = _int_dtype(entries, n)
        self.weights = np.array([w for _, w in entries], dtype=dtype)
        m, b = entries[0][0].m, entries[0][0].b
        total = occurrence_denominator(m, b, n)
        # placements that reach past a prefix of length t, per pattern
        # weighted, and the ways to put the last m - j letters of a match
        # among rem later letters
        self.cap_at = [self.weights * (total - occurrence_denominator(m, b, t))
                       for t in range(n + 1)]
        self.ways = [np.array([comb(rem, m - j) for j in range(m)], dtype=dtype)
                     for rem in range(n + 1)]
        self._tabulate(1)
        self.per_d = per_d
        self.best: List[int] = [-1] * (cap + 1 if per_d else 1)
        self.bestw: List[Optional[Tuple[int, ...]]] = [None] * len(self.best)
        self.prefix: List[int] = []
        self.used = [0] * (cap + 2)

    def _tabulate(self, letters: int) -> None:
        """Grow the tables to the letters 1..letters and derive, per slot,
        keep repeated for every letter (so the gathers in _expand take one
        shape and add without broadcasting), the columns of tables.src
        that hold a source, the weighted occurrences each letter completes
        (gain) and, per rem, the weighted ways to complete its match among
        rem letters, in the column of its pattern (reach)."""
        tables = self.tables
        tables.grow(letters)
        self.keep = np.tile(tables.keep, (letters, 1))
        self.src = [np.ascontiguousarray(tables.src[:, :, i])
                    for i in range(tables.src.shape[2]) if tables.src[:, :, i].any()]
        weight = self.weights[tables.pattern]
        self.gain = tables.complete * weight[:, None]
        own = tables.pattern[:, None] == np.arange(len(self.weights))
        self.reach = [own * (ways[tables.level] * weight)[:, None] for ways in self.ways]

    def _expand(
        self, t: int, row: np.ndarray, cur: int, last: int
    ) -> Tuple[List[int], Optional[List[int]], Optional[np.ndarray]]:
        """Children x = 1..last of a prefix of length t with count cur and
        the given row: the count of each and, unless they are complete
        words, each one's bound and row.  The bound is the most any
        completion can count: every later occurrence extends one partial
        match with j letters matched (the empty one included) by m - j of
        the rem letters left, and at most the placements that reach past
        the prefix do, per pattern; weights are nonnegative, so the cap can
        be taken after weighting."""
        size = len(self.tables.keep)
        if len(row) < size:  # made before the tables grew
            row = np.concatenate((row, np.zeros(size - len(row), dtype=row.dtype)))
        counts = [cur + g for g in row.dot(self.gain[:, :last]).tolist()]
        if t + 1 == self.n:
            return counts, None, None
        kids = row[self.keep[:last]]
        for src in self.src:
            kids += row[src[:last]]
        reach = kids.dot(self.reach[self.n - t - 1])
        np.minimum(reach, self.cap_at[t + 1], out=reach)
        return counts, [c + sum(r) for c, r in zip(counts, reach.tolist())], kids

    def run(self) -> bool:
        """Search the whole tree; False when the budget stopped it."""
        try:
            self._dfs(0, 0, 0, self.tables.start.astype(self.weights.dtype), 0)
        except _BudgetExceeded:
            return False
        return True

    def _dfs(self, t: int, maxv: int, dcount: int, row: np.ndarray, cur: int) -> None:
        n = self.n
        best = self.best
        prefix = self.prefix
        letters = list(_next_letters(n, self.cap, t, maxv, dcount, self.used))
        last = letters[-1][0]
        lim = 0  # the batch so far covers the children x <= lim
        for x, newmax, newd in letters:
            self.meter.tick()
            if x > lim:
                if x > self.tables.cap:
                    self._tabulate(x)
                lim = min(last, self.tables.cap)
                counts, bounds, kids = self._expand(t, row, cur, lim)
            if bounds is None:
                # only strict gains, in lex order, keep the witnesses lex-least
                i = newd if self.per_d else 0
                if counts[x - 1] > best[i]:
                    best[i] = counts[x - 1]
                    self.bestw[i] = (*prefix, x)
                continue
            if self.per_d:  # the d a completion can have: newmax up to dhi
                dhi = min(self.cap, newd + n - t - 1)
                floor = min(best[newmax:dhi + 1])
            else:
                floor = best[0]
            if bounds[x - 1] > floor:
                prefix.append(x)
                self.used[x] += 1
                self._dfs(t + 1, newmax, newd, kids[x - 1], counts[x - 1])
                prefix.pop()
                self.used[x] -= 1


def _dfs_by_alphabet(
    ps: WeightedPatternSet,
    n: int,
    cap: int,
    budget: SearchBudget,
    per_d: bool,
) -> Tuple[Dict[int, Tuple[int, Tuple[int, ...]]], int, bool, int]:
    entries, scale = _normalize_weights(ps)
    search = _BranchAndBound(entries, n, cap, _Meter(budget), per_d)
    exhaustive = search.run()
    perd = {i: (c, w) for i, (c, w) in enumerate(zip(search.best, search.bestw))
            if w is not None}
    return perd, search.meter.nodes, exhaustive, scale


@lru_cache(maxsize=32)
def _canonical_array(n: int, cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """All canonical words of length n on at most cap letters as an int8
    array in lex order, plus the alphabet-support size of each row; each
    column is contiguous.  The words grow a letter column at a time: each
    prefix grows by x = 1..cap in order, keeping the extensions that pass
    _fits, so rows stay in lex order.

    The cache keeps 32 (n, cap) arrays, so a run of sweeps builds each one
    once.  An array takes n + 1 bytes a row, rows grow at least threefold
    per letter of n, and the caps below n add up to about twice the full
    array, so the cache holds at most about 3.5 times its largest array:
    16 MB with the n = 8 one (4.9 MB), 250 MB at n = 9."""
    xs = np.arange(1, cap + 1, dtype=np.int8)
    bits = np.left_shift(1, xs, dtype=np.int16 if cap < 15 else np.int64)
    cols = np.zeros((0, 1 if n else 0), dtype=np.int8)  # the empty prefix
    maxv, dcnt = np.zeros((2, cols.shape[1]), dtype=np.int8)
    used = np.zeros(cols.shape[1], dtype=bits.dtype)  # bit x: letter x occurs
    for t in range(n):
        ok = np.empty((len(used), cap), dtype=bool)
        for j in range(cap):
            newd = dcnt + ((used & bits[j]) == 0)
            ok[:, j] = _fits(np.maximum(maxv, xs[j]), newd, n - t - 1)
        kids = ok.sum(axis=1)
        grown = np.empty((t + 1, int(kids.sum())), dtype=np.int8)
        for i in range(t):
            grown[i] = np.repeat(cols[i], kids)
        x = grown[t] = np.broadcast_to(xs, ok.shape)[ok]
        cols = grown
        bit = np.left_shift(1, x, dtype=bits.dtype)
        used = np.repeat(used, kids)
        dcnt = np.repeat(dcnt, kids) + ((used & bit) == 0)
        used |= bit
        maxv = np.maximum(np.repeat(maxv, kids), x)
    return cols.T, dcnt


def _counter_dtype(most: int):
    """The narrowest unsigned dtype that holds every count up to most."""
    if most < 1 << 8:
        return np.uint8
    if most < 1 << 16:
        return np.uint16
    return np.uint32 if most < 1 << 32 else np.uint64


def _count_vector(p: Pattern, words: np.ndarray) -> np.ndarray:
    """Occurrence counts of p in every row of words: for each set of
    positions that keeps p's unhyphenated gaps adjacent, add 1 where the
    letters there, taken in the order of p's letters, compare == where
    p's letters tie and < where they rise.

    There are C(n - m + b, b) such sets, so no count passes that bound,
    and the counts are kept in the narrowest unsigned dtype that holds it
    (uint8 up to 255 sets): the adds over the rows cost less the narrower
    they are.  Callers widen the result before they weight it."""
    nwords, n = words.shape
    block = list(itertools.accumulate(int(g in p.hyphens) for g in range(p.m)))
    order = sorted(range(p.m), key=lambda i: (p.letters[i], i))
    steps = [(a, c, np.equal if p.letters[a] == p.letters[c] else np.less)
             for a, c in zip(order, order[1:])]
    cols = words.T
    out = np.zeros(nwords, dtype=_counter_dtype(occurrence_denominator(p.m, p.b, n)))
    hit, tmp = np.empty((2, nwords), dtype=bool)
    head, rest = steps[:1], steps[1:]  # the first comparison writes hit
    if not head:  # one letter: every position set is an occurrence
        hit.fill(True)
    for starts in itertools.combinations(range(n - p.m + p.b), p.b):
        pos = [starts[block[q]] + q - block[q] for q in range(p.m)]
        for a, c, cmp in head:
            cmp(cols[pos[a]], cols[pos[c]], out=hit)
        for a, c, cmp in rest:
            cmp(cols[pos[a]], cols[pos[c]], out=tmp)
            hit &= tmp
        out += hit
    return out


def _vector_by_alphabet(
    ps: WeightedPatternSet, n: int, cap: int
) -> Tuple[Dict[int, Tuple[int, Tuple[int, ...]]], int, bool, int]:
    entries, scale = _normalize_weights(ps)
    words, dcnt = _canonical_array(n, cap)
    dtype = _int_dtype(entries, n)
    counts = None
    for p, w in entries:  # in place: at most two vectors of the words' length
        vec = _count_vector(p, words).astype(dtype, copy=False)
        vec *= w
        counts = vec if counts is None else np.add(counts, vec, out=counts)
    perd: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    for d in range(1, cap + 1):
        idx = np.flatnonzero(dcnt == d)
        pos = idx[int(np.argmax(counts[idx]))]  # the first maximum, lex-least
        perd[d] = (int(counts[pos]), tuple(int(v) for v in words[pos]))
    return perd, int(words.shape[0]), True, scale


def _as_set(ps: Union[Pattern, WeightedPatternSet]) -> WeightedPatternSet:
    return WeightedPatternSet.single(ps) if isinstance(ps, Pattern) else ps


def _by_alphabet(
    ps: WeightedPatternSet, n: int, cap: int, budget: Optional[SearchBudget],
    per_d: bool,
) -> Tuple[Dict[int, Tuple[int, Tuple[int, ...]]], int, bool, int]:
    """(per-d best count and witness for d <= cap, nodes, exhaustive, weight
    scale): the exhaustive vectorized sweep when no budget is given, branch
    and bound otherwise, which without per_d keeps only the overall best,
    under key 0."""
    if n < ps.m:
        raise ValueError(f"n={n} shorter than pattern length m={ps.m}")
    if n > MAX_SEARCH_N:
        raise ValueError(f"n={n} is above the longest word a search takes, {MAX_SEARCH_N}")
    if budget is None or not budget.bounded:
        total = canonical_count(n, cap)
        if total > EXHAUSTIVE_WORD_LIMIT:
            raise ValueError(
                f"exhaustive search over {total} words; supply a node budget"
            )
        return _vector_by_alphabet(ps, n, cap)
    return _dfs_by_alphabet(ps, n, cap, budget, per_d)


def _result(
    ps: WeightedPatternSet, best: Tuple[int, Tuple[int, ...]], scale: int,
    k: int, n: int, nodes: int, exhaustive: bool,
) -> SearchResult:
    cnt = Fraction(best[0], scale)
    denom = occurrence_denominator(ps.m, ps.b, n)
    witness = Word(best[1], max(best[1]))
    return SearchResult(cnt, denom, cnt / denom, witness, k, n, nodes, exhaustive)


def max_count_by_alphabet(
    ps: Union[Pattern, WeightedPatternSet],
    n: int,
    budget: Optional[SearchBudget] = None,
) -> Dict[int, SearchResult]:
    """Maximum weighted count among canonical words of length n using
    exactly d distinct letters, for every d, in one sweep."""
    ps = _as_set(ps)
    perd, nodes, exhaustive, scale = _by_alphabet(ps, n, n, budget, True)
    return {
        d: _result(ps, best, scale, d, n, nodes, exhaustive)
        for d, best in sorted(perd.items())
    }


def max_count(
    ps: Union[Pattern, WeightedPatternSet],
    k: int,
    n: int,
    budget: Optional[SearchBudget] = None,
    threads: int = 1,
) -> SearchResult:
    """mu(ps, k, n): maximum weighted occurrence count over words in [k]^n,
    with the lexicographically least canonical maximizer; the density is
    delta(ps, k, n) = mu / C(n - m + b, b), exact.  ``threads`` is accepted
    for compatibility and has no effect."""
    ps = _as_set(ps)
    if k < 1:
        raise ValueError("alphabet size k must be positive")
    perd, nodes, exhaustive, scale = _by_alphabet(ps, n, min(k, n), budget, False)
    if not perd:
        raise RuntimeError("search explored no complete word")
    best = min(perd.values(), key=lambda cw: (-cw[0], cw[1]))
    return _result(ps, best, scale, k, n, nodes, exhaustive)


@dataclass(frozen=True)
class SeriesReport:
    """delta(ps, k, n) over a range of n with a monotonicity audit.

    Diagonal series (k policy None) use k = n; densities must then be
    nonincreasing in n.  Fixed-k series must be nonincreasing in n as well;
    violations list (n_prev, n) pairs and should always be empty.
    """

    rows: Tuple[SearchResult, ...]
    violations: Tuple[Tuple[int, int], ...]


def delta_series(
    ps: Union[Pattern, WeightedPatternSet],
    n_range: Sequence[int],
    k: Optional[int] = None,
    budget: Optional[SearchBudget] = None,
) -> SeriesReport:
    """Exact density table over n_range (diagonal k=n when k is None), one
    max_count result per n."""
    rows = [max_count(ps, n if k is None else k, n, budget) for n in sorted(n_range)]
    violations = []
    for a, b in zip(rows, rows[1:]):
        if b.density > a.density:
            violations.append((a.n, b.n))
    return SeriesReport(tuple(rows), tuple(violations))


@dataclass(frozen=True)
class PermRestrictionReport:
    """Ties never hurt: over permutation-pattern sets the word maximum is
    attained by a permutation."""

    n: int
    word_max: Fraction
    perm_max: Fraction
    equal: bool
    word_witness: Word
    perm_witness: Word


def verify_perm_restriction(
    ps: Union[Pattern, WeightedPatternSet], n: int
) -> PermRestrictionReport:
    """Compare the canonical-word maximum with the permutation-only maximum
    for a classical permutation-pattern set."""
    ps = _as_set(ps)
    for p in ps.patterns():
        if not (p.is_permutation and p.is_classical):
            raise ValueError(f"{p} is not a classical permutation pattern")
    word_res = max_count(ps, n, n)
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        w = Word(perm, n)
        c = weighted_count(ps, w)
        if best is None or c > best[0]:
            best = (c, w)
    perm_max, perm_witness = best
    return PermRestrictionReport(
        n,
        word_res.count,
        perm_max,
        word_res.count == perm_max,
        word_res.witness,
        perm_witness,
    )


@dataclass(frozen=True)
class TiebreakReport:
    """Sampled check that the tie-breaking map never loses occurrences."""

    n: int
    samples: int
    violations: int


def verify_tiebreak_map(
    ps: Union[Pattern, WeightedPatternSet], n: int, samples: int, seed: int
) -> TiebreakReport:
    """Sample canonical words (flatten of uniform words in [n]^n, fixed
    seed) and check nu(ps, f(w)) >= nu(ps, w)."""
    import random

    ps = _as_set(ps)
    rng = random.Random(seed)
    bad = 0
    for _ in range(samples):
        w = Word(tuple(rng.randint(1, n) for _ in range(n))).canonical()
        if weighted_count(ps, tiebreak_permutation(w)) < weighted_count(ps, w):
            bad += 1
    return TiebreakReport(n, samples, bad)


@dataclass(frozen=True)
class LayeredWitnessReport:
    """Existence (and when promised, exclusivity) of layered maximizers
    among permutations for a layered permutation-pattern set."""

    n: int
    mu: Fraction
    layered_maximizer_exists: bool
    all_maximizers_layered: Optional[bool]
    maximizers: int


def verify_layered_witness(
    ps: Union[Pattern, WeightedPatternSet], n: int
) -> LayeredWitnessReport:
    """Enumerate S_n, find all maximizers of the weighted count, and check
    layered structure.  When every pattern layer has length > 1 the theory
    promises every maximizer is layered, so all_maximizers_layered is
    reported; otherwise it is None."""
    ps = _as_set(ps)
    shapes = []
    for p in ps.patterns():
        if not (p.is_permutation and p.is_classical):
            raise ValueError(f"{p} is not a classical permutation pattern")
        shape = layered_decompose(p)
        if shape is None:
            raise ValueError(f"{p} is not layered")
        shapes.append(shape)
    promise = all(all(s >= 2 for s in shape.lengths) for shape in shapes)
    best: Fraction = Fraction(-1)
    maximizers: List[Word] = []
    for perm in itertools.permutations(range(1, n + 1)):
        w = Word(perm, n)
        c = weighted_count(ps, w)
        if c > best:
            best = c
            maximizers = [w]
        elif c == best:
            maximizers.append(w)
    layered_flags = [layered_decompose(Pattern.classical(w.letters)) is not None
                     for w in maximizers]
    return LayeredWitnessReport(
        n,
        best,
        any(layered_flags),
        all(layered_flags) if promise else None,
        len(maximizers),
    )
