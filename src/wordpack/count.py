"""Exact occurrence counting.

An occurrence of a pattern p in a word w is a subsequence of w that is
order-isomorphic to p's letters (equalities must match equalities) and whose
letters are consecutive in w across every non-hyphenated gap.  Counts are
exact integers; densities are exact rationals with denominator
C(n - m + b, b), which reduces to C(n, m) for classical patterns.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import Pattern, WeightedPatternSet, Word, flatten


class Automaton:
    """Occurrence counter of one pattern over a word fed letter by letter.

    A state (j, phi) means the first j pattern letters are matched, phi
    being the partial monotone map from pattern values to word values
    (0 for a value not yet assigned).  Free states may extend at any later
    letter; hot states await an unhyphenated gap and must extend at the
    very next letter or die.  ``free`` and ``hot`` map the states to their
    counts, and ``_run`` feeds letters and returns the occurrences they
    complete.  AutomatonTables compiles the same rule into dense tables.
    """

    __slots__ = ("m", "steps", "hyphens", "free", "hot")

    def __init__(self, p: Pattern) -> None:
        self.m = p.m
        # per matched-prefix length: (next value, already assigned, nearest
        # assigned value below, nearest assigned value above); 0 = none
        steps = []
        for j, v in enumerate(p.letters):
            dom = set(p.letters[:j])
            steps.append(
                (
                    v,
                    v in dom,
                    max((u for u in dom if u < v), default=0),
                    min((u for u in dom if u > v), default=0),
                )
            )
        self.steps = tuple(steps)
        self.hyphens = p.hyphens
        self.free: Dict[Tuple[int, Tuple[int, ...]], int] = {(0, (0,) * p.l): 1}
        self.hot: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def _run(self, letters: Sequence[int]) -> int:
        """Feed letters in order and return the occurrences they complete."""
        m = self.m
        steps = self.steps
        hyphens = self.hyphens
        free = self.free
        hot = self.hot
        total = 0
        for x in letters:
            new_hot: Dict[Tuple[int, Tuple[int, ...]], int] = {}
            free_add = []
            # j < m in every stored state: a completed match is counted,
            # never stored
            for pool in (free, hot):
                for (j, phi), cnt in pool.items():
                    v, assigned, lo, hi = steps[j]
                    if assigned:
                        if phi[v - 1] != x:
                            continue
                        phi2 = phi
                    else:
                        if lo and phi[lo - 1] >= x:
                            continue
                        if hi and phi[hi - 1] <= x:
                            continue
                        phi2 = phi[: v - 1] + (x,) + phi[v:]
                    j2 = j + 1
                    if j2 == m:
                        total += cnt
                    elif j2 in hyphens:
                        free_add.append(((j2, phi2), cnt))
                    else:
                        key = (j2, phi2)
                        new_hot[key] = new_hot.get(key, 0) + cnt
            for key, cnt in free_add:
                free[key] = free.get(key, 0) + cnt
            hot = new_hot
        self.hot = hot
        return total


class AutomatonTables:
    """The Automaton of each of several patterns compiled, for words over
    the letters 1..cap, into dense tables over one numbering of all their
    states.

    Slot 0 is a zero slot that never holds a count; slots 1.. hold the
    states, ordered by their largest assigned value, so the states whose
    values are all <= v fill the first ``alive[v]`` slots.  A row is a
    vector of counts over the slots, and ``start`` is the row of the empty
    word: 1 at each pattern's empty match.  Feeding the letter x to a row
    r gives the row ``r[keep] + r[src[x - 1]]`` and completes
    ``r @ complete[:, x - 1]`` matches, where

    - ``keep[s]`` is s for a free state and 0 for a hot one;
    - ``src[x - 1, s]`` is the state that x extends to s, or 0 if none
      (a state has at most one: x is the value phi gives the letter
      matched last);
    - ``complete[s, x - 1]`` is 1 when x completes the match of s.

    ``pattern[s]`` (-1 at slot 0) and ``level[s]`` (the j of the state)
    describe each slot.  The states order by (largest assigned value,
    pattern, state), so the tables for a smaller cap' are these tables cut
    to their first ``alive[cap']`` slots and cap' letters, and ``grow``
    extends the tables to more letters without renumbering a slot.

    The tables come from Automaton._run itself, so the rule for which
    letters extend a state is written once.  They are read off the
    automaton of p followed by one more hyphenated letter, whose states of
    length m are the matches of p completed.  Each state extends to at
    most one state per letter and has one source, so feeding x to a pool
    of the states with j letters matched, the i-th holding count i,
    leaves at each state x reaches the number of its source.
    """

    def __init__(self, patterns: Sequence[Pattern], cap: int) -> None:
        self._automata = [Automaton(Pattern(p.letters + (1,), p.hyphens | {p.m}))
                          for p in patterns]
        # per pattern and j, the states with j letters matched
        self._levels = [[list(a.free)] + [[] for _ in range(p.m - 1)]
                        for a, p in zip(self._automata, patterns)]
        self._slot = {(i, levels[0][0]): i + 1 for i, levels in enumerate(self._levels)}
        size = len(patterns) + 1
        self.cap = 0
        self.pattern = np.arange(-1, len(patterns), dtype=np.intp)
        self.level = np.zeros(size, dtype=np.intp)
        self.keep = np.arange(size, dtype=np.intp)  # the empty matches are free
        self.src = np.zeros((0, size), dtype=np.intp)
        self.complete = np.zeros((size, 0), dtype=np.int8)
        self.start = np.ones(size, dtype=np.int64)
        self.start[0] = 0
        self.alive = np.array([size], dtype=np.intp)
        self.grow(cap)

    def grow(self, cap: int) -> None:
        """Extend the tables to the letters 1..cap.  Every new state uses a
        value above the old cap, so it comes from an old state by a new
        letter or from a new state, and takes a slot after the old ones."""
        old = self.cap
        if cap <= old:
            return
        # per new state: (top, pattern, key, free, source (pattern, key), letter)
        found = []
        completed = []  # ((pattern, key), letter)
        for i, auto in enumerate(self._automata):
            levels = self._levels[i]
            known = [len(states) for states in levels]
            m = len(levels)
            for j, states in enumerate(levels):
                for x in range(1, cap + 1):
                    pool = states if x > old else states[known[j]:]
                    auto.free = {key: s for s, key in enumerate(pool)}
                    auto.hot = {}
                    auto._run((x,))
                    # the pool comes first in auto.free, the states x reached after it
                    reached = itertools.islice(auto.free.items(), len(pool), None)
                    for group, free in ((reached, True), (auto.hot.items(), False)):
                        for key, s in group:
                            if key[0] == m:
                                completed.append(((i, pool[s]), x))
                            else:
                                found.append((max(key[1]), i, key, free, (i, pool[s]), x))
                                levels[j + 1].append(key)
        found.sort(key=lambda f: f[:3])
        size = len(self.keep)
        slots = range(size, size + len(found))
        for s, f in zip(slots, found):
            self._slot[f[1], f[2]] = s
        self.pattern = np.append(self.pattern, np.array([f[1] for f in found], dtype=np.intp))
        self.level = np.append(self.level, np.array([f[2][0] for f in found], dtype=np.intp))
        self.keep = np.append(self.keep, np.array(
            [s if f[3] else 0 for s, f in zip(slots, found)], dtype=np.intp))
        self.start = np.append(self.start, np.zeros(len(found), dtype=np.int64))
        src = np.zeros((cap, len(self.keep)), dtype=np.intp)
        src[:old, :size] = self.src
        for s, f in zip(slots, found):
            src[f[5] - 1, s] = self._slot[f[4]]
        complete = np.zeros((len(self.keep), cap), dtype=np.int8)
        complete[:size, :old] = self.complete
        for state, x in completed:
            complete[self._slot[state], x - 1] = 1
        self.src = src
        self.complete = complete
        tops = [f[0] for f in found]
        self.alive = np.append(self.alive, size + np.searchsorted(
            tops, np.arange(old + 1, cap + 1), side="right"))
        self.cap = cap


def count_generalized(p: Pattern, w: Word) -> int:
    """Occurrences of p in w honoring p's hyphen structure."""
    return Automaton(p)._run(w.letters)


def count_classical(p: Pattern, w: Word) -> int:
    """Occurrences of a classical pattern (every gap hyphenated)."""
    if not p.is_classical:
        raise ValueError(f"pattern {p} is not classical; use count_generalized")
    return count_generalized(p, w)


def weighted_count(ps: WeightedPatternSet, w: Word) -> Fraction:
    """Weighted occurrence total over the set."""
    return sum((wt * count_generalized(p, w) for p, wt in ps.entries), Fraction(0))


def occurrence_denominator(m: int, b: int, n: int) -> int:
    """Number of candidate placements: C(n - m + b, b)."""
    return comb(n - m + b, b) if n - m + b >= b else 0


@dataclass(frozen=True)
class CountReport:
    """Exact count, placement denominator, and density d = count / denom."""

    count: Fraction
    denom: int
    density: Fraction
    m: int
    b: int
    n: int


def density(ps: Union[Pattern, WeightedPatternSet], w: Word) -> CountReport:
    """Exact finite packing density of a pattern or weighted set in w."""
    if isinstance(ps, Pattern):
        ps = WeightedPatternSet.single(ps)
    denom = occurrence_denominator(ps.m, ps.b, w.n)
    if denom == 0:
        raise ValueError(f"word shorter than pattern (n={w.n} < m={ps.m}): no placements")
    cnt = weighted_count(ps, w)
    return CountReport(cnt, denom, cnt / denom, ps.m, ps.b, w.n)


def tiebreak_permutation(w: Word) -> Word:
    """Resolve ties to a permutation: the j-th occurrence (left to right) of
    letter i becomes (number of letters <= i) - j + 1.  Equal letters turn
    into descending runs; occurrence counts of classical permutation
    pattern sets never decrease under this map."""
    counts = [0] * (w.k + 1)
    for v in w.letters:
        counts[v] += 1
    cum = [0] * (w.k + 1)
    run = 0
    for i in range(1, w.k + 1):
        run += counts[i]
        cum[i] = run
    seen = [0] * (w.k + 1)
    out = []
    for v in w.letters:
        seen[v] += 1
        out.append(cum[v] - seen[v] + 1)
    return Word(tuple(out), w.n)


#: Entries (value sequences plus table keys) the memos of pattern_table may
#: hold at the start of a call; past it they are emptied, so a long sweep
#: keeps a flat memory footprint.
_TABLE_MEMO_LIMIT = 1 << 14


class _TableLevel:
    """Memo for the subsequences of one length j.

    Each flattened class of length j owns a block of 2**(j-1) consecutive
    ids, one per gap mask h: id start + h stands for the table key
    (class, h) and for the subsequences of the class whose adjacency mask
    is h.  Keys and spreads are built on first use.
    """

    def __init__(self, j: int) -> None:
        self.width = 1 << (j - 1)
        self.block_of: Dict[Tuple[int, ...], int] = {}  # class -> block start
        self.flats: List[Tuple[int, ...]] = []  # block number -> class
        self.keys: List[Optional[Tuple[Tuple[int, ...], int]]] = []
        #: id -> ids of the keys that the subsequences behind it feed
        self.spread: List[Optional[Tuple[int, ...]]] = []

    def block(self, flat: Tuple[int, ...]) -> int:
        start = self.block_of.get(flat)
        if start is None:
            start = self.block_of[flat] = len(self.keys)
            self.flats.append(flat)
            self.keys.extend([None] * self.width)
            self.spread.extend([None] * self.width)
        return start

    def expand(self, cid: int) -> Tuple[int, ...]:
        adj = cid & (self.width - 1)
        start = cid - adj
        flat = self.flats[start // self.width]
        nonadj = (self.width - 1) & ~adj
        # every hyphenation containing the non-adjacent gaps
        ids = []
        sub = adj
        while True:
            i = start + (nonadj | sub)
            if self.keys[i] is None:
                self.keys[i] = (flat, nonadj | sub)
            ids.append(i)
            if sub == 0:
                break
            sub = (sub - 1) & adj
        spread = self.spread[cid] = tuple(ids)
        return spread


class _TableMemo:
    """What pattern_table's finishing pass learns, kept across calls: the
    class block of every value sequence seen, per digit width, and one
    _TableLevel per subsequence length."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.starts: Dict[int, Dict[int, int]] = {}  # digit bits -> sequence -> block
        self.levels: List[_TableLevel] = []  # index j - 1

    def size(self) -> int:
        return sum(map(len, self.starts.values())) + sum(len(lv.keys) for lv in self.levels)

    def level(self, j: int) -> _TableLevel:
        while len(self.levels) < j:
            self.levels.append(_TableLevel(len(self.levels) + 1))
        return self.levels[j - 1]

    def block(self, starts: Dict[int, int], bits: int, seq: int) -> int:
        """Decode a value sequence, then memoise its class block."""
        digit = (1 << bits) - 1
        letters = []
        c = seq
        while c:
            letters.append(c & digit)
            c >>= bits
        letters.reverse()
        start = starts[seq] = self.level(len(letters)).block(flatten(letters))
        return start


_MEMO = _TableMemo()


def pattern_table(w: Word, max_m: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """Occurrence counts of every pattern of length <= max_m in w, over all
    hyphenations, in one scan.

    Keys are (canonical letters, gap mask) where bit g-1 of the mask marks a
    hyphen at gap g.  Only patterns with a positive count appear, and every
    call returns a new dict.

    The scan runs left to right over w and counts subsequences by state:
    their letter values and adjacency mask (bit g-1 set when the letters
    across gap g sit side by side in w).  A state of length j is the
    integer adj * B**j + sum of its letters as base-B digits, B a power of
    two above every letter, so growing a state by a letter is one shift and
    add.  States are pooled by length and by whether they end at the
    previous letter, since only those can grow adjacently; states of length
    max_m leave the scan.  The work is O(n * states).

    The finishing pass maps each state to its class (flattened letters,
    adjacency mask) and sums the counts per class.  Each class then feeds
    every hyphenation that keeps its non-adjacent gaps hyphenated.  The
    class of every value sequence and each class's key ids are memoised
    across calls, built on first use and emptied whenever they hold more
    than _TABLE_MEMO_LIMIT entries at the start of a call.
    """
    letters = w.letters
    if not letters:
        return {}
    top = max(max_m, 1)
    bits = max(letters).bit_length()
    done: Dict[int, int] = {}
    # index j: states of length j that end before the previous letter / at it
    older: List[Dict[int, int]] = [{} for _ in range(top)]
    end_prev: List[Dict[int, int]] = [{} for _ in range(top)]
    adjacent = [1 << ((j - 1) + bits * (j + 1)) for j in range(top)]
    for x in letters:
        new_end: List[Dict[int, int]] = [{} for _ in range(top)]
        first = new_end[1] if top > 1 else done
        first[x] = first.get(x, 0) + 1
        for j in range(1, top):
            grown = new_end[j + 1] if j + 1 < top else done
            grown_get = grown.get
            pool = older[j]
            for s, cnt in pool.items():
                s2 = (s << bits) + x
                grown[s2] = grown_get(s2, 0) + cnt
            pool_get = pool.get
            x_beside = x + adjacent[j]
            for s, cnt in end_prev[j].items():
                s2 = (s << bits) + x_beside
                grown[s2] = grown_get(s2, 0) + cnt
                pool[s] = pool_get(s, 0) + cnt
        end_prev = new_end

    memo = _MEMO
    table: Dict[Tuple[Tuple[int, ...], int], int] = {}
    with memo.lock:
        if memo.size() > _TABLE_MEMO_LIMIT:
            memo.reset()
        starts = memo.starts.setdefault(bits, {})
        starts_get = starts.get
        for j in range(1, top + 1):
            shift = bits * j
            seq_mask = (1 << shift) - 1
            per_class: Dict[int, int] = {}
            per_class_get = per_class.get
            for pool in (done,) if j == top else (older[j], end_prev[j]):
                for s, cnt in pool.items():
                    seq = s & seq_mask
                    start = starts_get(seq)
                    if start is None:
                        start = memo.block(starts, bits, seq)
                    cid = start + (s >> shift)
                    per_class[cid] = per_class_get(cid, 0) + cnt
            if not per_class:
                continue
            level = memo.level(j)
            spread = level.spread
            counts: Dict[int, int] = {}
            counts_get = counts.get
            for cid, cnt in per_class.items():
                for i in spread[cid] or level.expand(cid):
                    counts[i] = counts_get(i, 0) + cnt
            table.update(zip(map(level.keys.__getitem__, counts), counts.values()))
    return table


def table_lookup(
    table: Dict[Tuple[Tuple[int, ...], int], int], p: Pattern
) -> int:
    """Count of p in the word a pattern_table was built from."""
    mask = 0
    for g in p.hyphens:
        mask |= 1 << (g - 1)
    return table.get((p.letters, mask), 0)
