"""Exact occurrence counting.

An occurrence of a pattern p in a word w is a subsequence of w that is
order-isomorphic to p's letters (equalities must match equalities) and whose
letters are consecutive in w across every non-hyphenated gap.  Counts are
exact integers; densities are exact rationals with denominator
C(n - m + b, b), which reduces to C(n, m) for classical patterns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .core import Pattern, WeightedPatternSet, Word, flatten, is_canonical


class Automaton:
    """Occurrence counter of one pattern over a word fed letter by letter.

    A state (j, kept) means the first j pattern letters are matched by a
    monotone map phi from pattern values to word values, of which it keeps
    only what step j or a later one reads: an assigned value is read by
    the steps that match it again, and a new value's step reads the
    nearest assigned values below and above it (phi is monotone, so those
    two decide where the letter falls).  ``kept`` lists phi of those
    pattern values in increasing order.  Matches that differ only in
    values no later step reads share a state, and their counts add.  Free
    states may extend at any later letter; hot states await an
    unhyphenated gap and must extend at the very next letter or die.
    ``free`` and ``hot`` map the states to their counts, and ``_run`` feeds
    letters and returns the occurrences they complete.  AutomatonTables
    compiles the same rule into dense tables.
    """

    __slots__ = ("m", "steps", "hyphens", "free", "hot")

    def __init__(self, p: Pattern) -> None:
        self.m = p.m
        self.steps = _automaton_steps(p.letters)
        self.hyphens = p.hyphens
        self.free: Dict[Tuple[int, Tuple[int, ...]], int] = {(0, ()): 1}
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
                for (j, kept), cnt in pool.items():
                    assigned, a, b, make = steps[j]
                    if assigned:
                        if kept[a] != x:
                            continue
                    elif (a is not None and kept[a] >= x) or (b is not None and kept[b] <= x):
                        continue
                    j2 = j + 1
                    if j2 == m:
                        total += cnt
                        continue
                    key = (j2, kept if make is None else make(kept + (x,)))
                    if j2 in hyphens:
                        free_add.append((key, cnt))
                    else:
                        new_hot[key] = new_hot.get(key, 0) + cnt
            for key, cnt in free_add:
                free[key] = free.get(key, 0) + cnt
            hot = new_hot
        self.hot = hot
        return total


@lru_cache(maxsize=1 << 10)
def _automaton_steps(letters: Tuple[int, ...]) -> Tuple[tuple, ...]:
    """Per matched-prefix length j of a pattern: (assigned, a, b, make).

    Step j matches the letter x when kept[a] == x for a value already
    assigned, else when kept[a] < x < kept[b], a and b being the positions
    of the nearest assigned values below and above (None: no such value).
    ``make`` picks the kept values of level j + 1 out of kept + (x,); None
    keeps kept as it is."""
    reads = []  # per step, the pattern values it compares the letter with
    for j, v in enumerate(letters):
        dom = letters[:j]
        if v in dom:
            reads.append((v,))
        else:
            reads.append((max((u for u in dom if u < v), default=None),
                          min((u for u in dom if u > v), default=None)))
    kept = [sorted(set(letters[:j]).intersection(itertools.chain(*reads[j:])))
            for j in range(len(letters))] + [[]]
    steps = []
    for j, v in enumerate(letters):
        pick = [(kept[j] + [v]).index(u) for u in kept[j + 1]]
        if pick == list(range(len(kept[j]))):
            make = None
        elif len(pick) < 2:  # a slice, as itemgetter of one index gives no tuple
            make = itemgetter(slice(pick[0], pick[0] + 1) if pick else slice(0))
        else:
            make = itemgetter(*pick)
        at = [None if u is None else kept[j].index(u) for u in reads[j]] + [None]
        steps.append((len(reads[j]) == 1, at[0], at[1], make))
    return tuple(steps)


class AutomatonTables:
    """The Automaton of each of several patterns compiled, for words over
    the letters 1..cap, into dense tables over one numbering of all their
    states.

    Slot 0 is a zero slot that never holds a count; slots 1.. hold the
    states.  A row is a vector of counts over the slots, and ``start`` is
    the row of the empty word: 1 at each pattern's empty match.  Feeding
    the letter x to a row r gives the row ``r[keep] + r[src[x - 1]].sum(-1)``
    and completes ``r @ complete[:, x - 1]`` matches, where

    - ``keep[s]`` is s for a free state and 0 for a hot one;
    - ``src[x - 1, s]`` lists the states that x extends to s, in
      increasing order and padded with the zero slot.  A state may have
      several: states that differ only in a value x's step reads for the
      last time, such as the 1 of ``123`` when x matches its 2;
    - ``complete[s, x - 1]`` is 1 when x completes the match of s.

    ``pattern[s]`` (-1 at slot 0) and ``level[s]`` (the j of the state)
    describe each slot.  ``grow`` extends the tables to more letters and
    renumbers no slot, so a row made before growth, padded with zeros to
    the new slot count, is the row the grown tables give the same word.

    The tables come from Automaton._run itself, so the rule for which
    letters extend a state is written once: each state is fed each letter
    alone, with count 1, and reaches at most one state or completes.
    """

    def __init__(self, patterns: Sequence[Pattern], cap: int) -> None:
        self._automata = [Automaton(p) for p in patterns]
        # per pattern and j, the states with j letters matched
        self._levels = [[list(a.free)] + [[] for _ in range(p.m - 1)]
                        for a, p in zip(self._automata, patterns)]
        self._slot = {(i, levels[0][0]): i + 1 for i, levels in enumerate(self._levels)}
        self._sources: Dict[Tuple[int, int], List[int]] = {}  # (x - 1, slot) -> src list
        size = len(patterns) + 1
        self.cap = 0
        self.pattern = np.arange(-1, len(patterns), dtype=np.intp)
        self.level = np.zeros(size, dtype=np.intp)
        self.keep = np.arange(size, dtype=np.intp)  # the empty matches are free
        self.src = np.zeros((0, size, 1), dtype=np.intp)
        self.complete = np.zeros((size, 0), dtype=np.int8)
        self.start = np.ones(size, dtype=np.int64)
        self.start[0] = 0
        self.grow(cap)

    def grow(self, cap: int) -> None:
        """Extend the tables to the letters 1..cap.  A word over 1..cap that
        reaches a new state holds a letter above the old cap, so a new
        state comes from an old state by a new letter or from a new state,
        and takes a slot after the old ones."""
        old = self.cap
        if cap <= old:
            return
        new = set()  # the new states, (pattern, key)
        edges = []  # (letter, state, source state)
        completed = []  # (state, letter)
        for i, auto in enumerate(self._automata):
            levels = self._levels[i]
            for j, states in enumerate(levels):
                for key in states:
                    # an old state is fed the new letters only
                    for x in range(1 if (i, key) in new else old + 1, cap + 1):
                        auto.free, auto.hot = {key: 1}, {}
                        if auto._run((x,)):
                            completed.append(((i, key), x))
                        for reached in (*itertools.islice(auto.free, 1, None), *auto.hot):
                            state = (i, reached)
                            if state not in self._slot and state not in new:
                                new.add(state)
                                levels[j + 1].append(reached)
                            edges.append((x, state, (i, key)))
        found = sorted(new)
        size = len(self.keep)
        slots = range(size, size + len(found))
        self._slot.update(zip(found, slots))
        self.pattern = np.append(self.pattern, np.array([i for i, _ in found], dtype=np.intp))
        self.level = np.append(self.level, np.array([k[0] for _, k in found], dtype=np.intp))
        self.keep = np.append(self.keep, np.array(
            [s if k[0] in self._automata[i].hyphens else 0 for s, (i, k) in zip(slots, found)],
            dtype=np.intp))
        self.start = np.append(self.start, np.zeros(len(found), dtype=np.int64))
        for x, state, source in edges:
            self._sources.setdefault((x - 1, self._slot[state]), []).append(self._slot[source])
        width = max(map(len, self._sources.values()), default=1)
        self.src = np.zeros((cap, len(self.keep), width), dtype=np.intp)
        for (x, s), sources in self._sources.items():
            self.src[x, s, :len(sources)] = sorted(sources)
        complete = np.zeros((len(self.keep), cap), dtype=np.int8)
        complete[:size, :old] = self.complete
        for state, x in completed:
            complete[self._slot[state], x - 1] = 1
        self.complete = complete
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


#: The plan serves tables of patterns up to this length ...
_PLAN_MAX_M = 5
#: ... in words with at most this many position sets of sizes 1..max_m.
_PLAN_ROW_LIMIT = 1 << 13


def pattern_table(w: Word, max_m: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """Occurrence counts of every pattern of length <= max_m in w, over all
    hyphenations.

    Keys are (canonical letters, gap mask) where bit g-1 of the mask marks a
    hyphen at gap g.  Only patterns with a positive count appear, and every
    call returns a new dict; max_m < 1 gives an empty one.  Every
    subsequence of w has a class: its flattened letters and its adjacency
    mask (bit g-1 set when the letters across gap g sit side by side in w).
    A class feeds every hyphenation that keeps its non-adjacent gaps
    hyphenated.

    Two engines count the classes and give the same table.  Which one runs
    depends on n and m = min(max_m, n) alone:

    - the plan (_plan_table) takes the word when m <= _PLAN_MAX_M and the
      word has at most _PLAN_ROW_LIMIT position sets of sizes 1..m, that
      is n <= 21 at m = 4 and n <= 16 at m = 5.  It codes the order type
      of every position set in a dozen numpy calls over a plan cached per
      (n, m), so its work is O(C(n, <= m)) whatever the letters.
    - the scan (_scan_table) takes every other word.  Its work is
      O(n * states), the states being the distinct letter sequences and
      adjacency masks of the subsequences: it grows with the alphabet,
      but not as C(n, m).

    The limit comes from timing both engines on random words (Xeon, 2
    CPUs, numpy 2.4).  Below it, for n >= 6 and m >= 2, the plan takes
    0.05-0.8x the scan's time: least on wide alphabets, most on
    two-letter words near the limit.  On two-letter words the engines
    break even near 13,000 rows at m = 4 and 30,000 at m = 5; on
    ten-letter words the plan still wins at 40,000.  Words with n < 6
    take 10-20 us either way.  A plan within the limit holds under about
    1 MB, and the 16 most recent are kept.
    """
    letters = w.letters
    if not letters or max_m < 1:
        return {}
    n = len(letters)
    m = min(max_m, n)
    if m <= _PLAN_MAX_M and sum(comb(n, j) for j in range(1, m + 1)) <= _PLAN_ROW_LIMIT:
        return _plan_table(letters, m)
    return _scan_table(letters, m)


def _hyphenations(nonadj: int, adj: int) -> Iterator[int]:
    """The hyphen masks a subsequence feeds: every mask that holds its
    non-adjacent gaps ``nonadj`` and any of its adjacent gaps ``adj``."""
    sub = adj
    while True:
        yield nonadj | sub
        if sub == 0:
            return
        sub = (sub - 1) & adj


@lru_cache(maxsize=_PLAN_MAX_M)
def _plan_classes(
    m: int,
) -> Tuple[np.ndarray, Tuple[Tuple[Tuple[int, ...], int], ...], np.ndarray]:
    """The lookups shared by the plans for patterns up to length m.

    A position set of size j fills m slots, padded with the letter 0, and
    its code is (j - 1) * 3**P plus sum over t of (s_t + 1) * 3**t, where
    s_t is the sign of the comparison of the letters in the t-th of the
    P = C(m, 2) slot pairs (a, b), a < b, taken in itertools.combinations
    order; ``weights`` holds the 3**t.  Each class of length j owns
    2**(j-1) consecutive ``keys``, one per hyphen mask, and ``first`` maps
    a code to the index of its class's first key.
    """
    slots = list(itertools.combinations(range(m), 2))
    size = 3 ** len(slots)
    first = np.zeros(m * size, dtype=np.intp)
    keys: List[Tuple[Tuple[int, ...], int]] = []
    for j in range(1, m + 1):
        for flat in itertools.product(range(1, j + 1), repeat=j):
            if not is_canonical(flat):
                continue
            x = flat + (0,) * (m - j)
            code = (j - 1) * size + sum(
                ((x[a] > x[b]) - (x[a] < x[b]) + 1) * 3 ** t for t, (a, b) in enumerate(slots)
            )
            first[code] = len(keys)
            keys.extend((flat, h) for h in range(1 << (j - 1)))
    weights = 3.0 ** np.arange(len(slots), dtype=np.float32)
    first.flags.writeable = weights.flags.writeable = False
    return first, tuple(keys), weights


@lru_cache(maxsize=16)
def _plan(n: int, m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every position set of sizes 1..m in a word of length n, one row each,
    a set of size j padded to m slots with the sentinel position n:

    - ``pairs[r, t]`` is a * (n + 1) + b for the positions a and b in the
      t-th slot pair of row r (see _plan_classes): the index of the sign
      of w[a] - w[b] in the word's (n + 1) x (n + 1) sign matrix, w[n]
      being the padding letter 0;
    - ``base[r]`` is (j - 1) * 3**P + (3**P - 1) / 2, which turns the sum
      of s_t * 3**t over the pairs into the row's code;
    - ``src`` and ``hyph`` hold one entry per row and hyphen mask it
      feeds: every mask of its j - 1 gaps that holds its non-adjacent gaps.
    """
    slots = list(itertools.combinations(range(m), 2))
    size = 3 ** len(slots)
    pairs: List[List[int]] = []
    base: List[int] = []
    src: List[int] = []
    hyph: List[int] = []
    for j in range(1, m + 1):
        gaps = (1 << (j - 1)) - 1
        for pos in itertools.combinations(range(n), j):
            x = pos + (n,) * (m - j)
            pairs.append([x[a] * (n + 1) + x[b] for a, b in slots])
            row = len(base)
            base.append((j - 1) * size + size // 2)
            nonadj = sum(1 << (g - 1) for g in range(1, j) if pos[g] > pos[g - 1] + 1)
            for h in _hyphenations(nonadj, gaps & ~nonadj):
                src.append(row)
                hyph.append(h)
    arrays = (
        np.array(pairs, dtype=np.intp).reshape(len(base), len(slots)),
        np.array(base, dtype=np.intp),
        np.array(src, dtype=np.intp),
        np.array(hyph, dtype=np.intp),
    )
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _plan_table(letters: Tuple[int, ...], m: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """pattern_table(Word(letters), m) from the plan for (len(letters), m)."""
    n = len(letters)
    pairs, base, src, hyph = _plan(n, m)
    first, keys, weights = _plan_classes(m)
    if max(letters) >= 1 << 24:  # float32 holds smaller letters exactly
        letters = flatten(letters)
    x = np.zeros(n + 1, dtype=np.float32)
    x[:n] = letters
    signs = np.sign(x[:, None] - x).ravel()
    code = (signs[pairs] @ weights).astype(np.intp) + base
    counts = np.bincount(first[code][src] + hyph, minlength=len(keys))
    found = np.flatnonzero(counts)
    return dict(zip(map(keys.__getitem__, found.tolist()), counts[found].tolist()))


def _scan_table(letters: Tuple[int, ...], max_m: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """pattern_table(Word(letters), max_m) in one scan.

    The scan runs left to right over the letters and counts subsequences
    by state: their letter values and adjacency mask.  A state of length j
    is the integer adj * B**j + sum of its letters as base-B digits, B a
    power of two above every letter, so growing a state by a letter is one
    shift and add.  States are pooled by length and by whether they end at
    the previous letter, since only those can grow adjacently; states of
    length max_m leave the scan.  The work is O(n * states).

    The finishing pass flattens each distinct value sequence once, sums
    the counts per class (flattened letters, adjacency mask), then feeds
    each class's hyphenations into the table.  It keeps nothing between
    calls.
    """
    bits = max(letters).bit_length()
    digit = (1 << bits) - 1
    done: Dict[int, int] = {}
    # index j: states of length j that end before the previous letter / at it
    older: List[Dict[int, int]] = [{} for _ in range(max_m)]
    end_prev: List[Dict[int, int]] = [{} for _ in range(max_m)]
    adjacent = [1 << ((j - 1) + bits * (j + 1)) for j in range(max_m)]
    for x in letters:
        new_end: List[Dict[int, int]] = [{} for _ in range(max_m)]
        first = new_end[1] if max_m > 1 else done
        first[x] = first.get(x, 0) + 1
        for j in range(1, max_m):
            grown = new_end[j + 1] if j + 1 < max_m else done
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

    table: Dict[Tuple[Tuple[int, ...], int], int] = {}
    table_get = table.get
    for j in range(1, max_m + 1):
        shift = bits * j
        seq_mask = (1 << shift) - 1
        gaps = (1 << (j - 1)) - 1
        places = range(shift - bits, -1, -bits)
        flats: Dict[int, Tuple[int, ...]] = {}  # value sequence -> class letters
        per_class: Dict[Tuple[Tuple[int, ...], int], int] = {}
        per_class_get = per_class.get
        for pool in (done,) if j == max_m else (older[j], end_prev[j]):
            for s, cnt in pool.items():
                seq = s & seq_mask
                flat = flats.get(seq)
                if flat is None:
                    flat = flats[seq] = flatten([(seq >> t) & digit for t in places])
                key = (flat, s >> shift)
                per_class[key] = per_class_get(key, 0) + cnt
        for (flat, adj), cnt in per_class.items():
            for h in _hyphenations(gaps & ~adj, adj):
                key = (flat, h)
                table[key] = table_get(key, 0) + cnt
    return table


def table_lookup(
    table: Dict[Tuple[Tuple[int, ...], int], int], p: Pattern
) -> int:
    """Count of p in the word a pattern_table was built from."""
    mask = 0
    for g in p.hyphens:
        mask |= 1 << (g - 1)
    return table.get((p.letters, mask), 0)
