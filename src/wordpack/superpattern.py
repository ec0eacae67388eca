"""Universality checking and shortest-superpattern search.

A word is universal for (l, m) when it classically contains every pattern
of length m on at most l distinct letters.  ``is_universal`` accepts words
on any alphabet, but ``shortest_superpattern`` certifies lengths over
words on [l] only: a word on more values can be shorter (``13541425141``,
on 5 values, is universal for (4, 4) with 11 letters, where words on [4]
need 12).  It finds the least length admitting a universal word on [l] by
iterative deepening: each candidate length is searched exhaustively by a
DFS over words in first-occurrence-canonical form (each new letter value
appears in increasing order), in lexicographic order, so the first witness
found is the lexicographically least such word.  One node meter counts the
whole call: a budget that runs out ends the search at the length it is in.

The first-occurrence restriction is not proven lossless: a relabeling of
values that is not monotone changes which patterns a word contains.  What
is known: enumerating every word on [l] without the restriction gives the
same shortest lengths and least witnesses for (2,2), (2,3), (3,3), (2,4),
(2,5) and (3,4), although 35 of the 42 universal words of length 7 for
(3,3) are not first-occurrence-canonical.  Larger lengths, (4,4) among
them, are certified under the restriction.

The universe is the canonical words of length m on at most min(l, m)
letters.  A check reads it as class indices, from the rows of
``search._canonical_array``, and builds ``Pattern`` objects only for a
missing list; a search reads only the universe's size and the indices.

Containment is tracked as bitsets.  Over the letters 1..b, level j of a
word is one int whose bit (a_1 - 1) + (a_2 - 1)*b + ... + (a_j - 1)*b^(j-1)
is set when (a_1, ..., a_j) is the values of a length-j subsequence.
Appending x ORs each level j - 1, shifted left by (x - 1)*b^(j-1), into
level j.  One table per (b, j) holds each tuple's flattened class.

Pruning is admissible on two counts: a missing pattern whose longest
contained prefix leaves more letters to place than remain kills the
branch, and so does having more missing patterns than the number of
position subsets that touch the unwritten suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, count
from math import comb
from typing import List, Optional, Tuple, Union

import numpy as np

from .core import Pattern, Word, flatten
from .construct import superpattern_word
from .search import (
    SearchBudget,
    _BudgetExceeded,
    _Meter,
    _canonical_rows,
    canonical_count,
    enumerate_canonical,
)

__all__ = [
    "SuperResult",
    "LengthVerdict",
    "pattern_universe",
    "is_universal",
    "shortest_superpattern",
]


#: the largest universe the CLI's super and super-word builder take:
#: (7, 7) has 47,293 patterns and (8, 8) 545,835.  Every (l, m) within it
#: also keeps min(l, m)^m within MAX_LEVEL_BITS.
MAX_UNIVERSE = 1 << 17
#: the most bits of a level m, and entries of its class table, a check takes
MAX_LEVEL_BITS = 1 << 22


@dataclass(frozen=True)
class LengthVerdict:
    """Outcome of the exhaustive search at one candidate length."""

    length: int
    verdict: str  # "exhausted" | "witness" | "inconclusive"
    nodes: int


@dataclass(frozen=True)
class SuperResult:
    """Shortest universal word, or best-known bounds under a budget.

    ``length`` is exact when ``lower_bound_certified``; otherwise it is the
    best upper bound and ``lower_bound`` the best certified lower bound.
    """

    l: int
    m: int
    length: int
    witness: Word
    lower_bound: int
    lower_bound_certified: bool
    nodes: int
    log: Tuple[LengthVerdict, ...]


@lru_cache(maxsize=8)  # read only for missing lists, and a universe can hold millions
def _universe_cached(l: int, m: int) -> Tuple[Pattern, ...]:
    return tuple(Pattern.classical(w.letters) for w in enumerate_canonical(m, l))


def _checked(l: int, m: int, base: int = 1) -> int:
    """min(l, m), after refusing base^m > MAX_LEVEL_BITS (an m past 22 over
    base > 1 without computing base^m), then l < 1 or m < 1.  A length-m
    pattern uses at most m letters, so wider alphabets add nothing."""
    if base ** min(m, MAX_LEVEL_BITS.bit_length()) > MAX_LEVEL_BITS:
        raise ValueError(f"level {m} over {base} values has {base}^{m} bits, past 2^22")
    if l < 1 or m < 1:
        raise ValueError(f"need l, m >= 1, got l={l}, m={m}")
    return min(l, m)


def pattern_universe(l: int, m: int) -> Tuple[Pattern, ...]:
    """All patterns of length m on at most l distinct letters, in lex order:
    the (min(l, m), m) universe.  is_universal builds it only for a missing
    list; the last eight built stay cached."""
    return _universe_cached(_checked(l, m), m)


#: the set bits of each byte value
_BYTE_BITS = [tuple(k for k in range(8) if b >> k & 1) for b in range(256)]


@lru_cache(maxsize=24)  # a search reads m + 1 tables, and m <= 22 under MAX_LEVEL_BITS
def _class_table(base: int, j: int) -> List[int]:
    """Class of every length-j tuple over 1..base, by tuple index.  Built in
    j blocks of rows, each block's arrays about as large as the table."""
    size, powers, table = base**j, base ** np.arange(j, dtype=np.int64), []
    step = -(-size // max(j, 1))
    for lo in range(0, size, step):
        digits = np.arange(lo, min(lo + step, size))[:, None] // powers % base
        order = digits.argsort(axis=1)
        # a digit's rank is the number of distinct values below it
        first = np.diff(np.take_along_axis(digits, order, axis=1), axis=1, prepend=-1) != 0
        np.put_along_axis(digits, order, first.cumsum(axis=1) - 1, axis=1)
        table += (digits @ powers).tolist()
    return table


def _classes(level: int, table: List[int]) -> List[int]:
    """Class indices of the value tuples whose bits are set in level, read
    from its table.  One pass over level's bytes, which skips the zero ones
    in C, lists the set bits in time linear in the int's size."""
    data = level.to_bytes((level.bit_length() + 7) // 8, "little")
    return [table[8 * i + k] for i in compress(count(), data) for k in _BYTE_BITS[data[i]]]


def _levels(letters: Tuple[int, ...], base: int, m: int) -> List[int]:
    """Levels 0..m of a word on 1..base (see the module docstring)."""
    steps = [base**j for j in range(m)]
    levels = [1] + [0] * m
    for x in letters:
        for j in range(m, 0, -1):  # downwards, so that each letter is used once
            levels[j] |= levels[j - 1] << (x - 1) * steps[j - 1]
    return levels


@lru_cache(maxsize=64)
def _universe_indices(l: int, m: int, base: int) -> Tuple[int, ...]:
    """Class index in base ``base`` of each (l, m) pattern, l <= m, in
    universe order; -1 if it has more letters.  A universe of more than
    EXHAUSTIVE_WORD_LIMIT patterns raises ValueError before it is read."""
    words, dcnt = _canonical_rows(m, l)
    index = (words - 1).astype(np.int64) @ base ** np.arange(m, dtype=np.int64)
    return tuple(np.where(dcnt <= base, index, -1).tolist())


def is_universal(w: Word, l: int, m: int) -> Tuple[bool, Tuple[Pattern, ...]]:
    """Whether w classically contains every (l, m) pattern; missing list exact,
    in universe order.  The levels of flatten(w) are built in base d, its
    number of distinct values, so words on more than l values work too; but
    level m then holds d^m bits, and time and memory grow with d^m.  A word
    with d^m > MAX_LEVEL_BITS raises ValueError before anything is built.  A
    universal word is answered from class indices; only a missing list
    builds the universe's ``Pattern`` objects (pattern_universe)."""
    letters = flatten(w.letters)
    base = max(letters, default=1)
    l = _checked(l, m, base)
    found = set(_classes(_levels(letters, base, m)[m], _class_table(base, m)))
    indices = _universe_indices(l, m, base)
    if found.issuperset(indices):
        return True, ()
    return False, tuple(p for p, c in zip(_universe_cached(l, m), indices) if c not in found)


def _search_length(
    l: int, m: int, length: int, meter: _Meter, reverse: bool
) -> Optional[Tuple[int, ...]]:
    """Exhaustive DFS for a universal word of one length, ticking meter once
    per node (it raises _BudgetExceeded when the budget runs out).  The roots
    (1, 1) and (1, 2) cover the first-occurrence-canonical space and run in
    lexicographic order (reversed only for independent re-verification), so
    the witness, if any, is the lexicographically least word of the length:
    the DFS is lex-ordered and the prunes are admissible.

    A node's state is its prefix's levels in base l and, per level j, the
    bitmask of the classes present; its popcount is how many there are.
    A push returns the child's state, looking up the fresh bits only.
    """
    comb_row = [comb(t, m) for t in range(length + 1)]
    total_sets = comb(length, m)
    # canonical words of each length j on at most l letters: every one
    # is the flattening of some length-j subsequence of a universal word
    full = [canonical_count(j, l) for j in range(m + 1)]
    tables = [_class_table(l, j) for j in range(m + 1)]
    shifts = [[(x - 1) * l**j for j in range(m)] for x in range(l + 1)]

    def push(levels: List[int], masks: List[int], x: int) -> Tuple[List[int], List[int]]:
        meter.tick()
        levels, masks, shift = levels[:], masks[:], shifts[x]
        for j in range(m, 0, -1):  # downwards, so that each letter is used once
            fresh = levels[j - 1] << shift[j - 1] & ~levels[j]
            if fresh:
                levels[j] |= fresh
                if masks[j].bit_count() < full[j]:  # a full level gains no class
                    mask = masks[j]
                    for c in _classes(fresh, tables[j]):
                        mask |= 1 << c
                    masks[j] = mask
        return levels, masks

    def dfs(prefix: Tuple[int, ...], maxval: int, levels: List[int], masks: List[int]):
        t = len(prefix)
        missing = full[m] - masks[m].bit_count()
        if missing == 0:
            return prefix + (1,) * (length - t)
        rem = length - t
        if rem == 0:
            return None
        if missing > total_sets - comb_row[t]:
            return None
        # An occurrence keeps at least m - rem letters in the prefix, so
        # a missing pattern whose first m - rem letters the prefix lacks
        # cannot appear.  Every canonical word of that length starts
        # some pattern (pad it with 1s), so the branch dies as soon as
        # one of them is absent.
        if rem < m and masks[m - rem].bit_count() < full[m - rem]:
            return None
        for x in range(1, min(maxval + 1, l) + 1):
            found = dfs(prefix + (x,), max(maxval, x), *push(levels, masks, x))
            if found is not None:
                return found
        return None

    roots = [()] if length < 2 or l == 1 else [(1, 1), (1, 2)]
    for root in roots[::-1] if reverse else roots:
        levels, masks = [1] + [0] * m, [0] * (m + 1)
        for x in root:
            levels, masks = push(levels, masks, x)
        found = dfs(root, max(root, default=0), levels, masks)
        if found is not None:
            return found
    return None


def shortest_superpattern(
    l: int,
    m: int,
    budget: Optional[Union[SearchBudget, int]] = None,
    reverse_shards: bool = False,
    threads: int = 1,
) -> SuperResult:
    """Least length of a universal word for (l, m) on the letters [l], by
    iterative deepening over first-occurrence-canonical words (see the
    module docstring for what that restriction is known to keep).

    Starts from the counting lower bound (C(L, m) must reach the universe
    size) and searches each length exhaustively until a witness appears;
    the witness is then lexicographically least and the length exact.  If
    the budget runs out first, the result carries the constructive upper
    bound l(m-1)+1, the largest certified lower bound, and
    ``lower_bound_certified`` False, even when the two bounds meet: with
    2336 nodes, (3, 4) exhausts lengths 8 and 9 and reports length 10 and
    lower bound 10 uncertified, as 1231231231 is not known to be the
    lex-least witness.  ``reverse_shards`` runs each length's two root
    prefixes in reverse, for independent re-verification of exhausted
    lengths.

    One node meter counts every node of the call; each length's log entry
    is the change in its count across that length, and a budget that runs
    out ends the search at the length it is in.  Node budgets therefore
    make every result field, per-length node counts included,
    reproducible; wall-clock budgets make results run-dependent.
    ``threads`` is accepted for compatibility and has no effect.  As in
    is_universal, min(l, m)^m > MAX_LEVEL_BITS raises ValueError at once.
    """
    l = _checked(l, m, min(l, m))
    upper = superpattern_word(l, m)
    assert is_universal(upper.word, l, m)[0], "constructive word must be universal"
    if isinstance(budget, int):
        budget = SearchBudget(max_nodes=budget)
    meter = _Meter(budget)

    lower, size = m, canonical_count(m, l)
    while comb(lower, m) < size:
        lower += 1

    log: List[LengthVerdict] = []
    found: Optional[Tuple[int, ...]] = None
    for length in range(lower, upper.word.n + 1):
        before = meter.nodes
        try:
            found = _search_length(l, m, length, meter, reverse_shards)
            verdict = "exhausted" if found is None else "witness"
        except _BudgetExceeded:
            verdict = "inconclusive"
        log.append(LengthVerdict(length, verdict, meter.nodes - before))
        if verdict != "exhausted":
            break
        lower = length + 1

    witness = upper.word if found is None else Word(found)  # upper is verified above
    assert found is None or is_universal(witness, l, m)[0], "witness failed re-verification"
    return SuperResult(
        l=l,
        m=m,
        length=witness.n,
        witness=witness,
        lower_bound=min(lower, witness.n),
        lower_bound_certified=found is not None,
        nodes=meter.nodes,
        log=tuple(log),
    )
