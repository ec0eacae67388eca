"""The four benchmark workloads, their seeded inputs and their checks.

Each workload is a function ``(rng, tracer) -> list of Job``.  Its body is
set-up: it generates every input from ``rng`` and parses the patterns.  The
returned jobs are then run in order by one caller.  Every check compares a
job's output with a reference that does not come from the code path under
test: a hand-written constant (from the acceptance suite, the README, or a
one-off exhaustive sweep confirmed by unbudgeted branch and bound), a
closed form, an invariant, or a small recount written here.

``worker.py`` ends every workload with the same small floor of calls
(``layer_floor``), one or a few into each layer, so that every per-layer
figure is measured on every workload rather than reading 0 where a
workload bypasses a layer.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from wordpack import cli
from wordpack.construct import (
    balanced_monotone_word,
    layered_word,
    nested_word,
    pqr_word,
    sqrt_layer_perm,
    superpattern_word,
    twelve_one_word,
)
from wordpack.core import Pattern, Word, parse_pattern, parse_word, symmetry_class
from wordpack.count import count_generalized, pattern_table, table_lookup
from wordpack.count import density as exact_density
from wordpack.density import (
    DensityRouteError,
    asymptotic_density,
    layered_density_cap,
    three_letter_table,
)
from wordpack.core import LayeredShape
from wordpack.search import (
    SearchBudget,
    delta_series,
    enumerate_canonical,
    max_count,
    max_count_by_alphabet,
)
from wordpack.superpattern import is_universal, shortest_superpattern

from harness import Job, Tracer

ROOT3 = math.sqrt(3.0)
LIMIT_121 = ROOT3 - 1.5  # packing density of 121
LIMIT_112 = 2.0 * ROOT3 - 3.0  # packing density of 112 and of 132
UNBOUNDED = SearchBudget(max_nodes=10**7)  # forces branch and bound, never hit


# -- references written here, independent of wordpack ------------------------


def own_flatten(letters: Sequence[int]) -> Tuple[int, ...]:
    rank = {v: i + 1 for i, v in enumerate(sorted(set(letters)))}
    return tuple(rank[v] for v in letters)


def canonical_words(m: int, l: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Canonical words of length m on at most l letters, in lex order."""
    top = m if l is None else min(l, m)
    return [
        w
        for w in itertools.product(range(1, top + 1), repeat=m)
        if set(w) == set(range(1, max(w) + 1))
    ]


def missing_patterns(letters: Sequence[int], l: int, m: int) -> List[Tuple[int, ...]]:
    """(l, m) patterns not contained classically in the word, lex order."""
    found = {own_flatten(c) for c in itertools.combinations(letters, m)}
    return [p for p in canonical_words(m, l) if p not in found]


def reference_count(letters: Sequence[int], hyphens: frozenset, word: Sequence[int]) -> int:
    """Occurrences of a pattern in a word: for every order-preserving
    assignment of pattern values to word values, count the matching
    subsequences by a left-to-right dynamic program that honours the
    unhyphenated gaps."""
    m, l = len(letters), max(letters)
    total = 0
    for values in itertools.combinations(sorted(set(word)), l):
        target = [values[v - 1] for v in letters]
        ways = [1] + [0] * m  # matches of each prefix length so far
        prev_end = [0] * (m + 1)  # those ending at the previous position
        for x in word:
            end = [0] * (m + 1)
            for j in range(1, m + 1):
                if x == target[j - 1]:
                    if j == 1:
                        end[j] = 1
                    elif (j - 1) in hyphens:
                        end[j] = ways[j - 1]
                    else:
                        end[j] = prev_end[j - 1]
            for j in range(1, m + 1):
                ways[j] += end[j]
            prev_end = end
        total += ways[m]
    return total


def surjections(n: int, d: int) -> int:
    """Words of length n using every letter of {1..d}."""
    return sum((-1) ** i * comb(d, i) * (d - i) ** n for i in range(d + 1))


def twelve_one_best(n: int) -> Tuple[int, int]:
    """Closed form for mu(12-1, 2, n) and the least maximizing number of
    rises d (the word (12)^d 1^(n-2d))."""
    values = [d * (d - 1) // 2 + d * (n - 2 * d) for d in range(n // 2 + 1)]
    best = max(values)
    return best, values.index(best)


# -- hand-written constants --------------------------------------------------

#: max count over canonical n-letter words with exactly d letters, by d,
#: from acceptance 05's per-alphabet sweeps.
GRID: Dict[Tuple[str, int], Dict[int, int]] = {
    ("112", 3): {1: 0, 2: 1, 3: 0},
    ("112", 4): {1: 0, 2: 3, 3: 2, 4: 0},
    ("112", 5): {1: 0, 2: 6, 3: 6, 4: 3, 5: 0},
    ("112", 6): {1: 0, 2: 12, 3: 12, 4: 9, 5: 4, 6: 0},
    ("112", 7): {1: 0, 2: 20, 3: 20, 4: 18, 5: 12, 6: 5, 7: 0},
    ("121", 3): {1: 0, 2: 1, 3: 0},
    ("121", 4): {1: 0, 2: 2, 3: 2, 4: 0},
    ("121", 5): {1: 0, 2: 4, 3: 4, 4: 3, 5: 0},
    ("121", 6): {1: 0, 2: 8, 3: 8, 4: 6, 5: 4, 6: 0},
    ("121", 7): {1: 0, 2: 12, 3: 13, 4: 12, 5: 8, 6: 5, 7: 0},
    ("121", 8): {1: 0, 2: 18, 3: 19, 4: 18, 5: 16, 6: 10, 7: 6, 8: 0},
    ("1122", 4): {1: 0, 2: 1, 3: 0, 4: 0},
    ("1122", 5): {1: 0, 2: 3, 3: 1, 4: 0, 5: 0},
    ("1122", 6): {1: 0, 2: 9, 3: 3, 4: 1, 5: 0, 6: 0},
    ("1122", 7): {1: 0, 2: 18, 3: 9, 4: 3, 5: 1, 6: 0, 7: 0},
    ("12-1", 3): {1: 0, 2: 1, 3: 0},
    ("12-1", 4): {1: 0, 2: 2, 3: 1, 4: 0},
    ("12-1", 5): {1: 0, 2: 3, 3: 3, 4: 1, 5: 0},
    ("12-1", 6): {1: 0, 2: 5, 3: 5, 4: 3, 5: 1, 6: 0},
    ("12-1", 7): {1: 0, 2: 7, 3: 7, 4: 6, 5: 3, 6: 1, 7: 0},
}

#: mu(p, k, n), keyed (p, k, n); equal for every reverse/complement image.
MU: Dict[Tuple[str, int, int], int] = {
    ("112", 4, 4): 3, ("112", 5, 5): 6, ("112", 6, 6): 12, ("112", 7, 7): 20,
    ("1122", 2, 4): 1, ("1122", 2, 5): 3, ("1122", 2, 6): 9, ("1122", 2, 7): 18,
    ("1122", 3, 4): 1, ("1122", 3, 5): 3, ("1122", 3, 6): 9, ("1122", 3, 7): 18,
    ("12-1", 3, 4): 2, ("12-1", 3, 5): 3, ("12-1", 3, 6): 5, ("12-1", 3, 7): 7,
    ("12-1", 3, 8): 9, ("12-1", 3, 9): 12,
    ("121", 2, 3): 1, ("121", 2, 4): 2, ("121", 2, 5): 4, ("121", 2, 6): 8,
    ("121", 2, 7): 12, ("121", 2, 8): 18, ("121", 2, 9): 27,
    ("121", 3, 3): 1, ("121", 3, 4): 2, ("121", 3, 5): 4, ("121", 3, 6): 8,
    ("121", 3, 7): 13, ("121", 3, 8): 19, ("121", 3, 9): 28,
    ("121", 4, 4): 2, ("121", 5, 5): 4, ("121", 6, 6): 8, ("121", 7, 7): 13,
    ("132", 3, 4): 2, ("132", 3, 5): 4, ("132", 3, 6): 8, ("132", 3, 7): 12,
    ("132", 4, 4): 3, ("132", 4, 5): 6, ("132", 4, 6): 10, ("132", 4, 7): 16,
    ("132", 5, 5): 6, ("132", 6, 6): 12, ("132", 7, 7): 20,
    ("2143", 4, 4): 1, ("2143", 4, 5): 2, ("2143", 4, 6): 4, ("2143", 4, 7): 8,
    ("2143", 5, 5): 3, ("2143", 6, 6): 9, ("2143", 7, 7): 18,
}

#: completed branch-and-bound runs: (pattern, k, n) -> (mu, lex-least witness)
BNB_EXACT: Dict[Tuple[str, int, int], Tuple[int, str]] = {
    ("121", 3, 9): (28, "111232111"),
    ("12-1", 3, 10): (15, "1212121111"),
    ("132", 7, 7): (20, "1165432"),
    ("132", 4, 7): (16, "1143322"),
    ("112", 3, 8): (31, "11111223"),
    ("1122", 3, 8): (36, "11112222"),
    ("2143", 4, 6): (4, "211433"),
    ("121", 3, 8): (19, "11123211"),
    ("12-1", 3, 9): (12, "121212111"),
}

#: budget-stopped runs: (pattern, k, n, node budget) -> known upper bound on
#: mu.  mu(112, 8, 8) = 31 exactly; for 1-2-1 (classical 121) densities
#: never rise with n, so mu(121, 3, 40) <= C(40, 3) * mu(121, 3, 12) /
#: C(12, 3) = 9880 * 66 / 220.
BNB_BUDGETED: Dict[Tuple[str, int, int, int], int] = {
    ("1-2-1", 3, 40, 50_000): 9880 * 66 // 220,
    ("112", 8, 8, 50_000): 31,
}

#: shortest universal words: (l, m) -> (length, lex-least witness)
SUPER: Dict[Tuple[int, int], Tuple[int, str]] = {
    (2, 3): (5, "12121"),
    (3, 3): (7, "1213121"),
    (2, 6): (11, "12121212121"),
    (3, 4): (10, "1231231213"),
}

#: asymptotic densities with a closed form, from the README and the
#: acceptance suite; keyed by pattern text as parsed.
DENSITY_REFERENCE: Dict[str, float] = {
    "121": LIMIT_121, "212": LIMIT_121,
    "112": LIMIT_112, "122": LIMIT_112, "211": LIMIT_112, "221": LIMIT_112,
    "132": LIMIT_112, "213": LIMIT_112, "231": LIMIT_112, "312": LIMIT_112,
    "1122": 3 / 8, "2211": 3 / 8, "1123": 3 / 8, "1233": 3 / 8, "1243": 3 / 8,
    "12": 1.0, "21": 1.0, "123": 1.0, "321": 1.0, "1234": 1.0, "4321": 1.0,
    "12345": 1.0, "54321": 1.0,
    "112g": 1 / 2, "123g": 1.0, "1432g": 1 / 3,
}


# -- shared helpers ----------------------------------------------------------


def parse(tr: Tracer, text: str) -> Pattern:
    return tr.call("core.parse.parse_pattern", parse_pattern, text)


def recount(tr: Tracer, p: Pattern, w: Word) -> int:
    tr.add("count.generalized_letters", w.n)
    return tr.call("count.generalized.count_generalized", count_generalized, p, w)


def word_text(w: Word) -> str:
    return "".join(str(v) for v in w.letters)


def variant(tr: Tracer, rng: random.Random, text: str) -> Pattern:
    """A seeded reverse/complement image of the pattern; all images share
    every maximum, so the constants above apply to each."""
    images = tr.call("core.symmetry.symmetry_class", symmetry_class, parse(tr, text))
    return rng.choice(images)


def exhaustive_max(tr: Tracer, p: Pattern, k: int, n: int):
    res = tr.call("search.exhaustive.max_count", max_count, p, k, n)
    tr.add("search.exhaustive_words", res.nodes)
    return res


def by_alphabet(tr: Tracer, p: Pattern, n: int):
    by = tr.call("search.exhaustive.max_count_by_alphabet", max_count_by_alphabet, p, n)
    tr.add("search.exhaustive_words", next(iter(by.values())).nodes)
    return by


def max_check(tr: Tracer, p: Pattern, want: int, witness: Optional[str] = None,
              exhaustive: bool = True) -> Callable:
    """Check for a max_count job: flag, count, exact witness if given, and
    the witness recounted by the occurrence automaton."""

    def check(res) -> Optional[str]:
        if res.exhaustive != exhaustive:
            return f"exhaustive={res.exhaustive}, expected {exhaustive}"
        if res.count != want:
            return f"count {res.count} != {want}"
        if witness is not None and word_text(res.witness) != witness:
            return f"witness {word_text(res.witness)} != {witness}"
        got = recount(tr, p, res.witness)
        return None if got == want else f"witness recount {got} != count {want}"

    return check


# -- table-sweep -------------------------------------------------------------

#: (word length, alphabet sizes, words per pass)
TABLE_MIX = ((8, (1, 4), 3000), (12, (5, 7), 200), (16, (6, 10), 80))
TABLE_MAX_M = 4
TABLE_SAMPLES = 2  # table entries per word checked against count_generalized


def pattern_inventory() -> List[Pattern]:
    """Every pattern with at most four letters, every hyphenation: 659."""
    out = []
    for m in range(1, TABLE_MAX_M + 1):
        for letters in canonical_words(m):
            for mask in range(1 << (m - 1)):
                hyphens = frozenset(g for g in range(1, m) if mask >> (g - 1) & 1)
                out.append(Pattern(letters, hyphens))
    return out


def table_check(tr: Tracer, w: Word, samples: Sequence[Pattern]) -> Callable:
    n = w.n

    def check(table) -> Optional[str]:
        tr.add("count.table_entries", len(table))
        classical = [0] * (TABLE_MAX_M + 1)
        adjacent = [0] * (TABLE_MAX_M + 1)
        for (letters, mask), cnt in table.items():
            m = len(letters)
            if mask == (1 << (m - 1)) - 1:
                classical[m] += cnt
            if mask == 0:
                adjacent[m] += cnt
        for m in range(1, min(TABLE_MAX_M, n) + 1):
            if classical[m] != comb(n, m):
                return f"{word_text(w)}: classical m={m} total {classical[m]} != C({n},{m})"
            if adjacent[m] != n - m + 1:
                return f"{word_text(w)}: adjacent m={m} total {adjacent[m]} != {n - m + 1}"
        for p in samples:
            got = tr.call("count.lookup.table_lookup", table_lookup, table, p)
            want = recount(tr, p, w)
            if got != want:
                return f"{word_text(w)}: table {got} != count_generalized {want} for {p}"
        return None

    return check


def table_sweep(rng: random.Random, tr: Tracer) -> List[Job]:
    inventory = pattern_inventory()
    jobs = []
    for n, (klo, khi), count in TABLE_MIX:
        for _ in range(count):
            k = rng.randint(klo, khi)
            raw = Word(tuple(rng.randint(1, k) for _ in range(n)), k)
            w = tr.call("core.canonical.Word.canonical", raw.canonical)
            samples = rng.sample(inventory, TABLE_SAMPLES)
            jobs.append(Job(
                f"pattern_table.n{n}",
                lambda w=w, n=n: tr.call(
                    f"count.table.n{n}.pattern_table", pattern_table, w, TABLE_MAX_M
                ),
                table_check(tr, w, samples),
            ))
    return jobs


# -- exact-maxima ------------------------------------------------------------


SERIES_RANGE = range(4, 7)  # delta_series rows; n=7 and n=8 run as single jobs


def exact_maxima(rng: random.Random, tr: Tracer) -> List[Job]:
    jobs: List[Job] = []

    # one cold pass of the canonical enumerator
    def enumerate7():
        rows = [w.letters for w in enumerate_canonical(7)]
        tr.add("search.enumerate_rows", len(rows))
        return rows

    def check_enum(rows) -> Optional[str]:
        # strictly increasing canonical rows, as many as there are
        # canonical words: exactly the canonical words, in lex order
        want = sum(surjections(7, d) for d in range(1, 8))
        if len(rows) != want:
            return f"{len(rows)} rows, expected {want}"
        if any(a >= b for a, b in zip(rows, rows[1:])):
            return "rows not in strictly increasing lex order"
        if any(set(r) != set(range(1, max(r) + 1)) for r in rows):
            return "a row is not canonical"
        return None

    jobs.append(Job(
        "enumerate_canonical",
        lambda: tr.call("search.enumerate.enumerate_canonical", enumerate7),
        check_enum,
    ))

    # 12-1 on two letters: closed form and the rise-then-ones witness
    p121 = parse(tr, "12-1")
    for n in range(3, 15):
        best, d = twelve_one_best(n)
        built = own_flatten((1, 2) * d + (1,) * (n - 2 * d))
        witness = "".join(map(str, built))
        jobs.append(Job(f"max_count.12-1.k2.n{n}",
                        lambda n=n: exhaustive_max(tr, p121, 2, n),
                        max_check(tr, p121, best, witness)))

    def small_grid(text: str, ks: Sequence[int], ns: Sequence[int]) -> None:
        p = variant(tr, rng, text)
        for n in ns:
            for k in ks:
                jobs.append(Job(f"max_count.{text}.k{k}.n{n}",
                                lambda p=p, k=k, n=n: exhaustive_max(tr, p, k, n),
                                max_check(tr, p, MU[(text, k, n)])))

    small_grid("12-1", (3,), range(4, 10))

    # acceptance 05: per-alphabet grids, nonincreasing in n at every k
    grids: Dict[Tuple[str, int], List[Fraction]] = {}

    def grid_check(text: str, p: Pattern, n: int) -> Callable:
        b = len(p.hyphens) + 1
        denom = comb(n - p.m + b, b)

        def check(by) -> Optional[str]:
            got = {d: int(r.count) for d, r in by.items()}
            if got != GRID[(text, n)]:
                return f"{text} n={n}: per-alphabet maxima {got} != {GRID[(text, n)]}"
            # delta(k, n) for k = 1..n: the best word on at most k letters
            deltas = [Fraction(max(got[d] for d in range(1, k + 1)), denom)
                      for k in range(1, n + 1)]
            grids[(text, n)] = deltas
            prev = grids.get((text, n - 1), [])
            for k, (now, before) in enumerate(zip(deltas, prev), start=1):
                if now > before:
                    return f"{text}: delta({k},{n}) > delta({k},{n - 1})"
            best = max(got.values())
            winner = next(r for r in by.values() if r.count == best)
            c = recount(tr, p, winner.witness)
            return None if c == best else f"{text} n={n}: witness recount {c} != {best}"

        return check

    # n outermost, so each (n, n) word array is built once per pass
    grid_patterns = {t: variant(tr, rng, t) for t in ("112", "121", "1122", "12-1")}
    for n in range(3, 8):
        for text, p in grid_patterns.items():
            if n < p.m:
                continue
            jobs.append(Job(f"by_alphabet.{text}.n{n}",
                            lambda p=p, n=n: by_alphabet(tr, p, n),
                            grid_check(text, p, n)))
            jobs.append(Job(f"max_count.{text}.k{n + 2}.n{n}",
                            lambda p=p, n=n: exhaustive_max(tr, p, n + 2, n),
                            max_check(tr, p, max(GRID[(text, n)].values()))))

    # acceptance 04: diagonal series, nonincreasing and above the limit
    limits = {"132": LIMIT_112, "112": LIMIT_112, "121": LIMIT_121}

    def series_check(text: str, p: Pattern) -> Callable:
        def check(rep) -> Optional[str]:
            if [row.n for row in rep.rows] != list(SERIES_RANGE):
                return f"{text}: series rows {[row.n for row in rep.rows]}"
            if rep.violations:
                return f"{text}: series violations {rep.violations}"
            for row in rep.rows:
                if row.count != MU[(text, row.n, row.n)]:
                    return f"{text} n={row.n}: mu {row.count} != {MU[(text, row.n, row.n)]}"
                if float(row.density) < limits[text] - 1e-12:
                    return f"{text} n={row.n}: density {float(row.density)} below limit"
                if recount(tr, p, row.witness) != row.count:
                    return f"{text} n={row.n}: witness recount differs"
            return None

        return check

    for text in limits:
        p = variant(tr, rng, text)
        jobs.append(Job(f"delta_series.{text}",
                        lambda p=p: tr.call("search.series.delta_series",
                                            delta_series, p, SERIES_RANGE),
                        series_check(text, p)))
        jobs.append(Job(f"max_count.{text}.k7.n7",
                        lambda p=p: exhaustive_max(tr, p, 7, 7),
                        max_check(tr, p, MU[(text, 7, 7)])))

    p2143 = variant(tr, rng, "2143")
    for k, n in ((4, 4), (4, 5), (4, 6), (4, 7), (5, 5), (6, 6), (7, 7)):
        jobs.append(Job(f"max_count.2143.k{k}.n{n}",
                        lambda k=k, n=n: exhaustive_max(tr, p2143, k, n),
                        max_check(tr, p2143, MU[("2143", k, n)])))
    small_grid("132", (3, 4), range(4, 8))
    small_grid("1122", (2, 3), range(4, 8))
    small_grid("121", (2, 3), range(3, 10))

    # README: 121 at n=6 gives 8 with witness 112211
    p121c = parse(tr, "121")
    jobs.append(Job("max_count.121.k6.n6",
                    lambda: exhaustive_max(tr, p121c, 6, 6),
                    max_check(tr, p121c, 8, "112211")))

    # the cold n=8 sweep: 545,835 canonical words
    p8 = grid_patterns["121"]
    jobs.append(Job("by_alphabet.121.n8",
                    lambda: by_alphabet(tr, p8, 8),
                    grid_check("121", p8, 8)))
    return jobs


# -- dfs ---------------------------------------------------------------------

#: seeded words checked by is_universal: (l, m, word length, words per pass).
#: Each length is one short of the shortest universal word, so every check
#: scans all C(length, m) subsequences and costs the same whatever the seed;
#: the (3,4) words are most of the jobs.  About 35 jobs of the workload are
#: slower than they are, well under a tenth of it, so both the median and the
#: 90th-percentile job lie inside their cluster whatever the seed.
UNIVERSAL_SEEDED = ((3, 4, 9, 500), (2, 5, 8, 20))
DFS_SUPER = ((3, 3), (2, 6), (3, 4))
BUILT_UNIVERSAL = ((2, 3), (3, 3), (2, 4), (3, 4), (4, 4), (3, 5), (4, 5))


def universal_check(w: Word, l: int, m: int) -> Callable:
    want = missing_patterns(w.letters, l, m)

    def check(out) -> Optional[str]:
        flag, missing = out
        got = [p.letters for p in missing]
        if flag != (not want) or got != want:
            return (f"is_universal({word_text(w)}, {l}, {m}) = {flag} missing "
                    f"{len(got)}; reference misses {len(want)}")
        return None

    return check


def super_check(tr: Tracer, l: int, m: int) -> Callable:
    length, witness = SUPER[(l, m)]

    def check(res) -> Optional[str]:
        if not res.lower_bound_certified:
            return f"({l},{m}) not certified"
        if (res.length, word_text(res.witness)) != (length, witness):
            return f"({l},{m}): {res.length} {word_text(res.witness)} != {length} {witness}"
        flag, _ = tr.call("superpattern.universal.is_universal", is_universal, res.witness, l, m)
        if not flag or missing_patterns(res.witness.letters, l, m):
            return f"({l},{m}) witness is not universal"
        return None

    return check


def certify(tr: Tracer, l: int, m: int):
    res = tr.call("superpattern.certify.shortest_superpattern", shortest_superpattern, l, m)
    tr.add("superpattern.nodes", res.nodes)
    return res


def bnb(tr: Tracer, p: Pattern, k: int, n: int, budget: SearchBudget):
    res = tr.call("search.bnb.max_count", max_count, p, k, n, budget)
    tr.add("search.bnb_nodes", res.nodes)
    if not res.exhaustive:
        tr.add("search.bnb_budget_hits")
        tr.add("search.bnb_budgeted_count", int(res.count))
    return res


def budgeted_check(tr: Tracer, p: Pattern, known: int, budget: int) -> Callable:
    """A budget-stopped run may find any count up to the known maximum; an
    improvement must never fail this check."""

    def check(res) -> Optional[str]:
        if res.nodes > budget:
            return f"{res.nodes} nodes exceed the budget {budget}"
        if res.count > known:
            return f"count {res.count} above the known maximum {known}"
        got = recount(tr, p, res.witness)
        return None if got == res.count else f"witness recount {got} != count {res.count}"

    return check


def dfs(rng: random.Random, tr: Tracer) -> List[Job]:
    jobs: List[Job] = []
    for (text, k, n), (want, witness) in BNB_EXACT.items():
        p = parse(tr, text)
        jobs.append(Job(f"bnb.{text}.k{k}.n{n}",
                        lambda p=p, k=k, n=n: bnb(tr, p, k, n, UNBOUNDED),
                        max_check(tr, p, want, witness)))
    for (text, k, n, budget), known in BNB_BUDGETED.items():
        p = parse(tr, text)
        jobs.append(Job(f"bnb.{text}.k{k}.n{n}.budget{budget}",
                        lambda p=p, k=k, n=n, b=budget: bnb(tr, p, k, n, SearchBudget(max_nodes=b)),
                        budgeted_check(tr, p, known, budget)))
    for l, m in DFS_SUPER:
        jobs.append(Job(f"super.{l}.{m}", lambda l=l, m=m: certify(tr, l, m),
                        super_check(tr, l, m)))
    for l, m in BUILT_UNIVERSAL:
        w = build(tr, "superpattern_word", superpattern_word, l, m).word
        jobs.append(Job(f"is_universal.built.{l}.{m}",
                        lambda w=w, l=l, m=m: tr.call(
                            "superpattern.universal.is_universal", is_universal, w, l, m),
                        universal_check(w, l, m)))
    for l, m, length, count in UNIVERSAL_SEEDED:
        for _ in range(count):
            w = Word(tuple(rng.randint(1, l) for _ in range(length)), l)
            jobs.append(Job(f"is_universal.seeded.{l}.{m}",
                            lambda w=w, l=l, m=m: tr.call(
                                "superpattern.universal.is_universal", is_universal, w, l, m),
                            universal_check(w, l, m)))

    # the two jobs that run with two threads; their results must not change.
    # Their spans use the group threads2, so the bnb_* and certify per-layer
    # metrics cover single-threaded runs only, whose node counts are exact.
    text, k, n = "12-1", 3, 10
    p = parse(tr, text)
    want, witness = BNB_EXACT[(text, k, n)]
    jobs.append(Job(f"bnb.{text}.k{k}.n{n}.threads2",
                    lambda: tr.call("search.threads2.max_count", max_count,
                                    p, k, n, UNBOUNDED, 2),
                    max_check(tr, p, want, witness)))
    jobs.append(Job("super.3.4.threads2",
                    lambda: tr.call("superpattern.threads2.shortest_superpattern",
                                    shortest_superpattern, 3, 4, None, False, 2),
                    super_check(tr, 3, 4)))
    return jobs


# -- readme-cli --------------------------------------------------------------

#: README command-line examples; `series` is cut to 4:6 so its n=8 sweep
#: stays in exact-maxima.  Each runs twice, the second time with two
#: threads where the command takes --threads.
README_COMMANDS = (
    "count -p 122 -w 213322",
    "density -p 121",
    "density -p 1122 --route two-block",
    "search -p 112 -k 6 -n 6",
    "series -p 132 --n-range 4:6",
    "construct --builder balanced -n 16 -k 4",
    "super -l 3 -m 3",
    "table3",
    "verify --suite overlap-formula",
)
THREADED = ("search", "series", "super")
CLI_COUNT_PATTERNS = ("1-2-1", "12-1", "2-13", "1122", "121g", "132", "1-32", "21-1")
CLI_COUNT_COMMANDS = 4
CAP_CASES = (((2, 1), 2), ((2, 2), 2), ((1, 2), 3), ((2, 2), 4), ((2, 2), 6),
             ((2, 2), 8), ((2, 2), 10), ((2, 1, 1), 4))


def readme_reference(command: str) -> Callable[[dict], Optional[str]]:
    """Expected `result` fields of each README command."""

    def close(x: float, y: float) -> bool:
        return abs(x - y) <= 1e-10

    def check(res: dict) -> Optional[str]:
        sub = command.split()[0]
        if sub == "count":
            ok = res["count"] == 3 and (res["delta"]["num"], res["delta"]["den"]) == (3, 20)
        elif sub == "density" and "1122" in command:
            ok = (res["value"]["num"], res["value"]["den"]) == (3, 8)
        elif sub == "density":
            ok = close(res["value"]["decimal"], LIMIT_121)
        elif sub == "search":
            ok = res["mu"]["num"] == 12 and res["witness"] == "111122" and res["exhaustive"]
        elif sub == "series":
            ok = [r["mu"]["num"] for r in res["rows"]] == [3, 6, 12] and not res["violations"]
        elif sub == "construct":
            ok = res["recounts"] == res["predicted_counts"] == [72, 96]
        elif sub == "super":
            ok = (res["length"], res["witness"], res["lower_bound_certified"]) == (7, "1213121", True)
        elif sub == "table3":
            want = {"111": 1.0, "112": LIMIT_112, "121": LIMIT_121, "123": 1.0, "132": LIMIT_112}
            ok = all(close(res["rows"][t]["value"]["decimal"], v) for t, v in want.items())
        else:
            ok = res["passed"] is True
        return None if ok else f"`{command}` result differs from the README"

    return check


def run_cli(tr: Tracer, argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    tr.open("cli.main")
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad flags; report, do not die
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tr.close()
    out = buf.getvalue()
    tr.add("cli.stdout_bytes", len(out.encode()))
    if code != 0:
        tr.add("cli.nonzero_exits")
    return code, out


def cli_check(reference: Callable[[dict], Optional[str]], first: Dict[str, str], key: str) -> Callable:
    """Exit 0, the reference values, and a `result` byte-identical to the
    first run of the same command."""

    def check(out) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"{key}: exit code {code}"
        result = json.loads(text)["result"]
        problem = reference(result)
        if problem:
            return problem
        blob = json.dumps(result, sort_keys=True)
        if first.setdefault(key, blob) != blob:
            return f"{key}: result differs between runs"
        return None

    return check


def density_check(text: str, values: Dict[str, float], mirror: str) -> Callable:
    """Refusals are honest outcomes; a value must lie in [0, 1], match its
    closed form when one is known, and equal its mirror image's value."""

    def check(out) -> Optional[str]:
        if isinstance(out, DensityRouteError):
            return None
        v = float(out.value)
        if not 0.0 <= v <= 1.0 + 1e-9:
            return f"{text}: density {v} outside [0, 1]"
        want = DENSITY_REFERENCE.get(text)
        if want is not None and abs(v - want) > 1e-10:
            return f"{text}: density {v} != closed form {want}"
        values[text] = v
        other = values.get(mirror)
        if other is not None and abs(other - v) > 1e-10:
            return f"{text}: density {v} != {other} of its reverse {mirror}"
        return None

    return check


def route(tr: Tracer, p: Pattern):
    try:
        return tr.call("density.route.asymptotic_density", asymptotic_density, p)
    except DensityRouteError as exc:
        tr.add("density.route_refusals")
        return exc


def build(tr: Tracer, name: str, fn: Callable, *args):
    c = tr.call(f"construct.build.{name}", fn, *args)
    tr.add("construct.letters_built", c.word.n)
    return c


def builder_check(tr: Tracer, n: int) -> Callable:
    def check(c) -> Optional[str]:
        if c.word.n != n:
            return f"{c.recipe}: built {c.word.n} letters, asked for {n}"
        got = tuple(recount(tr, p, c.word) for p in c.targets)
        if got != c.predicted_counts:
            return f"{c.recipe}: recount {got} != predicted {c.predicted_counts}"
        return None

    return check


def readme_cli(rng: random.Random, tr: Tracer) -> List[Job]:
    jobs: List[Job] = []

    # the README quick tour
    p122, w = parse(tr, "122"), tr.call("core.parse.parse_word", parse_word, "213322")
    p121, p1122 = parse(tr, "121"), parse(tr, "1122")
    jobs.append(Job("tour.count", lambda: recount(tr, p122, w),
                    lambda c: None if c == 3 else f"count {c} != 3"))
    jobs.append(Job("tour.density",
                    lambda: tr.call("count.density.density", exact_density, p122, w),
                    lambda r: None if r.density == Fraction(3, 20) else f"density {r.density}"))
    jobs.append(Job("tour.max_count", lambda: exhaustive_max(tr, p121, 6, 6),
                    max_check(tr, p121, 8, "112211")))
    jobs.append(Job("tour.density.121", lambda: route(tr, p121),
                    density_check("121", {}, "121")))
    jobs.append(Job("tour.density.1122", lambda: route(tr, p1122),
                    lambda d: None if d.value == Fraction(3, 8) else f"1122 density {d.value}"))

    def check_balanced(c) -> Optional[str]:
        if c.predicted_density != Fraction(3800, 4179):
            return f"predicted density {c.predicted_density} != 3800/4179"
        return builder_check(tr, 400)(c)

    jobs.append(Job("tour.balanced",
                    lambda: build(tr, "balanced_monotone_word", balanced_monotone_word, 400, 20),
                    check_balanced))
    jobs.append(Job("tour.super", lambda: certify(tr, 3, 3), super_check(tr, 3, 3)))

    # README commands, twice each
    first: Dict[str, str] = {}
    for command in README_COMMANDS:
        argv = command.split() + ["--format", "json"]
        second = argv + ["--threads", "2"] if command.split()[0] in THREADED else argv
        for args in (argv, second):
            jobs.append(Job(f"cli.{command.split()[0]}",
                            lambda args=args: run_cli(tr, args),
                            cli_check(readme_reference(command), first, command)))

    # `count` on seeded long words, against the recount written here
    for i in range(CLI_COUNT_COMMANDS):
        text = rng.choice(CLI_COUNT_PATTERNS)
        letters = [rng.randint(1, 3) for _ in range(rng.randint(150, 250))]
        word = "".join(map(str, letters))
        p = parse(tr, text)
        want = reference_count(p.letters, p.hyphens, letters)
        key = f"count {text} #{i}"

        def count_ref(res: dict, want=want, key=key) -> Optional[str]:
            return None if res["count"] == want else f"{key}: {res['count']} != {want}"

        argv = ["count", "-p", text, "-w", word, "--format", "json"]
        for _ in range(2):
            jobs.append(Job("cli.count.seeded", lambda argv=argv: run_cli(tr, argv),
                            cli_check(count_ref, first, key)))

    # every builder at large n, recounted by the occurrence automaton
    def n_near(n: int) -> int:
        return rng.randint(n - n // 50, n + n // 50)

    third, quarter = Fraction(1, 3), Fraction(1, 4)
    n400, n300, n60 = n_near(400), n_near(300), n_near(60)
    builders = (  # (builder, arguments, word length)
        (balanced_monotone_word, (n400, 20, 3), n400),
        (pqr_word, (1, 1, 2, n300), n300),
        (pqr_word, (2, 1, 3, n300), n300),
        (nested_word, (1, 1, 2, 3, n300), n300),
        (nested_word, (2, 1, 3, 2, n300), n300),
        (layered_word, ((third,) * 3, n300, "word", parse(tr, "1123")), n300),
        (layered_word, ((quarter,) * 4, n60, "permutation", parse(tr, "2143")), n60),
        (twelve_one_word, (n400, 130), n400),
        (sqrt_layer_perm, (n400,), n400),
    )
    for fn, args, n in builders:
        jobs.append(Job(f"construct.{fn.__name__}",
                        lambda fn=fn, args=args: build(tr, fn.__name__, fn, *args),
                        builder_check(tr, n)))
    jobs.append(Job("construct.superpattern_word",
                    lambda: build(tr, "superpattern_word", superpattern_word, 4, 5),
                    lambda c: None if not missing_patterns(c.word.letters, 4, 5)
                    else "built (4,5) word is not universal"))

    # every canonical pattern up to five letters, classical and subword form
    values: Dict[str, float] = {}
    for m in range(1, 6):
        for letters in canonical_words(m):
            for suffix in ("", "g"):
                text = "".join(map(str, letters)) + suffix
                mirror = "".join(map(str, reversed(letters))) + suffix
                p = parse(tr, text)
                jobs.append(Job("density.asymptotic", lambda p=p: route(tr, p),
                                density_check(text, values, mirror)))

    want3 = {"111": 1.0, "112": LIMIT_112, "121": LIMIT_121, "123": 1.0, "132": LIMIT_112}
    jobs.append(Job("density.three_letter_table",
                    lambda: tr.call("density.route.three_letter_table", three_letter_table),
                    lambda t: None if all(abs(float(t[k].value) - v) <= 1e-10
                                          for k, v in want3.items())
                    else "three-letter table differs from its closed forms"))

    # capped layered optimum: exact caps, and never above the uncapped density
    caps: Dict[Tuple[int, ...], float] = {}
    # shapes (2,1), (1,2), (2,2), (2,1,1) are the patterns 112, 122, 1122, 1123
    uncapped = {(2, 1): LIMIT_112, (1, 2): LIMIT_112, (2, 2): 3 / 8, (2, 1, 1): 3 / 8}
    exact = {((2, 1), 2): 4 / 9, ((2, 2), 2): 3 / 8}

    def cap_check(shape: Tuple[int, ...], ell: int) -> Callable:
        def check(d) -> Optional[str]:
            v = float(d.value)
            want = exact.get((shape, ell))
            if want is not None and abs(v - want) > 1e-9:
                return f"cap({shape}, {ell}) = {v} != {want}"
            if v > uncapped[shape] + 1e-9:
                return f"cap({shape}, {ell}) = {v} above the uncapped density"
            if v < caps.get(shape, 0.0) - 1e-9:
                return f"cap({shape}, {ell}) = {v} fell below a smaller cap"
            caps[shape] = v
            return None

        return check

    for shape, ell in CAP_CASES:
        jobs.append(Job(f"density.cap.{shape}.{ell}",
                        lambda shape=shape, ell=ell: tr.call(
                            "density.cap.layered_density_cap", layered_density_cap,
                            LayeredShape(shape), ell),
                        cap_check(shape, ell)))
    return jobs


# -- one small call into each layer, on every workload --------------------

#: fixed words for the floor's pattern_table calls, one per table length
FLOOR_WORDS = ("12312312", "123451234512", "1234561234561234")


def layer_floor(tr: Tracer) -> List[Job]:
    """Small fixed calls, about 80 ms in all, that reach every per-layer
    figure, so each is measured on every workload.  On a workload that
    otherwise bypasses a layer they are a flat floor, the same on every
    workload and every seed."""
    jobs: List[Job] = []
    inventory = pattern_inventory()
    for text in FLOOR_WORDS:
        w = tr.call("core.parse.parse_word", parse_word, text)
        jobs.append(Job(f"floor.pattern_table.n{w.n}",
                        lambda w=w: tr.call(f"count.table.n{w.n}.pattern_table",
                                            pattern_table, w, TABLE_MAX_M),
                        table_check(tr, w, inventory[:TABLE_SAMPLES])))

    def enumerate5():
        rows = [w.letters for w in enumerate_canonical(5)]
        tr.add("search.enumerate_rows", len(rows))
        return rows

    jobs.append(Job("floor.enumerate_canonical",
                    lambda: tr.call("search.enumerate.enumerate_canonical", enumerate5),
                    lambda rows: None if rows == canonical_words(5)
                    else "rows are not the canonical words in lex order"))
    p121 = parse(tr, "121")
    jobs.append(Job("floor.max_count", lambda: exhaustive_max(tr, p121, 3, 5),
                    max_check(tr, p121, MU[("121", 3, 5)])))
    jobs.append(Job("floor.bnb", lambda: bnb(tr, p121, 3, 6, UNBOUNDED),
                    max_check(tr, p121, 8, "112211")))
    jobs.append(Job("floor.super", lambda: certify(tr, 2, 3), super_check(tr, 2, 3)))
    w = tr.call("core.parse.parse_word", parse_word, "12121")
    jobs.append(Job("floor.is_universal",
                    lambda: tr.call("superpattern.universal.is_universal", is_universal, w, 2, 3),
                    universal_check(w, 2, 3)))
    jobs.append(Job("floor.density", lambda: route(tr, p121), density_check("121", {}, "121")))
    jobs.append(Job("floor.density_cap",
                    lambda: tr.call("density.cap.layered_density_cap", layered_density_cap,
                                    LayeredShape((2, 2)), 2),
                    lambda d: None if abs(float(d.value) - 3 / 8) <= 1e-9
                    else f"cap((2, 2), 2) = {d.value}"))
    jobs.append(Job("floor.construct",
                    lambda: build(tr, "twelve_one_word", twelve_one_word, 40, 13),
                    builder_check(tr, 40)))
    command = "count -p 122 -w 213322"
    jobs.append(Job("floor.cli", lambda: run_cli(tr, command.split() + ["--format", "json"]),
                    cli_check(readme_reference(command), {}, command)))
    return jobs


WORKLOADS: Dict[str, Callable[[random.Random, Tracer], List[Job]]] = {
    "table-sweep": table_sweep,
    "exact-maxima": exact_maxima,
    "dfs": dfs,
    "readme-cli": readme_cli,
}
