"""Acceptance suite: one numbered pass/fail line per criterion (run with -s)."""

from __future__ import annotations

import io
import itertools
import json
import math
import time
from fractions import Fraction
from math import comb
from typing import Dict, List, Sequence, Tuple

import numpy as np

from wordpack.core import (
    LayeredShape,
    Pattern,
    Word,
    flatten,
    format_word,
    parse_pattern,
    parse_word,
)
from wordpack.count import count_generalized, pattern_table
from wordpack.density import (
    alpha_root,
    asymptotic_density,
    k1_density,
    layered_density_cap,
    m_overlap,
    pqr_density,
    r_s_density,
    three_letter_table,
)
from wordpack.construct import (
    balanced_monotone_word,
    superpattern_word,
    twelve_one_word,
)
from wordpack.search import (
    SearchBudget,
    canonical_count,
    enumerate_canonical,
    max_count,
    max_count_by_alphabet,
    verify_perm_restriction,
    verify_tiebreak_map,
)
from wordpack.superpattern import is_universal, shortest_superpattern

TWO_ROOT_THREE_MINUS_THREE = 2.0 * math.sqrt(3.0) - 3.0


def _verdict(num: int, label: str, failures: Sequence[str]) -> None:
    status = "FAIL" if failures else "PASS"
    extra = f" [{len(failures)} failing checks]" if failures else ""
    print(f"ACCEPTANCE {num:02d} {status} - {label}{extra}")
    assert not failures, f"{label}: " + " | ".join(list(failures)[:12])


def test_01_single_count_and_speed() -> None:
    p = parse_pattern("122")
    w = parse_word("213322")
    failures: List[str] = []
    count = count_generalized(p, w)
    if count != 3:
        failures.append(f"count {count} != 3")
    best = min(
        _timed(lambda: count_generalized(p, w)) for _ in range(5)
    )
    if best >= 1e-3:
        failures.append(f"best time {best * 1e3:.3f} ms >= 1 ms")
    _verdict(1, "count of 122 in 213322 is 3 in under 1 ms", failures)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- bulk table versus direct enumeration ------------------------------------

MAX_M = 4
_CLASS_PATTERNS: Dict[int, List[Tuple[int, ...]]] = {
    m: [w.letters for w in enumerate_canonical(m)] for m in range(1, MAX_M + 1)
}
_CLASS_ROW: Dict[Tuple[int, ...], Tuple[int, int]] = {
    letters: (m, i)
    for m, rows in _CLASS_PATTERNS.items()
    for i, letters in enumerate(rows)
}


def _trit_code(values: Sequence[int]) -> int:
    code = 0
    weight = 1
    for i, j in itertools.combinations(range(len(values)), 2):
        if values[i] < values[j]:
            trit = 0
        elif values[i] == values[j]:
            trit = 1
        else:
            trit = 2
        code += trit * weight
        weight *= 3
    return code


def _order_type_lut(m: int) -> np.ndarray:
    lut = np.full(3 ** comb(m, 2), -1, dtype=np.int16)
    for i, letters in enumerate(_CLASS_PATTERNS[m]):
        lut[_trit_code(letters)] = i
    return lut


_LUTS = {m: _order_type_lut(m) for m in range(1, MAX_M + 1)}


def _subset_codes(cols: np.ndarray) -> np.ndarray:
    m = cols.shape[1]
    codes = np.zeros(cols.shape[0], dtype=np.int32)
    weight = 1
    for i, j in itertools.combinations(range(m), 2):
        a, b = cols[:, i], cols[:, j]
        trit = (a >= b).astype(np.int32) + (a > b).astype(np.int32)
        codes += trit * weight
        weight *= 3
    return codes


def _naive_tables(arr: np.ndarray) -> Dict[int, np.ndarray]:
    """Subsequence-class counts for a chunk of equal-length words.

    For each subsequence length m the result has shape (words, classes,
    2**(m-1)); cell (i, c, h) counts the position subsets of word i whose
    flattening is class c and whose non-adjacent gaps all lie in h.  This is
    the definition the bulk dynamic program must reproduce.
    """
    chunk, n = arr.shape
    out: Dict[int, np.ndarray] = {}
    rows = np.arange(chunk)
    for m in range(1, min(MAX_M, n) + 1):
        counts = np.zeros((chunk, len(_CLASS_PATTERNS[m]), 1 << (m - 1)), dtype=np.int16)
        lut = _LUTS[m]
        for subset in itertools.combinations(range(n), m):
            forced = 0
            for g in range(m - 1):
                if subset[g + 1] - subset[g] > 1:
                    forced |= 1 << g
            cls = lut[_subset_codes(arr[:, subset])]
            np.add.at(counts[:, :, forced], (rows, cls), 1)
        for bit in range(m - 1):
            with_bit = [h for h in range(1 << (m - 1)) if h & (1 << bit)]
            without = [h ^ (1 << bit) for h in with_bit]
            counts[:, :, with_bit] += counts[:, :, without]
        out[m] = counts
    return out


def _check_chunk(words: List[Word], arr: np.ndarray) -> List[str]:
    """Compare the package table against direct enumeration for one chunk."""
    naive = _naive_tables(arr)
    nonzero = sum(
        np.count_nonzero(naive[m], axis=(1, 2)).astype(np.int64) for m in naive
    )
    failures: List[str] = []
    for i, w in enumerate(words):
        table = pattern_table(w, MAX_M)
        if len(table) != nonzero[i]:
            failures.append(
                f"{format_word(w)}: {len(table)} table entries, "
                f"{nonzero[i]} nonzero direct counts"
            )
            continue
        for (letters, mask), count in table.items():
            m, row = _CLASS_ROW[letters]
            if naive[m][i, row, mask] != count:
                failures.append(
                    f"{format_word(w)} {letters} mask={mask}: "
                    f"table {count} != direct {naive[m][i, row, mask]}"
                )
                if len(failures) > 20:
                    return failures
    return failures


def test_02_bulk_table_matches_direct_enumeration() -> None:
    t0 = time.perf_counter()
    failures: List[str] = []
    pattern_cells = sum(canonical_count(m) * (1 << (m - 1)) for m in range(1, 5))
    if pattern_cells != 659:
        failures.append(f"pattern inventory {pattern_cells} != 659")
    total_words = 0
    chunk_size = 65536
    for n in range(1, 9):
        pending: List[Word] = []
        for w in enumerate_canonical(n):
            pending.append(w)
            if len(pending) == chunk_size:
                arr = np.array([x.letters for x in pending], dtype=np.int8)
                failures.extend(_check_chunk(pending, arr))
                total_words += len(pending)
                pending = []
        if pending:
            arr = np.array([x.letters for x in pending], dtype=np.int8)
            failures.extend(_check_chunk(pending, arr))
            total_words += len(pending)
    if total_words != 598444:
        failures.append(f"word inventory {total_words} != 598444")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"elapsed {elapsed:.1f}s >= 300s")
    _verdict(
        2,
        f"bulk table equals direct enumeration on all 659 patterns x "
        f"{total_words} words in {elapsed:.0f}s",
        failures,
    )


def test_03_three_letter_table() -> None:
    expected = {
        "111": 1.0,
        "112": TWO_ROOT_THREE_MINUS_THREE,
        "121": math.sqrt(3.0) - 1.5,
        "123": 1.0,
        "132": TWO_ROOT_THREE_MINUS_THREE,
    }
    table = three_letter_table()
    failures: List[str] = []
    for text, want in expected.items():
        got = table.get(text)
        if got is None:
            failures.append(f"{text} missing")
        elif abs(float(got.value) - want) > 1e-10:
            failures.append(f"{text}: {float(got.value)} vs {want}")
    if round(TWO_ROOT_THREE_MINUS_THREE, 4) != 0.4641:
        failures.append("four-decimal cross-check failed")
    _verdict(3, "three-letter densities match closed forms to 1e-10", failures)


def test_04_diagonal_series_bracket() -> None:
    t0 = time.perf_counter()
    failures: List[str] = []
    limits = {
        "132": TWO_ROOT_THREE_MINUS_THREE,
        "112": TWO_ROOT_THREE_MINUS_THREE,
        "121": math.sqrt(3.0) - 1.5,
    }
    for text, limit in limits.items():
        p = parse_pattern(text)
        values: List[Fraction] = []
        for n in range(4, 9):
            res = max_count(p, n, n)
            if not res.exhaustive:
                failures.append(f"{text} n={n} not exhaustive")
            values.append(res.density)
        for n, v in zip(range(4, 9), values):
            if v <= 0:
                failures.append(f"{text} n={n}: density {v} not positive")
            if float(v) < limit - 1e-12:
                failures.append(f"{text} n={n}: {float(v)} below limit {limit}")
        for a, b in zip(values, values[1:]):
            if b > a:
                failures.append(f"{text}: series increases {a} -> {b}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        failures.append(f"elapsed {elapsed:.1f}s >= 600s")
    _verdict(
        4,
        f"diagonal densities for 132/112/121 at n=4..8 are positive, "
        f"nonincreasing, above each pattern's limit in {elapsed:.0f}s",
        failures,
    )


def _density_grid(p: Pattern, n: int) -> Dict[int, Fraction]:
    """delta(p, k, n) for k = 1..n+2 from one per-alphabet sweep."""
    by = max_count_by_alphabet(p, n)
    denom = by[1].denom
    grid: Dict[int, Fraction] = {}
    best = 0
    for k in range(1, n + 3):
        if k <= n:
            best = max(best, by[k].count)
        grid[k] = Fraction(best, denom)
    return grid


def test_05_monotonicity_grid() -> None:
    failures: List[str] = []
    for text in ("112", "121", "1122", "12-1"):
        p = parse_pattern(text)
        grids = {n: _density_grid(p, n) for n in range(p.m, 9)}
        for n, grid in grids.items():
            for k in range(1, n + 1):
                if grid[k] > grid[k + 1]:
                    failures.append(f"{text}: delta({k},{n}) > delta({k+1},{n})")
            for k in (n, n + 1, n + 2):
                if grid[k] != grid[n]:
                    failures.append(f"{text}: delta({k},{n}) != delta({n},{n})")
            if max_count(p, n + 2, n).count != max_count(p, n, n).count:
                failures.append(f"{text}: saturation sweep differs at n={n}")
        for n in range(p.m, 8):
            for k in range(1, n + 1):
                if grids[n + 1][k] > grids[n][k]:
                    failures.append(
                        f"{text}: delta({k},{n+1}) > delta({k},{n})"
                    )
    _verdict(
        5,
        "density grid is nondecreasing in k, nonincreasing in n, and "
        "saturates at k = n for 112/121/1122/12-1",
        failures,
    )


def test_06_permutation_restriction_and_tiebreak() -> None:
    failures: List[str] = []
    for text in ("132", "123", "2143"):
        p = parse_pattern(text)
        for n in range(p.m, 8):
            rep = verify_perm_restriction(p, n)
            if not rep.equal:
                failures.append(
                    f"{text} n={n}: word max {rep.word_max} != "
                    f"permutation max {rep.perm_max}"
                )
    for text in ("132", "123", "2143"):
        p = parse_pattern(text)
        for n in range(p.m, 8):
            rep = verify_tiebreak_map(p, n, samples=1000, seed=20260818)
            if rep.violations:
                failures.append(
                    f"{text} n={n}: {len(rep.violations)} tiebreak violations"
                )
    _verdict(
        6,
        "word and permutation maxima agree for 132/123/2143 up to n=7 and "
        "the tiebreak map never loses occurrences on 1000 samples per n",
        failures,
    )


def test_07_block_density_routes() -> None:
    failures: List[str] = []
    rs = r_s_density(2, 2)
    if rs.value != Fraction(3, 8):
        failures.append(f"two-block (2,2) density {rs.value} != 3/8")
    for text in ("1123", "1233", "1243"):
        dv = asymptotic_density(parse_pattern(text))
        if dv.value != Fraction(3, 8):
            failures.append(f"{text}: {dv.value} != 3/8 via layered reduction")
    low = pqr_density(1, 1, 2)
    if low.value != Fraction(3, 16):
        failures.append(f"three-block (1,1,2) density {low.value} != 3/16")
    root = pqr_density(1, 1, 1)
    if abs(float(root.value) - (math.sqrt(3.0) - 1.5)) > 1e-10:
        failures.append(f"three-block (1,1,1) density {float(root.value)}")
    _verdict(
        7,
        "block-structured densities give 3/8, 3/8 by reduction, 3/16, "
        "and sqrt(3)-3/2 to 1e-10",
        failures,
    )


def test_08_root_asymptotics_and_coupling() -> None:
    failures: List[str] = []
    for s in range(3, 9):
        alpha, _ = alpha_root(s)
        approx = 1.0 / (s + 1) - (s + 1) ** (-(s + 2))
        if abs(alpha - approx) > 4.0 ** -6:
            failures.append(f"s={s}: |alpha - approx| = {abs(alpha - approx)}")
    for s in range(2, 9):
        _, a = alpha_root(s)
        root = k1_density(s).aux["a"]
        if abs(a - root) > 1e-10:
            failures.append(f"s={s}: 1 - s*alpha = {a} vs single-rise root {root}")
    _verdict(
        8,
        "alpha root matches its first-order expansion within 4^-6 and "
        "couples to the single-rise root within 1e-10",
        failures,
    )


def test_09_capped_layered_optimization() -> None:
    failures: List[str] = []
    got = float(layered_density_cap(LayeredShape((2, 1)), 2).value)
    if abs(got - 4.0 / 9.0) > 1e-9:
        failures.append(f"cap((2,1), 2) = {got} vs 4/9")
    got = float(layered_density_cap(LayeredShape((2, 2)), 2).value)
    if abs(got - 0.375) > 1e-9:
        failures.append(f"cap((2,2), 2) = {got} vs 3/8")
    series = [
        float(layered_density_cap(LayeredShape((2, 2)), ell).value)
        for ell in range(2, 11)
    ]
    if series[-1] < 0.375 - 1e-6:
        failures.append(f"cap((2,2), 10) = {series[-1]} below 3/8 - 1e-6")
    for ell, v in zip(range(2, 11), series):
        if v > 0.375 + 1e-9:
            failures.append(f"cap((2,2), {ell}) = {v} exceeds 3/8 + 1e-9")
    _verdict(
        9,
        "capped layered optimization hits 4/9 and 3/8 and the cap series "
        "approaches 3/8 from below",
        failures,
    )


def _compositions(total: int, parts: int) -> List[Tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    out: List[Tuple[int, ...]] = []
    for first in range(1, total - parts + 2):
        out.extend((first,) + rest for rest in _compositions(total - first, parts - 1))
    return out


def test_10_overlap_shift_formula() -> None:
    t0 = time.perf_counter()
    failures: List[str] = []
    checked = 0
    for m in range(2, 9):
        for parts in range(2, m + 1):
            for comp in _compositions(m, parts):
                text = (
                    "".join(str(v) * size for v, size in enumerate(comp, start=1))
                    + "g"
                )
                formula, oracle = m_overlap(parse_pattern(text))
                checked += 1
                if formula is None or formula != oracle:
                    failures.append(f"{comp}: formula {formula} != oracle {oracle}")
    for text, want in (("112g", 2), ("123g", 1), ("1432g", 3)):
        _, oracle = m_overlap(parse_pattern(text))
        if oracle != want:
            failures.append(f"{text}: oracle shift {oracle} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"elapsed {elapsed:.1f}s >= 60s")
    _verdict(
        10,
        f"overlap-shift formula matches the oracle on all {checked} monotone "
        f"nonconstant compositions up to length 8 in {elapsed:.0f}s",
        failures,
    )


def test_11_two_letter_maxima_and_builder() -> None:
    failures: List[str] = []
    p = parse_pattern("12-1")
    for n in range(3, 15):
        res = max_count(p, 2, n)
        if not res.exhaustive:
            failures.append(f"n={n}: two-letter sweep not exhaustive")
        best = max(
            d * (d - 1) // 2 + d * (n - 2 * d) for d in range(0, n // 2 + 1)
        )
        if res.count != best:
            failures.append(f"n={n}: mu {res.count} != closed form {best}")
        d_star = min(
            d
            for d in range(0, n // 2 + 1)
            if d * (d - 1) // 2 + d * (n - 2 * d) == best
        )
        built = twelve_one_word(n, d_star)
        if flatten(res.witness.letters) != flatten(built.word.letters):
            failures.append(
                f"n={n}: witness {format_word(res.witness)} is not the "
                f"built word {format_word(built.word)}"
            )
        if built.predicted_counts[0] != best:
            failures.append(f"n={n}: builder predicts {built.predicted_counts[0]}")
    _verdict(
        11,
        "two-letter maxima of 12-1 match the closed form and the "
        "rise-then-ones builder for n = 3..14",
        failures,
    )


def test_12_balanced_monotone_density() -> None:
    failures: List[str] = []
    p = parse_pattern("11-2")
    expected = {
        5: Fraction(100, 138),
        10: Fraction(900, 1078),
        15: Fraction(3150, 3568),
        20: Fraction(7600, 8358),
    }
    series: List[Fraction] = []
    for k in (5, 10, 15, 20):
        built = balanced_monotone_word(k * k, k)
        count = count_generalized(p, built.word)
        if count != built.predicted_counts[0]:
            failures.append(
                f"k={k}: recount {count} != predicted {built.predicted_counts[0]}"
            )
        dens = Fraction(int(count), comb(k * k - 1, 2))
        if dens != built.predicted_density:
            failures.append(f"k={k}: density {dens} != {built.predicted_density}")
        if dens != expected[k]:
            failures.append(f"k={k}: density {dens} != {expected[k]}")
        series.append(dens)
    if series[-1] < Fraction(4, 5):
        failures.append(f"k=20 density {series[-1]} below 0.8")
    for a, b in zip(series, series[1:]):
        if b <= a:
            failures.append(f"density series not increasing: {a} -> {b}")
    _verdict(
        12,
        "balanced monotone words pack 11-2 with increasing density, "
        "reaching 7600/8358 > 0.8 at k=20",
        failures,
    )


def test_13_superpattern_lengths() -> None:
    failures: List[str] = []
    t0 = time.perf_counter()
    r22 = shortest_superpattern(2, 2)
    if (r22.length, r22.lower_bound_certified) != (3, True):
        failures.append(f"(2,2): length {r22.length} certified "
                        f"{r22.lower_bound_certified}")
    r33 = shortest_superpattern(3, 3)
    if (r33.length, r33.lower_bound_certified) != (7, True):
        failures.append(f"(3,3): length {r33.length} certified "
                        f"{r33.lower_bound_certified}")
    small = time.perf_counter() - t0
    if small >= 60.0:
        failures.append(f"small certifications took {small:.1f}s >= 60s")
    for m in range(1, 7):
        for l in range(1, m + 1):
            built = superpattern_word(l, m)
            if len(built.word.letters) > l * (m - 1) + 1:
                failures.append(f"built ({l},{m}) word too long")
            ok, missing = is_universal(built.word, l, m)
            if not ok:
                failures.append(f"built ({l},{m}) word misses {len(missing)}")
    built44 = superpattern_word(4, 4)
    if len(built44.word.letters) != 13:
        failures.append(f"built (4,4) length {len(built44.word.letters)} != 13")
    ok, _ = is_universal(built44.word, 4, 4)
    if not ok:
        failures.append("built (4,4) word is not universal")
    r44 = shortest_superpattern(4, 4, budget=SearchBudget(max_nodes=10 ** 9))
    if not r44.lower_bound_certified:
        failures.append(
            f"(4,4) minimum not certified within budget: reached "
            f"lower bound {r44.lower_bound} with {r44.nodes} nodes"
        )
    elif r44.length != 12:
        failures.append(f"(4,4) certified minimum {r44.length}")
    else:
        ok, _ = is_universal(r44.witness, 4, 4)
        if not ok:
            failures.append("(4,4) minimum witness fails reverification")
    shorter = (
        f"; certified minimum {r44.length} beats the length-13 construction"
        if r44.lower_bound_certified and r44.length < 13
        else ""
    )
    _verdict(
        13,
        "shortest superpatterns: (2,2)=3 and (3,3)=7 certified fast, "
        "constructions universal through (6,6), (4,4) settled under "
        f"a 1e9-node budget{shorter}",
        failures,
    )


_CLI_CONFIGS = (
    ("search", "-p", "112", "-k", "8", "-n", "8", "--budget-nodes", "100000"),
    ("search", "-p", "12-1", "-k", "6", "-n", "7"),
    ("super", "-l", "3", "-m", "4"),
)


def _cli_result(argv: Tuple[str, ...]) -> Tuple[int, Dict]:
    stream = io.StringIO()
    from wordpack.cli import build_parser, run, _config_from_args

    parser = build_parser()
    args = parser.parse_args(list(argv) + ["--format", "json"])
    code = run(_config_from_args(args), stream=stream)
    envelope = json.loads(stream.getvalue())
    return code, envelope


def test_14_thread_count_is_invisible() -> None:
    failures: List[str] = []
    for argv in _CLI_CONFIGS:
        base_code, base = _cli_result(argv + ("--threads", "1"))
        for threads in ("2", "4"):
            code, env = _cli_result(argv + ("--threads", threads))
            if code != base_code:
                failures.append(f"{argv}: exit {code} != {base_code}")
            if env["result"] != base["result"]:
                failures.append(f"{argv}: result differs at {threads} threads")
        repeat_code, repeat = _cli_result(argv + ("--threads", "4"))
        if repeat["result"] != base["result"] or repeat_code != base_code:
            failures.append(f"{argv}: repeat run differs")
    _verdict(
        14,
        "search and superpattern results are identical at 1, 2, and 4 "
        "threads for three fixed configurations",
        failures,
    )
