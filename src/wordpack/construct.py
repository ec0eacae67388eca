"""Builders for extremal and near-extremal words used as packing witnesses.

Every builder returns a :class:`Construction`: the word together with the
patterns it is designed to pack and the occurrence counts predicted by
closed combinatorial formulas.  The predictions are computed independently
of the counting engine, so recounting them end-to-end cross-checks both
sides; ``Construction.verify`` does exactly that.

Block sizes are apportioned by cumulative rounding: the r-th partial sum of
the integer sizes is the half-up rounding of the r-th partial sum of the
real targets.  Every block then lands strictly within 1 of its target and
every partial sum strictly within 1 of its running target, which is the
double inequality the balanced builders must satisfy; ties at half-integers
round the earlier partial sum up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt
from typing import Optional, Sequence, Tuple, Union

from .core import (
    KIND_CONSTANT,
    KIND_DECREASING,
    KIND_SINGLE,
    Pattern,
    Word,
    layered_decompose,
    parse_pattern,
)
from .count import count_generalized, occurrence_denominator
from .density import alpha_root

__all__ = [
    "Construction",
    "balanced_monotone_word",
    "pqr_word",
    "nested_word",
    "layered_word",
    "superpattern_word",
    "twelve_one_word",
    "sqrt_layer_perm",
]

WeightLike = Union[int, float, Fraction]

#: the largest size flag the command line's construct takes: the recount of
#: sqrt_layer_perm(n) grows as n^2 and takes about 5 s at this n
MAX_CONSTRUCT_N = 10_000


@dataclass(frozen=True)
class Construction:
    """A built word plus exact predicted counts for its target patterns."""

    word: Word
    recipe: str
    targets: Tuple[Pattern, ...] = ()
    predicted_counts: Tuple[int, ...] = ()
    predicted_density: Optional[Fraction] = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "predicted_counts", tuple(self.predicted_counts))
        if len(self.targets) != len(self.predicted_counts):
            raise ValueError("one predicted count per target pattern required")
        if any(c < 0 for c in self.predicted_counts):
            raise ValueError("predicted counts must be nonnegative")

    def recount(self) -> Tuple[int, ...]:
        """Recount every target on the built word with the counting engine."""
        return tuple(count_generalized(p, self.word) for p in self.targets)

    def verify(self) -> bool:
        """True iff every recount equals its prediction exactly."""
        return self.recount() == self.predicted_counts


def _as_fraction(x: WeightLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _apportion(weights: Sequence[WeightLike], n: int) -> Tuple[int, ...]:
    """Split n into len(weights) sizes proportional to weights.

    Cumulative rounding: the r-th partial sum of sizes is
    floor(n * (w_1+...+w_r)/W + 1/2).  Each size differs from its real
    target by strictly less than 1, each partial sum by at most 1/2, and
    the sizes always total n exactly.
    """
    if n < 0:
        raise ValueError(f"cannot apportion a negative total {n}")
    fr = [_as_fraction(w) for w in weights]
    if not fr or any(w < 0 for w in fr):
        raise ValueError(f"weights must be nonnegative and nonempty: {weights}")
    total = sum(fr)
    if total <= 0:
        raise ValueError("weights must have a positive sum")
    sizes = []
    prev = 0
    acc = Fraction(0)
    for w in fr:
        acc += w
        cut = math.floor(n * acc / total + Fraction(1, 2))
        sizes.append(cut - prev)
        prev = cut
    return tuple(sizes)


def _elementary_symmetric(values: Sequence[int], m: int) -> int:
    """e_m(values), the sum over m-subsets of products."""
    e = [1] + [0] * m
    for v in values:
        for j in range(m, 0, -1):
            e[j] += e[j - 1] * v
    return e[m]


def _block_word(sizes: Sequence[int], heights: Sequence[int], k: int) -> Word:
    letters = []
    for s, h in zip(sizes, heights):
        letters.extend([h] * s)
    return Word(tuple(letters), k)


def balanced_monotone_word(n: int, k: int, ident: int = 2) -> Construction:
    """Nondecreasing word on k letters whose blocks are as equal as possible.

    Block sizes satisfy |size_i - n/k| < 1 and every partial sum stays
    strictly within 1 of r*n/k; cumulative rounding is the unique such rule
    once ties at half-integers are fixed (here: the earlier partial sum
    rounds up, so the extra letter lands in the earlier block).

    Targets: the adjacent-equal-then-rise pattern 11-2 and the strictly
    rising pattern of length ``ident``, both with exact closed-form counts.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if ident < 1:
        raise ValueError(f"ident length must be positive, got {ident}")
    sizes = _apportion((1,) * k, n)
    target = Fraction(n, k)
    for r, s in enumerate(sizes, start=1):
        assert abs(s - target) < 1, (sizes, n, k)
        assert abs(sum(sizes[:r]) - r * target) < 1, (sizes, n, k)
    word = _block_word(sizes, range(1, k + 1), k)

    tails = [sum(sizes[v:]) for v in range(1, k + 1)]
    adj_rise = parse_pattern("11-2")
    adj_count = sum((s - 1) * t for s, t in zip(sizes, tails))
    rising = Pattern.classical(tuple(range(1, ident + 1)))
    rising_count = _elementary_symmetric(sizes, ident)

    return Construction(
        word=word,
        recipe=f"balanced-monotone(n={n}, k={k})",
        targets=(adj_rise, rising),
        predicted_counts=(adj_count, rising_count),
        predicted_density=_exact_density(adj_count, adj_rise, n),
    )


def pqr_word(p: int, q: int, r: int, n: int) -> Construction:
    """Two-letter word 1^a 2^c 1^b packing the pattern 1^p 2^r 1^q (r >= 2).

    The three blocks get proportions p, r, q of n (in that order, so the
    middle block carries the r share).  The exact occurrence count is
    C(a,p) * C(c,r) * C(b,q): the leading pattern letters must sit in the
    first block, the high letters in the middle, the trailing ones in the
    last.  For r = 1 the optimal shape is nested; use :func:`nested_word`.
    """
    if p < 1 or q < 1:
        raise ValueError(f"need p, q >= 1, got p={p}, q={q}")
    if r < 2:
        raise ValueError(f"need r >= 2 (r = 1 belongs to nested_word), got r={r}")
    m = p + q + r
    if n < m:
        raise ValueError(f"need n >= p+q+r = {m}, got n={n}")
    a, c, b = _apportion((p, r, q), n)
    word = _block_word((a, c, b), (1, 2, 1), 2)
    pattern = Pattern.classical((1,) * p + (2,) * r + (1,) * q)
    count = comb(a, p) * comb(c, r) * comb(b, q)
    return Construction(
        word=word,
        recipe=f"low-high-low(p={p}, q={q}, r={r}, n={n})",
        targets=(pattern,),
        predicted_counts=(count,),
        predicted_density=_exact_density(count, pattern, n),
    )


def nested_word(p: int, q: int, s: int, depth: int, n: int) -> Construction:
    """Palindromic-height word 1^{A_1} 2^{A_2} ... 2^{B_2} 1^{B_1} packing
    the single-peak pattern 1^p 2 1^q.

    Heights rise 1..depth, peak at depth+1, and fall back to 1.  Level i
    gets weight p*alpha*(1-s*alpha)^(i-1) on the rising side and the same
    with q on the falling side, where alpha is the root from
    :func:`wordpack.density.alpha_root`; the geometric tail beyond
    ``depth`` (total weight (1-s*alpha)^depth) is assigned to the single
    peak block, so the weights sum to 1 and the letters to n exactly.
    With depth=1 the word degenerates to the three-block low-high-low
    shape.

    The exact count is sum_v C(A_v, p) * N_v * C(B_v, q) with N_v the
    number of letters exceeding v: the p leading pattern letters must come
    from the rising block at some level v, the q trailing ones from the
    falling block at the same level, and the peak letter from anywhere in
    between.
    """
    if p < 1 or q < 1:
        raise ValueError(f"need p, q >= 1, got p={p}, q={q}")
    if s != p + q:
        raise ValueError(f"need s = p + q, got s={s} but p+q={p + q}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    alpha, a = alpha_root(s)
    rising = [p * alpha * a ** (i - 1) for i in range(1, depth + 1)]
    falling = [q * alpha * a ** (i - 1) for i in range(1, depth + 1)]
    weights = rising + [a**depth] + falling[::-1]
    heights = list(range(1, depth + 1)) + [depth + 1] + list(range(depth, 0, -1))
    sizes = _apportion(weights, n)
    word = _block_word(sizes, heights, depth + 1)

    rise_sizes = sizes[: depth]
    peak = sizes[depth]
    fall_sizes = sizes[depth + 1 :][::-1]  # indexed by level 1..depth
    count = 0
    above = peak + sum(rise_sizes) + sum(fall_sizes)
    for v in range(1, depth + 1):
        above -= rise_sizes[v - 1] + fall_sizes[v - 1]
        count += comb(rise_sizes[v - 1], p) * above * comb(fall_sizes[v - 1], q)
    pattern = Pattern.classical((1,) * p + (2,) + (1,) * q)
    return Construction(
        word=word,
        recipe=f"nested(p={p}, q={q}, depth={depth}, n={n})",
        targets=(pattern,),
        predicted_counts=(count,),
        predicted_density=_exact_density(count, pattern, n),
    )


def layered_word(
    proportions: Sequence[WeightLike],
    n: int,
    mode: str = "permutation",
    target: Optional[Pattern] = None,
) -> Construction:
    """Materialize layer proportions as a concrete word of length n.

    ``mode="word"`` builds constant blocks with rising letters
    (1^{t_1} 2^{t_2} ...); ``mode="permutation"`` builds a layered
    permutation whose layers are decreasing runs.  Sizes come from
    cumulative rounding of the proportions; layers rounded to zero are
    dropped.

    When ``target`` is given it must be a classical layered pattern whose
    layer kinds match the mode (constant/single blocks for words,
    decreasing/single for permutations); the exact count is then the sum
    over strictly increasing assignments of pattern layers to word layers
    of the product of binomials C(t_u, p_j).
    """
    if mode not in ("word", "permutation"):
        raise ValueError(f"mode must be 'word' or 'permutation', got {mode!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    sizes = tuple(s for s in _apportion(proportions, n) if s > 0)

    if mode == "word":
        word = _block_word(sizes, range(1, len(sizes) + 1), len(sizes))
    else:
        letters = []
        top = 0
        for t in sizes:
            letters.extend(range(top + t, top, -1))
            top += t
        word = Word(tuple(letters), n)

    targets: Tuple[Pattern, ...] = ()
    counts: Tuple[int, ...] = ()
    density = None
    if target is not None:
        counts = (_layered_match_count(target, sizes, mode),)
        targets = (target,)
        density = _exact_density(counts[0], target, n)
    return Construction(
        word=word,
        recipe=f"layered-{mode}(layers={list(sizes)}, n={n})",
        targets=targets,
        predicted_counts=counts,
        predicted_density=density,
    )


def _layered_match_count(target: Pattern, sizes: Sequence[int], mode: str) -> int:
    """Exact count of a layered classical pattern in a layered word.

    Valid when every pattern layer embeds only within a single word layer
    and distinct pattern layers need strictly increasing word layers; the
    kind check below guarantees that.
    """
    if not target.is_classical:
        raise ValueError(f"no closed count for non-classical target {target}")
    shape = layered_decompose(target)
    if shape is None:
        raise ValueError(f"target {target} is not layered; no closed count")
    allowed = {KIND_SINGLE, KIND_CONSTANT} if mode == "word" else {KIND_SINGLE, KIND_DECREASING}
    if not set(shape.kinds) <= allowed:
        raise ValueError(
            f"target layer kinds {shape.kinds} do not embed in a layered {mode}"
        )
    ways = [1] + [0] * shape.r
    for t in sizes:
        for j in range(shape.r, 0, -1):
            ways[j] += ways[j - 1] * comb(t, shape.lengths[j - 1])
    return ways[shape.r]


def superpattern_word(l: int, m: int) -> Construction:
    """The word (12...l)^(m-1) 1 of length l(m-1)+1.

    It contains every length-m pattern on at most l distinct letters; the
    universality check lives in :mod:`wordpack.superpattern`.
    """
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    letters = tuple(range(1, l + 1)) * (m - 1) + (1,)
    return Construction(
        word=Word(letters, l),
        recipe=f"repeated-ascents-universal(l={l}, m={m})",
    )


def twelve_one_word(n: int, d: int) -> Construction:
    """d copies of "12" followed by n-2d ones, packing the pattern 12-1.

    Each adjacent rise contributes one occurrence per later 1, giving the
    exact count d(d-1)/2 + d(n-2d).
    """
    if d < 0 or 2 * d > n:
        raise ValueError(f"need 0 <= 2d <= n, got d={d}, n={n}")
    letters = (1, 2) * d + (1,) * (n - 2 * d)
    pattern = parse_pattern("12-1")
    count = d * (d - 1) // 2 + d * (n - 2 * d)
    return Construction(
        word=Word(letters, 2 if d else 1),
        recipe=f"rise-then-ones(n={n}, d={d})",
        targets=(pattern,),
        predicted_counts=(count,),
        predicted_density=_exact_density(count, pattern, n),
    )


def sqrt_layer_perm(n: int) -> Construction:
    """Layered permutation with about sqrt(n) layers of about sqrt(n) each.

    Perfect squares give exactly sqrt(n) layers of sqrt(n); otherwise the
    layer count is the integer whose square is nearest n (ties to the
    smaller) and the sizes are balanced by cumulative rounding.  The
    target is the adjacent-descent-then-rise pattern 21-3, whose exact
    count is sum_u (t_u - 1) * (letters in later layers).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    r = isqrt(n)
    if r * r != n and (n - r * r) > ((r + 1) ** 2 - n):
        r += 1
    sizes = _apportion((1,) * r, n)
    built = layered_word([Fraction(1, r)] * r, n, mode="permutation")
    assert f"layers={list(sizes)}" in built.recipe

    tails = [sum(sizes[u:]) for u in range(1, r + 1)]
    pattern = parse_pattern("21-3")
    count = sum((t - 1) * tail for t, tail in zip(sizes, tails))
    return Construction(
        word=built.word,
        recipe=f"square-balanced-layers(n={n}, layers={r})",
        targets=(pattern,),
        predicted_counts=(count,),
        predicted_density=_exact_density(count, pattern, n),
    )


def _exact_density(count: int, pattern: Pattern, n: int) -> Optional[Fraction]:
    denom = occurrence_denominator(pattern.m, pattern.b, n)
    return Fraction(count, denom) if denom else None
