"""Asymptotic packing densities of patterns in words.

Every routine here evaluates a closed form, brackets a polynomial root or
maximizes a polynomial, attached to a specific structural route:

* simple layered shapes: an exact product formula;
* two layers with a singleton: the root of k*a^(k+1) - (k+1)*a + 1, proven
  between two dyadic rationals by integer sign checks;
* ones-block / rise / ones-block patterns: a multinomial closed form, or for
  a single rise the coupled root of (1-s*x)^(s+1) = 1 - (s+1)*x, the same
  root after a = 1 - s*x;
* capped layer counts: maximization of the occurrence polynomial over the
  probability simplex by a monotone growth transform, run from every start
  at once as the rows of one array, the best eight then Newton-refined
  together in one batched solve, with multistart certification (ell and
  starts past CAP_BLOCK_FLOATS or CAP_MAX_FLOATS are refused);
* subword (all-adjacent) patterns: the minimal self-overlap shift M, whose
  reciprocal is the density.

Exact answers are Fractions; the single-rise bracket proves its error bound.
The classifier asymptotic_density picks the route from pattern structure
alone and refuses honestly when no route applies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, factorial, floor, ldexp, prod
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    KIND_MIXED,
    LayeredShape,
    Pattern,
    blocks,
    layered_decompose,
    symmetry_class,
)

Number = Union[Fraction, float]


class DensityRouteError(ValueError):
    """No implemented closed-form route applies to the input."""


@dataclass(frozen=True, eq=False)
class DensityValue:
    """A packing density with its provenance and any auxiliary quantities
    (roots, overlap shifts, layer caps, maximizing proportions)."""

    value: Number
    provenance: str
    error_bound: Optional[float] = None
    aux: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = float(self.value)
        slop = 0.0 if isinstance(self.value, Fraction) else 1e-9
        if not (-slop <= v <= 1 + slop):
            raise ValueError(f"density {v} out of [0, 1]")
        if not isinstance(self.value, Fraction) and self.error_bound is None:
            raise ValueError("non-exact density requires an error bound")

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Fraction)


def simple_layered_density(shape: LayeredShape) -> DensityValue:
    """Exact density of a layered permutation whose shape is simple:
    r + 1 <= 2^(min layer length).  Value m!/m^m * prod m_i^m_i/m_i!."""
    lengths = shape.lengths
    r, m = len(lengths), sum(lengths)
    if r + 1 > 2 ** min(lengths):
        raise DensityRouteError(
            f"simplicity criterion fails for shape {lengths}: "
            f"{r + 1} > 2^{min(lengths)}"
        )
    val = Fraction(factorial(m), m ** m)
    for part in lengths:
        val *= Fraction(part ** part, factorial(part))
    return DensityValue(val, "simple layered product formula", aux={"shape": lengths})


@lru_cache(maxsize=16)  # pqr_density reads it twice, through k1_density and alpha_root
def _single_rise_root(k: int) -> Tuple[int, int]:
    """Numerators lo < hi over 2^64 bracketing the root below 1/k of
    P(a) = k*a^(k+1) - (k+1)*a + 1 (k >= 2), proven by integer signs.

    P is convex on [0, 1] with P(0) = 1, P(1/k) = k^-k - 1/k < 0 and
    P(1) = 0, so P(lo) > 0 > P(hi) with k*hi <= 2^64 holds its one root
    below 1/k.  lo and hi widen, by about 2^-48 relative, 64 steps of the
    contraction a <- (1 + k*a^(k+1))/(k+1) from 1/(k+1) (k*a^k < 1/2)."""
    a = 1.0 / (k + 1)
    for _ in range(64):
        a = (1 + k * a ** (k + 1)) / (k + 1)
    lo = floor(ldexp(a * (1 - 2.0 ** -48), 64))
    hi = ceil(ldexp(a * (1 + 2.0 ** -48), 64))

    def scaled_p(x: int) -> int:  # P(x / 2^64) * 2^(64(k+1))
        return k * x ** (k + 1) - ((k + 1) * x << 64 * k) + (1 << 64 * (k + 1))

    if not (0 < lo < hi and k * hi <= 1 << 64 and scaled_p(lo) > 0 > scaled_p(hi)):
        raise AssertionError(f"single-rise root bracket [{lo}, {hi}]/2^64 fails for k={k}")
    return lo, hi


def k1_density(k: int) -> DensityValue:
    """Density of the pattern made of k equal letters followed by one
    larger letter: v(a) = k*a*(1-a)^(k-1) at the root a in (0, 1/k) of
    k*a^(k+1) - (k+1)*a + 1 (the root a=1 is always present and excluded).
    v rises on [0, 1/k] (v' = k(1-a)^(k-2)(1-k*a)), so the root's bracket
    gives v(lo) <= value <= v(hi), exact over 2^(64k); the float of their
    midpoint is within error_bound, proven.  aux["a"] is the bracket's
    midpoint, aux["residual"] |P(a)| in floats."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return DensityValue(Fraction(1), "two increasing letters pack perfectly")
    lo, hi = _single_rise_root(k)
    v_lo, v_hi = (k * x * ((1 << 64) - x) ** (k - 1) for x in (lo, hi))
    if (v_hi - v_lo) / (1 << 64 * k) >= 1e-14:
        raise AssertionError(f"single-rise value bracket too wide for k={k}")
    a = (lo + hi) / (1 << 65)
    return DensityValue(
        (v_lo + v_hi) / (1 << 64 * k + 1),
        "single-rise root formula",
        error_bound=1e-12,
        aux={"a": a, "k": k, "residual": abs(k * a ** (k + 1) - (k + 1) * a + 1)},
    )


def r_s_density(r: int, s: int) -> DensityValue:
    """Density of r equal low letters followed by s equal high letters:
    exact C(r+s, r) r^r s^s / (r+s)^(r+s) when r, s >= 2; a single
    low or high letter reroutes to the single-rise formula by symmetry."""
    if r < 1 or s < 1:
        raise ValueError("block lengths must be positive")
    if s == 1:
        return k1_density(r)
    if r == 1:
        dv = k1_density(s)
        return DensityValue(
            dv.value,
            "single-rise root formula (after reversal and complement)",
            error_bound=dv.error_bound,
            aux=dv.aux,
        )
    val = Fraction(comb(r + s, r) * r ** r * s ** s, (r + s) ** (r + s))
    return DensityValue(val, "two-block binomial formula", aux={"r": r, "s": s})


def alpha_root(s: int) -> Tuple[float, float]:
    """The nonzero root alpha in (0, 1/s) of (1-s*x)^(s+1) = 1-(s+1)*x,
    together with a = 1 - s*alpha.  Substituting a = 1 - s*x gives
    s*a^(s+1) - (s+1)*a + 1 = 0, the single-rise polynomial at k = s, so a
    is the float of _single_rise_root(s)'s midpoint, as in k1_density, and
    alpha the correctly rounded (1 - midpoint)/s."""
    if s < 2:
        raise ValueError("s must be at least 2")
    lo, hi = _single_rise_root(s)
    return ((1 << 65) - lo - hi) / (s << 65), (lo + hi) / (1 << 65)


def pqr_density(p: int, q: int, r: int) -> DensityValue:
    """Density of p low letters, r high letters, then q more low letters.

    For r >= 2 the value is the exact multinomial closed form
    multinomial(p+q+r; p, q, r) * p^p q^q r^r / (p+q+r)^(p+q+r).
    For r = 1 it is the two-block prefactor C(p+q, p) p^p q^q / (p+q)^(p+q)
    times the single-rise density at k = p + q; p = 0 or q = 0 is allowed
    in that route (but not both); its 1e-10 bound holds by k1_density's
    proven 1e-12 and two roundings.  alpha_root(s) feeds only aux.
    """
    if r < 1 or p < 0 or q < 0:
        raise ValueError("need r >= 1 and p, q >= 0")
    if p == 0 and q == 0:
        raise ValueError("p and q cannot both vanish (constant pattern)")
    if r >= 2:
        if p < 1 or q < 1:
            raise DensityRouteError(
                "zero-length outer block with r >= 2 is a two-block shape, "
                "not this route"
            )
        m = p + q + r
        multinom = factorial(m) // (factorial(p) * factorial(q) * factorial(r))
        val = Fraction(multinom * p ** p * q ** q * r ** r, m ** m)
        return DensityValue(
            val, "three-block multinomial formula", aux={"p": p, "q": q, "r": r}
        )
    s = p + q
    prefactor = Fraction(comb(s, p) * p ** p * q ** q, s ** s)
    if s == 1:
        return DensityValue(Fraction(1), "two increasing letters pack perfectly")
    base = k1_density(s)
    alpha, a = alpha_root(s)
    val = float(prefactor) * float(base.value)
    return DensityValue(
        val,
        "split single-rise formula",
        error_bound=1e-10,
        aux={"alpha": alpha, "a": a, "s": s, "prefactor": prefactor},
    )


#: every cap kernel call runs in row blocks of CAP_BLOCK_FLOATS // (C(ell, r)
#: * r * ell) rows (one at least), so its matmul's multiply-adds stay within
#: this (a larger one starts BLAS threads); ell is refused when the gradient's
#: index array, C(ell, r) * r^2 entries, exceeds it
CAP_BLOCK_FLOATS = 1 << 18
#: bound on the cap optimiser's starts and refinement arrays, in floats
CAP_MAX_FLOATS = 1 << 22


class _CapPolynomial:
    """The occurrence polynomial F of a layered shape on ell layers, and its
    gradient, evaluated at every row of a (points, ell) array from one
    table of p_j^e per point, e = 0..max m_i."""

    def __init__(self, lengths: Sequence[int], ell: int) -> None:
        self.r, self.m, self.ell = len(lengths), sum(lengths), ell
        subsets = np.array(list(itertools.combinations(range(ell), self.r)))
        self.multinom = factorial(self.m) // prod(map(factorial, lengths))
        self.powers = np.arange(max(lengths) + 1, dtype=np.float64)
        slots = subsets * len(self.powers)  # see _tables
        self.value_index = slots + lengths
        # [k, c, i]: slot k of subset c, its exponent lowered by one if k == i
        lowered = (lengths - np.eye(self.r, dtype=int)).T
        self.gradient_index = slots.T[:, :, None] + lowered[:, None, :]
        # row c*r + i carries multinom * m_i of slot i of subset c onto its layer
        self.incidence = np.zeros((subsets.size, ell))
        self.incidence[np.arange(subsets.size), subsets.ravel()] = np.tile(
            self.multinom * np.array(lengths, dtype=np.float64), len(subsets)
        )
        self.rows = max(1, CAP_BLOCK_FLOATS // (subsets.size * ell))

    def _tables(self, probs: np.ndarray):
        """Per row block, each point's p_j^e in column j * len(powers) + e."""
        for lo in range(0, max(len(probs), 1), self.rows):
            table = probs[lo : lo + self.rows, :, None] ** self.powers
            yield table.reshape(-1, self.ell * len(self.powers))

    def value(self, probs: np.ndarray) -> np.ndarray:
        return np.concatenate([
            self.multinom * np.prod(table[:, self.value_index], axis=2).sum(axis=1)
            for table in self._tables(probs)
        ])

    def gradient(self, probs: np.ndarray) -> np.ndarray:
        """Per slot, the subset products with that slot's exponent lowered
        by one (no division, so zero coordinates are exact), times the
        exponent, summed onto the layers by one matmul."""
        blocks = []
        for table in self._tables(probs):
            parts = table[:, self.gradient_index[0]]
            for index in self.gradient_index[1:]:
                parts *= table[:, index]
            blocks.append(parts.reshape(-1, len(self.incidence)) @ self.incidence)
        return np.concatenate(blocks)

    def step(self, probs: np.ndarray, fval: np.ndarray) -> np.ndarray:
        """One growth step p_j <- p_j dF_j / (m F) at every row."""
        nxt = probs * self.gradient(probs) / (self.m * fval[:, None])
        nxt = np.clip(nxt, 1e-300, None)
        return nxt / nxt.sum(axis=1, keepdims=True)

    def grow(self, probs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Run the growth loop from every row of probs at once, updating
        probs in place.  Each iteration makes two plain growth steps on
        every live row, then a safeguarded extrapolation (the plain map
        converges linearly; the extrapolated point is kept only when it
        does not lose ground).  A row leaves the live set when it stalls;
        none runs past 3000 iterations."""
        fval = self.value(probs)
        live = np.arange(len(probs))
        for _ in range(3000):
            if live.size == 0:
                break
            p, f = probs[live], fval[live]
            x1 = self.step(p, f)
            x2 = self.step(x1, self.value(x1))
            f2 = self.value(x2)
            move = x1 - p
            curv = (x2 - x1) - move
            denom = np.einsum("ij,ij->i", curv, curv)
            ext = np.flatnonzero(denom > 0)
            alpha = -np.sqrt(np.einsum("ij,ij->i", move[ext], move[ext]) / denom[ext])
            alpha = alpha[:, None]
            cand = p[ext] - 2 * alpha * move[ext] + alpha * alpha * curv[ext]
            cand = np.clip(cand, 1e-300, None)
            cand /= cand.sum(axis=1, keepdims=True)
            fcand = self.value(cand)
            keep = fcand > f2[ext]
            f2[ext[keep]], x2[ext[keep]] = fcand[keep], cand[keep]
            stalled = f2 - f <= 1e-17 * np.maximum(f, 1e-30)
            moved = ~stalled | (f2 > f)
            probs[live[moved]], fval[live[moved]] = x2[moved], f2[moved]
            live = live[~stalled]
        return fval, probs

    def refine(self, tops: np.ndarray, fvals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Newton-refine each top start on each nested support (its z largest
        masses, z = max(r, 2)..ell); keep per start the best of the start and
        its refined points, sizes in ascending order.  At a maximum inside a
        support's face the active partials coincide, so each (start, z)
        problem solves grad_a = grad_last with the last coordinate eliminated.
        Problems are rows over ell - 1 columns, head then padding (residual 0,
        identity Jacobian row).  Each step makes one gradient call at every
        live problem's point and its central differences along the head, one
        batched solve and one line search over 40 halvings.  A problem is
        dropped on a singular Jacobian, and when it stops unconverged (no
        halving moves it, or 60 steps) with a residual of 100 * tol or more."""
        ell, n, count = self.ell, self.ell - 1, len(tops)
        sizes = range(max(self.r, 2), ell + 1)
        if not sizes:
            return fvals, tops
        order = np.argsort(-tops, axis=1)
        perms, xs = [], []  # problem z_index * count + start; column n is its last
        for z in sizes:
            support = np.sort(order[:, :z], axis=1)
            sub = np.clip(np.take_along_axis(tops, support, axis=1), 1e-6, None)
            sub /= sub.sum(axis=1, keepdims=True)
            off = np.sort(order[:, z:], axis=1)
            perms.append(np.hstack([support[:, :-1], off, support[:, -1:]]))
            xs.append(np.hstack([sub[:, :-1], np.zeros_like(off, dtype=np.float64)]))
        perm, x = np.vstack(perms), np.vstack(xs)  # problem column -> layer
        unperm = np.argsort(perm, axis=1)
        head = np.arange(n) < np.repeat(np.asarray(sizes) - 1, count)[:, None]
        tol, h = 1e-12 * max(self.multinom, 1), 1e-7
        shifts = np.vstack([np.zeros(n), h * np.eye(n), -h * np.eye(n)])
        halvings = np.ldexp(1.0, -np.arange(40))[:, None]

        def residual(k: np.ndarray, points: np.ndarray) -> np.ndarray:
            """grad_a - grad_last at each row of points, a point of problem k[i]."""
            ys = np.hstack([points, 1.0 - points.sum(axis=1, keepdims=True)])
            g = self.gradient(np.take_along_axis(ys, unperm[k], axis=1))
            g = np.take_along_axis(g, perm[k], axis=1)
            return np.where(head[k], g[:, :-1] - g[:, -1:], 0.0)

        converged, dropped = np.zeros((2, len(x)), dtype=bool)
        live = np.arange(len(x))
        for _ in range(60):
            used = np.hstack([np.ones((live.size, 1), dtype=bool), head[live], head[live]])
            res = np.zeros(used.shape + (n,))
            res[used] = residual(live[np.nonzero(used)[0]], (x[live, None] + shifts)[used])
            done = np.abs(res[:, 0]).max(axis=1) < tol
            converged[live[done]] = True
            live, res = live[~done], res[~done]
            if live.size == 0:
                break
            jac = (res[:, 1 : n + 1] - res[:, n + 1 :]).transpose(0, 2, 1) / (2 * h)
            jac += np.eye(n) * ~head[live, None]
            try:
                delta = np.linalg.solve(jac, res[:, 0, :, None])[..., 0]
            except np.linalg.LinAlgError:  # some matrix is singular: solve one by one
                delta = np.zeros((live.size, n))
                for i, k in enumerate(live):
                    try:
                        delta[i] = np.linalg.solve(jac[i], res[i, 0])
                    except np.linalg.LinAlgError:
                        dropped[k] = True
            trial = x[live, None] - halvings * delta[:, None]  # padding stays 0
            ok = np.where(head[live, None], trial, 1.0).min(axis=2) > 0
            ok &= trial.sum(axis=2) < 1
            moved = ok.any(axis=1) & ~dropped[live]
            x[live[moved]] = trial[moved, ok[moved].argmax(axis=1)]
            live = live[moved]
        rest = np.flatnonzero(~converged & ~dropped)
        far = np.abs(residual(rest, x[rest])).max(axis=1) >= 100 * tol
        dropped[rest[far]] = True
        refined = np.take_along_axis(
            np.hstack([x, 1.0 - x.sum(axis=1, keepdims=True)]), unperm, axis=1
        )
        frefined = np.where(dropped, -np.inf, self.value(refined))
        best_f, best_x = fvals.copy(), tops.copy()
        for f, p in zip(frefined.reshape(-1, count), refined.reshape(-1, count, ell)):
            better = f > best_f
            best_f[better], best_x[better] = f[better], p[better]
        return best_f, best_x


def layered_density_cap(
    shape: LayeredShape, ell: int, starts: int = 64, seed: int = 12345
) -> DensityValue:
    """Packing density with the alphabet capped at ell layers: the maximum
    over the ell-simplex of the occurrence polynomial

        F(p) = multinomial(m; m_1..m_r) * sum_{j_1<...<j_r} prod p_{j_i}^{m_i}.

    Maximized with the growth transform p_j <- p_j dF_j / (m F), which is
    monotone for polynomials with nonnegative coefficients, from a fixed
    family of starts (three fixed, then ``starts`` Dirichlet draws).  The
    starts are the rows of one array, grown together; the best eight are
    then refined together by Newton steps on each nested support
    (_CapPolynomial.refine).  Kernel calls run in row blocks of at most
    CAP_BLOCK_FLOATS.  Certified when at least two independent starts
    agree to 1e-11.

    Before allocating anything, raises ValueError, its message opening
    with the argument at fault, when ell < r, when C(ell, r) * r^2 exceeds
    CAP_BLOCK_FLOATS, or when the refinement's arrays (under 16 * ell^3
    floats) or the starts ((starts + 3) * ell floats) exceed CAP_MAX_FLOATS."""
    lengths = shape.lengths
    r, m = len(lengths), sum(lengths)
    if ell < r or comb(ell, r) * r * r > CAP_BLOCK_FLOATS or 16 * ell ** 3 > CAP_MAX_FLOATS:
        raise ValueError(f"ell {ell}: need r <= ell, C(ell, r)*r^2 <= {CAP_BLOCK_FLOATS} "
                         f"and 16*ell^3 <= {CAP_MAX_FLOATS} (r = {r})")
    if (starts + 3) * ell > CAP_MAX_FLOATS:
        raise ValueError(f"starts {starts}: need (starts + 3)*ell <= {CAP_MAX_FLOATS} (ell = {ell})")
    poly = _CapPolynomial(lengths, ell)

    spike = np.full(ell, 1e-3)
    spike[:r] += 1.0
    weighted = np.full(ell, 1e-3)
    weighted[:r] += lengths
    points = np.vstack([
        np.full(ell, 1.0 / ell),
        spike / spike.sum(),
        weighted / weighted.sum(),
        np.random.default_rng(seed).dirichlet(np.ones(ell), size=starts),
    ])
    points = np.clip(points, 1e-12, None)
    points /= points.sum(axis=1, keepdims=True)

    fvals, grown = poly.grow(points)
    order = np.argsort(-fvals, kind="stable")
    fvals, grown = fvals[order], grown[order]
    fvals[:8], grown[:8] = poly.refine(grown[:8], fvals[:8])
    order = np.argsort(-fvals, kind="stable")
    best, best_p = float(fvals[order[0]]), grown[order[0]]
    agreeing = int(np.sum(best - fvals <= 1e-11))
    if agreeing < 2:
        raise RuntimeError(
            f"multistart disagreement: best {best}, runner-up "
            f"{float(fvals[order[1]]) if len(fvals) > 1 else None}"
        )
    grad = poly.gradient(best_p[None])[0]
    support = best_p > 1e-7
    kkt = float(np.max(np.abs(grad[support] / (m * best) - 1.0)))
    return DensityValue(
        min(best, 1.0),
        "simplex cap via growth transform (multistart certified)",
        error_bound=1e-9,
        aux={
            "ell": ell,
            "shape": lengths,
            "proportions": tuple(float(x) for x in best_p),
            "agreeing_starts": agreeing,
            "kkt_residual": kkt,
        },
    )


def _monotone_counterpart(lengths: Sequence[int]) -> Pattern:
    letters = []
    for i, a in enumerate(lengths, start=1):
        letters.extend([i] * a)
    return Pattern(tuple(letters), frozenset())


def _overlap_formula(multiplicities: Sequence[int]) -> int:
    """Minimal self-overlap shift of the monotone nondecreasing subword
    pattern with the given block multiplicities a_1..a_l."""
    a = tuple(multiplicities)
    l = len(a)
    if l < 2:
        raise ValueError("constant patterns have no overlap formula")
    for j in range(1, l - 1):
        if (
            a[0] <= a[j]
            and all(a[i - 1] == a[i + j - 1] for i in range(2, l - j))
            and a[l - j - 1] >= a[l - 1]
        ):
            return sum(a[1 : j + 1])
    return max(a[0], a[l - 1]) + sum(a[1 : l - 1])


def _overlap_consistent(letters: Tuple[int, ...], s: int) -> bool:
    """Can some word of length m+s have both its length-m prefix and its
    length-m suffix flatten to the given letters?  Union equal pairs, then
    check the strict-inequality graph on classes is acyclic."""
    m = len(letters)
    total = m + s
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    pairs = list(itertools.combinations(range(m), 2))
    for i, j in pairs:
        if letters[i] == letters[j]:
            union(i, j)
            union(i + s, j + s)
    edges = set()
    for i, j in pairs:
        if letters[i] < letters[j]:
            edges.add((i, j))
            edges.add((i + s, j + s))
        elif letters[i] > letters[j]:
            edges.add((j, i))
            edges.add((j + s, i + s))
    graph: Dict[int, List[int]] = {}
    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        graph.setdefault(rx, []).append(ry)
    color: Dict[int, int] = {}

    def has_cycle(v: int) -> bool:
        color[v] = 1
        for w in graph.get(v, ()):
            c = color.get(w, 0)
            if c == 1:
                return True
            if c == 0 and has_cycle(w):
                return True
        color[v] = 2
        return False

    return not any(color.get(v, 0) == 0 and has_cycle(v) for v in list(graph))


def _overlap_oracle(letters: Tuple[int, ...]) -> int:
    for s in range(1, len(letters) + 1):
        if _overlap_consistent(letters, s):
            return s
    raise AssertionError("shift m always overlaps")  # pragma: no cover


def m_overlap(p: Pattern) -> Tuple[Optional[int], int]:
    """Minimal self-overlap shift of a subword pattern: (formula, oracle).

    The formula route applies to monotone nondecreasing nonconstant
    patterns; elsewhere it is None.  The oracle searches shifts directly
    and is authoritative.  The packing density of the pattern is 1/shift.
    """
    if not p.is_subword:
        raise ValueError("overlap shifts are defined for subword patterns")
    if p.is_constant:
        raise ValueError("constant patterns are handled upstream (density 1)")
    formula: Optional[int] = None
    if all(x <= y for x, y in zip(p.letters, p.letters[1:])):
        formula = _overlap_formula(blocks(p))
    return formula, _overlap_oracle(p.letters)


def gen_layered_density(p: Pattern) -> DensityValue:
    """Density of a layered subword pattern: reduce each layer to a block
    of equal letters and take 1/shift of the monotone counterpart."""
    if not p.is_subword:
        raise ValueError("this route handles subword patterns")
    shape = layered_decompose(p)
    if shape is None:
        raise DensityRouteError(f"{p} is not layered; no closed form is known")
    if KIND_MIXED in shape.kinds:
        raise DensityRouteError(
            f"{p} has a layer that mixes ties and descents; no closed form"
        )
    if shape.r == 1:
        return DensityValue(
            Fraction(1),
            "single-layer subword packs perfectly",
            aux={"shift": 1, "shape": shape.lengths},
        )
    counterpart = _monotone_counterpart(shape.lengths)
    formula, oracle = m_overlap(counterpart)
    if formula is not None and formula != oracle:
        raise AssertionError(
            f"overlap formula {formula} != oracle {oracle} for {counterpart}"
        )
    return DensityValue(
        Fraction(1, oracle),
        "layer-to-block reduction, reciprocal overlap shift",
        aux={"shift": oracle, "shape": shape.lengths},
    )


#: shapes whose density is imported from the permutation-packing literature
#: (two adjacent singleton layers merge with the doubled layer's behavior)
_IMPORTED_SHAPES: Dict[Tuple[int, ...], Fraction] = {
    (1, 1, 2): Fraction(3, 8),
    (2, 1, 1): Fraction(3, 8),
}


def _classical_layered_route(shape: LayeredShape) -> DensityValue:
    lengths = shape.lengths
    r = len(lengths)
    if all(a == 1 for a in lengths):
        return DensityValue(
            Fraction(1), "monotone pattern packs perfectly", aux={"shape": lengths}
        )
    if r == 2 and lengths[1] == 1:
        dv = k1_density(lengths[0])
        return DensityValue(
            dv.value, dv.provenance, dv.error_bound, dict(dv.aux, shape=lengths)
        )
    if r == 2 and lengths[0] == 1:
        dv = k1_density(lengths[1])
        return DensityValue(
            dv.value,
            "single-rise root formula (after reversal)",
            dv.error_bound,
            dict(dv.aux, shape=lengths),
        )
    if r + 1 <= 2 ** min(lengths):
        dv = simple_layered_density(shape)
        return dv
    if lengths in _IMPORTED_SHAPES:
        return DensityValue(
            _IMPORTED_SHAPES[lengths],
            "merged-singleton reduction (literature value)",
            aux={"shape": lengths},
        )
    raise DensityRouteError(
        f"no closed-form route for layered shape {lengths}; "
        "layered_density_cap gives certified lower bounds"
    )


def _pqr_shape(letters: Tuple[int, ...]) -> Optional[Tuple[int, int, int]]:
    """Match 1^p 2^r 1^q with p, q >= 1 and r >= 1."""
    m = len(letters)
    if set(letters) != {1, 2}:
        return None
    p = 0
    while p < m and letters[p] == 1:
        p += 1
    r = 0
    while p + r < m and letters[p + r] == 2:
        r += 1
    q = m - p - r
    if p >= 1 and r >= 1 and q >= 1 and all(v == 1 for v in letters[p + r :]):
        return p, q, r
    return None


def asymptotic_density(p: Pattern) -> DensityValue:
    """Classify the pattern and evaluate its asymptotic packing density by
    the applicable closed-form route; raises DensityRouteError when no
    route is known (e.g. partially hyphenated patterns)."""
    if p.is_constant:
        return DensityValue(Fraction(1), "constant pattern packs perfectly")
    if p.is_subword:
        return gen_layered_density(p)
    if not p.is_classical:
        raise DensityRouteError(
            f"no closed-form route for partially hyphenated {p}; "
            "finite search gives exact values at each (k, n)"
        )
    candidates = symmetry_class(p, include_inverse=p.is_permutation)
    for q in candidates:
        shape = layered_decompose(q)
        if shape is not None and KIND_MIXED not in shape.kinds:
            try:
                return _classical_layered_route(shape)
            except DensityRouteError:
                pass
    for q in candidates:
        pqr = _pqr_shape(q.letters)
        if pqr is not None:
            return pqr_density(*pqr)
    raise DensityRouteError(f"no closed-form route known for {p}")


def three_letter_table() -> Dict[str, DensityValue]:
    """Density of every three-letter classical pattern, one row per
    symmetry-class representative."""
    two_rise = k1_density(2)
    return {
        "111": DensityValue(Fraction(1), "constant pattern packs perfectly"),
        "112": two_rise,
        "121": pqr_density(1, 1, 1),
        "123": DensityValue(Fraction(1), "monotone pattern packs perfectly"),
        "132": DensityValue(
            two_rise.value,
            "single-rise root formula (after layer reduction)",
            two_rise.error_bound,
            dict(two_rise.aux),
        ),
    }
