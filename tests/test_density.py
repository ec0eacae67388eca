"""Closed-form densities, root solvers, the simplex cap, overlap shifts."""

from __future__ import annotations

import decimal
import math
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from wordpack import density
from wordpack.core import LayeredShape, parse_pattern
from wordpack.density import (
    DensityRouteError,
    DensityValue,
    alpha_root,
    asymptotic_density,
    gen_layered_density,
    k1_density,
    layered_density_cap,
    m_overlap,
    pqr_density,
    r_s_density,
    simple_layered_density,
    three_letter_table,
)

TWO_RISE = 2 * math.sqrt(3) - 3


def monotone_compositions(m):
    for cuts in product([0, 1], repeat=m - 1):
        parts, cur = [], 1
        for c in cuts:
            if c:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        yield tuple(parts)


class TestDensityValue:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            DensityValue(Fraction(3, 2), "bogus")

    def test_inexact_requires_error_bound(self):
        with pytest.raises(ValueError):
            DensityValue(0.5, "bogus")

    def test_exact_flag(self):
        assert DensityValue(Fraction(1, 2), "x").exact
        assert not DensityValue(0.5, "x", error_bound=1e-9).exact


class TestSimpleLayered:
    def test_two_two(self):
        assert simple_layered_density(LayeredShape((2, 2))).value == Fraction(3, 8)

    def test_two_two_two(self):
        val = simple_layered_density(LayeredShape((2, 2, 2))).value
        assert val == Fraction(720 * 8, 6 ** 6)

    def test_criterion_refusal(self):
        with pytest.raises(DensityRouteError):
            simple_layered_density(LayeredShape((1, 2)))
        with pytest.raises(DensityRouteError):
            simple_layered_density(LayeredShape((1, 1, 2)))


class TestSingleRise:
    def test_k2_closed_form(self):
        dv = k1_density(2)
        assert abs(dv.value - TWO_RISE) < 1e-13
        assert abs(dv.aux["a"] - (math.sqrt(3) - 1) / 2) < 1e-13

    def test_k1_exact(self):
        assert k1_density(1).value == Fraction(1)

    def test_residuals(self):
        for k in range(2, 12):
            dv = k1_density(k)
            a = dv.aux["a"]
            assert abs(k * a ** (k + 1) - (k + 1) * a + 1) <= 1e-12
            assert 0 < a < 1
            assert 0 < dv.value < 1

    def test_monotone_decreasing_in_k(self):
        vals = [float(k1_density(k).value) for k in range(2, 10)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("k", [*range(2, 13), 100_000])
    def test_within_error_bound_of_decimal_bisection(self, k):
        """An 80-digit decimal bisection of k*a^(k+1) - (k+1)*a + 1 on
        [0, 1/k], then k*a*(1-a)^(k-1) at the last midpoint: the float value
        lies within its stated error bound.  At k = 100,000 a float
        evaluation of (1-a)^(k-1) alone errs by about 2e-12."""
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            kd, lo, hi = Decimal(k), Decimal(0), 1 / Decimal(k)
            for _ in range(280):
                mid = (lo + hi) / 2
                if kd * mid ** (k + 1) - (kd + 1) * mid + 1 > 0:
                    lo = mid
                else:
                    hi = mid
            a = (lo + hi) / 2
            want = kd * a * (1 - a) ** (k - 1)
            dv = k1_density(k)
            assert abs(Decimal(dv.value) - want) <= Decimal(dv.error_bound), k


class TestTwoBlock:
    def test_exact_values(self):
        assert r_s_density(2, 2).value == Fraction(3, 8)
        assert r_s_density(2, 3).value == Fraction(216, 625)
        assert r_s_density(3, 2).value == Fraction(216, 625)

    def test_reroute_to_single_rise(self):
        assert abs(r_s_density(2, 1).value - TWO_RISE) < 1e-12
        assert abs(r_s_density(1, 2).value - TWO_RISE) < 1e-12

    def test_symmetry(self):
        for r in range(2, 5):
            for s in range(2, 5):
                assert r_s_density(r, s).value == r_s_density(s, r).value


class TestThreeBlock:
    def test_exact_values(self):
        assert pqr_density(1, 1, 2).value == Fraction(3, 16)
        assert pqr_density(2, 2, 2).value == Fraction(90 * 64, 6 ** 6)

    def test_symmetric_in_p_q(self):
        assert pqr_density(1, 2, 2).value == pqr_density(2, 1, 2).value

    def test_single_rise_route(self):
        dv = pqr_density(1, 1, 1)
        assert abs(dv.value - (math.sqrt(3) - 1.5)) < 1e-10
        assert dv.error_bound <= 1e-10
        assert abs(pqr_density(0, 2, 1).value - TWO_RISE) < 1e-12

    def test_single_rise_route_brackets_the_root_once(self):
        """k1_density and alpha_root both read the bracket at s = p + q;
        pqr_density computes it once."""
        for p, q in [(1, 1), (0, 2), (2, 3), (40, 60)]:
            density._single_rise_root.cache_clear()
            pqr_density(p, q, 1)
            assert density._single_rise_root.cache_info().misses == 1, (p, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            pqr_density(0, 0, 3)
        with pytest.raises(DensityRouteError):
            pqr_density(0, 2, 2)


class TestAlphaRoot:
    def test_coupling_to_single_rise(self):
        for s in range(2, 9):
            alpha, a = alpha_root(s)
            assert a == k1_density(s).aux["a"], s

    def test_series_approximation(self):
        for s in range(3, 9):
            alpha, _ = alpha_root(s)
            approx = 1 / (s + 1) - (s + 1) ** (-(s + 2))
            assert abs(alpha - approx) <= 4 ** -6, s

    def test_domain(self):
        for s in range(2, 9):
            alpha, a = alpha_root(s)
            assert 0 < alpha < 1 / s and 0 < a < 1
        with pytest.raises(ValueError):
            alpha_root(1)


class TestLayeredCap:
    def test_two_one_at_two(self):
        dv = layered_density_cap(LayeredShape((2, 1)), 2)
        assert abs(dv.value - 4 / 9) < 1e-9
        props = sorted(dv.aux["proportions"], reverse=True)
        assert abs(props[0] - 2 / 3) < 1e-6

    def test_two_two_at_two(self):
        dv = layered_density_cap(LayeredShape((2, 2)), 2)
        assert abs(dv.value - 3 / 8) < 1e-9

    def test_one_two_reversal_symmetry(self):
        a = layered_density_cap(LayeredShape((1, 2)), 2).value
        assert abs(a - 4 / 9) < 1e-9

    def test_sequence_never_exceeds_limit(self):
        for ell in (2, 3, 5):
            dv = layered_density_cap(LayeredShape((2, 2)), ell)
            assert dv.value <= 3 / 8 + 1e-9
            assert dv.value >= 3 / 8 - 1e-9

    def test_cap_needs_enough_layers(self):
        with pytest.raises(ValueError):
            layered_density_cap(LayeredShape((2, 2)), 1)

    def test_cross_validates_single_rise(self):
        dv = layered_density_cap(LayeredShape((3, 1)), 14, starts=12)
        assert abs(dv.value - k1_density(3).value) < 1e-4

    def test_deterministic(self):
        a = layered_density_cap(LayeredShape((2, 1)), 3)
        b = layered_density_cap(LayeredShape((2, 1)), 3)
        assert a.value == b.value and a.aux == b.aux

    @pytest.mark.parametrize(
        "r, ell", [(2, ell) for ell in range(2, 7)] + [(3, ell) for ell in range(3, 7)]
    )
    def test_all_ones_shape_peaks_at_the_uniform_point(self, r, ell):
        """F = r! e_r(p), so by Maclaurin's inequality the maximum is
        r! C(ell, r) / ell^r, taken at the uniform point."""
        dv = layered_density_cap(LayeredShape((1,) * r), ell)
        want = math.factorial(r) * math.comb(ell, r) / ell ** r
        assert abs(dv.value - want) <= 1e-12

    def test_row_blocks_do_not_change_the_result(self, monkeypatch):
        """Growing the starts a few rows at a time, a short last block
        included, gives the one-block value and agreement."""
        for lengths, ell in (((2, 1, 1), 4), ((2, 2), 6), ((1, 2), 3)):
            whole = layered_density_cap(LayeredShape(lengths), ell)
            r = len(lengths)
            per_row = math.comb(ell, r) * r * r
            for rows in (1, 5):
                monkeypatch.setattr(density, "CAP_BLOCK_FLOATS", rows * per_row)
                part = layered_density_cap(LayeredShape(lengths), ell)
                assert abs(part.value - whole.value) <= 1e-12
                assert part.aux["agreeing_starts"] == whole.aux["agreeing_starts"]
            monkeypatch.undo()

    @pytest.mark.parametrize("lengths, ell", [((2, 1, 1), 4), ((2, 2), 6), ((1, 2), 3)])
    def test_batch_does_not_change_a_refinement(self, monkeypatch, lengths, ell):
        """Refining each of the top eight starts alone, or all eight under
        kernel blocks of 1 or 5 rows, gives the value and point of refining
        all eight together in one block.  The grown starts are already at
        the maximum here, so the same must hold for eight seeded Dirichlet
        points, which the refinement improves with halved steps."""
        seen = []
        refine = density._CapPolynomial.refine

        def spy(poly, tops, fvals):
            seen.append((tops.copy(), fvals.copy()))
            return refine(poly, tops, fvals)

        monkeypatch.setattr(density._CapPolynomial, "refine", spy)
        layered_density_cap(LayeredShape(lengths), ell)
        monkeypatch.undo()
        assert len(seen) == 1
        rough = np.random.default_rng(5).dirichlet(np.ones(ell), size=8)
        seen.append((rough, density._CapPolynomial(lengths, ell).value(rough)))
        per_row = math.comb(ell, len(lengths)) * len(lengths) * ell
        for tops, fvals in seen:
            want_f, want_x = density._CapPolynomial(lengths, ell).refine(tops, fvals)
            alone = [density._CapPolynomial(lengths, ell).refine(tops[i : i + 1], fvals[i : i + 1])
                     for i in range(8)]
            results = [(np.concatenate([f for f, _ in alone]), np.vstack([x for _, x in alone]))]
            for rows in (1, 5):
                monkeypatch.setattr(density, "CAP_BLOCK_FLOATS", rows * per_row)
                poly = density._CapPolynomial(lengths, ell)
                assert poly.rows == rows
                results.append(poly.refine(tops, fvals))
            monkeypatch.undo()
            for f, x in results:
                assert np.max(np.abs(f - want_f)) <= 1e-15
                assert np.max(np.abs(x - want_x)) <= 1e-15
        assert np.sum(want_f > fvals) >= 6  # the Dirichlet points, refined last


def _direct_gradient(lengths, probs):
    """dF/dp_j summed subset by subset: m_i p_j^(m_i - 1) times the other
    slots' powers, for every subset holding layer j in slot i."""
    multinom = math.factorial(sum(lengths))
    for part in lengths:
        multinom //= math.factorial(part)
    grad = [0.0] * len(probs)
    for subset in combinations(range(len(probs)), len(lengths)):
        for i, j in enumerate(subset):
            others = math.prod(
                probs[k] ** e for s, (k, e) in enumerate(zip(subset, lengths)) if s != i
            )
            grad[j] += multinom * lengths[i] * probs[j] ** (lengths[i] - 1) * others
    return grad


class TestCapGradient:
    SHAPES = (((2, 1, 3), 6), ((1, 1), 4), ((3,), 3), ((2, 2), 5), ((1, 2, 1, 1), 6))

    def check(self, lengths, points):
        got = density._CapPolynomial(lengths, points.shape[1]).gradient(points)
        for row, grad in zip(points, got):
            want = _direct_gradient(lengths, list(row))
            for g, w in zip(grad, want):
                assert abs(g - w) <= 1e-13 * abs(w), (lengths, row)

    @pytest.mark.parametrize("lengths, ell", SHAPES)
    def test_random_points(self, lengths, ell):
        rng = np.random.default_rng(2024)
        self.check(lengths, rng.dirichlet(np.ones(ell), size=20))

    @pytest.mark.parametrize("lengths, ell", SHAPES)
    def test_points_with_zero_coordinates(self, lengths, ell):
        """The points _CapPolynomial.refine builds: zero off a support,
        the last support coordinate taking the remainder."""
        rng = np.random.default_rng(7)
        points = np.zeros((2 * ell, ell))
        for row in points:
            support = np.sort(rng.choice(ell, size=rng.integers(1, ell + 1), replace=False))
            row[support[:-1]] = rng.uniform(0, 1 / ell, size=support.size - 1)
            row[support[-1]] = 1.0 - row.sum()
        self.check(lengths, points)


class TestCapValue:
    @pytest.mark.parametrize(
        "lengths, ell", [((3,), 4), ((2, 1), 5), ((1, 3, 2), 6), ((2, 1, 1, 2), 7)]
    )
    def test_power_table_is_exact(self, lengths, ell):
        """The value read from the table of p_j^e equals, bit for bit, the
        products of the powers raised subset by subset, at points with
        exact zeros and 1e-300 entries."""
        rng = np.random.default_rng(31)
        points = rng.dirichlet(np.ones(ell), size=40)
        points[rng.random(points.shape) < 0.2] = 0.0
        points[rng.random(points.shape) < 0.2] = 1e-300
        poly = density._CapPolynomial(lengths, ell)
        subsets = np.array(list(combinations(range(ell), len(lengths))))
        powers = points[:, subsets] ** np.array(lengths, dtype=np.float64)
        want = poly.multinom * np.prod(powers, axis=2).sum(axis=1)
        assert np.array_equal(poly.value(points), want)


class TestOverlap:
    def test_anchors(self):
        assert m_overlap(parse_pattern("112g")) == (2, 2)
        assert m_overlap(parse_pattern("123g")) == (1, 1)
        formula, oracle = m_overlap(parse_pattern("1432g"))
        assert formula is None and oracle == 3

    def test_formula_equals_oracle_small(self):
        for m in range(2, 7):
            for comp in monotone_compositions(m):
                if len(comp) < 2:
                    continue
                letters = []
                for i, a in enumerate(comp, 1):
                    letters.extend([i] * a)
                text = "".join(map(str, letters)) + "g"
                formula, oracle = m_overlap(parse_pattern(text))
                assert formula == oracle, comp

    def test_rejections(self):
        with pytest.raises(ValueError):
            m_overlap(parse_pattern("111g"))
        with pytest.raises(ValueError):
            m_overlap(parse_pattern("123"))


class TestGenLayered:
    def test_anchors(self):
        assert gen_layered_density(parse_pattern("132g")).value == Fraction(1, 2)
        assert gen_layered_density(parse_pattern("112g")).value == Fraction(1, 2)
        assert gen_layered_density(parse_pattern("1432g")).value == Fraction(1, 3)
        assert gen_layered_density(parse_pattern("1112g")).value == Fraction(1, 3)
        assert gen_layered_density(parse_pattern("21g")).value == Fraction(1)

    def test_refusals(self):
        with pytest.raises(DensityRouteError):
            gen_layered_density(parse_pattern("2413g"))
        with pytest.raises(DensityRouteError):
            gen_layered_density(parse_pattern("221g"))  # mixed layer


class TestClassifier:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("111", Fraction(1)),
            ("123", Fraction(1)),
            ("321", Fraction(1)),
            ("1122", Fraction(3, 8)),
            ("2143", Fraction(3, 8)),
            ("2211", Fraction(3, 8)),
            ("1221", Fraction(3, 16)),
            ("1123", Fraction(3, 8)),
            ("1233", Fraction(3, 8)),
            ("1243", Fraction(3, 8)),
        ],
    )
    def test_exact_routes(self, text, value):
        assert asymptotic_density(parse_pattern(text)).value == value

    @pytest.mark.parametrize(
        "text,value",
        [
            ("112", TWO_RISE),
            ("211", TWO_RISE),
            ("132", TWO_RISE),
            ("213", TWO_RISE),
            ("121", TWO_RISE / 2),
            ("212", TWO_RISE / 2),
        ],
    )
    def test_root_routes(self, text, value):
        got = asymptotic_density(parse_pattern(text))
        assert abs(float(got.value) - value) < 1e-10

    @pytest.mark.parametrize("text", ["12-1", "1342", "2413", "11-2"])
    def test_refusals(self, text):
        with pytest.raises(DensityRouteError):
            asymptotic_density(parse_pattern(text))

    def test_subword_dispatch(self):
        assert asymptotic_density(parse_pattern("132g")).value == Fraction(1, 2)
        assert asymptotic_density(parse_pattern("111g")).value == Fraction(1)


class TestThreeLetterTable:
    def test_rows(self):
        table = three_letter_table()
        assert set(table) == {"111", "112", "121", "123", "132"}
        assert table["111"].value == 1 and table["123"].value == 1
        assert abs(float(table["112"].value) - TWO_RISE) < 1e-12
        assert abs(float(table["132"].value) - TWO_RISE) < 1e-12
        assert abs(float(table["121"].value) - TWO_RISE / 2) < 1e-12

    def test_four_decimal_rendering(self):
        table = three_letter_table()
        assert f"{float(table['112'].value):.4f}" == "0.4641"
