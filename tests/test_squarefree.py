"""Squarefree counts in progressions, their density constants, the weighted
sums with their predicted main terms, and the balanced counterexample series."""

import math
from math import gcd

import pytest

from ramanujan_cloud import (
    balanced_series_demo,
    catalog,
    count_squarefree_in_ap,
    factorize,
    hooley_constant,
    mobius,
    weighted_squarefree_sum,
)
from ramanujan_cloud.expansion import _value_table


def balanced_table(s, limit):
    """h(0..limit) of the lemma7_h entry, the table the balanced demo sums."""
    return _value_table(catalog("lemma7_h", s=s), limit)


def brute_count(x: int, m: int, r: int) -> int:
    def squarefree(n):
        d = 2
        while d * d <= n:
            if n % (d * d) == 0:
                return False
            d += 1
        return True

    return sum(1 for q in range(1, x + 1) if q % m == r % m and squarefree(q))


class TestCounting:
    def test_first_ten(self):
        # squarefree q <= 10: {1, 2, 3, 5, 6, 7, 10}
        assert count_squarefree_in_ap(10, 1, 1) == 7

    def test_empty_range(self):
        assert count_squarefree_in_ap(1, 3, 2) == 0

    def test_requires_reduced_class(self):
        with pytest.raises(ValueError):
            count_squarefree_in_ap(100, 4, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_against_brute_force(self, m):
        for r in range(1, m + 1):
            if gcd(r, m) != 1:
                continue
            for x in (1, 17, 100, 500):
                assert count_squarefree_in_ap(x, m, r) == brute_count(x, m, r)


class TestDensityConstant:
    def test_closed_values(self):
        base = 6 / math.pi**2
        assert hooley_constant(1) == pytest.approx(base)
        assert hooley_constant(2) == pytest.approx(2 / 3 * base)
        assert hooley_constant(4) == pytest.approx(1 / 3 * base)

    def test_depends_on_radical_only_times_m(self):
        # c(m) = c(radical part) scaled by 1/m, so m and 2m with the same
        # prime support differ by exactly a factor 2.
        assert hooley_constant(8) == pytest.approx(hooley_constant(4) / 2)

    def test_empirical_density(self):
        x = 100_000
        for m, r in ((1, 1), (2, 1), (3, 2), (4, 3), (6, 5)):
            count = count_squarefree_in_ap(x, m, r)
            assert count / x == pytest.approx(hooley_constant(m), rel=0.02)

    def test_even_class_mass_by_subtraction(self):
        # 2 mod 4 is not a reduced class; its squarefree mass is the total
        # minus the odd class, and lands on the same constant as each
        # reduced class mod 4.
        x = 1_000_000
        even = count_squarefree_in_ap(x, 1, 1) - count_squarefree_in_ap(x, 2, 1)
        assert even / x == pytest.approx(hooley_constant(4), rel=0.01)


class TestWeightedSum:
    def test_empty_window(self):
        assert weighted_squarefree_sum(0.6, 2, 1, 7, 7) == (0.0, 0.0)

    def test_against_enumeration(self):
        s, m, r, y, x = 0.7, 3, 2, 10, 400
        computed, _ = weighted_squarefree_sum(s, m, r, y, x)
        direct = sum(
            q**-s
            for q in range(y + 1, x + 1)
            if q % m == r and mobius(q) != 0
        )
        assert computed == pytest.approx(direct, rel=1e-12)

    def test_prediction_tracks_computation(self):
        # The error scales like y^(1/2 - sigma); 0.5 is a comfortable bound
        # for the fitted constant (measured values sit near 0.03-0.05).
        for m, r, y, x in ((2, 1, 1000, 100_000), (1, 1, 1000, 100_000), (4, 3, 1000, 50_000)):
            computed, predicted = weighted_squarefree_sum(0.6, m, r, y, x)
            assert abs(computed - predicted) <= 0.5 * y ** (0.5 - 0.6)

    def test_from_zero_start(self):
        computed, predicted = weighted_squarefree_sum(0.6, 1, 1, 0, 10_000)
        assert computed == pytest.approx(predicted, rel=0.01)
        assert predicted == pytest.approx(hooley_constant(1) * 10_000**0.4 / 0.4)

    def test_complex_s(self):
        s = complex(0.7, 0.3)
        computed, predicted = weighted_squarefree_sum(s, 2, 1, 1000, 50_000)
        assert abs(computed - predicted) <= 0.5 * 1000 ** (0.5 - 0.7)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_squarefree_sum(1, 2, 1, 0, 10)
        with pytest.raises(ValueError):
            weighted_squarefree_sum(0.4, 2, 1, 0, 10)
        with pytest.raises(ValueError):
            weighted_squarefree_sum(0.6, 4, 2, 0, 10)
        with pytest.raises(ValueError):
            weighted_squarefree_sum(0.6, 2, 1, 10, 5)

    def test_zero_modulus_is_rejected(self):
        # gcd(1, 0) = 1 lets m = 0 past the coprimality check; it must not
        # reach q % m.
        with pytest.raises(ValueError, match="m must be >= 1"):
            weighted_squarefree_sum(0.6, 0, 1, 0, 10)


class TestBalancedSeries:
    def test_values_match_prime_power_rule(self):
        # Two constructions: the sieved table versus the pointwise
        # multiplicative extension of h(2) = -2*2^(-s), h(p) = p^(-s),
        # h(p^k) = 0.
        s = 0.6
        vals = balanced_table(s, 10_000)
        h = catalog("lemma7_h", s=s)
        for q in range(1, 10_001):
            assert vals[q] == pytest.approx(h.eval(q), abs=1e-12)

    def test_supported_on_squarefree(self):
        vals = balanced_table(0.6, 2000)
        for q in range(1, 2001):
            if mobius(q) == 0:
                assert vals[q] == 0

    def test_doubling_identity(self):
        # h(2r) = -2^(1-s) h(r) for every odd squarefree r <= 10^4 (i.e.
        # h(2r) = -2 (2r)^(-s) mu^2(2r)); h(4r) = 0 always.
        s = 0.6
        vals = balanced_table(s, 20_000)
        for r in range(1, 10_001, 2):
            if mobius(r) == 0:
                continue
            assert vals[2 * r] == pytest.approx(-(2 ** (1 - s)) * vals[r], rel=1e-12)
            assert vals[2 * r] == pytest.approx(-2 * (2 * r) ** -s, rel=1e-12)
        for r in range(1, 5001):
            assert vals[4 * r] == 0

    def test_even_values_negated_and_doubled(self):
        s = 0.6
        vals = balanced_table(s, 1000)
        for q in range(1, 1001):
            mu2 = mobius(q) ** 2
            expected = mu2 * q**-s * (-2 if q % 2 == 0 else 1)
            assert vals[q] == pytest.approx(expected, abs=1e-13)

    def test_demo_shapes(self):
        demo = balanced_series_demo(0.6, 200_000)
        assert demo.full.checkpoints[-1][0] == 200_000
        assert demo.odd.checkpoints[-1][0] == 200_000
        assert demo.window_sums  # default windows populated
        assert demo.odd_verdict.outcome == "diverges_to_infinity"

    def test_demo_headline_behavior(self):
        demo = balanced_series_demo(
            0.6, 1_000_000, window_ys=(100_000, 200_000, 400_000)
        )
        assert demo.full_windows_shrink
        assert all(w < 0.05 for _, w in demo.window_sums)
        assert abs(complex(demo.odd.final)) > 10
        assert demo.odd_verdict.growth_exponent == pytest.approx(0.4, abs=0.1)

    def test_rejects_out_of_strip(self):
        with pytest.raises(ValueError):
            balanced_series_demo(0.5, 1000)
        with pytest.raises(ValueError):
            balanced_series_demo(1.0, 1000)

    @pytest.mark.parametrize("checkpoints", [[2000], [0, 10], [500, 400], []])
    def test_rejects_bad_checkpoints(self, checkpoints):
        with pytest.raises(ValueError):
            balanced_series_demo(0.6, 1000, checkpoints=checkpoints)

    def test_rejects_a_single_checkpoint(self):
        # One point has no spread: the diverging odd series would read as
        # converging to its one value.
        with pytest.raises(ValueError, match="at least 2 checkpoints"):
            balanced_series_demo(0.6, 1000, checkpoints=[1000])

    @pytest.mark.parametrize("window_ys", [[5000], [0], [100, 1001]])
    def test_rejects_windows_outside_range(self, window_ys):
        with pytest.raises(ValueError, match="window_ys"):
            balanced_series_demo(0.6, 1000, window_ys=window_ys)

    def test_sums_are_compensated(self):
        # Within 4 units of roundoff of the correctly rounded sums of the same
        # values; a plain running sum left the odd final off by about 350.
        s, x_max, ys = 0.6, 1_000_000, (100_000, 300_000, 500_000)
        demo = balanced_series_demo(s, x_max, window_ys=ys)
        vals = balanced_table(s, x_max).tolist()
        odd = vals[1::2]
        u = 2.0**-53
        assert abs(demo.full.final - math.fsum(vals)) <= 4 * u * math.fsum(map(abs, vals))
        assert abs(demo.odd.final - math.fsum(odd)) <= 4 * u * math.fsum(odd)
        for y, w in demo.window_sums:
            window = vals[y + 1 : min(2 * y, x_max) + 1]
            assert abs(w - abs(math.fsum(window))) <= 4 * u * math.fsum(map(abs, window))


class TestPropositionFiveDemo:
    def test_restricted_series_diverge_when_expected(self):
        # Full Mobius series of the prop5 entry converges (the peeled p1
        # contribution cancels the growth); restricting to q coprime to p1
        # removes the cancellation and the sum grows like x^(1-s).
        from ramanujan_cloud import detect_convergence, restricted_mobius_partial_sums

        G = catalog("prop5")  # s = 0.6, p1 = 2, p2 = 3, g2 = 0
        free = restricted_mobius_partial_sums(G, 1, 300_000)
        restricted = restricted_mobius_partial_sums(G, 2, 300_000)
        v_free = detect_convergence(free, window=32, tol=0.05)
        v_restricted = detect_convergence(restricted, window=32, tol=0.05)
        assert v_free.outcome == "converges_to"
        assert v_restricted.outcome == "diverges_to_infinity"
        assert v_restricted.growth_exponent == pytest.approx(0.4, abs=0.1)

    def test_square_zero_variant_diverges_at_p1(self):
        # With G(p1^2) = 0 the expansion at a = p1 loses its cancellation too.
        from ramanujan_cloud import detect_convergence, expansion_partial_sums

        G = catalog("prop5", p1_square_zero=True)
        series = expansion_partial_sums(G, 2, 300_000)
        verdict = detect_convergence(series, window=32, tol=0.05)
        assert verdict.outcome == "diverges_to_infinity"
        assert verdict.growth_exponent is not None and verdict.growth_exponent > 0.1
