"""Ramanujan sums: the three formulas against each other and against a
from-scratch root-of-unity oracle, plus the structural identities the
expansion machinery leans on."""

import cmath
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_cloud import (
    c_direct,
    c_holder,
    c_kluyver,
    c_prime_power,
    euler_phi,
    mobius,
    prime_power_column_sum,
    sieve_primes,
    valuation,
)


def oracle_c(q: int, a: int) -> int:
    """Independent root-of-unity sum (math.cmath, no numpy, no caching)."""
    z = sum(cmath.exp(2j * cmath.pi * a * h / q) for h in range(1, q + 1) if gcd(h, q) == 1)
    assert abs(z.imag) < 1e-7
    assert abs(z.real - round(z.real)) < 1e-7
    return round(z.real)


class TestExamples:
    def test_unit_modulus(self):
        for a in (1, 2, 17, 360):
            assert c_direct(1, a) == c_kluyver(1, a) == c_holder(1, a) == 1

    def test_direct_spots(self):
        assert c_direct(2, 1) == -1
        assert c_direct(6, 3) == -2

    def test_kluyver_spots(self):
        assert c_kluyver(4, 2) == -2
        assert c_kluyver(12, 12) == 4
        # coprime arguments collapse to the Mobius function
        for q in range(1, 50):
            a = q + 1
            if gcd(q, a) == 1:
                assert c_kluyver(q, a) == mobius(q)

    def test_holder_spots(self):
        assert c_holder(9, 3) == -3
        for p in (2, 3, 5, 7, 11):
            assert c_holder(p, p * 3) == p - 1  # p | a
            assert c_holder(p, p + 1) == -1     # p coprime to a

    def test_bad_arguments(self):
        for fn in (c_direct, c_kluyver, c_holder):
            with pytest.raises(ValueError):
                fn(0, 1)
            with pytest.raises(ValueError):
                fn(1, 0)


class TestFormulaAgreement:
    def test_exhaustive_small_grid(self):
        for q in range(1, 61):
            for a in range(1, 61):
                assert c_direct(q, a) == c_kluyver(q, a) == c_holder(q, a)

    def test_against_independent_oracle(self):
        for q in range(1, 40):
            for a in range(1, 40):
                assert c_holder(q, a) == oracle_c(q, a)

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
    @settings(max_examples=150, deadline=None)
    def test_agreement_property(self, q, a):
        assert c_direct(q, a) == c_kluyver(q, a) == c_holder(q, a)


class TestStructure:
    def test_multiplicative_in_q(self):
        # exhaustive over coprime q1*q2 <= 200 and every a <= 100
        for q1 in range(1, 201):
            for q2 in range(1, 201 // q1 + 1):
                if gcd(q1, q2) != 1:
                    continue
                for a in range(1, 101):
                    assert c_holder(q1 * q2, a) == c_holder(q1, a) * c_holder(q2, a)

    def test_magnitude_floor(self):
        # |c_q(a)| is at least mu(q)^2, on the full 200 x 200 grid
        for q in range(1, 201):
            floor = mobius(q) ** 2
            for a in range(1, 201):
                assert abs(c_holder(q, a)) >= floor

    def test_prime_power_closed_form(self):
        for p in (2, 3, 5, 7, 11, 13):
            for a in range(1, 101):
                v = valuation(p, a)
                for K in range(v + 4):
                    expected = c_holder(p**K, a)
                    assert c_prime_power(p, K, a) == expected
                    if K <= v:
                        assert expected == euler_phi(p**K)
                    elif K == v + 1:
                        assert expected == -(p**v)
                    else:
                        assert expected == 0

    def test_prime_power_examples(self):
        assert c_prime_power(2, 0, 9) == 1
        assert c_prime_power(2, 3, 4) == -4
        assert c_prime_power(3, 5, 9) == 0

    def test_column_sums_vanish(self):
        for p in sieve_primes(50).tolist():
            for a in range(1, 101):
                assert prime_power_column_sum(p, a) == 0

    def test_column_sum_examples(self):
        assert prime_power_column_sum(2, 1) == 0
        assert prime_power_column_sum(3, 9) == 0
        assert prime_power_column_sum(5, 7) == 0

