"""Kernels against brute-force oracles: sieve counts by trial division,
mu/phi by definition, divisor-sum identities by direct enumeration."""

import bisect
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_cloud import (
    Factorization,
    MultiplicativeFunction,
    ResourceLimitError,
    catalog,
    checkpoint_schedule,
    count_squarefree_in_ap,
    divisors,
    euler_phi,
    expansion_partial_sums,
    factorize,
    is_prime,
    mobius,
    mobius_table,
    radical,
    restricted_mobius_partial_sums,
    sieve_primes,
    valuation,
    weighted_squarefree_sum,
)
import ramanujan_cloud.core as core
from ramanujan_cloud.expansion import _gmu_table, _rule_values, _value_table


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def plain_trial_factors(n: int) -> tuple:
    """(p, e) pairs of n by division by 2 and every odd d up to the root of
    what is left."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _gmu_case(G):
    """The powers and prime values of G mu, as expansion._gmu_table builds them."""
    return (
        lambda p, E: np.array([-float(G.rule(p, 1))] + [0.0] * (E - 1)),
        lambda P: 0.0 - G.at_primes(P),
        np.float64,
    )


_LATE = 40_000  # past the first block of every block size the sieve tests use


def _late_complex(P):
    """-1/p, real unless P reaches ``_LATE``; then complex, -i/p from
    ``_LATE`` on."""
    v = -1.0 / P
    return v if not len(P) or P[-1] < _LATE else np.where(P < _LATE, v, 1j * v)


def brute_divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


class TestSieve:
    def test_empty_below_two(self):
        assert sieve_primes(0).tolist() == []
        assert sieve_primes(1).tolist() == []

    def test_textbook(self):
        assert sieve_primes(10).tolist() == [2, 3, 5, 7]

    @staticmethod
    def reference(limit):
        is_p = [False, False] + [True] * (limit - 1)
        for p in range(2, math.isqrt(limit) + 1):
            if is_p[p]:
                is_p[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
        return [n for n in range(limit + 1) if is_p[n]]

    def test_matches_plain_sieve(self):
        # The odd-only sieve against every-integer trial striking: each limit
        # through 5000 (every parity and every square edge) and one large one.
        big = self.reference(10**6)
        for limit in range(5001):
            got = sieve_primes(limit)
            assert got.dtype == np.int64
            assert got.tolist() == big[: bisect.bisect_right(big, limit)], limit
        got = sieve_primes(10**6)
        assert got.dtype == np.int64 and got.tolist() == big

    def test_against_trial_division(self):
        primes = set(sieve_primes(2000).tolist())
        for n in range(2001):
            assert (n in primes) == trial_division_is_prime(n)

    def test_millionth_scale_count(self):
        # Oracle: trial division reproduces the sieve count at 10^4; the
        # 10^6 count below was derived once by the same trial-division
        # oracle and frozen.
        assert len(sieve_primes(10_000)) == sum(
            1 for n in range(10_001) if trial_division_is_prime(n)
        )
        assert len(sieve_primes(1_000_000)) == 78_498

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sieve_primes(-1)

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            sieve_primes(core.SIEVE_BUDGET + 1)


class TestFactorize:
    def test_one_is_empty(self):
        assert factorize(1) == Factorization(1, ())

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_primorial_multiplies_back(self):
        f = factorize(2310)
        assert f.factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))
        assert math.prod(p**e for p, e in f.factors) == 2310

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_prime_cofactor(self):
        assert factorize(999_999_937).factors == ((999_999_937, 1),)

    @pytest.mark.parametrize("n", [1, 2, 96, 97, 5040, 999_983, 2**19, 10**6])
    def test_roundtrip_spots(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        assert all(e >= 1 for _, e in f.factors)
        assert list(f.primes()) == sorted(f.primes())
        assert all(trial_division_is_prime(p) for p in f.primes())

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n

    def test_against_plain_trial_division(self):
        # Past the primes up to 2^16 trial division goes on by odd d: 65537^2
        # is the first square it reaches, 65537 * 65539 the first product of
        # two primes there, 4294967311, the first prime above 2^32, has root
        # 2^16 itself, and 65537 * (2^31 - 1) stops at d = 65539, leaving
        # the prime 2^31 - 1.
        rng = random.Random(12)
        ns = [
            *range(1, 3 * 10**4 + 1),
            *(rng.randrange(1, 10**12) for _ in range(300)),
            10**6,
            10**9,
            999_999_937,
            65537**2,
            65537 * 65539,
            4_294_967_311,
            65537 * (2**31 - 1),
        ]
        for n in ns:
            assert factorize(n).factors == plain_trial_factors(n), n

    def test_root_above_the_budget_raises(self, monkeypatch):
        with pytest.raises(ResourceLimitError, match="exceeds budget"):
            factorize((core.SIEVE_BUDGET + 1) ** 2)
        monkeypatch.setattr(core, "SIEVE_BUDGET", 10**5)
        assert factorize.__wrapped__(10**10).factors == ((2, 10), (5, 10))
        with pytest.raises(ResourceLimitError, match="exceeds budget"):
            factorize.__wrapped__((10**5 + 1) ** 2)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        for n in (2, 36, 97, 360, 1024):
            assert divisors(n) == brute_divisors(n)


class TestIntegerArguments:
    GR = catalog("GR")

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: sieve_primes(10.5), "limit"),
            (lambda: sieve_primes(True), "limit"),
            (lambda: mobius_table(10.0), "limit"),
            (lambda: checkpoint_schedule(100.0), "Q"),
            (lambda: checkpoint_schedule(100, window=2.5), "window"),
            (lambda: expansion_partial_sums(TestIntegerArguments.GR, 2.5, 100), "a"),
            (lambda: expansion_partial_sums(TestIntegerArguments.GR, 2, 100.0), "Q"),
            (lambda: expansion_partial_sums(TestIntegerArguments.GR, 2, 100, coprime_to=2.0), "coprime_to"),
            (lambda: count_squarefree_in_ap(100.5, 3, 1), "x"),
            (lambda: count_squarefree_in_ap(100, np.True_, 1), "m"),
            (lambda: weighted_squarefree_sum(0.75, 3, 1, 10, 100.0), "x"),
            (lambda: restricted_mobius_partial_sums(TestIntegerArguments.GR, "2", 100), "b"),
            (lambda: restricted_mobius_partial_sums(TestIntegerArguments.GR, 2, Fraction(100)), "x"),
        ],
        ids=[
            "sieve_primes-float", "sieve_primes-bool", "mobius_table", "checkpoint_schedule-Q",
            "checkpoint_schedule-window", "expansion-a", "expansion-Q", "expansion-coprime_to",
            "count_squarefree-x", "count_squarefree-numpy_bool", "weighted_squarefree-x",
            "restricted-b", "restricted-x",
        ],
    )
    def test_a_non_integer_size_is_named(self, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            call()

    def test_numpy_integers_are_sizes(self):
        assert sieve_primes(np.int64(10)).tolist() == [2, 3, 5, 7]
        assert len(mobius_table(np.uint16(10))) == 11
        assert count_squarefree_in_ap(np.int32(100), 3, np.int8(1)) == count_squarefree_in_ap(100, 3, 1)
        assert checkpoint_schedule(np.int64(1000)) == checkpoint_schedule(1000)


class TestGather:
    """``core._gather``, the value rule of the tables, against ``float`` and
    ``complex`` of each value."""

    @staticmethod
    def want(values, cast):
        return np.array([cast(v) for v in values]).tobytes()

    @pytest.mark.parametrize(
        "values",
        [
            [-0.0, 0.5, Fraction(1, 3), 2**53 + 1, 2**60 + 3, 2**64 + 1, np.float32(0.1), True, np.int64(-7), Decimal("0.1")],
            [-0.0, 2**53 + 1, -(2**63), 2**63 + 1, np.float32(0.1), np.float16(0.1), np.longdouble(1) / 3, False],
            [2**60 + 3, 0.5],
            [np.float32(0.1), 2**60 + 3],
            [-0.0],
        ],
    )
    def test_accepted_values_keep_their_bytes(self, values):
        got = core._gather(values, len(values))
        assert got.dtype == np.float64 and got.tobytes() == self.want(values, float)
        values = [*values, 1 - 2j]
        got = core._gather(values, len(values))
        assert got.dtype == np.complex128 and got.tobytes() == self.want(values, complex)

    def test_chunks_promote_as_one_read(self, monkeypatch):
        monkeypatch.setattr(core, "_GATHER", 3)
        values = [-0.0, Fraction(1, 3), 0.25, 2**70, -1.5, 2j, -0.0]
        got = core._gather(values, len(values))
        assert got.tobytes() == self.want(values, complex)

    @pytest.mark.parametrize(
        "values",
        [
            [np.complex128(0.5j)],
            [0.5, np.complex64(0.5 - 1j)],
            [Fraction(1, 2), np.complex128(-0.0 + 0.5j)],
        ],
    )
    def test_numpy_complex_scalars_stay_complex(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = core._gather(values, len(values))
        assert got.dtype == np.complex128 and got.tobytes() == self.want(values, complex)

    def test_a_numpy_complex_rule(self):
        G = MultiplicativeFunction("0.5i^e", rule=lambda p, e: np.complex128(0.5j) ** e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _value_table(G, 30)
            final = expansion_partial_sums(G, 1, 50, checkpoints=[50], exact=False).final
        assert values.tolist() == [0] + [complex(G.eval(n)) for n in range(1, 31)]
        assert final == pytest.approx(-2.25 - 7.25j)
        assert final == pytest.approx(sum(G.eval(n) * mobius(n) for n in range(1, 51)))

    @pytest.mark.parametrize(
        "values",
        [["0.5"], [0.5, "1"], [Fraction(1, 2), "1.5"], [b"1"], [0.5, np.str_("2")], [None, 1.0], [[1.0, 2.0], [3.0, 4.0]]],
    )
    def test_non_numbers_are_refused(self, values):
        with pytest.raises(ValueError, match="values must be real or complex numbers"):
            core._gather(values, len(values))
        with pytest.raises(ValueError):  # numpy's own message: unequal lengths
            core._gather([*values, [1.0]], len(values) + 1)

    def test_a_string_rule_is_refused_as_eval_refuses_it(self):
        G = MultiplicativeFunction("string at 7", rule=lambda p, e: "0.5" if p == 7 else 0.5)
        with pytest.raises(ValueError, match=r"string at 7: rule\(7, 1\) gives '0.5'"):
            G.eval(7)
        with pytest.raises(ValueError, match=r"string at 7: rule\(7, 1\) gives '0.5'"):
            _value_table(G, 100)


class TestScalarFunctions:
    def test_mobius_values(self):
        assert mobius(1) == 1
        assert mobius(30) == -1
        assert mobius(12) == 0
        with pytest.raises(ValueError):
            mobius(0)

    def test_phi_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        for p in (2, 3, 31, 97):
            assert euler_phi(p) == p - 1
        with pytest.raises(ValueError):
            euler_phi(0)

    def test_phi_by_gcd_count(self):
        for n in range(1, 300):
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_radical(self):
        assert radical(1) == 1
        assert radical(12) == 6
        assert radical(8) == 2

    def test_valuation(self):
        assert valuation(2, 12) == 2
        assert valuation(3, 12) == 1
        assert valuation(5, 12) == 0
        with pytest.raises(ValueError):
            valuation(4, 12)

    def test_radical_and_valuation_by_repeated_division(self):
        for a in range(1, 10_001):
            prod = 1
            m = a
            d = 2
            while d * d <= m:
                if m % d == 0:
                    prod *= d
                    count = 0
                    while m % d == 0:
                        m //= d
                        count += 1
                    if trial_division_is_prime(d):
                        assert valuation(d, a) == count
                d += 1
            if m > 1:
                prod *= m
            assert radical(a) == prod

    def test_divisor_sum_identities(self):
        # sum of mu over divisors detects 1; sum of phi over divisors gives n.
        for n in range(1, 10_001):
            divs = brute_divisors(n)
            assert sum(mobius(d) for d in divs) == (1 if n == 1 else 0)
            assert sum(euler_phi(d) for d in divs) == n

    def test_is_prime(self):
        for n in range(500):
            assert is_prime(n) == trial_division_is_prime(n)


class TestTables:
    def test_mobius_table_matches_scalar(self):
        tab = mobius_table(2000)
        assert all(tab[n] == mobius(n) for n in range(1, 2001))

    # The sieve switches phases at isqrt(limit), so limits at and around
    # p^2 and the degenerate 0..4 are where an off-by-one would show.
    _SPLIT_EDGES = st.sampled_from([p * p for p in range(2, 71) if is_prime(p)]).flatmap(
        lambda sq: st.sampled_from([sq - 1, sq, sq + 1])
    )

    @given(st.one_of(st.sampled_from([0, 1, 2, 3, 4]), _SPLIT_EDGES, st.integers(min_value=0, max_value=5000)))
    @settings(max_examples=80, deadline=None)
    def test_mobius_table_property(self, limit):
        tab = mobius_table(limit)
        assert tab.dtype == np.int8 and len(tab) == limit + 1 and tab[0] == 0
        assert tab[1:].tolist() == [mobius(n) for n in range(1, limit + 1)]

    @pytest.mark.parametrize("table", [mobius_table, sieve_primes])
    def test_negative_limit_is_rejected(self, table):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            table(-1)

    @pytest.mark.parametrize("limit, mertens, squarefree", [(10**6, 212, 607926), (10**7, 1037, 6079291)])
    def test_mobius_table_published_values(self, limit, mertens, squarefree):
        # Mertens function M(10^k) is OEIS A084237; squarefree counts A071172.
        tab = mobius_table(limit)
        assert int(tab.sum(dtype=np.int64)) == mertens
        assert np.count_nonzero(tab) == squarefree

    def test_tables_are_frozen(self):
        tab = mobius_table(100)
        with pytest.raises(ValueError):
            tab[3] = 99

    def test_budget_enforced(self):
        with pytest.raises(ResourceLimitError):
            mobius_table(core.SIEVE_BUDGET + 1)

    def test_sieve_checks_budget_before_allocating(self, monkeypatch):
        monkeypatch.setattr(core, "SIEVE_BUDGET", 10**5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                core.multiplicative_sieve(2 * 10**6, lambda p, E: np.full(E, 0.5), lambda P: np.full(len(P), 0.5), np.float64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "at_primes",
        [
            lambda P: 0.5,  # a scalar would broadcast over every large prime
            lambda P: np.full(len(P) + 1, 0.5),  # too long
            lambda P: np.full(len(P) - 1, 0.5),  # too short
            lambda P: np.full((len(P), 1), 0.5),
            lambda P: np.array([None] * len(P)),
            lambda P: [0.5] * len(P),
        ],
    )
    def test_sieve_rejects_malformed_prime_values(self, at_primes):
        with pytest.raises(ValueError, match="at_primes"):
            core.multiplicative_sieve(1000, lambda p, E: np.full(E, 0.5), at_primes, np.float64)

    @pytest.mark.parametrize("block", [2, 97, 1000])
    def test_sieve_blocks_keep_every_byte(self, monkeypatch, block):
        # Every table is finished in blocks of core._BLOCK entries.  Any
        # block size gives the bytes of one block over the whole table
        # (limit < _BLOCK): mu, columns of higher powers with signed zeros, a
        # complex value at p = 7 among real ones, and complex powers
        # p^(-e s).  Complex entries are multiplied on their float planes, so
        # no product depends on where it sits in a slice.
        def dense(p, E):
            return np.array([-0.0 if p == 5 else (-1.0) ** e / p**e for e in range(1, E + 1)])

        def complex_at_7(p, E):
            return np.array([1j if p == 7 else -1.0 / p] + [0.0] * (E - 1))

        s = 0.6 + 0.3j
        cases = [
            (core._mobius_powers, lambda P: np.full(len(P), -1, dtype=np.int8), np.int8),
            (dense, lambda P: -1.0 / P, np.float64),
            (complex_at_7, lambda P: 1.0 / P, np.float64),
            (lambda p, E: float(p) ** (-s * np.arange(1, E + 1)), lambda P: P.astype(float) ** -s, np.float64),
        ]
        limit = 3000
        want = [core.multiplicative_sieve(limit, *case).tobytes() for case in cases]
        monkeypatch.setattr(core, "_BLOCK", block)
        assert [core.multiplicative_sieve(limit, *case).tobytes() for case in cases] == want

    @staticmethod
    def _reference_sieve(limit, powers, at_primes, dtype):
        # Prime by prime, ascending: every multiple n of a prime p <= isqrt
        # is multiplied by g(p^v_p(n)), then every multiple of a larger
        # prime by g(P).  One strided multiply per prime, no blocks.  The
        # table has its final dtype before the first multiply, and a complex
        # entry a + bi is multiplied on its float planes: by c + di it
        # becomes (ac - bd, ad + bc), by a real c it becomes (ac, bc).
        primes = sieve_primes(limit)
        small = primes[primes <= math.isqrt(limit)].tolist()
        steps = []
        for p in small:
            n = np.arange(p, limit + 1, p)
            v = np.zeros(len(n), dtype=np.int64)
            while len(q := np.flatnonzero(n % p**(v + 1) == 0)):
                v[q] += 1
            steps.append((p, powers(p, int(v.max()))[v - 1]))
        large = primes[len(small) :]
        if len(large):
            steps += zip(large.tolist(), at_primes(large))
        table = np.ones(limit + 1, dtype=np.result_type(dtype, *{np.asarray(g).dtype for _, g in steps}))
        table[0] = 0
        for p, g in steps:
            view = table[p::p]
            if table.dtype.kind != "c":
                view *= g
            elif np.iscomplexobj(g):
                a, b = view.real.copy(), view.imag.copy()
                view.real = a * g.real - b * g.imag
                view.imag = a * g.imag + b * g.real
            else:
                view.real *= g
                view.imag *= g
        return table

    _REFERENCE_CASES = {
        "mu": (core._mobius_powers, lambda P: np.full(len(P), -1, dtype=np.int8), np.int8),
        "GH mu": _gmu_case(catalog("GH")),
        "G0(3) mu": _gmu_case(catalog("G0", p0=3)),  # negative prime values, zero cofactors
        "indicator(2) mu": _gmu_case(catalog("indicator_prime_powers", p0=2)),  # +0 prime values
        "dense": (lambda p, E: np.array([-0.0 if p == 5 else (-1.0) ** e / p**e for e in range(1, E + 1)]), lambda P: -1.0 / P, np.float64),
        "float32 primes": (core._mobius_powers, lambda P: (1.0 / P).astype(np.float32), np.float64),
        # int8 through p = 7, float64 from p = 11: the table is float64 from
        # the start, so an int8 zero that later meets a negative value is -0.0
        "mu, float from 11": (
            lambda p, E: np.array([-1] + [0] * (E - 1), dtype=np.int8 if p <= 7 else np.float64),
            lambda P: -1.0 / P,
            np.int8,
        ),
        # A complex value inside the presieved period (from limit 88,199).
        "complex_at_7": (lambda p, E: np.array([1j if p == 7 else -1.0 / p] + [0.0] * (E - 1)), lambda P: 1.0 / P, np.float64),
        # p^(-e s) and the G mu of p^(-s), s = 0.6 + 0.3i.
        "complex dense": (
            lambda p, E: float(p) ** (-(0.6 + 0.3j) * np.arange(1, E + 1)),
            lambda P: P.astype(float) ** -(0.6 + 0.3j),
            np.float64,
        ),
        "complex squarefree": (
            lambda p, E: np.array([-(float(p) ** -(0.6 + 0.3j))] + [0j] * (E - 1)),
            lambda P: 0.0 - P.astype(float) ** -(0.6 + 0.3j),
            np.float64,
        ),
        # Negative prime values below 1000 only: a zero cofactor m times an
        # early P is -0 in every later quarter, so no quarter may skip it.
        "negative early": (
            lambda p, E: np.array([-1.0] + [0.0] * (E - 1)),
            lambda P: np.where(P < 1000, -1.0, 1.0) / P,
            np.float64,
        ),
        # Prime values that turn complex only in a late block, read per
        # quarter block: the table restarts complex, and the earlier real
        # values are applied as complex ones, as one read of all of them is.
        "complex late": (core._mobius_powers, lambda P: _late_complex(P), np.float64),
        "complex late, complex powers": (
            lambda p, E: float(p) ** (-(0.6 + 0.3j) * np.arange(1, E + 1)),
            lambda P: _late_complex(P),
            np.float64,
        ),
    }

    @pytest.mark.parametrize("limit", [1, 2, 48, 49, 14694, 14695, 14696, 44097, 88199, 88200, 88201, 3 * 4096 + 7, 200003])
    @pytest.mark.parametrize("name", list(_REFERENCE_CASES))
    def test_sieve_is_the_prime_by_prime_sweep(self, monkeypatch, name, limit):
        # Byte for byte, over block sizes below, at and across the presieved
        # period of 2^2 3^2 5^2 7^2 = 44,100 entries (used from limit 88,199,
        # a table of two periods) and its phase-2 quarters.  The wheel layout
        # (entry i holds n = 3i - 1 - (i mod 2), the n coprime to 6) is the
        # reference at the n coprime to 6, in the reference's dtype; its
        # period of 5^2 7^2 = 1,225 n is 2,450 entries long and is used from
        # limit 14,695, the first whose wheel table holds two periods
        # (4,900 entries).
        case = self._REFERENCE_CASES[name]
        want = self._reference_sieve(limit, *case)
        coprime = np.gcd(np.arange(limit + 1), 6) == 1
        for block in (97, 1000, 4096):
            monkeypatch.setattr(core, "_BLOCK", block)
            got = core.multiplicative_sieve(limit, *case)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, block)
            wheel = core.multiplicative_sieve(limit, *case, _wheel=True)
            assert wheel.dtype == want.dtype and len(wheel) == coprime.sum() + 1 and wheel[0] == 0, (name, block)
            assert wheel[1:].tobytes() == want[coprime].tobytes(), (name, block)

    @pytest.mark.parametrize("limit", [14694, 14695])
    def test_wheel_period_starts_at_two_periods(self, monkeypatch, limit):
        # The wheel layout tiles its 2,450-entry period of 5 and 7 from the
        # first limit whose table holds two of them, and sweeps 5 and 7
        # itself below it.
        swept = []  # the primes of each sweep, the period's first if any
        sweep = core._sweep_block

        def record(block, small, lo, wheel, marks):
            swept.append([p for p, _, _ in small])
            sweep(block, small, lo, wheel, marks)

        monkeypatch.setattr(core, "_sweep_block", record)
        table = core.multiplicative_sieve(limit, *self._REFERENCE_CASES["mu"], _wheel=True)
        tiled = limit == 14695
        assert len(table) == 4899 + tiled
        assert (swept[0] == [5, 7]) is tiled and (5 in swept[-1]) is not tiled

    _EDGE_LIMITS = [*range(11), *(p * p + d for p in range(2, 71) if is_prime(p) for d in (-1, 0, 1))]

    @pytest.mark.parametrize("block", [97, 4096])
    @pytest.mark.parametrize("wheel", [False, True])
    def test_each_large_prime_is_read_once(self, monkeypatch, wheel, block):
        # Blocks find their own primes above isqrt(limit): each reaches
        # at_primes once, in ascending int64 calls of one quarter block's
        # primes.  The wheel layout's start at 5; below limit 9 the values
        # of 2 and 3 above isqrt(limit) are read first, once, for the dtype.
        monkeypatch.setattr(core, "_BLOCK", block)
        for limit in self._EDGE_LIMITS:
            calls = []

            def at_primes(P):
                calls.append(P.copy())
                return np.full(len(P), -1, dtype=np.int8)

            core.multiplicative_sieve(limit, core._mobius_powers, at_primes, np.int8, _wheel=wheel)
            root = math.isqrt(limit)
            large = [p for p in sieve_primes(limit).tolist() if p > root]
            head = [p for p in large if wheel and p <= 3]
            for P in calls:
                assert P.dtype == np.int64 and P.ndim == 1 and len(P), (limit, P)
                assert np.all(np.diff(P) > 0) and root < P[0] and P[-1] <= limit, (limit, P)
            if head:
                assert calls[0].tolist() == head, limit
                calls = calls[1:]
            assert [p for P in calls for p in P.tolist()] == large[len(head) :], limit
            for P in calls:
                assert core._entry(P[-1], wheel) - core._entry(P[0], wheel) < -(-block // 4), (limit, P)

    def test_a_late_non_number_names_its_prime(self, monkeypatch):
        # None at the largest prime, in the last block: the value table and
        # the G mu table raise the message one read of all of the primes
        # above isqrt(Q) gives, which names G and that prime.
        Q = 20011
        bad = int(sieve_primes(Q)[-1])
        G = MultiplicativeFunction("None late", rule=lambda p, e: None if p == bad else 0.5)
        large = sieve_primes(Q)[sieve_primes(Q) > math.isqrt(Q)]
        with pytest.raises(ValueError) as whole:
            _rule_values(G, large.tolist(), [1] * len(large))
        assert f"rule({bad}, 1) gives None" in str(whole.value)
        monkeypatch.setattr(core, "_BLOCK", 4096)
        for build in (_value_table, _gmu_table):
            with pytest.raises(ValueError) as got:
                build(G, Q)
            assert str(got.value) == str(whole.value), build


# Module state is what pytest's test order would hide, so whether anything
# in core grows runs in a fresh interpreter: each script runs one kind of
# caller, then core's module arrays must be the very arrays import made.
_IMPORTED = """
import numpy as np
import ramanujan_cloud.core as core


def arrays():
    return {name: (id(v), len(v)) for name, v in vars(core).items() if isinstance(v, np.ndarray)}


imported = arrays()
assert imported == {"_SMALL_PRIMES": (id(core._SMALL_PRIMES), 6542)}, imported
"""

# The order in which primes and mu are asked for.  The sieve counter wraps
# the private whole-range sieve.
_GROWTH_SCRIPT = _IMPORTED + """
from ramanujan_cloud import catalog, mobius, mobius_table, sieve_primes
from ramanujan_cloud.expansion import _value_table

sieves = []
_sieve = core._sieve
core._sieve = lambda limit: sieves.append(limit) or _sieve(limit)


def trial_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


for limit in (0, 1, 1000, 10, 200000, 4, 100000):
    P, mu = sieve_primes(limit), mobius_table(limit)
    assert not P.flags.writeable and not mu.flags.writeable, limit
    assert len(mu) == limit + 1 and mu[0] == 0, limit
    assert P.tolist()[-1:] <= [limit], limit
    k = min(limit, 2000)
    assert P[: int((P <= k).sum())].tolist() == [n for n in range(k + 1) if trial_is_prime(n)], limit
    assert mu[1 : k + 1].tolist() == [mobius(n) for n in range(1, k + 1)], limit
    if limit >= 10**5:
        assert int((P <= 10**5).sum()) == 9592, limit
        assert int(mu[: 10**5 + 1].sum(dtype="int64")) == -48, limit
        assert int((mu[: 10**5 + 1] != 0).sum()) == 60794, limit
assert len(sieve_primes(200000)) == 17984
# Up to 2^16 the primes are prefixes of the import's array; above it each
# call sieves afresh and keeps nothing.
assert np.shares_memory(sieve_primes(65536), core._SMALL_PRIMES) and not np.shares_memory(sieve_primes(65537), core._SMALL_PRIMES)
assert sieves == [200000, 100000, 200000, 65537], sieves

# Tables sieve only to isqrt(Q), inside the primes up to 2^16: no sieve.
Q = 300000
mobius_table(Q)
_value_table(catalog("GR"), Q)
assert sieves[4:] == [], sieves
sieve_primes(Q // 2)
assert sieves[4:] == [Q // 2], sieves
assert arrays() == imported, (arrays(), imported)
print("ok")
"""

# prop1's transparent-prime scan sieves up to (2c)^(1/2) = 1.4 * 10^6 for
# c = 10^12 and must keep none of that sieve in core.
_PROP1_SCRIPT = _IMPORTED + """
from ramanujan_cloud import catalog

catalog("prop1", c=1e12)
assert arrays() == imported, (arrays(), imported)
print("ok")
"""

# Trial division past 2^16, the prime sum of the absolute report and a
# strided verdict (G(5) = 2) keep nothing in core either.
_MODULE_SCRIPT = _IMPORTED + """
from ramanujan_cloud import EngineConfig, absolute_convergence_report, catalog, factorize, zero_cloud_verdict

assert factorize(65537**2).factors == ((65537, 2),)
absolute_convergence_report(catalog("GR"), 2 * 10**5, 1, 1000)
G = catalog("prop5", p2=5, g2=2)
zero_cloud_verdict(G, EngineConfig(Q=2 * 10**5))
assert not any(isinstance(k, tuple) for k in G._memo)
assert arrays() == imported, (arrays(), imported)
print("ok")
"""

# Threads that build primes and mu at once: every answer must be right and
# read-only, a prefix of the import's primes or a fresh table.
_RACE_SCRIPT = """
import random, sys, threading
import numpy as np
from ramanujan_cloud import mobius_table, sieve_primes

TOP = 60000
is_p = np.ones(TOP + 1, dtype=bool)
is_p[:2] = False
mu = np.ones(TOP + 1, dtype=np.int64)
mu[0] = 0
for p in range(2, TOP + 1):
    if is_p[p]:
        is_p[2 * p :: p] = False
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
primes = np.flatnonzero(is_p)
errors = []


def work(seed):
    rng = random.Random(seed)
    for limit in sorted(rng.randrange(TOP + 1) for _ in range(40)):
        P, M = sieve_primes(limit), mobius_table(limit)
        if P.flags.writeable or M.flags.writeable:
            errors.append(("writeable", limit))
        if not (np.array_equal(P, primes[: np.searchsorted(primes, limit, "right")]) and np.array_equal(M, mu[: limit + 1])):
            errors.append(("wrong", limit))


sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
assert not errors, errors[:5]
print("ok")
"""


# A G mu table at 10^6 reads the primes up to 1000, a prefix of those up
# to 2^16, and reads G at each quarter block's primes: its traced peak is the table
# and block-sized scratch.  Holding every prime up to Q and G at each of
# them took it to 1.96 tables.
_GMU_SCRIPT = """
import dataclasses, tracemalloc
import ramanujan_cloud.core as core
from ramanujan_cloud import catalog
from ramanujan_cloud.expansion import _gmu_table

small = core._SMALL_PRIMES
GH = catalog("GH")
calls = []
form = GH.at_primes
G = dataclasses.replace(GH, at_primes=lambda P: calls.append((len(P), int(P[-1]) // 3 - int(P[0]) // 3)) or form(P))
calls.clear()  # the constructor checks the form against the rule
Q = 10**6
tracemalloc.start()
gmu = _gmu_table(G, Q)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
assert core._SMALL_PRIMES is small and len(small) == 6542
# (primes, entries spanned) of each call: none reaches past a quarter block.
assert calls and max(span for _, span in calls) < core._BLOCK // 4, calls
assert sum(n for n, _ in calls) == len(core.sieve_primes(Q)) - len(core.sieve_primes(1000)), calls
assert peak < 1.8 * gmu.nbytes, peak / gmu.nbytes
print("ok")
"""


# prop5(p2 = 5, g2 = 2) has G(5) = 2, so the radicals with 5 take the
# strided kernel, which reads the value table and mu.  mu is kept on G with
# the value table, so the verdict drops both when it returns; a module-level
# mu outlived it (0.99 MiB traced at Q = 10^6).  In a fresh interpreter, so
# that no earlier test has built mu already.
_STRIDED_SCRIPT = """
import tracemalloc
from ramanujan_cloud import EngineConfig, catalog, zero_cloud_verdict

G = catalog("prop5", p2=5, g2=2)
tracemalloc.start()
zero_cloud_verdict(G, EngineConfig(Q=10**6))
current = tracemalloc.get_traced_memory()[0]
assert current < 0.25 * 2**20, current
assert not any(isinstance(k, tuple) for k in G._memo)
print("ok")
"""


def _run_fresh(script: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"


class TestSlots:
    """core keeps no slot: nothing there grows after import."""

    def test_growth_order_in_a_fresh_interpreter(self):
        _run_fresh(_GROWTH_SCRIPT)

    def test_prop1_scan_leaves_the_prime_slot_alone(self):
        _run_fresh(_PROP1_SCRIPT)

    def test_module_arrays_stay_as_imported(self):
        _run_fresh(_MODULE_SCRIPT)

    def test_concurrent_tables_in_a_fresh_interpreter(self):
        _run_fresh(_RACE_SCRIPT)

    def test_a_strided_verdict_leaves_no_mu_behind(self):
        _run_fresh(_STRIDED_SCRIPT)

    def test_gmu_table_holds_no_prime_array(self):
        _run_fresh(_GMU_SCRIPT)
