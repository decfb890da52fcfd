"""Expansion engine: exact truncated sums against a from-scratch oracle,
the finite/cofinite factorizations, peel identities, convergence verdicts,
and the zero-cloud decision procedure."""

import cmath
import collections
import dataclasses
import inspect
import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_cloud import (
    EngineConfig,
    GeneralArithmeticFunction,
    MultiplicativeFunction,
    PartialSumSeries,
    ResourceLimitError,
    absolute_convergence_report,
    catalog,
    checkpoint_schedule,
    coprime_peel_identity,
    detect_convergence,
    expansion_partial_sums,
    factorize,
    factorized_expansion,
    finite_factor,
    finite_factor_forms_equal,
    finite_factor_star,
    mobius,
    radical,
    restricted_mobius_partial_sums,
    sieve_primes,
    zero_cloud_verdict,
)
import ramanujan_cloud.core as core
import ramanujan_cloud.expansion as expansion
import ramanujan_cloud.sums as sums
from ramanujan_cloud import multiplicative
from ramanujan_cloud.expansion import _coprime_part, _neumaier_segments, _series, _strike_non_coprime, _value_table
from ramanujan_cloud.core import divisors
from ramanujan_cloud.multiplicative import is_weakly_exotic, spectrum, transparency_valuation
from ramanujan_cloud.sums import c_holder, c_table
from test_multiplicative import FORM_ENTRIES

FAST_CFG = EngineConfig(Q=20_000, sample_a=tuple(range(1, 9)))


def oracle_c(q: int, a: int) -> int:
    z = sum(cmath.exp(2j * cmath.pi * a * h / q) for h in range(1, q + 1) if gcd(h, q) == 1)
    assert abs(z.imag) < 1e-7
    return round(z.real)


def oracle_expansion(G, a: int, Q: int):
    return sum(G.eval(q) * oracle_c(q, a) for q in range(1, Q + 1))


def oracle_restricted(G, b: int, x: int):
    return sum(G.eval(r) * mobius(r) for r in range(1, x + 1) if gcd(r, b) == 1)


def normal_inverse_squares() -> MultiplicativeFunction:
    # Completely multiplicative 1/q^2: its Mobius series converges fast to
    # a nonzero limit, so it is decisively outside the zero cloud.
    return MultiplicativeFunction(
        "inverse_squares",
        rule=lambda p, e: Fraction(1, p ** (2 * e)),
        exact=True,
        declared_transparent=frozenset(),
        declared_invisible=frozenset(),
    )


def exotic_inverse_squares_off3() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        "invisible3_inverse_squares",
        rule=lambda p, e: 1 if p == 3 else Fraction(1, p ** (2 * e)),
        exact=True,
        declared_transparent=frozenset({3}),
        declared_invisible=frozenset({3}),
    )


class TestCheckpointSchedule:
    def test_small_is_every_integer(self):
        assert checkpoint_schedule(10) == list(range(1, 11))

    def test_large_shape(self):
        cps = checkpoint_schedule(10**6)
        assert cps == sorted(set(cps))
        assert cps[-1] == 10**6
        assert 100 in cps and 10**5 in cps
        assert sum(1 for x in cps if x >= 5 * 10**5) >= 32

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            checkpoint_schedule(0)

    @pytest.mark.parametrize("window", [1, 0, -3])
    def test_rejects_window_below_two(self, window):
        with pytest.raises(ValueError, match="window must be >= 2"):
            checkpoint_schedule(10**6, window)


class TestExpansionSums:
    def test_single_term(self):
        for G in (catalog("GR"), catalog("GH")):
            assert expansion_partial_sums(G, 1, 1, checkpoints=[1], exact=True).final == 1

    def test_classical_truncation_exact_value(self):
        # Frozen from the direct enumeration oracle below.
        series = expansion_partial_sums(catalog("GR"), 1, 10, checkpoints=list(range(1, 11)), exact=True)
        assert series.final == Fraction(19, 210)
        assert series.final == oracle_expansion(catalog("GR"), 1, 10)
        assert series.mode == "exact-rational"

    def test_indicator_cancels_immediately(self):
        G2 = catalog("indicator_prime_powers", p0=2)
        series = expansion_partial_sums(G2, 1, 4, checkpoints=[1, 2, 3, 4], exact=True)
        assert series.values() == [1, 0, 0, 0]

    @pytest.mark.parametrize("a,Q", [(1, 30), (6, 50), (12, 40), (30, 25)])
    def test_against_oracle(self, a, Q):
        for G in (catalog("GR"), catalog("GH"), catalog("G0", p0=2)):
            got = expansion_partial_sums(G, a, Q, checkpoints=[Q], exact=True).final
            assert got == oracle_expansion(G, a, Q)

    def test_checkpoint_increments_are_term_sums(self):
        G = catalog("GH")
        series = expansion_partial_sums(G, 6, 40, checkpoints=[5, 17, 40], exact=True)
        (x0, s0), (x1, s1), (x2, s2) = series.checkpoints
        assert s1 - s0 == sum(G.eval(q) * oracle_c(q, 6) for q in range(x0 + 1, x1 + 1))
        assert s2 - s1 == sum(G.eval(q) * oracle_c(q, 6) for q in range(x1 + 1, x2 + 1))

    def test_float_path_tracks_exact_path(self):
        for a in (1, 6, 97):
            se = expansion_partial_sums(catalog("GR"), a, 3000, checkpoints=[3000], exact=True)
            sf = expansion_partial_sums(catalog("GR"), a, 3000, checkpoints=[3000], exact=False)
            assert sf.final == pytest.approx(float(se.final), abs=1e-11)
            assert sf.mode == "floating"

    def test_coprime_restriction(self):
        G = catalog("GR")
        got = expansion_partial_sums(G, 6, 50, checkpoints=[50], coprime_to=2, exact=True).final
        want = sum(G.eval(q) * oracle_c(q, 6) for q in range(1, 51) if q % 2 == 1)
        assert got == want

    def test_absolute_mode(self):
        G = catalog("GR")
        got = expansion_partial_sums(G, 6, 50, checkpoints=[50], absolute=True, exact=True).final
        want = sum(abs(G.eval(q) * oracle_c(q, 6)) for q in range(1, 51))
        assert got == want

    def test_exact_mode_guards(self):
        with pytest.raises(ValueError):
            expansion_partial_sums(catalog("lemma7_h", s=0.6), 1, 10, exact=True)
        with pytest.raises(ResourceLimitError):
            expansion_partial_sums(catalog("GR"), 1, 100_000, exact=True)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            expansion_partial_sums(catalog("GR"), 1, 10, checkpoints=[5, 3])
        with pytest.raises(ValueError):
            expansion_partial_sums(catalog("GR"), 1, 10, checkpoints=[0, 3])

    @pytest.mark.parametrize("exact", [True, False])
    def test_coprime_to_must_be_positive(self, exact):
        with pytest.raises(ValueError):
            expansion_partial_sums(catalog("GR"), 1, 10, coprime_to=0, exact=exact)


def _random_exact_rule(values, seed):
    return MultiplicativeFunction(
        "random", rule=lambda p, e: values[hash((seed, p, e)) % len(values)], exact=True
    )


_RULE_VALUES = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=6).map(
    lambda vs: vs + [Fraction(0), Fraction(-1, 2)]
)


def _kluyver_mass(G, a, b, Q, xs):
    """M_K(x) = sum over d | a of d * sum_{m <= x/d, (m, b) = 1} |G(dm) mu(m)|
    exactly, at each x.  Since |c_q(a)| <= sum over d | (q, a) of d |mu(q/d)|,
    it bounds sum_{q <= x, (q, b) = 1} |G(q) c_q(a)| from above.  A non-exact
    G is read from its value table, with |Re| + |Im| >= |.| so the mass
    bounds each component."""
    if G.exact:
        mag = lambda n: abs(G.eval(n))
    else:
        V = _value_table(G, Q)
        mag = lambda n: Fraction(abs(V[n].real)) + Fraction(abs(V[n].imag))
    out = [Fraction(0)] * len(xs)
    for d in divisors(a):
        if d > Q:
            break
        prefix = [Fraction(0)]
        for m in range(1, Q // d + 1):
            prefix.append(prefix[-1] + (mag(d * m) if mobius(m) and gcd(m, b) == 1 else 0))
        out = [s + d * prefix[x // d] for s, x in zip(out, xs)]
    return out


def _signed_oracle(G, a, b, Q, xs):
    """(real, imaginary) parts of sum_{q <= x, (q, b) = 1} G(q) c_q(a), exactly;
    a non-exact G is read from its value table."""
    if G.exact:
        return [(v, 0) for v in expansion_partial_sums(G, a, Q, xs, coprime_to=b, exact=True).values()]
    V = _value_table(G, Q)
    re = im = Fraction(0)
    out = []
    lo = 1
    for x in xs:
        for q in range(lo, x + 1):
            c = c_holder(q, a) if gcd(q, b) == 1 else 0
            if c:
                re += Fraction(V[q].real) * c
                im += Fraction(V[q].imag) * c
        out.append((re, im))
        lo = x + 1
    return out


def _within(values, reference, bound, mass):
    """Each component of each value lies within bound * mass of the reference."""
    for v, (re, im), m in zip(values, reference, mass):
        v = complex(v)
        if abs(Fraction(v.real) - re) > Fraction(bound) * m or abs(Fraction(v.imag) - im) > Fraction(bound) * m:
            return False
    return True


class TestFloatingAgainstFractionOracle:
    # Error bound, with u = 2^-53 the unit roundoff and gamma_k = k u / (1 - k u)
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4).  For
    # n <= Q <= 10^4:
    # * term: the table entry float(G(n)) is a product of k = omega(n) <= 5
    #   correctly rounded factors float(G(p^e)), multiplied into 1.0 (k - 1
    #   inexact products); the integer weight (|w| < 2^53, exact in float64)
    #   adds one more rounding; strike and abs are exact.  |t^ - t| <= gamma_10 |t|.
    # * segment: numpy's pairwise sum works on blocks of at most 128 with 8
    #   accumulators (at most 14 + 3 roundings, plus 7 for a tail that is not
    #   a multiple of 8, so 24), halves above 128 (at most ceil(log2 m) - 6
    #   levels for m terms), and the reduction starts from the first term
    #   (1 more): each term passes <= ceil(log2 Q) + 19 roundings, so the error
    #   is <= gamma_{ceil(log2 Q) + 19} times the sum of |t^| over the segment.
    # * across segments, Neumaier's compensated sum of N segment sums is off
    #   by <= 2u |S| + O(N u^2) sum |s_j| (Neumaier, ZAMM 54, 1974).
    # First order that is (ceil(log2 Q) + 31) u times sum |t|; the second-order
    # terms, below (ceil(log2 Q) + 31)^2 u^2 < 10^-28 relative, fit in one
    # more u.  Dropping the strike or the abs moves a sum by whole terms,
    # far beyond this bound.
    @staticmethod
    def bound(Q):
        return (math.ceil(math.log2(Q)) + 32) * 2.0**-53

    @given(
        _RULE_VALUES,
        st.integers(min_value=0, max_value=2**32),
        st.one_of(st.integers(min_value=1, max_value=300), st.integers(min_value=301, max_value=10**4)),
        st.sampled_from([1, 2, 6, 35]),
        st.booleans(),
        st.sampled_from([None, 1, 6, 12, 35]),
    )
    @settings(max_examples=40, deadline=None)
    def test_within_neumaier_bound(self, values, seed, Q, b, absolute, a):
        # a = None is the restricted Mobius series over (r, b) = 1; otherwise
        # the expansion at a restricted to q coprime to b.  The derivation
        # above covers the signed expansion only against the larger Kluyver
        # mass (next test); against sum |terms| it holds here with room, the
        # largest error over 300 random draws being about a tenth of the bound.
        G = _random_exact_rule(values, seed)
        if a is None:
            series = lambda **kw: restricted_mobius_partial_sums(G, b, Q, **kw)
        else:
            series = lambda **kw: expansion_partial_sums(G, a, Q, coprime_to=b, **kw)
        got = series(absolute=absolute, exact=False)
        want = series(absolute=absolute, exact=True)
        mass = want if absolute else series(absolute=True, exact=True)
        assert got.xs() == want.xs() == mass.xs()
        for (x, f), (_, e), (_, m) in zip(got.checkpoints, want.checkpoints, mass.checkpoints):
            assert abs(Fraction(f) - e) <= Fraction(self.bound(Q)) * m, x

    # The signed expansion at a' = a coprime to b is sum over d | a', d <= Q,
    # of d T_d(x // d), with T_d summed like the series above from the terms
    # G(dm) mu(m).  Per d: the table entry costs 9 roundings (the mu product is
    # exact), the segment sums ceil(log2 Q) + 19 and Neumaier 2, relative to
    # sum |G(dm) mu(m)|; the multiply by d costs 1 more, and the recursive sum
    # over the tau(a') divisors tau(a') - 1 (the first add, to 0.0, is exact).
    # So the error is at most (ceil(log2 Q) + 30 + tau(a')) u M_K, with
    # M_K = sum over d | a' of d sum |G(dm) mu(m)| >= sum |G(q) c_q(a')|; the
    # smaller mass sum |G(q) c_q(a')| does not bound this error, because
    # c_q(a') is a cancelling sum of up to tau(a') terms.  One u covers the second-order
    # terms and one is spare.  A complex entry is compared per component
    # against its own table, so its terms are exact; choosing Neumaier's
    # branch by modulus can cost each segment 2 more roundings, well inside
    # the 9 the table does not cost.  Dropping the strike or weighting T_d by
    # the wrong d moves a sum by whole terms, far beyond this bound.
    @staticmethod
    def kluyver_bound(Q, a):
        return (math.ceil(math.log2(Q)) + 32 + len(divisors(a))) * 2.0**-53

    @given(
        st.one_of(st.none(), _RULE_VALUES),
        st.integers(min_value=0, max_value=2**32),
        st.one_of(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=13, max_value=300),
            st.integers(min_value=301, max_value=10**4),
        ),
        st.sampled_from([1, 2, 6, 35]),
        st.sampled_from([1, 6, 12, 35, 360, 720]),
    )
    @settings(max_examples=40, deadline=None)
    def test_kluyver_recombination_within_bound(self, values, seed, Q, b, a):
        # values = None draws the complex entry lemma7_h(s = 0.6 + 0.3i).  Small
        # Q makes x // d repeat or reach 0 and leaves divisors d > Q out.
        G = catalog("lemma7_h", s=0.6 + 0.3j) if values is None else _random_exact_rule(values, seed)
        got = expansion_partial_sums(G, a, Q, coprime_to=b, exact=False)
        xs = got.xs()
        part = _coprime_part(a, b)
        assert _within(got.values(), _signed_oracle(G, a, b, Q, xs), self.kluyver_bound(Q, part), _kluyver_mass(G, part, b, Q, xs))


class TestCoprimePart:
    def test_divides_out_every_prime_of_b(self):
        assert _coprime_part(720, 6) == 5
        assert _coprime_part(720, 10) == 9
        assert _coprime_part(35, 6) == 35
        assert _coprime_part(64, 2) == 1
        assert _coprime_part(12, 1) == 12

    @staticmethod
    def same(s, t):
        # Bit-identical checkpoints: raw float bytes, or == and type on exact values.
        if s.mode != t.mode or s.xs() != t.xs():
            return False
        if s.mode == "floating":
            return np.array(s.values()).tobytes() == np.array(t.values()).tobytes()
        return s.values() == t.values() and list(map(type, s.values())) == list(map(type, t.values()))

    # values = None draws the complex entry lemma7_h(s = 0.6 + 0.3i).
    @given(
        st.one_of(st.none(), _RULE_VALUES),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=5000),
        st.one_of(st.integers(min_value=1, max_value=720), st.sampled_from([64, 96, 360, 720])),
        st.sampled_from([2, 3, 6, 10, 35]),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_series_depends_only_on_the_coprime_part(self, values, seed, Q, a, b, absolute, exact):
        G = catalog("lemma7_h", s=0.6 + 0.3j) if values is None else _random_exact_rule(values, seed)
        exact = exact and G.exact
        got = expansion_partial_sums(G, a, Q, coprime_to=b, absolute=absolute, exact=exact)
        part = expansion_partial_sums(G, _coprime_part(a, b), Q, coprime_to=b, absolute=absolute, exact=exact)
        assert self.same(got, part)
        assert f"c_q({a})" in got.description
        if absolute or exact:
            # The exact and absolute kernels hold for any a: weight by c_q
            # at the caller's own a.
            assert self.same(got, _series(G, a, Q, None, "", b, absolute, exact))
            return
        # Signed floating series sum T_d, which needs a coprime to b; the
        # c_table-weighted terms at the caller's own a lie within their
        # bounds of the same exact value.
        xs = got.xs()
        terms = _value_table(G, Q) * c_table(a, Q)
        _strike_non_coprime(terms, b)
        at_a = _neumaier_segments(terms, xs)
        oracle = TestFloatingAgainstFractionOracle
        mass = _kluyver_mass(G, _coprime_part(a, b), b, Q, xs)
        bound = oracle.kluyver_bound(Q, _coprime_part(a, b)) + oracle.bound(Q)
        assert _within(got.values(), [(Fraction(complex(v).real), Fraction(complex(v).imag)) for v in at_a], bound, mass)


class TestCoprimeMask:
    @given(
        st.integers(min_value=1, max_value=3000),
        st.one_of(st.integers(min_value=2, max_value=10**7), st.sampled_from([2, 6, 30030, 999983, 2**20])),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_gcd_oracle(self, Q, b, seed):
        terms = np.random.default_rng(seed).standard_normal(Q + 1)
        struck = terms.copy()
        _strike_non_coprime(struck, b)
        shared = np.gcd(np.arange(Q + 1), radical(b)) != 1
        assert np.all(struck[shared] == 0)
        assert struck[~shared].tobytes() == terms[~shared].tobytes()

    def test_unrestricted_leaves_terms(self):
        terms = np.arange(101, dtype=np.float64)
        _strike_non_coprime(terms, 1)
        assert terms.tobytes() == np.arange(101, dtype=np.float64).tobytes()


class TestValueTable:
    def test_late_complex_prime_is_promoted(self):
        # The first complex value sits at p = 11, past any small-prime probe.
        G = catalog("prop5", p2=11, g2=0.5 + 0.5j)
        vals = _value_table(G, 1000)
        assert vals.dtype == np.complex128
        for n in range(1, 1001):
            want = complex(G.eval(n))
            assert abs(vals[n] - want) <= 1e-12 * max(1.0, abs(want))
        series = expansion_partial_sums(G, 6, 1000, exact=False)
        assert isinstance(series.final, complex)

    def test_late_complex_general_function_is_promoted(self):
        G = GeneralArithmeticFunction("complex past 64", fn=lambda n: 1j if n == 500 else Fraction(1, n))
        vals = _value_table(G, 1000)
        assert vals.dtype == np.complex128
        assert vals[500] == 1j
        assert all(vals[n] == float(Fraction(1, n)) for n in range(1, 1001) if n != 500)

    def test_real_rules_stay_real(self):
        for G in (catalog("GR"), catalog("GH"), catalog("prop5")):
            assert _value_table(G, 500).dtype == np.float64

    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=1, max_size=6).map(
            lambda vs: vs + [Fraction(0), Fraction(-1, 2)]
        ),
        st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_float_oracle_on_random_rules(self, values, Q):
        # Values include 0 and negatives; the oracle multiplies in the sieve's
        # order (ascending p), so the tables must agree exactly.
        G = MultiplicativeFunction("random", rule=lambda p, e: values[(7 * p + e) % len(values)], exact=True)
        vals = _value_table(G, Q)
        assert vals.dtype == np.float64 and vals[0] == 0
        for n in range(1, Q + 1):
            want = 1.0
            for p, e in factorize(n):
                want *= float(G.rule(p, e))
            assert vals[n] == want, n

    def test_non_number_is_rejected_not_nan(self):
        for G in (
            MultiplicativeFunction("None at 7", rule=lambda p, e: None if p == 7 else Fraction(1, 2)),
            MultiplicativeFunction("None at 97", rule=lambda p, e: None if p == 97 else Fraction(1, 2)),
            GeneralArithmeticFunction("None at 70", fn=lambda n: None if n == 70 else Fraction(1, 2)),
        ):
            with pytest.raises(TypeError):
                _value_table(G, 100)

    @pytest.mark.parametrize("name, kw", FORM_ENTRIES)
    def test_prime_form_table_equals_scalar_path(self, name, kw):
        G = catalog(name, **kw)
        # A fresh _memo, so the copy does not read the original's cached tables.
        scalar = dataclasses.replace(G, at_primes=None, _memo={})
        for Q in (1, 2, 3, 4, 10, 97, 1000, 10**6 + 7):
            got, want = _value_table(G, Q), _value_table(scalar, Q)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), Q

    def test_prime_form_replaces_rule_above_sqrt(self):
        # Equal tables alone would not notice a fall back to the scalar path.
        GH = catalog("GH")
        called = []

        def rule(p, e):
            called.append(p)
            return GH.rule(p, e)

        G = dataclasses.replace(GH, rule=rule, _memo={})
        called.clear()  # the constructor checks the form against the rule
        Q = 10**5
        _value_table(G, Q)
        assert set(called) == set(sieve_primes(math.isqrt(Q)).tolist())

    def test_weakly_exotic_table_promotes_like_pointwise(self):
        # The complex value sits at n = 7 * 2^K: Q = 5 stays real, Q >= 7 is complex.
        G = catalog("weakly_exotic_sample", p0=2, base={1: Fraction(1, 2), 3: 0.25, 7: 0.5j})
        for Q in (5, 7, 100, 5000):
            pointwise = dataclasses.replace(G, table=None, _memo={})
            got, want = _value_table(G, Q), _value_table(pointwise, Q)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), Q
        assert _value_table(G, 5).dtype == np.float64 and _value_table(G, 7).dtype == np.complex128

    def test_malformed_general_table_rejected(self):
        G = GeneralArithmeticFunction("short table", fn=lambda n: 0, table=lambda Q: np.zeros(Q))
        with pytest.raises(ValueError, match="table"):
            _value_table(G, 100)

    @pytest.mark.parametrize("cap", [10.0, 1.2])
    def test_squarefree_cap_matches_eval(self, cap):
        # cap = 1.2 makes the clamp bite on many squarefree n.
        G = catalog("prop1", cap=cap)
        vals = _value_table(G, 5000)
        want = np.array([0.0] + [float(G.eval(n)) for n in range(1, 5001)])
        assert np.allclose(vals, want, rtol=1e-12, atol=0)

    def test_squarefree_cap_clamps_without_whole_range_temporaries(self):
        # The clamp works on the squarefree indices only: the 8 MB table, the
        # sieve's scratch and the squarefree indices peak near 22 MB, while
        # whole-range n, |G(n)| and cap/n arrays would take it to 31.5 MB.
        core.squarefree_table(10**6)
        tracemalloc.start()
        try:
            _value_table(catalog("prop1"), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * 2**20


class TestResourceBudget:
    # With the budget patched down, an over-budget Q must raise before any
    # table of that size exists (2 * 10^6 float64 entries would be 16 MB).
    @pytest.mark.parametrize(
        "build",
        [
            lambda: _value_table(catalog("GH"), 2 * 10**6),
            lambda: _value_table(catalog("weakly_exotic_sample"), 2 * 10**6),
            lambda: restricted_mobius_partial_sums(catalog("GR"), 1, 2 * 10**6),
            lambda: expansion_partial_sums(catalog("GH"), 6, 2 * 10**6, coprime_to=2),
        ],
        ids=["value_table", "general_table", "restricted_series", "expansion"],
    )
    def test_over_budget_raises_before_allocating(self, monkeypatch, build):
        monkeypatch.setattr(core, "SIEVE_BUDGET", 10**5)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestRestrictedMobius:
    def test_frozen_value(self):
        series = restricted_mobius_partial_sums(catalog("GR"), 1, 10, checkpoints=[10], exact=True)
        assert series.final == Fraction(19, 210)
        assert series.final == oracle_restricted(catalog("GR"), 1, 10)

    def test_only_radical_matters(self):
        for G in (catalog("GR"), catalog("GH")):
            a = restricted_mobius_partial_sums(G, 12, 200, checkpoints=list(range(1, 201)), exact=True)
            b = restricted_mobius_partial_sums(G, 6, 200, checkpoints=list(range(1, 201)), exact=True)
            assert a.checkpoints == b.checkpoints

    def test_indicator_support_collapses(self):
        G2 = catalog("indicator_prime_powers", p0=2)
        series = restricted_mobius_partial_sums(G2, 2, 100, checkpoints=[100], exact=True)
        assert series.final == 1

    @pytest.mark.parametrize("b,x", [(1, 40), (6, 60), (30, 45)])
    def test_against_oracle(self, b, x):
        for G in (catalog("GR"), catalog("GH")):
            got = restricted_mobius_partial_sums(G, b, x, checkpoints=[x], exact=True).final
            assert got == oracle_restricted(G, b, x)

    # values = None draws the complex entry lemma7_h(s = 0.6 + 0.3i), which
    # has no exact mode.
    @given(
        st.one_of(st.none(), _RULE_VALUES),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=3000),
        st.one_of(st.integers(min_value=1, max_value=420), st.sampled_from([4, 12, 36, 210, 360])),
    )
    @settings(max_examples=30, deadline=None)
    def test_is_the_expansion_at_one(self, values, seed, x, b):
        # c_r(1) = mu(r): the restricted series over (r, b) = 1 is the
        # expansion at a = 1 over q coprime to b, bit for bit, in every mode.
        G = catalog("lemma7_h", s=0.6 + 0.3j) if values is None else _random_exact_rule(values, seed)
        for absolute in (False, True):
            for exact in (False, True) if G.exact else (False,):
                want = expansion_partial_sums(G, 1, x, coprime_to=b, absolute=absolute, exact=exact)
                assert want.mode == ("exact-rational" if exact else "floating")
                for bb in (b, radical(b)):
                    got = restricted_mobius_partial_sums(G, bb, x, absolute=absolute, exact=exact)
                    assert TestCoprimePart.same(got, want), (bb, absolute, exact)

    def test_kluyver_memo_is_keyed_by_the_radical(self):
        cps = tuple(checkpoint_schedule(1000))
        keys = []
        for b in (4, 2):
            G = dataclasses.replace(catalog("GR"), _memo={})
            expansion_partial_sums(G, 6, 1000, coprime_to=b, exact=False)
            restricted_mobius_partial_sums(G, b, 1000, exact=False)
            keys.append(sorted(k for k in G._memo if isinstance(k, tuple) and k[0] == "kluyver"))
        assert keys[0] == keys[1] == [("kluyver", 1000, 2, d, cps) for d in (1, 3)]


class TestFiniteFactors:
    def test_empty_product(self):
        for G in (catalog("GR"), catalog("GH"), catalog("indicator_prime_powers", p0=2)):
            assert finite_factor(G, 1) == 1

    def test_hardy_at_two(self):
        assert finite_factor(catalog("GH"), 2) == 1

    def test_indicator_vanishes(self):
        assert finite_factor(catalog("indicator_prime_powers", p0=2), 2) == 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_classical_at_primes(self, p):
        # 1 + (p-1)/p - 1/p = 2 - 2/p, from the term-by-term oracle.
        assert finite_factor(catalog("GR"), p) == 2 - Fraction(2, p)

    def test_term_by_term_oracle(self):
        for G in (catalog("GR"), catalog("GH"), catalog("G0", p0=2)):
            for a in (2, 12, 90):
                expected = 1
                for p in sorted({p for p, _ in factorize(a).factors}):
                    v = 0
                    m = a
                    while m % p == 0:
                        m //= p
                        v += 1
                    expected *= sum(G.eval(p**K) * oracle_c(p**K, a) for K in range(v + 2))
                assert finite_factor(G, a) == expected

    def test_star_values(self):
        assert finite_factor_star(catalog("GR")) == 1
        assert finite_factor_star(catalog("GH")) == 1  # 2 * (1 - 1/2)

    def test_star_rejects_a_general_function(self):
        with pytest.raises(ValueError, match="not multiplicative"):
            finite_factor_star(catalog("weakly_exotic_sample"))

    def test_star_rejects_exotic(self):
        with pytest.raises(ValueError):
            finite_factor_star(catalog("indicator_prime_powers", p0=2))

    def test_star_never_vanishes_for_sporadic(self):
        # Sporadic instance: transparent at 2 with v = 2.
        G = MultiplicativeFunction(
            "sporadic_depth2",
            rule=lambda p, e: (1 if e <= 2 else Fraction(1, 2)) if p == 2 else Fraction(1, p**e),
            exact=True,
            declared_transparent=frozenset({2}),
            declared_invisible=frozenset(),
        )
        star = finite_factor_star(G)
        assert star == 4 * (1 - Fraction(1, 2)) == 2

    def test_abel_forms_on_catalog(self):
        assert finite_factor_forms_equal(catalog("GH"), 2)
        assert finite_factor_forms_equal(catalog("GR"), 12)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_abel_forms_random_rules(self, a, seed):
        rng = random.Random(seed)
        memo = {}

        def rule(p, e):
            if (p, e) not in memo:
                memo[(p, e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            return memo[(p, e)]

        G = MultiplicativeFunction("random", rule=rule, exact=True)
        assert finite_factor_forms_equal(G, a)

    def test_factorized_expansion_zero(self):
        assert factorized_expansion(catalog("indicator_prime_powers", p0=2), 2, 100, exact=True) == 0

    def test_factorized_expansion_trivial_factor(self):
        G = catalog("GR")
        got = factorized_expansion(G, 1, 200, exact=True)
        want = restricted_mobius_partial_sums(G, 1, 200, checkpoints=[200], exact=True).final
        assert got == want

    def test_factorized_expansion_within_tail_bound(self):
        # For absolutely convergent entries, the product form tracks direct
        # summation within the computable absolute tail bound.
        for G in (catalog("indicator_prime_powers", p0=2), exotic_inverse_squares_off3()):
            for a in (2, 6, 12):
                Q = 2000
                direct = float(expansion_partial_sums(G, a, Q, checkpoints=[Q], exact=True).final)
                product = float(factorized_expansion(G, a, Q, exact=True))
                rep = absolute_convergence_report(G, 1000, a, Q)
                assert abs(direct - product) <= rep.factor_tail_bound + 1e-9


class TestPeelIdentity:
    def test_classical_cases(self):
        lhs, rhs = coprime_peel_identity(catalog("GR"), {3}, 2, 20, exact=True)
        assert lhs == rhs
        lhs, rhs = coprime_peel_identity(catalog("GH"), set(), 2, 50, exact=True)
        assert lhs == rhs

    def test_empty_peel_below_p1(self):
        # x < p1: the scaled term is an empty sum, both sides collapse.
        G = catalog("GR")
        lhs, rhs = coprime_peel_identity(G, {3}, 11, 10, exact=True)
        assert lhs == rhs
        assert rhs == restricted_mobius_partial_sums(G, 33, 10, checkpoints=[10], exact=True).final

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coprime_peel_identity(catalog("GR"), {3}, 3, 10)
        with pytest.raises(ValueError):
            coprime_peel_identity(catalog("GR"), {4}, 3, 10)
        with pytest.raises(ValueError):
            coprime_peel_identity(catalog("GR"), {3}, 4, 10)

    @pytest.mark.parametrize("F", [set(), {2}, {3, 5}, {2, 3, 5, 7}])
    @pytest.mark.parametrize("p1", [2, 3, 11, 13])
    def test_grid(self, F, p1):
        if p1 in F:
            pytest.skip("p1 inside F")
        for G in (catalog("GR"), catalog("G0", p0=2)):
            for x in (1, 13, 100, 333):
                lhs, rhs = coprime_peel_identity(G, F, p1, x, exact=True)
                assert lhs == rhs


class TestDetectConvergence:
    def test_constant_zero(self):
        series = PartialSumSeries("zeros", tuple((x, 0.0) for x in range(1, 41)), "floating")
        verdict = detect_convergence(series, window=32, tol=0.01)
        assert verdict.outcome == "converges_to" and verdict.limit == 0

    def test_linear_growth_diverges(self):
        cps = checkpoint_schedule(10**6)
        series = PartialSumSeries("ones", tuple((x, float(x)) for x in cps), "floating")
        verdict = detect_convergence(series, window=32, tol=0.01)
        assert verdict.outcome == "diverges_to_infinity"
        assert verdict.growth_exponent == pytest.approx(1.0, abs=0.01)

    def test_oscillation_is_inconclusive(self):
        series = PartialSumSeries(
            "flip", tuple((x, float((-1) ** x)) for x in range(1, 41)), "floating"
        )
        verdict = detect_convergence(series, window=32, tol=0.01)
        assert verdict.outcome == "inconclusive"

    def test_target_mismatch(self):
        series = PartialSumSeries("ones", tuple((x, 1.0) for x in range(1, 41)), "floating")
        assert detect_convergence(series, target=0, window=32, tol=0.01).outcome == "inconclusive"
        got = detect_convergence(series, window=32, tol=0.01)
        assert got.outcome == "converges_to" and got.limit == pytest.approx(1.0)

    def test_defaults_come_from_engine_config(self):
        cfg = EngineConfig()
        spread = (cfg.conv_tol + 0.01) / 2  # between the old 0.01 default and conv_tol
        series = PartialSumSeries(
            "wobble", tuple((x, spread * (-1) ** x) for x in range(1, cfg.window + 9)), "floating"
        )
        verdict = detect_convergence(series, target=0)
        assert verdict.outcome == "converges_to"
        assert (verdict.window, verdict.tol) == (cfg.window, cfg.conv_tol)

    @pytest.mark.parametrize(
        "func,param,field",
        [
            (spectrum, "scan_bound", "scan_bound"),
            (spectrum, "k_max", "k_max"),
            (spectrum, "tol", "one_tol"),
            (transparency_valuation, "tol", "one_tol"),
            (finite_factor_star, "scan_bound", "scan_bound"),
            (finite_factor_star, "k_max", "k_max"),
            (finite_factor_star, "tol", "one_tol"),
            (absolute_convergence_report, "scan_bound", "scan_bound"),
            (absolute_convergence_report, "k_max", "k_max"),
            (absolute_convergence_report, "tol", "one_tol"),
            (absolute_convergence_report, "slow_growth_tol", "slow_growth_tol"),
            (is_weakly_exotic, "r_bound", "we_r_bound"),
            (is_weakly_exotic, "k_bound", "we_k_bound"),
            (checkpoint_schedule, "window", "window"),
        ],
    )
    def test_keyword_defaults_are_engine_config_defaults(self, func, param, field):
        assert inspect.signature(func).parameters[param].default == getattr(EngineConfig(), field)

    def test_one_tol_default_is_engine_config_default(self):
        assert multiplicative.DEFAULT_ONE_TOL == EngineConfig().one_tol

    @pytest.mark.parametrize("window", [1, 0])
    def test_window_below_two_is_rejected(self, window):
        # A one-point window has spread 0, so even x -> x would "converge".
        series = PartialSumSeries("linear", tuple((x, float(x)) for x in range(1, 41)), "floating")
        with pytest.raises(ValueError, match="window must be >= 2"):
            detect_convergence(series, window=window)

    def test_needs_enough_checkpoints(self):
        series = PartialSumSeries("short", ((1, 0.0), (2, 0.0)), "floating")
        with pytest.raises(ValueError):
            detect_convergence(series, window=32)


class TestAbsoluteConvergenceReport:
    def test_general_function_is_rejected_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("built a value table")

        monkeypatch.setattr(expansion, "_value_table", no_table)
        G = catalog("weakly_exotic_sample")
        with pytest.raises(ValueError, match="weakly_exotic.*not multiplicative"):
            absolute_convergence_report(G, 1000, 1, 100)

    def test_indicator_is_positive(self):
        rep = absolute_convergence_report(catalog("indicator_prime_powers", p0=2), 10_000, 6, 10_000)
        assert rep.prime_abs_series.final == 1.0  # only p = 2 contributes
        assert rep.prime_abs_verdict == "bounded"
        assert rep.verdict == "positive"
        assert rep.factor_discrepancy <= rep.factor_tail_bound + 1e-9

    def test_classical_is_negative(self):
        rep = absolute_convergence_report(catalog("GR"), 10_000, 1, 2000)
        assert rep.prime_abs_verdict == "diverging"
        assert rep.verdict == "negative"

    def test_pointwise_but_not_absolute(self):
        rep = absolute_convergence_report(catalog("G0", p0=2), 10_000, 3, 2000)
        assert rep.prime_abs_verdict == "diverging"
        assert rep.verdict == "negative"

    @pytest.mark.parametrize("name, kw", [("GR", {}), ("GH", {}), ("G0", {"p0": 2}), ("indicator_prime_powers", {"p0": 3})])
    def test_prime_form_gives_the_scalar_prime_series(self, name, kw):
        G = catalog(name, **kw)
        scalar = dataclasses.replace(G, at_primes=None, _memo={})
        fast = absolute_convergence_report(G, 10**5, 6, 1000)
        slow = absolute_convergence_report(scalar, 10**5, 6, 1000)
        assert fast.prime_abs_series == slow.prime_abs_series
        assert fast.prime_abs_last_decade_increase == slow.prime_abs_last_decade_increase

    @pytest.mark.parametrize("cap", [0.5, 1.2])
    def test_prime_series_honours_the_squarefree_cap(self, cap):
        # Below its default cap of 10, prop1's clamp |G(p)| <= cap/p binds on
        # the small primes; the uncapped sum at 1000 is 2.650.
        G = catalog("prop1", cap=cap)
        rep = absolute_convergence_report(G, 1000, 1, 100)
        exact = math.fsum(abs(G.eval(int(p))) for p in sieve_primes(1000))
        assert abs(rep.prime_abs_series.final - exact) <= 8 * math.ulp(exact)


class TestEngineConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("Q", 0), ("window", 1), ("window", 0), ("sample_a", ()), ("sample_a", (1, 0)), ("sample_a", (-2,)),
            ("scan_bound", 1), ("k_max", 0), ("we_r_bound", 0), ("we_k_bound", 0),
            ("Q", 2000.0), ("Q", "2000"), ("window", 2.5), ("seed", True), ("sample_a", (1.5,)), ("sample_a", (True,)),
            ("conv_tol", "0.02"), ("one_tol", None), ("divergence_threshold", False),
        ],
    )
    def test_degenerate_fields_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            EngineConfig().replace(**{field: value})
        with pytest.raises(ValueError, match=field):
            EngineConfig.from_dict({field: list(value) if isinstance(value, tuple) else value})


class TestZeroCloudVerdict:
    def test_each_distinct_series_runs_once(self, monkeypatch):
        # a and a / p0^k give one series over q coprime to p0, and the main
        # classical series is the restricted series of its own radical.
        counts = collections.Counter()
        for name in ("expansion_partial_sums", "restricted_mobius_partial_sums"):
            def counted(*args, _fn=getattr(expansion, name), _name=name, **kw):
                counts[_name] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(expansion, name, counted)
        cfg = EngineConfig()
        for G, want in (
            (catalog("indicator_prime_powers", p0=2), {"expansion_partial_sums": 25}),
            (catalog("GR"), {"restricted_mobius_partial_sums": 31}),
            (catalog("GH"), {"restricted_mobius_partial_sums": 31}),
        ):
            counts.clear()
            verdict = zero_cloud_verdict(G, cfg)
            assert verdict.conclusion == "in_zero_cloud"
            assert counts == want, G.label

    def test_kluyver_sums_are_shared_across_sampled_a(self, monkeypatch):
        # One T_d per distinct divisor of the sampled p0-free parts, kept on G
        # and read again by a repeated verdict; c_table is never built.
        calls = collections.Counter()
        for module in (expansion, sums):
            def counted(*args, _fn=module.c_table, **kw):
                calls["c_table"] += 1
                return _fn(*args, **kw)

            monkeypatch.setattr(module, "c_table", counted)
        cfg = EngineConfig()
        G = dataclasses.replace(catalog("indicator_prime_powers", p0=2), _memo={})
        parts = {_coprime_part(a, 2) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)}
        assert len(parts) == 25
        divs = {d for a in parts for d in divisors(a) if d <= cfg.Q}
        cps = tuple(checkpoint_schedule(cfg.Q, cfg.window))

        def kluyver_keys():
            return sorted(k for k in G._memo if isinstance(k, tuple) and k[0] == "kluyver")

        assert zero_cloud_verdict(G, cfg).conclusion == "in_zero_cloud"
        keys = kluyver_keys()
        assert keys == sorted(("kluyver", cfg.Q, 2, d, cps) for d in divs)
        memo_size = len(G._memo)
        assert zero_cloud_verdict(G, cfg).conclusion == "in_zero_cloud"
        assert kluyver_keys() == keys and len(G._memo) == memo_size
        assert calls["c_table"] == 0

    def test_classical_members(self):
        for name, expected in (("GR", "normal"), ("GH", "sporadic")):
            verdict = zero_cloud_verdict(catalog(name), FAST_CFG)
            assert verdict.classification == expected
            assert verdict.conclusion == "in_zero_cloud"
            assert all(status == "pass" for _, status in verdict.hypothesis_checks)

    def test_exotic_member(self):
        verdict = zero_cloud_verdict(catalog("indicator_prime_powers", p0=2), FAST_CFG)
        assert verdict.classification == "exotic"
        assert verdict.conclusion == "in_zero_cloud"

    def test_weakly_exotic_member(self):
        verdict = zero_cloud_verdict(catalog("weakly_exotic_sample"), FAST_CFG)
        assert verdict.classification == "weakly_exotic"
        assert verdict.conclusion == "in_zero_cloud"

    def test_nonzero_limit_is_excluded(self):
        verdict = zero_cloud_verdict(normal_inverse_squares(), FAST_CFG)
        assert verdict.classification == "normal"
        assert verdict.conclusion == "not_in_zero_cloud"

    def test_uncertified_is_inconclusive(self):
        plain = MultiplicativeFunction(
            "plain_inverse_squares", rule=lambda p, e: Fraction(1, p ** (2 * e)), exact=True
        )
        verdict = zero_cloud_verdict(plain, FAST_CFG)
        assert verdict.conclusion == "inconclusive"
        assert ("spectra certified by the constructor", "fail") in verdict.hypothesis_checks

    def test_divergent_hypothesis_is_inconclusive(self):
        verdict = zero_cloud_verdict(catalog("prop5"), FAST_CFG)
        assert verdict.classification == "normal"
        assert verdict.conclusion == "inconclusive"
        assert any(status == "fail" for _, status in verdict.hypothesis_checks)

    def test_missing_invisible_prime(self):
        from ramanujan_cloud import GeneralArithmeticFunction

        g = GeneralArithmeticFunction("anon", fn=lambda n: 0)
        verdict = zero_cloud_verdict(g, FAST_CFG)
        assert verdict.conclusion == "inconclusive"
        assert verdict.hypothesis_checks[0][1] == "fail"

    def test_dispatch_matches_classification(self):
        # The verdict path is chosen by the spectrum classification, for
        # every catalog entry (the general entry reads as weakly exotic).
        from ramanujan_cloud import spectrum

        entries = [
            catalog("GR"),
            catalog("GH"),
            catalog("indicator_prime_powers", p0=2),
            catalog("G0", p0=2),
            catalog("prop1"),
            catalog("lemma7_h", s=0.6),
            catalog("prop5"),
        ]
        for G in entries:
            assert zero_cloud_verdict(G, FAST_CFG).classification == spectrum(G).classification
        assert zero_cloud_verdict(catalog("weakly_exotic_sample"), FAST_CFG).classification == "weakly_exotic"
