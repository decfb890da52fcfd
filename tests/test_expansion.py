"""Expansion engine: exact truncated sums against a from-scratch oracle,
the finite/cofinite factorizations, peel identities, convergence verdicts,
and the zero-cloud decision procedure."""

import cmath
import collections
import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
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
    catalog_names,
    checkpoint_schedule,
    ConvergenceVerdict,
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
import ramanujan_cloud
import ramanujan_cloud.core as core
import ramanujan_cloud.expansion as expansion
from ramanujan_cloud import multiplicative
from ramanujan_cloud.expansion import _coprime_part, _neumaier_segments, _series, _strike_non_coprime, _support_values, _value_table
from ramanujan_cloud.core import divisors
from ramanujan_cloud.multiplicative import spectrum
from ramanujan_cloud.reproduce import _absolutely_convergent_exotic_instances
from ramanujan_cloud._serialize import to_jsonable
from ramanujan_cloud.sums import c_holder
from test_multiplicative import FORM_ENTRIES

FAST_CFG = EngineConfig(Q=20_000, sample_a=tuple(range(1, 9)))


def ramanujan_cloud_modules() -> list[str]:
    # __main__ is left out: importing it runs the CLI.
    names = (m.name for m in pkgutil.iter_modules(ramanujan_cloud.__path__) if m.name != "__main__")
    return ["ramanujan_cloud", *(f"ramanujan_cloud.{name}" for name in names)]


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

    def test_checkpoints_must_be_integers(self):
        # A float point would be cast to int64 by the floating sum (10.5 and
        # 10.9 would both read S(10)) and break range() in exact mode.
        G = catalog("GR")
        for exact in (True, False):
            for cps in ([10.5, 100], [10.9, 100], [True, 100]):
                with pytest.raises(ValueError, match="checkpoints must be strictly increasing integers"):
                    expansion_partial_sums(G, 1, 100, checkpoints=cps, exact=exact)
                with pytest.raises(ValueError, match="checkpoints must be strictly increasing integers"):
                    restricted_mobius_partial_sums(G, 1, 100, checkpoints=cps, exact=exact)
            got = expansion_partial_sums(G, 1, 100, checkpoints=[np.int64(10), 100], exact=exact)
            assert got == expansion_partial_sums(G, 1, 100, checkpoints=[10, 100], exact=exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_coprime_to_must_be_positive(self, exact):
        with pytest.raises(ValueError):
            expansion_partial_sums(catalog("GR"), 1, 10, coprime_to=0, exact=exact)


def _random_exact_rule(values, seed, low=None):
    """An exact rule drawing each G(p^e) from ``values``, or from ``low``
    at p = 2 and 3 when given."""
    pick = lambda p: low if low is not None and p <= 3 else values
    return MultiplicativeFunction(
        "random", rule=lambda p, e: pick(p)[hash((seed, p, e)) % len(pick(p))], exact=True
    )


def _rule_values(bound):
    return st.lists(st.fractions(min_value=-bound, max_value=bound, max_denominator=12), min_size=1, max_size=6).map(
        lambda vs: vs + [Fraction(0), Fraction(-1, 2)]
    )


_RULE_VALUES = _rule_values(3)


def _fraction_loop(G, a, b, cps, absolute):
    """The exact partial sums added one Fraction term at a time: every term
    G(n) c_n(a), or its abs, over n <= x coprime to b."""
    sums, total, lo = [], 0, 1
    for x in cps:
        for n in range(lo, x + 1):
            w = c_holder(n, a)
            if w and gcd(n, b) == 1:
                term = G.eval(n) * w
                total = total + (abs(term) if absolute else term)
        sums.append(total)
        lo = x + 1
    return sums


class TestExactSegments:
    """The exact branch of ``_series`` sums each stretch between checkpoints
    in integers over one denominator; every partial sum must be the
    term-by-term Fraction sum's, in value, type and serialized bytes."""

    Q = 240
    A = (1, 2, 12, 47, 360, 945)
    B = (1, 2, 35)

    def _check(self, G, a, b, absolute, cps):
        got = _series(G, _coprime_part(a, b), self.Q, cps, "", b, absolute, True)
        xs = got.xs()
        assert xs == (checkpoint_schedule(self.Q) if cps is None else list(cps))
        want = _fraction_loop(G, a, b, xs, absolute)
        for x, value, ref in zip(xs, got.values(), want):
            assert type(value) is type(ref) and value == ref, (G.label, a, b, absolute, x, value, ref)
            assert json.dumps(to_jsonable(value)) == json.dumps(to_jsonable(ref))

    @pytest.mark.parametrize(
        "G",
        [
            catalog("GR"),
            catalog("GH"),
            catalog("G0", p0=3),
            catalog("indicator_prime_powers", p0=2),
            *_absolutely_convergent_exotic_instances(),
        ],
        ids=lambda G: G.label,
    )
    def test_catalog_entries(self, G):
        for a in self.A:
            for b in self.B:
                for absolute in (False, True):
                    for cps in (None, [self.Q], range(1, self.Q + 1)):
                        self._check(G, a, b, absolute, cps)

    @given(
        values=_RULE_VALUES,
        seed=st.integers(0, 2**16),
        a=st.sampled_from(A),
        b=st.sampled_from(B),
        absolute=st.booleans(),
        cps=st.sampled_from([None, [Q], range(1, Q + 1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_rules(self, values, seed, a, b, absolute, cps):
        self._check(_random_exact_rule(values, seed), a, b, absolute, cps)

    @pytest.mark.parametrize("cps", [None, [20], range(1, 21)])
    @pytest.mark.parametrize(
        "G, where",
        [
            (MultiplicativeFunction("halfs", rule=lambda p, e: 0.5, exact=True), r"halfs: G\(2\) = 0\.5 "),
            (MultiplicativeFunction("imaginary", rule=lambda p, e: 1j, exact=True), r"imaginary: G\(2\) = 1j "),
            (GeneralArithmeticFunction("late float", fn=lambda n: 1.5 if n == 7 else 1, exact=True), r"late float: G\(7\) = 1\.5 "),
        ],
        ids=["float", "complex", "general"],
    )
    def test_non_rational_value_is_named(self, G, where, cps):
        for series in (expansion_partial_sums, restricted_mobius_partial_sums):
            with pytest.raises(ValueError, match=where + "is not rational"):
                series(G, 1, 20, checkpoints=cps, exact=True)

    def test_exact_rule_takes_no_squarefree_cap(self):
        # The cap scales values by a float, so an exact-rational series of
        # a capped rule would sum floats.
        with pytest.raises(ValueError, match="three: exact=True cannot take a squarefree_cap"):
            MultiplicativeFunction("three", rule=lambda p, e: 3, exact=True, squarefree_cap=2.0)
        capped = MultiplicativeFunction("three", rule=lambda p, e: 3, squarefree_cap=2.0)
        assert restricted_mobius_partial_sums(capped, 1, 20).mode == "floating"


def _eval_from_one(G, n):
    """G(n) as ``eval`` formed it before it started at the first factor: the
    product of the rule over the factorization of n from the int 1, then
    the squarefree cap."""
    f = factorize(n)
    out = 1
    for p, e in f.factors:
        out = out * G.at_prime_power(p, e)
    if G.squarefree_cap is not None and out != 0 and n > 1 and all(e == 1 for _, e in f.factors):
        bound = G.squarefree_cap / n
        if abs(out) > bound:
            out = out * (bound / abs(out))
    return out


class TestEvalProduct:
    # ``eval`` starts its product at the first factor, not at the int 1,
    # which sent every first factor through Fraction.__rmul__ for nothing.
    # For int, Fraction, float and complex rule values 1 * v == v has the
    # type of v, so every value keeps its value and type.
    @staticmethod
    def _check(G):
        for n in range(1, 3001):
            got, want = G.eval(n), _eval_from_one(G, n)
            assert type(got) is type(want) and got == want, (G.label, n, got, want)

    @pytest.mark.parametrize(
        "G",
        [
            *(catalog(name) for name in catalog_names() if name != "weakly_exotic_sample"),
            catalog("G0", p0=3, off_prime_powers=lambda p, e: Fraction(1, p ** (2 * e))),
            catalog("lemma7_h", s=0.6 + 0.3j),
            catalog("prop5", s=0.7 + 0.1j, g2=0.5 + 0.5j),
            catalog("prop1", cap=1.0),
            MultiplicativeFunction("mixed", rule=lambda p, e: (1, -2, Fraction(1, 3), 0.5, 2j)[(p + e) % 5]),
        ],
        ids=lambda G: G.label,
    )
    def test_catalog_entries(self, G):
        self._check(G)

    @given(values=_RULE_VALUES, seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_random_rules(self, values, seed):
        self._check(_random_exact_rule(values, seed))


def _direct_sums(G, pairs, Q, cps):
    """The strided kernel on Kluyver's plan, as ``_peel_sums`` sends it the
    pairs it does not peel: the terms (d, d, b) for d | a, d <= Q."""
    plans = {(a, b): [(d, d, b) for d in divisors(a) if d <= Q] for a, b in pairs}
    return expansion._strided_sums(G, plans, Q, cps)


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


def _absolute_oracle(V, a, b, xs):
    """sum_{q <= x, (q, b) = 1} |V[q] c_q(a)| exactly, at each x, for a real
    value table V."""
    total = Fraction(0)
    out = []
    lo = 1
    for x in xs:
        for q in range(lo, x + 1):
            if gcd(q, b) == 1:
                total += abs(Fraction(V[q]) * c_holder(q, a))
        out.append(total)
        lo = x + 1
    return out


def _within(values, reference, bound, mass):
    """Each component of each value lies within bound * mass of the reference."""
    for v, (re, im), m in zip(values, reference, mass):
        v = complex(v)
        if abs(Fraction(v.real) - re) > Fraction(bound) * m or abs(Fraction(v.imag) - im) > Fraction(bound) * m:
            return False
    return True


class TestNeumaierSegments:
    # _neumaier_segments(terms, points)[i] is the sum of terms[1..points[i]].
    # Error bound for exact input terms, u = 2^-53, n = len(terms) - 1 <= 3000:
    # each reduceat segment is off by at most gamma_{ceil(log2 n) + 19} times
    # its sum of |t| (derivation in TestFloatingAgainstFractionOracle), and
    # Neumaier's sum across segments adds 2u |S| + O(N u^2) sum |s_j|.  A
    # complex sum is compared per component against |Re t| + |Im t|; choosing
    # Neumaier's branch by modulus can cost each segment 2 more roundings.
    # First order that is (ceil(log2 n) + 23) u times the mass of the terms
    # summed; one more u covers the second-order terms.  Losing the dedupe, the
    # skipped index 0 or a point's position moves a sum by whole terms.
    @staticmethod
    def bound(n):
        return (math.ceil(math.log2(max(n, 2))) + 24) * 2.0**-53

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=0, max_value=2**32),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_within_bound_of_fraction_prefix_sums(self, n, seed, is_complex, data):
        rng = np.random.default_rng(seed)
        # Magnitudes over 16 decades make the segment sums cancel.
        draw = lambda: rng.standard_normal(n + 1) * 10.0 ** rng.integers(-8, 9, n + 1)
        terms = draw() + 1j * draw() if is_complex else draw()
        points = data.draw(
            st.lists(st.one_of(st.just(0), st.integers(min_value=0, max_value=n)), min_size=1, max_size=40)
        )
        points += data.draw(st.lists(st.sampled_from(points), max_size=10))  # repeats
        points = data.draw(st.permutations(points))
        got = _neumaier_segments(terms, points)
        assert got.shape == (len(points),) and got.dtype == terms.dtype
        # Index 0 is never summed: prefix[y] covers terms[1..y] only.
        prefix, mass = [(Fraction(0), Fraction(0))], [Fraction(0)]
        for t in terms[1:].astype(np.complex128).tolist():
            re, im = prefix[-1]
            prefix.append((re + Fraction(t.real), im + Fraction(t.imag)))
            mass.append(mass[-1] + abs(Fraction(t.real)) + abs(Fraction(t.imag)))
        assert _within(got, [prefix[y] for y in points], self.bound(n), [mass[y] for y in points])

    def test_repeated_and_zero_points(self):
        # Integer terms sum exactly; terms[0] is never read.  Without the
        # dedupe the repeated 2 and 5 would start empty reduceat segments,
        # which return terms[3] and terms[6] instead of 0; without dropping
        # 0, y = 0 would get a segment of its own, terms[1], instead of 0.
        terms = np.arange(10, dtype=np.float64) + 100 * (np.arange(10) == 0)
        got = _neumaier_segments(terms, [5, 2, 2, 0, 7, 5, 0])
        assert got.tolist() == [15.0, 3.0, 3.0, 0.0, 28.0, 15.0, 0.0]

    def test_points_keep_their_shape(self):
        terms = np.arange(10, dtype=np.complex128) * (1 + 1j)
        got = _neumaier_segments(terms, np.array([[9, 1], [0, 4]]))
        assert got.dtype == np.complex128
        assert got.tolist() == [[45 + 45j, 1 + 1j], [0j, 10 + 10j]]


class TestFloatingAgainstFractionOracle:
    # Error bound, with u = 2^-53 the unit roundoff and gamma_k = k u / (1 - k u)
    # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4).  For
    # n <= Q <= 10^4:
    # * term: the table entry float(G(n)) is a product of k = omega(n) <= 5
    #   correctly rounded factors float(G(p^e)), multiplied into 1.0 (k - 1
    #   inexact products); the integer weight (|w| < 2^53, exact in float64)
    #   adds one more rounding; strike and abs are exact.  |t^ - t| <= gamma_10 |t|.
    # * segment: ``_neumaier_segments`` sums each segment with one
    #   ``np.add.reduceat`` step, the first term plus a pairwise sum of the
    #   rest.  That pairwise sum starts from an exact 0.0, works on blocks of
    #   at most 128 with 8 accumulators (at most 14 + 3 roundings, plus 7 for
    #   a tail that is not a multiple of 8, so 24) and halves above 128 (at
    #   most ceil(log2 m) - 6 levels for m terms); adding the first term costs
    #   1 more.  So each term passes <= ceil(log2 Q) + 19 roundings, and the
    #   error is <= gamma_{ceil(log2 Q) + 19} times the sum of |t^| over the
    #   segment.
    # * across segments, Neumaier's compensated sum of N segment sums is off
    #   by <= 2u |S| + O(N u^2) sum |s_j| (Neumaier, ZAMM 54, 1974).
    # First order that is (ceil(log2 Q) + 31) u times sum |t|; the second-order
    # terms, below (ceil(log2 Q) + 31)^2 u^2 < 10^-28 relative, fit in one
    # more u.  That covers terms G(n) c_n(a) summed directly, as the tests
    # below do for a reference.
    @staticmethod
    def bound(Q):
        return (math.ceil(math.log2(Q)) + 32) * 2.0**-53

    # The absolute series is the strided kernel on Hardy's plan: for
    # a' = a coprime to b, the sum over d | a' rad a', d <= Q, of
    # |c_d(a')| A_d(x // d), with A_d summed like the series above from the
    # terms |G(dr) mu(r)| over r coprime to a'b.  Per d: the table entry costs
    # 9 roundings (mu and abs are exact), the segment ceil(log2 Q) + 19 and
    # Neumaier 2, relative to sum |G(dr) mu(r)|; the weight |c_d(a')| costs 1
    # more, and the running sum over the tau(a' rad a') divisors
    # tau(a' rad a') - 1 (the first add, to 0.0, is exact).  Every term is
    # >= 0, so the mass sum over d of |c_d(a')| sum |G(dr) mu(r)| is the series
    # itself: the error is at most (ceil(log2 Q) + 30 + tau(a' rad a')) u times
    # the series, plus one u for the second-order terms.  At a' = 1 that is
    # ``bound(Q)``; for a' > 1 it is looser by tau(a' rad a') - 1 units.
    # Dropping a divisor d, or striking the primes of b but not those of a',
    # moves a sum by whole terms, far beyond this bound.
    @staticmethod
    def absolute_bound(Q, a):
        return (math.ceil(math.log2(Q)) + 31 + len(divisors(a * radical(a)))) * 2.0**-53

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
        # and peel masses (next test, TestPeelSums); against sum |terms| it
        # holds here with room, the largest error over 1200 random draws
        # being about a tenth of the bound on either path.
        G = _random_exact_rule(values, seed)
        if a is None:
            series = lambda **kw: restricted_mobius_partial_sums(G, b, Q, **kw)
        else:
            series = lambda **kw: expansion_partial_sums(G, a, Q, coprime_to=b, **kw)
        got = series(absolute=absolute, exact=False)
        want = series(absolute=absolute, exact=True)
        mass = want if absolute else series(absolute=True, exact=True)
        bound = self.absolute_bound(Q, _coprime_part(a or 1, b)) if absolute else self.bound(Q)
        assert got.xs() == want.xs() == mass.xs()
        for (x, f), (_, e), (_, m) in zip(got.checkpoints, want.checkpoints, mass.checkpoints):
            assert abs(Fraction(f) - e) <= Fraction(bound) * m, x

    @given(
        st.one_of(
            st.tuples(st.just("general"), _RULE_VALUES),
            st.tuples(st.just("weakly_exotic_sample"), st.sampled_from([2, 5])),
            st.just(("prop1", None)),
        ),
        st.integers(min_value=0, max_value=2**32),
        st.one_of(st.integers(min_value=1, max_value=300), st.integers(min_value=301, max_value=10**4)),
        st.sampled_from([1, 2, 6, 35]),
        st.sampled_from([1, 6, 12, 35, 360, 720]),
    )
    @settings(max_examples=40, deadline=None)
    def test_absolute_split_for_any_function(self, entry, seed, Q, b, a):
        # Hardy's split needs no multiplicativity of G: a non-multiplicative
        # exact rule, weakly_exotic_sample and the clamped prop1(cap = 1.0)
        # all sum within absolute_bound of the exact series.  prop1 is not
        # exact, so it is compared against its own value table.
        kind, arg = entry
        if kind == "general":
            G = GeneralArithmeticFunction(
                "random_general", fn=lambda n: arg[hash((seed, n)) % len(arg)], exact=True
            )
        elif kind == "weakly_exotic_sample":
            G = catalog("weakly_exotic_sample", p0=arg)
        else:
            G = catalog("prop1", cap=1.0)
        xs = checkpoint_schedule(Q)
        got = expansion_partial_sums(G, a, Q, xs, coprime_to=b, absolute=True, exact=False)
        if G.exact:
            want = expansion_partial_sums(G, a, Q, xs, coprime_to=b, absolute=True, exact=True).values()
        else:
            want = _absolute_oracle(_value_table(G, Q), a, b, xs)
        bound = self.absolute_bound(Q, _coprime_part(a, b))
        assert _within(got.values(), [(w, 0) for w in want], bound, want)

    # The strided kernel on Kluyver's plan (the fallback of ``_peel_sums``)
    # writes the signed expansion at a' = a coprime to b as sum over d | a',
    # d <= Q, of d T_d(x // d), with T_d summed like the series above from the terms
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
        xs = checkpoint_schedule(Q)
        part = _coprime_part(a, b)
        got = _direct_sums(G, [(part, radical(b))], Q, xs)[(part, radical(b))]
        assert _within(got, _signed_oracle(G, a, b, Q, xs), self.kluyver_bound(Q, part), _kluyver_mass(G, part, b, Q, xs))


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
        if exact:
            # The exact kernel holds for any a: weight by c_q at the caller's
            # own a.
            assert self.same(got, _series(G, a, Q, None, "", b, absolute, exact))
            return
        # The floating kernels need a coprime to b (Kluyver's divisor sum,
        # Hardy's split); the terms weighted by c_q at the caller's own a,
        # summed directly, lie within their bounds of the same exact value.
        xs = got.xs()
        terms = _value_table(G, Q) * np.array([0] + [c_holder(q, a) for q in range(1, Q + 1)])
        if absolute:
            terms = np.abs(terms)
        _strike_non_coprime(terms, b)
        at_a = _neumaier_segments(terms, xs)
        part = _coprime_part(a, b)
        if absolute:
            # All terms are >= 0, so the reference itself, inflated past its
            # own roundoff, is the mass.
            bound = TestFloatingAgainstFractionOracle.absolute_bound(Q, part)
            mass = [Fraction(v) * (1 + Fraction(1, 2**30)) for v in at_a.tolist()]
        else:
            bound, mass = _signed_tolerance(G, part, radical(b), Q, xs)
        bound += TestFloatingAgainstFractionOracle.bound(Q)
        assert _within(got.values(), [(Fraction(complex(v).real), Fraction(complex(v).imag)) for v in at_a], bound, mass)


class TestStrikeNonCoprime:
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


def _cap_guard(G, Q):
    """The peel's cap guard, on the G mu table it reads."""
    return expansion._cap_binds(G, Q, expansion._gmu_table(G, Q))


def _assert_support_is_pointwise(G, Q):
    """G's values at its support points are, dtype and bytes, the value
    table of its pointwise copy there, and that table is 0 elsewhere; both
    arrays are read-only, as they are kept on G."""
    n, vals = _support_values(G, Q)
    table = _value_table(dataclasses.replace(G, support=None), Q)
    assert vals.dtype == table.dtype and vals.tobytes() == table[n].tobytes(), Q
    assert not np.delete(table, n).any(), Q
    assert not n.flags.writeable and not vals.flags.writeable


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

    def test_records_whether_the_cap_clamped(self):
        # Neither table writes the flag; the peel's guard does, for a capped
        # G only (None: no flag at all).
        for G, clamped in ((catalog("GR"), None), (catalog("prop1"), False), (catalog("prop1", cap=1.0), True)):
            _value_table(G, 20_000)
            expansion._gmu_table(G, 20_000)
            assert ("clamped", 20_000) not in G._memo, G.label
            restricted_mobius_partial_sums(G, 1, 20_000, exact=False)
            assert G._memo.get(("clamped", 20_000)) is clamped, G.label

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

    @pytest.mark.parametrize(
        "G",
        [
            catalog("prop5"),  # G(3) = 0 and G(p) < 0 above
            catalog("lemma7_h", s=0.6),
            catalog("indicator_prime_powers", p0=3),
            MultiplicativeFunction("signed zeros", rule=lambda p, e: -0.0 if e >= 2 else (0.0 if p == 5 else -1.0 / p)),
            # Dyadic prime values pass the form check in float32; the entries
            # above sqrt(Q) must still be float64 products with the
            # cofactor's non-dyadic value (1/3 on every square).
            MultiplicativeFunction(
                "float32 form",
                rule=lambda p, e: Fraction(1, 3) if e >= 2 else Fraction(3 if p % 4 == 3 else 2, 4),
                exact=True,
                at_primes=lambda P: np.where(P % 4 == 3, 0.75, 0.5).astype(np.float32),
            ),
        ],
        ids=["prop5", "lemma7_h", "indicator", "signed_zeros", "float32_form"],
    )
    def test_zero_signs_match_the_pointwise_product(self, G):
        # The sieve's shortcuts (one scalar multiply when every higher power
        # is 0, skipped cofactors whose entry is 0) keep every byte of a
        # value table, the sign of each zero included, in float64.
        Q = 5000
        want = [0.0]
        for n in range(1, Q + 1):
            w = 1.0
            for p, e in factorize(n):
                w *= float(G.rule(p, e))
            want.append(w)
        assert _value_table(G, Q).tobytes() == np.array(want).tobytes()

    def test_non_number_is_rejected_not_nan(self):
        for G in (
            MultiplicativeFunction("None at 7", rule=lambda p, e: None if p == 7 else Fraction(1, 2)),
            MultiplicativeFunction("None at 97", rule=lambda p, e: None if p == 97 else Fraction(1, 2)),
            GeneralArithmeticFunction("None at 70", fn=lambda n: None if n == 70 else Fraction(1, 2)),
        ):
            with pytest.raises(ValueError, match="must be real or complex numbers"):
                _value_table(G, 100)

    def test_non_number_rule_fails_the_kernel_rule_with_value_error(self):
        # The signed series reads G(7) in the kernel rule, before any table
        # is built; the absolute one reads it in the value table.
        G = MultiplicativeFunction("None at 7", rule=lambda p, e: None if p == 7 else Fraction(1, 2))
        for absolute in (False, True):
            with pytest.raises(ValueError, match="must be real or complex numbers"):
                expansion_partial_sums(G, 7, 100, absolute=absolute, exact=False)

    @pytest.mark.parametrize("name, kw", FORM_ENTRIES)
    def test_prime_form_table_equals_scalar_path(self, name, kw):
        G = catalog(name, **kw)
        scalar = dataclasses.replace(G, at_primes=None)
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

        G = dataclasses.replace(GH, rule=rule)
        called.clear()  # the constructor checks the form against the rule
        Q = 10**5
        _value_table(G, Q)
        assert set(called) == set(sieve_primes(math.isqrt(Q)).tolist())

    def test_weakly_exotic_table_promotes_like_pointwise(self):
        # The complex value sits at n = 7 * 2^K: Q = 5 stays real, Q >= 7 is complex.
        G = catalog("weakly_exotic_sample", p0=2, base={1: Fraction(1, 2), 3: 0.25, 7: 0.5j})
        for Q in (5, 7, 100, 5000):
            _assert_support_is_pointwise(G, Q)
        assert _support_values(G, 5)[1].dtype == np.float64 and _support_values(G, 7)[1].dtype == np.complex128

    @pytest.mark.parametrize(
        "G, changes, values",
        [
            (
                catalog("GR"),
                {"rule": lambda p, e: Fraction(1, p ** (2 * e)), "at_primes": None},
                lambda G, Q: _value_table(G, Q).tobytes(),
            ),
            # The copy keeps the support, so it reads the kind of values the
            # original keeps: the compact ones at its support points.
            (
                catalog("weakly_exotic_sample"),
                {"fn": lambda n: 2 * catalog("weakly_exotic_sample").fn(n)},
                lambda G, Q: b"".join(t.tobytes() for t in _support_values(G, Q)),
            ),
        ],
        ids=["multiplicative", "general"],
    )
    def test_replace_starts_with_an_empty_memo(self, G, changes, values):
        # A copy with another rule must not read the values, tables or
        # T_d sums memoized on the original (a shared memo summed GR's
        # mu(q) / q^2 copy to 0.0044 at Q = 1000, not about 6 / pi^2).
        Q = 1000
        for n in range(1, 13):
            G.eval(n)
        values(G, Q)
        expansion_partial_sums(G, 1, Q, exact=False)
        H = dataclasses.replace(G, **changes)
        built = type(G)(**{f.name: getattr(H, f.name) for f in dataclasses.fields(H) if f.init})
        assert H._memo == {} and H._memo is not G._memo
        assert [H.eval(n) for n in range(1, 13)] == [built.eval(n) for n in range(1, 13)]
        assert values(H, Q) == values(built, Q) != values(G, Q)
        assert expansion_partial_sums(H, 1, Q, exact=False) == expansion_partial_sums(built, 1, Q, exact=False)
        with pytest.raises(ValueError, match="_memo"):
            dataclasses.replace(G, _memo={})

    def test_malformed_general_table_rejected(self):
        G = GeneralArithmeticFunction("support from 0", fn=lambda n: 0, support=lambda Q: range(Q + 1))
        with pytest.raises(ValueError, match="support"):
            _support_values(G, 100)

    @pytest.mark.parametrize("p0", [2, 3, 5])
    @pytest.mark.parametrize(
        "base",
        [
            {1: Fraction(1), 7: Fraction(1, 2), 13: Fraction(-1, 4)},
            {1: 1, 7: -2 / 3, 11: 0.125},
            {1: Fraction(1, 2), 11: 0.25, 7: 0.5j},
        ],
        ids=["fractions", "floats", "complex_at_7"],
    )
    def test_support_table_is_the_pointwise_table(self, p0, base):
        # The complex value sits first at n = 7: Q = 6 stays real, Q >= 7 is complex.
        G = catalog("weakly_exotic_sample", p0=p0, base=base)
        for Q in (1, 2, 6, 7, 8, 100, 5000):
            _assert_support_is_pointwise(G, Q)

    @pytest.mark.parametrize("bad", [0, 101, 1.5], ids=["zero", "Q+1", "non-integer"])
    def test_malformed_support_rejected(self, bad):
        G = GeneralArithmeticFunction("bad support", fn=lambda n: 1, support=lambda Q: [1, bad, Q])
        with pytest.raises(ValueError, match=r"support\(100\) must give"):
            _support_values(G, 100)

    def test_one_table_per_kind(self):
        # A table at a new Q replaces its kind's table at the old Q, and a G
        # mu table also drops the cap guard's answer read from the old one;
        # the series at the first Q still has a fresh G's bytes.
        G = catalog("prop1")
        first = expansion_partial_sums(G, 6, 2000, exact=False)
        expansion_partial_sums(G, 6, 3000, exact=False)
        assert _tuple_keys(G) == {("gmu", 3000), ("clamped", 3000)}
        for Q in (2000, 3000):
            expansion_partial_sums(G, 6, Q, absolute=True, exact=False)
        assert _tuple_keys(G) == {("gmu", 3000), ("clamped", 3000), ("values", 3000)}
        again = expansion_partial_sums(G, 6, 2000, exact=False)
        assert repr(again) == repr(first) == repr(expansion_partial_sums(catalog("prop1"), 6, 2000, exact=False))
        assert _tuple_keys(G) == {("gmu", 2000), ("clamped", 2000), ("values", 3000)}

    @pytest.mark.parametrize("cap", [10.0, 1.2])
    def test_squarefree_cap_matches_eval(self, cap):
        # cap = 1.2 makes the clamp bite on many squarefree n.
        G = catalog("prop1", cap=cap)
        vals = _value_table(G, 5000)
        want = np.array([0.0] + [float(G.eval(n)) for n in range(1, 5001)])
        assert np.allclose(vals, want, rtol=1e-12, atol=0)

    def test_squarefree_cap_leaves_one_alone(self):
        vals = _value_table(catalog("prop1", cap=0.5), 1000)
        assert vals[1] == 1.0 and abs(vals[6]) == pytest.approx(0.5 / 6)

    def test_squarefree_cap_clamps_without_whole_range_temporaries(self):
        # The clamp works one block of core._BLOCK entries at a time: the
        # 8 MB table, the sieve's scratch and one block's squarefree indices
        # and magnitudes peak near 14 MiB, while indices and magnitudes over
        # the whole range took it to 22.1 MiB.
        assert self._traced_peak(_value_table, 10.0) < 18 * 2**20

    @pytest.mark.parametrize(
        "build, cap",
        [(_value_table, 1.0), (_cap_guard, 10.0), (_cap_guard, 1.0)],
        ids=["values-cap1", "gmu-cap10", "gmu-cap1"],
    )
    def test_every_clamp_stays_block_sized(self, build, cap):
        # Cap 1 clamps every squarefree n > 1 of the value table; over the
        # whole range that peaked at 40.7 MiB, in blocks it stays near
        # 16.3 MiB.  The guard on the G mu table (gmu) reads it a quarter
        # block at a time, and scans every one at cap 10, where it never
        # binds: the 2.5 MiB table plus about 2.6 MiB.
        assert self._traced_peak(build, cap) < 18 * 2**20

    @staticmethod
    def _traced_peak(build, cap):
        core.mobius_table(10**6)
        tracemalloc.start()
        try:
            build(catalog("prop1", cap=cap), 10**6)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("Q", [10, 1000, 10**6 + 7])
    def test_blocked_clamp_is_the_whole_range_clamp(self, Q):
        # Against the clamp applied at once to the whole unclamped table:
        # the value table over every n byte for byte, and the guard's flag
        # is whether that clamp changes the G mu table over every n
        # (``_full_gmu``), of which ``_gmu_table`` keeps the entries at the n
        # coprime to 6 unclamped.  Cap 2.5 clamps only even n (n |G(n)| is
        # the product of 1 + 1/p over the primes of n, under 2.3 for odd
        # n <= 10^6 + 7), so only the classes 2m and 6m can raise the flag.
        for G in (catalog("prop1"), catalog("prop1", cap=2.5), catalog("prop1", cap=1.0)):
            uncapped = dataclasses.replace(G, squarefree_cap=None)
            full = _full_gmu(uncapped, Q)
            for want, support in ((_value_table(uncapped, Q).copy(), core.mobius_table(Q)), (full.copy(), full)):
                n = np.flatnonzero(support)[1:]
                mag, bound = np.abs(want[n]), G.squarefree_cap / n
                over = mag > bound
                want[n[over]] *= bound[over] / mag[over]
                H = dataclasses.replace(G)
                if support is full:
                    got = expansion._gmu_table(H, Q)
                    assert got[0] == 0 and got[1:].tobytes() == full[_coprime_to_6(Q)].tobytes(), G.label
                    assert expansion._cap_binds(H, Q, got) is bool(over.any()), G.label
                else:
                    assert _value_table(H, Q).tobytes() == want.tobytes(), G.label


def _none_at_5(exact):
    return MultiplicativeFunction(
        "None at 5", rule=lambda p, e: None if p == 5 else (Fraction(1, 2) if exact else 0.5), exact=exact
    )


def _none_at(p, **kw):
    return MultiplicativeFunction(f"None at {p}", rule=lambda q, e: None if q == p else 0.5, **kw)


class TestNonNumberValues:
    """A rule or fn giving a non-number fails with ``ValueError`` on every
    path: the value rule of the tables and the scalar reads alike."""

    def test_rule_checked_against_its_prime_form(self):
        with pytest.raises(ValueError, match="must be real or complex numbers"):
            MultiplicativeFunction("None", rule=lambda p, e: None, at_primes=lambda P: 1.0 / P)

    def test_weakly_exotic_base(self):
        G = catalog("weakly_exotic_sample", base={1: None})
        with pytest.raises(ValueError, match=r"weakly_exotic_sample\(p0=2\): fn\(1\) gives None"):
            expansion_partial_sums(G, 1, 100, exact=False)

    @pytest.mark.parametrize(
        "probe",
        [
            lambda: spectrum(_none_at_5(False)),
            lambda: zero_cloud_verdict(_none_at_5(False), FAST_CFG),
            lambda: expansion_partial_sums(_none_at_5(True), 1, 100),
            lambda: finite_factor(_none_at_5(True), 10),
        ],
        ids=["spectrum", "zero_cloud_verdict", "exact_expansion", "finite_factor"],
    )
    def test_scalar_reads(self, probe):
        with pytest.raises(ValueError, match=r"None at 5: rule\(5, 1\) gives None"):
            probe()

    @pytest.mark.parametrize(
        "probe, p",
        [
            (lambda: _none_at(7, at_primes=lambda P: np.full(len(P), 0.5)), 7),
            (lambda: _value_table(_none_at(7), 40), 7),  # 7 above isqrt(40)
            (lambda: _value_table(_none_at(7), 100), 7),  # 7 a swept prime
            (lambda: restricted_mobius_partial_sums(_none_at(7), 1, 100, exact=False), 7),
            (lambda: expansion_partial_sums(_none_at(3), 3, 100, exact=False), 3),
        ],
        ids=["at_primes_check", "value_table_large", "value_table_swept", "gmu_table", "kernel_rule"],
    )
    def test_table_reads_name_the_entry(self, probe, p):
        # The same message as the scalar reads, not the anonymous one of
        # core._gather.
        with pytest.raises(ValueError, match=rf"None at {p}: rule\({p}, 1\) gives None; values must be real"):
            probe()


class TestResourceBudget:
    # With the budget patched down, an over-budget Q must raise before any
    # table of that size exists (2 * 10^6 float64 entries would be 16 MB).
    @pytest.mark.parametrize(
        "build",
        [
            lambda: _value_table(catalog("GH"), 2 * 10**6),
            lambda: _support_values(catalog("weakly_exotic_sample"), 2 * 10**6),
            lambda: restricted_mobius_partial_sums(catalog("GR"), 1, 2 * 10**6),
            lambda: expansion_partial_sums(catalog("GH"), 6, 2 * 10**6, coprime_to=2),
            # Both slots hold 10^6 already: the budget must win over the cache.
            lambda: core.mobius_table(2 * 10**5),
            lambda: core.sieve_primes(2 * 10**5),
        ],
        ids=["value_table", "general_table", "restricted_series", "expansion", "cached_mobius", "cached_primes"],
    )
    def test_over_budget_raises_before_allocating(self, monkeypatch, build):
        core.mobius_table(10**6)
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


def _tuple_keys(G):
    """The table keys a series left on G (``eval`` memoizes under ints)."""
    return {k for k in G._memo if isinstance(k, tuple)}


def _kept_keys(monkeypatch) -> list:
    """The keys ``_keep`` stores tables under from now on, in order: what a
    verdict built, since it leaves none of them on G."""
    kept = []
    keep = expansion._keep
    monkeypatch.setattr(expansion, "_keep", lambda G, key, table: kept.append(key) or keep(G, key, table))
    return kept


def _peeled(G, a, b, Q):
    """Whether ``_peel_sums`` takes the pair (a, b) through the peel: G is
    multiplicative, |G(p)| <= 1 at every prime 3 < p <= Q of ab, and a cap
    changes no entry of the G mu table over every n <= Q."""
    if not isinstance(G, MultiplicativeFunction):
        return False
    full = _full_gmu(G, Q)
    n = np.flatnonzero(full)[1:]
    binds = G.squarefree_cap is not None and bool((np.abs(full[n]) > G.squarefree_cap / n).any())
    return not binds and all(abs(full[p]) <= 1 for p in factorize(a * b).primes() if 3 < p <= Q)


def _primes_above_3(n):
    return [p for p in factorize(n).primes() if p > 3]


def _smooth(primes, limit, g=lambda p: 1.0):
    """Every n <= limit whose primes all lie in ``primes``, with the product
    of g(p) over its prime factors counted with multiplicity, as (n, weight)."""
    out = [(1, 1.0)]
    for p in primes:
        for n, w in list(out):
            while n * p <= limit:
                n, w = n * p, w * g(p)
                out.append((n, w))
    return out


def _peel_mass(G, a, b, Q, xs):
    """M_P(x) = sum over the terms k = dm' (d | a, m' | rad d, k <= Q) of
    |d G(k)| sum over the n smooth in the primes above 3 of B of
    |G~(n)| A(x // kn), with B = b rad(d) and A(y) = sum_{r <= y} |G(r) mu(r)|:
    the climb multiplies by G(p) at the p > 3 only, and
    A(y) = sum over s | 6 of |G(s)| A_6(y // s), A_6 summing the r coprime
    to 6, holds the terms at m' = s m'' that ``_kluyver_terms`` adds for
    the s | 6 coprime to bd, those with 3 | s carrying |G(3)|.  Magnitudes are
    |Re| + |Im|, and a non-exact G is read from its value table.  Summed in floats: every term
    is >= 0, so no step cancels and each of the at most 2 * 10^4 roundings
    in a chain costs at most u relative; (1 + 2^-30) times the float sum
    bounds the exact mass."""
    if G.exact:
        mag = lambda n: abs(float(G.eval(n)))
    else:
        V = _value_table(G, Q)
        mag = lambda n: abs(V[n].real) + abs(V[n].imag)
    A = np.cumsum([0.0] + [mag(r) if mobius(r) else 0.0 for r in range(1, Q + 1)])
    xs = np.array(xs, dtype=np.int64)
    out = np.zeros(len(xs))
    for d in divisors(a):
        if d > Q:
            break
        ns, ws = map(np.array, zip(*_smooth(_primes_above_3(b * radical(d)), Q, mag)))
        for m in divisors(radical(d)):
            if d * m <= Q:
                out += d * mag(d * m) * (A[xs[:, None] // (d * m * ns)] * ws).sum(axis=1)
    return [Fraction(v) * (1 + Fraction(1, 2**30)) for v in out.tolist()]


def _signed_tolerance(G, a, b, Q, xs):
    """(bound, mass) of the signed floating expansion at a coprime to the
    radical b, for the kernel ``_peel_sums`` takes."""
    if _peeled(G, a, b, Q):
        return TestPeelSums.bound(Q, a, b, G.exact), _peel_mass(G, a, b, Q, xs)
    return TestFloatingAgainstFractionOracle.kluyver_bound(Q, a), _kluyver_mass(G, a, b, Q, xs)


class TestPeelSums:
    # The peel writes the signed expansion at a coprime to b as
    # S(x) = sum over d | a of d T_{d,b}(x // d), with
    # T_{d,b}(y) = sum over m' | rad(6d) / gcd(6, b) of mu(m') G(dm') R_B(y // m')
    # and B = 6 b rad(d): m' takes the primes of d and those of 2 and 3
    # that b lacks.  It climbs a trie of the primes above 3 from the root
    # R_6(y) = sum_{r <= y, (r, 6) = 1} G(r) mu(r) by
    # R_{Fp}(z) = R_F(z) + G(p) R_{Fp}(z // p), so that the node of B holds
    # R_B(z) = sum over the n <= z smooth in the primes of B above 3 of
    # G~(n) R_6(z // n), with G~ completely multiplicative, G~(p) = G(p).
    # Error bound, in the terms of TestFloatingAgainstFractionOracle
    # (u = 2^-53, Q <= 10^4), for exact real rules, per term G~(n) R_6(z // n)
    # of R_B(z):
    # * R_6(y), the sum of the table entries at the n <= y coprime to 6:
    #   entries 7 roundings (a squarefree n <= 10^4 coprime to 6 has at most
    #   4 primes), one reduceat segment over at most ceil(Q / 3) entries
    #   (first term plus a pairwise sum of the rest) ceil(log2 Q) + 18,
    #   Neumaier across segments 2: ceil(log2 Q) + 27 relative to
    #   A_6(y) = sum_{r <= y, (r, 6) = 1} |G(r) mu(r)|.
    #   Reading R_F at a node's points copies values, exactly.
    # * Horner along each prime p > 3 of B, which meets the term with
    #   n = ... p^j ...: j products by the float G(p), each 2 (the rounding of
    #   G(p) and of the product), and at most j + 1 additions (its own level
    #   and each level above; below p a node copies R_F, exactly).  A prime
    #   above every point of its node copies too.  Over the primes of B that
    #   is 3 Omega(n) + omega(B) <= 3 floor(log5 Q) + omega(ab), since n <= Q
    #   has no prime below 5.
    # So R_B(z) is off by (ceil(log2 Q) + 3 floor(log5 Q) + 27 + omega(ab)) u
    # times sum_n |G~(n)| A_6(z // n).  Every term of T_{d,b} then costs the
    # float of its exact coefficient mu(m') G(dm') 1 and its product 1, and
    # the running sum over the t(d) terms of T_{d,b} t(d) - 1 (the first
    # add, to 0.0, is exact): t(d) + 1 more, where t(d), at most the number
    # of divisors of rad(6d) / gcd(6, b), is at most 2^(omega(d) + 2).  For
    # a > 1 the weight d costs 1 and the running sum over the tau(a)
    # divisors tau(a) - 1; at a = 1 both are exact.  With t the largest
    # t(d) over the d | a with d <= Q, S is off by
    # (ceil(log2 Q) + 3 floor(log5 Q) + 27 + omega(ab) + t + tau(a) + [a > 1]) u
    # times the peel mass ``_peel_mass``: a term at m' = s m'', s | 6
    # coprime to bd, carries |G(s)| |G(dm'')|, so the m' with 2 or 3 are
    # the steps of A(y) = sum over s | 6 of |G(s)| A_6(y // s), the sum of
    # |G(r) mu(r)| over every r <= y.  One more u covers the second-order
    # terms.
    # A non-exact G (here lemma7_h(s = 0.6 + 0.3i)) is compared against its
    # own value table, per component.  A complex product rounds each
    # component at most twice relative to the product of the |Re| + |Im|
    # magnitudes, so every count doubles; and the table is multiplicative
    # only up to its entries' own roundings (at most 4 products, 8 in these
    # terms) on both sides of G(st) = G(s) G(t), 18 more relative to the
    # same mass.
    # With |G(p)| <= 1 at the primes p > 3 of B every |G~(n)| is at most 1,
    # so the mass grows no faster than the number of those B-smooth n <= x;
    # with |G(p)| > 1 at such a p it grows like |G(p)|^(log_p x), which is
    # why the peel falls back there.  G(2) and G(3) enter only the
    # coefficients G(dm'), as they enter Kluyver's sum, so |G(2)| > 1 or
    # |G(3)| > 1 keeps the peel.  A dropped or mis-signed
    # m' term, a wrong G(p), a skipped level or a point read off by one
    # moves a sum by whole terms.
    @staticmethod
    def bound(Q, a=1, b=1, exact=True):
        log_up, log5_down = math.ceil(math.log2(Q)), len(np.base_repr(Q, 5)) - 1
        t = max(len(divisors(radical(6 * d) // gcd(6, b))) for d in divisors(a) if d <= Q)
        count = log_up + 3 * log5_down + 27 + len(factorize(a * b).primes()) + t + len(divisors(a)) + (a > 1)
        return (count + 1 if exact else 2 * count + 18 + 1) * 2.0**-53

    @given(
        _rule_values(1),
        _RULE_VALUES,
        st.integers(min_value=0, max_value=2**32),
        st.one_of(st.integers(min_value=1, max_value=300), st.integers(min_value=301, max_value=10**4)),
        st.sampled_from([6, 12, 35, 360, 720]),
        st.sampled_from([1, 2, 6, 35]),
    )
    @settings(max_examples=30, deadline=None)
    def test_expansion_within_bound_of_the_fraction_oracle(self, values, low, seed, Q, a, b):
        # |G(p)| <= 1 above 3, where the climb multiplies by G(p); G(2) and
        # G(3), which enter the coefficients only, range over [-3, 3].
        G = _random_exact_rule(values, seed, low)
        got = expansion_partial_sums(G, a, Q, coprime_to=b, exact=False)
        assert _tuple_keys(G) == {("gmu", Q)}  # the peel ran, not the direct kernel
        xs = got.xs()
        part = _coprime_part(a, b)
        want = expansion_partial_sums(G, a, Q, xs, coprime_to=b, exact=True)
        for x, f, e, m in zip(xs, got.values(), want.values(), _peel_mass(G, part, b, Q, xs)):
            assert type(f) is float
            assert abs(Fraction(f) - e) <= Fraction(self.bound(Q, part, b)) * m, x

    @pytest.mark.parametrize(
        "G",
        [catalog("prop5"), catalog("lemma7_h", s=0.6), catalog("lemma7_h", s=0.6 + 0.3j)],
        ids=lambda G: G.label,
    )
    def test_even_ab_within_bound_of_the_table_oracle(self, G):
        # |G(2)| = 2^0.4 = 1.32 and |G(p)| < 1 at every odd p, for all three:
        # every pair is peeled, the pairs with ab even included, and each
        # component lies within the non-exact bound times the peel mass of
        # the exact sum over G's own value table.
        Q = 3000
        xs = checkpoint_schedule(Q)
        pairs = sorted({(_coprime_part(a, b), b) for a in (1, 2, 9, 12, 45) for b in (1, 2, 3, 6, 30)})
        got = expansion._peel_sums(G, pairs, Q, xs)
        assert _tuple_keys(G) == {("gmu", Q)}  # the peel ran, not the direct kernel
        assert any(a * b % 2 == 0 for a, b in pairs) and any(a * b % 2 for a, b in pairs)
        for a, b in pairs:
            want = _signed_oracle(G, a, b, Q, xs)
            assert _within(got[(a, b)], want, self.bound(Q, a, b, exact=False), _peel_mass(G, a, b, Q, xs)), (a, b)

    def test_complex_climb_is_the_plane_rule(self):
        # Every complex product of the peel (G(p) in the climb, the
        # coefficients mu(m') G(dm')) rounds as ``core._mul`` does, one
        # IEEE operation per plane, so its bytes do not depend on numpy's
        # SIMD.  Checked byte for byte against the same plan carried out
        # point by point in Python float arithmetic.
        G = catalog("lemma7_h", s=0.6 + 0.3j)
        Q = 5000
        pairs = sorted({(_coprime_part(a, b), b) for a in (1, 2, 9, 12, 45) for b in (1, 2, 3, 6, 30)})
        got = expansion._peel_sums(G, pairs, Q, checkpoint_schedule(Q))
        want = _pointwise_peel(G, pairs, Q, checkpoint_schedule(Q))
        for pair in pairs:
            assert np.array(got[pair]).tobytes() == np.array(want[pair]).tobytes(), pair


def _plane_product(c, x):
    """c x for a Python complex x as ``core._mul`` forms it: (ac - bd, ad + bc)
    for complex c, (ac, bc) for real c, one Python float operation at a time."""
    if np.iscomplexobj(c):
        c = complex(c)
        return complex(x.real * c.real - x.imag * c.imag, x.imag * c.real + x.real * c.imag)
    return complex(x.real * c, x.imag * c)


def _pointwise_peel(G, pairs, Q, cps):
    """``_peel_sums`` of a complex G, point by point: the same terms and
    the root R_6 off the table, then R_{Fp}(z) = R_F(z) + G(p) R_{Fp}(z // p)
    at each point of each other node ascending, each T_{d,b} as the sum of
    its terms and each pair as the sum of d T_{d,b} over its plan, every
    complex product by ``_plane_product``."""
    gmu = expansion._gmu_table(G, Q)
    xs = np.array(cps, dtype=np.int64)
    plans = {(a, b): [d for d in divisors(a) if d <= Q] for a, b in pairs}
    terms = {(d, b): expansion._kluyver_terms(G, d, b, Q) for a, b in pairs for d in plans[(a, b)]}
    reads = {}
    for k, _, node in (t for ts in terms.values() for t in ts):
        reads.setdefault(node, set()).add(k)
    points = expansion._peel_points(reads, xs)
    root = points[()]
    R = {(): dict(zip(root.tolist(), _neumaier_segments(gmu, core._wheel_count(root)).tolist()))}
    for node in sorted(points, key=len)[1:]:
        p, parent, R[node] = node[-1], R[node[:-1]], {}
        g = -gmu[p // 3 + 1]
        for z in points[node].tolist():
            R[node][z] = parent[z] + _plane_product(g, R[node][z // p]) if z >= p else parent[z]
    T = {}
    for key, ts in terms.items():
        T[key] = [complex(0.0, 0.0)] * len(cps)
        for k, coef, node in ts:
            T[key] = [t + _plane_product(coef, R[node][x // k]) for t, x in zip(T[key], cps)]
    out = {}
    for (a, b), ds in plans.items():
        out[(a, b)] = [0.0] * len(cps)
        for d in ds:
            out[(a, b)] = [s + d * t for s, t in zip(out[(a, b)], T[(d, b)])]
    return out


class TestPeelRestrictedSums:
    # The restricted series is the peel at a = 1; its bound is
    # TestPeelSums.bound(Q, 1, b).
    @given(
        _rule_values(1),
        st.integers(min_value=0, max_value=2**32),
        st.one_of(st.integers(min_value=1, max_value=300), st.integers(min_value=301, max_value=10**4)),
        st.sampled_from([1, 2, 6, 30, 210]),
    )
    @settings(max_examples=30, deadline=None)
    def test_within_peel_bound_of_the_fraction_oracle(self, values, seed, Q, b):
        G = _random_exact_rule(values, seed)
        xs = checkpoint_schedule(Q)
        got = expansion._peel_sums(G, [(1, b)], Q, xs)[(1, b)]
        assert _tuple_keys(G) == {("gmu", Q)}  # the peel ran, not the direct kernel
        want = restricted_mobius_partial_sums(G, b, Q, xs, exact=True)
        assert restricted_mobius_partial_sums(G, b, Q, xs, exact=False).values() == got
        for x, f, e, m in zip(xs, got, want.values(), _peel_mass(G, 1, b, Q, xs)):
            assert type(f) is float
            assert abs(Fraction(f) - e) <= Fraction(TestPeelSums.bound(Q, 1, b)) * m, x

    @pytest.mark.parametrize(
        "G, radicals",
        [
            # G(5) = 2 at the prime 5 of every b: the climb's powers of G(5)
            # would amplify roundoff.
            (catalog("prop5", p2=5, g2=2), [5, 10, 15, 30, 35]),
            # cap 1.0 clamps every squarefree n > 1: the table is not multiplicative.
            (catalog("prop1", cap=1.0), [1, 2, 3, 6, 30]),
            # Not multiplicative at all.
            (catalog("weakly_exotic_sample"), [1, 2, 3, 6, 30]),
        ],
    )
    def test_fallbacks_keep_the_direct_kernel(self, G, radicals):
        # Restricted series (a = 1) and expansions (a > 1) alike, bit for bit,
        # in a batch of at least 10 pairs and alone through the public call:
        # unlike a peeled series, a strided one does not depend on its batch.
        Q = FAST_CFG.Q
        cps = checkpoint_schedule(Q)
        pairs = sorted({(_coprime_part(a, b), b) for a in (1, 12, 45) for b in radicals})
        assert len(pairs) >= 10
        got = expansion._peel_sums(G, pairs, Q, cps)
        direct = _direct_sums(dataclasses.replace(G), pairs, Q, cps)
        for a, b in pairs:
            want = direct[(a, b)]
            assert np.array(got[(a, b)]).tobytes() == np.array(want).tobytes(), (a, b)
            series = expansion_partial_sums(dataclasses.replace(G), a, Q, coprime_to=b, exact=False)
            assert np.array(series.values()).tobytes() == np.array(want).tobytes(), (a, b)

    @pytest.mark.parametrize("name", ["GR", "GH", "prop1"])
    def test_verdict_leaves_restricted_series_unchanged(self, name):
        # A restricted series read after a classical verdict on the same G
        # has the bytes of one read on a fresh copy: the peel stores nothing
        # but the G mu table.
        G = catalog(name)
        assert zero_cloud_verdict(G, FAST_CFG).conclusion == "in_zero_cloud"
        fresh = dataclasses.replace(G)
        for b in sorted({radical(a) for a in FAST_CFG.sample_a}):
            after = restricted_mobius_partial_sums(G, b, FAST_CFG.Q, exact=False)
            alone = restricted_mobius_partial_sums(fresh, b, FAST_CFG.Q, exact=False)
            assert TestCoprimePart.same(after, alone), b


class TestKluyverTerms:
    @pytest.mark.parametrize(
        "G",
        [catalog("GR"), catalog("GH"), catalog("G0", p0=3), catalog("indicator_prime_powers", p0=2), catalog("prop1")],
        ids=lambda G: G.label,
    )
    def test_coefficients_are_the_rounded_products(self, G):
        # Byte for byte against float(mu(m') * G(k)), the product formed in
        # the exact type of G.eval, for every d | a of the pairs (a, b) with
        # a <= 300 coprime to b: m' runs over the squarefree divisors of 6d
        # coprime to b, which are the peel at 2 and at 3 where bd lacks them,
        # and the node is the primes of bd above 3.  Q = 40 drops the terms
        # with k > Q.
        for Q in (40, 10**6):
            for b in (1, 2, 3, 5, 6, 30):
                for d in sorted({d for a in range(1, 301) for d in divisors(_coprime_part(a, b)) if d <= Q}):
                    want = [
                        (d * m, float(mobius(m) * G.eval(d * m)).hex(), tuple(_primes_above_3(b * d)))
                        for m in divisors(6 * d)
                        if mobius(m) and gcd(m, b) == 1 and d * m <= Q
                    ]
                    got = [(k, float(c).hex(), node) for k, c, node in expansion._kluyver_terms(G, d, b, Q)]
                    assert got == want, (G.label, d, b, Q)


class TestPeelPoints:
    # The trie's root, R_6, holds exactly the points of the rectangle the
    # peel used to read: every positive x // (k n) over the n smooth in the
    # primes of each term's node, all above 3.  Small Q puts primes of b
    # above Q, and above every point.
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=2000), st.sampled_from([1, 2, 6, 35, 210])),
            min_size=1,
            max_size=5,
        ),
        st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=13, max_value=10**4)),
    )
    @settings(max_examples=40, deadline=None)
    def test_root_points_are_the_smooth_quotients(self, raw, Q):
        G = catalog("GR")
        xs = np.array(checkpoint_schedule(Q), dtype=np.int64)
        reads, want = {}, set()
        for a, b in {(_coprime_part(a, b), b) for a, b in raw}:
            for d in divisors(a):
                if d > Q:
                    break
                for k, _, node in expansion._kluyver_terms(G, d, b, Q):
                    reads.setdefault(node, set()).add(k)
                    ns = np.array([n for n, _ in _smooth(node, Q)], dtype=np.int64)
                    want |= set((xs[:, None] // (k * ns)).ravel().tolist()) - {0}
        points = expansion._peel_points(reads, xs)
        assert set(points[()].tolist()) - {0} == want
        for node, z in points.items():
            assert z[0] >= 0 and np.all(z[1:] > z[:-1]), node
            assert all(p > 3 for p in node), node
            if node:
                assert set(z.tolist()) <= set(points[node[:-1]].tolist()), node

    def test_2_and_3_never_make_a_node(self):
        # 2 and 3 enter through the m' of ``_kluyver_terms``, never the
        # climb: b, 2b, 3b and 6b with the same primes above 3 read one
        # node, the primes of bd above 3, at every d coprime to them.
        G = catalog("GR")
        for f in (1, 5, 7, 35, 385):
            for d in (1, 2, 3, 4, 5, 6, 7, 9, 12, 25, 35, 77, 180):
                if gcd(d, f) == 1:
                    bs = [c * f for c in (1, 2, 3, 6) if gcd(d, c) == 1]
                    nodes = {node for b in bs for _, _, node in expansion._kluyver_terms(G, d, b, 10**6)}
                    assert nodes == {tuple(_primes_above_3(d * f))}, (d, bs)


def _table_masses(G, pairs, Q, xs):
    """{(a, b): (peel mass, Kluyver mass)} as ``_peel_mass`` and
    ``_kluyver_mass`` define them, read from the value table V of a fresh
    copy of G, with magnitudes |Re| + |Im|.  For an exact G each |V[n]| is
    within 10 u of |G(n)|, every term is >= 0 and each cumulative sum or
    chain of products has at most Q roundings of u relative each, so
    (1 + 2^-30) times the float masses bounds the exact ones."""
    V = _value_table(dataclasses.replace(G), Q)
    V, squarefree = np.abs(V.real) + np.abs(V.imag), core.mobius_table(Q) != 0
    A = np.cumsum(V * squarefree)
    xs = np.array(xs, dtype=np.int64)
    out = {}
    for a, b in pairs:
        peel = kluyver = np.zeros(len(xs))
        for d in divisors(a):
            if d > Q:
                break
            u = V[::d] * squarefree[: Q // d + 1]  # |G(dm) mu(m)|
            _strike_non_coprime(u, b)
            kluyver = kluyver + d * np.cumsum(u)[xs // d]
            ns, ws = map(np.array, zip(*_smooth(_primes_above_3(b * radical(d)), Q, lambda p: V[p])))
            for m in divisors(radical(d)):
                if d * m <= Q:
                    peel = peel + d * V[d * m] * (A[xs[:, None] // (d * m * ns)] * ws).sum(axis=1)
        out[(a, b)] = [Fraction(v) * (1 + Fraction(1, 2**30)) for v in peel.tolist()], [
            Fraction(v) * (1 + Fraction(1, 2**30)) for v in kluyver.tolist()
        ]
    return out


class TestPeelAgainstDirectKernel:
    # Every pair a verdict batches under FAST_CFG, peeled off M_G and summed
    # by the direct kernel on a fresh copy: the two share only the sieve and
    # the reduction, so they agree within the sum of their derived bounds
    # times their masses (TestPeelSums.bound, kluyver_bound).
    @pytest.mark.parametrize(
        "G",
        [catalog("GR"), catalog("GH"), catalog("G0", p0=3), catalog("indicator_prime_powers", p0=2)],
        ids=lambda G: G.label,
    )
    def test_verdict_pairs_agree_with_the_direct_kernel(self, G, monkeypatch):
        batches = []
        peel = expansion._peel_sums
        record = lambda G, pairs, Q, cps: batches.append((list(pairs), Q, cps)) or peel(G, pairs, Q, cps)
        monkeypatch.setattr(expansion, "_peel_sums", record)
        kept = _kept_keys(monkeypatch)
        assert zero_cloud_verdict(G, FAST_CFG).conclusion == "in_zero_cloud"
        (pairs, Q, cps), = batches
        assert kept == [("gmu", Q)]  # every pair was peeled
        assert _tuple_keys(G) == set()
        got = peel(G, pairs, Q, cps)
        masses = _table_masses(G, pairs, Q, cps)
        direct = _direct_sums(dataclasses.replace(G), pairs, Q, cps)
        for a, b in pairs:
            want = direct[(a, b)]
            tol_peel = Fraction(TestPeelSums.bound(Q, a, b))
            tol_direct = Fraction(TestFloatingAgainstFractionOracle.kluyver_bound(Q, a))
            for f, w, mp, mk in zip(got[(a, b)], want, *masses[(a, b)]):
                assert abs(Fraction(f) - Fraction(w)) <= tol_peel * mp + tol_direct * mk, (a, b)

    @pytest.mark.parametrize(
        "G",
        [
            catalog("GR"),
            catalog("GH"),
            catalog("G0", p0=3),
            catalog("prop1"),
            catalog("prop5", s=0.6),
            catalog("prop5", g2=2),
            catalog("lemma7_h", s=0.6),
            catalog("lemma7_h", s=0.6 + 0.3j),
        ],
        ids=lambda G: G.label,
    )
    def test_even_m_terms_match_the_direct_kernel(self, G, monkeypatch):
        # Where bd lacks 2 or 3, ``_kluyver_terms`` adds to T_{d,b} the terms
        # mu(m') G(dm') R(y // m') at the m' | rad(6d) that p = 2 or 3
        # divides, the peel at p, R_B(z) = R_{pB}(z) - G(p) R_{pB}(z // p),
        # folded into the plan; the even m' are those at 2.  prop5 and
        # lemma7_h have |G(2)| = 2^0.4 = 1.32 > 1, and prop5(g2 = 2) has
        # G(3) = 2, which enter every pair through its coefficients G(dm')
        # only: every pair is peeled, and agrees with the direct kernel per
        # component.
        Q = FAST_CFG.Q
        cps = checkpoint_schedule(Q)
        pairs = sorted({(_coprime_part(a, b), b) for a in (1, 2, 9, 12) for b in (1, 3, 15, 105, 2, 6, 30)})
        direct_pairs = []
        strided = expansion._strided_sums
        record = lambda G, plans, Q, cps: strided(G, direct_pairs.extend(plans) or plans, Q, cps)
        monkeypatch.setattr(expansion, "_strided_sums", record)
        got = expansion._peel_sums(G, pairs, Q, cps)
        monkeypatch.undo()
        assert direct_pairs == []
        masses = _table_masses(G, pairs, Q, cps)
        direct = _direct_sums(dataclasses.replace(G), pairs, Q, cps)
        for a, b in pairs:
            tol_peel = Fraction(TestPeelSums.bound(Q, a, b, G.exact))
            tol_direct = Fraction(TestFloatingAgainstFractionOracle.kluyver_bound(Q, a))
            want = [(Fraction(complex(w).real), Fraction(complex(w).imag)) for w in direct[(a, b)]]
            assert _within(got[(a, b)], want, 1, [tol_peel * mp + tol_direct * mk for mp, mk in zip(*masses[(a, b)])]), (a, b)


class TestKernelChoice:
    # ``_peel_sums`` picks each pair's kernel from G(p) at the primes of ab
    # above 3 and from the cap before any table is built, and the direct
    # kernel holds one Q/d buffer at a time.
    @pytest.mark.parametrize(
        "G, direct",
        [
            *((G, lambda a, b: False) for G in (
                catalog("GR"),
                catalog("GH"),
                catalog("G0", p0=3),
                catalog("indicator_prime_powers", p0=2),
                catalog("prop1"),
                catalog("prop5"),
                catalog("lemma7_h", s=0.6),
                catalog("lemma7_h", s=0.6 + 0.3j),
                # G(3) = 2 enters the coefficients G(dm'), never a power.
                catalog("prop5", g2=2),
            )),
            # G(5) = 2: the pairs with 5 | ab, and only they.
            (catalog("prop5", p2=5, g2=2), lambda a, b: a * b % 5 == 0),
            # Cap 1 binds (at n = 2 already): every pair.
            (catalog("prop1", cap=1.0), lambda a, b: True),
            # Not multiplicative: every pair.
            (catalog("weakly_exotic_sample"), lambda a, b: True),
        ],
        ids=lambda v: v.label if hasattr(v, "label") else "direct",
    )
    def test_pins_the_kernel_of_every_pair(self, G, direct, monkeypatch):
        Q = FAST_CFG.Q
        pairs = sorted({(_coprime_part(a, b), b) for a in (1, 2, 3, 5, 9, 12, 45, 360) for b in (1, 2, 3, 6, 30)})
        direct_pairs = []
        strided = expansion._strided_sums
        record = lambda G, plans, Q, cps: strided(G, direct_pairs.extend(plans) or plans, Q, cps)
        monkeypatch.setattr(expansion, "_strided_sums", record)
        expansion._peel_sums(G, pairs, Q, checkpoint_schedule(Q))
        assert direct_pairs == [(a, b) for a, b in pairs if direct(a, b)]
        assert [_peeled(G, a, b, Q) for a, b in pairs] == [not direct(a, b) for a, b in pairs]

    def test_direct_only_pairs_build_no_gmu_table(self):
        # prop5(p2 = 5, g2 = 2) has G(5) = 2, so a = 5 takes the direct
        # kernel: the value table (7.6 MiB), then one T_d buffer at a time,
        # 15.3 MiB in all; the unread G mu table would add 2.5 MiB.
        G = dataclasses.replace(catalog("prop5", p2=5, g2=2))
        core.sieve_primes(10**6)
        core.mobius_table(10**6)
        tracemalloc.start()
        try:
            expansion_partial_sums(G, 5, 10**6, exact=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _tuple_keys(G) == {("values", 10**6)}
        assert peak < 17 * 2**20

    def test_large_g3_reads_only_the_gmu_table(self):
        # prop5(g2 = 2) has G(3) = 2, which the peel takes as a coefficient
        # G(dm') at the m' with 3, so a = 3 reads the G mu table (2.5 MiB)
        # and no value table; the direct kernel peaked at 15.3 MiB.
        G = dataclasses.replace(catalog("prop5", g2=2))
        core.sieve_primes(10**6)
        core.mobius_table(10**6)
        tracemalloc.start()
        try:
            expansion_partial_sums(G, 3, 10**6, exact=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _tuple_keys(G) == {("gmu", 10**6)}
        assert peak < 6 * 2**20

    def test_complex_even_pair_reads_only_the_gmu_table(self):
        # lemma7_h(s = 0.6 + 0.3i) has |G(2)| = 1.32 but |G(p)| < 1 at every
        # odd p, so a = 2 is peeled: the complex G mu table (5.1 MiB) and
        # the climb.  The direct kernel, value table and one T_d buffer
        # at a time, peaked at 30.6 MiB.
        G = dataclasses.replace(catalog("lemma7_h", s=0.6 + 0.3j))
        core.sieve_primes(10**6)
        core.mobius_table(10**6)
        tracemalloc.start()
        try:
            expansion_partial_sums(G, 2, 10**6, exact=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _tuple_keys(G) == {("gmu", 10**6)}
        assert peak < 15 * 2**20

    def test_direct_kernel_holds_one_buffer_at_a_time(self):
        # With the tables warm, the batch of a weakly exotic verdict, read
        # from the value table (no support), peaks at its d = 1 buffer
        # (7.6 MiB) plus the points; keeping that buffer alive while the
        # next T_d is built took it to 10.2 MiB.
        G = dataclasses.replace(catalog("weakly_exotic_sample", p0=2), support=None)
        cfg = EngineConfig()
        parts = sorted({_coprime_part(a, 2) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)})
        cps = checkpoint_schedule(10**6)
        _value_table(G, 10**6)
        core.mobius_table(10**6)
        tracemalloc.start()
        try:
            expansion._peel_sums(G, [(a, 2) for a in parts], 10**6, cps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * 2**20


class TestAbsoluteSums:
    def test_holds_one_buffer_at_a_time(self):
        # With the tables warm, a = 360 sums 60 divisors d, one |V[::d]|
        # buffer each, and peaks with its d = 1 buffer as a = 1 does (8.65
        # MiB); keeping the previous d's buffer alive while the next was
        # built took it to 11.45 MiB.
        G = dataclasses.replace(catalog("GR"))
        _value_table(G, 10**6)
        core.mobius_table(10**6)
        peaks = []
        for a in (1, 360):
            tracemalloc.start()
            try:
                expansion_partial_sums(G, a, 10**6, absolute=True, exact=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.5 * 2**20, peaks

    @pytest.mark.parametrize("G", [catalog("GR"), catalog("weakly_exotic_sample")], ids=lambda G: G.label)
    def test_same_bytes_alone_and_in_a_batch(self, G):
        # The strided kernel on Hardy's plans, (d, |c_d(a)|, b rad a) for
        # d | a rad a, of 11 a at once, where the a with one radical share
        # each (d, B): every series has the bytes of the public call alone.
        Q, b = FAST_CFG.Q, 7
        cps = checkpoint_schedule(Q)
        parts = (1, 2, 4, 6, 12, 18, 30, 45, 360, 675, 900)  # coprime to b
        plans = {
            a: [(d, abs(c_holder(d, a)), b * radical(a)) for d in divisors(a * radical(a)) if d <= Q] for a in parts
        }
        batch = expansion._strided_sums(dataclasses.replace(G), plans, Q, cps, absolute=True)
        for a in parts:
            alone = expansion_partial_sums(dataclasses.replace(G), a, Q, cps, coprime_to=b, absolute=True, exact=False)
            assert np.array(alone.values()).tobytes() == np.array(batch[a]).tobytes(), a


class TestSupportRead:
    # The strided kernel reads a G with a support at its support points n
    # divisible by d, at m = n / d, and its pointwise copy (support=None)
    # from the value table.  The terms are the same casts of G(n) times
    # mu(m), so the bounds of TestFloatingAgainstFractionOracle hold for
    # both: the compact read sums fewer terms, in fewer roundings.  Each
    # path is compared against the exact sum of the cast values over the
    # support, a Fraction oracle that reads no table.
    @staticmethod
    def sample(kind, p0, seed):
        rng = random.Random(seed)
        draw = {
            "fraction": lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 30)),
            "float": lambda: rng.uniform(-1, 1),
            "complex": lambda: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        }[kind]
        rs = rng.sample([r for r in range(1, 200) if r % p0], 8)
        return catalog("weakly_exotic_sample", p0=p0, base={r: draw() for r in [1, *rs]})

    @staticmethod
    def oracle(G, a, b, Q, xs, absolute):
        """(reference, mass) at each x: the exact sum over support points
        n <= x coprime to b of v(n) c_n(a) (or |v(n) c_n(a)|, a complex
        |v(n)| rounded once), as (re, im) Fractions, and its Kluyver mass
        (signed) or its own mass, with |Re| + |Im| >= |.|.  v(n) is G(n)
        for an exact G, else its cast to float or complex."""
        part = _coprime_part(a, b)
        terms = []
        for n in sorted(set(G.support(Q))):
            if gcd(n, b) != 1:
                continue
            v = G.eval(n)
            re, im = (Fraction(v), Fraction(0)) if G.exact else map(Fraction, (complex(v).real, complex(v).imag))
            mag = abs(re) + abs(im)
            c = c_holder(n, a)
            if absolute:
                term = ((Fraction(abs(complex(v))) if im else abs(re)) * abs(c), Fraction(0))
                mass = mag * abs(c)
            else:
                term = (re * c, im * c)
                mass = sum(d * mag for d in divisors(gcd(n, part)) if mobius(n // d))
            terms.append((n, term, mass))
        out = []
        for x in xs:
            kept = [(t, m) for n, t, m in terms if n <= x]
            out.append(((sum(t[0] for t, _ in kept), sum(t[1] for t, _ in kept)), sum(m for _, m in kept)))
        return out

    @pytest.mark.parametrize("p0", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["fraction", "float", "complex"])
    def test_within_bound_of_pointwise_and_oracle(self, kind, p0):
        G = self.sample(kind, p0, seed=p0)
        pointwise = dataclasses.replace(G, support=None)
        for Q in (1, 7, 1000, 10**5):
            xs = checkpoint_schedule(Q)
            for a in (1, 12, 35, 360):
                for b in (1, p0, 35):
                    for absolute in (False, True):
                        part = _coprime_part(a, radical(b))
                        if absolute:
                            bound = TestFloatingAgainstFractionOracle.absolute_bound(Q, part)
                        else:
                            bound = TestFloatingAgainstFractionOracle.kluyver_bound(Q, part)
                        ref, mass = zip(*self.oracle(G, a, b, Q, xs, absolute))
                        for H in (G, pointwise):
                            got = expansion_partial_sums(H, a, Q, xs, coprime_to=b, absolute=absolute, exact=False)
                            assert _within(got.values(), ref, bound, mass), (H.label, Q, a, b, absolute)
                        if G.exact and Q <= expansion.EXACT_LIMIT:
                            exact = expansion_partial_sums(G, a, Q, xs, coprime_to=b, absolute=absolute, exact=True)
                            assert [(v, 0) for v in exact.values()] == list(ref), (Q, a, b, absolute)

    @pytest.mark.parametrize("p0", [2, 5])
    def test_catalog_default_is_the_pointwise_path_byte_for_byte(self, p0):
        # Its values 1, 1/2 and -1/4 are dyadic, so every partial sum is
        # exact on both paths, zeros interleaved or not.
        G = catalog("weakly_exotic_sample", p0=p0)
        pointwise = dataclasses.replace(G, support=None)
        for Q in (1, 10, 1000, 10**5):
            for a in (1, 3, 15, 45, 360, 945):
                for b in (1, 2, 35):
                    for absolute in (False, True):
                        got, want = (
                            expansion_partial_sums(H, a, Q, coprime_to=b, absolute=absolute, exact=False)
                            for H in (G, pointwise)
                        )
                        assert repr(got) == repr(want), (Q, a, b, absolute)

    def test_repeated_and_shuffled_support_points_count_once(self):
        # Every point of the support listed twice, largest first: summed as
        # given, each term would count twice.
        G = self.sample("float", 2, seed=7)
        shuffled = dataclasses.replace(G, support=lambda Q: [*sorted(G.support(Q), reverse=True), *G.support(Q)])
        for absolute in (False, True):
            for a in (1, 12):
                got, want = (
                    expansion_partial_sums(H, a, 10**4, coprime_to=3, absolute=absolute, exact=False)
                    for H in (shuffled, dataclasses.replace(G))
                )
                assert repr(got) == repr(want), (a, absolute)

    def test_weakly_exotic_verdict_builds_no_q_sized_array(self):
        # The verdict at Q = 10^7 reads about 60 support points: its traced
        # peak is near 0.1 MiB.  The value table, the mu table and one Q/d
        # buffer per d took it to 167 MiB.
        tracemalloc.start()
        try:
            verdict = zero_cloud_verdict(catalog("weakly_exotic_sample"), EngineConfig(Q=10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.conclusion == "in_zero_cloud"
        assert peak < 2**20


def _whole_prime_values(G, P):
    """G(p) at all of P in one read: ``G.at_primes(P)``, or one rule call
    per prime through one ``_rule_values``."""
    if G.at_primes is not None:
        return G.at_primes(P)
    return expansion._rule_values(G, P.tolist(), [1] * len(P))


_CHUNK = expansion._PRIME_CHUNK
_LATE = int(sieve_primes(10**6)[_CHUNK + 3])  # a prime of the second chunk


class TestPrimeValues:
    # ``_prime_values`` reads G 2^14 primes at a time into one array; its
    # bytes and dtype are those of one read of all of P, with and without
    # the negation ``_gmu_table`` takes.
    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    @pytest.mark.parametrize(
        "G",
        [
            catalog("GR"),
            catalog("GH"),
            catalog("G0", p0=3),
            catalog("indicator_prime_powers", p0=2),
            MultiplicativeFunction(
                "float32 form", rule=lambda p, e: 0.5, at_primes=lambda P: np.full(len(P), 0.5, np.float32)
            ),
            catalog("prop1"),
            catalog("lemma7_h", s=0.6 + 0.3j),
            MultiplicativeFunction("complex above the first chunk", rule=lambda p, e: 1 / p if p < _LATE else 1j / p),
        ],
        ids=lambda G: G.label,
    )
    def test_chunks_are_one_read(self, G, n):
        assert _CHUNK == 2**14
        P = sieve_primes(10**6)[:n]
        want = _whole_prime_values(G, P)
        for negate, expect in ((False, want), (True, 0.0 - want)):
            got = expansion._prime_values(G, P, negate=negate)
            assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes(), (G.label, negate)

    def test_a_late_non_number_names_its_prime(self):
        # None at two primes of the third chunk: the error names G and the
        # first of them, as one read of all of P does.
        P = sieve_primes(10**6)[: 3 * _CHUNK + 5]
        bad = P[2 * _CHUNK + 7 :: _CHUNK // 2].tolist()
        G = MultiplicativeFunction("None late", rule=lambda p, e: None if p in bad else 0.5)
        with pytest.raises(ValueError) as whole:
            _whole_prime_values(G, P)
        with pytest.raises(ValueError, match=rf"None late: rule\({bad[0]}, 1\) gives None") as chunked:
            expansion._prime_values(G, P)
        assert str(chunked.value) == str(whole.value)


_GMU_ENTRIES = [
    *(catalog(name) for name in sorted(set(catalog_names()) - {"weakly_exotic_sample"})),
    catalog("indicator_prime_powers", p0=3),
    catalog("prop1", cap=1.0),
    catalog("lemma7_h", s=0.6 + 0.3j),
    catalog("prop5", s=0.7 + 0.1j, g2=2, p1_square_zero=True),
]


def _full_gmu(G, Q):
    """G(n) mu(n) for every n = 0..Q, unclamped: the full-layout sieve of
    the powers and prime values that ``_gmu_table`` gathers."""
    return core.multiplicative_sieve(
        Q,
        lambda p, E: np.concatenate((-expansion._rule_values(G, [p], [1]), np.zeros(E - 1))),
        lambda P: 0.0 - expansion._prime_values(G, P),
        np.float64,
    )


def _coprime_to_6(Q):
    """The mask of the n = 0..Q coprime to 6, whose G mu the table holds."""
    return np.gcd(np.arange(Q + 1), 6) == 1


class TestGmuTable:
    @pytest.mark.parametrize("Q", [1, 2, 3, 10, 97, 1000, 10**6 + 7])
    def test_is_the_value_table_times_mu(self, Q):
        # Entry by entry at the n coprime to 6, against the value table
        # without its cap: the G mu table is never clamped (``_cap_binds``
        # says whether a cap would change it).
        for G in _GMU_ENTRIES:
            got = expansion._gmu_table(G, Q)
            uncapped = dataclasses.replace(G, squarefree_cap=None)
            keep = _coprime_to_6(Q)
            assert len(got) == keep.sum() + 1 and got[0] == 0, G.label
            assert np.array_equal(got[1:], (_value_table(uncapped, Q) * core.mobius_table(Q))[keep]), G.label
            assert ("clamped", Q) not in G._memo and not got.flags.writeable, G.label
            assert expansion._gmu_table(G, Q) is got

    def test_sieve_scratch_stays_block_sized(self):
        # Phase 2 scatters the (m, P) pairs of a quarter block at a time, at
        # most one pair per entry: the 2.5 MiB table, the prime values and
        # three pair arrays peak near 4.4 MiB.  All pairs of a block at once
        # took the build of a full-layout table (7.6 MiB) to 12.8 MiB.
        core.sieve_primes(10**6)
        tracemalloc.start()
        try:
            expansion._gmu_table(catalog("GH"), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("build, name", [(expansion._gmu_table, "lemma7_h"), (_value_table, "prop5")])
    def test_complex_sieve_scratch_stays_block_sized(self, build, name):
        # A complex table (15.3 MiB for values, 5.1 MiB for G mu) goes
        # through the same blocks, multiplied on its float planes, and peaks
        # near 20.5 (9.1) MiB.  Swept whole, with one gather per cofactor, a
        # value table peaked at 26.7-29.2 MiB.
        G = catalog(name, s=0.6 + 0.3j)
        core.sieve_primes(10**6)
        tracemalloc.start()
        try:
            build(G, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20

    def test_table_holds_the_n_coprime_to_6_only(self):
        # 8/3 bytes per q: the GH table at 10^6 is 333,334 float64 entries
        # (2.54 MiB), and its build, or a signed GH expansion that reads it,
        # peaks at 4.4 MiB traced.  The odd layout's table (3.81 MiB) peaked
        # at 5.6 MiB.
        core.sieve_primes(10**6)
        for run in (
            lambda: expansion._gmu_table(catalog("GH"), 10**6),
            lambda: expansion_partial_sums(catalog("GH"), 47, 10**6, coprime_to=2, exact=False),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 5 * 2**20


class TestCapBinds:
    # The guard reads |G mu| at the n coprime to 6 off the table, and the
    # other squarefree n = 2m, 3m, 6m through |G(2)|, |G(3)| and
    # |G(2) G(3)| times it.  With G(p) = 1/p at every p >= 5, n |G(n)| is 1
    # at the n coprime to 6, times 2 |G(2)| at the even n and 3 |G(3)| at
    # the multiples of 3, so a cap of 1.5 binds in exactly the class named.
    @pytest.mark.parametrize(
        "g2, g3, where",
        [
            (2.0 / 2, 0.25 / 3, "2m"),
            (0.25 / 2, 2.0 / 3, "3m"),
            (1.4 / 2, 1.4 / 3, "6m"),  # 1.4 in each alone, 1.96 together
            (1.2 / 2, 1.2 / 3, None),  # 1.44 together
        ],
    )
    @pytest.mark.parametrize("Q", [5, 1000, 10**5 + 3])
    def test_binds_in_each_class(self, g2, g3, where, Q):
        values = {2: g2, 3: g3}
        G = MultiplicativeFunction("1/p, scaled at 2 and 3", rule=lambda p, e: values.get(p, 1 / p) ** e, squarefree_cap=1.5)
        want = where is not None and Q >= {"2m": 2, "3m": 3, "6m": 6}[where]
        assert _cap_guard(G, Q) is want
        full = _full_gmu(G, Q)
        n = np.flatnonzero(full)[1:]
        assert bool((np.abs(full[n]) > 1.5 / n).any()) is want


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

    def test_floating_identity_reads_one_q(self):
        # Both points of the peeled side come from one series to x, so G
        # keeps its tables at Q = x only, never at x // p1.
        G = catalog("GR")
        lhs, rhs = coprime_peel_identity(G, {3}, 2, 10**5, exact=False)
        assert abs(lhs - rhs) <= 1e-15
        assert {Q for _, Q in _tuple_keys(G)} == {10**5}

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

    def test_converging_series_fits_no_exponent(self, monkeypatch):
        # The growth exponent only tells divergence apart, so a spread
        # within tol returns before the fit.
        fits = []
        fit = expansion._growth_exponent
        monkeypatch.setattr(expansion, "_growth_exponent", lambda series: fits.append(series) or fit(series))
        assert zero_cloud_verdict(catalog("GR"), FAST_CFG).conclusion == "in_zero_cloud"
        series = PartialSumSeries("ones", tuple((x, 1.0) for x in checkpoint_schedule(10**6)), "floating")
        verdict = detect_convergence(series, window=32, tol=0.01)
        assert verdict.outcome == "converges_to" and verdict.growth_exponent is None
        assert fits == []

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

    def test_growth_on_fewer_than_four_points_is_not_divergence(self):
        # 20 -> 40 -> 80 is large and doubling, but three points fit no
        # growth exponent, so it cannot be called divergent.
        series = PartialSumSeries("doubling", ((10, 20.0), (100, 40.0), (1000, 80.0)), "floating")
        verdict = detect_convergence(series, window=3, tol=0.01)
        assert verdict.outcome == "inconclusive" and verdict.growth_exponent is None

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
            (checkpoint_schedule, "window", "window"),
        ],
    )
    def test_keyword_defaults_are_engine_config_defaults(self, func, param, field):
        assert inspect.signature(func).parameters[param].default == getattr(EngineConfig(), field)

    def test_no_function_copies_a_config_bound(self):
        # Bounds and tolerances come from one EngineConfig; only the two
        # functions whose callers pin their own window and tolerance take
        # them loose.  Q is the truncation every series is asked for, not a
        # copy of the verdict's Q.
        knobs = {f.name for f in dataclasses.fields(EngineConfig)} - {"Q"}
        knobs |= {"tol", "r_bound", "k_bound", "window_threshold"}
        allowed = {"detect_convergence", "checkpoint_schedule"}
        offenders = []
        for module_name in ramanujan_cloud_modules():
            module = importlib.import_module(module_name)
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module_name:
                    continue
                if name not in allowed and knobs & set(inspect.signature(fn).parameters):
                    offenders.append(f"{module_name}.{name}")
        assert offenders == []
        assert {"window", "tol"} <= set(inspect.signature(detect_convergence).parameters)

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

    def test_uncertified_bounded_is_inconclusive(self):
        # Undeclared 1/p^(2e): the prime sum is bounded, but only declared
        # spectra can certify the missing invisible prime.
        plain = MultiplicativeFunction("plain_inverse_squares", rule=lambda p, e: Fraction(1, p ** (2 * e)), exact=True)
        rep = absolute_convergence_report(plain, 1000, 6, 1000)
        assert rep.prime_abs_verdict == "bounded"
        assert (rep.classification, rep.certified) == ("normal", False)
        assert rep.verdict == "inconclusive"

    @pytest.mark.parametrize("name, kw", [("GR", {}), ("GH", {}), ("G0", {"p0": 2}), ("indicator_prime_powers", {"p0": 3})])
    def test_prime_form_gives_the_scalar_prime_series(self, name, kw):
        G = catalog(name, **kw)
        scalar = dataclasses.replace(G, at_primes=None)
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
        primes = sieve_primes(1000)
        exact = math.fsum(abs(G.eval(int(p))) for p in primes)
        assert abs(rep.prime_abs_series.final - exact) <= 8 * math.ulp(exact)
        # Byte for byte the sums of the clamped value table at the primes,
        # at the same points (the checkpoints and 1000 // 10).
        terms = np.abs(_value_table(G, 1000)[[0, *primes]])
        want = _neumaier_segments(terms, np.searchsorted(primes, [*rep.prime_abs_series.xs(), 100], "right"))
        assert np.array(rep.prime_abs_series.values()).tobytes() == want[:-1].tobytes()

    @pytest.mark.parametrize("name", ["GH", "prop1"])
    def test_builds_no_value_table_at_the_prime_bound(self, monkeypatch, name):
        # The prime sum reads G at the primes alone (at_primes for GH, the
        # rule for prop1); the only value table is the absolute series' at Q.
        asked, table = [], expansion._value_table
        monkeypatch.setattr(expansion, "_value_table", lambda G, Q: asked.append(Q) or table(G, Q))
        absolute_convergence_report(catalog(name), 10**4, 6, 1000)
        assert asked and set(asked) == {1000}


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

    FLOAT_FIELDS = ("one_tol", "conv_tol", "divergence_threshold", "growth_exponent_min", "slow_growth_tol")
    POSITIVE_FIELDS = ("one_tol", "conv_tol", "divergence_threshold", "slow_growth_tol")

    def test_float_fields_are_the_listed_ones(self):
        assert {f.name for f in dataclasses.fields(EngineConfig) if f.type == "float"} == set(self.FLOAT_FIELDS)

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_fields_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EngineConfig(**{field: value})

    @pytest.mark.parametrize("field", POSITIVE_FIELDS)
    @pytest.mark.parametrize("value", [0.0, -1.0, -1e-300])
    def test_tolerances_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            EngineConfig(**{field: value})

    def test_growth_exponent_min_may_be_negative(self):
        assert EngineConfig(growth_exponent_min=-0.5).growth_exponent_min == -0.5


def _undeclared(G: MultiplicativeFunction) -> MultiplicativeFunction:
    return dataclasses.replace(G, declared_transparent=None, declared_invisible=None)


# Each classification path of a verdict, with the statuses of its checks
# before the hypothesis: (id, entry, classification, statuses, main check).
_VERDICT_PATHS = [
    ("normal", lambda: catalog("GR"), "normal", ("pass",), True),
    ("normal-uncertified", lambda: _undeclared(catalog("GR")), "normal", ("fail",), True),
    ("sporadic", lambda: catalog("GH"), "sporadic", ("pass",), True),
    ("sporadic-uncertified", lambda: _undeclared(catalog("GH")), "sporadic", ("fail",), True),
    ("exotic", lambda: catalog("indicator_prime_powers", p0=2), "exotic", ("pass",), False),
    ("exotic-uncertified", lambda: _undeclared(catalog("indicator_prime_powers", p0=2)), "exotic", ("fail",), False),
    ("weakly_exotic", lambda: catalog("weakly_exotic_sample", p0=2), "weakly_exotic", ("pass", "pass"), False),
]
# The scripted outcome of one hypothesis series; the others converge.
_HYPOTHESIS_OUTCOMES = {"pass": "converges_to", "fail": "diverges_to_infinity", "inconclusive": "inconclusive"}
# Main series: (id, kind, outcome with target 0, free outcome, free limit).
_MAIN_SCRIPTS = [
    ("zero", "zero", "converges_to", None, None),
    ("nonzero", "nonzero", "inconclusive", "converges_to", 0.5),
    ("diverged", "diverged", "inconclusive", "diverges_to_infinity", None),
    ("unknown", "unknown", "inconclusive", "inconclusive", None),
    ("unknown-limit-within-tol", "unknown", "inconclusive", "converges_to", 0.01),
]


def _verdict_cells():
    for path, entry, classification, first, has_main in _VERDICT_PATHS:
        for hyp in _HYPOTHESIS_OUTCOMES:
            for main in _MAIN_SCRIPTS if has_main else [None]:
                cell = f"{path}-hyp_{hyp}" + (f"-{main[0]}" if main else "")
                yield pytest.param(entry, classification, first, hyp, main, id=cell)
    # A general G stops at a failed classification check and sums nothing.
    no_p0 = lambda: GeneralArithmeticFunction("anon", fn=lambda n: 0)
    grid_fails = lambda: GeneralArithmeticFunction("reciprocal", fn=lambda n: Fraction(1, n), exact=True, invisible_prime=2)
    yield pytest.param(no_p0, "weakly_exotic", ("fail",), None, None, id="weakly_exotic-no_p0")
    yield pytest.param(grid_fails, "weakly_exotic", ("pass", "fail"), None, None, id="weakly_exotic-grid_fails")


class TestVerdictCells:
    # Every cell of the decision: each classification path, each status of
    # the checks before the main one, and each kind of main series.  The
    # series are real (one peel batch at Q = 2000); detect_convergence is
    # scripted so that each cell gets its chosen outcome.
    CFG = EngineConfig(Q=2_000, sample_a=(3, 5, 15))  # no radical is b0 = 1 (GR) or 2 (GH)

    @pytest.mark.parametrize("entry, classification, first, hyp, main", list(_verdict_cells()))
    def test_cell(self, entry, classification, first, hyp, main, monkeypatch):
        cfg = self.CFG
        cps = checkpoint_schedule(cfg.Q, cfg.window)
        peels, hypothesis, main_calls = [], [], []
        peel = expansion._peel_sums
        monkeypatch.setattr(expansion, "_peel_sums", lambda *args: peels.append(args[1]) or peel(*args))

        def scripted(series, target=None, **knobs):
            assert series.xs() == cps and knobs["window"] == cfg.window and knobs["tol"] == cfg.conv_tol
            if target is not None or (main_calls and series is main_calls[0][0]):
                main_calls.append((series, target))
                _, _, zero_outcome, free_outcome, free_limit = main
                outcome, limit = (zero_outcome, 0j) if target == 0 else (free_outcome, free_limit)
            else:
                outcome, limit = ("converges_to", 0j) if hypothesis else (_HYPOTHESIS_OUTCOMES[hyp], None)
                hypothesis.append(series)
            return ConvergenceVerdict(outcome, limit if outcome == "converges_to" else None, cfg.window, cfg.conv_tol, 0.0, None)

        monkeypatch.setattr(expansion, "detect_convergence", scripted)
        verdict = zero_cloud_verdict(entry(), cfg)

        earlier = first if hyp is None else (*first, hyp)
        statuses = earlier
        if main is not None:
            kind = main[1]
            statuses += ({"zero": "pass", "nonzero": "fail", "diverged": "fail", "unknown": "inconclusive"}[kind],)
        if any(status != "pass" for status in earlier):
            want = "inconclusive"
        elif main is None:  # an invisible prime: the series vanish by the theorem
            want = "in_zero_cloud"
        else:
            want = {"zero": "in_zero_cloud", "nonzero": "not_in_zero_cloud"}.get(kind, "inconclusive")
        assert verdict.classification == classification
        assert tuple(status for _, status in verdict.hypothesis_checks) == statuses
        assert verdict.conclusion == want
        assert len(peels) == (0 if hyp is None else 1)
        if hyp is not None:
            # Every hypothesis series is read once: the 3 radicals, or the 5
            # p0-free parts of (3, 5, 15, 1, 3, 5, 7, 15) for p0 = 2.
            assert len(hypothesis) == (3 if main else 5)
        # The free limit is only asked for when the series misses 0.
        assert [target for _, target in main_calls] == ([] if main is None else [0] if kind == "zero" else [0, None])


class TestZeroCloudVerdict:
    def test_radicals_text_ends_in_dots_only_when_cut(self):
        # The classical hypothesis text lists the first 8 radicals, and
        # "..." only when there are more.
        G = catalog("GR")
        few = zero_cloud_verdict(G, EngineConfig(Q=20_000, sample_a=(2, 3, 5, 12)))
        many = zero_cloud_verdict(G, EngineConfig(Q=20_000))
        assert few.hypothesis_checks[1][0].endswith("(radicals [2, 3, 5, 6])")
        assert many.hypothesis_checks[1][0].endswith("(radicals [1, 2, 3, 5, 6, 7, 10, 11]...)")

    def test_each_distinct_series_runs_once(self, monkeypatch):
        # a and a / p0^k give one series over q coprime to p0.  Every verdict
        # of a multiplicative G makes one batched peel: the 25 p0-free parts
        # of the indicator, or the 31 radicals of a classical entry (the
        # main series among them), all off one G mu table, with no direct
        # T_d and no per-series call.
        counts = collections.Counter()
        pairs = []
        for name in ("expansion_partial_sums", "restricted_mobius_partial_sums", "_peel_sums"):
            def counted(*args, _fn=getattr(expansion, name), _name=name, **kw):
                counts[_name] += 1
                if _name == "_peel_sums":
                    pairs.append(list(args[1]))
                return _fn(*args, **kw)

            monkeypatch.setattr(expansion, name, counted)
        kept = _kept_keys(monkeypatch)
        cfg = EngineConfig()
        radicals = sorted({radical(a) for a in cfg.sample_a})
        parts = sorted({_coprime_part(a, 2) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)})
        assert len(radicals) == 31 and len(parts) == 25
        for G, want in (
            (catalog("indicator_prime_powers", p0=2), [(a, 2) for a in parts]),
            (catalog("GR"), [(1, b) for b in radicals]),
            (catalog("GH"), [(1, b) for b in radicals]),
        ):
            counts.clear()
            pairs.clear()
            kept.clear()
            verdict = zero_cloud_verdict(G, cfg)
            assert verdict.conclusion == "in_zero_cloud"
            assert counts == {"_peel_sums": 1} and pairs == [want], G.label
            assert kept == [("gmu", cfg.Q)] and _tuple_keys(G) == set(), G.label

    def test_peel_terms_are_shared_across_sampled_a(self, monkeypatch):
        # The peel's twin of the next test: G0(p0 = 3) peels every p0-free
        # part, and its verdict builds the terms of each distinct T_{d,3}
        # once per batch, not once per pair with d in its plan.  The parts
        # are not closed under divisors (2, 8 and 20 divide them), so the
        # pairs' own (a, 3) are not the distinct (d, 3).
        cfg = EngineConfig(Q=20_000, sample_a=(12, 30, 45, 360, 945))
        G = dataclasses.replace(catalog("G0", p0=3))
        parts = {_coprime_part(a, 3) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)}
        distinct = {(d, 3) for a in parts for d in divisors(a)}
        assert {(a, 3) for a in parts} < distinct and sum(len(divisors(a)) for a in parts) > len(distinct)
        calls = collections.Counter()
        terms = expansion._kluyver_terms
        monkeypatch.setattr(expansion, "_kluyver_terms", lambda G, d, b, Q: calls.update([(d, b)]) or terms(G, d, b, Q))
        kept = _kept_keys(monkeypatch)
        assert zero_cloud_verdict(G, cfg).conclusion == "in_zero_cloud"
        assert kept == [("gmu", cfg.Q)]  # every pair was peeled
        assert _tuple_keys(G) == set()
        assert calls == dict.fromkeys(distinct, 1)

    def test_kluyver_sums_are_shared_across_sampled_a(self, monkeypatch):
        # weakly_exotic_sample is not multiplicative, so its verdict keeps
        # the direct kernel: one T_d (one read of its terms) per distinct
        # (d, 2) over the divisors of the sampled p0-free parts, shared by
        # the batch.  Nothing but the values at the support points is built,
        # and the verdict drops them, so a repeated verdict computes them
        # again and gives the same verdict.
        cfg = EngineConfig()
        G = dataclasses.replace(catalog("weakly_exotic_sample", p0=2))
        parts = {_coprime_part(a, 2) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)}
        assert len(parts) == 25
        distinct = {(d, 2) for a in parts for d in divisors(a) if d <= cfg.Q}
        reads = collections.Counter()
        terms = expansion._strided_terms
        monkeypatch.setattr(expansion, "_strided_terms", lambda G, Q, d, B, *rest: reads.update([(d, B)]) or terms(G, Q, d, B, *rest))
        kept = _kept_keys(monkeypatch)

        first = zero_cloud_verdict(G, cfg)
        assert first.conclusion == "in_zero_cloud"
        assert reads == dict.fromkeys(distinct, 1)
        assert kept == [("support", cfg.Q)] and _tuple_keys(G) == set()
        reads.clear()
        assert repr(zero_cloud_verdict(G, cfg)) == repr(first)
        assert reads == dict.fromkeys(distinct, 1)
        assert kept == [("support", cfg.Q)] * 2 and _tuple_keys(G) == set()

    @pytest.mark.parametrize(
        "G, kind",
        [
            (catalog("GR"), "gmu"),
            # |G(5)| = 5^0.4 > 1: the radicals with 5 take the strided kernel.
            (catalog("prop5", p2=5, g2=2), "values"),
            (catalog("weakly_exotic_sample"), "support"),
        ],
        ids=lambda v: getattr(v, "label", v),
    )
    def test_a_verdict_leaves_no_table_of_its_own(self, G, kind, monkeypatch):
        # On a fresh G it leaves no table at all; on a G that held a table
        # of that kind at another Q, the kinds G holds afterwards are among
        # those it held before, and nothing is held at the verdict's Q.
        kept = _kept_keys(monkeypatch)
        read = {"gmu": expansion._gmu_table, "values": _value_table, "support": _support_values}[kind]
        for held in (False, True):
            G = dataclasses.replace(G)
            if held:
                read(G, 1000)
            before = {k[0] for k in _tuple_keys(G)}
            kept.clear()
            zero_cloud_verdict(G, FAST_CFG)
            assert (kind, FAST_CFG.Q) in kept, G.label
            assert {k[0] for k in _tuple_keys(G)} <= before, G.label
            assert not any(k[1] == FAST_CFG.Q for k in _tuple_keys(G)), G.label

    def test_a_verdict_that_raises_leaves_no_table(self, monkeypatch):
        # The series are summed, so the G mu table and the guard's answer
        # are on G, when the first convergence check raises.
        G = catalog("prop1")
        monkeypatch.setattr(expansion, "detect_convergence", lambda *args, **kw: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            zero_cloud_verdict(G, FAST_CFG)
        assert _tuple_keys(G) == set()

    def test_a_held_gmu_table_is_read_and_kept(self, monkeypatch):
        # An expansion at the verdict's Q left the G mu table on G: the
        # verdict reads it without a sieve and leaves it, and the verdict's
        # repr is that of a verdict on a fresh G.
        G = catalog("GH")
        expansion_partial_sums(G, 1, FAST_CFG.Q, exact=False)
        table = G._memo[("gmu", FAST_CFG.Q)]
        fresh = zero_cloud_verdict(dataclasses.replace(G), FAST_CFG)
        sieves = []
        sieve = expansion.multiplicative_sieve
        monkeypatch.setattr(expansion, "multiplicative_sieve", lambda *args, **kw: sieves.append(args[0]) or sieve(*args, **kw))
        assert repr(zero_cloud_verdict(G, FAST_CFG)) == repr(fresh)
        assert sieves == []
        assert _tuple_keys(G) == {("gmu", FAST_CFG.Q)} and G._memo[("gmu", FAST_CFG.Q)] is table

    def test_a_battery_holds_one_table_at_a_time(self):
        # The entries of the verdict_classical benchmark workload, all kept
        # alive, as a battery keeps them: each verdict's peak is its own G mu
        # table (0.51 MiB at Q = 2 10^5) and the transients of building and
        # scanning it, 2.0-2.5 tables.  With each table kept on its G, the
        # third verdict started from two held tables and peaked over eight.
        cfg = EngineConfig(Q=2 * 10**5)
        table = (core._wheel_count(cfg.Q) + 1) * 8
        entries = [catalog("GR"), catalog("GH"), catalog("prop1")]
        core.sieve_primes(cfg.Q)
        tracemalloc.start()
        try:
            verdicts = [zero_cloud_verdict(G, cfg) for G in entries]
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * table
        assert current < table // 4
        assert [v.conclusion for v in verdicts] == ["in_zero_cloud"] * 3

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
