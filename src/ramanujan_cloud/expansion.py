"""Truncated expansions over Ramanujan sums, restricted Mobius series,
finite/cofinite factorizations, and convergence diagnostics.

Every series here is a ``PartialSumSeries``: checkpointed partial sums of
G(n) c_n(a), optionally over n coprime to a modulus or in absolute value.
One kernel, ``_series``, computes them.  The restricted Mobius series is the
expansion at a = 1, since c_n(1) = mu(n) (Ramanujan 1918).  Exact rules up
to ``EXACT_LIMIT`` (denominators explode beyond that) run in exact-rational
mode over the scalar ``c_holder``, an oracle independent of the numpy
tables.  Signed floating series go through ``_kluyver_sums``, which writes
them as sum over d | a of d T_d(x // d), where T_d sums G(dm) mu(m) and is
shared by every a with the divisor d.  The absolute floating series weights
the value table by ``c_table``, since |sum| is not sum |.|.  Both floating
paths accumulate checkpoint segments with Neumaier compensation.

Convergence verdicts are bounded numerical evidence, never proofs; the
honest third outcome "inconclusive" is routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import core as _core
from .config import EngineConfig
from .core import ResourceLimitError, checked_values, divisors, factorize, is_prime, mobius_table, multiplicative_sieve, radical, sieve_primes, squarefree_table
from .multiplicative import (
    GeneralArithmeticFunction,
    MultiplicativeFunction,
    SpectrumReport,
    is_weakly_exotic,
    spectrum,
)
from .sums import c_holder, c_prime_power, c_table

Number = Union[int, Fraction, float, complex]

# Largest truncation for exact-rational series.
EXACT_LIMIT = 10_000

# Keyword defaults below are the EngineConfig field defaults.
_DEFAULTS = EngineConfig()


def checkpoint_schedule(Q: int, window: int = _DEFAULTS.window) -> list[int]:
    """Geometric decades up to Q plus ``window`` points over [Q/2, Q].

    The dense final stretch is what spread-based convergence verdicts look
    at; tiny Q just gets every integer.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if Q <= 4 * window:
        return list(range(1, Q + 1))
    pts = {Q}
    d = 100
    while d < Q:
        pts.add(d)
        d *= 10
    lo = Q // 2
    for i in range(window):
        pts.add(lo + (Q - lo) * i // (window - 1))
    return sorted(pts)


@dataclass(frozen=True)
class PartialSumSeries:
    """Checkpointed partial sums of one series.

    ``checkpoints`` is a sequence of (truncation x, partial sum through x),
    strictly increasing in x; consecutive entries differ by the sum of the
    intervening terms.
    """

    description: str
    checkpoints: tuple[tuple[int, Number], ...]
    mode: str  # "exact-rational" | "floating"

    @property
    def final(self) -> Number:
        return self.checkpoints[-1][1]

    def xs(self) -> list[int]:
        return [x for x, _ in self.checkpoints]

    def values(self) -> list[Number]:
        return [v for _, v in self.checkpoints]

    def value_at(self, x: int) -> Number:
        for cx, v in self.checkpoints:
            if cx == x:
                return v
        raise KeyError(f"no checkpoint at x = {x}")


def _neumaier_segments(terms: np.ndarray, checkpoints: Sequence[int]) -> list:
    """Partial sums at the checkpoints: numpy pairwise sums per segment,
    Neumaier-compensated accumulation across segments."""
    complex_mode = np.iscomplexobj(terms)
    total = 0j if complex_mode else 0.0
    comp = 0j if complex_mode else 0.0
    out = []
    prev = 1
    for x in checkpoints:
        seg = complex(terms[prev : x + 1].sum()) if complex_mode else float(terms[prev : x + 1].sum())
        t = total + seg
        if abs(total) >= abs(seg):
            comp += (total - t) + seg
        else:
            comp += (seg - t) + total
        total = t
        prev = x + 1
        out.append(total + comp)
    return out


def _validate_checkpoints(checkpoints: Optional[Iterable[int]], Q: int) -> list[int]:
    if checkpoints is None:
        return checkpoint_schedule(Q)
    cps = list(checkpoints)
    if not cps or any(x < 1 or x > Q for x in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing within [1, Q]")
    return cps


def _use_exact(G, Q: int, exact: Optional[bool]) -> bool:
    if exact is None:
        return bool(getattr(G, "exact", False)) and Q <= EXACT_LIMIT
    if exact:
        if not getattr(G, "exact", False):
            raise ValueError(f"{G.label} has no exact-rational rule")
        if Q > EXACT_LIMIT:
            raise ResourceLimitError(
                f"exact mode is capped at x = {EXACT_LIMIT}; {Q} would blow up denominators"
            )
    return exact


def _gather(values: Callable[[], Iterable[Number]], count: int) -> np.ndarray:
    """``values()`` as a float64 array, or as complex128 if one is complex.

    The explicit ``float``/``complex`` casts make a non-number raise
    ``TypeError``; ``np.fromiter`` alone would store None as NaN.
    """
    try:
        return np.fromiter(map(float, values()), np.float64, count=count)
    except TypeError:
        return np.fromiter(map(complex, values()), np.complex128, count=count)


def _value_table(G, Q: int) -> np.ndarray:
    """G(n) for n = 0..Q as a float64/complex128 array (index 0 is 0).

    Multiplicative G goes through ``multiplicative_sieve``: one strided
    multiply per prime p <= isqrt(Q), then one gather per cofactor
    m < sqrt(Q) for the primes above it, O(pi(sqrt Q) + sqrt Q) numpy calls
    in all.  The rule is called once per power of each prime p <= isqrt(Q);
    the values at the primes above come from ``G.at_primes`` when the entry
    carries that numpy form, else from one rule call per prime.  A general
    G uses ``G.table`` when set, else is evaluated pointwise.  Both forms
    are bit-identical to the scalar paths they replace (see the field
    docstrings), so the table does not depend on which path ran.  The table
    is float64 unless a value is complex, then complex128.  Cached on the
    function object.  A Q above ``SIEVE_BUDGET`` raises
    ``ResourceLimitError`` before any path allocates.
    """
    memo = getattr(G, "_memo", None)
    key = ("values", Q)
    if memo is not None and key in memo:
        return memo[key]
    if Q > _core.SIEVE_BUDGET:
        raise ResourceLimitError(f"value table of size {Q} exceeds budget {_core.SIEVE_BUDGET}")

    if isinstance(G, MultiplicativeFunction):
        vals = multiplicative_sieve(
            Q,
            lambda p, E: _gather(lambda: map(G.rule, repeat(p, E), range(1, E + 1)), E),
            # Above isqrt(Q) every exponent is exactly 1.
            G.at_primes or (lambda P: _gather(lambda: map(G.rule, P.tolist(), repeat(1)), len(P))),
            np.float64,
        )
        if G.squarefree_cap is not None:
            # Only squarefree n are clamped; index 0 is not squarefree.
            n = np.flatnonzero(squarefree_table(Q))
            mag = np.abs(vals[n])
            bound = G.squarefree_cap / n
            over = mag > bound
            vals[n[over]] *= bound[over] / mag[over]
    elif getattr(G, "table", None) is not None:
        vals = checked_values(G.table(Q), Q + 1, f"{G.label}: table(Q)")
    else:
        vals = _gather(lambda: chain((0,), map(G.eval, range(1, Q + 1))), Q + 1)

    vals.setflags(write=False)
    if memo is not None:
        memo[key] = vals
    return vals


def _strike_non_coprime(terms: np.ndarray, b: int) -> None:
    """Zero ``terms[n]`` wherever gcd(n, b) != 1, in place.

    One strided store per prime of b; index 0 is a multiple of every p.
    """
    for p in factorize(b).primes():
        terms[::p] = 0


def _series(G, a: int, Q: int, cps, desc: str, b: int, absolute: bool, exact) -> PartialSumSeries:
    """Partial sums of G(q) c_q(a), or |G(q) c_q(a)|, over q <= x coprime to b.

    ``a`` must already be coprime to ``b`` (the Kluyver sum needs it).  Exact
    mode calls the scalar ``c_holder`` and never reads a table, so the
    Fraction oracle stays independent of the tables it checks.  The signed
    floating sum is ``_kluyver_sums``; the absolute one weights the value
    table by ``c_table``.
    """
    cps = _validate_checkpoints(cps, Q)
    if _use_exact(G, Q, exact):
        sums = []
        total: Number = 0
        lo = 1
        for x in cps:
            ns = range(lo, x + 1)
            if b > 1:
                ns = [n for n in ns if gcd(n, b) == 1]
            for n, w in zip(ns, map(c_holder, ns, repeat(a))):
                if w:
                    term = G.eval(n) * w
                    total = total + (abs(term) if absolute else term)
            sums.append(total)
            lo = x + 1
        return PartialSumSeries(desc, tuple(zip(cps, sums)), "exact-rational")

    if absolute:
        terms = np.abs(_value_table(G, Q) * c_table(a, Q))
        _strike_non_coprime(terms, b)
        sums = _neumaier_segments(terms, cps)
    else:
        sums = _kluyver_sums(G, a, Q, cps, b)
    return PartialSumSeries(desc, tuple(zip(cps, sums)), "floating")


def _coprime_part(a: int, b: int) -> int:
    """a with every prime of b divided out: gcd(q, a) and so c_q(a) are the
    same for both at every q coprime to b."""
    for p in factorize(b).primes():
        while a % p == 0:
            a //= p
    return a


def _kluyver_sums(G, a: int, Q: int, cps: list[int], b: int) -> list:
    """Floating sum_{q <= x, (q, b) = 1} G(q) c_q(a) at each checkpoint x,
    for a coprime to b.

    Kluyver's c_q(a) = sum over d | (q, a) of d mu(q/d) gives
    S(x) = sum over d | a of d T_d(x // d), with
    T_d(y) = sum_{m <= y, (m, b) = 1} G(dm) mu(m): the terms
    ``V[::d] * mu`` (exact, mu is -1, 0 or 1) indexed by m, struck on m and
    Neumaier-summed at the points x // d.  T_d does not depend on a, so its
    checkpoint vector is memoized on G for every a of the same (Q, b, cps);
    b is a radical.  a = 1 gives T_1, the restricted Mobius series.  The
    d T_d are added in ascending d.
    """
    memo = getattr(G, "_memo", None)
    cps_key = tuple(cps)
    totals = [0.0] * len(cps)
    for d in divisors(a):
        if d > Q:
            break
        key = ("kluyver", Q, b, d, cps_key)
        T = memo.get(key) if memo is not None else None
        if T is None:
            u = _value_table(G, Q)[::d] * mobius_table(Q)[: Q // d + 1]
            _strike_non_coprime(u, b)
            T = tuple(_neumaier_segments(u, [x // d for x in cps]))
            if memo is not None:
                memo[key] = T
        totals = [s + d * t for s, t in zip(totals, T)]
    return totals


def expansion_partial_sums(
    G,
    a: int,
    Q: int,
    checkpoints: Optional[Iterable[int]] = None,
    *,
    coprime_to: int = 1,
    absolute: bool = False,
    exact: Optional[bool] = None,
) -> PartialSumSeries:
    """Partial sums of sum_{q <= x} G(q) c_q(a) at the given checkpoints.

    ``coprime_to`` restricts the sum to q coprime to it; ``absolute`` sums
    |G(q) c_q(a)| instead.  Every mode works at the part of a coprime to
    ``coprime_to``, which has the same c_q on every q summed; ``_series``
    says how each mode sums.
    """
    if a < 1 or Q < 1 or coprime_to < 1:
        raise ValueError("a, Q and coprime_to must be >= 1")
    what = f"|G(q) c_q({a})|" if absolute else f"G(q) c_q({a})"
    cop = f", q coprime to {coprime_to}" if coprime_to > 1 else ""
    desc = f"sum over q <= x of {what}, G = {G.label}{cop}"
    rad = radical(coprime_to)
    return _series(G, _coprime_part(a, rad), Q, checkpoints, desc, rad, absolute, exact)


def restricted_mobius_partial_sums(
    G,
    b: int,
    x: int,
    checkpoints: Optional[Iterable[int]] = None,
    *,
    absolute: bool = False,
    exact: Optional[bool] = None,
) -> PartialSumSeries:
    """Partial sums of sum_{r <= t, (r, b) = 1} G(r) mu(r): the expansion at
    a = 1, since c_r(1) = mu(r).

    Only the radical of b matters, so b and radical(b) give identical series
    checkpoint by checkpoint.
    """
    if b < 1 or x < 1:
        raise ValueError("b and x must be >= 1")
    rad = radical(b)
    what = "|G(r) mu(r)|" if absolute else "G(r) mu(r)"
    desc = f"sum over r <= t, (r, {rad}) = 1 of {what}, G = {G.label}"
    return _series(G, 1, x, checkpoints, desc, rad, absolute, exact)


def finite_factor(G, a: int) -> Number:
    """Product over p | a of sum_{K=0}^{v_p(a)+1} G(p^K) c_{p^K}(a).

    The inner sums truncate where the prime-power Ramanujan sums vanish;
    a = 1 gives the empty product 1.
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    out: Number = 1
    for p, v in factorize(a).factors:
        out = out * _local_factor(G, p, v, a)
    return out


def _local_factor(G, p: int, v: int, a: int) -> Number:
    """sum_{K=0}^{v+1} G(p^K) c_{p^K}(a) for p^v exactly dividing a."""
    inner: Number = 0
    for K in range(v + 2):
        c = c_prime_power(p, K, a)
        if c:
            inner = inner + G.at_prime_power(p, K) * c
    return inner


def finite_factor_star(
    G: MultiplicativeFunction,
    report: Optional[SpectrumReport] = None,
    *,
    scan_bound: int = _DEFAULTS.scan_bound,
    k_max: int = _DEFAULTS.k_max,
    tol: float = _DEFAULTS.one_tol,
) -> Number:
    """a_G times the product of (1 - G(p^(v_{p,G}+1))) over transparent p.

    Defined only for normal or sporadic G (every valuation finite); the
    empty product for normal G gives exactly 1.
    """
    rep = report if report is not None else spectrum(G, scan_bound, k_max, tol)
    if rep.classification == "exotic":
        raise ValueError(f"{G.label} is exotic; a_G is undefined")
    out: Number = rep.aG
    for p in rep.transparent_primes:
        v = int(rep.valuations[p])
        out = out * (1 - G.at_prime_power(p, v + 1))
    return out


def finite_factor_forms_equal(G, a: int, tol: float = 1e-10) -> bool:
    """Check, prime by prime over p | a, that the truncated expansion factor
    equals its Abel-summed form sum_{K<=v} p^K (G(p^K) - G(p^(K+1)))."""
    if a < 1:
        raise ValueError("a must be >= 1")
    exact = getattr(G, "exact", False)
    for p, v in factorize(a).factors:
        lhs = _local_factor(G, p, v, a)
        rhs: Number = 0
        for K in range(v + 1):
            rhs = rhs + p**K * (G.at_prime_power(p, K) - G.at_prime_power(p, K + 1))
        if exact:
            if lhs != rhs:
                return False
        elif abs(complex(lhs) - complex(rhs)) > tol:
            return False
    return True


def factorized_expansion(G, a: int, x: int, *, exact: Optional[bool] = None) -> Number:
    """finite_factor(G, a) times the truncated cofactor
    sum_{r <= x, (r, a) = 1} G(r) mu(r)."""
    cofactor = restricted_mobius_partial_sums(G, a, x, checkpoints=[x], exact=exact).final
    return finite_factor(G, a) * cofactor


def coprime_peel_identity(
    G,
    F: Iterable[int],
    p1: int,
    x: int,
    *,
    exact: Optional[bool] = None,
) -> tuple[Number, Number]:
    """Both sides of the one-prime peel of a coprimality-restricted series.

    lhs = sum_{r <= x, (r, F) = 1} G(r) mu(r);
    rhs = same over (r, F u {p1}) = 1, minus G(p1) times the sum to x/p1.
    Exactly equal for multiplicative G in exact mode.
    """
    F = sorted(set(F))
    if not is_prime(p1):
        raise ValueError(f"p1 = {p1} is not prime")
    if p1 in F:
        raise ValueError("p1 must not belong to F")
    if any(not is_prime(p) for p in F):
        raise ValueError("F must consist of primes")
    if x < 1:
        raise ValueError("x must be >= 1")
    bF = math.prod(F) if F else 1
    bF1 = bF * p1
    lhs = restricted_mobius_partial_sums(G, bF, x, checkpoints=[x], exact=exact).final
    s_full = restricted_mobius_partial_sums(G, bF1, x, checkpoints=[x], exact=exact).final
    x2 = x // p1
    if x2 >= 1:
        s_scaled = restricted_mobius_partial_sums(G, bF1, x2, checkpoints=[x2], exact=exact).final
    else:
        s_scaled = 0
    rhs = s_full - G.eval(p1) * s_scaled
    return lhs, rhs


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Heuristic verdict on a checkpointed series, with its evidence.

    ``converges_to`` demands every checkpoint in the final window lie within
    ``tol`` of ``limit``; ``diverges_to_infinity`` demands both a large final
    magnitude and a positive fitted growth exponent.  Everything else is
    ``inconclusive``.
    """

    outcome: str  # "converges_to" | "diverges_to_infinity" | "inconclusive"
    limit: Optional[complex]
    window: int
    tol: float
    spread: float
    growth_exponent: Optional[float]


def _growth_exponent(series: PartialSumSeries) -> Optional[float]:
    xs, mags = [], []
    x_max = series.checkpoints[-1][0]
    for x, v in series.checkpoints:
        m = abs(complex(v))
        if x * 100 >= x_max and m > 0:
            xs.append(math.log(x))
            mags.append(math.log(m))
    if len(xs) < 4:
        return None
    slope = np.polyfit(xs, mags, 1)[0]
    return float(slope)


def detect_convergence(
    series: PartialSumSeries,
    target: Optional[complex] = None,
    window: int = _DEFAULTS.window,
    tol: float = _DEFAULTS.conv_tol,
    divergence_threshold: float = _DEFAULTS.divergence_threshold,
    growth_exponent_min: float = _DEFAULTS.growth_exponent_min,
) -> ConvergenceVerdict:
    """Classify a series as converging (to ``target`` or its windowed mean),
    diverging to infinity, or inconclusive.

    The keyword defaults are the ``EngineConfig`` field defaults."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}: one point has no spread")
    if len(series.checkpoints) < window:
        raise ValueError(f"need at least {window} checkpoints, have {len(series.checkpoints)}")
    tail = [complex(v) for _, v in series.checkpoints[-window:]]
    L = complex(target) if target is not None else sum(tail) / len(tail)
    spread = max(abs(v - L) for v in tail)
    exponent = _growth_exponent(series)
    if spread <= tol:
        return ConvergenceVerdict("converges_to", L, window, tol, spread, exponent)
    final_mag = abs(complex(series.checkpoints[-1][1]))
    if final_mag > divergence_threshold and exponent is not None and exponent > growth_exponent_min:
        return ConvergenceVerdict("diverges_to_infinity", None, window, tol, spread, exponent)
    return ConvergenceVerdict("inconclusive", None, window, tol, spread, exponent)


# ---------------------------------------------------------------------------
# Absolute convergence (finite/cofinite split of the absolute series)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsoluteConvergenceReport:
    """Diagnostics for absolute convergence of the expansion of G at a.

    The absolute series splits exactly as (finite sum over d | a*P(a) of
    |G(d) c_d(a)|) times (sum over (r, a) = 1 of |G(r) mu(r)|); truncating
    both sides leaves a discrepancy bounded by ``factor_tail_bound``.  The
    overall verdict is positive exactly on the profile of an absolutely
    convergent expansion of the zero function: summable |G| over the primes
    plus a certified invisible prime.
    """

    label: str
    a: int
    prime_bound: int
    Q: int
    prime_abs_series: PartialSumSeries
    prime_abs_last_decade_increase: float
    prime_abs_verdict: str  # "bounded" | "diverging"
    abs_expansion_series: PartialSumSeries
    factor_lhs: float
    factor_finite: float
    factor_cofactor: float
    factor_discrepancy: float
    factor_tail_bound: float
    classification: str
    certified: bool
    verdict: str  # "positive" | "negative" | "inconclusive"


def absolute_convergence_report(
    G: MultiplicativeFunction,
    prime_bound: int,
    a: int,
    Q: int,
    *,
    scan_bound: int = _DEFAULTS.scan_bound,
    k_max: int = _DEFAULTS.k_max,
    tol: float = _DEFAULTS.one_tol,
    slow_growth_tol: float = _DEFAULTS.slow_growth_tol,
) -> AbsoluteConvergenceReport:
    if prime_bound < 2 or a < 1 or Q < 1:
        raise ValueError("bounds must be >= 1 (prime_bound >= 2)")
    rep = spectrum(G, scan_bound, k_max, tol)  # rejects a non-multiplicative G before any table

    primes = sieve_primes(prime_bound)
    # The value table applies ``squarefree_cap``, which G.rule alone skips.
    cum = np.cumsum(np.abs(_value_table(G, prime_bound)[primes]))

    def prime_sum_upto(bound: int) -> float:
        k = int(np.searchsorted(primes, bound, side="right"))
        return float(cum[k - 1]) if k else 0.0

    cps = checkpoint_schedule(prime_bound)
    prime_series = PartialSumSeries(
        f"sum over p <= x of |G(p)|, G = {G.label}",
        tuple((x, prime_sum_upto(x)) for x in cps),
        "floating",
    )
    increase = prime_sum_upto(prime_bound) - prime_sum_upto(prime_bound // 10)
    prime_verdict = "diverging" if increase > slow_growth_tol else "bounded"

    abs_series = expansion_partial_sums(G, a, Q, absolute=True, exact=False)
    lhs = float(abs_series.final)

    aP = a * radical(a)
    divs = divisors(aP)
    finite_terms = {d: abs(complex(G.eval(d))) * abs(c_holder(d, a)) for d in divs}
    finite = float(sum(finite_terms.values()))

    cof_points = sorted({Q} | {Q // d for d in divs if Q // d >= 1})
    cof_series = restricted_mobius_partial_sums(
        G, a, Q, checkpoints=cof_points, absolute=True, exact=False
    )
    cof_at = dict(cof_series.checkpoints)
    cofactor = float(cof_at[Q])
    discrepancy = abs(lhs - finite * cofactor)
    tail_bound = float(
        sum(t * (cofactor - float(cof_at.get(Q // d, 0.0))) for d, t in finite_terms.items())
    )

    if prime_verdict == "diverging":
        verdict = "negative"
    elif rep.certified:
        verdict = "positive" if rep.classification == "exotic" else "negative"
    else:
        verdict = "inconclusive"

    return AbsoluteConvergenceReport(
        label=G.label,
        a=a,
        prime_bound=prime_bound,
        Q=Q,
        prime_abs_series=prime_series,
        prime_abs_last_decade_increase=float(increase),
        prime_abs_verdict=prime_verdict,
        abs_expansion_series=abs_series,
        factor_lhs=lhs,
        factor_finite=finite,
        factor_cofactor=cofactor,
        factor_discrepancy=float(discrepancy),
        factor_tail_bound=tail_bound,
        classification=rep.classification,
        certified=rep.certified,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# Zero-cloud verdict (the classification used as a decision procedure)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroCloudVerdict:
    """Outcome of the classification-based membership test for the 0-cloud.

    ``conclusion`` is "in_zero_cloud" only when every hypothesis check of the
    matching classification case passed; failed convergence hypotheses leave
    the test inconclusive rather than negative, since the decision procedure
    is silent without them.
    """

    label: str
    classification: str  # "normal" | "sporadic" | "exotic" | "weakly_exotic"
    hypothesis_checks: tuple[tuple[str, str], ...]
    conclusion: str  # "in_zero_cloud" | "not_in_zero_cloud" | "inconclusive"


def zero_cloud_verdict(G, config: Optional[EngineConfig] = None) -> ZeroCloudVerdict:
    """Dispatch on the classification of G and test the matching membership
    condition numerically.  Every hypothesis check is recorded.

    Every series runs on ``checkpoint_schedule(cfg.Q, cfg.window)``, once per
    distinct input: one per radical in the classical cases, one per p0-free
    part of a in the invisible-prime cases."""
    cfg = config if config is not None else EngineConfig()
    cps = checkpoint_schedule(cfg.Q, cfg.window)
    checks: list[tuple[str, str]] = []

    def detect(series, target=None):
        return detect_convergence(
            series,
            target=target,
            window=cfg.window,
            tol=cfg.conv_tol,
            divergence_threshold=cfg.divergence_threshold,
            growth_exponent_min=cfg.growth_exponent_min,
        )

    def check_hypothesis(text: str, series: Iterable[PartialSumSeries]) -> str:
        # Fails on any divergence, passes only if every series converges.
        outcomes = {detect(s).outcome for s in series}
        status = (
            "fail" if "diverges_to_infinity" in outcomes else "pass" if outcomes <= {"converges_to"} else "inconclusive"
        )
        checks.append((text, status))
        return status

    def invisible_prime_case(classification: str, p0: int, certified: bool) -> ZeroCloudVerdict:
        # a and a / p0^k give one series over q coprime to p0; the extra
        # 1, 3, 5, 7, 15 keep small cofactors in every sample set.
        samples = sorted({_coprime_part(a, p0) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)})
        status = check_hypothesis(
            f"sum over (q, {p0}) = 1 of G(q) c_q(a) converges for sampled a ({len(samples)} distinct p0-free parts)",
            (expansion_partial_sums(G, a, cfg.Q, cps, coprime_to=p0, exact=False) for a in samples),
        )
        conclusion = "in_zero_cloud" if status == "pass" and certified else "inconclusive"
        return ZeroCloudVerdict(G.label, classification, tuple(checks), conclusion)

    if isinstance(G, GeneralArithmeticFunction):
        classification = "weakly_exotic"
        p0 = G.invisible_prime
        if p0 is None:
            checks.append(("an invisible prime p0 is declared", "fail"))
            return ZeroCloudVerdict(G.label, classification, tuple(checks), "inconclusive")
        checks.append(("an invisible prime p0 is declared", "pass"))
        ok = is_weakly_exotic(G, p0, cfg.we_r_bound, cfg.we_k_bound, 0.0 if G.exact else cfg.one_tol)
        checks.append(
            (
                f"G(p0^K r) = G(r) on the sampled grid (p0={p0}, r<={cfg.we_r_bound}, K<={cfg.we_k_bound})",
                "pass" if ok else "fail",
            )
        )
        if not ok:
            return ZeroCloudVerdict(G.label, classification, tuple(checks), "inconclusive")
        return invisible_prime_case(classification, p0, True)

    rep = spectrum(G, cfg.scan_bound, cfg.k_max, cfg.one_tol)
    classification = rep.classification
    checks.append(("spectra certified by the constructor", "pass" if rep.certified else "fail"))

    if classification == "exotic":
        return invisible_prime_case(classification, min(rep.invisible_primes), rep.certified)

    # Normal / sporadic: the Mobius series restricted to (r, a) = 1 must
    # converge for sampled a, and the characterizing sum must vanish.
    radicals = sorted({radical(x) for x in cfg.sample_a})
    b0 = 1 if classification == "normal" else rep.PG
    restricted = {b: restricted_mobius_partial_sums(G, b, cfg.Q, cps, exact=False) for b in sorted({*radicals, b0})}
    hyp = check_hypothesis(
        f"sum over (r, a) = 1 of G(r) mu(r) converges for sampled a (radicals {radicals[:8]}...)",
        (restricted[b] for b in radicals),
    )

    series = restricted[b0]
    what = "sum of G(q) mu(q)" if b0 == 1 else f"sum over (q, {b0}) = 1 of G(q) mu(q)"
    v_zero = detect(series, target=0)
    if v_zero.outcome == "converges_to":
        main_check, main_kind = "pass", "zero"
    else:
        v_free = detect(series)
        if v_free.outcome == "converges_to" and abs(v_free.limit) > cfg.conv_tol:
            main_check, main_kind = "fail", "nonzero"
        elif v_free.outcome == "diverges_to_infinity":
            main_check, main_kind = "fail", "diverged"  # breaks the hypothesis too
        else:
            main_check, main_kind = "inconclusive", "unknown"
    checks.append((f"{what} equals 0 (within {cfg.conv_tol} at Q = {cfg.Q})", main_check))

    if not rep.certified or hyp != "pass":
        conclusion = "inconclusive"
    elif main_kind == "zero":
        conclusion = "in_zero_cloud"
    elif main_kind == "nonzero":
        conclusion = "not_in_zero_cloud"
    else:
        conclusion = "inconclusive"
    return ZeroCloudVerdict(G.label, classification, tuple(checks), conclusion)
