"""Truncated expansions over Ramanujan sums, restricted Mobius series,
finite/cofinite factorizations, and convergence diagnostics.

Every series here is a ``PartialSumSeries``: checkpointed partial sums of
G(n) c_n(a), optionally over n coprime to a modulus or in absolute value.
One kernel, ``_series``, computes them.  The restricted Mobius series is the
expansion at a = 1, since c_n(1) = mu(n) (Ramanujan 1918).  Exact rules up
to ``EXACT_LIMIT`` (denominators explode beyond that) run in exact-rational
mode, an oracle independent of the numpy tables: its only sources are the
scalar ``c_holder`` and ``G.eval``, and it sums each stretch between two
checkpoints as integer numerators over one denominator, the lcm of the
stretch's denominators (``_exact_sums``).  Every floating series is summed
by one reduction, ``_neumaier_segments``: one numpy pass over the segments
between the points wanted, Neumaier-compensated across segments.

Both floating kernels sum plans: a plan is a list of terms (d, w, B), and
a series is sum w T_{d,B}(x // d) over its terms, with
T_{d,B}(y) = sum_{m <= y, (m, B) = 1} G(dm) mu(m) (or |G(dm) mu(m)|).
``_combine`` adds the weighted sums in plan order for both.  Kluyver's
c_q(a) = sum over d | (q, a) of d mu(q/d) gives every signed series the plan
(d, d, b) for d | a; Hardy's gives every absolute one (d, |c_d(a)|, b rad(a))
for d | a rad(a), of any G (c_q(a) is multiplicative in q, so
c_{dr}(a) = c_d(a) mu(r) for r coprime to a, and c_d(a) = 0 unless
d | a rad(a)).

``_peel_sums`` reads the T_{d,b} of a multiplicative G from one table, G mu
at the n coprime to 6 (``_gmu_table``: G(2m) mu(2m) = -G(2) G(m) mu(m) for
odd m, G(3m) mu(3m) = -G(3) G(m) mu(m) for m coprime to 3, and 0 when
4 | n or 9 | n), through its prefix R_6(z) = sum_{r <= z, (r, 6) = 1} G(r) mu(r).
Multiplicativity writes T_{d,b}(y) as the sum over m' | rad(6d) / gcd(6, b)
of mu(m') G(dm') R_{6b rad d}(y // m'): the m' with 2 or 3 are the peel at
2 and at 3, so the Mobius prefix M_G(z) is the sum over s | 6 of
mu(s) G(s) R_6(z // s).  The coprime peel R_{Fp}(z) = R_F(z) + G(p) R_{Fp}(z // p)
climbs to each R_{6B} from R_6 over a trie of the primes above 3 of
radicals.  A verdict's samples or radicals, and a single expansion, all
read R_6 at the trie root's distinct points in one pass over G mu, and
each distinct T_{d,b} once.  ``_peel_sums`` picks each pair's kernel from
what the climb multiplies by: a non-multiplicative G, |G(p)| > 1 on a
prime p > 3 of ab, or a G whose ``squarefree_cap`` binds somewhere up to Q
(``_cap_binds``) takes the strided kernel instead.

The strided kernel, ``_strided_sums``, reads each T_{d,B} from one strided
pass over the value and mu tables, or, for a G with a ``support``, point by
point at the support points divisible by d, so a finitely supported G costs
per support point and builds no Q-sized array.  It takes Kluyver's plan for
the signed pairs the peel does not take, and Hardy's for every absolute
series.

Convergence verdicts are bounded numerical evidence, never proofs; the
honest third outcome "inconclusive" is routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd
from numbers import Integral
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import core as _core
from .config import EngineConfig, _check_integers, _is_number
from .core import ResourceLimitError, _gather, checked_values, divisors, factorize, is_prime, mobius, mobius_table, multiplicative_sieve, radical, sieve_primes
from .multiplicative import (
    GeneralArithmeticFunction,
    MultiplicativeFunction,
    SpectrumReport,
    _close,
    _rule_values,
    is_weakly_exotic,
    spectrum,
)
from .sums import c_holder, c_prime_power

Number = Union[int, Fraction, float, complex]

# Largest truncation for exact-rational series.
EXACT_LIMIT = 10_000

# Floating tolerance of the Abel-form comparison in finite_factor_forms_equal.
FORMS_TOL = 1e-10


def checkpoint_schedule(Q: int, window: int = EngineConfig.window) -> list[int]:
    """Geometric decades up to Q plus ``window`` points over [Q/2, Q].

    The dense final stretch is what spread-based convergence verdicts look
    at; tiny Q just gets every integer.
    """
    _check_integers(Q=Q, window=window)
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


def _neumaier_segments(terms: np.ndarray, points: Union[np.ndarray, Sequence[int]]) -> np.ndarray:
    """The sums of ``terms[1..y]`` for each y in ``points`` (any order and
    shape, 0 and repeats allowed), as an array of the terms' dtype.

    One numpy pass sums the segments between consecutive distinct positive
    points, each as its first term plus a pairwise sum of the rest, and
    Neumaier-accumulates them.  The dedupe is needed: a start repeated for
    an empty segment would read ``terms[start]``, not 0."""
    points = np.asarray(points, dtype=np.int64)
    ys = _sorted_distinct(points)
    ys = ys[ys > 0]
    sums = np.zeros(len(ys) + 1, dtype=terms.dtype)  # sums[0] = 0 for y = 0
    if len(ys):
        segments = np.add.reduceat(terms[: ys[-1] + 1], np.concatenate(([1], ys[:-1] + 1)))
        sums[1:] = _neumaier_accumulate(segments.tolist())
    return sums[np.searchsorted(ys, points, "right")]


def _sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, ascending: ``np.unique`` without its
    lazy import of ``numpy.ma``, which stays resident (about 0.8 MB)."""
    a = np.sort(a, axis=None)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _neumaier_accumulate(segments: Iterable[Number]) -> list:
    """Running sums of the segment sums, Neumaier-compensated (Python
    floats or complexes in, the same out)."""
    total = comp = 0.0
    out = []
    for seg in segments:
        t = total + seg
        if abs(total) >= abs(seg):
            comp += (total - t) + seg
        else:
            comp += (seg - t) + total
        total = t
        out.append(total + comp)
    return out


def _validate_checkpoints(checkpoints: Optional[Iterable[int]], Q: int) -> list[int]:
    if checkpoints is None:
        return checkpoint_schedule(Q)
    cps = list(checkpoints)
    if not cps or not all(_is_number(x, Integral) and 1 <= x <= Q for x in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError(f"checkpoints must be strictly increasing integers within [1, {Q}], got {cps!r}")
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


def _value_table(G, Q: int) -> np.ndarray:
    """G(n) for n = 0..Q as a float64/complex128 array (index 0 is 0).

    Multiplicative G goes through ``multiplicative_sieve``: one strided
    multiply per prime p <= isqrt(Q) and block of the table, then, per
    quarter block, G at the quarter's primes above isqrt(Q) and one scatter
    over their multiples.  G at every prime is read by ``_prime_values``
    (``G.at_primes`` when the entry carries that numpy form, else one rule
    call per prime), and the rule is called once per higher power
    p^2, ..., p^E <= Q of each prime p <= isqrt(Q).  A general G is
    evaluated at every n;
    the series kernels read a G with a ``support`` at its support points
    instead (``_support_values``).  Every value goes through
    ``core._gather`` or ``checked_values``, so the table does not depend on
    which path ran.  The table is float64 unless a value is complex, then
    complex128, and ``squarefree_cap`` clamps it as it clamps ``G.eval``
    (``_clamp``).  Kept on G (``_keep``; a verdict drops it when it
    returns).  A Q above ``SIEVE_BUDGET`` raises ``ResourceLimitError``
    before any path allocates.
    """
    key = ("values", Q)
    if key in G._memo:
        return G._memo[key]
    _core._check_limit(Q)

    if isinstance(G, MultiplicativeFunction):
        higher = lambda p, E: _rule_values(G, [p] * (E - 1), range(2, E + 1))
        vals = multiplicative_sieve(Q, partial(_prime_values, G), np.float64, higher=higher)
        if G.squarefree_cap is not None:
            # Squarefree n > 1 only (mu(n) != 0; G(1) = 1), block by block.
            mu = _mu_table(G, Q)
            for lo in range(2, Q + 1, _core._BLOCK):
                n = lo + np.flatnonzero(mu[lo : lo + _core._BLOCK])
                v = vals[n]
                over = _clamp(v, n, G.squarefree_cap)
                vals[n[over]] = v[over]
    else:
        vals = _gather(chain((0,), map(G.eval, range(1, Q + 1))), Q + 1)

    vals.setflags(write=False)
    return _keep(G, key, vals)


def _support_values(G: GeneralArithmeticFunction, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, G(n)) at the ascending distinct n of ``G.support(Q)``: an int64
    array and a float64 array, complex128 if a value is complex
    (``core._gather``), both read-only.  G is 0 at every other n <= Q.
    Kept on G (``_keep``; a verdict drops them when it returns).  A Q above
    ``SIEVE_BUDGET`` raises ``ResourceLimitError``, and a support point
    that is not an integer in [1, Q] raises ``ValueError``."""
    key = ("support", Q)
    if key in G._memo:
        return G._memo[key]
    _core._check_limit(Q)
    ns = list(G.support(Q))
    if not all(isinstance(n, Integral) and 1 <= n <= Q for n in ns):
        raise ValueError(f"{G.label}: support({Q}) must give integers in [1, {Q}]")
    n = _sorted_distinct(np.array(ns, dtype=np.int64))
    vals = _gather(map(G.eval, n.tolist()), len(n))
    n.setflags(write=False)
    vals.setflags(write=False)
    return _keep(G, key, (n, vals))


def _mu_table(G, Q: int) -> np.ndarray:
    """``mobius_table(Q)``, kept on G (``_keep``) beside its value table:
    Kluyver's mu(q/d) for the strided kernel, and the squarefree n for
    ``squarefree_cap``."""
    key = ("mu", Q)
    return G._memo[key] if key in G._memo else _keep(G, key, mobius_table(Q))


def _keep(G, key: tuple, table):
    """``table``, stored on G under ``key`` = (kind, Q) as its one table of
    that kind: the kind's table at another Q goes, and with a G mu table the
    ``("clamped", Q)`` answers read from it.

    The table stays for later calls at that Q: expansions and
    ``absolute_convergence_report`` keep theirs, since their callers reuse
    them (``expand_scale``'s expansions of one G at one Q, artifact 07's
    a = 1..100 per G).  ``zero_cloud_verdict`` reads each table once and
    drops what it stored here when it returns.  Nothing outlives G: mu is
    kept here too (``_mu_table``), beside the value table it is read with."""
    stale = ("gmu", "clamped") if key[0] == "gmu" else (key[0],)
    for old in [k for k in list(G._memo) if isinstance(k, tuple) and k[0] in stale]:
        G._memo.pop(old, None)
    G._memo[key] = table
    return table


# Primes per call of ``G.at_primes`` or of the rule in ``_prime_values``.
_PRIME_CHUNK = 1 << 14


def _prime_values(G: MultiplicativeFunction, P: np.ndarray, negate: bool = False) -> np.ndarray:
    """G(p) at the ascending primes P, or 0 - G(p) with ``negate``:
    ``G.at_primes`` when the entry carries it, else one rule call per prime.
    The one reader of G at the primes: a table's (those up to isqrt(Q) in
    one call, those above one quarter block at a time), the prime sum's, and
    the peel's guards (``_cap_binds``, the kernel rule of ``_peel_sums``).

    Both are read ``_PRIME_CHUNK`` primes at a time, each chunk an ascending
    prime array as ``at_primes`` expects, into one output array, so no
    transient (a form's ``P - 1``, the rule path's list of ints, the
    negation) is longer than a chunk.  The output takes the first chunk's
    dtype, promoted as a later chunk needs (a rule complex only at large p),
    so its bytes and dtype are those of one read of all of P."""
    out = None
    for lo in range(0, max(len(P), 1), _PRIME_CHUNK):  # an empty P is read once too, for its dtype
        chunk = P[lo : lo + _PRIME_CHUNK]
        if G.at_primes is not None:
            v = checked_values(G.at_primes(chunk), len(chunk), f"{G.label}: at_primes(P)")
        else:
            v = _rule_values(G, chunk.tolist(), [1] * len(chunk))
        if negate:
            v = 0.0 - v
        if out is None:
            out = np.empty(len(P), v.dtype)
        elif np.result_type(out, v) != out.dtype:
            out = out.astype(np.result_type(out, v))
        out[lo : lo + len(v)] = v
    return out


def _clamp(values: np.ndarray, n: np.ndarray, cap: float) -> np.ndarray:
    """Scale ``values``, G at the squarefree n > 1 in ``n``, in place to
    |G(n)| <= cap / n as ``G.eval`` does, and return the mask of those
    scaled: the one place ``squarefree_cap`` meets arrays."""
    mag = np.abs(values)
    bound = cap / n
    over = mag > bound
    values[over] *= bound[over] / mag[over]
    return over


def _gmu_table(G: MultiplicativeFunction, Q: int) -> np.ndarray:
    """G(n) mu(n) at the n <= Q coprime to 6, as the rule gives it (no
    ``squarefree_cap``): entry i holds it for n = 3i - 1 - (i mod 2), so n
    sits at n // 3 + 1, and entry 0 is 0.

    Hardy: G mu is multiplicative, so G(2m) mu(2m) = -G(2) G(m) mu(m) for
    odd m, G(3m) mu(3m) = -G(3) G(m) mu(m) for m coprime to 3, and
    G(n) mu(n) = 0 when 4 | n or 9 | n.  Every other entry of a full table
    is redundant: the sums R_6(z) over the n <= z coprime to 6, the entries
    1..``core._wheel_count(z)``, give
    M_G(z) = sum over s | 6 of mu(s) G(s) R_6(z // s).
    One wheel-layout ``multiplicative_sieve`` from 0 - G(p) at every prime
    p >= 5 (``_prime_values``), every higher power +0, so no value table
    and no mu table is built, and the table takes 8/3 bytes per q (float64;
    16/3 complex); for an uncapped G, entries 1.. equal
    ``_value_table(G, Q) * mobius_table(Q)`` at the n coprime to 6, entry
    by entry (the signs of their zeros may differ, since they are only
    summed).  Kept on G (``_keep``; a verdict drops it when it returns);
    whether a cap binds is ``_cap_binds``'s to say.
    """
    key = ("gmu", Q)
    if key in G._memo:
        return G._memo[key]
    _core._check_limit(Q)

    # 0 - G(p) rather than -G(p): a zero value stays +0, so the sieve can
    # skip the zero cofactors of a G that vanishes at the large primes.
    gmu = multiplicative_sieve(Q, partial(_prime_values, G, negate=True), np.float64, _wheel=True)
    gmu.setflags(write=False)
    return _keep(G, key, gmu)


def _cap_binds(G: MultiplicativeFunction, Q: int, gmu: np.ndarray) -> bool:
    """Whether ``squarefree_cap`` would change G mu (making it no longer
    multiplicative) at some n <= Q, read off ``gmu = _gmu_table(G, Q)`` a
    sixteenth of a sieve block (2^14 entries) at a time, so no transient of
    the scan exceeds 128 KiB.  Each squarefree n is c m with m coprime to 6
    and c one of 1, 2, 3, 6, and G(cm) mu(cm) = mu(c) G(c) G(m) mu(m), so
    the cap binds where |G(c)| |G mu(m)| > cap / cm for some class c and
    m <= Q // c, n > 1.  Cached on G under ``("clamped", Q)``, its only
    writer."""
    key = ("clamped", Q)
    if key not in G._memo:
        cap = G.squarefree_cap
        g2, g3 = np.abs(_prime_values(G, np.array([2, 3], dtype=np.int64))).tolist()
        classes = ((1, 1.0), (2, g2), (3, g3), (6, g2 * g3))  # (c, |G(c)|)

        def binds(lo):
            mag = np.abs(gmu[lo : lo + _core._BLOCK // 16])  # a zero entry never binds
            m = _core._held(np.arange(lo, lo + len(mag)), True)
            for c, gc in classes:
                first = int(lo == 1 and c == 1)  # n = 1: G(1) = 1 is never clamped
                top = np.searchsorted(m, Q // c, "right")  # the m <= Q // c
                if (gc * mag[first:top] > cap / (c * m[first:top])).any():
                    return True
            return False

        G._memo[key] = any(map(binds, range(1, len(gmu), _core._BLOCK // 16)))
    return G._memo[key]


def _strike_non_coprime(terms: np.ndarray, b: int) -> None:
    """Zero ``terms[n]`` wherever gcd(n, b) != 1, in place.

    One strided store per prime of b; index 0 is a multiple of every p.
    """
    for p in factorize(b).primes():
        terms[::p] = 0


def _series(G, a: int, Q: int, cps, desc: str, b: int, absolute: bool, exact) -> PartialSumSeries:
    """Partial sums of G(q) c_q(a), or |G(q) c_q(a)|, over q <= x coprime to b.

    ``a`` must already be coprime to ``b`` (both floating kernels need it).
    Exact mode (``_exact_sums``) reads only the scalar ``c_holder`` and
    ``G.eval``, never a table, so the exact oracle stays independent of the
    tables it checks; it sums each segment between checkpoints as integer
    numerators over the lcm of the segment's denominators.  The signed
    floating sum is ``_peel_sums`` of the one pair (a, b).

    The absolute floating sum, for any G, is ``_strided_sums`` of Hardy's
    plan: c_q(a) is multiplicative in q, so writing q = d r, d holding the
    primes of a and r coprime to a, gives c_q(a) = c_d(a) mu(r), and
    c_d(a) != 0 exactly when d | a rad(a).  So the sum is
    sum over d | a rad(a) of |c_d(a)| A_d(x // d), with
    A_d(y) = sum_{r <= y, (r, ab) = 1} |G(dr) mu(r)|: the plan terms
    (d, |c_d(a)|, b rad(a)) for d <= Q, in ascending d.
    """
    cps = _validate_checkpoints(cps, Q)
    if _use_exact(G, Q, exact):
        return PartialSumSeries(desc, tuple(zip(cps, _exact_sums(G, a, b, cps, absolute))), "exact-rational")

    if absolute:
        rad = radical(a)
        plan = [(d, abs(c_holder(d, a)), b * rad) for d in divisors(a * rad) if d <= Q]
        return _floating(desc, cps, _strided_sums(G, {a: plan}, Q, cps, absolute=True)[a])
    return _floating(desc, cps, _peel_sums(G, [(a, b)], Q, cps)[(a, b)])


def _exact_sums(G, a: int, b: int, cps: list[int], absolute: bool) -> list:
    """The exact partial sums of G(n) c_n(a), or |G(n) c_n(a)|, over n <= x
    coprime to b, at each checkpoint x in ``cps``, of the value and type
    that adding the terms one by one gives: an int until the first Fraction.

    The terms of a segment between checkpoints are v w with
    w = c_holder(n, a) != 0 and v = G.eval(n).  The segment is acc / L, L
    the lcm of its v's denominators and acc the integer sum of
    v.numerator w (L // v.denominator), both grown term by term; one gcd,
    of acc and L, normalizes it, and it is added to the running sum once,
    where a Fraction sum pays gcds at every term.  L starts again at 1 in
    each segment: one L for the whole series would make that gcd as long
    as the whole series' denominators at every checkpoint.  A v with no
    ``denominator`` (a float, a complex) raises ``ValueError``."""
    sums, total, lo = [], 0, 1
    for x in cps:
        ns = range(lo, x + 1)
        if b > 1:
            ns = [n for n in ns if gcd(n, b) == 1]
        acc, L, fraction = 0, 1, False
        for n in ns:
            w = c_holder(n, a)
            if not w:
                continue
            v = G.eval(n)
            try:
                d = v.denominator
            except AttributeError:
                raise ValueError(f"{G.label}: G({n}) = {v!r} is not rational; exact mode sums ints and Fractions only") from None
            if L % d:
                m = d // gcd(L, d)
                acc *= m
                L *= m
            t = v.numerator * w * (L // d)
            acc += abs(t) if absolute else t
            fraction = fraction or isinstance(v, Fraction)
        if fraction or L > 1:
            total = total + Fraction(acc, L)
        elif acc:
            total = total + acc
        sums.append(total)
        lo = x + 1
    return sums


def _coprime_part(a: int, b: int) -> int:
    """a with every prime of b divided out: gcd(q, a) and so c_q(a) are the
    same for both at every q coprime to b."""
    for p in factorize(b).primes():
        while a % p == 0:
            a //= p
    return a


def _strided_sums(G, plans: dict, Q: int, cps: list[int], absolute: bool = False) -> dict:
    """{key: sum of w T_{d,B}(x // d) over the terms (d, w, B) of its plan}
    for each plan in ``plans`` ({key: [(d, w, B), ...]}, d <= Q), as a list
    over the checkpoints x in ``cps``.

    T_{d,B}(y) = sum_{m <= y, (m, B) = 1} G(dm) mu(m), or with ``absolute``
    sum |G(dm) mu(m)|: the terms of ``_strided_terms`` Neumaier-summed at
    the points x // d.  Each distinct (d, B) is computed once per call, one
    buffer of terms at a time, and ``_combine`` adds the weighted sums in
    plan order.  Nothing is kept on G but its values, and a plan's sums do
    not depend on the others in the call.
    """
    T = {}
    for d, B in dict.fromkeys((d, B) for terms in plans.values() for d, _, B in terms):
        u, points = _strided_terms(G, Q, d, B, np.array(cps, dtype=np.int64) // d, absolute)
        T[(d, B)] = _neumaier_segments(u, points).tolist()
        del u  # before the next (d, B) allocates its buffer
    return _combine(plans, T, len(cps))


def _combine(plans: dict, T: dict, n: int) -> dict:
    """{key: sum of w T[(d, B)] over the terms (d, w, B) of its plan}, each
    T[(d, B)] a list of n sums, added in plan order: the one place either
    kernel weights its T_{d,B}."""
    out = {}
    for key, terms in plans.items():
        totals = [0.0] * n
        for d, w, B in terms:
            totals = [s + w * t for s, t in zip(totals, T[(d, B)])]
        out[key] = totals
    return out


def _strided_terms(G, Q: int, d: int, B: int, ys: np.ndarray, absolute: bool) -> tuple[np.ndarray, np.ndarray]:
    """The terms of T_{d,B} and the points at which ``_neumaier_segments``
    reads T_{d,B}(y) for each y in ``ys``.

    A G with a ``support`` is read at its support points n_k divisible by d
    (``_support_values``): at m_k = n_k / d, ascending, the terms
    u_k = G(n_k) mu(m_k), or |G(n_k)| where mu(m_k) != 0, with mu the
    memoized scalar ``mobius``, struck where gcd(m_k, B) > 1 and read at the
    number of m_k <= y; so it costs per support point.  Any other G is read
    in one strided pass, ``V[::d] * mu`` indexed by m (exact, mu is -1, 0 or
    1) with V the value table, struck on B and read at y; with ``absolute``
    ``|V[::d]|`` zeroed where mu(m) = 0 (so exact too)."""
    if isinstance(G, GeneralArithmeticFunction) and G.support is not None:
        n, v = _support_values(G, Q)
        at = n % d == 0
        m, g = n[at] // d, v[at]
        mu = np.fromiter(map(mobius, m.tolist()), np.int8, count=len(m))
        keep = mu != 0
        for p in factorize(B).primes():
            keep &= m % p != 0
        u = np.abs(g[keep]) if absolute else g[keep] * mu[keep]
        return np.concatenate((np.zeros(1, u.dtype), u)), np.searchsorted(m[keep], ys, "right")
    V, mu = _value_table(G, Q)[::d], _mu_table(G, Q)[: Q // d + 1]
    if absolute:  # not np.abs(V * mu): numpy's complex abs of a
        u = np.abs(V)  # contiguous product rounds otherwise
        u *= mu != 0
    else:
        u = V * mu
    _strike_non_coprime(u, B)
    return u, ys


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
    _check_integers(a=a, Q=Q, coprime_to=coprime_to)
    if a < 1 or Q < 1 or coprime_to < 1:
        raise ValueError("a, Q and coprime_to must be >= 1")
    rad = radical(coprime_to)
    desc = _expansion_description(G, a, coprime_to, absolute)
    return _series(G, _coprime_part(a, rad), Q, checkpoints, desc, rad, absolute, exact)


def _expansion_description(G, a: int, coprime_to: int, absolute: bool = False) -> str:
    what = f"|G(q) c_q({a})|" if absolute else f"G(q) c_q({a})"
    cop = f", q coprime to {coprime_to}" if coprime_to > 1 else ""
    return f"sum over q <= x of {what}, G = {G.label}{cop}"


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
    _check_integers(b=b, x=x)
    if b < 1 or x < 1:
        raise ValueError("b and x must be >= 1")
    rad = radical(b)
    return _series(G, 1, x, checkpoints, _restricted_description(G, rad, absolute), rad, absolute, exact)


def _restricted_description(G, rad: int, absolute: bool = False) -> str:
    what = "|G(r) mu(r)|" if absolute else "G(r) mu(r)"
    return f"sum over r <= t, (r, {rad}) = 1 of {what}, G = {G.label}"


def _floating(desc: str, cps: list[int], sums: list) -> PartialSumSeries:
    return PartialSumSeries(desc, tuple(zip(cps, sums)), "floating")


def _peel_sums(G, pairs: Iterable[tuple[int, int]], Q: int, cps: list[int]) -> dict:
    """Floating sum_{q <= x, (q, b) = 1} G(q) c_q(a) at the checkpoints
    ``cps`` for each pair (a, b), b a radical and a coprime to b, as
    {(a, b): list of sums}; a = 1 gives the restricted Mobius series of b.

    Every pair takes Kluyver's plan, the terms (d, d, b) for d | a, d <= Q,
    ascending: S(x) = sum over d | a of d T_{d,b}(x // d), with
    T_{d,b}(y) = sum_{m <= y, (m, b) = 1} G(dm) mu(m).  Each pair's kernel
    is chosen before any table is built.  A pair is peeled when G is
    multiplicative, |G(p)| <= 1 at every prime 3 < p <= Q of ab
    (``_prime_values``; the climb's powers G(p)^k would amplify the roundoff
    of R_6 above 1, and 2 and 3 are never climbed), and no cap binds up to
    Q (``_cap_binds``).  The other pairs go, as one batch, to
    ``_strided_sums``, and never read a T_{d,b} that the peel computed.

    For the peeled pairs, a squarefree m coprime to b splits as m' r with
    m' | rad(6d) / gcd(6, b) (the primes of d, and those of 2 and 3 that b
    lacks) and r coprime to 6bd, and G(dm' r) = G(dm') G(r), so
    T_{d,b}(y) = sum over m' of mu(m') G(dm') R_B(y // m'), where
    B = 6 b rad d and R_B(z) = sum_{r <= z, (r, B) = 1} G(r) mu(r).  Since
    mu(pm') G(pdm') = -G(p) mu(m') G(dm') for p = 2 or 3 prime to bd, the
    terms at the m' that p divides are the peel at p,
    R_F(z) = R_{pF}(z) - G(p) R_{pF}(z // p).  So every term reads R_B at
    the trie node of the primes of bd above 3 (``_kluyver_terms``).  The
    coprime peel (``coprime_peel_identity``) read the other way,
    R_{Fp}(z) = R_F(z) + G(p) R_{Fp}(z // p), is the weighted form of
    Legendre's phi(x, a) recurrence.  ``_peel_points`` plans it over a trie
    of the primes above 3 of radicals, whose node F holds R_{6F} and whose
    root () is R_6: one ``_neumaier_segments`` pass over the G mu table at
    the n coprime to 6 (``_gmu_table``) sums its entries
    1..``core._wheel_count(z)`` at the root's points z.  The climb computes
    every other node from its parent at its own points, one level
    p^j <= z < p^(j+1) at a time, a Horner scheme in G(p) along each prime
    p >= 5, G(p) read at its entry p // 3 + 1.  Each distinct (d, b) of the
    batch is built and read once: T_{d,b} adds its terms in ascending m',
    and ``_combine``, the loop of the strided kernel, adds d T_{d,b} in
    plan order.  So G(2) and G(3) enter only the coefficients G(dm'), as in
    the direct kernel.  Every product of an array goes through ``_times``.

    Neither kernel stores anything on G but tables and the guard's answer,
    so a series reads the same bytes whatever ran before it.  A strided
    series also has the same bytes in any batch; a peeled one does not,
    since the root's points are the batch's union, which moves the segments
    of R_6: each of the 31 restricted series of a GR verdict at the default
    config (Q = 10^6, window 32) differs from ``restricted_mobius_partial_sums``
    at the same checkpoints, by at most 1.232e-16.
    """
    pairs = list(pairs)
    peel = set()
    if isinstance(G, MultiplicativeFunction):
        primes = sorted({p for a, b in pairs for p in factorize(a * b).primes() if 3 < p <= Q})
        over = {p for p, g in zip(primes, _prime_values(G, np.array(primes, dtype=np.int64)).tolist()) if not abs(g) <= 1}
        peel = {(a, b) for a, b in pairs if over.isdisjoint(factorize(a * b).primes())}
    if peel and G.squarefree_cap is not None and _cap_binds(G, Q, _gmu_table(G, Q)):
        peel = set()
    plans = {(a, b): [(d, d, b) for d in divisors(a) if d <= Q] for a, b in pairs}
    out = _strided_sums(G, {pair: plan for pair, plan in plans.items() if pair not in peel}, Q, cps)
    if not peel:
        return out
    gmu = _gmu_table(G, Q)
    plans = {pair: plan for pair, plan in plans.items() if pair in peel}
    terms = {(d, b): _kluyver_terms(G, d, b, Q) for d, b in dict.fromkeys((d, b) for plan in plans.values() for d, _, b in plan)}

    xs = np.array(cps, dtype=np.int64)
    reads = {}  # the k each node is read at
    for k, _, node in chain.from_iterable(terms.values()):
        reads.setdefault(node, set()).add(k)
    points = _peel_points(reads, xs)
    R = {(): _neumaier_segments(gmu, _core._wheel_count(points[()]))}  # R_6
    for node in sorted(points, key=len)[1:]:  # parents before children
        z, p = points[node], node[-1]
        r = R[node[:-1]][np.searchsorted(points[node[:-1]], z)]
        if p <= z[-1]:  # else R_{Fp} = R_F at every point, and p may exceed Q
            g, below, tops = -gmu[_core._entry(p, True)], np.searchsorted(z, z // p), [p]
            while tops[-1] <= z[-1]:
                tops.append(tops[-1] * p)
            edges = np.searchsorted(z, tops).tolist()
            for lo, hi in zip(edges, edges[1:]):  # the level p^j <= z < p^(j+1) reads the one below
                r[lo:hi] += _times(g, r[below[lo:hi]])
        R[node] = r
    T = {}
    for key, ts in terms.items():
        total = 0.0
        for k, coef, node in ts:
            total = total + _times(coef, R[node][np.searchsorted(points[node], xs // k)])
        T[key] = total.tolist()
    out.update(_combine(plans, T, len(cps)))
    return out


def _times(c: Number, r: np.ndarray) -> np.ndarray:
    """c r as a new array, a complex product on its float planes
    (``core._mul``), so its bytes do not depend on numpy's SIMD split."""
    out = r.astype(np.result_type(r, c))
    _core._mul(out, c)
    return out


def _peel_points(reads: dict, xs: np.ndarray) -> dict:
    """The plan of ``_peel_sums``: each node of the trie of radicals (the
    tuple of a radical's primes above 3, ascending; its parent drops the
    largest) with the sorted distinct points at which the node is read.
    ``reads`` maps a node to the k of its own terms, read at x // k for x in
    ``xs``.  A node's points are its own and its children's, closed under
    z -> z // p for its largest prime p, and its parent reads them all; the
    root () holds every point at which R_6 is needed."""
    need = {}
    for node, ks in reads.items():
        need.setdefault(node, []).append((xs[:, None] // np.array(sorted(ks), dtype=np.int64)).ravel())
        for i in range(len(node)):
            need.setdefault(node[:i], [])
    points = {}
    for node in sorted(need, key=len, reverse=True):  # children before parents
        z = _sorted_distinct(np.concatenate(need[node]))
        if node:
            levels = [z]
            while levels[-1][-1]:
                levels.append(_sorted_distinct(levels[-1] // node[-1]))
            z = _sorted_distinct(np.concatenate(levels))
            need[node[:-1]].append(z)
        points[node] = z
    return points


def _kluyver_terms(G: MultiplicativeFunction, d: int, b: int, Q: int) -> list[tuple[int, Number, tuple]]:
    """The terms (k, coefficient, node) of ``_peel_sums``'s T_{d,b}, for d
    coprime to the radical b: k = dm' for m' | rad(6d) / gcd(6, b), the
    primes of d and those of 2 and 3 that b lacks, with k <= Q (the others
    read R(0) = 0), ascending in m'; coefficient mu(m') G(k); node the
    primes of bd above 3, ascending, the trie node that holds R_{6b rad d}.
    Each coefficient is ``mobius(m') * G.eval(k)`` cast once to float (or
    complex), so an exact rule's is rounded once: for a Fraction value v it
    is the int true division (mu(m') v.numerator) / v.denominator, which
    rounds correctly, as ``float`` of the Fraction does, without building
    one."""
    node = tuple(p for p in factorize(b * d).primes() if p > 3)
    ms = [m for m in divisors(radical(6 * d) // gcd(6, b)) if d * m <= Q]
    values = [(mobius(m), G.eval(d * m)) for m in ms]
    coefs = _gather((c * v.numerator / v.denominator if isinstance(v, Fraction) else c * v for c, v in values), len(ms))
    return [(d * m, c, node) for m, c in zip(ms, coefs.tolist())]


def finite_factor(G, a: int) -> Number:
    """Product over p | a of sum_{K=0}^{v_p(a)+1} G(p^K) c_{p^K}(a).

    The inner sums truncate where the prime-power Ramanujan sums vanish;
    a = 1 gives the empty product 1.
    """
    _check_integers(a=a)
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
    G: MultiplicativeFunction, report: Optional[SpectrumReport] = None, *, config: Optional[EngineConfig] = None
) -> Number:
    """a_G times the product of (1 - G(p^(v_{p,G}+1))) over transparent p.

    Defined only for normal or sporadic G (every valuation finite); the
    empty product for normal G gives exactly 1.  Without a ``report`` the
    spectrum is scanned under ``config``.
    """
    rep = report if report is not None else spectrum(G, config=config)
    if rep.classification == "exotic":
        raise ValueError(f"{G.label} is exotic; a_G is undefined")
    out: Number = rep.aG
    for p in rep.transparent_primes:
        v = int(rep.valuations[p])
        out = out * (1 - G.at_prime_power(p, v + 1))
    return out


def finite_factor_forms_equal(G, a: int) -> bool:
    """Check, prime by prime over p | a, that the truncated expansion factor
    equals its Abel-summed form sum_{K<=v} p^K (G(p^K) - G(p^(K+1))):
    exactly for exact G, within ``FORMS_TOL`` otherwise."""
    _check_integers(a=a)
    if a < 1:
        raise ValueError("a must be >= 1")
    exact = getattr(G, "exact", False)
    for p, v in factorize(a).factors:
        lhs = _local_factor(G, p, v, a)
        rhs: Number = 0
        for K in range(v + 1):
            rhs = rhs + p**K * (G.at_prime_power(p, K) - G.at_prime_power(p, K + 1))
        if not _close(lhs, rhs, exact, FORMS_TOL):
            return False
    return True


def factorized_expansion(G, a: int, x: int, *, exact: Optional[bool] = None) -> Number:
    """finite_factor(G, a) times the truncated cofactor
    sum_{r <= x, (r, a) = 1} G(r) mu(r)."""
    _check_integers(a=a, x=x)
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
    _check_integers(p1=p1)
    F = sorted(set(F))
    if not is_prime(p1):
        raise ValueError(f"p1 = {p1} is not prime")
    if p1 in F:
        raise ValueError("p1 must not belong to F")
    if any(not is_prime(p) for p in F):
        raise ValueError("F must consist of primes")
    if x < 1:
        raise ValueError("x must be >= 1")
    bF = math.prod(F)
    lhs = restricted_mobius_partial_sums(G, bF, x, checkpoints=[x], exact=exact).final
    # Both points from one series to x; checkpoint 1 stands in for x // p1 = 0.
    at = dict(restricted_mobius_partial_sums(G, bF * p1, x, checkpoints=sorted({max(x // p1, 1), x}), exact=exact).checkpoints)
    rhs = at[x] - G.eval(p1) * at.get(x // p1, 0)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Heuristic verdict on a checkpointed series, with its evidence.

    ``converges_to`` demands every checkpoint in the final window lie within
    ``tol`` of ``limit``; ``diverges_to_infinity`` demands both a large final
    magnitude and a positive growth exponent, fitted only when the spread
    exceeds ``tol`` (else ``None``).  Everything else is ``inconclusive``.
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
    window: int = EngineConfig.window,
    tol: float = EngineConfig.conv_tol,
    divergence_threshold: float = EngineConfig.divergence_threshold,
    growth_exponent_min: float = EngineConfig.growth_exponent_min,
) -> ConvergenceVerdict:
    """Classify a series as converging (to ``target`` or its windowed mean),
    diverging to infinity, or inconclusive.

    The keyword defaults are the ``EngineConfig`` field defaults; window and
    tol stay explicit because callers pin values that are not the config's."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}: one point has no spread")
    if len(series.checkpoints) < window:
        raise ValueError(f"need at least {window} checkpoints, have {len(series.checkpoints)}")
    tail = [complex(v) for _, v in series.checkpoints[-window:]]
    L = complex(target) if target is not None else sum(tail) / len(tail)
    spread = max(abs(v - L) for v in tail)
    if spread <= tol:
        return ConvergenceVerdict("converges_to", L, window, tol, spread, None)
    exponent = _growth_exponent(series)
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
    config: Optional[EngineConfig] = None,
) -> AbsoluteConvergenceReport:
    """Absolute-convergence diagnostics of G at a; the spectrum is scanned
    under ``config`` (``None`` means ``EngineConfig()``), and the prime sum,
    which reads G at the primes <= ``prime_bound`` only, diverges when its
    last decade adds more than ``config.slow_growth_tol``."""
    cfg = config if config is not None else EngineConfig()
    _check_integers(prime_bound=prime_bound, a=a, Q=Q)
    if prime_bound < 2 or a < 1 or Q < 1:
        raise ValueError("bounds must be >= 1 (prime_bound >= 2)")
    rep = spectrum(G, config=cfg)  # rejects a non-multiplicative G before any table

    primes = sieve_primes(prime_bound)
    # Term k is |G(p_k)|, so the sum to x is the sum to pi(x).  The terms are
    # float64 or complex128, a float32 form promoted before the clamp.
    terms = np.concatenate(([0.0], _prime_values(G, primes)))
    if G.squarefree_cap is not None:
        _clamp(terms[1:], primes, G.squarefree_cap)
    terms = np.abs(terms)
    cps = checkpoint_schedule(prime_bound)
    sums = _neumaier_segments(terms, np.searchsorted(primes, [*cps, prime_bound // 10], "right")).tolist()
    prime_series = PartialSumSeries(f"sum over p <= x of |G(p)|, G = {G.label}", tuple(zip(cps, sums)), "floating")
    increase = sums[-2] - sums[-1]
    prime_verdict = "diverging" if increase > cfg.slow_growth_tol else "bounded"

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

    ``hypothesis_checks`` holds (text, status) pairs, status "pass", "fail"
    or "inconclusive".  For a multiplicative G with no invisible prime, the
    last one, the main check, tests the characterizing sum.  ``conclusion``
    is "inconclusive" unless every check before the main one passed; then
    the main series decides it: 0 gives "in_zero_cloud", a nonzero limit
    "not_in_zero_cloud", and a divergent or unsettled series
    "inconclusive".  With an invisible prime the series vanish by the
    theorem, so passing every check gives "in_zero_cloud".
    Failed convergence hypotheses leave the test inconclusive rather than
    negative, since the decision procedure is silent without them.
    """

    label: str
    classification: str  # "normal" | "sporadic" | "exotic" | "weakly_exotic"
    hypothesis_checks: tuple[tuple[str, str], ...]
    conclusion: str  # "in_zero_cloud" | "not_in_zero_cloud" | "inconclusive"


# The kind of the main series -> (status of the main check, conclusion when
# every earlier check passed).  An invisible-prime G has no main check: its
# series vanish by the theorem, so its kind is "zero".
_MAIN = {
    "zero": ("pass", "in_zero_cloud"),
    "nonzero": ("fail", "not_in_zero_cloud"),
    "diverged": ("fail", "inconclusive"),  # breaks the hypothesis too
    "unknown": ("inconclusive", "inconclusive"),
}


def zero_cloud_verdict(G, config: Optional[EngineConfig] = None) -> ZeroCloudVerdict:
    """Classify G, check the hypotheses of the matching case, and test the
    characterizing sum numerically.  Every check is recorded.

    The conclusion is "inconclusive" unless every check before the main one
    passed; then ``_MAIN`` maps the kind of the main series (zero, nonzero,
    diverged, unknown) to it.  A general G whose declared invisible prime
    or grid check fails sums no series.

    Every series runs on ``checkpoint_schedule(cfg.Q, cfg.window)``, once per
    distinct input: one per radical in the classical cases and one per
    p0-free part of a in the invisible-prime cases, all from one batched
    ``_peel_sums`` call.

    That call reads each table once, so when the verdict returns or raises,
    every table it stored on G (``_keep``), and the cap guard's answer, is
    dropped: a caller that holds several entries, as a battery of verdicts
    does, holds one Q-sized table at a time, not one per entry.  A table G
    already held at that Q is read and kept.  Expansions and
    ``absolute_convergence_report`` keep theirs, since their callers ask
    again at the same Q."""
    held = {key for key in G._memo if isinstance(key, tuple)}
    try:
        return _zero_cloud_verdict(G, config if config is not None else EngineConfig())
    finally:
        for key in [key for key in G._memo if isinstance(key, tuple) and key not in held]:
            G._memo.pop(key, None)


def _zero_cloud_verdict(G, cfg: EngineConfig) -> ZeroCloudVerdict:
    cps = checkpoint_schedule(cfg.Q, cfg.window)
    detect = partial(
        detect_convergence, window=cfg.window, tol=cfg.conv_tol,
        divergence_threshold=cfg.divergence_threshold, growth_exponent_min=cfg.growth_exponent_min,
    )

    if isinstance(G, GeneralArithmeticFunction):
        classification, p0 = "weakly_exotic", G.invisible_prime
        checks = [("an invisible prime p0 is declared", "fail" if p0 is None else "pass")]
        if p0 is not None:
            grid = f"G(p0^K r) = G(r) on the sampled grid (p0={p0}, r<={cfg.we_r_bound}, K<={cfg.we_k_bound})"
            checks.append((grid, "pass" if is_weakly_exotic(G, p0, config=cfg) else "fail"))
        if checks[-1][1] == "fail":
            return ZeroCloudVerdict(G.label, classification, tuple(checks), "inconclusive")
    else:
        rep = spectrum(G, config=cfg)
        classification, p0 = rep.classification, min(rep.invisible_primes, default=None)
        checks = [("spectra certified by the constructor", "pass" if rep.certified else "fail")]

    if p0 is not None:
        # a and a / p0^k give one series over q coprime to p0; the extra
        # 1, 3, 5, 7, 15 keep small cofactors in every sample set.
        samples = sorted({_coprime_part(a, p0) for a in (*cfg.sample_a, 1, 3, 5, 7, 15)})
        hypothesis = {(a, p0): _expansion_description(G, a, p0) for a in samples}
        pairs = list(hypothesis)
        text = f"sum over (q, {p0}) = 1 of G(q) c_q(a) converges for sampled a ({len(samples)} distinct p0-free parts)"
    else:
        # Normal / sporadic: the Mobius series restricted to (r, a) = 1 must
        # converge for sampled a, and the characterizing sum must vanish.
        radicals = sorted({radical(x) for x in cfg.sample_a})
        b0 = 1 if classification == "normal" else rep.PG
        hypothesis = {(1, b): _restricted_description(G, b) for b in radicals}
        pairs = [(1, b) for b in sorted({*radicals, b0})]
        more = "..." if len(radicals) > 8 else ""
        text = f"sum over (r, a) = 1 of G(r) mu(r) converges for sampled a (radicals {radicals[:8]}{more})"
    sums = _peel_sums(G, pairs, cfg.Q, cps)

    # Fails on any divergence, passes only if every series converges.
    outcomes = {detect(_floating(desc, cps, sums[pair])).outcome for pair, desc in hypothesis.items()}
    status = "fail" if "diverges_to_infinity" in outcomes else "pass" if outcomes <= {"converges_to"} else "inconclusive"
    checks.append((text, status))
    passed = all(status == "pass" for _, status in checks)

    kind = "zero"
    if p0 is None:
        main = _floating(_restricted_description(G, b0), cps, sums[(1, b0)])
        if detect(main, target=0).outcome != "converges_to":
            free = detect(main)
            if free.outcome == "converges_to" and abs(free.limit) > cfg.conv_tol:
                kind = "nonzero"
            else:
                kind = "diverged" if free.outcome == "diverges_to_infinity" else "unknown"
        what = "sum of G(q) mu(q)" if b0 == 1 else f"sum over (q, {b0}) = 1 of G(q) mu(q)"
        checks.append((f"{what} equals 0 (within {cfg.conv_tol} at Q = {cfg.Q})", _MAIN[kind][0]))
    return ZeroCloudVerdict(G.label, classification, tuple(checks), _MAIN[kind][1] if passed else "inconclusive")
