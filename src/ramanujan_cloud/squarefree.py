"""Squarefree numbers in arithmetic progressions and the counterexample
series built on their equidistribution.

Squarefree q <= x in a reduced class r mod m have density c(m) (Hooley's
theorem); in particular odd squarefree numbers outnumber even ones two to
one.  ``balanced_series_demo`` sums the ``lemma7_h`` catalog entry h that
exploits exactly this: q^(-s) on odd squarefree q and -2 q^(-s) on even
squarefree q, so the full series converges while its odd-only restriction
grows like x^(1-s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .config import EngineConfig, _check_integers
from .core import factorize, mobius_table
from .expansion import ConvergenceVerdict, PartialSumSeries, _neumaier_segments, _validate_checkpoints, _value_table, detect_convergence
from .multiplicative import catalog

Scalar = Union[float, complex]

# Largest |sum over (y, 2y]| of the full balanced series that counts as a
# shrinking Cauchy window; also the spread tolerance of the odd verdict.
WINDOW_THRESHOLD = 0.05


def count_squarefree_in_ap(x: int, m: int, r: int) -> int:
    """Exact count of squarefree q <= x with q = r (mod m); needs (r, m) = 1."""
    _check_integers(x=x, m=m, r=r)
    if x < 1 or m < 1:
        raise ValueError("x and m must be >= 1")
    if gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not coprime to m = {m}")
    # The class is a stride of mu from its least q >= 1 (squarefree: mu != 0).
    return int(np.count_nonzero(mobius_table(x)[1 + (r - 1) % m :: m]))


def hooley_constant(m: int) -> float:
    """Density (6/pi^2) / (m * prod_{p | m} (1 - p^-2)) of squarefree numbers
    in a reduced residue class mod m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    out = 6.0 / math.pi**2 / m
    for p, _ in factorize(m).factors:
        out /= 1.0 - 1.0 / p**2
    return out


def _power_neg_s(q: np.ndarray, s: Scalar) -> np.ndarray:
    """q^(-s) for a positive integer array, complex-safe."""
    if isinstance(s, complex):
        return np.exp(-s * np.log(q.astype(np.float64)))
    return q.astype(np.float64) ** (-float(s))


def weighted_squarefree_sum(
    s: Scalar, m: int, r: int, y: int, x: int
) -> tuple[Scalar, Scalar]:
    """(computed, predicted) for the weighted count of squarefree q in (y, x]
    with q = r (mod m): sum of q^(-s) versus c(m) (x^(1-s) - y^(1-s)) / (1-s).
    Both are Python ``complex`` for a complex s, else ``float``, on every
    path, an empty class and y == x included.

    The error of the prediction scales like y^(1/2 - Re s) with an
    unspecified constant, so callers compare the two on that scale.
    """
    if s == 1:
        raise ValueError("s = 1 is excluded (the main term degenerates)")
    sigma = s.real if isinstance(s, complex) else float(s)
    if sigma <= 0.5:
        raise ValueError("need Re s > 1/2")
    _check_integers(m=m, r=r, y=y, x=x)
    if m < 1:
        raise ValueError("m must be >= 1")
    if gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not coprime to m = {m}")
    if not 0 <= y <= x:
        raise ValueError("need 0 <= y <= x")
    cast = complex if isinstance(s, complex) else float
    if y == x:
        return cast(0), cast(0)
    # As in count_squarefree_in_ap, from the least q > y in the class.
    first = y + 1 + (r - y - 1) % m
    qs = first + m * np.flatnonzero(mobius_table(x)[first::m])
    computed = _power_neg_s(qs, s).sum() if qs.size else 0.0
    one_minus = 1 - s
    x_part = x**one_minus if isinstance(s, complex) else float(x) ** float(one_minus)
    y_part = 0.0 if y == 0 else (y**one_minus if isinstance(s, complex) else float(y) ** float(one_minus))
    predicted = hooley_constant(m) / one_minus * (x_part - y_part)
    return cast(computed), cast(predicted)


@dataclass(frozen=True)
class BalancedSeriesDemo:
    """Partial sums of h over all q and over odd q only, with verdicts.

    ``window_sums`` holds |sum over (y, 2y]| of the full series: these shrink
    like y^(1/2 - Re s), certifying Cauchy-style convergence, while the
    odd-only partial sums diverge with growth exponent about 1 - Re s.
    """

    s: Scalar
    full: PartialSumSeries
    odd: PartialSumSeries
    window_sums: tuple[tuple[int, float], ...]
    full_windows_shrink: bool
    window_threshold: float
    odd_verdict: ConvergenceVerdict


def balanced_series_demo(
    s: Scalar,
    x_max: int,
    checkpoints: Optional[Sequence[int]] = None,
    *,
    window_ys: Optional[Sequence[int]] = None,
) -> BalancedSeriesDemo:
    """Sum the ``lemma7_h`` entry's value table to x_max and report both
    behaviors; windows shrink when each is within ``WINDOW_THRESHOLD``."""
    h = catalog("lemma7_h", s=s)
    cps = _validate_checkpoints(checkpoints, x_max)
    if len(cps) < 2:
        raise ValueError("need at least 2 checkpoints: the odd-series verdict measures a spread")
    if window_ys is None:
        ys, y = [], max(1, x_max // 10)
        while 2 * y <= x_max:
            ys.append(y)
            y = 2 * y
        window_ys = ys or [max(1, x_max // 2)]
    if any(not 1 <= y <= x_max for y in window_ys):
        raise ValueError(f"window_ys must lie within [1, {x_max}]")
    # One pass per series; the full one also reads both ends of each window.
    k, j = len(cps), len(cps) + len(window_ys)
    vals = _value_table(h, x_max)
    cum = _neumaier_segments(vals, [*cps, *window_ys, *(min(2 * y, x_max) for y in window_ys)]).tolist()
    full = PartialSumSeries(f"sum over q <= x of h(q), s = {s}", tuple(zip(cps, cum[:k])), "floating")
    vals = vals.copy()  # the table is read-only and memoized on h
    vals[2::2] = 0  # the odd restriction
    odd = PartialSumSeries(f"sum over odd q <= x of h(q), s = {s}", tuple(zip(cps, _neumaier_segments(vals, cps).tolist())), "floating")
    window_sums = tuple((int(y), float(abs(hi - lo))) for y, lo, hi in zip(window_ys, cum[k:j], cum[j:]))
    shrink = all(w <= WINDOW_THRESHOLD for _, w in window_sums)
    odd_verdict = detect_convergence(odd, window=min(EngineConfig.window, len(cps)), tol=WINDOW_THRESHOLD)
    return BalancedSeriesDemo(
        s=s,
        full=full,
        odd=odd,
        window_sums=window_sums,
        full_windows_shrink=shrink,
        window_threshold=WINDOW_THRESHOLD,
        odd_verdict=odd_verdict,
    )
