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

from .core import factorize, squarefree_table
from .expansion import _DEFAULTS, ConvergenceVerdict, PartialSumSeries, _neumaier_segments, _validate_checkpoints, _value_table, detect_convergence
from .multiplicative import catalog

Scalar = Union[float, complex]


def count_squarefree_in_ap(x: int, m: int, r: int) -> int:
    """Exact count of squarefree q <= x with q = r (mod m); needs (r, m) = 1."""
    if x < 1 or m < 1:
        raise ValueError("x and m must be >= 1")
    if gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not coprime to m = {m}")
    sf = squarefree_table(x)
    start = r % m
    if start == 0:
        start = m  # only possible when m = 1
    if start > x:
        return 0
    return int(np.count_nonzero(sf[start : x + 1 : m]))


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

    The error of the prediction scales like y^(1/2 - Re s) with an
    unspecified constant, so callers compare the two on that scale.
    """
    if s == 1:
        raise ValueError("s = 1 is excluded (the main term degenerates)")
    sigma = s.real if isinstance(s, complex) else float(s)
    if sigma <= 0.5:
        raise ValueError("need Re s > 1/2")
    if m < 1:
        raise ValueError("m must be >= 1")
    if gcd(r, m) != 1:
        raise ValueError(f"r = {r} is not coprime to m = {m}")
    if not 0 <= y <= x:
        raise ValueError("need 0 <= y <= x")
    if y == x:
        return (0.0, 0.0)
    sf = squarefree_table(x)
    q = np.arange(y + 1, x + 1, dtype=np.int64)
    keep = sf[y + 1 : x + 1] & (q % m == r % m)
    qs = q[keep]
    computed = _power_neg_s(qs, s).sum() if qs.size else 0.0
    one_minus = 1 - s
    x_part = x**one_minus if isinstance(s, complex) else float(x) ** float(one_minus)
    y_part = 0.0 if y == 0 else (y**one_minus if isinstance(s, complex) else float(y) ** float(one_minus))
    predicted = hooley_constant(m) / one_minus * (x_part - y_part)
    if not isinstance(s, complex):
        computed = float(computed)
        predicted = float(predicted)
    return computed, predicted


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
    window_threshold: float = 0.05,
) -> BalancedSeriesDemo:
    """Sum the ``lemma7_h`` entry's value table to x_max and report both behaviors."""
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
    # One compensated pass per series gives the checkpoints and the window ends.
    points = sorted(set(cps).union(*((y, min(2 * y, x_max)) for y in window_ys)))
    vals = _value_table(h, x_max)
    cum = dict(zip(points, _neumaier_segments(vals, points)))
    full = PartialSumSeries(f"sum over q <= x of h(q), s = {s}", tuple((x, cum[x]) for x in cps), "floating")
    vals = vals.copy()  # the table is read-only and memoized on h
    vals[2::2] = 0  # the odd restriction
    odd = PartialSumSeries(f"sum over odd q <= x of h(q), s = {s}", tuple(zip(cps, _neumaier_segments(vals, cps))), "floating")
    window_sums = tuple((int(y), float(abs(cum[min(2 * y, x_max)] - cum[y]))) for y in window_ys)
    shrink = all(w <= window_threshold for _, w in window_sums)
    odd_verdict = detect_convergence(odd, window=min(_DEFAULTS.window, len(cps)), tol=window_threshold)
    return BalancedSeriesDemo(
        s=s,
        full=full,
        odd=odd,
        window_sums=window_sums,
        full_windows_shrink=shrink,
        window_threshold=window_threshold,
        odd_verdict=odd_verdict,
    )
