"""Ramanujan sums c_q(a) by three independent routes, all exact integers.

``c_holder`` (von Sterneck / Hoelder closed form) is the production scalar
formula: O(log) work after factorization, exact integer arithmetic.
``c_direct`` (root-of-unity sum, floating) and ``c_kluyver`` (divisor sum
over gcd(q, a)) remain the independent scalar checkers.  No summation loop
reads a table of c_q(a): the floating series apply Kluyver's divisor sum
(signed) or Hardy's multiplicativity in q (absolute) to G instead.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np

from .config import _check_integers
from .core import divisors, euler_phi, mobius, valuation

# c_direct must land within this distance of an integer (and on the real axis).
DIRECT_TOL = 1e-6


class FormulaInconsistencyError(ArithmeticError):
    """Two routes to the same quantity disagree (internal self-check)."""


def _check_args(q: int, a: int) -> None:
    if type(q) is not int or type(a) is not int:  # the cheap test first: the exact oracle checks every term
        _check_integers(q=q, a=a)
    if q < 1:
        raise ValueError("q must be >= 1")
    if a < 1:
        raise ValueError("a must be >= 1")


@lru_cache(maxsize=4096)
def _coprime_residues(q: int) -> np.ndarray:
    return np.array([h for h in range(1, q + 1) if gcd(h, q) == 1], dtype=np.int64)


def c_direct(q: int, a: int) -> int:
    """Sum of e^(2 pi i a h / q) over h <= q coprime to q, rounded to int.

    Raises FormulaInconsistencyError if the sum strays more than DIRECT_TOL
    from the integer lattice (it never should).  c_direct(1, a) = 1 via the
    single h = q = 1 term.
    """
    _check_args(q, a)
    h = _coprime_residues(q)
    z = np.exp((2j * np.pi * a / q) * h).sum()
    nearest = round(float(z.real))
    if abs(z.imag) > DIRECT_TOL or abs(z.real - nearest) > DIRECT_TOL:
        raise FormulaInconsistencyError(
            f"root-of-unity sum c_{q}({a}) = {z} is not close to an integer"
        )
    return nearest


def c_kluyver(q: int, a: int) -> int:
    """Divisor-sum form: sum of mu(q/d) * d over d | gcd(q, a)."""
    _check_args(q, a)
    return sum(mobius(q // d) * d for d in divisors(gcd(q, a)))


def c_holder(q: int, a: int) -> int:
    """Closed form mu(q/g) * phi(q) / phi(q/g) with g = gcd(q, a).

    The division is always exact; a non-exact division trips the internal
    self-check.
    """
    _check_args(q, a)
    g = gcd(q, a)
    m = q // g
    mu_m = mobius(m)
    if mu_m == 0:
        return 0
    quot, rem = divmod(euler_phi(q), euler_phi(m))
    if rem:
        raise FormulaInconsistencyError(
            f"phi({q})/phi({m}) is not an integer; c_holder({q}, {a}) is broken"
        )
    return mu_m * quot


def c_prime_power(p: int, K: int, a: int) -> int:
    """c at q = p**K in closed form.

    Equals phi(p^K) for K <= v_p(a), -p^v_p(a) at K = v_p(a) + 1, and 0
    beyond; agrees with c_holder(p**K, a) everywhere.
    """
    _check_integers(p=p, K=K, a=a)
    if K < 0:
        raise ValueError("K must be >= 0")
    v = valuation(p, a)  # validates p prime and a >= 1
    if K <= v:
        return euler_phi(p**K)
    if K == v + 1:
        return -(p**v)
    return 0


def prime_power_column_sum(p: int, a: int) -> int:
    """Sum of c at q = p**K for K = 0..v_p(a)+1; identically zero."""
    v = valuation(p, a)
    return sum(c_prime_power(p, K, a) for K in range(v + 2))

