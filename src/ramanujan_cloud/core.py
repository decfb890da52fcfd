"""Elementary number-theoretic kernels: sieve, factorization, mu, phi.

The primes and mu each live in one module-level slot, the largest table
built so far; ``sieve_primes`` and ``mobius_table`` hand out read-only
prefixes and rebuild only for a larger limit.  n is squarefree exactly where
mu(n) != 0.  Scalar functions, the oracles the tables are checked against,
work by trial division against the prime slot and are memoized, which is
plenty for moduli up to ~10^9.  Nothing handed out is writable, so everything
here is safe to call from concurrent workers.

Tables of multiplicative functions (mu here, G(q) in the expansion engine)
come from one two-phase sieve, ``multiplicative_sieve``: one strided multiply
per prime p <= isqrt(Q) and block of 2^18 entries, then one gather per
cofactor m < sqrt(Q) for all the primes above isqrt(Q) at once.  That is
O(pi(sqrt Q) * ceil(Q / 2^18) + sqrt Q) numpy calls instead of one per prime
up to Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# Hard ceiling on table length; a float64 value table at this size is ~1.6 GB.
SIEVE_BUDGET = 200_000_000


class ResourceLimitError(MemoryError):
    """A requested sieve or table would exceed ``SIEVE_BUDGET``."""


def _check_limit(limit: int) -> None:
    """Raise unless 0 <= limit <= ``SIEVE_BUDGET``; called before any cache read."""
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > SIEVE_BUDGET:
        raise ResourceLimitError(f"table limit {limit} exceeds budget {SIEVE_BUDGET}")


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending int64, freshly sieved."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    # Odd numbers only: index i stands for 2i + 1, except index 0, which
    # stands for 2 (1 is not prime).  A stride of p over the indices is a
    # stride of 2p over the odd multiples of p.
    is_p = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if is_p[p // 2]:
            is_p[p * p // 2 :: p] = False
    primes = np.flatnonzero(is_p).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


# (limit built, read-only array); a larger request rebuilds at its limit.
# The prime slot starts at 2^16, so trial division of n < 2^32 never rebuilds
# it.  A race between two rebuilds only repeats work.
_prime_slot = _mu_slot = (-1, None)


def _primes_upto(limit: int) -> np.ndarray:
    global _prime_slot
    built, primes = _prime_slot
    if limit > built:
        _check_limit(limit)  # factorize reads the slot without sieve_primes' check
        built = max(limit, 1 << 16)
        primes = _sieve(built)
        primes.setflags(write=False)
        _prime_slot = (built, primes)
    return primes[: int(np.searchsorted(primes, limit, "right"))]


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array."""
    _check_limit(limit)
    return _primes_upto(limit)


def checked_values(values, count: int, what: str) -> np.ndarray:
    """``values`` unchanged if it is a numeric ndarray of shape ``(count,)``.

    Anything else (a scalar that would broadcast, a wrong length, an object
    array) raises ``ValueError`` naming ``what``.
    """
    if not (isinstance(values, np.ndarray) and values.shape == (count,) and np.issubdtype(values.dtype, np.number)):
        shape = getattr(values, "shape", None)
        dtype = getattr(values, "dtype", type(values).__name__)
        raise ValueError(f"{what} must be a numeric array of shape ({count},), got shape {shape} dtype {dtype}")
    return values


# Entries per block of phase 1 of ``multiplicative_sieve`` (2 MB of float64).
_BLOCK = 1 << 18


def _sweep_block(table: np.ndarray, run: list, lo: int, hi: int) -> None:
    """Multiply ``table[lo:hi]`` by g(p^v_p(n)) for each (p, g) of ``run``
    in order, g = (g(p), g(p^2), ...), as phase 1 of
    ``multiplicative_sieve`` does."""
    for p, g in run:
        first = max(p, -(-lo // p) * p)  # the first multiple of p in [lo, hi)
        if table.dtype.kind != "c" and not any(g[1:].tobytes()):  # every higher power is +0
            first_sq = max(p * p, -(-lo // (p * p)) * p * p)
            squares = table[first_sq:hi : p * p] * g[1]
            table[first:hi:p] *= g[0]
            table[first_sq:hi : p * p] = squares
            continue
        col = np.full(len(range(first, hi, p)), g[0], dtype=g.dtype)
        step = 1
        for value in g[1:]:
            step *= p
            col[-(first // p) % step :: step] = value  # n = first + p * index divisible by p * step
        table[first:hi:p] *= col


def multiplicative_sieve(
    limit: int,
    powers: Callable[[int, int], np.ndarray],
    at_primes: Callable[[np.ndarray], np.ndarray],
    dtype,
) -> np.ndarray:
    """g(n) for n = 0..limit (g(0) = 0) of a multiplicative g, writable.

    ``powers(p, E)`` returns g(p), g(p^2), ..., g(p^E) for a prime
    p <= isqrt(limit), where p^E <= limit < p^(E+1); ``at_primes(P)`` returns
    g(p) for each prime p in the ascending array P of all primes in
    (isqrt(limit), limit], as a numeric array of shape ``(len(P),)``
    (anything else raises ``ValueError``).  The table starts as ``dtype`` and
    is promoted when a value array holds what it cannot (complex values in a
    float table).

    Phase 1, primes p <= isqrt(limit) in ascending order: a column over the
    multiples of p holds g(p^v_p(n)) and multiplies into ``table[p::p]``.
    When every higher power is +0 (mu, or any g supported on squarefree n)
    a real table takes one scalar multiply instead, and its multiples of p^2
    get what the column would have made of them.  A real table is swept one
    block of ``_BLOCK`` entries at a time, every small prime over a block
    before the next, so the block stays in cache; a promotion splits the
    primes into runs, each swept in the dtype the table has by then.
    Phase 2: each n <= limit has at most one prime factor p > isqrt(limit),
    with exponent 1 and cofactor m = n / p < sqrt(limit), so for each m one
    gather multiplies ``table[m * P] *= g(P)`` over the primes P <= limit / m.
    Every entry is multiplied in the order of a prime-by-prime sweep (its
    small primes ascending, then its large prime), so real tables are
    bit-identical to one.  After phase 1 ``table[m * P]`` equals
    ``table[m]``, so a cofactor whose entry is 0 leaves them at that 0, up
    to its sign; phase 2 skips it wherever no byte can change: integer
    tables, or finite prime values with the sign bit clear.
    ``sieve_primes(limit)`` runs before the table is allocated, so an
    over-budget limit raises ``ResourceLimitError`` first.
    """
    primes = sieve_primes(limit)
    table = np.ones(limit + 1, dtype=dtype)
    table[0] = 0
    split = int(np.searchsorted(primes, math.isqrt(limit), "right"))
    dtypes, runs = [table.dtype], [[]]  # a new run where the table is promoted
    for p in primes[:split].tolist():
        E, pe = 1, p
        while pe * p <= limit:
            E, pe = E + 1, pe * p
        g = powers(p, E)
        if not np.can_cast(g.dtype, dtypes[-1]):
            dtypes.append(np.result_type(dtypes[-1], g))
            runs.append([])
        runs[-1].append((p, g))
    for dt, run in zip(dtypes, runs):
        table = table.astype(dt, copy=False)
        # numpy may round a complex product by its position in a SIMD loop,
        # so a complex table is swept whole, as one block.
        block = limit + 1 if table.dtype.kind == "c" else _BLOCK
        for lo in range(0, limit + 1, block):
            _sweep_block(table, run, lo, min(lo + block, limit + 1))
    large = primes[split:]
    if len(large):
        g = checked_values(at_primes(large), len(large), "at_primes(P)")
        if not np.can_cast(g.dtype, table.dtype):
            table = table.astype(np.result_type(table, g))
        skip_zeros = table.dtype.kind in "iu" or (
            table.dtype.kind == "f" and bool(np.isfinite(g).all()) and not np.signbit(g).any()
        )
        cofactors = np.arange(1, limit // int(large[0]) + 1)
        counts = np.searchsorted(large, limit // cofactors, "right")
        for m, k in enumerate(counts.tolist(), start=1):
            if skip_zeros and table[m] == 0:
                continue
            table[m * large[:k]] *= g[:k]
    return table


def _mobius_powers(p: int, E: int) -> np.ndarray:
    return np.array([-1] + [0] * (E - 1), dtype=np.int8)


def mobius_table(limit: int) -> np.ndarray:
    """mu(n) for n = 0..limit (mu[0] = 0), read-only int8 array.

    A prefix of the mu slot, which a larger limit rebuilds by
    ``multiplicative_sieve``: -1 at p and 0 at p^2 for each prime
    p <= isqrt(limit), then -1 for every prime above it.
    """
    global _mu_slot
    _check_limit(limit)
    built, mu = _mu_slot
    if limit > built:
        mu = multiplicative_sieve(limit, _mobius_powers, lambda P: np.full(len(P), -1, dtype=np.int8), np.int8)
        mu.setflags(write=False)
        _mu_slot = (limit, mu)
    return mu[: limit + 1]


@dataclass(frozen=True)
class Factorization:
    """A natural number as its prime-power decomposition.

    ``factors`` is a tuple of (prime, exponent) pairs with primes strictly
    increasing and exponents >= 1; the product of p**e recovers ``value``.
    1 carries the empty tuple.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __iter__(self):
        return iter(self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        """All divisors of ``value``, ascending."""
        divs = [1]
        for p, e in self.factors:
            divs = [d * p**k for d in divs for k in range(e + 1)]
        return sorted(divs)


@lru_cache(maxsize=1 << 16)
def factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division (meant for n up to ~10^9)."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    m = n
    out = []
    for p in _primes_upto(math.isqrt(n)).tolist():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return Factorization(n, tuple(out))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n).factors == ((n, 1),)


@lru_cache(maxsize=1 << 16)
def mobius(n: int) -> int:
    """mu(n): 0 unless n is squarefree, else (-1)^(number of prime factors)."""
    f = factorize(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


@lru_cache(maxsize=1 << 16)
def euler_phi(n: int) -> int:
    """phi(n), computed multiplicatively from the factorization."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def radical(a: int) -> int:
    """Product of the distinct primes dividing a; radical(1) = 1."""
    out = 1
    for p, _ in factorize(a).factors:
        out *= p
    return out


def valuation(p: int, a: int) -> int:
    """Largest K with p**K | a, for prime p and a >= 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 1:
        raise ValueError("a must be >= 1")
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def divisors(n: int) -> list[int]:
    return factorize(n).divisors()
