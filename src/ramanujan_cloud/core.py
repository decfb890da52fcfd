"""Elementary number-theoretic kernels: sieve, factorization, mu, phi.

Nothing here grows: the primes up to 2^16 are one read-only array, sieved
at import, and every larger prime table and every mu table is built fresh
for its caller and not kept (the expansion engine keeps mu on G, beside
the value table it is read with).  Tables sieve only to isqrt(Q), inside
those primes.  n is squarefree exactly where mu(n) != 0.  Scalar
functions, the oracles the tables are checked against, work by trial
division and are memoized, which is plenty for moduli up to ~10^12.
Nothing handed out is writable, so everything here is safe to call from
concurrent workers.

Tables of multiplicative functions (mu here, G(q) and G(q) mu(q) in the
expansion engine) come from one sieve, ``multiplicative_sieve``, which
reads the primes p <= isqrt(Q) and finishes the table one block of 2^18
entries at a time, each block in one cache-resident pass: the block starts
as a tiled period of the primes <= 7 when their higher powers vanish (mu,
every G mu), takes one strided multiply per remaining prime p <= isqrt(Q),
which also marks the multiples of p, and then, a quarter block at a time,
reads G at the unmarked n > isqrt(Q), the quarter's primes P (the segmented
sieve of Eratosthenes, Bays and Hudson, BIT 17, 1977), and makes one
scatter over every product m * P in it of a cofactor m and a prime P read
so far.  That is O(pi(sqrt Q) * ceil(Q / 2^18)) numpy calls instead of one
per prime up to Q, and no array pi(Q) long: only the P with a second
multiple m * P <= Q are kept.  Complex entries are multiplied on their
float planes, so a table's bytes do not depend on where a slice starts, for
every dtype.

A table has one of two layouts: index i holds n = i (mu, value tables), or,
in the wheel layout, n = 3i - 1 - (i mod 2), the i-th n coprime to 6, with
entry 0 still 0 (G mu, whose values at the multiples of 2 and 3 follow from
G(2), G(3) and the rest).  n sits at n // 3 + 1, so a table at Q takes
Q / 3 entries.  The wheel layout never sweeps 2 or 3: the multiples kp of
a prime p >= 5 with k = 1, 5 (mod 6) are two progressions of index stride
2p, its cofactors m are coprime to 6, and its period of 5 and 7 has 2,450
entries (n moves by 6 every two entries).  The bytes at each n coprime to 6
are those of the full layout.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from typing import Callable, Iterable

import numpy as np

from .config import _check_integers

# Hard ceiling on table length; a float64 value table at this size is ~1.6 GB.
SIEVE_BUDGET = 200_000_000


class ResourceLimitError(MemoryError):
    """A requested sieve or table would exceed ``SIEVE_BUDGET``."""


def _check_limit(limit: int) -> None:
    """Raise unless limit is an integer with 0 <= limit <= ``SIEVE_BUDGET``."""
    _check_integers(limit=limit)
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if limit > SIEVE_BUDGET:
        raise ResourceLimitError(f"table limit {limit} exceeds budget {SIEVE_BUDGET}")


def _sieve(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a fresh read-only int64 array
    (limit >= 2)."""
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
    primes.setflags(write=False)
    return primes


# The primes <= 2^16: every table sieves to isqrt(Q) <= 14,142 inside them,
# and ``factorize`` divides by them first.
_SMALL = 1 << 16
_SMALL_PRIMES = _sieve(_SMALL)


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array: a prefix
    of the primes <= 2^16, or, above that, sieved fresh and not kept."""
    _check_limit(limit)
    if limit > _SMALL:
        return _sieve(limit)
    return _SMALL_PRIMES[: int(np.searchsorted(_SMALL_PRIMES, limit, "right"))]


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


# Values per ``np.array`` call of ``_gather``.
_GATHER = 1 << 12


def _gather(values: Iterable, count: int) -> np.ndarray:
    """``values``, read once, as a float64 array, or as complex128 if one is
    complex: the value rule for Python and numpy numbers, as
    ``checked_values`` is for arrays.

    Each ``_GATHER`` values are read by one ``np.array``, whose dtype says
    what they are: bool, integer and real ones become float64, complex ones
    (numpy's complex scalars too) complex128, each as ``float`` or
    ``complex`` would convert it.  Only a chunk of any other dtype (objects:
    a Fraction, an int above 2^64, a non-number; or strings) goes value by
    value, through ``_per_value``.
    """
    out = np.empty(count, np.float64)
    it = iter(values)
    for lo in range(0, count, _GATHER):
        part = list(islice(it, _GATHER))
        chunk = np.array(part)  # values of unequal lengths raise ValueError here
        if chunk.dtype.kind not in "biufc" or chunk.ndim != 1:
            chunk = _per_value(part)
        if chunk.dtype.kind == "c":
            out = out.astype(np.complex128, copy=False)
        out[lo : lo + _GATHER] = chunk
    return out


def _per_value(part: list) -> np.ndarray:
    """``part`` through ``float``, or through ``complex`` when that fails or
    a value is a numpy complex scalar, which ``float`` would truncate.  A
    string, which both would parse, or a non-number raises ``ValueError``:
    the explicit casts catch what ``np.fromiter`` alone would store (None
    as NaN)."""
    types = set(map(type, part))
    if not any(issubclass(t, (str, bytes)) for t in types):
        complex_only = any(issubclass(t, np.complexfloating) for t in types)
        for cast, dtype in ((float, np.float64), (complex, np.complex128))[complex_only:]:
            with suppress(TypeError):
                return np.fromiter(map(cast, part), dtype, count=len(part))
    raise ValueError(f"values must be real or complex numbers, got {', '.join(sorted({t.__name__ for t in types}))}")


# Entries per block of ``multiplicative_sieve`` (2 MB of float64).
_BLOCK = 1 << 18


def _mul(target: np.ndarray, values) -> None:
    """``target *= values`` in place; a complex a + bi becomes (ac - bd, ad + bc)
    on its float planes, or (ac, bc) for real c, one elementwise IEEE step at
    a time, so it rounds the same wherever it sits (numpy's SIMD need not)."""
    if target.dtype.kind != "c":
        target *= values
        return
    re, im = target.real, target.imag
    if np.iscomplexobj(values):
        c, d = values.real, values.imag
        a = re.copy()
        re *= c
        re -= im * d
        im *= c
        im += a * d
    else:
        re *= values
        im *= values


def _entry(n, wheel: bool):
    """The entry that holds n (coprime to 6 in the wheel layout)."""
    return n // 3 + 1 if wheel else n


def _held(i, wheel: bool):
    """The n that entry i holds (-1 at the wheel layout's entry 0); ints or
    int arrays."""
    return 3 * i - 1 - (i & 1) if wheel else i


def _wheel_count(z):
    """The number of n <= z coprime to 6, those with n = 1 or 5 (mod 6): the
    wheel layout holds them at entries 1..``_wheel_count(z)``."""
    return (z + 5) // 6 + (z + 1) // 6


def _firsts(q: int, stride: int, lo: int, size: int, wheel: bool) -> list:
    """The offset from ``lo`` of the first entry in [lo, lo + size) of each
    progression of multiples kq of stride ``stride`` the layout holds: one
    from k = 1, and one from k = 5 in the wheel layout (k = 1, 5 mod 6)."""
    out = []
    for k in (1, 5) if wheel else (1,):
        first = _entry(k * q, wheel) - lo
        first = max(first, first % stride)
        if first < size:
            out.append(first)
    return out


def _sweep_block(block: np.ndarray, small: list, lo: int, wheel: bool, marks: np.ndarray) -> None:
    """Multiply ``block``, the entries i = lo, lo + 1, ... of a table in the
    full layout (the wheel layout with ``wheel``), by g(p^v_p(n)) for each
    (p, g, squarefree) of ``small`` in order, g = (g(p), g(p^2), ...),
    ``squarefree`` true when every higher power is +0, and set ``marks``, a
    bool array as long as ``block``, at every entry whose n one of those p
    divides, as phase 1 of ``multiplicative_sieve`` does."""
    w = 6 if wheel else 1  # n moves by w p along a progression of p's multiples
    for p, g, squarefree in small:
        # Stride p, or 2p for each of the wheel's two classes; p^2 likewise.
        stride = p * (2 if wheel else 1)
        firsts = _firsts(p, stride, lo, len(block), wheel)
        for f in firsts:
            marks[f::stride] = True
        if squarefree:
            sq = _firsts(p * p, stride * p, lo, len(block), wheel)
            squares = [block[f :: stride * p].copy() for f in sq]
            for col in squares:
                _mul(col, g[1])
            for f in firsts:
                _mul(block[f::stride], g[0])
            for f, col in zip(sq, squares):
                block[f :: stride * p] = col
            continue
        for f in firsts:
            col = np.full(len(range(f, len(block), stride)), g[0], dtype=g.dtype)
            c0 = _held(lo + f, wheel) // p  # entry k of col holds n = p (c0 + w k)
            step = 1
            for value in g[1:]:
                step *= p
                k = -c0 * pow(w, -1, step) % step  # the first k with step | c0 + w k
                if k >= len(col):  # so no higher power of p either
                    break
                col[k::step] = value
            _mul(block[f::stride], col)


def _tile(block: np.ndarray, period: np.ndarray, lo: int) -> None:
    """Fill ``block``, the entries n = lo, lo + 1, ..., with period[n % len(period)]:
    one period from ``period``, then copies of the block's filled prefix,
    doubling, so a short period costs O(log) copies, not one per period."""
    size, r = len(block), lo % len(period)
    filled = min(len(period), size)
    k = min(len(period) - r, size)
    block[:k] = period[r : r + k]
    block[k:filled] = period[: filled - k]
    while filled < size:
        c = min(filled, size - filled)
        block[filled : filled + c] = block[:c]
        filled += c


def _scatter_large(
    table: np.ndarray, large: np.ndarray, g: np.ndarray, lo: int, hi: int, skip_zeros: bool, wheel: bool = False
) -> None:
    """Multiply the entry of every n = m * P in the entries [lo, hi) of a
    table in the full (or wheel) layout by g(P), for P in ``large`` (primes
    above isqrt(limit), all >= 5 in the wheel layout, ascending) and m from
    the layout's second entry on (m >= 2, or m >= 5 coprime to 6), as
    phase 2 of ``multiplicative_sieve`` does; ``skip_zeros`` drops the
    cofactors m whose entry is 0.  The entry of P itself (m = 1) is the
    caller's."""
    n_lo, n_hi = _held(lo, wheel), _held(hi, wheel)
    top = (n_hi - 1) // int(large[0])  # the largest cofactor
    entries = np.arange(2, (_wheel_count(top) if wheel else top) + 1)
    cofactors = _held(entries, wheel)
    start = np.searchsorted(large, -(-n_lo // cofactors))  # the first P with m * P >= n_lo
    span = np.searchsorted(large, (n_hi - 1) // cofactors, "right") - start
    if skip_zeros:
        span[table[entries] == 0] = 0
    total = int(span.sum())
    if not total:
        return
    j = np.repeat(start - (np.cumsum(span) - span), span)  # the index of P in large
    j += np.arange(total)
    pos = np.repeat(cofactors, span)
    pos *= large[j]
    if wheel:
        pos //= 3
        pos += 1
    values = g[j]
    del j
    prod = table[pos]
    _mul(prod, values)
    table[pos] = prod


def _pi_bound(x: int) -> int:
    """More than the number of primes <= x: pi(x) < 1.25506 x / ln x for
    x > 1 (Rosser and Schoenfeld, Illinois J. Math. 6, 1962)."""
    return int(1.25506 * x / math.log(x)) + 1 if x > 1 else 0


def multiplicative_sieve(
    limit: int,
    powers: Callable[[int, int], np.ndarray],
    at_primes: Callable[[np.ndarray], np.ndarray],
    dtype,
    *,
    _wheel: bool = False,
) -> np.ndarray:
    """g(n) for n = 0..limit (g(0) = 0) of a multiplicative g, writable.

    With ``_wheel`` the table holds the n coprime to 6 only: entry i is
    g(3i - 1 - (i mod 2)) for i = 1..``_wheel_count(limit)``, so n sits at
    n // 3 + 1, and entry 0 is 0.  Primes 2 and 3 are then never swept and
    ``powers`` is never called for them; a g whose values at the multiples
    of 2 and 3 follow from g(2), g(3) and the rest needs only this third.

    ``powers(p, E)`` returns g(p), g(p^2), ..., g(p^E) for a prime
    p <= isqrt(limit), where p^E <= limit < p^(E+1).  ``at_primes(P)``
    returns g(p) for each prime p in P as a numeric array of shape
    ``(len(P),)`` (anything else raises ``ValueError``).  Each P is the
    ascending int64 array of the primes above isqrt(limit) in one quarter
    of a block, so every prime in (isqrt(limit), limit] is read once per
    build, in ascending order, and no call is longer than a quarter block
    (a build restarts only as the dtype rule below says); the wheel
    layout's start at 5, and below limit 9 it also reads the values of 2
    and 3 above isqrt(limit) once, for the dtype only.  Only the primes up
    to isqrt(limit) <= 14,142 are read (``sieve_primes``, a prefix of the
    primes up to 2^16), so no build sieves.

    The table's dtype is ``dtype`` promoted with the dtypes of all powers
    and of the prime values read so far (complex values make a float table
    complex).  The prime values keep their own dtype, the promotion of
    every read so far, as one read of all of them would have it: a real
    g(P) multiplies a complex entry as (ac, bc), a complex one as
    (ac - bd, ad + bc).  A quarter whose values widen the table's dtype, or
    the prime values' dtype once earlier values are applied, restarts the
    build from the start in the wider dtype, so the bytes are those of a
    build that had it from the start (promoting in place would flip signed
    zeros).

    Every entry is multiplied in the order of a prime-by-prime sweep: its
    primes p <= isqrt(limit) ascending (phase 1), each by g(p^v_p(n)), then
    its one prime P above isqrt(limit), with exponent 1 and cofactor
    m = n / P < sqrt(limit) (phase 2).  A complex entry is multiplied on its
    float planes (see ``_mul``), so every table, complex ones included, is
    bit-identical to such a sweep, and the wheel layout to the entries of
    the full one at the n coprime to 6.  The table is finished one block of
    ``_BLOCK`` entries at a time, each block before the next, so it stays in
    cache:

    - it starts as a tiled period: the leading primes p <= 7 whose higher
      powers are all +0 (mu, any g supported on squarefree n) act on n only
      through n mod p^2, so one period of prod p^2 entries (44,100 for
      2, 3, 5, 7; 2,450 for 5, 7 in the wheel layout, where n moves by
      6 prod p^2 over two prod p^2 entries) is swept once, at entries
      period .. 2 period - 1, unless the table is shorter than two periods;
    - phase 1 multiplies each remaining small prime's column over the
      block's multiples of p (in the wheel layout, over each of its two
      progressions of stride 2p, the multiples kp with k = 1 and with
      k = 5 mod 6).  When every higher power is +0, one scalar multiply
      does instead, and the block's multiples of p^2, if any, get what the
      column would have made of them.  It also marks every entry a small
      prime divides (the period's primes tile their marks with it), so the
      unmarked n above isqrt(limit) are the block's large primes P;
    - phase 2, in each quarter of the block, reads g at that quarter's P
      and multiplies each one's own entry by it, then takes every pair
      (m, P) with m > 1 and m * P in the quarter (two ``searchsorted``
      calls over the cofactors m, coprime to 6 in the wheel layout, where
      m * P sits at m * P // 3 + 1) and makes one scatter
      ``table[m * P] *= g(P)``.  Only the P <= limit // 2 (limit // 5 in
      the wheel layout) have such a pair, so only they are kept, in arrays
      sized by ``_pi_bound``; an entry has one pair at most, so the pair
      arrays stay within a quarter block.

    After phase 1 the entry of m * P equals the entry of m, so a cofactor
    whose entry is 0 leaves them at that 0, up to its sign; phase 2 skips it
    wherever no byte can change: integer tables, or, while every prime
    value read so far is real, finite and sign-clear, float ones.  Every
    pair in a quarter reads a P whose value is already read.  The limit is
    checked first, so an over-budget limit raises ``ResourceLimitError``
    before anything is allocated, and a non-number from ``at_primes``
    raises ``ValueError`` when its quarter is reached.
    """
    _check_limit(limit)
    root = math.isqrt(limit)
    small = []  # (p, g, every higher power is +0)
    for p in sieve_primes(root).tolist():
        if _wheel and p <= 3:  # 2 and 3 divide no n coprime to 6
            continue
        E, pe = 1, p
        while pe * p <= limit:
            E, pe = E + 1, pe * p
        g = powers(p, E)
        small.append((p, g, not any(g[1:].tobytes())))
    final = np.result_type(dtype, *{g.dtype for _, g, _ in small})
    gdtype = None  # the prime values' dtype, promoted over every read so far
    head = [p for p in (2, 3) if _wheel and root < p <= limit]
    if head:  # limit < 9: the wheel holds neither, but their values join the dtype
        gdtype = checked_values(at_primes(np.array(head, dtype=np.int64)), len(head), "at_primes(P)").dtype
    while True:
        if gdtype is not None:
            final = np.result_type(final, gdtype)
        table, gdtype = _build(limit, small, at_primes, final, gdtype, _wheel)
        if table is not None:
            return table


def _build(limit: int, small: list, at_primes, final: np.dtype, gdtype, wheel: bool) -> tuple:
    """One build of ``multiplicative_sieve``'s table in the dtype ``final``,
    with ``gdtype`` the prime values' dtype so far (None before any read):
    (table, None), or (None, the wider dtype) when a quarter's prime values
    widen ``final``, or widen ``gdtype`` once values are applied."""
    root = math.isqrt(limit)
    size = (_wheel_count(limit) if wheel else limit) + 1
    lead = 0  # the primes p <= 7 of the presieved period: small[:lead]
    while lead < len(small) and small[lead][0] <= 7 and small[lead][2]:
        lead += 1
    # n moves by prod p^2 over the period of the full layout, and by
    # 6 prod p^2 over the 2 prod p^2 entries of the wheel layout's.
    period = math.prod(p * p for p, _, _ in small[:lead]) * (2 if wheel else 1)
    pattern = None
    if lead and size >= 2 * period:
        pattern, sieved = np.ones(period, dtype=final), np.zeros(period, dtype=bool)
        _sweep_block(pattern, small[:lead], period, wheel, sieved)
        small = small[lead:]
    first = (_wheel_count(root) if wheel else root) + 1  # the entry of the least n > isqrt(limit)
    keep = limit // (5 if wheel else 2)  # a larger P has no multiple m P <= limit with m > 1
    kept_P = np.empty(_pi_bound(keep), dtype=np.int64)
    kept_g, kept = None, 0
    skip_zeros = True
    table = np.empty(size, dtype=final)
    marks = np.empty(min(size, _BLOCK), dtype=bool)
    for lo in range(0, size, _BLOCK):
        block = table[lo : lo + _BLOCK]
        mark = marks[: len(block)]
        if pattern is None:
            block[...] = 1
            mark[...] = False
        else:
            _tile(block, pattern, lo)
            _tile(mark, sieved, lo)
        if lo == 0:
            block[0] = 0
        _sweep_block(block, small, lo, wheel, mark)
        step = -(-len(block) // 4)
        for mid in range(lo, lo + len(block), step):
            hi = min(mid + step, lo + len(block))
            start = max(mid, first)
            i = start + np.flatnonzero(~mark[start - lo : hi - lo])  # empty if start >= hi
            if len(i):
                P = _held(i, wheel)
                g = checked_values(at_primes(P), len(P), "at_primes(P)")
                wider = g.dtype if gdtype is None else np.result_type(gdtype, g.dtype)
                if np.result_type(final, wider) != final or (gdtype is not None and wider != gdtype):
                    return None, wider
                gdtype = wider
                g = g.astype(gdtype, copy=False)
                skip_zeros = final.kind in "iu" or (
                    skip_zeros and final.kind == "f" and bool(np.isfinite(g).all()) and not np.signbit(g).any()
                )
                prod = table[i]
                _mul(prod, g)
                table[i] = prod
                new = int(np.searchsorted(P, keep, "right"))
                if new:
                    if kept_g is None:
                        kept_g = np.empty(len(kept_P), dtype=gdtype)
                    kept_P[kept : kept + new] = P[:new]
                    kept_g[kept : kept + new] = g[:new]
                    kept += new
                del i, P, g, prod  # the pairs read only the kept primes
            if kept:
                _scatter_large(table, kept_P[:kept], kept_g[:kept], mid, hi, skip_zeros, wheel)
    return table, None


def _mobius_powers(p: int, E: int) -> np.ndarray:
    return np.array([-1] + [0] * (E - 1), dtype=np.int8)


def mobius_table(limit: int) -> np.ndarray:
    """mu(n) for n = 0..limit (mu[0] = 0), a fresh read-only int8 array from
    ``multiplicative_sieve``: -1 at p and 0 at p^2 for each prime
    p <= isqrt(limit), then -1 for every prime above it."""
    mu = multiplicative_sieve(limit, _mobius_powers, lambda P: np.full(len(P), -1, dtype=np.int8), np.int8)
    mu.setflags(write=False)
    return mu


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
    """Factor n >= 1 by trial division: by the primes up to 2^16, then by
    the odd d above 2^16, each of which is prime when it divides what is
    left (meant for n up to ~10^12).  An isqrt(n) above ``SIEVE_BUDGET``
    raises ``ResourceLimitError``."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    root = math.isqrt(n)
    trial = _SMALL_PRIMES.data  # a memoryview: Python ints, made as the loop reads them
    if root > _SMALL:
        _check_limit(root)
        trial = chain(trial, range(_SMALL + 1, root + 1, 2))
    m = n
    out = []
    for p in trial:
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
