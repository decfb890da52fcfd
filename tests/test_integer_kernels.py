"""Exact ground truth at any Q from integer-valued G.

For a Dirichlet character, and for chi_4 with G(p^e) = (-2)^e at p = 3 or
5, every table entry, coefficient d mu(m') G(dm'), climb product and partial
sum is an integer or a Gaussian integer below 2^53 at the Q used, so float64
arithmetic is exact in any order: every floating kernel must equal an int64
oracle bit for bit.  That separates errors in a plan's algebra (trie points,
the wheel indexing of G mu, the root R_6, the peel at 2 and 3, block edges,
strikes on b) from rounding, which the bounds of ``test_expansion`` cover.

The oracle shares nothing with the kernels: G from its closed form (n mod 4,
n mod 5, 2^v_p(n)), mu from its own prime sieve (0 on the multiples of p^2,
else the parity of the number of primes), c_q(a) by Kluyver,
sum over d | (q, a) of d mu(q/d), then q not coprime to b struck and one
int64 ``cumsum``.  ``mismatches(Q)`` runs the whole comparison at one Q; run
it at Q = 10^6 with

    PYTHONPATH=src:tests python -c "from test_integer_kernels import mismatches; print(mismatches(10**6))"
"""

import math

import numpy as np
import pytest

import ramanujan_cloud.core as core
import ramanujan_cloud.expansion as expansion
from ramanujan_cloud import MultiplicativeFunction, checkpoint_schedule, expansion_partial_sums


def _chi4(p, e):
    return 0 if p == 2 else 1 if p % 4 == 1 else (-1) ** e


def _chi4_variant(p):
    """The rule and closed form of chi_4 with G(p^e) = (-2)^e, p odd: at
    n = p^v r, r prime to p, G(n) = chi_4(r) (-2)^v."""

    def closed_form(n):
        v = np.zeros(len(n), dtype=np.int64)
        k = p
        while k < len(n):
            v[::k] += 1
            k *= p
        return np.array([0, 1, 0, -1])[n // p**v % 4] * (-2) ** v, 0 * n

    return (lambda q, e: (-2) ** e if q == p else _chi4(q, e)), closed_form


# label: (rule G(p^e), closed form n -> (Re G(n), Im G(n)) as int64 arrays)
ENTRIES = {
    "chi_4": (_chi4, lambda n: (np.array([0, 1, 0, -1])[n % 4], 0 * n)),
    "(./5)": (
        lambda p, e: 0 if p == 5 else 1 if p % 5 in (1, 4) else (-1) ** e,
        lambda n: (np.array([0, 1, -1, -1, 1])[n % 5], 0 * n),
    ),
    # 2 generates (Z/5)^*, so chi(2^k) = i^k: chi(4) = -1, chi(3) = -i.
    "chi_5, chi(2) = i": (
        lambda p, e: 0 if p == 5 else 1j ** ({1: 0, 2: 1, 4: 2, 3: 3}[p % 5] * e),
        lambda n: (np.array([0, 1, 0, 0, -1])[n % 5], np.array([0, 0, 1, -1, 0])[n % 5]),
    ),
    # |G(3)| = 2 enters the peel's coefficients G(dm') only, never a power:
    # every pair is peeled.
    "chi_4, G(3^e) = (-2)^e": _chi4_variant(3),
    # |G(5)| = 2 sends the pairs with 5 | ab to the strided kernel, so the
    # batch below mixes both kernels.
    "chi_4, G(5^e) = (-2)^e": _chi4_variant(5),
}

A = (1, 2, 9, 12, 30, 360, 945)
B = (1, 2, 35)


def _closed_form(label, Q):
    re, im = (v.astype(np.int64) for v in ENTRIES[label][1](np.arange(Q + 1, dtype=np.int64)))
    re[0] = im[0] = 0
    return re, im


def _mobius(Q):
    """mu(n) for n <= Q from a sieve of Eratosthenes: 0 on the multiples of
    p^2, else (-1)^(number of primes of n)."""
    prime = np.ones(Q + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(Q) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    mu = np.ones(Q + 1, dtype=np.int64)
    for p in np.flatnonzero(prime).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
    mu[0] = 0
    return mu


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _oracle_terms(re, im, mu, a):
    """(Re, Im) of G(q) c_q(a) and |G(q) c_q(a)|, q = 0..Q, as int64 arrays."""
    Q = len(mu) - 1
    c = np.zeros(Q + 1, dtype=np.int64)
    for d in _divisors(a):
        c[d::d] += d * mu[1 : Q // d + 1]
    assert not (re * im).any()  # every value is real or imaginary, so |G| = |Re| + |Im|
    return (re * c, im * c), (np.abs(re) + np.abs(im)) * np.abs(c)


def _primes_of(n):
    return [p for p in _divisors(n) if len(_divisors(p)) == 2]


# One _peel_sums batch: the pairs (1, r) and (r, 1) over the radicals r of 1..50.
_RADICALS = {math.prod(_primes_of(n)) for n in range(1, 51)}
BATCH = sorted({(1, r) for r in _RADICALS} | {(r, 1) for r in _RADICALS})


def _oracle_sums(terms, b, xs):
    """The partial sums at ``xs`` of ``terms`` over q coprime to b."""
    terms = terms.copy()
    for p in _primes_of(b):
        terms[::p] = 0
    return np.cumsum(terms)[xs]


def _same(got, re, im, is_complex):
    want = re.astype(np.float64) + 1j * im if is_complex else re.astype(np.float64)
    return np.array(got).tobytes() == want.tobytes()


def mismatches(Q):
    """(number of cases, the cases whose floating series is not the oracle's
    bit for bit) at Q: each entry at every a in ``A`` and b in ``B``, signed
    and absolute, through ``expansion_partial_sums``, and per entry one
    ``_peel_sums`` batch of ``BATCH``.  The oracle's terms are built once
    per (entry, a)."""
    mu = _mobius(Q)
    cps = checkpoint_schedule(Q)
    xs = np.array(cps)
    cases = {}  # a: [(b, kind), ...]
    for a in A:
        cases.setdefault(a, []).extend((b, kind) for b in B for kind in ("signed", "absolute"))
    for a, b in BATCH:
        cases.setdefault(a, []).append((b, "batch"))
    count, bad = 0, []
    for label, (rule, _) in ENTRIES.items():
        G = MultiplicativeFunction(label, rule=rule)
        re, im = _closed_form(label, Q)
        is_complex = bool(im.any())
        batch_sums = expansion._peel_sums(G, BATCH, Q, cps)
        for a in sorted(cases):
            (sre, sim), mag = _oracle_terms(re, im, mu, a)
            for b, kind in cases[a]:
                count += 1
                if kind == "absolute":
                    got = expansion_partial_sums(G, a, Q, coprime_to=b, absolute=True, exact=False).values()
                    ok = _same(got, _oracle_sums(mag, b, xs), 0, False)
                else:
                    got = batch_sums[(a, b)] if kind == "batch" else expansion_partial_sums(G, a, Q, coprime_to=b, exact=False).values()
                    ok = _same(got, _oracle_sums(sre, b, xs), _oracle_sums(sim, b, xs), is_complex)
                if not ok:
                    bad.append((label, a, b, kind))
    return count, bad


@pytest.mark.parametrize("block", [97, 4096])
def test_every_kernel_is_the_integer_oracle(monkeypatch, block):
    # Q = 20,011 crosses block edges of both layouts: 207 value table
    # blocks of 97 entries and 69 G mu blocks (the n coprime to 6), or 5
    # and 2 of 4096.
    monkeypatch.setattr(core, "_BLOCK", block)
    count, bad = mismatches(20_011)
    assert count == len(ENTRIES) * (2 * len(A) * len(B) + len(BATCH)) == 515 and bad == []


@pytest.mark.parametrize("label, p", [("chi_4, G(3^e) = (-2)^e", None), ("chi_4, G(5^e) = (-2)^e", 5)])
def test_the_batch_sends_only_the_pairs_with_p_to_the_strided_kernel(monkeypatch, label, p):
    # So the comparison above holds the peel to the oracle with |G(3)| = 2,
    # and the strided kernel with |G(5)| = 2 inside a batch it shares with
    # the peel.
    direct = []
    strided = expansion._strided_sums
    monkeypatch.setattr(expansion, "_strided_sums", lambda G, plans, Q, cps: strided(G, direct.extend(plans) or plans, Q, cps))
    expansion._peel_sums(MultiplicativeFunction(label, rule=ENTRIES[label][0]), BATCH, 2000, checkpoint_schedule(2000))
    assert direct == [(a, b) for a, b in BATCH if p and a * b % p == 0] != BATCH
