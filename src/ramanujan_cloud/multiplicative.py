"""Arithmetic functions modeled by prime-power rules, their spectra, and the
built-in catalog.

A multiplicative G is determined by its values G(p^e); we store that rule and
extend multiplicatively.  The two spectra drive everything downstream:

    transparent primes   F(G)  = {p : G(p) = 1}
    invisible primes     F0(G) = {p : G(p^K) = 1 for all K >= 0}

together with the transparency valuation v_{p,G} = min{K : G(p^{K+1}) != 1}
(infinite exactly when p is invisible).  A G is classified *normal* when F is
empty, *sporadic* when F is nonempty but F0 is empty, and *exotic* when F0 is
nonempty.  Spectra found by a bounded scan are never presented as complete:
reports carry a ``certified`` flag that only catalog declarations can set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Number as _Number, Real
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .config import EngineConfig
from .core import SIEVE_BUDGET, _gather, checked_values, factorize, is_prime, sieve_primes
from .sums import FormulaInconsistencyError

Number = Union[int, Fraction, float, complex]

# Floating-mode proxy for "equals 1" in catalog constructors, which take no
# config; bounded functions read ``config.one_tol``.  Exact mode compares
# exactly.
DEFAULT_ONE_TOL = EngineConfig.one_tol

INFINITE = math.inf


@dataclass(frozen=True, eq=False)
class MultiplicativeFunction:
    """A multiplicative arithmetic function given by its prime-power rule.

    ``rule(p, e)`` returns G(p^e) for e >= 1; G(1) = 1 always.  ``exact``
    promises every rule output is an int or Fraction, so downstream sums can
    stay in exact rational arithmetic; an exact-rational series raises
    ``ValueError`` at a value that is not rational.  ``declared_transparent``
    and ``declared_invisible`` certify the *complete* spectra when the
    constructor knows them (catalog entries do); both or neither must be set.

    ``squarefree_cap``, when set, clamps |G(n)| to cap/n on squarefree
    n > 1 -- used by catalog families whose hypotheses bound squarefree
    values.  It must be a finite real > 0, and it scales values by a float,
    so an ``exact`` G cannot have one.

    ``at_primes``, when set, is a numpy form of the rule at e = 1: given an
    ascending int64 array P of primes it returns G(p) for each, as a numeric
    array of shape ``(len(P),)``.  Value tables use it in place of one rule
    call per prime, so it must equal ``core._gather`` of the rule bit for
    bit; only forms whose values are correctly rounded divisions (1/p,
    1/(p-1), constants) meet that.  Powers such as p ** x are not: numpy
    and Python round them differently in the last place.  The constructor
    compares the form with the rule on the primes <= 100 and raises
    ``ValueError`` on any mismatch, as ``at_prime_power`` (so ``eval``)
    does on a rule value that is not a number.

    Evaluation memoizes into ``_memo``; entries are deterministic, so a
    concurrent duplicate write is benign.  Every instance, a
    ``dataclasses.replace`` copy included, starts with an empty memo.
    """

    label: str
    rule: Callable[[int, int], Number]
    exact: bool = False
    declared_transparent: Optional[frozenset[int]] = None
    declared_invisible: Optional[frozenset[int]] = None
    squarefree_cap: Optional[float] = None
    at_primes: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.declared_transparent is None) != (self.declared_invisible is None):
            raise ValueError("declare both spectra or neither")
        if self.declared_transparent is not None:
            if not self.declared_invisible <= self.declared_transparent:
                raise ValueError("invisible primes must be transparent")
        cap = self.squarefree_cap
        if cap is not None and not (isinstance(cap, Real) and math.isfinite(cap) and cap > 0):
            raise ValueError(f"{self.label}: squarefree_cap must be a finite real > 0, got {cap!r}")
        if cap is not None and self.exact:
            raise ValueError(f"{self.label}: exact=True cannot take a squarefree_cap, which scales values by a float")
        if self.at_primes is not None:
            P = sieve_primes(100)
            form = checked_values(self.at_primes(P), len(P), f"{self.label}: at_primes(P)")
            wrong = form != _rule_values(self, P.tolist(), [1] * len(P))
            if wrong.any():
                p, got = int(P[wrong][0]), form[wrong].tolist()[0]
                raise ValueError(f"{self.label}: at_primes gives {got!r} at p = {p}, rule gives {self.rule(p, 1)!r}")

    @property
    def certified(self) -> bool:
        return self.declared_transparent is not None

    def at_prime_power(self, p: int, e: int) -> Number:
        """G(p^e) straight from the rule (e = 0 gives 1)."""
        v = 1 if e == 0 else self.rule(p, e)
        return v if isinstance(v, _Number) else _raise_non_number(self.label, f"rule({p}, {e})", v)

    def eval(self, n: int) -> Number:
        """G(n) as the product of the rule over the factorization of n, from
        its first factor on (n = 1 gives the int 1)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        cached = self._memo.get(n)
        if cached is not None:
            return cached
        f = factorize(n)
        out, *rest = [self.at_prime_power(p, e) for p, e in f.factors] or [1]
        out = math.prod(rest, start=out)
        if self.squarefree_cap is not None and out != 0 and n > 1:
            if all(e == 1 for _, e in f.factors):
                bound = self.squarefree_cap / n
                mag = abs(out)
                if mag > bound:
                    out = out * (bound / mag)
        self._memo[n] = out
        return out

    __call__ = eval


@dataclass(frozen=True, eq=False)
class GeneralArithmeticFunction:
    """An arbitrary (not necessarily multiplicative) arithmetic function.

    ``invisible_prime`` records a prime p0 with G(p0^K * r) = G(r) for all K
    and all r coprime to p0, when the constructor guarantees one.

    ``support``, when set, gives the n <= Q where G may be nonzero, as
    integers in [1, Q], in any order and with repeats allowed.  The series
    kernels then read G point by point at the distinct support points and
    build no table over every n <= Q, so their cost is per support point.
    ``eval`` raises ``ValueError`` if ``fn(n)`` is not a number.
    """

    label: str
    fn: Callable[[int], Number]
    exact: bool = False
    invisible_prime: Optional[int] = None
    support: Optional[Callable[[int], Iterable[int]]] = field(default=None, repr=False, compare=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def eval(self, n: int) -> Number:
        if n < 1:
            raise ValueError("n must be >= 1")
        v = self.fn(n)
        return v if isinstance(v, _Number) else _raise_non_number(self.label, f"fn({n})", v)

    __call__ = eval


def _raise_non_number(label: str, where: str, v):
    raise ValueError(f"{label}: {where} gives {v!r}; values must be real or complex numbers")


def _rule_values(G: MultiplicativeFunction, ps: Sequence[int], es: Sequence[int]) -> np.ndarray:
    """``G.rule(p, e)`` at each pair of ``ps`` and ``es``, through
    ``core._gather``.  Only when that fails are the pairs read again through
    ``at_prime_power``, so the error names G and the first bad pair."""
    try:
        return _gather(map(G.rule, ps, es), len(ps))
    except ValueError:
        list(map(G.at_prime_power, ps, es))
        raise


def _close(x: Number, y: Number, exact: bool, tol: float) -> bool:
    """x == y in exact mode, |x - y| <= tol in floating mode."""
    return x == y if exact else abs(complex(x) - complex(y)) <= tol


class ValuationResult(NamedTuple):
    """Transparency valuation; ``censored`` means the scan hit its exponent
    bound without certifying the true (possibly larger or infinite) value."""

    value: float  # an int-valued float or INFINITE
    censored: bool


def transparency_valuation(
    G: MultiplicativeFunction, p: int, *, config: Optional[EngineConfig] = None
) -> ValuationResult:
    """Least K with G(p^(K+1)) != 1, scanning K = 0..config.k_max.

    Returns INFINITE (uncensored) when the catalog certifies p invisible;
    otherwise a scan that never leaves 1 comes back as (k_max, censored).
    Floating values equal 1 within ``config.one_tol``; ``None`` means
    ``EngineConfig()``.
    """
    cfg = config if config is not None else EngineConfig()
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for K in range(cfg.k_max + 1):
        if not _close(G.at_prime_power(p, K + 1), 1, G.exact, cfg.one_tol):
            return ValuationResult(K, False)
    if G.declared_invisible is not None and p in G.declared_invisible:
        return ValuationResult(INFINITE, False)
    return ValuationResult(cfg.k_max, True)


@dataclass(frozen=True)
class SpectrumReport:
    """Scan-bounded spectra, valuations, and the classification of G.

    ``transparent_primes`` and ``invisible_primes`` are F(G) and F0(G)
    intersected with [2, scan_bound]; ``valuations`` maps each transparent
    prime to v_{p,G} (INFINITE for invisible ones).  ``PG`` is the product of
    the transparent primes and ``aG`` the product of p^v_{p,G} (None when G is
    exotic).  ``certified`` is True only when the spectra were declared
    exactly by the constructor rather than inferred from the scan.
    """

    label: str
    scan_bound: int
    exponent_bound: int
    transparent_primes: tuple[int, ...]
    invisible_primes: tuple[int, ...]
    valuations: dict[int, float]
    PG: int
    aG: Optional[int]
    classification: str
    certified: bool


def spectrum(G: MultiplicativeFunction, *, config: Optional[EngineConfig] = None) -> SpectrumReport:
    """Scan primes <= config.scan_bound (``None`` means ``EngineConfig()``)
    and classify G as normal/sporadic/exotic.

    Without declared spectra the result is a bounded statement (certified
    False): a prime whose valuation scan is censored at config.k_max is
    reported as invisible.  With declarations, the scan is cross-checked
    against them and any disagreement raises (a catalog entry lying about
    its own spectra is a bug, not a report).
    """
    if not isinstance(G, MultiplicativeFunction):
        raise ValueError(f"{G.label} is not multiplicative; spectra are undefined")
    cfg = config if config is not None else EngineConfig()
    scan_bound, k_max = cfg.scan_bound, cfg.k_max
    declared = G.declared_transparent is not None
    if declared:
        widest = max(G.declared_transparent, default=0)
        if widest > scan_bound:
            raise ValueError(
                f"scan_bound {scan_bound} does not cover declared prime {widest}"
            )

    transparent: list[int] = []
    valuations: dict[int, float] = {}
    for p in sieve_primes(scan_bound).tolist():
        if not _close(G.at_prime_power(p, 1), 1, G.exact, cfg.one_tol):
            continue
        transparent.append(p)
        val = transparency_valuation(G, p, config=cfg)
        if val.censored and declared:
            # A certified report must not carry a censored valuation.
            raise ValueError(
                f"{G.label}: valuation of {p} exceeds k_max={k_max}; raise k_max"
            )
        valuations[p] = INFINITE if val.censored else val.value

    if declared:
        want = sorted(G.declared_transparent)
        if transparent != want:
            raise FormulaInconsistencyError(
                f"{G.label}: declared transparent primes {want} but scan found {transparent}"
            )
        for p in transparent:
            if (valuations[p] == INFINITE) != (p in G.declared_invisible):
                raise FormulaInconsistencyError(
                    f"{G.label}: declared invisibility of {p} contradicts the scan"
                )

    invisible = [p for p in transparent if valuations[p] == INFINITE]
    if invisible:
        classification = "exotic"
    elif transparent:
        classification = "sporadic"
    else:
        classification = "normal"

    aG = None if invisible else math.prod(p ** int(valuations[p]) for p in transparent)  # exotic: v_p infinite
    return SpectrumReport(
        label=G.label,
        scan_bound=scan_bound,
        exponent_bound=k_max,
        transparent_primes=tuple(transparent),
        invisible_primes=tuple(invisible),
        valuations=valuations,
        PG=math.prod(transparent),
        aG=aG,
        classification=classification,
        certified=declared,
    )


def is_weakly_exotic(G, p0: int, *, config: Optional[EngineConfig] = None) -> bool:
    """Bounded certificate that G(p0^K * r) = G(r) for r coprime to p0.

    Checks every r <= config.we_r_bound coprime to p0 and every
    1 <= K <= config.we_k_bound, a grid the config keeps nonempty (``None``
    means ``EngineConfig()``); a True answer is evidence on that grid, not a
    proof.  Floating G compares within ``config.one_tol``.  Works for both
    function types (anything with ``eval``).
    """
    cfg = config if config is not None else EngineConfig()
    if not is_prime(p0):
        raise ValueError(f"{p0} is not prime")
    exact = getattr(G, "exact", False)
    for r in range(1, cfg.we_r_bound + 1):
        if r % p0 == 0:
            continue
        base = G.eval(r)
        q = r
        for _ in range(cfg.we_k_bound):
            q *= p0
            if not _close(G.eval(q), base, exact, cfg.one_tol):
                return False
    return True


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def _gr() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        label="GR",
        rule=lambda p, e: Fraction(1, p**e),
        exact=True,
        declared_transparent=frozenset(),
        declared_invisible=frozenset(),
        at_primes=lambda P: 1.0 / P,
    )


def _gh() -> MultiplicativeFunction:
    return MultiplicativeFunction(
        label="GH",
        rule=lambda p, e: Fraction(1, (p - 1) * p ** (e - 1)),
        exact=True,
        declared_transparent=frozenset({2}),
        declared_invisible=frozenset(),
        at_primes=lambda P: 1.0 / (P - 1),
    )


def _indicator_prime_powers(p0: int = 2) -> MultiplicativeFunction:
    if not is_prime(p0):
        raise ValueError(f"p0 = {p0} is not prime")
    return MultiplicativeFunction(
        label=f"indicator_prime_powers(p0={p0})",
        rule=lambda p, e: 1 if p == p0 else 0,
        exact=True,
        declared_transparent=frozenset({p0}),
        declared_invisible=frozenset({p0}),
        at_primes=lambda P: (P == p0).astype(np.float64),
    )


def _g0(p0: int = 2, off_prime_powers: Optional[Callable[[int, int], Number]] = None) -> MultiplicativeFunction:
    # 1 on every power of p0, 1/p at other primes.  Higher powers of primes
    # != p0 default to p^(-e) (the completely multiplicative completion);
    # only the squarefree values and the p0 column matter downstream, so any
    # consistent completion may be passed in instead.
    if not is_prime(p0):
        raise ValueError(f"p0 = {p0} is not prime")

    def rule(p: int, e: int) -> Number:
        if p == p0:
            return 1
        if e == 1 or off_prime_powers is None:
            return Fraction(1, p**e)
        return off_prime_powers(p, e)

    exact = off_prime_powers is None or isinstance(off_prime_powers(3, 2), (int, Fraction))
    return MultiplicativeFunction(
        label=f"G0(p0={p0})",
        rule=rule,
        exact=exact,
        declared_transparent=frozenset({p0}),
        declared_invisible=frozenset({p0}),
        # off_prime_powers only enters at e >= 2.
        at_primes=lambda P: np.where(P == p0, 1.0, 1.0 / P),
    )


def _prop1(
    alpha: float = 1.0,
    c: float = 1.0,
    cap: float = 10.0,
    higher_power: Optional[Callable[[int, int], Number]] = None,
) -> MultiplicativeFunction:
    # G(p) = 1/p + c * p^(-1-alpha); higher prime powers default to G(p)^e
    # (they are unconstrained by the hypotheses).  |G| is clamped to cap/n
    # on squarefree n so the O(1/q) bound holds with an explicit constant.
    if not all(isinstance(v, Real) and math.isfinite(v) for v in (alpha, c)):
        raise ValueError(f"alpha and c must be finite reals, got alpha={alpha!r}, c={c!r}")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")

    def rule(p: int, e: int) -> Number:
        first = 1.0 / p + c * p ** (-1.0 - alpha)
        if e == 1:
            return first
        return first**e if higher_power is None else higher_power(p, e)

    # With c <= 0, G(p) <= 1/p <= 1/2.  With c > 0, G(p) decreases in p and
    # 1/p <= 1/2, so G(p) >= 1 - tol needs p^(1+alpha) <= c / (1/2 - tol):
    # check every such prime (a reach above the sieve budget raises there).
    if c > 0:
        reach = math.floor(min((c / (0.5 - DEFAULT_ONE_TOL)) ** (1.0 / (1.0 + alpha)), SIEVE_BUDGET)) + 1
        for p in sieve_primes(reach).tolist():
            if abs(rule(p, 1) - 1.0) <= DEFAULT_ONE_TOL:
                raise ValueError(f"parameters make G({p}) = 1; entry must not be exotic")
    return MultiplicativeFunction(
        label=f"prop1(alpha={alpha}, c={c})",
        rule=rule,
        exact=False,
        declared_transparent=frozenset(),
        declared_invisible=frozenset(),
        squarefree_cap=cap,
    )


def _lemma7_h(s: complex = 0.6) -> MultiplicativeFunction:
    # Squarefree-supported: q^(-s) on odd squarefree q, -2 q^(-s) on even.
    s = complex(s) if isinstance(s, complex) else float(s)
    sigma = s.real if isinstance(s, complex) else s
    if not 0.5 < sigma < 1.0:
        raise ValueError("need 1/2 < Re s < 1")

    def rule(p: int, e: int) -> Number:
        if e >= 2:
            return 0
        if p == 2:
            return -2 * 2 ** (-s)
        return p ** (-s)

    return MultiplicativeFunction(
        label=f"lemma7_h(s={s})",
        rule=rule,
        exact=False,
        declared_transparent=frozenset(),
        declared_invisible=frozenset(),
    )


def _prop5(
    s: complex = 0.6,
    p1: int = 2,
    p2: int = 3,
    g2: complex = 0,
    p1_square_zero: bool = False,
) -> MultiplicativeFunction:
    # G(p1) = p1^(1-s), G(p2) = g2 (must differ from p2^(1-s)), and
    # G(p) = -p^(-s) elsewhere, all extended completely multiplicatively.
    # With p1_square_zero, G vanishes on p1^e for e >= 2.
    s = complex(s) if isinstance(s, complex) else float(s)
    sigma = s.real if isinstance(s, complex) else s
    if not 0.5 < sigma < 1.0:
        raise ValueError("need 1/2 < Re s < 1")
    if not (is_prime(p1) and is_prime(p2)) or p1 == p2:
        raise ValueError("p1, p2 must be distinct primes")
    if abs(complex(g2) - complex(p2 ** (1 - s))) <= 1e-12:
        raise ValueError("g2 must differ from p2^(1-s)")

    def rule(p: int, e: int) -> Number:
        if p == p1:
            if e >= 2 and p1_square_zero:
                return 0
            return p1 ** ((1 - s) * e)
        if p == p2:
            return g2**e
        return (-(p ** (-s))) ** e

    transparent = frozenset({p2}) if abs(complex(g2) - 1) <= DEFAULT_ONE_TOL else frozenset()
    return MultiplicativeFunction(
        label=f"prop5(s={s}, p1={p1}, p2={p2}, g2={g2})",
        rule=rule,
        exact=False,
        declared_transparent=transparent,
        declared_invisible=transparent,  # g2 = 1 makes p2 invisible outright
    )


_DEFAULT_BASE = {1: Fraction(1), 3: Fraction(1, 2), 9: Fraction(-1, 4)}


def _weakly_exotic_sample(p0: int = 2, base: Optional[dict] = None) -> GeneralArithmeticFunction:
    # G(p0^K * r) = base(r) for r coprime to p0, with base finitely
    # supported, so every expansion of G is a finite, exactly evaluable sum.
    if not is_prime(p0):
        raise ValueError(f"p0 = {p0} is not prime")
    values = dict(_DEFAULT_BASE if base is None else base)
    if any(r < 1 or r % p0 == 0 for r in values):
        raise ValueError("base support must consist of naturals coprime to p0")

    def fn(n: int) -> Number:
        while n % p0 == 0:
            n //= p0
        return values.get(n, 0)

    def support(Q: int):
        # G is zero off the p0-power multiples of the base's support.
        for r in values:
            n = r
            while n <= Q:
                yield n
                n *= p0

    return GeneralArithmeticFunction(
        label=f"weakly_exotic_sample(p0={p0})",
        fn=fn,
        exact=all(isinstance(v, (int, Fraction)) for v in values.values()),
        invisible_prime=p0,
        support=support,
    )


_CATALOG: dict[str, Callable] = {
    "GR": _gr,
    "GH": _gh,
    "indicator_prime_powers": _indicator_prime_powers,
    "G0": _g0,
    "prop1": _prop1,
    "lemma7_h": _lemma7_h,
    "prop5": _prop5,
    "weakly_exotic_sample": _weakly_exotic_sample,
}


def catalog(name: str, **params):
    """Construct a named catalog entry.

    Names: GR (1/q), GH (1/phi(q)), indicator_prime_powers(p0), G0(p0),
    prop1(alpha, c, cap), lemma7_h(s), prop5(s, p1, p2, g2, p1_square_zero),
    weakly_exotic_sample(p0, base).  Unknown names or bad parameters raise
    ValueError.
    """
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog entry {name!r}; know {sorted(_CATALOG)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for {name}: {exc}") from None


def catalog_names() -> list[str]:
    return sorted(_CATALOG)
