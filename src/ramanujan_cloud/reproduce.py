"""Reproduction battery: every headline identity, example, and verdict in
one place.

Each ``check_*`` function runs one self-contained verification at its pinned
tolerance and returns only its evidence, a JSON-ready dict with a ``pass``
flag.  ``run_all`` names, times and budgets every check and writes one
artifact per check; wall-clock is echoed, never written, so artifact bytes
are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from .config import EngineConfig
from .core import divisors, radical, sieve_primes, valuation
from .expansion import (
    absolute_convergence_report,
    detect_convergence,
    expansion_partial_sums,
    finite_factor_forms_equal,
    restricted_mobius_partial_sums,
    zero_cloud_verdict,
)
from .multiplicative import MultiplicativeFunction, catalog, spectrum
from .squarefree import balanced_series_demo, count_squarefree_in_ap, hooley_constant
from .sums import c_direct, c_holder, c_kluyver, prime_power_column_sum
from ._serialize import to_jsonable


def _exact_multiplicative_entries() -> list[MultiplicativeFunction]:
    return [
        catalog("GR"),
        catalog("GH"),
        catalog("indicator_prime_powers", p0=2),
        catalog("indicator_prime_powers", p0=3),
        catalog("G0", p0=2),
        catalog("G0", p0=3),
    ]


def _absolutely_convergent_exotic_instances() -> list[MultiplicativeFunction]:
    # Two exact instances with an invisible prime and summable |G| over the
    # primes: inverse squares off p0 = 3 (completely multiplicative), and a
    # squarefree-supported variant off p0 = 2.
    inverse_squares = MultiplicativeFunction(
        label="invisible3_inverse_squares",
        rule=lambda p, e: 1 if p == 3 else Fraction(1, p ** (2 * e)),
        exact=True,
        declared_transparent=frozenset({3}),
        declared_invisible=frozenset({3}),
    )
    squarefree_supported = MultiplicativeFunction(
        label="invisible2_squarefree_inverse_squares",
        rule=lambda p, e: 1 if p == 2 else (Fraction(1, p * p) if e == 1 else 0),
        exact=True,
        declared_transparent=frozenset({2}),
        declared_invisible=frozenset({2}),
    )
    return [inverse_squares, squarefree_supported]


def check_formula_agreement(cfg: EngineConfig) -> dict:
    """All three Ramanujan-sum formulas agree on 1 <= q, a <= 200."""
    bound = 200
    mismatches = []
    for q in range(1, bound + 1):
        for a in range(1, bound + 1):
            d, k, h = c_direct(q, a), c_kluyver(q, a), c_holder(q, a)
            if not d == k == h:
                mismatches.append({"q": q, "a": a, "direct": d, "kluyver": k, "holder": h})
    return {
        "pass": not mismatches,
        "bound": bound,
        "triples_checked": bound * bound,
        "mismatches": mismatches[:10],
    }


def check_column_cancellation(cfg: EngineConfig) -> dict:
    """sum_{K=0}^{v_p(a)+1} c_{p^K}(a) = 0 for all p <= 50, a <= 200."""
    bad = [
        {"p": int(p), "a": a, "sum": prime_power_column_sum(int(p), a)}
        for p in sieve_primes(50)
        for a in range(1, 201)
        if prime_power_column_sum(int(p), a) != 0
    ]
    return {
        "pass": not bad,
        "prime_bound": 50,
        "a_bound": 200,
        "failures": bad[:10],
    }


def check_exotic_exact_zero(cfg: EngineConfig) -> dict:
    """Indicator-of-prime-powers expansions hit 0 exactly at Q = p0^(v+1)."""
    failures = []
    for p0 in (2, 3, 5):
        G = catalog("indicator_prime_powers", p0=p0)
        for a in range(1, 1001):
            Q = p0 ** (valuation(p0, a) + 1)
            total = expansion_partial_sums(G, a, Q, checkpoints=[Q], exact=True).final
            if total != 0:
                failures.append({"p0": p0, "a": a, "Q": Q, "sum": to_jsonable(total)})
    return {
        "pass": not failures,
        "p0_values": [2, 3, 5],
        "a_bound": 1000,
        "failures": failures[:10],
    }


def check_classification_fixtures(cfg: EngineConfig) -> dict:
    """GR is normal; GH is sporadic with F = {2}, P(G) = 2, a_G = 2; the
    indicator of the powers of 2 is exotic with F0 = {2}."""
    gr = spectrum(catalog("GR"), config=cfg)
    gh = spectrum(catalog("GH"), config=cfg)
    g2 = spectrum(catalog("indicator_prime_powers", p0=2), config=cfg)
    ok = (
        gr.classification == "normal"
        and gr.PG == 1
        and gh.classification == "sporadic"
        and gh.transparent_primes == (2,)
        and gh.PG == 2
        and gh.aG == 2
        and g2.classification == "exotic"
        and g2.invisible_primes == (2,)
        and gr.certified
        and gh.certified
        and g2.certified
    )
    return {
        "pass": ok,
        "reports": {
            "GR": to_jsonable(gr),
            "GH": to_jsonable(gh),
            "indicator_prime_powers(p0=2)": to_jsonable(g2),
        },
    }


def check_peel_identities(cfg: EngineConfig) -> dict:
    """One-prime peel of restricted Mobius series, exhaustively for every
    x <= 2000, F inside {2,3,5,7}, p1 <= 13 outside F, on each exact
    multiplicative catalog entry."""
    x_max = 2000
    F_pool = (2, 3, 5, 7)
    p1_pool = (2, 3, 5, 7, 11, 13)
    failures = []
    checked = 0
    for G in _exact_multiplicative_entries():
        tables: dict[frozenset, list] = {}

        def prefix(S: frozenset, G=G, tables=tables) -> list:
            tab = tables.get(S)
            if tab is None:
                b = math.prod(S) if S else 1
                series = restricted_mobius_partial_sums(
                    G, b, x_max, checkpoints=range(1, x_max + 1), exact=True
                )
                tab = [0, *series.values()]
                tables[S] = tab
            return tab

        for size in range(len(F_pool) + 1):
            for F_tuple in combinations(F_pool, size):
                F = frozenset(F_tuple)
                lhs = prefix(F)
                for p1 in p1_pool:
                    if p1 in F:
                        continue
                    rhs = prefix(F | {p1})
                    gp1 = G.eval(p1)
                    for x in range(1, x_max + 1):
                        checked += 1
                        if lhs[x] != rhs[x] - gp1 * rhs[x // p1]:
                            failures.append(
                                {"G": G.label, "F": sorted(F), "p1": p1, "x": x}
                            )
                            break
    return {
        "pass": not failures,
        "x_max": x_max,
        "entries": [G.label for G in _exact_multiplicative_entries()],
        "identities_checked": checked,
        "failures": failures[:10],
    }


def _random_rule(rng: random.Random) -> MultiplicativeFunction:
    memo: dict[tuple[int, int], Fraction] = {}

    def rule(p: int, e: int) -> Fraction:
        key = (p, e)
        if key not in memo:
            memo[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        return memo[key]

    return MultiplicativeFunction(label="random_exact_rule", rule=rule, exact=True)


def check_abel_forms(cfg: EngineConfig) -> dict:
    """The truncated expansion factor equals its Abel-summed form on 500
    randomized exact rational rules with a <= 500."""
    rng = random.Random(cfg.seed)
    failures = []
    for trial in range(500):
        G = _random_rule(rng)
        a = rng.randint(1, 500)
        if not finite_factor_forms_equal(G, a):
            failures.append({"trial": trial, "a": a})
    return {
        "pass": not failures,
        "trials": 500,
        "seed": cfg.seed,
        "failures": failures[:10],
    }


def _absolute_rounding_bound(Q: int, a: int) -> float:
    """Relative error bound of the floating absolute expansion at a of an
    exact rule, n <= Q <= 10^4: (ceil(log2 Q) + 31 + tau(a rad a)) 2^-53
    (derived in tests/test_expansion.py, TestFloatingAgainstFractionOracle)."""
    return (math.ceil(math.log2(Q)) + 31 + len(divisors(a * radical(a)))) * 2.0**-53


def check_absolute_split(cfg: EngineConfig) -> dict:
    """Truncated absolute expansion matches finite factor times truncated
    cofactor within the computed tail bound, for a <= 100.

    The series is itself computed by that split, so an independent leg
    compares it at ``oracle_x`` with the Fraction oracle (``c_holder``, no
    tables), within the derived rounding bound."""
    Q = 10_000
    oracle_x = 1000  # a checkpoint of checkpoint_schedule(Q)
    entries = [catalog("indicator_prime_powers", p0=2)] + _absolutely_convergent_exotic_instances()
    worst = {"G": None, "a": None, "excess": -math.inf}
    worst_oracle = {"G": None, "a": None, "error_over_bound": -math.inf}
    failures = []
    for G in entries:
        for a in range(1, 101):
            rep = absolute_convergence_report(G, 10_000, a, Q, config=cfg)
            slack = 1e-9 * (1.0 + rep.factor_lhs)  # float roundoff allowance
            excess = rep.factor_discrepancy - (rep.factor_tail_bound + slack)
            if excess > worst["excess"]:
                worst = {"G": G.label, "a": a, "excess": excess}
            exact = expansion_partial_sums(G, a, oracle_x, checkpoints=[oracle_x], absolute=True, exact=True).final
            error = abs(Fraction(rep.abs_expansion_series.value_at(oracle_x)) - exact)
            ratio = float(error / (Fraction(_absolute_rounding_bound(Q, a)) * exact))
            if ratio > worst_oracle["error_over_bound"]:
                worst_oracle = {"G": G.label, "a": a, "error_over_bound": ratio}
            if excess > 0 or ratio > 1 or rep.verdict != "positive":
                failures.append(
                    {
                        "G": G.label,
                        "a": a,
                        "discrepancy": rep.factor_discrepancy,
                        "tail_bound": rep.factor_tail_bound,
                        "oracle_error_over_bound": ratio,
                        "verdict": rep.verdict,
                    }
                )
    return {
        "pass": not failures,
        "Q": Q,
        "entries": [G.label for G in entries],
        "a_bound": 100,
        "worst_excess": worst,
        "oracle_x": oracle_x,
        "worst_oracle_error_over_bound": worst_oracle,
        "failures": failures[:10],
    }


def check_pointwise_zero(cfg: EngineConfig) -> dict:
    """The classical expansions of the zero function converge to 0 within
    0.02 over the final window at Q = 10^6, for a = 1..8."""
    Q = 1_000_000
    tol = 0.02
    rows = []
    ok = True
    for name in ("GR", "GH"):
        G = catalog(name)
        for a in range(1, 9):
            series = expansion_partial_sums(G, a, Q, exact=False)
            verdict = detect_convergence(series, target=0, window=cfg.window, tol=tol)
            rows.append(
                {
                    "G": name,
                    "a": a,
                    "outcome": verdict.outcome,
                    "window_spread": verdict.spread,
                    "final": to_jsonable(series.final),
                }
            )
            ok = ok and verdict.outcome == "converges_to"
    return {
        "pass": ok,
        "Q": Q,
        "tol": tol,
        "rows": rows,
    }


def check_slow_divergence(cfg: EngineConfig) -> dict:
    """|G(p)| summed over the primes keeps growing (by more than
    ``cfg.slow_growth_tol`` over the last decade below 10^6) for GR, GH, and
    G0: no absolute convergence."""
    rows = []
    ok = True
    for G in (catalog("GR"), catalog("GH"), catalog("G0", p0=2)):
        rep = absolute_convergence_report(G, 1_000_000, 1, 1000, config=cfg)
        rows.append(
            {
                "G": G.label,
                "last_decade_increase": rep.prime_abs_last_decade_increase,
                "prime_abs_verdict": rep.prime_abs_verdict,
                "verdict": rep.verdict,
            }
        )
        ok = ok and rep.prime_abs_verdict == "diverging"
    return {
        "pass": ok,
        "prime_bound": 1_000_000,
        "threshold": cfg.slow_growth_tol,
        "rows": rows,
    }


def check_squarefree_densities(cfg: EngineConfig) -> dict:
    """Squarefree counts in reduced classes at 10^6 sit within 1% of the
    density constants."""
    x = 1_000_000
    rows = []
    ok = True
    for m, r in ((1, 1), (2, 1), (4, 1), (4, 3)):
        count = count_squarefree_in_ap(x, m, r)
        c = hooley_constant(m)
        rel = abs(count / x - c) / c
        rows.append({"m": m, "r": r, "count": count, "density": count / x, "c_m": c, "rel_error": rel})
        ok = ok and rel < 0.01
    return {
        "pass": ok,
        "x": x,
        "rel_tol": 0.01,
        "rows": rows,
    }


def check_balanced_counterexample(cfg: EngineConfig) -> dict:
    """At s = 0.6 the balanced squarefree series passes Cauchy windows below
    0.05 from y = 10^5 on, while its odd restriction exceeds 10 at 10^6 with
    fitted growth exponent 0.4 +- 0.1."""
    demo = balanced_series_demo(0.6, 1_000_000, window_ys=(100_000, 150_000, 200_000, 300_000, 400_000, 500_000))
    odd_final = abs(complex(demo.odd.final))
    exponent = demo.odd_verdict.growth_exponent
    ok = (
        demo.full_windows_shrink
        and odd_final > 10.0
        and demo.odd_verdict.outcome == "diverges_to_infinity"
        and exponent is not None
        and abs(exponent - 0.4) <= 0.1
    )
    return {
        "pass": ok,
        "s": 0.6,
        "x_max": 1_000_000,
        "window_sums": [{"y": y, "abs_sum": w} for y, w in demo.window_sums],
        "window_threshold": demo.window_threshold,
        "odd_final": odd_final,
        "odd_growth_exponent": exponent,
    }


def check_zero_cloud_battery(cfg: EngineConfig) -> dict:
    """Membership verdicts: the classical pair, two invisible-prime entries,
    and a non-multiplicative sample all land in the zero cloud with every
    hypothesis check passing."""
    entries = [
        ("GR", catalog("GR"), "normal"),
        ("GH", catalog("GH"), "sporadic"),
        ("indicator_prime_powers(p0=2)", catalog("indicator_prime_powers", p0=2), "exotic"),
        ("G0(p0=2)", catalog("G0", p0=2), "exotic"),
        ("weakly_exotic_sample(p0=2)", catalog("weakly_exotic_sample"), "weakly_exotic"),
    ]
    rows = []
    ok = True
    for name, G, expected in entries:
        verdict = zero_cloud_verdict(G, cfg)
        all_pass = all(status == "pass" for _, status in verdict.hypothesis_checks)
        rows.append(to_jsonable(verdict))
        ok = ok and verdict.conclusion == "in_zero_cloud" and verdict.classification == expected and all_pass
    return {
        "pass": ok,
        "verdicts": rows,
    }


# (slug, check, time budget in seconds or None)
CHECKS = (
    ("formula_agreement", check_formula_agreement, 10.0),
    ("column_cancellation", check_column_cancellation, None),
    ("exotic_exact_zero", check_exotic_exact_zero, 5.0),
    ("classification_fixtures", check_classification_fixtures, None),
    ("peel_identities", check_peel_identities, 60.0),
    ("abel_forms", check_abel_forms, None),
    ("absolute_split", check_absolute_split, None),
    ("pointwise_zero", check_pointwise_zero, None),
    ("slow_divergence", check_slow_divergence, None),
    ("squarefree_densities", check_squarefree_densities, 30.0),
    ("balanced_counterexample", check_balanced_counterexample, None),
    ("zero_cloud_battery", check_zero_cloud_battery, None),
)


def run_all(out_dir: str | Path, cfg: EngineConfig | None = None, echo=print) -> int:
    """Run the whole battery, write one JSON artifact per check into
    ``out_dir``, and return 0 iff everything passed.

    A budgeted check passes only if it also finishes within its budget,
    which its artifact records as ``time_budget_s``."""
    cfg = cfg if cfg is not None else EngineConfig()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for idx, (slug, fn, budget_s) in enumerate(CHECKS, start=1):
        t0 = time.perf_counter()
        result = {"name": slug, **fn(cfg)}
        elapsed = time.perf_counter() - t0
        if budget_s is not None:
            result["time_budget_s"] = budget_s
            result["pass"] = result["pass"] and elapsed < budget_s
        path = out / f"{idx:02d}_{slug}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(to_jsonable(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        status = "PASS" if result["pass"] else "FAIL"
        echo(f"{status}  {slug}  ({elapsed:.1f}s)  -> {path}")
        all_ok = all_ok and result["pass"]
    return 0 if all_ok else 1
