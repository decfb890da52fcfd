#!/usr/bin/env python3
"""Classifying multiplicative functions by their spectra.

A prime p is transparent to G when G(p) = 1 and invisible when G(p^K) = 1
for every K.  Emptiness of those two sets splits the multiplicative world
into normal / sporadic / exotic, and that label decides which membership
test applies to the expansion of the zero function.  The classical pair:
1/q is normal, 1/phi(q) is sporadic (2 is transparent since phi(2) = 1,
but phi(4) = 2 breaks invisibility).
"""

from ramanujan_cloud import (
    EngineConfig,
    MultiplicativeFunction,
    catalog,
    is_weakly_exotic,
    spectrum,
    transparency_valuation,
)


def show_reports() -> None:
    entries = [
        catalog("GR"),
        catalog("GH"),
        catalog("indicator_prime_powers", p0=2),
        catalog("G0", p0=2),
        catalog("prop1"),
        catalog("lemma7_h", s=0.6),
        catalog("prop5"),
    ]
    print("--- Spectrum reports (scan bound 1000, exponent bound 16) ---")
    print(f"  {'entry':<34} {'class':<10} {'F(G)':<10} {'F0(G)':<8} {'P(G)':<6} {'a_G':<6} cert")
    for G in entries:
        rep = spectrum(G)
        print(
            f"  {G.label:<34} {rep.classification:<10} "
            f"{str(list(rep.transparent_primes)):<10} {str(list(rep.invisible_primes)):<8} "
            f"{rep.PG:<6} {str(rep.aG):<6} {rep.certified}"
        )
    print()


def show_valuations() -> None:
    print("--- Transparency valuations at p = 2 ---")
    for name in ("GR", "GH"):
        G = catalog(name)
        v = transparency_valuation(G, 2)
        print(f"  {name}: v = {v.value}  (G(2^(v+1)) is the first value leaving 1)")
    G2 = catalog("indicator_prime_powers", p0=2)
    v = transparency_valuation(G2, 2)
    print(f"  indicator of powers of 2: v = {v.value}  (2 stays invisible forever)")
    # Without declared spectra a scan cannot certify invisibility: it stops
    # at the configured exponent bound and says so.
    undeclared = MultiplicativeFunction("undeclared", rule=G2.rule, exact=True)
    v = transparency_valuation(undeclared, 2, config=EngineConfig(k_max=8))
    print(f"  same rule, spectra undeclared, k_max = 8: v = {v.value}, censored = {v.censored}\n")


def show_weakly_exotic() -> None:
    print("--- Weakly exotic certificates (r <= 100, K <= 6) ---")
    G2 = catalog("indicator_prime_powers", p0=2)
    GR = catalog("GR")
    sample = catalog("weakly_exotic_sample")
    print(f"  exotic multiplicative entry qualifies:        {is_weakly_exotic(G2, 2)}")
    print(f"  normal entry fails (G(2r) = G(r)/2):          {is_weakly_exotic(GR, 2)}")
    print(f"  non-multiplicative sample qualifies:          {is_weakly_exotic(sample, 2)}")
    print(f"  sample value is constant along 3*2^K: "
          f"{[str(sample.eval(3 * 2**K)) for K in range(5)]}\n")


if __name__ == "__main__":
    show_reports()
    show_valuations()
    show_weakly_exotic()
    print("Done.")
