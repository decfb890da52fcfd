"""Multiplicative-function modeling: evaluation, spectra, classification,
the weakly-exotic certificate, and the catalog entries."""

import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_cloud import (
    FormulaInconsistencyError,
    GeneralArithmeticFunction,
    MultiplicativeFunction,
    catalog,
    catalog_names,
    is_weakly_exotic,
    sieve_primes,
    spectrum,
    transparency_valuation,
    valuation,
)
from ramanujan_cloud.multiplicative import INFINITE

# Every catalog entry that carries a numpy ``at_primes`` form.
FORM_ENTRIES = [
    pytest.param("GR", {}, id="GR"),
    pytest.param("GH", {}, id="GH"),
    *[pytest.param("G0", {"p0": p0}, id=f"G0-{p0}") for p0 in (2, 3, 5, 7)],
    *[pytest.param("indicator_prime_powers", {"p0": p0}, id=f"indicator-{p0}") for p0 in (2, 3, 5, 7)],
    pytest.param("G0", {"p0": 3, "off_prime_powers": lambda p, e: Fraction(1, p ** (2 * e))}, id="G0-3-off"),
]


def all_multiplicative_entries():
    return [
        catalog("GR"),
        catalog("GH"),
        catalog("indicator_prime_powers", p0=2),
        catalog("G0", p0=2),
        catalog("prop1"),
        catalog("lemma7_h", s=0.6),
        catalog("prop5"),
    ]


class TestEval:
    def test_classical_values(self):
        assert catalog("GR").eval(12) == Fraction(1, 12)
        assert catalog("GH").eval(12) == Fraction(1, 4)
        assert catalog("GH").eval(2) == 1
        assert catalog("indicator_prime_powers", p0=2).eval(12) == 0
        assert catalog("indicator_prime_powers", p0=2).eval(16) == 1
        assert catalog("G0", p0=3).eval(9) == 1
        assert catalog("G0", p0=3).eval(5) == Fraction(1, 5)

    def test_value_at_one(self):
        for G in all_multiplicative_entries():
            assert G.eval(1) == 1

    def test_lemma7_h_value(self):
        h = catalog("lemma7_h", s=0.6)
        assert h.eval(2) == pytest.approx(-2 * 2**-0.6)
        assert h.eval(3) == pytest.approx(3**-0.6)
        assert h.eval(4) == 0

    def test_multiplicative_extension(self):
        for G in all_multiplicative_entries():
            for m in range(1, 100):
                for n in range(1, 10_000 // max(m, 1) + 1):
                    if gcd(m, n) != 1:
                        continue
                    lhs = G.eval(m * n)
                    rhs = G.eval(m) * G.eval(n)
                    if G.exact:
                        assert lhs == rhs
                    else:
                        assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            catalog("GR").eval(0)

    def test_exactness_types(self):
        for G in (catalog("GR"), catalog("GH"), catalog("G0", p0=2)):
            assert G.exact
            assert isinstance(G.eval(360), (int, Fraction))

    def test_squarefree_cap_clamps(self):
        tight = catalog("prop1", cap=0.5)
        assert abs(tight.eval(6)) == pytest.approx(0.5 / 6)
        loose = catalog("prop1")
        p6 = loose.eval(2) * loose.eval(3)
        assert loose.eval(6) == pytest.approx(p6)


class TestValuation:
    def test_classical(self):
        assert transparency_valuation(catalog("GH"), 2, 16).value == 1
        assert transparency_valuation(catalog("GR"), 2, 16).value == 0
        v = transparency_valuation(catalog("indicator_prime_powers", p0=2), 2, 16)
        assert v.value == INFINITE and not v.censored

    def test_censoring_without_declaration(self):
        G = MultiplicativeFunction("all-ones-at-2", rule=lambda p, e: 1 if p == 2 else 0, exact=True)
        v = transparency_valuation(G, 2, 8)
        assert v.value == 8 and v.censored

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            transparency_valuation(catalog("GR"), 4, 8)


class TestSpectrum:
    def test_classification_fixtures(self):
        gr = spectrum(catalog("GR"))
        assert gr.classification == "normal" and gr.PG == 1 and gr.aG == 1
        assert gr.transparent_primes == () and gr.certified

        gh = spectrum(catalog("GH"))
        assert gh.classification == "sporadic"
        assert gh.transparent_primes == (2,) and gh.invisible_primes == ()
        assert gh.PG == 2 and gh.aG == 2 and gh.valuations[2] == 1 and gh.certified

        g2 = spectrum(catalog("indicator_prime_powers", p0=2))
        assert g2.classification == "exotic"
        assert g2.invisible_primes == (2,) and g2.aG is None and g2.certified

    def test_catalog_wide_trichotomy(self):
        expected = {
            "GR": "normal",
            "GH": "sporadic",
            "indicator_prime_powers(p0=2)": "exotic",
            "G0(p0=2)": "exotic",
        }
        for G in all_multiplicative_entries():
            rep = spectrum(G)
            assert rep.classification in ("normal", "sporadic", "exotic")
            if G.label in expected:
                assert rep.classification == expected[G.label]

    def test_invisible_subset_of_transparent(self):
        for G in all_multiplicative_entries():
            rep = spectrum(G)
            assert set(rep.invisible_primes) <= set(rep.transparent_primes)

    def test_aG_valuations(self):
        for G in all_multiplicative_entries():
            rep = spectrum(G)
            if rep.classification == "exotic":
                assert rep.aG is None
                continue
            for p in rep.transparent_primes:
                assert valuation(p, rep.aG) == rep.valuations[p]
            assert all(valuation(p, rep.aG) == 0
                       for p in (2, 3, 5, 7) if p not in rep.transparent_primes)

    def test_lying_declaration_raises(self):
        liar = MultiplicativeFunction(
            "liar",
            rule=lambda p, e: Fraction(1, p),
            exact=True,
            declared_transparent=frozenset({2}),
            declared_invisible=frozenset(),
        )
        with pytest.raises(FormulaInconsistencyError):
            spectrum(liar)

    def test_scan_bound_must_cover_declared(self):
        G = MultiplicativeFunction(
            "far-spectrum",
            rule=lambda p, e: 1 if p == 101 else 0,
            exact=True,
            declared_transparent=frozenset({101}),
            declared_invisible=frozenset({101}),
        )
        with pytest.raises(ValueError):
            spectrum(G, scan_bound=50)
        assert spectrum(G, scan_bound=200).classification == "exotic"

    def test_uncensored_scan_of_plain_rule(self):
        # No declarations: invisibility at 2 is inferred (and flagged).
        G = MultiplicativeFunction("plain", rule=lambda p, e: 1 if p == 2 else 0, exact=True)
        rep = spectrum(G, scan_bound=100, k_max=8)
        assert rep.classification == "exotic"
        assert not rep.certified

    @given(st.integers(min_value=0, max_value=3**6 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_rules_keep_invariants(self, code):
        # Three-valued rule on the primes up to 13, encoding in base 3.
        primes = (2, 3, 5, 7, 11, 13)
        choices = (Fraction(1), Fraction(1, 2), Fraction(0))
        digits = {p: choices[(code // 3**i) % 3] for i, p in enumerate(primes)}

        def rule(p, e):
            return digits.get(p, Fraction(1, p)) if e == 1 else digits.get(p, Fraction(1, p)) ** e

        rep = spectrum(MultiplicativeFunction("random", rule=rule, exact=True), scan_bound=50, k_max=6)
        assert set(rep.invisible_primes) <= set(rep.transparent_primes)
        trichotomy = {
            "normal": not rep.transparent_primes,
            "sporadic": bool(rep.transparent_primes) and not rep.invisible_primes,
            "exotic": bool(rep.invisible_primes),
        }
        assert trichotomy[rep.classification]
        for p in rep.transparent_primes:
            assert rep.valuations[p] >= 1


class TestWeaklyExotic:
    def test_exotic_multiplicative_qualifies(self):
        assert is_weakly_exotic(catalog("indicator_prime_powers", p0=2), 2, 100, 6)

    def test_normal_fails(self):
        assert not is_weakly_exotic(catalog("GR"), 2, 100, 6)

    def test_sample_qualifies(self):
        w = catalog("weakly_exotic_sample")
        assert w.invisible_prime == 2
        assert is_weakly_exotic(w, 2, 100, 6)
        assert w.eval(3) == w.eval(6) == w.eval(12) == w.eval(48)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            is_weakly_exotic(catalog("GR"), 6, 10, 2)


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) == {
            "GR",
            "GH",
            "indicator_prime_powers",
            "G0",
            "prop1",
            "lemma7_h",
            "prop5",
            "weakly_exotic_sample",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("nope")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            catalog("GR", p0=5)

    def test_prop5_validates_g2(self):
        with pytest.raises(ValueError):
            catalog("prop5", s=0.6, p1=2, p2=3, g2=3**0.4)
        entry = catalog("prop5", s=0.6)
        assert entry.eval(2) == pytest.approx(2**0.4)
        assert entry.eval(5) == pytest.approx(-(5**-0.6))

    def test_prop5_square_zero(self):
        entry = catalog("prop5", p1_square_zero=True)
        assert entry.eval(4) == 0
        assert entry.eval(8) == 0

    def test_lemma7_h_rejects_bad_s(self):
        with pytest.raises(ValueError):
            catalog("lemma7_h", s=1.2)
        with pytest.raises(ValueError):
            catalog("lemma7_h", s=0.5)

    def test_weakly_exotic_sample_validates_base(self):
        with pytest.raises(ValueError):
            catalog("weakly_exotic_sample", p0=2, base={2: Fraction(1)})

    def test_indicator_requires_prime(self):
        with pytest.raises(ValueError):
            catalog("indicator_prime_powers", p0=6)

    def test_prop1_is_normal(self):
        rep = spectrum(catalog("prop1"))
        assert rep.classification == "normal"
        g = catalog("prop1", alpha=1.0, c=1.0)
        assert g.eval(5) == pytest.approx(1 / 5 + 5**-2.0)

    def test_prop1_higher_power_override(self):
        g = catalog("prop1", higher_power=lambda p, e: 0.0)
        assert g.eval(4) == 0
        assert g.eval(2) == pytest.approx(1 / 2 + 2**-2.0)

    def test_g0_off_prime_override(self):
        g = catalog("G0", p0=2, off_prime_powers=lambda p, e: Fraction(1, p))
        assert g.exact
        assert g.eval(9) == Fraction(1, 3)   # overridden at e = 2
        assert g.eval(3) == Fraction(1, 3)   # squarefree values unchanged
        assert g.eval(8) == 1
        assert spectrum(g).classification == "exotic"

    def test_declaration_shape_enforced(self):
        with pytest.raises(ValueError):
            MultiplicativeFunction(
                "half-declared",
                rule=lambda p, e: 0,
                declared_transparent=frozenset({2}),
            )
        with pytest.raises(ValueError):
            MultiplicativeFunction(
                "inverted",
                rule=lambda p, e: 0,
                declared_transparent=frozenset(),
                declared_invisible=frozenset({2}),
            )


class TestPrimeForms:
    @pytest.mark.parametrize("name, kw", FORM_ENTRIES)
    def test_form_is_bit_identical_to_rule(self, name, kw):
        G = catalog(name, **kw)
        P = sieve_primes(10**6)
        got = G.at_primes(P)
        want = np.array([float(G.rule(p, 1)) for p in P.tolist()])
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_forms_only_on_division_entries(self):
        for G in (catalog("prop1"), catalog("lemma7_h", s=0.6), catalog("prop5")):
            assert G.at_primes is None

    def test_matching_custom_forms_accepted(self):
        G = MultiplicativeFunction("inverse squares", rule=lambda p, e: Fraction(1, p ** (2 * e)), at_primes=lambda P: 1.0 / (P * P))
        assert G.at_primes is not None
        MultiplicativeFunction("constant 2i", rule=lambda p, e: 2j, at_primes=lambda P: np.full(len(P), 2j))

    @pytest.mark.parametrize(
        "rule, at_primes",
        [
            (lambda p, e: Fraction(1, p**e), lambda P: 1.0 / (P + 1)),
            (lambda p, e: Fraction(1, p**e), lambda P: np.where(P == 97, 0.0, 1.0 / P)),  # wrong only at 97
            (lambda p, e: 1j, lambda P: np.ones(len(P))),  # complex rule, real form
            (lambda p, e: 1, lambda P: np.full(len(P), 1 + 1e-9j)),
            (lambda p, e: Fraction(1, p**e), lambda P: 0.5),
            (lambda p, e: Fraction(1, p**e), lambda P: (1.0 / P)[:-1]),
        ],
    )
    def test_mismatched_custom_forms_rejected(self, rule, at_primes):
        with pytest.raises(ValueError, match="at_primes"):
            MultiplicativeFunction("custom", rule=rule, at_primes=at_primes)


class TestGeneralFunction:
    def test_eval_and_guards(self):
        g = GeneralArithmeticFunction("sample", fn=lambda n: n % 3, exact=True)
        assert g.eval(5) == 2
        with pytest.raises(ValueError):
            g.eval(0)

    def test_spectrum_rejects_it_by_name(self):
        g = GeneralArithmeticFunction("sample", fn=lambda n: n % 3, exact=True)
        with pytest.raises(ValueError, match="sample is not multiplicative"):
            spectrum(g)

    @pytest.mark.parametrize(
        "p0, base",
        [
            (2, None),
            (5, None),
            (3, {1: Fraction(1), 2: 0.5, 5: Fraction(-1, 3), 7: 3, 11: -0.1}),
        ],
    )
    def test_weakly_exotic_table_matches_eval(self, p0, base):
        G = catalog("weakly_exotic_sample", p0=p0, base=base)
        for Q in (1, 2, 3, 4, 10, 97, 1000, 20_000):
            want = np.array([0.0] + [float(G.eval(n)) for n in range(1, Q + 1)])
            got = G.table(Q)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), Q
