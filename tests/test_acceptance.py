"""Acceptance battery: every headline requirement at its pinned tolerance.

The module runs the full `reproduce-all` driver once; each test then reads
the artifact of its own check and prints the driver's PASS/FAIL line for it
(run with `pytest -s` to see them).  For a check with a time budget the
driver folds elapsed < budget into its artifact's ``pass``.
"""

import json
import sys

import numpy as np
import pytest

from ramanujan_cloud.config import EngineConfig
from ramanujan_cloud import core, expansion, reproduce

CFG = EngineConfig()

# Every function that builds a shared numeric table.  Complex tables, and
# the peel's complex products, are multiplied on their float planes, one IEEE
# operation at a time, so their bytes do not depend on how numpy splits a
# slice; the battery still reads real tables only.
TABLE_BUILDERS = (core.multiplicative_sieve, expansion._value_table, expansion._gmu_table)


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """Run the battery once, recording the dtype of every table built."""
    out = tmp_path_factory.mktemp("artifacts")
    lines = []
    dtypes = set()
    with pytest.MonkeyPatch.context() as mp:
        for original in TABLE_BUILDERS:
            def recorded(*args, _fn=original, **kw):
                table = _fn(*args, **kw)
                dtypes.add((_fn.__name__, table.dtype))
                return table

            # Rebind every module name that holds the builder, including
            # names imported with ``from ... import``.
            for name, module in list(sys.modules.items()):
                if name == "ramanujan_cloud" or name.startswith("ramanujan_cloud."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            mp.setattr(module, attr, recorded)
        code = reproduce.run_all(out, CFG, echo=lines.append)
    return code, out, lines, dtypes


def artifact(battery, number: int) -> tuple[dict, str]:
    """Artifact ``number`` (1-based) of the battery and the driver's line for it."""
    _, out, lines, _ = battery
    slug = reproduce.CHECKS[number - 1][0]
    line = next(line for line in lines if line.split()[1] == slug)
    return json.loads((out / f"{number:02d}_{slug}.json").read_text()), line


def report(line: str, detail: str = "") -> None:
    print(f"{line}  [{detail}]" if detail else line)


def test_01_formula_agreement_on_full_grid(battery):
    result, line = artifact(battery, 1)
    report(line, f"{result['triples_checked']} triples, exact equality, < {result['time_budget_s']}s")
    assert result["mismatches"] == []
    assert result["pass"]


def test_02_prime_power_columns_cancel_exactly(battery):
    result, line = artifact(battery, 2)
    report(line, "p <= 50, a <= 200, exact zeros")
    assert result["failures"] == []
    assert result["pass"]


def test_03_exotic_expansions_vanish_exactly(battery):
    result, line = artifact(battery, 3)
    report(line, "p0 in {2,3,5}, a <= 1000, exact zero at Q = p0^(v+1)")
    assert result["failures"] == []
    assert result["pass"]


def test_04_classification_fixtures_exact(battery):
    result, line = artifact(battery, 4)
    report(line, "GR normal, GH sporadic F={2} PG=2 aG=2, G2 exotic F0={2}")
    assert result["reports"]["GR"]["classification"] == "normal"
    assert result["reports"]["GH"]["classification"] == "sporadic"
    assert result["reports"]["GH"]["PG"] == 2
    assert result["reports"]["GH"]["aG"] == 2
    assert result["reports"]["indicator_prime_powers(p0=2)"]["classification"] == "exotic"
    assert result["pass"]


def test_05_peel_identities_exhaustive(battery):
    result, line = artifact(battery, 5)
    report(line, f"{result['identities_checked']} identities, exact, < {result['time_budget_s']}s")
    assert result["failures"] == []
    assert result["pass"]


def test_06_abel_summed_forms_agree_on_random_rules(battery):
    result, line = artifact(battery, 6)
    report(line, "500 randomized exact rational rules, a <= 500")
    assert result["trials"] == 500
    assert result["failures"] == []
    assert result["pass"]


def test_07_absolute_series_factorization_within_tail(battery):
    result, line = artifact(battery, 7)
    worst = result["worst_oracle_error_over_bound"]["error_over_bound"]
    report(line, f"finite factor x cofactor vs direct, a <= 100, Q = 10^4; Fraction oracle at x = 1000, {worst:.3f} of bound")
    assert result["oracle_x"] == 1000
    assert 0 <= worst <= 1
    assert result["failures"] == []
    assert result["pass"]


def test_08_classical_expansions_converge_to_zero(battery):
    result, line = artifact(battery, 8)
    worst = max(row["window_spread"] for row in result["rows"])
    report(line, f"Q = 10^6, tol 0.02, worst window spread {worst:.4f}")
    assert all(row["outcome"] == "converges_to" for row in result["rows"])
    assert worst <= 0.02
    assert result["pass"]


def test_09_prime_abs_sums_keep_growing(battery):
    result, line = artifact(battery, 9)
    report(line, "last-decade increase > 0.05 at 10^6 for GR, GH, G0")
    for row in result["rows"]:
        assert row["last_decade_increase"] > 0.05
        assert row["prime_abs_verdict"] == "diverging"
    assert result["pass"]


def test_10_squarefree_densities_within_one_percent(battery):
    result, line = artifact(battery, 10)
    worst = max(row["rel_error"] for row in result["rows"])
    report(line, f"x = 10^6, worst relative error {worst:.2e}")
    assert all(row["rel_error"] < 0.01 for row in result["rows"])
    assert result["pass"]


def test_11_balanced_counterexample_behaviors(battery):
    result, line = artifact(battery, 11)
    report(
        line,
        f"windows < 0.05 for y >= 1e5; odd final {result['odd_final']:.1f} > 10; "
        f"exponent {result['odd_growth_exponent']:.3f} in 0.4 +- 0.1",
    )
    assert all(w["abs_sum"] < 0.05 for w in result["window_sums"])
    assert result["odd_final"] > 10
    assert abs(result["odd_growth_exponent"] - 0.4) <= 0.1
    assert result["pass"]


def test_12_reproduce_all_zero_cloud_verdicts(battery):
    # The full driver: every artifact must pass, and the membership battery
    # must put all five entries in the zero cloud with every hypothesis
    # check recorded as passed.
    code, out, _, _ = battery
    assert code == 0
    artifacts = sorted(p.name for p in out.glob("*.json"))
    assert len(artifacts) == len(reproduce.CHECKS)

    result, line = artifact(battery, 12)
    report(line, "GR, GH, G2, G0, weakly exotic sample all in the zero cloud")
    assert result["pass"]
    expected = {
        "GR": ("normal", "in_zero_cloud"),
        "GH": ("sporadic", "in_zero_cloud"),
        "indicator_prime_powers(p0=2)": ("exotic", "in_zero_cloud"),
        "G0(p0=2)": ("exotic", "in_zero_cloud"),
        "weakly_exotic_sample(p0=2)": ("weakly_exotic", "in_zero_cloud"),
    }
    seen = {v["label"]: (v["classification"], v["conclusion"]) for v in result["verdicts"]}
    assert seen == expected
    for verdict in result["verdicts"]:
        assert all(status == "pass" for _, status in verdict["hypothesis_checks"])


def test_battery_builds_no_complex_table(battery):
    # Artifact bytes depend only on config and seed, and every check reads
    # real tables; a complex entry in the battery would be a new input.
    dtypes = battery[3]
    assert {name for name, _ in dtypes} == {fn.__name__ for fn in TABLE_BUILDERS}
    assert not [entry for entry in dtypes if np.issubdtype(entry[1], np.complexfloating)]
