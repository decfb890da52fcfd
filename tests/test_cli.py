"""CLI surface: subcommand grammar, exit codes, schema-stable JSON, CSV
shape, config plumbing, and artifact determinism."""

import json
import math
import tracemalloc
from importlib import resources

import jsonschema
import pytest

import ramanujan_cloud.cli as cli
import ramanujan_cloud.core as core
from ramanujan_cloud.cli import run
from ramanujan_cloud.config import EngineConfig
from ramanujan_cloud import reproduce
from ramanujan_cloud.reproduce import (
    check_abel_forms,
    check_absolute_split,
    check_classification_fixtures,
    check_column_cancellation,
    check_slow_divergence,
)
from ramanujan_cloud._serialize import to_jsonable


def load_schema(name: str) -> dict:
    ref = resources.files("ramanujan_cloud") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_json(capsys, argv: list[str]):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCsum:
    def test_prints_integer(self, capsys):
        assert run(["csum", "6", "3"]) == 0
        assert capsys.readouterr().out.strip() == "-2"

    def test_verify_matches_schema(self, capsys):
        code, payload = run_json(capsys, ["csum", "12", "12", "--verify"])
        assert code == 0
        jsonschema.validate(payload, load_schema("csum_verify"))
        assert payload == {"q": 12, "a": 12, "direct": 4, "kluyver": 4, "holder": 4, "agree": True}

    def test_rejects_zero(self, capsys):
        assert run(["csum", "0", "3"]) == 1


class TestClassify:
    def test_sporadic_fixture(self, capsys):
        code, payload = run_json(capsys, ["classify", "GH"])
        assert code == 0
        jsonschema.validate(payload, load_schema("classify"))
        assert payload["classification"] == "sporadic"
        assert payload["transparent_primes"] == [2]
        assert payload["PG"] == 2 and payload["aG"] == 2
        assert payload["valuations"] == {"2": 1}

    def test_exotic_uses_infinity_sentinel(self, capsys):
        code, payload = run_json(capsys, ["classify", "indicator_prime_powers", "--param", "p0=3"])
        assert code == 0
        jsonschema.validate(payload, load_schema("classify"))
        assert payload["classification"] == "exotic"
        assert payload["invisible_primes"] == [3]
        assert payload["valuations"] == {"3": "infinity"}
        assert payload["aG"] is None

    def test_normal_fixture(self, capsys):
        code, payload = run_json(capsys, ["classify", "GR"])
        assert code == 0
        assert payload["classification"] == "normal" and payload["PG"] == 1

    def test_prop1_with_a_transparent_prime_exits_one(self, capsys):
        # G(1009) = 1 lies past any fixed scan of small primes.
        assert run(["classify", "prop1", "--param", "c=1017072", "--scan-bound", "2000"]) == 1
        assert capsys.readouterr().err == "error: parameters make G(1009) = 1; entry must not be exotic\n"

    def test_scan_bound_flag(self, capsys):
        code, payload = run_json(capsys, ["classify", "GR", "--scan-bound", "73"])
        assert code == 0
        assert payload["scan_bound"] == 73

    def test_unknown_entry_is_input_error(self, capsys):
        assert run(["classify", "mystery"]) == 1

    def test_general_function_is_input_error(self, capsys):
        assert run(["classify", "weakly_exotic_sample"]) == 1


class TestExpand:
    def test_csv_to_stdout(self, capsys):
        assert run(["expand", "GR", "--a", "1", "--Q", "10", "--exact"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 11
        x, re, im = lines[-1].split(",")
        assert x == "10"
        assert float(re) == pytest.approx(19 / 210)
        assert float(im) == 0.0

    def test_csv_to_file(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert run(["expand", "G0", "--param", "p0=2", "--a", "6", "--Q", "50", "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,re,im"

    def test_exact_on_floating_entry_fails(self, capsys):
        assert run(["expand", "lemma7_h", "--a", "1", "--Q", "10", "--exact"]) == 1

    def test_unwritable_path(self, capsys):
        assert run(["expand", "GR", "--a", "1", "--Q", "10", "--csv", "/nonexistent/dir/x.csv"]) == 1

    def test_exact_over_limit_is_input_error(self, capsys):
        assert run(["expand", "GR", "--a", "1", "--Q", "20000", "--exact"]) == 1
        assert capsys.readouterr().err.startswith("error: exact mode is capped")


class TestVerdict:
    def test_member_verdict(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Q": 20000, "sample_a": [1, 2, 3, 4, 5, 6]}))
        code, payload = run_json(capsys, ["verdict", "GH", "--config", str(cfg)])
        assert code == 0
        jsonschema.validate(payload, load_schema("verdict"))
        assert payload["conclusion"] == "in_zero_cloud"
        assert payload["classification"] == "sporadic"

    def test_strict_inconclusive_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Q": 20000, "sample_a": [1, 2, 3, 4]}))
        code, payload = run_json(capsys, ["verdict", "prop5", "--config", str(cfg), "--strict"])
        assert code == 2
        assert payload["conclusion"] == "inconclusive"

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Q": 20000, "scan_bound": 67, "sample_a": [1, 2]}))
        monkeypatch.setenv("RAMANUJAN_CLOUD_CONFIG", str(cfg))
        code, payload = run_json(capsys, ["classify", "GR"])
        assert code == 0
        assert payload["scan_bound"] == 67

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quux": 1}))
        assert run(["classify", "GR", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"Q": 2000.0}, "Q"),
            ({"Q": "2000"}, "Q"),
            ({"window": 2.5, "Q": 2000}, "window"),
            # int() used to truncate a = 1.5 to 1.
            ({"sample_a": [1.5], "Q": 2000}, "sample_a"),
            # An empty r grid used to certify weakly_exotic_sample vacuously.
            ({"we_r_bound": 0, "Q": 2000}, "we_r_bound"),
        ],
    )
    def test_malformed_config_file_is_input_error(self, tmp_path, capsys, config, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run(["verdict", "GR", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("conv_tol", math.nan), ("conv_tol", -1), ("one_tol", math.inf), ("one_tol", 0),
            ("slow_growth_tol", -0.05), ("divergence_threshold", -math.inf), ("growth_exponent_min", math.nan),
        ],
    )
    def test_non_finite_or_non_positive_tolerance_is_input_error(self, tmp_path, capsys, field, value):
        # A NaN or negative tolerance used to read every verdict "inconclusive".
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value, "Q": 20000, "sample_a": [1, 2, 3]}))
        assert run(["verdict", "GH", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_removed_exact_limit_key_fails_loudly(self, tmp_path, capsys):
        # The exact-mode cap is expansion.EXACT_LIMIT; the config never had a say.
        with pytest.raises(ValueError, match="unknown config keys: \\['exact_limit'\\]"):
            EngineConfig.from_dict({"exact_limit": 5})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"Q": 20000, "exact_limit": 10000}))
        assert run(["verdict", "GR", "--config", str(cfg)]) == 1
        assert "exact_limit" in capsys.readouterr().err

    def test_wide_window_is_honoured(self, capsys):
        # Every verdict series is built on the configured window.
        code, payload = run_json(capsys, ["verdict", "GR", "--Q", "20000", "--window", "64"])
        assert code == 0
        assert payload["conclusion"] == "in_zero_cloud"

    def test_window_of_one_is_input_error(self, capsys):
        assert run(["verdict", "GR", "--Q", "20000", "--window", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: window must be >= 2")

    def test_meaningless_squarefree_cap_is_input_error(self, capsys):
        assert run(["verdict", "prop1", "--param", "cap=-1", "--Q", "20000"]) == 1
        assert capsys.readouterr().err.startswith("error: prop1(alpha=1.0, c=1.0): squarefree_cap must be a finite real > 0")

    def test_over_budget_is_input_error(self, monkeypatch, capsys):
        monkeypatch.setattr(core, "SIEVE_BUDGET", 10**5)
        tracemalloc.start()
        try:
            code = run(["verdict", "GR", "--Q", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert peak < 2**20


def last_partial_sum(capsys, argv: list[str]) -> list[float]:
    """(re, im) of the last row of the CSV that ``expand`` prints."""
    assert run(argv) == 0
    return [float(v) for v in capsys.readouterr().out.split()[-1].split(",")[1:]]


class TestSignedSeriesAtScale:
    # The signed series at the default config and at Q up to 10^7.  Their
    # index arithmetic mixes int64 arrays with Python ints, whose promotion
    # differs between the numpy majors (NEP 50), so they run on both.

    @pytest.mark.parametrize("entry", ["GR", "GH", "prop1"])
    def test_classical_verdicts_at_the_default_config(self, capsys, entry):
        """The peel behind these verdicts closes int64 point arrays under
        z -> z // p for Python-int primes p, and reads R_6 off the G mu
        table at the int64 entries (z + 5) // 6 + (z + 1) // 6."""
        code, payload = run_json(capsys, ["verdict", entry])
        assert code == 0 and payload["conclusion"] == "in_zero_cloud"

    @pytest.mark.parametrize(
        "argv",
        [
            ["indicator_prime_powers"],
            ["G0"],
            ["weakly_exotic_sample"],
            ["indicator_prime_powers", "--param", "p0=3"],
            ["G0", "--param", "p0=3"],
        ],
        ids=" ".join,
    )
    def test_invisible_prime_verdicts_at_the_default_config(self, capsys, argv):
        """The multiplicative entries peel every sampled a off one G mu
        table, through a trie of radicals whose int64 points are divided by
        Python-int primes; only weakly_exotic_sample takes the strided kernel,
        which sums its segments through np.add.reduceat index arrays built
        from int64 points and Python ints.  With p0 = 3 the invisible prime
        need not be the smallest prime of a radical, so some trie nodes do
        not contain it."""
        code, payload = run_json(capsys, ["verdict", *argv])
        assert code == 0 and payload["conclusion"] == "in_zero_cloud"

    @pytest.mark.parametrize(
        "argv, statuses",
        [
            (["prop5"], ["pass", "fail", "fail", "inconclusive"]),
            (["prop5", "--param", "s=0.6+0.3j"], ["pass", "fail", "fail", "inconclusive"]),
            (["lemma7_h"], ["pass", "inconclusive", "inconclusive", "inconclusive"]),
            (["lemma7_h", "--param", "s=0.6+0.3j"], ["pass", "inconclusive", "inconclusive", "inconclusive"]),
            (["prop5", "--param", "g2=2"], ["pass", "fail", "inconclusive", "inconclusive"]),
            (["prop5", "--param", "p2=5", "--param", "g2=2"], ["pass", "fail", "inconclusive", "inconclusive"]),
        ],
        ids=["prop5", "prop5 s=0.6+0.3j", "lemma7_h", "lemma7_h s=0.6+0.3j", "prop5 g2=2", "prop5 p2=5 g2=2"],
    )
    def test_verdicts_that_batch_both_signed_kernels(self, capsys, argv, statuses):
        """prop5 with p2 = 5 and g2 = 2 has G(5) = 2, so one batch sends the
        5 radicals divisible by 5 to the strided kernel and peels the other
        26.  The kernel rule reads the primes above 3 only, so the other
        entries peel every radical: prop5 and lemma7_h at their defaults
        have |G(2)| > 1, and prop5 with g2 = 2 has G(3) = 2.  Each T_{d,b}
        reads its trie node of the primes above 3, at every m' dividing
        rad(6d) / gcd(6, b), with G(2) and G(3) in the coefficient
        mu(m') G(dm').  Statuses are checked in order, the conclusion last;
        both lemma7_h entries and both prop5 entries with g2 = 2 are
        inconclusive at the default config."""
        code, payload = run_json(capsys, ["verdict", *argv])
        assert code == 0
        assert [status for _, status in payload["hypothesis_checks"]] + [payload["conclusion"]] == statuses

    def test_signed_expansion_through_the_peel(self, capsys):
        """GR at a = 945 = 3^3 * 5 * 7 sums d T_{d,1} over its 32 divisors,
        126 terms in all, each read off a trie of radicals whose int64
        points are divided by Python-int primes.  The last partial sum is near 0 (-6.6e-4)."""
        re, _ = last_partial_sum(capsys, ["expand", "GR", "--a", "945", "--Q", "1000000"])
        assert abs(re) <= 2e-3

    @pytest.mark.parametrize("argv", [["GH"], ["G0", "--param", "p0=3"]], ids=" ".join)
    def test_signed_expansions_at_ten_million_through_the_block_fused_sieve(self, capsys, argv):
        """The G mu table at the n coprime to 6 is built in 13 blocks of
        2^18 entries; each block's phase-2 pairs come from int64 arrays of
        cofactors coprime to 6 divided into Python-int block bounds and
        scattered at the int64 entries m * P // 3 + 1.  Both last partial
        sums are near 0 (1.6e-4 and -2.6e-4)."""
        re, _ = last_partial_sum(capsys, ["expand", *argv, "--a", "290", "--Q", "10000000"])
        assert abs(re) <= 2e-3

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["prop5", "--param", "s=0.6+0.3j", "--a", "1"], [0.0493762569223733, 0.1301713665258145]),
            (["lemma7_h", "--param", "s=0.6+0.3j", "--a", "2"], [-0.2838305307290378, -0.5643574055069320]),
        ],
        ids=["prop5", "lemma7_h"],
    )
    def test_complex_expansions_through_the_block_fused_sieve(self, capsys, argv, want):
        """Complex tables are multiplied on their float64 planes, one block
        at a time, so their bytes do not depend on how numpy splits a
        slice.  Both read a complex G mu table through the peel, whose
        complex products go through the same plane rule; lemma7_h at a = 2
        multiplies by G(2) and G(4) in its coefficients.  Last partial sums within
        1e-9."""
        got = last_partial_sum(capsys, ["expand", *argv, "--Q", "1000000"])
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9, got


class TestAbsconv:
    def test_schema_and_verdict(self, capsys):
        code, payload = run_json(
            capsys,
            ["absconv", "indicator_prime_powers", "--param", "p0=2", "--a", "6", "--B", "2000", "--Q", "2000"],
        )
        assert code == 0
        jsonschema.validate(payload, load_schema("absconv"))
        assert payload["verdict"] == "positive"
        assert payload["prime_abs_verdict"] == "bounded"

    def test_negative_case(self, capsys):
        code, payload = run_json(capsys, ["absconv", "GR", "--a", "1", "--B", "100000", "--Q", "2000"])
        assert code == 0
        assert payload["verdict"] == "negative"

    def test_absolute_series_through_hardys_split(self, capsys):
        """a = 360 sums 60 divisors d of a rad(a), each a strided pass over
        the value and mu tables read at points built from int64 and Python
        ints (NEP 50).  The split is exact, so the discrepancy from finite
        times cofactor equals the tail bound up to roundoff."""
        code, r = run_json(capsys, ["absconv", "GR", "--a", "360", "--B", "100000", "--Q", "100000"])
        assert code == 0 and r["verdict"] == "negative", r["verdict"]
        assert r["factor_discrepancy"] <= r["factor_tail_bound"] + 1e-9 * (1 + r["factor_lhs"]), r


class TestSfcount:
    def test_schema_and_count(self, capsys):
        code, payload = run_json(capsys, ["sfcount", "--x", "10", "--m", "1", "--r", "1"])
        assert code == 0
        jsonschema.validate(payload, load_schema("sfcount"))
        assert payload["count"] == 7

    def test_non_reduced_class(self, capsys):
        assert run(["sfcount", "--x", "10", "--m", "4", "--r", "2"]) == 1

    def test_count_from_the_mobius_table(self, capsys):
        """Squarefree counts read strided views of the int8 mu table
        (mu != 0); run them on both numpy majors."""
        code, payload = run_json(capsys, ["sfcount", "--x", "1000000", "--m", "1", "--r", "1"])
        assert code == 0 and payload["count"] == 607926


class TestLemma7:
    def test_schema_and_csv(self, tmp_path, capsys):
        full_csv = tmp_path / "full.csv"
        odd_csv = tmp_path / "odd.csv"
        code, payload = run_json(
            capsys,
            ["lemma7", "--s", "0.6", "--to", "100000", "--csv", str(full_csv), "--csv-odd", str(odd_csv)],
        )
        assert code == 0
        jsonschema.validate(payload, load_schema("lemma7"))
        assert payload["odd_outcome"] == "diverges_to_infinity"
        assert full_csv.read_text().startswith("x,re,im\n")
        assert odd_csv.read_text().startswith("x,re,im\n")

    def test_bad_s(self, capsys):
        assert run(["lemma7", "--s", "0.5", "--to", "1000"]) == 1


class TestDispatch:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required(self, capsys):
        assert run(["sfcount", "--x", "10"]) == 1

    def test_bad_param_syntax(self, capsys):
        assert run(["classify", "G0", "--param", "p0:3"]) == 1


class TestDeterminism:
    def test_artifacts_are_reproducible(self):
        cfg = EngineConfig()
        for fn in (check_column_cancellation, check_abel_forms):
            a = fn(cfg)
            b = fn(cfg)
            assert json.dumps(to_jsonable(a), sort_keys=True) == json.dumps(to_jsonable(b), sort_keys=True)

    def test_seed_changes_trials(self):
        a = check_abel_forms(EngineConfig(seed=0))
        b = check_abel_forms(EngineConfig(seed=1))
        assert a["pass"] and b["pass"]
        assert a["seed"] != b["seed"]

    @pytest.mark.parametrize("fn", [check_column_cancellation, check_abel_forms])
    def test_checks_return_only_their_evidence(self, fn):
        # Naming, timing and budgets belong to the driver, not to the checks.
        assert not {"name", "elapsed_s", "time_budget_s"} & fn(EngineConfig()).keys()


class TestChecksHonourTheConfig:
    def test_slow_divergence_reads_slow_growth_tol(self):
        # No prime sum grows by 10^9 over a decade, so none reads as diverging.
        result = check_slow_divergence(EngineConfig(slow_growth_tol=1e9))
        assert not result["pass"] and result["threshold"] == 1e9
        assert {row["prime_abs_verdict"] for row in result["rows"]} == {"bounded"}

    def test_absolute_split_reads_slow_growth_tol(self):
        # At 1e-12 the inverse squares' prime sum reads as diverging, so the
        # positive verdicts the check requires are gone.
        result = check_absolute_split(EngineConfig(slow_growth_tol=1e-12))
        assert not result["pass"]
        assert {f["verdict"] for f in result["failures"]} == {"negative"}

    def test_classification_fixtures_read_the_scan_bound(self):
        result = check_classification_fixtures(EngineConfig(scan_bound=67, k_max=4))
        assert result["pass"]
        assert {(r["scan_bound"], r["exponent_bound"]) for r in result["reports"].values()} == {(67, 4)}


# A budget of 0 s cannot be met, so the first stub overruns it.
_STUB_CHECKS = (
    ("over_budget", lambda cfg: {"pass": True, "x": 1}, 0.0),
    ("within_budget", lambda cfg: {"pass": True}, 60.0),
    ("unbudgeted", lambda cfg: {"pass": True}, None),
)


class TestRunAll:
    @pytest.fixture
    def stub_run(self, monkeypatch, tmp_path):
        """Run the driver over the stub checks: (exit code, artifacts by slug, echo lines)."""
        monkeypatch.setattr(reproduce, "CHECKS", _STUB_CHECKS)
        lines = []
        code = reproduce.run_all(tmp_path, EngineConfig(), echo=lines.append)
        art = {
            slug: json.loads((tmp_path / f"{i:02d}_{slug}.json").read_text())
            for i, (slug, _, _) in enumerate(_STUB_CHECKS, start=1)
        }
        return code, art, lines

    def test_over_budget_check_fails_the_run(self, stub_run):
        code, art, lines = stub_run
        assert code == 1
        assert art["over_budget"] == {"name": "over_budget", "pass": False, "time_budget_s": 0.0, "x": 1}
        assert art["within_budget"] == {"name": "within_budget", "pass": True, "time_budget_s": 60.0}
        assert [line.split()[:2] for line in lines] == [
            ["FAIL", "over_budget"],
            ["PASS", "within_budget"],
            ["PASS", "unbudgeted"],
        ]

    @pytest.mark.parametrize("code, strict, want", [(0, False, 0), (0, True, 0), (1, False, 1), (1, True, 2)])
    def test_reproduce_all_exit_codes(self, monkeypatch, tmp_path, code, strict, want):
        # The battery is stubbed out: only the CLI's mapping of its result runs.
        monkeypatch.delenv("RAMANUJAN_CLOUD_CONFIG", raising=False)
        calls = []
        monkeypatch.setattr(cli, "run_all", lambda out, cfg: calls.append((out, cfg)) or code)
        argv = ["reproduce-all", "--out", str(tmp_path), *(["--strict"] if strict else [])]
        assert run(argv) == want
        assert calls == [(str(tmp_path), EngineConfig())]

    def test_unbudgeted_check_has_no_budget_key(self, stub_run):
        _, art, _ = stub_run
        assert art["unbudgeted"] == {"name": "unbudgeted", "pass": True}

    def test_every_artifact_is_named_and_untimed(self, stub_run):
        _, art, _ = stub_run
        for slug, result in art.items():
            assert result["name"] == slug
            assert "elapsed_s" not in result
