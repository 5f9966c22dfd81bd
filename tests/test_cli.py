"""The command-line surface: rendering, JSON schema, exit codes, determinism."""

import json

import pytest

from trunclog.cli import build_parser, main
from trunclog.verify import TheoremId, VerifyReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestShow:
    def test_glog_p3_text(self, capsys):
        code, out, _ = run(capsys, "show", "glog", "--prime", "3")
        assert code == 0
        assert "-X - X^2/(a + 2)" in out

    def test_laguerre_p3_text(self, capsys):
        code, out, _ = run(capsys, "show", "laguerre", "--prime", "3")
        assert code == 0
        assert "(2*a^2 + 1)" in out and "2*X^2" in out

    def test_show_all_json(self, capsys):
        code, out, _ = run(capsys, "show", "all", "--prime", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["prime"] == 5
        assert payload["glog"]["coefficients"][0]["power"] == 1
        assert "b[1,1]" in payload["b"]
        assert payload["polylog"]["order"] == 1

    def test_show_b_text(self, capsys):
        code, out, _ = run(capsys, "show", "b", "--prime", "5")
        assert code == 0
        assert "b[1,1](a) = 3*a^2 + a + 1" in out


class TestTable:
    def test_b_roots_csv(self, capsys):
        code, out, _ = run(capsys, "table", "b-roots", "--prime", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,s,roots,degree"
        assert lines[1] == "5,1,1;2,2"
        assert len(lines) == 4


class TestVerifyCommand:
    def test_single_theorem_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--prime", "5", "--theorem", "RootsTheorem",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert isinstance(obj, dict)
        assert obj["status"] == "pass"
        assert obj["cases"] == 12
        assert set(obj) == {"prime", "theorem", "cases", "status", "witness", "elapsed_ms"}

    def test_all_theorems_text(self, capsys):
        code, out, _ = run(capsys, "verify", "--prime", "3")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l.startswith("[pass]")]
        assert len(lines) == len(TheoremId)

    def test_prime_range_runs_sequentially(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--prime", "3..7", "--theorem", "Symmetry",
            "--format", "json",
        )
        assert code == 0
        objs = json.loads(out)
        assert [o["prime"] for o in objs] == [3, 5, 7]

    def test_json_determinism_apart_from_elapsed(self, capsys):
        def snapshot():
            code, out, _ = run(
                capsys, "verify", "--prime", "7", "--format", "json"
            )
            assert code == 0
            objs = json.loads(out)
            for o in objs:
                o["elapsed_ms"] = 0
            return objs

        assert snapshot() == snapshot()

    def test_failure_exit_code(self, capsys, monkeypatch):
        import trunclog.cli as cli_mod

        def fake_verify_all(p, c_pairs=None, seed=0):
            return [
                VerifyReport(
                    TheoremId.Symmetry, p, 1, "fail",
                    {"case": {"s": 1}, "lhs": "x", "rhs": "y"}, 0,
                )
            ]

        monkeypatch.setattr(cli_mod, "verify_all", fake_verify_all)
        code, out, _ = run(capsys, "verify", "--prime", "5")
        assert code == 1
        assert "witness" in out


class TestCliConfig:
    """The parsed configuration: argparse types check every argument."""

    def test_validates_primes_before_computation(self, capsys, monkeypatch):
        import trunclog.cli as cli_mod

        def no_computation(*args, **kwargs):
            raise AssertionError("computation ran before the primes were checked")

        monkeypatch.setattr(cli_mod, "verify_all", no_computation)
        code, out, err = run(capsys, "verify", "--prime", "2", "--theorem", "all")
        assert code == 2 and out == ""
        assert "2 is not an odd prime" in err

    def test_rejects_pair_budget_below_one(self, capsys):
        for pairs in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(
                    ["verify", "--prime", "5", "--theorem", "CCoefficients",
                     "--pairs", pairs]
                )
            assert exc.value.code == 2
            assert "pair budget must be an int >= 1" in capsys.readouterr().err

    def test_rejects_unknown_theorem(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--prime", "5", "--theorem", "Bogus"])
        assert exc.value.code == 2
        assert "unknown theorem id" in capsys.readouterr().err

    def test_range_expansion(self):
        args = build_parser().parse_args(["verify", "--prime", "3..13"])
        assert args.prime == [3, 5, 7, 11, 13]
        assert args.theorem == "all"


class TestSamplerFlags:
    def test_pairs_budget_and_seed_are_forwarded(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--prime", "7", "--theorem", "CCoefficients",
            "--pairs", "10", "--seed", "3", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["cases"] == 10 and obj["status"] == "pass"

    def test_pairs_exhaustive(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--prime", "3", "--theorem", "CCoefficients",
            "--pairs", "exhaustive", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["cases"] == 63


class TestUsageErrors:
    def test_p2_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--prime", "2")
        assert code == 2
        assert "odd prime" in err

    def test_composite_rejected(self, capsys):
        code, _, err = run(capsys, "show", "glog", "--prime", "9")
        assert code == 2

    def test_unknown_theorem_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--prime", "5", "--theorem", "Bogus")
        assert code == 2
        assert out == ""
        assert "unknown theorem id" in err and "usage:" in err

    def test_negative_polylog_order_rejected(self, capsys):
        code, out, err = run(capsys, "show", "polylog", "--prime", "5", "--dlog", "-1")
        assert code == 2
        assert out == ""
        assert "usage:" in err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        # only argument validation maps ValueError to exit 2; a checker's own
        # ValueError is an internal error and propagates
        import trunclog.verify as verify_mod

        def broken(p):
            raise ValueError("internal")

        monkeypatch.setitem(verify_mod._CHECKERS, TheoremId.FourTerm, broken)
        with pytest.raises(ValueError, match="internal"):
            main(["verify", "--prime", "3"])

    def test_malformed_flags(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_pair_budget_below_one(self, capsys):
        for pairs in ("0", "-2"):
            code, out, err = run(
                capsys, "verify", "--prime", "5", "--theorem", "CCoefficients",
                "--pairs", pairs,
            )
            assert code == 2
            assert out == ""
            assert "usage:" in err

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--prime", "2..3")
        assert code == 2


def _trial_division_primes(lo, hi):
    return [q for q in range(lo, hi + 1) if q % 2 and all(q % d for d in range(3, q, 2))]


class TestPrimeRanges:
    """Each integer of a range goes through trial division; nothing is kept
    per integer it holds."""

    def test_long_range_keeps_nothing(self):
        import tracemalloc

        from trunclog.cli import _parse_primes
        from trunclog.fields import _is_prime

        assert not hasattr(_is_prime, "cache_info")
        # a kept entry per odd integer would be hundreds of kB here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert len(_parse_primes("3..20000")) == 2261
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024
        primes = _parse_primes("3..200000")
        assert len(primes) == 17983 and primes[-1] == 199999

    def test_matches_trial_division(self):
        from trunclog.cli import _parse_primes

        assert _parse_primes("3..3000") == _trial_division_primes(3, 3000)
        for lo, hi in [(3, 3), (4, 5), (8, 11), (24, 29), (90, 100), (121, 127)]:
            assert _parse_primes(f"{lo}..{hi}") == _trial_division_primes(lo, hi), (lo, hi)

    @pytest.mark.parametrize("spec, message", [
        ("2..3", "bad prime range"),
        ("7..5", "bad prime range"),
        ("24..28", "no odd primes in range"),
        ("8..8", "no odd primes in range"),
    ])
    def test_errors(self, capsys, spec, message):
        code, out, err = run(capsys, "verify", "--prime", spec)
        assert code == 2 and out == ""
        assert message in err and "usage:" in err


class TestOneParser:
    """main keeps the parser its first call builds; every output is the one
    a freshly built parser gives, apart from elapsed_ms."""

    COMMANDS = [
        ("verify", "--prime", "7", "--theorem", "Bogus"),
        ("verify", "--prime", "7", "--theorem", "all", "--format", "json"),
        ("show", "all", "--prime", "5"),
    ]

    @staticmethod
    def _output(capsys, argv):
        code, out, err = run(capsys, *argv)
        if argv[0] == "verify" and code != 2:
            objs = json.loads(out)
            for o in objs:
                o["elapsed_ms"] = 0
            out = objs
        return code, out, err

    def test_kept_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        import trunclog.cli as cli_mod

        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli_mod, "build_parser", counted)
        monkeypatch.setattr(cli_mod, "_parser", None)
        kept = [self._output(capsys, argv) for argv in self.COMMANDS]
        assert len(built) == 1 and cli_mod._parser is built[0]
        fresh = []
        for argv in self.COMMANDS:
            monkeypatch.setattr(cli_mod, "_parser", build_parser())
            fresh.append(self._output(capsys, argv))
        assert len(built) == 1
        assert [code for code, _, _ in kept] == [2, 0, 0]
        assert "unknown theorem id" in kept[0][2]
        assert kept == fresh
