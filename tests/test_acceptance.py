"""Acceptance gate: one test per criterion, exact equality throughout.

Every check here is an identity of canonical forms: there are no numerical
tolerances anywhere, only exact equality and wall-clock budgets.  Each test
prints one pass/fail line.
"""

import json
import time

from trunclog.cli import main as cli_main
from trunclog.glog import glog
from trunclog.polys import FpPoly, RatFn
from trunclog.quotient import XPoly
from trunclog.special import laguerre_pm1
from trunclog.verify import (
    TheoremId,
    verify_all,
    verify_c_coefficients,
    verify_theorem,
)

ODD_PRIMES_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _report(number, desc, ok):
    print(f"ACCEPTANCE {number} ({desc}): {'PASS' if ok else 'FAIL'}")


class TestAcceptance:
    def test_criterion_1_p3_exactness(self):
        ok = False
        try:
            t0 = time.perf_counter()
            assert glog(3).render_text() == "-X - X^2/(a + 2)"
            assert laguerre_pm1(3).specialize(0) == FpPoly([1, 1, 2], 3, "X")
            report = verify_c_coefficients(3, pair_budget="exhaustive")
            assert report.status == "pass"
            assert report.cases_checked == 63  # all pairs with the sum outside F_3*
            assert "unique solutions: 63/63" in report.notes
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
            ok = True
        finally:
            _report(1, "p=3 exactness incl. closed-form product coefficients", ok)

    def test_criterion_2_verify_all_through_13(self):
        ok = False
        try:
            t0 = time.perf_counter()
            for p in (3, 5, 7, 11, 13):
                reports = verify_all(p)
                assert [r.theorem for r in reports] == list(TheoremId)
                failures = [r for r in reports if r.status != "pass"]
                assert not failures, f"p={p}: {[r.one_line() for r in failures]}"
            elapsed = time.perf_counter() - t0
            assert elapsed < 60.0, f"criterion 2 took {elapsed:.2f}s"
            ok = True
        finally:
            _report(2, "verify_all zero failures for p in {3,5,7,11,13}", ok)

    def test_criterion_3_light_battery_through_31(self):
        light = (
            TheoremId.RootsTheorem,
            TheoremId.LucasCriterion,
            TheoremId.Symmetry,
            TheoremId.BConjugate,
            TheoremId.ProductFormula,
            TheoremId.LFactorization,
            TheoremId.PolylogShift,
            TheoremId.PolylogWilson,
            TheoremId.SixSymmetries,
        )
        ok = False
        try:
            t0 = time.perf_counter()
            for p in ODD_PRIMES_31:
                for tid in light:
                    r = verify_theorem(p, tid)
                    assert r.status == "pass", f"p={p} {tid.value}: {r.witness}"
            elapsed = time.perf_counter() - t0
            assert elapsed < 120.0, f"criterion 3 took {elapsed:.2f}s"
            ok = True
        finally:
            _report(3, "light battery for every odd prime p <= 31", ok)

    def test_criterion_4_three_route_b_agreement_through_19(self):
        ok = False
        try:
            for p in (3, 5, 7, 11, 13, 17, 19):
                r = verify_theorem(p, TheoremId.BAltAgreement)
                assert r.status == "pass", f"p={p}: {r.witness}"
                assert r.cases_checked == (p - 1) ** 2
            ok = True
        finally:
            _report(4, "three-route b agreement for all odd p <= 19", ok)

    def test_criterion_5_four_term_through_13(self):
        ok = False
        try:
            for p in (3, 5, 7, 11, 13):
                r = verify_theorem(p, TheoremId.FourTerm)
                assert r.status == "pass", f"p={p}: {r.witness}"
            ok = True
        finally:
            _report(5, "four-term bivariate identity for all odd p <= 13", ok)

    def test_criterion_6_heavy_symbolic_checks(self):
        heavy = (
            TheoremId.LeftInverse,
            TheoremId.RightInverse,
            TheoremId.Reciprocal,
            TheoremId.PowersFunctional,
            TheoremId.PowersHEqualsPMinus1,
        )
        ok = False
        try:
            for p in (3, 5, 7, 11, 13):
                for tid in heavy:
                    t0 = time.perf_counter()
                    r = verify_theorem(p, tid)
                    elapsed = time.perf_counter() - t0
                    assert r.status == "pass", f"p={p} {tid.value}: {r.witness}"
                    if p == 13:
                        assert elapsed < 10.0, f"{tid.value} took {elapsed:.2f}s at p=13"
            ok = True
        finally:
            _report(6, "heavy symbolic checks for p in {3..13}, < 10 s each at 13", ok)

    def test_criterion_7_mutation_sensitivity(self, monkeypatch):
        import trunclog.verify as v

        ok = False
        try:
            p = 5
            # add 1 to the X^2 coefficient's numerator of G
            g = glog(p)
            c2 = g.coeff(2)
            mutant_g = g.with_coeff(2, RatFn(c2.num + 1, c2.den))
            r = verify_theorem(p, TheoremId.LeftInverse, g=mutant_g)
            assert r.status == "fail" and r.witness is not None

            # analogous single-site mutation of the exponential analogue
            lag = laguerre_pm1(p)
            coeffs = list(lag.coeffs)
            coeffs[2] = coeffs[2] + 1
            mutant_lag = XPoly(coeffs, p)
            monkeypatch.setattr(v, "laguerre_pm1", lambda pp: mutant_lag)
            r = verify_theorem(p, TheoremId.LeftInverse)
            assert r.status == "fail" and r.witness is not None

            # analogous single-site mutation of b[1,1]
            from trunclog.bpoly import b_rs

            def mutant_b(pp, rr, ss):
                f = b_rs(pp, rr, ss)
                return f + 1 if (rr, ss) == (1, 1) else f

            monkeypatch.setattr(v, "b_rs", mutant_b)
            r = verify_theorem(p, TheoremId.BConjugate)
            assert r.status == "fail" and r.witness is not None
            ok = True
        finally:
            _report(7, "single-site mutations each trip a checker at p=5", ok)

    def test_criterion_8_determinism(self, capsys):
        ok = False
        try:
            def snapshot():
                code = cli_main(["verify", "--prime", "7", "--format", "json"])
                out = capsys.readouterr().out
                assert code == 0
                objs = json.loads(out)
                for o in objs:
                    o["elapsed_ms"] = 0
                return objs

            first = snapshot()
            second = snapshot()
            assert first == second
            assert len(first) == len(TheoremId)
            ok = True
        finally:
            with capsys.disabled():
                _report(8, "consecutive verify runs differ only in elapsed_ms", ok)
