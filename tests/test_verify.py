"""The checker battery: reports, witnesses, determinism, mutation traps."""

import dataclasses

import pytest

from trunclog.bpoly import b_rs
from trunclog.errors import NotApplicable
from trunclog.fields import ext_quadratic
from trunclog.glog import glog
from trunclog.polys import FpPoly, RatFn
from trunclog.quotient import XPoly
from trunclog.special import laguerre_pm1
from trunclog.verify import (
    TheoremId,
    _c_pair_rows,
    _c_pairs,
    _closed_forms_p3,
    _solve_pair,
    coerce_theorem,
    verify_all,
    verify_c_coefficients,
    verify_theorem,
)

ALL_IDS = list(TheoremId)


class TestSingleTheorems:
    def test_case_counts(self):
        r = verify_theorem(7, TheoremId.LemmaProduct)
        assert r.status == "pass" and r.cases_checked == 36
        r = verify_theorem(5, TheoremId.RootsTheorem)
        assert r.status == "pass" and r.cases_checked == 12
        r = verify_theorem(5, TheoremId.LucasCriterion)
        assert r.cases_checked == 12
        r = verify_theorem(5, TheoremId.BAltAgreement)
        assert r.cases_checked == 16
        r = verify_theorem(5, TheoremId.JacobiLink)
        assert r.cases_checked == 12
        r = verify_theorem(5, TheoremId.PowersFunctional)
        assert r.cases_checked == 4
        r = verify_theorem(5, TheoremId.SixSymmetries)
        assert r.cases_checked == 6
        r = verify_theorem(5, TheoremId.TruncBinomialRules)
        assert r.cases_checked == 20

    def test_four_term_p3(self):
        r = verify_theorem(3, TheoremId.FourTerm)
        assert r.status == "pass"

    def test_string_names_accepted(self):
        r = verify_theorem(5, "Symmetry")
        assert r.theorem is TheoremId.Symmetry and r.status == "pass"

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem(5, "NotATheorem")
        with pytest.raises(ValueError):
            coerce_theorem("nope")

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem(2, TheoremId.Symmetry)
        with pytest.raises(ValueError):
            verify_all(2)


def expected_cases(tid, p):
    """The documented case-enumeration formula for each checker."""
    ones = {
        TheoremId.LeftInverse,
        TheoremId.RightInverse,
        TheoremId.Reciprocal,
        TheoremId.PowersHEqualsPMinus1,
        TheoremId.ProductFormula,
        TheoremId.LFactorization,
        TheoremId.PolylogShift,
        TheoremId.PolylogWilson,
        TheoremId.FourTerm,
    }
    if tid in ones:
        return 1
    if tid in (TheoremId.LemmaProduct, TheoremId.BAltAgreement):
        return (p - 1) ** 2
    if tid in (TheoremId.PowerFormula, TheoremId.PowersFunctional):
        return p - 1
    if tid in (TheoremId.BConjugate, TheoremId.Symmetry, TheoremId.JacobiReflection):
        return p - 2
    if tid in (TheoremId.RootsTheorem, TheoremId.LucasCriterion):
        return (p - 2) * (p - 1)
    if tid is TheoremId.SixSymmetries:
        return 6
    if tid is TheoremId.TruncBinomialRules:
        return (p - 1) ** 2 + (p - 1)
    if tid in (TheoremId.JacobiLink, TheoremId.JacobiShift):
        return (p - 1) * (p - 2)
    if tid is TheoremId.CCoefficients:
        # exhaustive below 7: all pairs in F_{p^2}^2 minus those summing into F_p*
        return p ** 4 - (p - 1) * p * p if p <= 5 else 200
    raise AssertionError(tid)


class TestCaseEnumerationFormulas:
    def test_every_checker_matches_its_formula(self):
        for p in (3, 5, 7):
            for r in verify_all(p):
                assert r.cases_checked == expected_cases(r.theorem, p), (
                    r.theorem,
                    p,
                    r.cases_checked,
                )


class TestVerifyAll:
    def test_all_pass_small_primes(self):
        for p in (3, 5):
            reports = verify_all(p)
            assert [r.theorem for r in reports] == ALL_IDS
            assert all(r.status == "pass" for r in reports)
            assert all(r.witness is None for r in reports)

    def test_no_rational_coefficient_products(self, monkeypatch):
        # every product in the battery runs on FpPoly grids
        calls = []
        mul = XPoly.__mul__

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(XPoly, "__mul__", counted)
        assert all(r.status == "pass" for r in verify_all(5))
        assert calls == []

    def test_deterministic_apart_from_elapsed(self):
        def strip(rs):
            return [dataclasses.replace(r, elapsed_ms=0) for r in rs]

        assert strip(verify_all(5)) == strip(verify_all(5))

    def test_rejections_become_skips(self, monkeypatch):
        import trunclog.verify as v

        def boom(p, **kw):
            raise NotApplicable("not applicable here")

        monkeypatch.setitem(v._CHECKERS, TheoremId.FourTerm, boom)
        reports = verify_all(3)
        skipped = [r for r in reports if r.status == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].theorem is TheoremId.FourTerm
        assert skipped[0].witness is None
        assert "not applicable" in skipped[0].notes

    def test_internal_value_error_propagates(self, monkeypatch):
        import trunclog.verify as v

        def broken(p, **kw):
            raise ValueError("internal error")

        monkeypatch.setitem(v._CHECKERS, TheoremId.FourTerm, broken)
        with pytest.raises(ValueError, match="internal error"):
            verify_all(3)

    def test_bad_pair_budget_raises_before_any_checker(self, monkeypatch):
        import trunclog.verify as v

        ran = []
        first = v._CHECKERS[TheoremId.LeftInverse]

        def recorded(p, **kw):
            ran.append(p)
            return first(p, **kw)

        monkeypatch.setitem(v._CHECKERS, TheoremId.LeftInverse, recorded)
        for budget in (0, -1):
            with pytest.raises(ValueError, match="pair budget"):
                verify_all(3, c_pairs=budget)
        assert ran == []

    def test_zero_cases_is_not_a_pass(self, monkeypatch):
        import trunclog.verify as v

        monkeypatch.setitem(
            v._CHECKERS, TheoremId.FourTerm, lambda p, **kw: (0, None, None)
        )
        with pytest.raises(RuntimeError, match="FourTerm"):
            verify_theorem(3, TheoremId.FourTerm)


class TestReportShape:
    def test_json_schema(self):
        d = verify_theorem(3, TheoremId.Symmetry).to_json_dict()
        assert set(d) == {"prime", "theorem", "cases", "status", "witness", "elapsed_ms"}
        assert d["theorem"] == "Symmetry"
        assert d["status"] == "pass"
        assert d["witness"] is None

    def test_witness_iff_fail(self):
        good = verify_theorem(5, TheoremId.BConjugate)
        assert good.status == "pass" and good.witness is None

        def bad_b(p, r, s):
            f = b_rs(p, r, s)
            return f + 1 if (r, s) == (1, 1) else f

        bad = verify_theorem(5, TheoremId.BConjugate, b_fn=bad_b)
        assert bad.status == "fail" and bad.witness is not None
        assert bad.witness["case"] == {"s": 1}


class TestMutationTraps:
    def test_glog_coefficient_bump_trips_left_inverse(self):
        p = 5
        g = glog(p)
        c2 = g.coeff(2)
        mutant = g.with_coeff(2, RatFn(c2.num + 1, c2.den))
        r = verify_theorem(p, TheoremId.LeftInverse, g=mutant)
        assert r.status == "fail"
        assert r.witness is not None and "case" in r.witness

    def test_exponential_coefficient_bump_trips_checkers(self):
        p = 5
        lag = laguerre_pm1(p)
        coeffs = list(lag.coeffs)
        coeffs[1] = coeffs[1] + 1
        mutant = XPoly(coeffs, p)
        assert verify_theorem(p, TheoremId.LeftInverse, lag=mutant).status == "fail"
        assert verify_theorem(p, TheoremId.RightInverse, lag=mutant).status == "fail"

    def test_scaled_family_mutation_trips_lemma_product(self):
        from trunclog.special import laguerre_scaled

        p = 5

        def bad_scaled(pp, r):
            x = laguerre_scaled(pp, r)
            if r != 2:
                return x
            coeffs = list(x.coeffs)
            coeffs[0] = coeffs[0] + 1
            return XPoly(coeffs, pp)

        r = verify_theorem(p, TheoremId.LemmaProduct, lag_fn=bad_scaled)
        assert r.status == "fail"
        # first violated case in ascending order: (1,1), whose right side
        # already involves the mutated scaled-by-2 object
        assert r.witness["case"] == {"r": 1, "s": 1}

    def test_trunc_binomial_mutation_trips_product_rule(self, monkeypatch):
        import trunclog.verify as v
        from trunclog.special import trunc_binomial

        p = 5

        def bad_trunc_binomial(f, b=1, pp=None):
            x = trunc_binomial(f, b, pp)
            if f != FpPoly([-1, 2], p):
                return x
            coeffs = list(x.coeffs)
            coeffs[1] = coeffs[1] + 1
            return XPoly(coeffs, p)

        monkeypatch.setattr(v, "trunc_binomial", bad_trunc_binomial)
        r = verify_theorem(p, TheoremId.TruncBinomialRules)
        assert r.status == "fail"
        # (1,1) never reads the mutated series for 2a - 1; (1,2) does
        assert r.cases_checked == 2
        assert r.witness["case"] == {"r": 1, "s": 2}

    def test_b_mutation_trips_roots_theorem(self):
        p = 5

        def bad_b(pp, r, s):
            f = b_rs(pp, r, s)
            return f * FpPoly([0, 1], pp) if (r, s) == (1, 2) else f

        r = verify_theorem(p, TheoremId.RootsTheorem, b_fn=bad_b)
        assert r.status == "fail"


class TestCCoefficients:
    def test_p3_exhaustive_matches_closed_forms(self):
        r = verify_c_coefficients(3, pair_budget="exhaustive")
        assert r.status == "pass"
        # every pair with the sum outside F_3^*: 81 - 18
        assert r.cases_checked == 63
        assert "unique solutions: 63/63" in r.notes

    def test_p5_exhaustive(self):
        r = verify_c_coefficients(5, pair_budget="exhaustive")
        assert r.status == "pass"
        assert r.cases_checked == 525

    def test_budget_sampling_deterministic(self):
        r1 = verify_c_coefficients(7, pair_budget=40, seed=0)
        r2 = verify_c_coefficients(7, pair_budget=40, seed=0)
        assert r1.status == "pass" and r1.cases_checked == 40
        assert r1.notes == r2.notes

    def test_opposite_pair_always_solvable(self):
        # beta = -alpha makes the sum 0, which is allowed and solvable
        field = ext_quadratic(3)
        forms = _closed_forms_p3(field, (1, 1), (2, 2))
        assert forms[0] == field.mul_raw(
            field.mul_raw(
                field.sub_raw((1, 0), field.mul_raw((1, 1), (1, 1))),
                field.sub_raw((1, 0), field.mul_raw((2, 2), (2, 2))),
            ),
            field.inv_raw((1, 0)),
        )

    def test_budget_below_one_rejected(self):
        for budget in (0, -2):
            with pytest.raises(ValueError):
                verify_theorem(5, "CCoefficients", pair_budget=budget)
            with pytest.raises(ValueError):
                verify_c_coefficients(5, pair_budget=budget)

    def test_default_budget_small_prime_is_exhaustive(self):
        r = verify_theorem(3, TheoremId.CCoefficients)
        assert r.cases_checked == 63


def _reference_solve(field, rows, ncols):
    """Gauss-Jordan elimination over every row, on the field's *_raw methods."""
    zero = (0, 0)
    pivots, basis = [], []
    for row in rows:
        r = row[:]
        for pc, brow in zip(pivots, basis):
            f = r[pc]
            if f != zero:
                r = [field.sub_raw(x, field.mul_raw(f, y)) for x, y in zip(r, brow)]
        lead = next((c for c in range(ncols) if r[c] != zero), None)
        if lead is None:
            if r[ncols] != zero:
                return None, False
            continue
        inv = field.inv_raw(r[lead])
        r = [field.mul_raw(x, inv) for x in r]
        for idx, brow in enumerate(basis):
            f = brow[lead]
            if f != zero:
                basis[idx] = [
                    field.sub_raw(x, field.mul_raw(f, y)) for x, y in zip(brow, r)
                ]
        pivots.append(lead)
        basis.append(r)
    sol = [zero] * ncols
    for pc, brow in zip(pivots, basis):
        sol[pc] = brow[ncols]
    return sol, len(pivots) == ncols


def _satisfies(field, rows, sol):
    ncols = len(sol)
    for row in rows:
        acc = (0, 0)
        for x, y in zip(row, sol):
            acc = field.add_raw(acc, field.mul_raw(x, y))
        if acc != row[ncols]:
            return False
    return True


class TestSolvePair:
    @pytest.mark.parametrize("p", [7, 11])
    def test_matches_full_elimination(self, p):
        field = ext_quadratic(p)
        for at, bt in _c_pairs(field, 20, seed=p):
            rows = _c_pair_rows(field, at, bt)
            assert _solve_pair(field, rows, p) == _reference_solve(field, rows, p)

    def test_rank_deficient_system_is_not_unique(self):
        # rank 2 in 3 unknowns: row 1 is 2 * row 0, row 3 is a combination
        field = ext_quadratic(7)
        rows = [
            [(1, 0), (2, 0), (0, 0), (3, 0)],
            [(2, 0), (4, 0), (0, 0), (6, 0)],
            [(0, 0), (0, 0), (1, 1), (2, 5)],
        ]
        rows.append(
            [
                field.add_raw(field.mul_raw((3, 1), x), field.mul_raw((2, 2), y))
                for x, y in zip(rows[0], rows[2])
            ]
        )
        sol, unique = _solve_pair(field, rows, 3)
        assert unique is False
        assert _satisfies(field, rows, sol)
        assert (sol, unique) == _reference_solve(field, rows, 3)

    def test_inconsistent_before_full_rank_has_no_solution(self):
        field = ext_quadratic(7)
        rows = [
            [(1, 0), (2, 0), (0, 0), (3, 0)],
            [(2, 0), (4, 0), (0, 0), (5, 0)],
            [(0, 0), (0, 0), (1, 1), (2, 5)],
        ]
        assert _solve_pair(field, rows, 3) == (None, False)


class TestCCoefficientsMutationTraps:
    @pytest.mark.parametrize("index", [-1, 0])
    def test_bumped_right_side_fails(self, monkeypatch, index):
        # the last row comes after the rank reaches p, so the elimination
        # never reads it; row 0 is read and yields a wrong solution
        import trunclog.verify as v

        rows_of = v._c_pair_rows

        def bad_rows(field, at, bt):
            rows = rows_of(field, at, bt)
            rows[index][-1] = field.add_raw(rows[index][-1], (1, 0))
            return rows

        monkeypatch.setattr(v, "_c_pair_rows", bad_rows)
        r = verify_c_coefficients(7, pair_budget=5, seed=0)
        assert r.status == "fail"
        assert r.cases_checked == 1
        assert r.witness["lhs"] == "solution fails an equation"
