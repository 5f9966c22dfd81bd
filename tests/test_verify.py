"""The checker battery: reports, witnesses, determinism, mutation traps."""

import json
import math
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import g_side
import orbit
from trunclog.bpoly import b_roots_predicted, b_rs
from trunclog.errors import TheoremViolationError
from trunclog.fields import ext_quadratic
from trunclog.glog import glog
from trunclog.polys import FpPoly, RatFn, _pack, _slot_typecode, _slots
from trunclog.quotient import XPoly, common_denominator, compose_mod
from trunclog.special import alpha_p_minus_alpha, laguerre_const, laguerre_pm1
from trunclog.pairsystem import (
    Layout,
    lag_coeffs_at,
    pair_columns,
    slot_bound,
    solve_pair,
    substitutes,
)
from trunclog.verify import (
    TheoremId,
    _c_pairs,
    _closed_forms_p3,
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
            return [r._replace(elapsed_ms=0) for r in rs]

        assert strip(verify_all(5)) == strip(verify_all(5))

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
        for budget in (0, -1, 2.5, "many", True, False, 3.0):
            with pytest.raises(ValueError, match="pair budget"):
                verify_all(3, c_pairs=budget)
        assert ran == []

    def test_zero_cases_is_not_a_pass(self, monkeypatch):
        import trunclog.verify as v

        monkeypatch.setitem(v._CHECKERS, TheoremId.FourTerm, lambda p, **kw: iter(()))
        with pytest.raises(RuntimeError, match="FourTerm"):
            verify_theorem(3, TheoremId.FourTerm)


class TestRunner:
    """verify_theorem drives a checker's outcomes; fakes stand in for it."""

    @staticmethod
    def run(monkeypatch, fake):
        import trunclog.verify as v

        monkeypatch.setitem(v._CHECKERS, TheoremId.FourTerm, fake)
        return verify_theorem(3, TheoremId.FourTerm)

    @pytest.mark.parametrize("passed", [0, 1, 4])
    def test_count_runs_up_to_and_including_the_first_witness(
        self, monkeypatch, passed
    ):
        witness = {"case": {"n": passed + 1}, "lhs": "1", "rhs": "0"}

        def fake(p):
            yield from [None] * passed
            yield witness
            yield None

        r = self.run(monkeypatch, fake)
        assert (r.status, r.cases_checked, r.witness) == ("fail", passed + 1, witness)

    def test_checker_is_not_resumed_after_its_witness(self, monkeypatch):
        resumed = []

        def fake(p):
            yield None
            yield {"case": {}, "lhs": "1", "rhs": "0"}
            resumed.append(p)
            raise AssertionError("resumed after a witness")

        r = self.run(monkeypatch, fake)
        assert (r.status, r.cases_checked) == ("fail", 2)
        assert resumed == []

    def test_notes_are_reported_only_on_a_pass(self, monkeypatch):
        def fake(fail):
            def checker(p):
                yield None
                if fail:
                    yield {"case": {}, "lhs": "1", "rhs": "0"}
                return "the notes"

            return checker

        passed = self.run(monkeypatch, fake(False))
        assert (passed.status, passed.notes) == ("pass", "the notes")
        failed = self.run(monkeypatch, fake(True))
        assert (failed.status, failed.notes) == ("fail", None)


class TestReportShape:
    def test_json_schema(self):
        d = verify_theorem(3, TheoremId.Symmetry).to_json_dict()
        assert set(d) == {"prime", "theorem", "cases", "status", "witness", "elapsed_ms"}
        assert d["theorem"] == "Symmetry"
        assert d["status"] == "pass"
        assert d["witness"] is None

    def test_witness_iff_fail(self, monkeypatch):
        import trunclog.verify as v

        good = verify_theorem(5, TheoremId.BConjugate)
        assert good.status == "pass" and good.witness is None

        def bad_b(p, r, s):
            f = b_rs(p, r, s)
            return f + 1 if (r, s) == (1, 1) else f

        monkeypatch.setattr(v, "b_rs", bad_b)
        bad = verify_theorem(5, TheoremId.BConjugate)
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

    def test_exponential_coefficient_bump_trips_checkers(self, monkeypatch):
        import trunclog.verify as v

        p = 5
        lag = laguerre_pm1(p)
        coeffs = list(lag.coeffs)
        coeffs[1] = coeffs[1] + 1
        mutant = XPoly(coeffs, p)
        monkeypatch.setattr(v, "laguerre_pm1", lambda pp: mutant)
        assert verify_theorem(p, TheoremId.LeftInverse).status == "fail"
        assert verify_theorem(p, TheoremId.RightInverse).status == "fail"

    def test_scaled_family_mutation_trips_lemma_product(self, monkeypatch):
        import trunclog.verify as v
        from trunclog.special import laguerre_scaled

        p = 5

        def bad_scaled(pp, r):
            x = laguerre_scaled(pp, r)
            if r != 2:
                return x
            coeffs = list(x.coeffs)
            coeffs[0] = coeffs[0] + 1
            return XPoly(coeffs, pp)

        monkeypatch.setattr(v, "laguerre_scaled", bad_scaled)
        r = verify_theorem(p, TheoremId.LemmaProduct)
        assert r.status == "fail"
        # first violated case in ascending order: (1,1), whose right side
        # already involves the mutated scaled-by-2 object
        assert r.witness["case"] == {"r": 1, "s": 1}

    def test_scaled_family_mutation_trips_power_formula(self, monkeypatch):
        import trunclog.verify as v

        p = 5
        monkeypatch.setattr(v, "laguerre_scaled", _bumped_scaled(lambda pp: 2))
        r = verify_theorem(p, TheoremId.PowerFormula)
        assert r.status == "fail" and r.witness is not None
        assert r.witness["case"] == {"j": 2}

    def test_glog_coefficient_bump_trips_reciprocal(self, monkeypatch):
        import trunclog.verify as v

        p = 5
        g = glog(p)
        c2 = g.coeff(2)
        mutant = g.with_coeff(2, RatFn(c2.num + 1, c2.den))
        monkeypatch.setattr(v, "glog", lambda pp: mutant)
        r = verify_theorem(p, TheoremId.Reciprocal)
        assert r.status == "fail" and r.witness is not None
        assert r.witness["case"] == {"coefficient": 2}

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

    def test_b_mutation_trips_roots_theorem(self, monkeypatch):
        import trunclog.verify as v

        p = 5

        def bad_b(pp, r, s):
            f = b_rs(pp, r, s)
            return f * FpPoly([0, 1], pp) if (r, s) == (1, 2) else f

        monkeypatch.setattr(v, "b_rs", bad_b)
        r = verify_theorem(p, TheoremId.RootsTheorem)
        assert r.status == "fail"

    @pytest.mark.parametrize("p", [5, 7])
    def test_squared_b_fails_with_structural_witness(self, monkeypatch, p):
        # b[1,s]^2 has the predicted roots, each twice: an evaluation at one
        # point agrees on both sides, so the witness must name the structure
        import trunclog.verify as v

        def squared_b(pp, r, s):
            return b_rs(pp, r, s) ** 2

        monkeypatch.setattr(v, "b_rs", squared_b)
        r = verify_theorem(p, TheoremId.RootsTheorem)
        assert r.status == "fail" and r.cases_checked == 1
        predicted = sorted(b_roots_predicted(p, 1))
        doubled = {a: 2 for a in predicted}
        assert r.witness == {
            "case": {"s": 1},
            "lhs": f"degree {p - 1}, roots with multiplicity {doubled}",
            "rhs": f"degree {(p - 1) // 2}, simple roots {predicted}",
        }


# Every checker can fail.  Each row below is a single-site mutation of a name
# that verify reads, for a checker that no other trap in this file makes fail,
# or a zero or non-split polynomial where a checker splits one, which must be
# a witness and not an exception: (checker, name in trunclog.verify, wrapper
# of the original, the whole witness or None).


def _lucas_flipped_at_1_1(orig):
    return lambda p, s, a: orig(p, s, a) != ((s, a) == (1, 1))


def _routes_disagree(orig):
    def product_all_b(p):
        raise TheoremViolationError(f"product routes disagree at p={p}")

    return product_all_b


def _times_a_minus_1(orig):
    return lambda p: orig(p) * FpPoly([-1, 1], p)


def _times_a(orig):
    return lambda p: orig(p) * FpPoly.x(p)


def _product_route_plus_1(orig):
    def routes(p):
        sub_route, prod_route = orig(p)
        return sub_route, prod_route + 1

    return routes


def _x2_bumped(orig):
    return lambda p, d: orig(p, d) + FpPoly.monomial(1, 2, p, "X")


def _wrong_at_3(orig):
    return lambda a, p: (orig(a, p) + (a % p == 3)) % p


def _zero_b(orig):
    return lambda p, r, s: FpPoly.zero(p)


def _zero_product(orig):
    return lambda p: FpPoly.zero(p)


def _times_a2_plus_1(orig):
    # a^2 + 1 has no root in F_7: -1 is not a square mod 7
    return lambda p: orig(p) * FpPoly([1, 0, 1], p)


def _times_2(orig):
    # the same roots with the same multiplicities: only the constant term moves
    return lambda p: orig(p) * 2


CHECKER_MUTATIONS = [
    pytest.param(TheoremId.LucasCriterion, "b_root_lucas", _lucas_flipped_at_1_1,
                 None, id="LucasCriterion"),
    pytest.param(TheoremId.ProductFormula, "product_all_b", _routes_disagree,
                 None, id="ProductFormula-routes-disagree"),
    pytest.param(TheoremId.ProductFormula, "product_all_b", _times_a_minus_1,
                 None, id="ProductFormula-times-a-minus-1"),
    pytest.param(TheoremId.ProductFormula, "product_all_b", _times_a,
                 {"case": {"root": 0}, "lhs": "multiplicity 1", "rhs": "multiplicity 0"},
                 id="ProductFormula-times-a"),
    pytest.param(TheoremId.ProductFormula, "product_all_b", _zero_product,
                 {"case": {}, "lhs": "0", "rhs": "nonzero"},
                 id="ProductFormula-zero"),
    pytest.param(TheoremId.ProductFormula, "product_all_b", _times_a2_plus_1,
                 {"case": {}, "lhs": "a^2 + 1", "rhs": "split"},
                 id="ProductFormula-non-split"),
    pytest.param(TheoremId.ProductFormula, "product_all_b", _times_2,
                 {"case": {"part": "constant term"}, "lhs": "2", "rhs": "1"},
                 id="ProductFormula-times-2"),
    pytest.param(TheoremId.RootsTheorem, "b_rs", _zero_b,
                 {"case": {"s": 1}, "lhs": "0", "rhs": "nonzero"},
                 id="RootsTheorem-zero-b"),
    pytest.param(TheoremId.LFactorization, "laguerre_const_routes",
                 _product_route_plus_1, None, id="LFactorization"),
    pytest.param(TheoremId.PolylogShift, "finite_polylog", _x2_bumped,
                 None, id="PolylogShift"),
    pytest.param(TheoremId.PolylogWilson, "finite_polylog", _x2_bumped,
                 None, id="PolylogWilson"),
    pytest.param(TheoremId.SixSymmetries, "finite_polylog", _x2_bumped,
                 None, id="SixSymmetries"),
    pytest.param(TheoremId.FourTerm, "inv_mod", _wrong_at_3, None, id="FourTerm"),
]


class TestEveryCheckerCanFail:
    @pytest.mark.parametrize("tid, name, wrap, witness", CHECKER_MUTATIONS)
    def test_mutation_fails_with_witness(self, monkeypatch, tid, name, wrap, witness):
        import trunclog.verify as v

        monkeypatch.setattr(v, name, wrap(getattr(v, name)))
        r = verify_theorem(7, tid)
        assert r.status == "fail" and r.cases_checked >= 1
        assert r.witness is not None and "case" in r.witness
        if witness is not None:
            assert r.witness == witness


@pytest.mark.parametrize("p", [5, 11])
def test_product_formula_wants_constant_term_1(monkeypatch, p):
    # twice the product has its roots and multiplicities; p = 7 is in
    # CHECKER_MUTATIONS
    import trunclog.verify as v

    monkeypatch.setattr(v, "product_all_b", _times_2(v.product_all_b))
    r = verify_theorem(p, TheoremId.ProductFormula)
    assert r.status == "fail" and r.cases_checked == 1
    assert r.witness == {"case": {"part": "constant term"}, "lhs": "2", "rhs": "1"}


@pytest.mark.parametrize("p", [5, 11])
def test_product_formula_wants_no_root_at_zero(monkeypatch, p):
    # the stated form has roots a = 1 .. p-1 only; p = 7 is in CHECKER_MUTATIONS
    import trunclog.verify as v

    monkeypatch.setattr(v, "product_all_b", _times_a(v.product_all_b))
    r = verify_theorem(p, TheoremId.ProductFormula)
    assert r.status == "fail"
    assert r.witness == {"case": {"root": 0}, "lhs": "multiplicity 1", "rhs": "multiplicity 0"}


class TestCheckerSurface:
    def test_checkers_take_only_the_prime_and_their_options(self):
        import inspect

        import trunclog.verify as v

        options = {
            TheoremId.LeftInverse: ["g"],
            TheoremId.CCoefficients: ["pair_budget", "seed"],
        }
        assert set(v._CHECKERS) == set(TheoremId)
        for tid, checker in v._CHECKERS.items():
            params = list(inspect.signature(checker).parameters)
            assert params == ["p", *options.get(tid, [])], tid
            # the runner's protocol: one outcome per case, yielded
            assert inspect.isgeneratorfunction(checker), tid

    def test_an_option_another_checker_lacks_is_rejected(self):
        with pytest.raises(TypeError):
            verify_theorem(5, "RightInverse", g=glog(5))

    def test_left_inverse_rejects_a_candidate_for_another_prime(self, monkeypatch):
        import trunclog.verify as v

        def entered(g, lag):
            raise AssertionError("the candidate reached the composition")

        monkeypatch.setattr(v, "left_inverse_lhs", entered)
        with pytest.raises(ValueError, match=r"^candidate G is for p = 7, not p = 5$"):
            verify_theorem(5, TheoremId.LeftInverse, g=glog(7))


# LemmaProduct computes row r = 1 and skips a case (r, s) with r != 1 only as
# the sigma_r image of a passed case; the direct loop over every case below is
# the oracle it must match, mutation by mutation.

def _lemma_product_direct(p, lag_fn, b_fn):
    """(status, cases_checked, witness) of L_r * L_s = b[r,s] * L_{r+s}
    checked by one grid product per case."""
    from trunclog.quotient import grid_mulmod, grid_to_xpoly, xpoly_to_grid
    from trunclog.special import w_poly

    cpoly = alpha_p_minus_alpha(p)
    zero = FpPoly.zero(p)
    grids = {r: xpoly_to_grid(lag_fn(p, r)) for r in range(1, p)}
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            cases += 1
            prod = grid_mulmod(grids[r], grids[s], cpoly, p)
            if (r + s) % p == 0:
                want = [w_poly(p)] + [zero] * (p - 1)
            else:
                want = [b_fn(p, r, s) * g for g in grids[(r + s) % p]]
            if prod != want:
                witness = {
                    "case": {"r": r, "s": s},
                    "lhs": str(grid_to_xpoly(prod, p)),
                    "rhs": str(grid_to_xpoly(want, p)),
                }
                return "fail", cases, witness
    return "pass", cases, None


def _bumped_scaled(at):
    from trunclog.special import laguerre_scaled

    def lag_fn(pp, r):
        x = laguerre_scaled(pp, r)
        if r != at(pp):
            return x
        coeffs = list(x.coeffs)
        coeffs[0] = coeffs[0] + 1
        return XPoly(coeffs, pp)

    return lag_fn


def _bumped_b(at):
    def b_fn(pp, r, s):
        return b_rs(pp, r, s) + (1 if (r, s) == at(pp) else 0)

    return b_fn


LEMMA_PRODUCT_MUTATIONS = {
    "none": (None, None),
    "lag at r=1": (_bumped_scaled(lambda p: 1), None),
    "lag at r=2": (_bumped_scaled(lambda p: 2), None),
    "lag at r=p-1": (_bumped_scaled(lambda p: p - 1), None),
    "b at (2,2)": (None, _bumped_b(lambda p: (2, 2))),
    "b at (1,p-2)": (None, _bumped_b(lambda p: (1, p - 2))),
    # a middle step of the power formula; at p = 3, (1, 2) reads no b and
    # the one step is (1, 1)
    "b at (1,2)": (None, _bumped_b(lambda p: (1, min(2, p - 2)))),
}


def _fill_shared_run(p):
    """Run glog()'s guard afresh on the records of record, so that the
    shared run of the power formula's steps holds them."""
    import trunclog.verify as v

    gl = sys.modules["trunclog.glog"]
    gl.power_route.cache_clear()
    assert gl.left_inverse_by_powers(glog(p), laguerre_pm1(p), *v._power_inputs(p))


def _grid_products(monkeypatch, p):
    """Count grid_mulmod in verify and glog: the list gets (module, r, s) for
    each product of L_r by L_s of record."""
    import trunclog.verify as v
    from trunclog.quotient import xpoly_to_grid
    from trunclog.special import laguerre_scaled

    gl = sys.modules["trunclog.glog"]
    index = {
        tuple(xpoly_to_grid(laguerre_scaled(p, r))): r for r in range(1, p)
    }
    products = []
    for mod in (v, gl):
        def counted(a, b, cpoly, pp, orig=mod.grid_mulmod, name=mod.__name__):
            products.append((name.rsplit(".", 1)[1], index[tuple(a)], index[tuple(b)]))
            return orig(a, b, cpoly, pp)

        monkeypatch.setattr(mod, "grid_mulmod", counted)
    return products


class TestLemmaProductOracle:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("mutation", sorted(LEMMA_PRODUCT_MUTATIONS))
    def test_matches_the_direct_loop(self, monkeypatch, p, mutation):
        import trunclog.verify as v
        from trunclog.special import laguerre_scaled

        lag_fn, b_fn = LEMMA_PRODUCT_MUTATIONS[mutation]
        if lag_fn is not None:
            monkeypatch.setattr(v, "laguerre_scaled", lag_fn)
        if b_fn is not None:
            monkeypatch.setattr(v, "b_rs", b_fn)
        want = _lemma_product_direct(p, lag_fn or laguerre_scaled, b_fn or b_rs)
        r = verify_theorem(p, TheoremId.LemmaProduct)
        assert (r.status, r.cases_checked, r.witness) == want
        assert (want[0] == "pass") == (mutation == "none")

    # A twisted family L'_t = f_t * L_t with f_1 = 1 and f_t * f_(p-t) = 1,
    # and b'[r,s] = b[r,s] * f_r * f_s / f_(r+s), satisfies every case.  Only
    # the case (r0, s0) below takes the value sigma_r0(b'[1,s1]) instead, so
    # it is the one failing case, and f_u != 1 at one u breaks exactly the
    # symmetry condition named: (r0, s0) is not a sigma image, and skipping
    # it would pass.  Each u occurs once among r0, s0, s1, r0 + s0, 1 + s1,
    # and p - u among none of them; u != p - 1 keeps f_1 = 1 (p = 7).
    @pytest.mark.parametrize("condition, r0, s0, u", [
        ("sym[r]", 2, 6, 2),
        ("sym[s]", 2, 3, 3),
        ("sym[s1]", 3, 1, 5),
        ("sym[r+s]", 2, 2, 4),
        ("sym[1+s1]", 3, 3, 2),
    ])
    def test_each_symmetry_condition_is_needed(self, monkeypatch, condition, r0, s0, u):
        import trunclog.verify as v
        from trunclog.fields import inv_mod
        from trunclog.special import laguerre_scaled

        p = 7
        f = {t: 1 for t in range(1, p)}
        f[u], f[p - u] = 3, inv_mod(3, p)
        s1 = s0 * inv_mod(r0, p) % p

        def lag_fn(pp, t):
            return XPoly([c * f[t] for c in laguerre_scaled(pp, t).coeffs], pp)

        def b_fn(pp, r, s):
            t = (r + s) % pp
            if t == 0:
                return b_rs(pp, r, s)
            if (r, s) == (r0, s0):
                return b_rs(pp, r, s) * f[s1] * inv_mod(f[(1 + s1) % pp], pp)
            return b_rs(pp, r, s) * f[r] * f[s] * inv_mod(f[t], pp)

        monkeypatch.setattr(v, "laguerre_scaled", lag_fn)
        monkeypatch.setattr(v, "b_rs", b_fn)
        want = _lemma_product_direct(p, lag_fn, b_fn)
        assert want[:2] == ("fail", (r0 - 1) * (p - 1) + s0)
        assert want[2]["case"] == {"r": r0, "s": s0}
        r = verify_theorem(p, TheoremId.LemmaProduct)
        assert (r.status, r.cases_checked, r.witness) == want

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("mutation", sorted(LEMMA_PRODUCT_MUTATIONS))
    def test_matches_the_direct_loop_after_the_guard(self, monkeypatch, p, mutation):
        # glog()'s guard leaves the step flags of the records of record; a
        # LemmaProduct on mutated records must not read them
        _fill_shared_run(p)
        self.test_matches_the_direct_loop(monkeypatch, p, mutation)

    def test_skips_grid_products_off_row_one(self, monkeypatch):
        # glog()'s guard has run the power formula's steps, the cases (1, s)
        # with s <= p - 2; (1, p - 1) is the one product left, and every
        # other case is a sigma_r image
        _fill_shared_run(7)
        products = _grid_products(monkeypatch, 7)
        r = verify_theorem(7, TheoremId.LemmaProduct)
        assert r.status == "pass" and r.cases_checked == 36
        assert products == [("verify", 1, 6)]

    def test_a_failing_step_is_computed(self, monkeypatch):
        # with b[1,2] bumped, the steps run once on these records, and row 1
        # multiplies exactly the failing step's case and (1, p - 1)
        import itertools

        import trunclog.verify as v
        from trunclog.special import laguerre_scaled

        p = 7
        _fill_shared_run(p)
        b_fn = _bumped_b(lambda pp: (1, 2))
        monkeypatch.setattr(v, "b_rs", b_fn)
        want = _lemma_product_direct(p, laguerre_scaled, b_fn)
        assert want[:2] == ("fail", 2)
        products = _grid_products(monkeypatch, p)
        r = verify_theorem(p, TheoremId.LemmaProduct)
        assert (r.status, r.cases_checked, r.witness) == want
        steps = [("glog", 1, s) for s in range(1, p - 1)]
        assert products == steps + [("verify", 1, 2)]
        products.clear()
        row_one = list(itertools.islice(v._check_lemma_product(p), p - 1))
        assert products == [("verify", 1, 2), ("verify", 1, p - 1)]
        assert row_one[1] == want[2]
        assert all(x is None for i, x in enumerate(row_one) if i != 1)

    def test_steps_are_flagged_past_a_failing_case(self, monkeypatch):
        # with pre[2] + 1 the power formula fails at j = 3 while every step
        # holds; the route still forms and flags each step once, so
        # LemmaProduct passes on them and multiplies only (1, p - 1)
        p = 7
        sys.modules["trunclog.glog"].power_route.cache_clear()
        g_side.apply(monkeypatch, "pre[2] + 1")
        products = _grid_products(monkeypatch, p)
        r = verify_theorem(p, TheoremId.PowerFormula)
        assert (r.status, r.cases_checked) == ("fail", 3)
        r = verify_theorem(p, TheoremId.LemmaProduct)
        assert (r.status, r.cases_checked) == ("pass", 36)
        steps = [("glog", 1, s) for s in range(1, p - 1)]
        assert products == steps + [("verify", 1, p - 1)]


# PowersFunctional compares split forms, a lead times an exponent vector over
# the factors a - t, bound once to Lc and the b[1,s] of record; the
# polynomial loop below is the oracle it must match, mutation by mutation.

def _powers_functional_direct(p):
    """(status, cases_checked, witness) of the power-substitution equation
    checked by cross-multiplied polynomials, from verify's Lc and b_rs."""
    import trunclog.verify as v
    from trunclog.fields import inv_mod

    lc = v.laguerre_const(p)
    pre = [FpPoly.one(p)]
    for s in range(1, p - 1):
        pre.append(pre[-1] * v.b_rs(p, 1, s))
    lc_pows = [FpPoly.one(p)]
    for _ in range(p - 1):
        lc_pows.append(lc_pows[-1] * lc)
    cases = 0
    for h in range(1, p):
        cases += 1
        pre_h = [f.subs_scale(h) for f in pre]
        ph_pow = FpPoly.one(p)
        for k in range(1, p):
            ph_pow = ph_pow * pre[h - 1]
            rem = h * k % p
            q = h * k // p
            lhs = lc_pows[q] * inv_mod(k, p) * pre[rem - 1]
            rhs = ph_pow * pre_h[k - 1] * (h * inv_mod(rem, p) % p)
            if lhs != rhs:
                witness = {"case": {"h": h, "k": k}, "lhs": str(lhs), "rhs": str(rhs)}
                return "fail", cases, witness
    return "pass", cases, None


def _b_times(at, t):
    """b_rs with the one factor b[1, at(p)] multiplied by (a - t)."""
    def b_fn(pp, r, s):
        f = b_rs(pp, r, s)
        return f * FpPoly([-t, 1], pp) if (r, s) == (1, at(pp)) else f

    return b_fn


def _non_residue(p):
    return next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)


# name: (verify.laguerre_const, verify.b_rs), None for the library's own
POWERS_FUNCTIONAL_MUTATIONS = {
    "none": (None, None),
    "Lc times 2": (lambda pp: laguerre_const(pp) * 2, None),
    # off the form prod_k (1 + a/k)^k, so bound by root search
    "Lc times a": (lambda pp: laguerre_const(pp) * FpPoly.x(pp), None),
    "Lc times (a - 1)": (lambda pp: laguerre_const(pp) * FpPoly([-1, 1], pp), None),
    "b[1,1] times (a - 1)": (None, _b_times(lambda p: 1, 1)),
    "b[1,p-2] times a": (None, _b_times(lambda p: p - 2, 0)),
}


def _patch_records(monkeypatch, lc_fn=None, b_fn=None):
    import trunclog.verify as v

    if lc_fn is not None:
        monkeypatch.setattr(v, "laguerre_const", lc_fn)
    if b_fn is not None:
        monkeypatch.setattr(v, "b_rs", b_fn)


class TestPowersFunctionalOracle:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("mutation", sorted(POWERS_FUNCTIONAL_MUTATIONS))
    def test_matches_the_polynomial_loop(self, monkeypatch, p, mutation):
        _patch_records(monkeypatch, *POWERS_FUNCTIONAL_MUTATIONS[mutation])
        want = _powers_functional_direct(p)
        r = verify_theorem(p, TheoremId.PowersFunctional)
        assert (r.status, r.cases_checked, r.witness) == want
        assert (want[0] == "pass") == (mutation == "none")

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_non_split_lc_fails_naming_its_factor(self, monkeypatch, p):
        quadratic = FpPoly([-_non_residue(p), 0, 1], p)
        _patch_records(monkeypatch, lambda pp: laguerre_const(pp) * quadratic)
        r = verify_theorem(p, TheoremId.PowersFunctional)
        assert (r.status, r.cases_checked) == ("fail", 1)
        assert r.witness == {
            "case": {"factor": "Lc"}, "lhs": str(quadratic), "rhs": "split",
        }

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_zero_b_fails_naming_its_factor(self, monkeypatch, p):
        s0 = p - 2

        def b_fn(pp, r, s):
            return FpPoly.zero(pp) if (r, s) == (1, s0) else b_rs(pp, r, s)

        _patch_records(monkeypatch, b_fn=b_fn)
        r = verify_theorem(p, TheoremId.PowersFunctional)
        assert (r.status, r.cases_checked) == ("fail", 1)
        assert r.witness == {
            "case": {"factor": f"b[1,{s0}]"}, "lhs": "0", "rhs": "nonzero",
        }

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_binding_check_catches_a_dropped_root(self, monkeypatch, p):
        # a split that loses a root leaves a form that is not Lc; only the
        # re-expansion against the record can tell.  An honest Lc binds the
        # paper's form with no root search, so the record is the twin a * Lc,
        # off that form: the search runs on it and drops its root 0
        import trunclog.verify as v

        orig = v.roots_and_split

        def drops_a_root(f):
            lead, roots = orig(f)
            roots = dict(roots)
            del roots[min(roots)]
            return lead, roots

        twin = laguerre_const(p) * FpPoly.x(p)
        _patch_records(monkeypatch, lambda pp: laguerre_const(pp) * FpPoly.x(pp))
        monkeypatch.setattr(v, "roots_and_split", drops_a_root)
        r = verify_theorem(p, TheoremId.PowersFunctional)
        assert (r.status, r.cases_checked) == ("fail", 1)
        assert r.witness == {
            "case": {"factor": "Lc"}, "lhs": str(laguerre_const(p)), "rhs": str(twin),
        }


class TestPowersHEqualsPMinus1Trap:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_lc_times_unit_fails(self, monkeypatch, p):
        _patch_records(monkeypatch, lambda pp: laguerre_const(pp) * 2)
        r = verify_theorem(p, TheoremId.PowersHEqualsPMinus1)
        assert (r.status, r.cases_checked) == ("fail", 1)
        assert r.witness["case"] == {"k": 1}
        assert r.witness["rhs"] == str(laguerre_const(p) * 2)


SPLIT_PRIMES = [3, 5, 7, 11, 13, 17, 19]


def _bound(name, f, predicted=None):
    """The split form ``_bound_split_form`` returns; it must yield no witness."""
    import trunclog.verify as v

    with pytest.raises(StopIteration) as stop:
        next(v._bound_split_form({"factor": name}, f, predicted))
    return stop.value.value


class TestSplitForms:
    @pytest.mark.parametrize("p", SPLIT_PRIMES)
    def test_lc_form_is_the_product_route(self, p):
        # Lc = prod_k (1 + a/k)^k = prod_k k^(-k) (a - (p-k))^k
        from trunclog.fields import inv_mod

        form = _bound("Lc", laguerre_const(p))
        lead = math.prod(pow(inv_mod(k, p), k, p) for k in range(1, p)) % p
        assert form == (lead, (0,) + tuple(p - t for t in range(1, p)))

    @pytest.mark.parametrize("p", SPLIT_PRIMES)
    def test_every_b_re_expands_to_its_record(self, p):
        import trunclog.verify as v

        for s in range(1, p - 1):
            form = _bound(f"b[1,{s}]", b_rs(p, 1, s))
            assert v._expand(form, p) == b_rs(p, 1, s)
            assert sorted(form[1]) == [0] * ((p + 1) // 2) + [1] * ((p - 1) // 2)

    @pytest.mark.parametrize("p", SPLIT_PRIMES)
    def test_subs_scale_matches_the_polynomial(self, p):
        import random

        import trunclog.verify as v

        rng = random.Random(p)
        forms = [_bound("Lc", laguerre_const(p))]
        forms += [
            (rng.randrange(1, p), tuple(rng.randrange(3) for _ in range(p)))
            for _ in range(3)
        ]
        for form in forms:
            poly = v._expand(form, p)
            for h in range(1, p):
                assert v._expand(v._form_subs_scale(form, h, p), p) == poly.subs_scale(h)


def _lc_form(p):
    """The exponent vector of Lc = prod_k (1 + a/k)^k: root -k, multiplicity k."""
    return (0,) + tuple(p - t for t in range(1, p))


def _product_form(p):
    """The exponent vector of prod_s b[1,s]: root a, multiplicity p-1-a."""
    return (0,) + tuple(p - 1 - a for a in range(1, p))


def _product_formula_direct(p):
    """(status, cases_checked, witness) of ProductFormula by root search
    alone, from verify's product_all_b."""
    import trunclog.verify as v
    from trunclog.errors import NonSplitError
    from trunclog.polys import roots_and_split

    def fail(case, lhs, rhs):
        return "fail", 1, {"case": case, "lhs": str(lhs), "rhs": str(rhs)}

    try:
        prod = v.product_all_b(p)
    except TheoremViolationError as exc:
        return fail({}, exc, "three equal routes")
    if prod.is_zero:
        return fail({}, prod, "nonzero")
    try:
        _, roots = roots_and_split(prod)
    except NonSplitError as exc:
        return fail({}, exc.remainder, "split")
    for a in range(p):
        got, want = roots.get(a, 0), p - 1 - a if a else 0
        if got != want:
            return fail({"root": a}, f"multiplicity {got}", f"multiplicity {want}")
    if prod.eval_int(0) != 1:
        return fail({"part": "constant term"}, prod.eval_int(0), 1)
    return "pass", 1, None


# name: wrapper of verify.product_all_b, None for the library's own
PRODUCT_FORMULA_TWINS = {
    "none": None,
    "times 2": _times_2,  # on the stated form, with lead 2
    "times a": _times_a,
    "times (a - 1)": _times_a_minus_1,
    "zero": _zero_product,
    "times a non-residue quadratic": lambda orig: lambda p: orig(p) * FpPoly(
        [-_non_residue(p), 0, 1], p
    ),
    "routes disagree": _routes_disagree,
}


def _searched(monkeypatch):
    """Every polynomial verify hands to roots_and_split, in order."""
    import trunclog.verify as v

    seen = []
    orig = v.roots_and_split
    monkeypatch.setattr(v, "roots_and_split", lambda f: seen.append(f) or orig(f))
    return seen


class TestPredictedSplitForms:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("twin", sorted(PRODUCT_FORMULA_TWINS))
    def test_product_formula_matches_the_root_search(self, monkeypatch, p, twin):
        import trunclog.verify as v

        if PRODUCT_FORMULA_TWINS[twin] is not None:
            wrap = PRODUCT_FORMULA_TWINS[twin]
            monkeypatch.setattr(v, "product_all_b", wrap(v.product_all_b))
        want = _product_formula_direct(p)
        r = verify_theorem(p, TheoremId.ProductFormula)
        assert (r.status, r.cases_checked, r.witness) == want
        assert (want[0] == "pass") == (twin == "none")

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_honest_records_search_no_roots_of_lc_or_the_product(self, monkeypatch, p):
        searched = _searched(monkeypatch)
        assert verify_theorem(p, TheoremId.ProductFormula).status == "pass"
        assert searched == []
        assert verify_theorem(p, TheoremId.PowersFunctional).status == "pass"
        assert searched == [b_rs(p, 1, s) for s in range(1, p - 1)]

    @pytest.mark.parametrize("p", [5, 7])
    def test_twins_off_the_form_are_searched(self, monkeypatch, p):
        import trunclog.verify as v
        from trunclog.bpoly import product_all_b

        twin_lc = laguerre_const(p) * FpPoly.x(p)
        twin_prod = product_all_b(p) * FpPoly.x(p)
        _patch_records(monkeypatch, lambda pp: laguerre_const(pp) * FpPoly.x(pp))
        monkeypatch.setattr(v, "product_all_b", _times_a(v.product_all_b))
        searched = _searched(monkeypatch)
        verify_theorem(p, TheoremId.ProductFormula)
        assert searched == [twin_prod]
        verify_theorem(p, TheoremId.PowersFunctional)
        assert searched[1] == twin_lc

    @pytest.mark.parametrize("p", SPLIT_PRIMES)
    def test_the_stated_forms_bind_with_the_records_lead(self, p):
        from trunclog.bpoly import product_all_b

        lc, prod = laguerre_const(p), product_all_b(p)
        assert _bound("Lc", lc, _lc_form(p)) == (lc.lead, _lc_form(p))
        assert _bound("Lc", lc) == (lc.lead, _lc_form(p))
        assert _bound("prod", prod, _product_form(p)) == (prod.lead, _product_form(p))
        assert _bound("prod", prod) == (prod.lead, _product_form(p))
        # a wrong prediction leaves the root search to find the form
        wrong = (0,) * p
        assert _bound("Lc", lc, wrong) == _bound("Lc", lc)


# Traps for RightInverse.  The input traps change what the identity is about:
# a broken G or L patched in as a twin, or a tampered constant Lc.  The internal
# traps leave the inputs alone and tamper one part of the proof instead.


def _g_twin(p):
    g = glog(p)
    c2 = g.coeff(2)
    return g.with_coeff(2, RatFn(c2.num + 1, c2.den))


def _lag_twin(p):
    coeffs = list(laguerre_pm1(p).coeffs)
    coeffs[1] = coeffs[1] + 1
    return XPoly(coeffs, p)


def _rational_lag_twin(p):
    coeffs = list(laguerre_pm1(p).coeffs)
    coeffs[1] = RatFn(coeffs[1].as_poly(), FpPoly([1, 1], p))
    return XPoly(coeffs, p)


# name: (twin builders by the name verify reads, added to Lc, part the
# witness names)
_INPUT_TRAPS = {
    "G twin": ({"glog": _g_twin}, 0, "G-frobenius"),
    "L twin": ({"laguerre_pm1": _lag_twin}, 0, "L-frobenius"),
    "rational L twin": ({"laguerre_pm1": _rational_lag_twin}, 0, "L-frobenius"),
    "Lc + 1": ({}, 1, "L-frobenius"),
}


def _run_input_trap(monkeypatch, p, name):
    """(the trap's g, lag and Lc, and the RightInverse report under it)."""
    import trunclog.verify as v

    builders, shift, _ = _INPUT_TRAPS[name]
    twins = {key: build(p) for key, build in builders.items()}
    lc = laguerre_const(p) + shift
    monkeypatch.setattr(v, "laguerre_const", lambda pp: lc)
    for key, twin in twins.items():
        monkeypatch.setattr(v, key, lambda pp, twin=twin: twin)
    report = verify_theorem(p, TheoremId.RightInverse)
    g = twins.get("glog", glog(p))
    return g, twins.get("laguerre_pm1", laguerre_pm1(p)), lc, report


class TestRightInverseTraps:
    @pytest.mark.parametrize("name", sorted(_INPUT_TRAPS))
    @pytest.mark.parametrize("p", [5, 7])
    def test_input_trap_fails_naming_its_part(self, monkeypatch, p, name):
        *_, r = _run_input_trap(monkeypatch, p, name)
        assert r.status == "fail" and r.cases_checked == 1
        assert r.witness["case"] == {"part": _INPUT_TRAPS[name][2]}

    @pytest.mark.parametrize("name", sorted(_INPUT_TRAPS))
    @pytest.mark.parametrize("p", [5, 7])
    def test_direct_composition_rejects_every_input_trap(self, monkeypatch, p, name):
        # the literal L(G(X)) mod X^p - Lc, the composition the lemma replaces,
        # rejects each input trap, and so does the checker: the lemma route
        # is never the weaker one
        g, lag, lc, r = _run_input_trap(monkeypatch, p, name)
        c = RatFn.from_poly(lc)
        assert compose_mod(lag, g.as_xpoly(), c) != XPoly.x_power(p, 1, modulus=c)
        assert r.status == "fail"

    @pytest.mark.parametrize("part", ["L-frobenius", "G-frobenius"])
    @pytest.mark.parametrize("p", [5, 7])
    def test_each_frobenius_condition_tampered_alone(self, monkeypatch, p, part):
        import trunclog.verify as v

        # the L condition is summed in a^p - a, the G condition in Lc; one
        # sum is pushed off by 1 and the other is left intact.  G-frobenius
        # follows from the other two parts and is computed only when the left
        # inverse fails, so for it the left inverse is made to fail too: the
        # tampered G condition must still be the witness, ahead of the left
        # inverse's own
        target = alpha_p_minus_alpha(p) if part == "L-frobenius" else laguerre_const(p)
        orig = v._frobenius_image

        def tampered(coeffs, arg):
            num, den = orig(coeffs, arg)
            return (num + den, den) if arg == target else (num, den)

        if part == "G-frobenius":
            # the power route proves nothing and the composite is off by 1
            composite = v.left_inverse_lhs
            monkeypatch.setattr(v, "left_inverse_by_powers", lambda *args: False)
            monkeypatch.setattr(v, "left_inverse_lhs", lambda g, lag: composite(g, lag) + 1)
            r = verify_theorem(p, TheoremId.RightInverse)
            assert r.witness["case"] == {"part": "left inverse", "coefficient": 0}
        monkeypatch.setattr(v, "_frobenius_image", tampered)
        r = verify_theorem(p, TheoremId.RightInverse)
        assert r.status == "fail" and r.cases_checked == 1
        assert r.witness["case"] == {"part": part}

    @pytest.mark.parametrize("p", [5, 7])
    def test_shared_composite_tampered(self, monkeypatch, p):
        # The composite G(L(X)) is the sum sum_k c_k * L_k, trusted on the
        # shared power route.  G_2 doubled beside L_2 halved keeps that sum
        # at X while the power formula fails at j = 2.  Honest, the route
        # makes all three checkers fail as their direct oracles do; made to
        # vouch for every case, it makes them pass the broken pair, so each
        # reads it.  Made to deny every case on the true pair, it leaves
        # LeftInverse and RightInverse to the composition, and PowerFormula
        # fails at the j it names.
        import trunclog.verify as v
        from trunclog.fields import inv_mod
        from trunclog.special import laguerre_scaled

        glog_mod = sys.modules["trunclog.glog"]
        theorems = (TheoremId.LeftInverse, TheoremId.RightInverse, TheoremId.PowerFormula)

        def run(route=None):
            if route is not None:
                monkeypatch.setattr(glog_mod, "power_route", route)
                monkeypatch.setattr(v, "power_route", route)
            return [verify_theorem(p, t) for t in theorems]

        fake = [FpPoly.zero(p)] * p
        denied = run(lambda *args: ((), (2, fake)))
        assert [r.status for r in denied] == ["pass", "pass", "fail"]
        assert denied[2].cases_checked == 2 and denied[2].witness["case"] == {"j": 2}
        monkeypatch.undo()

        g = glog(p)
        twin = g.with_coeff(2, g.coeff(2) * 2)
        half = inv_mod(2, p)
        l2 = XPoly([c * half for c in laguerre_scaled(p, 2).coeffs], p)
        monkeypatch.setattr(v, "glog", lambda pp: twin)
        monkeypatch.setattr(
            v, "laguerre_scaled", lambda pp, r: l2 if r == 2 else laguerre_scaled(pp, r)
        )
        honest = run()
        assert [(r.status, r.cases_checked, r.witness) for r in honest] == [
            _left_inverse_direct(p), _right_inverse_direct(p), _power_formula_direct(p),
        ]
        assert [r.status for r in honest] == ["fail"] * 3
        assert [r.status for r in run(lambda *args: ((), None))] == ["pass"] * 3


# The G-side checkers prove their identities from the power formula.  The
# direct routes below are the oracles they must match under every mutation
# of tests/g_side.py: the composition G(L(X)), RightInverse with all three
# parts computed, the loop that multiplies out every power, and Reciprocal on
# reduced fractions.  Each reads the names of trunclog.verify that the
# mutations patch.


def _x_witness(got, **case):
    """The witness of a composite that must be X, or None when it is X."""
    for k, c in enumerate(got.coeffs):
        want = int(k == 1)
        if not (c.den.is_one and c.num == want):
            return {"case": {**case, "coefficient": k}, "lhs": str(c), "rhs": str(want)}
    return None


def _report(witness, cases=1):
    return ("fail" if witness else "pass"), cases, witness


def _left_inverse_direct(p):
    import trunclog.verify as v

    c = RatFn.from_poly(alpha_p_minus_alpha(p))
    return _report(_x_witness(compose_mod(v.glog(p).as_xpoly(), v.laguerre_pm1(p), c)))


def _right_inverse_direct(p):
    import trunclog.verify as v

    g, lag, lc = v.glog(p), v.laguerre_pm1(p), v.laguerre_const(p)
    alpha = alpha_p_minus_alpha(p)
    for part, series, arg, want in (
        ("L-frobenius", lag, alpha, lc),
        ("G-frobenius", g.as_xpoly(), lc, alpha),
    ):
        # sum_k s_k(a^p) * arg^k = want over the common denominator D of s_k
        nums, den = common_denominator(series.coeffs)
        lhs = FpPoly.zero(p)
        for num in reversed(nums):
            lhs = lhs * arg + num.frobenius_p()
        rhs = want * den.frobenius_p()
        if lhs != rhs:
            return _report({"case": {"part": part}, "lhs": str(lhs), "rhs": str(rhs)})
    c = RatFn.from_poly(alpha)
    return _report(_x_witness(compose_mod(g.as_xpoly(), lag, c), part="left inverse"))


def _power_formula_direct(p):
    import trunclog.verify as v
    from trunclog.quotient import grid_mulmod, grid_to_xpoly, xpoly_to_grid

    cpoly = alpha_p_minus_alpha(p)
    pre = v.b_prefix_products(p)
    base = xpoly_to_grid(v.laguerre_scaled(p, 1))
    power = base
    for j in range(1, p):
        if j > 1:
            power = grid_mulmod(power, base, cpoly, p)
        want = [pre[j - 1] * g for g in xpoly_to_grid(v.laguerre_scaled(p, j))]
        if power != want:
            lhs, rhs = grid_to_xpoly(power, p), grid_to_xpoly(want, p)
            return _report({"case": {"j": j}, "lhs": str(lhs), "rhs": str(rhs)}, j)
    return _report(None, p - 1)


def _reciprocal_direct(p):
    import trunclog.verify as v
    from trunclog.glog import reciprocal_rhs

    lc = v.laguerre_const(p)
    for k, (gk, rk) in enumerate(zip(v.glog(p).as_xpoly().coeffs, reciprocal_rhs(p).coeffs)):
        if gk * lc != rk:
            return _report({"case": {"coefficient": k}, "lhs": str(gk * lc), "rhs": str(rk)})
    return _report(None)


G_SIDE_ORACLES = {
    "LeftInverse": _left_inverse_direct,
    "RightInverse": _right_inverse_direct,
    "PowerFormula": _power_formula_direct,
    "Reciprocal": _reciprocal_direct,
}


class TestGSideOracles:
    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("mutation", list(g_side.MUTATIONS))
    @pytest.mark.parametrize("theorem", g_side.G_SIDE)
    def test_matches_the_direct_route(self, monkeypatch, p, mutation, theorem):
        g_side.apply(monkeypatch, mutation)
        want = G_SIDE_ORACLES[theorem](p)
        r = verify_theorem(p, theorem)
        assert (r.status, r.cases_checked, r.witness) == want

    def test_a_failing_step_falls_back_to_its_case(self, monkeypatch):
        # with b[1,1] doubled the step at j = 2 fails while the power formula
        # holds, so the case is compared directly and passes
        import trunclog.verify as v
        from trunclog.quotient import grid_mulmod, xpoly_to_grid
        from trunclog.special import laguerre_scaled

        p = 7
        g_side.apply(monkeypatch, "2*b[1,1]")
        l1, l2 = (xpoly_to_grid(laguerre_scaled(p, r)) for r in (1, 2))
        b = v.b_rs(p, 1, 1)
        assert grid_mulmod(l1, l1, alpha_p_minus_alpha(p), p) != [b * x for x in l2]
        assert verify_theorem(p, TheoremId.PowerFormula).status == "pass"

    @pytest.mark.parametrize("p", [5, 7])
    def test_a_twin_l_runs_no_route(self, monkeypatch, p):
        # the power route is read only for L_1 of record, so a twin
        # laguerre_pm1 goes to composition and leaves the one cached run
        # of the records in place for the checkers after it
        import trunclog.verify as v

        route = sys.modules["trunclog.glog"].power_route
        _fill_shared_run(p)
        runs = route.cache_info().misses
        monkeypatch.setattr(v, "laguerre_pm1", _lag_twin)
        for theorem, direct in [
            (TheoremId.LeftInverse, _left_inverse_direct),
            (TheoremId.RightInverse, _right_inverse_direct),
        ]:
            r = verify_theorem(p, theorem)
            assert (r.status, r.cases_checked, r.witness) == direct(p)
            assert r.status == "fail"
        assert route.cache_info().misses == runs
        for theorem in (TheoremId.LemmaProduct, TheoremId.PowerFormula):
            assert verify_theorem(p, theorem).status == "pass"
        assert route.cache_info().misses == runs

    @pytest.mark.parametrize("mutation, composed", [
        ("none", 0), ("G twin", 1), ("G without the c_k shape", 1), ("L twin", 1),
    ])
    def test_left_inverse_composes_only_what_the_powers_do_not_prove(
        self, monkeypatch, mutation, composed
    ):
        import trunclog.verify as v

        calls = []
        orig = v.left_inverse_lhs

        def counted(g, lag):
            calls.append(1)
            return orig(g, lag)

        g_side.apply(monkeypatch, mutation)
        monkeypatch.setattr(v, "left_inverse_lhs", counted)
        verify_theorem(7, TheoremId.LeftInverse)
        assert len(calls) == composed

    def test_left_inverse_keeps_no_candidate(self):
        import gc
        import itertools
        import weakref

        from trunclog.glog import GLog

        class Twin(GLog):  # a subclass takes weak references
            pass

        p = 7
        g = glog(p)
        refs = []
        for k, c in itertools.islice(itertools.product(range(1, p), range(1, p)), 20):
            coeffs = list(g.coeffs)
            coeffs[k - 1] = coeffs[k - 1] + c
            twin = Twin(p, coeffs)
            assert verify_theorem(p, TheoremId.LeftInverse, g=twin).status == "fail"
            refs.append(weakref.ref(twin))
            del twin
        gc.collect()
        assert [r() for r in refs] == [None] * 20


# TruncBinomialRules, JacobiLink, JacobiShift and BAltAgreement compute row
# r = 1 and count a case (r, s) with r != 1 as an image of a row-1 case; the
# direct loops over every case below are the oracles they must match under
# every mutation of tests/orbit.py.  Each reads at call time the names those
# mutations patch.


def _trunc_binomial_rules_direct(p):
    import trunclog.verify as v
    from trunclog.quotient import grid_mulmod, grid_to_xpoly, xpoly_to_grid

    def grid(f):
        return xpoly_to_grid(v.trunc_binomial(FpPoly(f, p), 1, p))

    zero = FpPoly.zero(p)
    grids = {r: grid([-1, r]) for r in range(1, p)}
    wants = {t: grid([-2, t]) for t in range(p)}
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            cases += 1
            prod = grid_mulmod(grids[r], grids[s], zero, p)
            want = wants[(r + s) % p]
            if prod != want:
                lhs, rhs = grid_to_xpoly(prod, p), grid_to_xpoly(want, p)
                return _report(v._witness({"r": r, "s": s}, lhs, rhs), cases)
    for r in range(1, p):
        cases += 1
        f = FpPoly([-1, r], p)
        lhs = [grids[r][e] * e for e in range(1, p)] + [zero]
        rhs = [row * f for row in wants[r]]
        rhs[p - 1] = rhs[p - 1] + f.frobenius_p() - f
        if lhs != rhs:
            case = {"derivative of": f"(1+X)^({f})"}
            lhs, rhs = grid_to_xpoly(lhs, p), grid_to_xpoly(rhs, p)
            return _report(v._witness(case, lhs, rhs), cases)
    return _report(None, cases)


def _jacobi_link_direct(p):
    import trunclog.verify as v
    from trunclog.polys import interpolate

    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            if (r + s) % p == 0:
                continue
            cases += 1
            base, vals, bad = v._b_record(p, r, s)
            if bad:
                return _report(bad, cases)
            jac_vals = v._jacobi_values(p, (r, 0), (s, 0), v._linked_x(p, r, s))
            if jac_vals != vals:
                lhs = interpolate(jac_vals, p)
                return _report(v._witness({"r": r, "s": s}, lhs, base), cases)
    return _report(None, cases)


def _jacobi_shift_direct(p):
    import trunclog.verify as v
    from trunclog.fields import inv_mod
    from trunclog.polys import interpolate

    half = inv_mod(2, p)
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            if (r + s) % p == 0:
                continue
            cases += 1
            x = v._linked_x(p, r, s)
            plain = interpolate(v._jacobi_values(p, (r, 0), (s, 0), x), p)
            shifted = interpolate(v._jacobi_values(p, (r, 0), (s, 1), x), p)
            if shifted != plain:
                return _report(v._witness({"r": r, "s": s}, shifted, plain), cases)
            x = (x + 1) % p
            plain = interpolate(v._jacobi_values(p, (r, 0), (s, 0), x), p)
            shifted = interpolate(v._jacobi_values(p, (r, 0), (s, 1), x), p)
            a_poly, b_poly = FpPoly([0, r], p), FpPoly([0, s], p)
            lhs = (a_poly + b_poly) * ((x + 1) * half % p) * shifted
            rhs = b_poly * plain + v.p_times_jacobi_p(p, a_poly, b_poly, x)
            if lhs != rhs:
                case = {"r": r, "s": s, "x": x, "identity": "parameter-shift recurrence"}
                return _report(v._witness(case, lhs, rhs), cases)
    return _report(None, cases)


def _b_alt_direct(p):
    import trunclog.verify as v
    from trunclog.polys import interpolate

    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            cases += 1
            base, vals, bad = v._b_record(p, r, s)
            if bad:
                return _report(bad, cases)
            coeff = v._b_coeff_values(p, r, s)
            if vals != coeff:
                case = {"r": r, "s": s, "routes": "sum vs coefficient"}
                return _report(v._witness(case, base, interpolate(coeff, p)), cases)
            if (r + s) % p == 0:
                if not base.is_zero:
                    return _report(v._witness({"r": r, "s": s}, base, 0), cases)
                continue
            alt = v._b_alt_values(p, r, s)
            if vals != alt:
                case = {"r": r, "s": s, "routes": "sum vs alternate"}
                return _report(v._witness(case, base, interpolate(alt, p)), cases)
    return _report(None, cases)


ORBIT_ORACLES = {
    "TruncBinomialRules": _trunc_binomial_rules_direct,
    "JacobiLink": _jacobi_link_direct,
    "JacobiShift": _jacobi_shift_direct,
    "BAltAgreement": _b_alt_direct,
}


def _top_bumped(j, g, d):
    """trunc_binomial with g[t] * a^j added to the X^(p-1) coefficient of
    the series at f = t*a - 1, and d[u] * a^j to that at f = u*a - 2."""
    import trunclog.verify as v

    orig = v.trunc_binomial

    def trunc_binomial(f, b=1, p=None):
        x = orig(f, b, p)
        offset, slope = (list(f.coeffs) + [0, 0])[:2]
        bump = (g if offset == p - 1 else d)[slope]
        coeffs = list(x.coeffs)
        coeffs[p - 1] = coeffs[p - 1] + FpPoly.monomial(bump, j, p)
        return XPoly(coeffs, p)

    return trunc_binomial


def _counted(monkeypatch, name):
    """Patch trunclog.verify's name with a wrapper that counts its calls."""
    import trunclog.verify as v

    calls = []
    orig = getattr(v, name)

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(v, name, counted)
    return calls


def _counted_frobenius(monkeypatch):
    """Count FpPoly.frobenius_p calls; TruncBinomialRules makes one for each
    derivative case it computes."""
    calls = []
    orig = FpPoly.frobenius_p

    def frobenius_p(self):
        calls.append(1)
        return orig(self)

    monkeypatch.setattr(FpPoly, "frobenius_p", frobenius_p)
    return calls


def _tau_off(t0, offset, orig):
    """verify._tau with 1 added to the image under tau_t0 of the series
    whose X coefficient is a + offset: a - 1 is grids[1], so sym[t0] fails;
    a - 2 is wants[1], so wsym[t0] fails."""
    def _tau(grid, t):
        out = orig(grid, t)
        if t == t0 and grid[1] == FpPoly([offset, 1], grid[1].p):
            out[0] = out[0] + 1
        return out

    return _tau


class TestOrbitOracles:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("mutation", list(orbit.MUTATIONS))
    @pytest.mark.parametrize("theorem", orbit.ORBIT)
    def test_matches_the_direct_loop(self, monkeypatch, p, mutation, theorem):
        orbit.apply(monkeypatch, mutation)
        want = ORBIT_ORACLES[theorem](p)
        r = verify_theorem(p, theorem)
        assert (r.status, r.cases_checked, r.witness) == want

    # Every series (1+X)^f of record has constant term 1, so with
    # g[t] * a^j * X^(p-1) added to the series at f = t*a - 1 and
    # d[u] * a^j * X^(p-1) to that at f = u*a - 2 (``_top_bumped``), case
    # (r, s) passes iff g[r] + g[s] = d[r+s]; sym[u] holds iff
    # g[u] = u^j * g[1] and wsym[u] iff d[u] = u^j * d[1].  Row 1 passes, as
    # d[1+s] = g[1] + g[s]; at the first failing case of the direct loop,
    # below, only the named condition fails, so skipping it would pass.  No
    # twin of this form with up to three deviations from a tau-consistent
    # family breaks the diagonal condition alone at p = 5 or 7: each one that
    # passes every earlier case also passes its row's first diagonal case.
    @pytest.mark.parametrize("condition, j, g, d, r0, s0", [
        ("sym[r]", 2, [0, 1, 5, 2, 5, 4, 1], [2, 5, 2, 6, 3, 6, 5], 2, 3),
        ("sym[s]", 2, [0, 1, 4, 0, 5, 4, 1], [2, 5, 2, 5, 1, 6, 5], 2, 3),
        ("sym[s1]", 0, [0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0], 2, 5),
        ("wsym[r+s]", 0, [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0], 2, 2),
        ("wsym[1+s1]", 0, [0] * 7, [0, 1, 0, 0, 0, 0, 0], 2, 6),
    ])
    def test_each_symmetry_condition_is_needed(
        self, monkeypatch, condition, j, g, d, r0, s0
    ):
        import trunclog.verify as v

        p = 7
        monkeypatch.setattr(v, "trunc_binomial", _top_bumped(j, g, d))
        want = _trunc_binomial_rules_direct(p)
        assert want[:2] == ("fail", (r0 - 1) * (p - 1) + s0)
        assert want[2]["case"] == {"r": r0, "s": s0}
        r = verify_theorem(p, TheoremId.TruncBinomialRules)
        assert (r.status, r.cases_checked, r.witness) == want

    def test_trunc_binomial_rules_multiplies_row_one_only(self, monkeypatch):
        # p - 1 products for row 1; every other product case is a tau_r image
        calls = _counted(monkeypatch, "grid_mulmod")
        r = verify_theorem(7, TheoremId.TruncBinomialRules)
        assert r.status == "pass" and r.cases_checked == 42
        assert len(calls) == 6

    def test_trunc_binomial_rules_derives_row_one_only(self, monkeypatch):
        # f^p - f is formed once per computed derivative case: r = 1 only,
        # every other r is a tau_r image
        calls = _counted_frobenius(monkeypatch)
        r = verify_theorem(7, TheoremId.TruncBinomialRules)
        assert r.status == "pass" and r.cases_checked == 42
        assert len(calls) == 1

    @pytest.mark.parametrize("offset, condition", [(-1, "sym"), (-2, "wsym")])
    @pytest.mark.parametrize("r0", [2, 6])
    def test_a_failed_symmetry_computes_its_derivative(
        self, monkeypatch, offset, condition, r0
    ):
        # the symmetry test twinned to fail at r0 alone, on honest records:
        # derivative case r0 is computed besides r = 1, and the report is
        # still the direct loop's
        import trunclog.verify as v

        p = 7
        want = _trunc_binomial_rules_direct(p)
        monkeypatch.setattr(v, "_tau", _tau_off(r0, offset, v._tau))
        calls = _counted_frobenius(monkeypatch)
        r = verify_theorem(p, TheoremId.TruncBinomialRules)
        assert (r.status, r.cases_checked, r.witness) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("p", [5, 7])
    def test_a_bumped_series_table_fails_row_one(self, monkeypatch, p):
        # the series of record read one table per offset; bumped as
        # test_binomials_of_bump bumps the binomials, with the table uncached
        import trunclog.special as special

        orig = special.binomials_of

        def bumped(f, pp):
            out = orig(f, pp)
            out[1] = out[1] + 1
            return out

        monkeypatch.setattr(special, "binomials_of", bumped)
        monkeypatch.setattr(
            special, "_shifted_binomials", special._shifted_binomials.__wrapped__
        )
        r = verify_theorem(p, TheoremId.TruncBinomialRules)
        assert (r.status, r.cases_checked) == ("fail", 1)
        assert r.witness["case"] == {"r": 1, "s": 1}

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("theorem, per_case", [("JacobiLink", 1), ("JacobiShift", 4)])
    def test_jacobi_sums_row_one_only(self, monkeypatch, p, theorem, per_case):
        # row 1 has p - 2 cases; every other row permutes its value vectors
        calls = _counted(monkeypatch, "_sum_values")
        r = verify_theorem(p, theorem)
        assert r.status == "pass" and r.cases_checked == (p - 1) * (p - 2)
        assert len(calls) == per_case * (p - 2)

    @pytest.mark.parametrize("theorem, row1, cases", [
        ("BAltAgreement", 10, 100),
        ("JacobiLink", 9, 90),
    ])
    def test_b_record_values_row_one_only(self, monkeypatch, theorem, row1, cases):
        # p = 11: values(b_rs) runs on row 1's record only, p - 1 cases for
        # BAltAgreement and p - 2 off the diagonal for JacobiLink; every
        # other case is an image under b[r,s] = b[1,s/r](r*a)
        calls = _counted(monkeypatch, "values")
        r = verify_theorem(11, theorem)
        assert (r.status, r.cases_checked) == ("pass", cases)
        assert len(calls) == row1

    @pytest.mark.parametrize("theorem, row1", [("BAltAgreement", 10), ("JacobiLink", 9)])
    def test_broken_build_identity_is_computed(self, monkeypatch, theorem, row1):
        # with b[2,2] + 1 of record the identity fails at (2, 2) alone, so
        # (2, 1) is still counted and (2, 2) is computed, and fails
        orbit.apply(monkeypatch, "b[2,2] + 1")
        calls = _counted(monkeypatch, "values")
        r = verify_theorem(11, theorem)
        assert (r.status, r.cases_checked) == ("fail", row1 + 2)
        assert r.witness["case"]["r"] == r.witness["case"]["s"] == 2
        assert len(calls) == row1 + 1


# Traps for the value-vector checkers.  b_rs is the one route through
# special.binomials_of and FpPoly arithmetic; the value routes read only the
# integer binomial table.  A fault on either side must fail the comparison.

class TestValueVectorTraps:
    @pytest.mark.parametrize("p", [5, 7])
    def test_binomials_of_bump(self, monkeypatch, p):
        import trunclog.special as special

        honest = b_rs(p, 1, 1)
        orig = special.binomials_of

        def bumped(f, pp):
            out = orig(f, pp)
            out[1] = out[1] + 1
            return out

        for name, mod in list(sys.modules.items()):
            if name.startswith("trunclog") and vars(mod).get("binomials_of") is orig:
                monkeypatch.setattr(mod, "binomials_of", bumped)
        # b_rs rebuilds through the bumped binomials, its row-1 table
        # uncached; the trap's entries are dropped with the patches
        bpoly = sys.modules["trunclog.bpoly"]
        monkeypatch.setattr(bpoly, "_B_CACHE", {})
        monkeypatch.setattr(
            bpoly, "_a_minus_1_binomials", bpoly._a_minus_1_binomials.__wrapped__
        )
        broken = b_rs(p, 1, 1)
        assert broken != honest
        r = verify_theorem(p, TheoremId.BAltAgreement)
        assert r.status == "fail" and r.cases_checked == 1
        # the failing value route is interpolated back to today's witness text
        assert r.witness == {
            "case": {"r": 1, "s": 1, "routes": "sum vs coefficient"},
            "lhs": str(broken),
            "rhs": str(honest),
        }
        r = verify_theorem(p, TheoremId.JacobiLink)
        assert r.status == "fail" and r.cases_checked == 1
        assert r.witness == {"case": {"r": 1, "s": 1}, "lhs": str(honest), "rhs": str(broken)}

    @pytest.mark.parametrize("p", [5, 7])
    def test_value_table_bump(self, monkeypatch, p):
        import trunclog.verify as v

        orig = v._binomial_table

        def bumped(pp):
            rows = [list(row) for row in orig(pp)]
            rows[2][1] = (rows[2][1] + 1) % pp
            return tuple(tuple(row) for row in rows)

        monkeypatch.setattr(v, "_binomial_table", bumped)
        for tid in (
            TheoremId.BAltAgreement,
            TheoremId.JacobiLink,
            TheoremId.JacobiShift,
            TheoremId.JacobiReflection,
        ):
            r = verify_theorem(p, tid)
            assert r.status == "fail" and r.witness is not None, tid

    @pytest.mark.parametrize("p", [5, 7])
    def test_p_times_jacobi_p_bump(self, monkeypatch, p):
        import trunclog.verify as v
        from trunclog.jacobi import p_times_jacobi_p

        monkeypatch.setattr(
            v, "p_times_jacobi_p", lambda *args: p_times_jacobi_p(*args) + 1
        )
        r = verify_theorem(p, TheoremId.JacobiShift)
        assert r.status == "fail" and r.cases_checked == 1
        # (r, s) = (1, 1) links x = 0; the recurrence is checked at x + 1
        assert r.witness["case"] == {
            "r": 1, "s": 1, "x": 1, "identity": "parameter-shift recurrence",
        }

    @pytest.mark.parametrize("p", [5, 7])
    def test_p_times_jacobi_p_zero_twin(self, monkeypatch, p):
        # zero at every linked argument, but not at x + 1 where the
        # recurrence is checked
        import trunclog.verify as v

        monkeypatch.setattr(v, "p_times_jacobi_p", lambda pp, *args: FpPoly.zero(pp))
        r = verify_theorem(p, TheoremId.JacobiShift)
        assert r.status == "fail" and r.cases_checked == 1
        assert r.witness["case"] == {
            "r": 1, "s": 1, "x": 1, "identity": "parameter-shift recurrence",
        }

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("end, link", [
        ("head", "b[1,s] = P(a, s*a; (s-1)/(s+1))"),
        ("tail", "P(a, (-s-1)*a; (s+2)/s) = b[1,p-1-s]"),
    ])
    def test_b_bump_trips_reflection_naming_its_link(self, monkeypatch, p, end, link):
        # bump b[1,1] or b[1,p-2]: the chain at s = 1 breaks at that end
        import trunclog.verify as v

        bumped_s = 1 if end == "head" else p - 2
        monkeypatch.setattr(
            v, "b_rs", lambda pp, r, s: b_rs(pp, r, s) + (1 if s == bumped_s else 0)
        )
        r = verify_theorem(p, TheoremId.JacobiReflection)
        assert r.status == "fail" and r.cases_checked == 1
        honest, broken = str(b_rs(p, 1, 1)), str(b_rs(p, 1, bumped_s) + 1)
        assert r.witness == {
            "case": {"s": 1, "link": link},
            "lhs": broken if end == "head" else honest,
            "rhs": honest if end == "head" else broken,
        }

    @pytest.mark.parametrize("p", [5, 7])
    def test_same_values_higher_degree_fails_the_guard(self, monkeypatch, p):
        # b + (a^p - a) has b's value vector; only the degree bound rejects it
        import trunclog.verify as v

        shift = FpPoly.monomial(1, p, p) - FpPoly.x(p)
        monkeypatch.setattr(v, "b_rs", lambda pp, r, s: b_rs(pp, r, s) + shift)
        for tid in (
            TheoremId.BAltAgreement, TheoremId.JacobiLink, TheoremId.JacobiReflection
        ):
            r = verify_theorem(p, tid)
            assert r.status == "fail" and r.cases_checked == 1, tid
            assert r.witness == {
                "case": {"r": 1, "s": 1, "guard": "degree"},
                "lhs": f"degree {p}",
                "rhs": f"degree at most {p - 1}",
            }


def _profiled_calls(fn):
    """(module, qualified name) of every Python function entered while fn runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_globals.get("__name__"), frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


def _polynomial_layer(seen):
    return sorted(
        (mod, name) for mod, name in seen
        if (mod == "trunclog.polys" and name.startswith("FpPoly."))
        or (mod, name) == ("trunclog.special", "binomials_of")
    )


class TestValueRouteAudit:
    def test_value_routes_call_no_polynomial_code(self):
        import trunclog.verify as v

        p = 5
        # an empty table cache, so the table's construction is audited too
        v._binomial_table.cache_clear()

        def routes():
            for r in range(1, p):
                for s in range(1, p):
                    v._b_coeff_values(p, r, s)
                    if (r + s) % p:
                        x = v._linked_x(p, r, s)
                        v._b_alt_values(p, r, s)
                        v._jacobi_values(p, (r, 0), (s, 0), x)
                        v._jacobi_values(p, (r, 0), (s, 1), x)
                        v._jacobi_values(p, (r, 0), (s, 0), x + 1)
                        v._jacobi_values(p, (r, 0), (s, 1), x + 1)
            for s in range(1, p - 1):
                v._reflection_values(p, s)

        seen = _profiled_calls(routes)
        assert ("trunclog.verify", "_binomial_table") in seen
        assert ("trunclog.verify", "_sum_values") in seen
        assert ("trunclog.verify", "_reflection_values") in seen
        assert _polynomial_layer(seen) == []

    def test_audit_sees_the_polynomial_routes(self):
        # the same audit on the polynomial routes finds both layers
        from trunclog.bpoly import b_rs_alt
        from trunclog.jacobi import jacobi_pm1

        # x = 2 is the linked argument (2 - 1)/(2 + 1) for (r, s) = (1, 2)
        a_poly, b_poly = FpPoly([0, 1], 5), FpPoly([0, 2], 5)
        found = _polynomial_layer(
            _profiled_calls(
                lambda: (b_rs_alt(5, 1, 2), jacobi_pm1(5, a_poly, b_poly, 2))
            )
        )
        assert ("trunclog.special", "binomials_of") in found
        assert any(name.startswith("FpPoly.") for _, name in found)


def _library_routes(seen):
    """Calls into special, bpoly or glog, and FpPoly or RatFn methods."""
    return sorted(
        (mod, name) for mod, name in seen
        if mod in ("trunclog.special", "trunclog.bpoly", "trunclog.glog")
        or (mod == "trunclog.polys" and name.startswith(("FpPoly.", "RatFn.")))
    )


class TestCCoefficientsRouteAudit:
    def test_pair_system_calls_no_library_route(self):
        # lag_coeffs_at must stay an independent route to L's coefficients
        seen = _profiled_calls(lambda: verify_c_coefficients(5, pair_budget=40))
        assert ("trunclog.pairsystem", "lag_coeffs_at") in seen
        assert ("trunclog.pairsystem", "solve_pair") in seen
        assert _library_routes(seen) == []

    def test_audit_sees_a_shared_route(self, monkeypatch):
        # the same audit flags a coefficient route that reads special
        import trunclog.pairsystem as ps

        def via_special(field, at):
            laguerre_pm1(field.p)
            return lag_coeffs_at(field, at)

        monkeypatch.setattr(ps, "lag_coeffs_at", via_special)
        seen = _profiled_calls(lambda: verify_c_coefficients(5, pair_budget=1))
        assert ("trunclog.special", "laguerre_pm1") in _library_routes(seen)


def _above_the_basics(seen):
    """Library functions outside the fields and polys basics."""
    return {
        (mod, name) for mod, name in seen
        if mod and mod.startswith("trunclog.")
        and mod not in ("trunclog.fields", "trunclog.polys")
    }


def _shared_lc_routes(p):
    """What the two routes to the modulus constant both enter above the
    basics, each route audited on its own."""
    import trunclog.special as special

    sub = _above_the_basics(_profiled_calls(lambda: special._lc_by_substitution(p)))
    prod = _above_the_basics(_profiled_calls(lambda: special._lc_by_product(p)))
    return sub & prod


class TestLFactorizationRouteAudit:
    def test_routes_share_nothing_above_the_basics(self):
        import trunclog.special as special

        # the cached pair LFactorization compares is built by the two routes
        seen = _profiled_calls(lambda: special.laguerre_const_routes.__wrapped__(5))
        assert ("trunclog.special", "_lc_by_substitution") in seen
        assert ("trunclog.special", "_lc_by_product") in seen
        assert _shared_lc_routes(5) == set()

    def test_audit_sees_a_shared_route(self, monkeypatch):
        # the same audit flags a product route that reads the substitution's
        # falling factorials
        import trunclog.special as special

        orig = special._lc_by_product

        def via_falling_factorials(p):
            special._falling_factorials(FpPoly.x(p), 2)
            return orig(p)

        monkeypatch.setattr(special, "_lc_by_product", via_falling_factorials)
        assert ("trunclog.special", "_falling_factorials") in _shared_lc_routes(5)


def _bypass_product_caches(monkeypatch):
    """A fresh cache for b_rs, and the cached constructors the routes of
    product_all_b read unwrapped, so an audit sees every function a route
    enters."""
    import trunclog.bpoly as bpoly
    import trunclog.special as special

    monkeypatch.setattr(bpoly, "_B_CACHE", {})
    for mod, name in ((bpoly, "b_prefix_products"), (bpoly, "_a_minus_1_binomials"),
                      (special, "laguerre_const_routes"),
                      (special, "_shifted_binomials")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, getattr(fn, "__wrapped__", fn))


def _shared_product_routes(monkeypatch, p):
    """What any two of ProductFormula's three routes both enter above the
    basics, each route audited on its own with the caches bypassed."""
    import trunclog.bpoly as bpoly

    seen = []
    for route in ("b_prefix_products", "_product_by_linear_factors",
                  "_product_by_modulus_constant"):
        _bypass_product_caches(monkeypatch)
        fn = getattr(bpoly, route)
        seen.append(_above_the_basics(_profiled_calls(lambda: fn(p))))
    return (seen[0] & seen[1]) | (seen[0] & seen[2]) | (seen[1] & seen[2])


def _shared_b_tables(monkeypatch, p):
    """The per-prime tables that both b_rs and b_rs_coeff enter, each route
    audited on its own with the caches bypassed."""
    import trunclog.bpoly as bpoly
    from trunclog import fields

    # every per-prime cache registers its clear, bypassed or not
    caches = [getattr(clear, "__self__", None) for clear in fields.per_prime_clears]
    tables = {(fn.__module__, fn.__qualname__) for fn in caches if fn is not None}
    assert {("trunclog.bpoly", "_a_minus_1_binomials"),
            ("trunclog.special", "_shifted_binomials")} <= tables
    seen = []
    for route in ("b_rs", "b_rs_coeff"):
        _bypass_product_caches(monkeypatch)
        fn = getattr(bpoly, route)
        seen.append(_profiled_calls(lambda: [fn(p, r, s) for r, s in ((1, 2), (3, 2))]))
    return seen[0] & seen[1] & tables


class TestProductFormulaRouteAudit:
    def test_routes_share_nothing_above_the_basics(self, monkeypatch):
        import trunclog.bpoly as bpoly

        # the cached product ProductFormula reads is built by the three routes
        _bypass_product_caches(monkeypatch)
        seen = _profiled_calls(lambda: bpoly.product_all_b.__wrapped__(7))
        for route in (
            "b_prefix_products",
            "_product_by_linear_factors",
            "_product_by_modulus_constant",
        ):
            assert ("trunclog.bpoly", route) in seen
        # with the caches bypassed, the routes reach their own constructors
        assert ("trunclog.bpoly", "_a_minus_1_binomials") in seen
        assert ("trunclog.special", "_lc_by_substitution") in seen
        assert _shared_product_routes(monkeypatch, 7) == set()

    def test_audit_sees_a_shared_route(self, monkeypatch):
        # the same audit flags a linear-factor route that reads the falling
        # factorials of the modulus constant's substitution route
        import trunclog.bpoly as bpoly
        import trunclog.special as special

        orig = bpoly._product_by_linear_factors

        def via_falling_factorials(p):
            special._falling_factorials(FpPoly.x(p), 2)
            return orig(p)

        monkeypatch.setattr(bpoly, "_product_by_linear_factors", via_falling_factorials)
        shared = _shared_product_routes(monkeypatch, 7)
        assert ("trunclog.special", "_falling_factorials") in shared

    def test_b_rs_and_b_rs_coeff_share_no_table(self, monkeypatch):
        # both build binomials, each from its own table: row 1's C(a - 1, k)
        # and trunc_binomial's C(a + d, k)
        import trunclog.bpoly as bpoly

        _bypass_product_caches(monkeypatch)
        seen = _profiled_calls(lambda: (bpoly.b_rs(7, 1, 2), bpoly.b_rs_coeff(7, 1, 2)))
        assert ("trunclog.bpoly", "_a_minus_1_binomials") in seen
        assert ("trunclog.special", "_shifted_binomials") in seen
        assert _shared_b_tables(monkeypatch, 7) == set()

    def test_audit_sees_a_shared_table(self, monkeypatch):
        # the same audit flags a coefficient route that reads row 1's table
        import trunclog.bpoly as bpoly

        orig = bpoly.trunc_binomial

        def via_row_one_table(f, b=1, p=None):
            bpoly._a_minus_1_binomials(f.p)
            return orig(f, b, p)

        monkeypatch.setattr(bpoly, "trunc_binomial", via_row_one_table)
        shared = _shared_b_tables(monkeypatch, 7)
        assert shared == {("trunclog.bpoly", "_a_minus_1_binomials")}


def _value_type_calls(fn):
    """Each RatFn or XPoly method entered, while fn runs, directly from a
    frame of trunclog.verify."""
    seen = set()

    def profile(frame, event, arg):
        name = frame.f_code.co_qualname
        if (
            event == "call"
            and name.startswith(("RatFn.", "XPoly."))
            and frame.f_globals.get("__name__") in ("trunclog.polys", "trunclog.quotient")
            and frame.f_back.f_globals.get("__name__") == "trunclog.verify"
        ):
            seen.add(name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen


_POLYNOMIAL_ONLY = [
    TheoremId.LeftInverse,
    TheoremId.RightInverse,
    TheoremId.Reciprocal,
    TheoremId.TruncBinomialRules,
    TheoremId.PolylogWilson,
    TheoremId.SixSymmetries,
]


def _run_polynomial_only(p):
    reports = [verify_theorem(p, tid) for tid in _POLYNOMIAL_ONLY]
    assert all(r.status == "pass" for r in reports)


class TestValueTypeAudit:
    # the checkers whose identities hold between fractions or series compare
    # them on polynomials; the constructors are prebuilt so that only the
    # checks are audited
    p = 7

    @pytest.fixture(autouse=True)
    def prebuilt(self):
        from trunclog.bpoly import b_prefix_products

        glog(self.p)
        laguerre_const(self.p)
        for negate in (False, True):
            b_prefix_products(self.p, negate=negate)
        for r in range(1, self.p):
            for s in range(1, self.p):
                b_rs(self.p, r, s)

    def test_checkers_call_no_fraction_or_series_method(self):
        assert _value_type_calls(lambda: _run_polynomial_only(self.p)) == set()

    def test_audit_sees_a_fraction_product(self, monkeypatch):
        # a fraction in place of Lc makes Reciprocal multiply RatFn itself
        import trunclog.verify as v

        lc = RatFn.from_poly(laguerre_const(self.p))
        monkeypatch.setattr(v, "laguerre_const", lambda pp: lc)
        seen = _value_type_calls(lambda: verify_theorem(self.p, TheoremId.Reciprocal))
        assert "RatFn.__mul__" in seen


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

    def test_budget_not_an_int_rejected(self):
        for budget in (2.5, "many", True, False, 3.0):
            with pytest.raises(ValueError, match="pair budget"):
                verify_c_coefficients(7, budget)
            with pytest.raises(ValueError, match="pair budget"):
                verify_theorem(7, "CCoefficients", pair_budget=budget)

    def test_default_budget_small_prime_is_exhaustive(self):
        r = verify_theorem(3, TheoremId.CCoefficients)
        assert r.cases_checked == 63


def _c_pair_rows(field, at, bt):
    """Oracle: the rows of the pair system, entry by entry on *_raw.

    Row j*p + m holds the p coefficients of equation (j, m) and then its
    right side ca[j] cb[m].
    """
    p = field.p
    zero = (0, 0)
    u = field.sub_raw(field.frobenius_raw(at), at)
    v = field.sub_raw(field.frobenius_raw(bt), bt)
    ca = lag_coeffs_at(field, at)
    cb = lag_coeffs_at(field, bt)
    gamma = field.add_raw(at, bt)
    cg = lag_coeffs_at(field, gamma)
    g1 = [[field.mul_raw(ca[j], cb[m]) for m in range(p)] for j in range(p)]
    g2 = [[zero] * p for _ in range(p)]
    for j in range(p):
        for m in range(p - j):
            s = math.comb(j + m, j) % p
            if s:
                g2[j][m] = field.mul_raw(cg[j + m], (s, 0))
    # entry (j, m, i) is g2[j - i][m + i] (indices mod p), times u when the
    # first index wraps (j < i) and times v when the second does not
    # (m + i <= p - 1); tables[2 * (j < i) + (m + i < p)] holds that product
    uv = field.mul_raw(u, v)
    tables = [g2] + [
        [[field.mul_raw(x, s) for x in row] for row in g2] for s in (v, u, uv)
    ]
    rows = []
    for j in range(p):
        for m in range(p):
            row = [g2[j][m]]
            row += [
                tables[2 * (j < i) + (m + i < p)][(j - i) % p][(m + i) % p]
                for i in range(1, p)
            ]
            row.append(g1[j][m])
            rows.append(row)
    return rows


def _ring_mul(field, f, g, u, v):
    """f*g in F_{p^2}[X, Y]/(X^p - u, Y^p - v), on dicts {(j, m): raw pair}."""
    p = field.p
    out = {}
    for (j1, m1), x in f.items():
        for (j2, m2), y in g.items():
            z = field.mul_raw(x, y)
            j, m = j1 + j2, m1 + m2
            if j >= p:
                j, z = j - p, field.mul_raw(z, u)
            if m >= p:
                m, z = m - p, field.mul_raw(z, v)
            out[j, m] = field.add_raw(out.get((j, m), (0, 0)), z)
    return [out.get((j, m), (0, 0)) for j in range(p) for m in range(p)]


def _ring_identity_sides(field, at, bt, c):
    """Both sides of L_alpha(X) L_beta(Y) = D L_{alpha+beta}(X+Y), with
    D = c_0 + sum_{i>=1} c_i X^i Y^(p-i), reduced in the ring, as coefficient
    lists in row order."""
    p = field.p
    u = field.sub_raw(field.frobenius_raw(at), at)
    v = field.sub_raw(field.frobenius_raw(bt), bt)
    ca, cb = lag_coeffs_at(field, at), lag_coeffs_at(field, bt)
    cg = lag_coeffs_at(field, field.add_raw(at, bt))
    g2, power = {}, {(0, 0): (1, 0)}
    for k in range(p):  # sum_k cg[k] (X+Y)^k, the powers by ring products
        for key, x in power.items():
            g2[key] = field.add_raw(g2.get(key, (0, 0)), field.mul_raw(cg[k], x))
        grid = _ring_mul(field, power, {(1, 0): (1, 0), (0, 1): (1, 0)}, u, v)
        power = {(j, m): grid[j * p + m] for j in range(p) for m in range(p)}
    d = {(0, 0): c[0], **{(i, p - i): c[i] for i in range(1, p)}}
    lhs = _ring_mul(field, {(j, 0): x for j, x in enumerate(ca)},
                    {(0, m): y for m, y in enumerate(cb)}, u, v)
    return lhs, _ring_mul(field, d, g2, u, v)


def _width(layout):
    return 8 * array(layout.typecode).itemsize


def _reduced(p, packed, tc):
    """The p^2 slots of a packed (c0 part, c1 part), reduced, in row order."""
    x0, x1 = (_slots(x, p * p, tc) for x in packed)
    return [(a % p, b % p) for a, b in zip(x0, x1)]


def _packed(pairs, tc):
    """(c0 part, c1 part) with pairs[k] in slot k."""
    return tuple(_pack(part, tc) for part in zip(*pairs))


def _with_slot(packed, k, x, w):
    """packed with slot k of each part replaced by the pair x."""
    return tuple(
        part - (((part >> k * w) & ((1 << w) - 1)) << k * w) + (xi << k * w)
        for part, xi in zip(packed, x)
    )


class TestPackedColumns:
    @pytest.mark.parametrize("p, budget", [
        (3, "exhaustive"), (5, 20), (7, 10), (11, 5),
    ])
    def test_columns_are_the_ring_identity(self, p, budget):
        # sum_i c_i C_i is D L_{alpha+beta}(X+Y) reduced by X^p -> u and
        # Y^p -> v, for random c, and the right side is L_alpha(X) L_beta(Y)
        import random

        field = ext_quadratic(p)
        layout = Layout.build(field)
        tc = layout.typecode
        rng = random.Random(p)
        for at, bt in _c_pairs(field, budget, seed=p):
            cols, rhs = pair_columns(field, at, bt, layout)
            c = [(rng.randrange(p), rng.randrange(p)) for _ in range(p)]
            got = [(0, 0)] * (p * p)
            for ci, col in zip(c, cols):
                got = [
                    field.add_raw(g, field.mul_raw(ci, x))
                    for g, x in zip(got, _reduced(p, col, tc))
                ]
            lhs, want = _ring_identity_sides(field, at, bt, c)
            assert got == want, (at, bt)
            assert _reduced(p, rhs, tc) == lhs, (at, bt)

    @pytest.mark.parametrize("p, budget", [
        (3, "exhaustive"), (5, 20), (7, 10), (11, 5),
    ])
    def test_solution_is_the_only_one_of_the_ring_identity(self, p, budget):
        # the solved c makes the identity hold; bumping any one coordinate
        # of any c_i breaks it
        field = ext_quadratic(p)
        layout = Layout.build(field)
        for at, bt in _c_pairs(field, budget, seed=p):
            cols, rhs = pair_columns(field, at, bt, layout)
            sol = solve_pair(field, cols, rhs, layout)
            lhs, rhs_side = _ring_identity_sides(field, at, bt, sol)
            assert lhs == rhs_side, (at, bt)
            for i in range(p):
                for step in ((1, 0), (0, 1)):
                    c = sol[:]
                    c[i] = field.add_raw(c[i], step)
                    lhs, rhs_side = _ring_identity_sides(field, at, bt, c)
                    assert lhs != rhs_side, (at, bt, i, step)

    @pytest.mark.parametrize("p, budget", [
        (3, "exhaustive"), (5, "exhaustive"), (7, 30), (11, 15), (13, 10),
    ])
    def test_columns_match_the_row_oracle(self, p, budget):
        field = ext_quadratic(p)
        layout = Layout.build(field)
        tc = layout.typecode
        for at, bt in _c_pairs(field, budget, seed=p):
            cols, rhs = pair_columns(field, at, bt, layout)
            rows = _c_pair_rows(field, at, bt)
            assert len(cols) == p and len(rhs) == 2
            for i, col in enumerate(cols):
                assert _reduced(p, col, tc) == [row[i] for row in rows], (at, bt, i)
            assert _reduced(p, rhs, tc) == [row[p] for row in rows]
            # the outer product leaves every right-side slot unreduced, and
            # no slot spills into the next
            ca, cb = lag_coeffs_at(field, at), lag_coeffs_at(field, bt)
            n = field.nonres
            assert [list(_slots(part, p * p, tc)) for part in rhs] == [
                [x0 * y0 + n * x1 * y1 for x0, x1 in ca for y0, y1 in cb],
                [x0 * y1 + x1 * y0 for x0, x1 in ca for y0, y1 in cb],
            ]
            # the last block only: m = 0 first, then m from p-1 down to 1
            order = [p * (p - 1) + m for m in [0, *range(p - 1, 0, -1)]]
            assert list(_row_pair_rows(p, cols, rhs, tc)) == [rows[k] for k in order]

    @pytest.mark.parametrize("p, budget", [
        (3, "exhaustive"), (5, "exhaustive"), (7, "exhaustive"),
        (11, 20), (13, 12), (19, 6), (31, 3),
    ])
    def test_last_block_is_triangular(self, p, budget):
        # row (p-1, m), m >= 1, is 0 left of column p-m and holds cg[m-1]
        # there; row (p-1, 0) holds cg[p-1] in column 0; every cg[k] != 0
        field = ext_quadratic(p)
        for at, bt in _c_pairs(field, budget, seed=p):
            cg = lag_coeffs_at(field, field.add_raw(at, bt))
            assert (0, 0) not in cg, (at, bt)
            block = _c_pair_rows(field, at, bt)[p * (p - 1):]
            assert block[0][0] == cg[p - 1], (at, bt)
            for m in range(1, p):
                assert block[m][: p - m] == [(0, 0)] * (p - m), (at, bt, m)
                assert block[m][p - m] == cg[m - 1], (at, bt, m)

    @pytest.mark.parametrize("p, budget", [
        (3, "exhaustive"), (5, "exhaustive"), (7, "exhaustive"),
        (11, 20), (13, 12), (19, 6), (31, 3),
    ])
    def test_first_rows_are_zero_in_earlier_leads(self, p, budget):
        # in the solve's lead order, each of the last block's p rows has a
        # lead and is 0 in the lead columns of the rows before it, so none
        # of them needs a reduction
        field = ext_quadratic(p)
        layout = Layout.build(field)
        for at, bt in _c_pairs(field, budget, seed=p):
            cols, rhs = pair_columns(field, at, bt, layout)
            rows = _row_pair_rows(p, cols, rhs, layout.typecode)
            leads = []
            for _ in range(p):
                row = next(rows)
                assert all(row[c] == (0, 0) for c in leads), (at, bt, leads)
                leads.append(next(c for c in range(p) if row[c] != (0, 0)))
            assert sorted(leads) == list(range(p)), (at, bt)

    @pytest.mark.parametrize("p, budget", [
        (3, "exhaustive"), (5, "exhaustive"), (7, "exhaustive"),
        (11, 40), (13, 30), (19, 100), (31, 40),
    ])
    def test_checker_reads_p_rows_per_pair(self, monkeypatch, p, budget):
        # the solve reads only the last block, the top p slots: with every
        # slot below it garbage, in the columns and the right side, each
        # pair's solution is the same
        import random

        import trunclog.verify as v

        rng = random.Random(p)
        same = []

        def garbled(field, cols, rhs, layout):
            top = (p - 1) * p * _width(layout)

            def garble(x):
                return (x >> top << top) | rng.getrandbits(top)

            sol = solve_pair(field, cols, rhs, layout)
            cols = [tuple(map(garble, col)) for col in cols]
            same.append(solve_pair(field, cols, tuple(map(garble, rhs)), layout) == sol)
            return sol

        monkeypatch.setattr(v, "solve_pair", garbled)
        r = verify_c_coefficients(p, pair_budget=budget, seed=p)
        assert r.status == "pass"
        assert same == [True] * r.cases_checked

    def test_rank_deficient_last_block_has_no_solution(self, monkeypatch):
        # column 0 loses its entry in row (p-1, 0), and that row's right side
        # drops the term it carried: the whole system keeps its solution, but
        # the last block has a 0 on its diagonal, which the solver rejects
        p = 7
        field = ext_quadratic(p)
        layout = Layout.build(field)
        tc = layout.typecode
        w = _width(layout)
        k = p * (p - 1)  # row (p-1, 0)

        def emptied(field, at, bt, layout):
            cols, rhs = pair_columns(field, at, bt, layout)
            true_sol = solve_pair(field, cols, rhs, layout)
            cg = lag_coeffs_at(field, field.add_raw(at, bt))
            cols[0] = _with_slot(cols[0], k, (0, 0), w)
            r = field.sub_raw(_reduced(p, rhs, tc)[k], field.mul_raw(cg[p - 1], true_sol[0]))
            return cols, _with_slot(rhs, k, r, w), true_sol

        for at, bt in _c_pairs(field, 10, seed=5):
            cols, rhs, true_sol = emptied(field, at, bt, layout)
            read = list(_row_pair_rows(p, cols, rhs, tc))
            assert read[0][0] == (0, 0), (at, bt)
            assert solve_pair(field, cols, rhs, layout) is None, (at, bt)
            assert _reference_solve(field, _all_rows(p, cols, rhs, tc), p) == (true_sol, True)
            assert substitutes(field, cols, rhs, true_sol, layout)
        _assert_no_solution_at(monkeypatch, p, 5, lambda *args: emptied(*args)[:2])

    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("consistent", [True, False])
    def test_entry_left_of_the_lead_has_no_solution(self, monkeypatch, p, consistent):
        # row (p-1, m), m >= 1, gets a nonzero entry x in a column c < p-m,
        # left of its lead, so the block is no longer triangular.  When
        # consistent, its right side gains x times c's true value, and the
        # true solution still satisfies every equation
        import random

        field = ext_quadratic(p)
        layout = Layout.build(field)
        tc = layout.typecode
        w = _width(layout)
        rng = random.Random(p)

        def bumped(field, at, bt, layout):
            cols, rhs = pair_columns(field, at, bt, layout)
            true_sol = solve_pair(field, cols, rhs, layout)
            m = rng.randrange(1, p)
            c = rng.randrange(p - m)
            x = (rng.randrange(1, p), rng.randrange(p))
            k = p * (p - 1) + m  # row (p-1, m)
            cols[c] = tuple(part + (xi << k * w) for part, xi in zip(cols[c], x))
            if consistent:
                r = field.add_raw(_reduced(p, rhs, tc)[k], field.mul_raw(x, true_sol[c]))
                rhs = _with_slot(rhs, k, r, w)
            return cols, rhs, true_sol, m, c, x

        for at, bt in _c_pairs(field, 2 * p, seed=p):
            cols, rhs, true_sol, m, c, x = bumped(field, at, bt, layout)
            read = list(_row_pair_rows(p, cols, rhs, tc))
            assert read[p - m][c] == x, (at, bt, m, c)
            assert solve_pair(field, cols, rhs, layout) is None, (at, bt, m, c)
            if consistent:
                full = _all_rows(p, cols, rhs, tc)
                assert _reference_solve(field, full, p) == (true_sol, True)
                assert substitutes(field, cols, rhs, true_sol, layout)
        _assert_no_solution_at(monkeypatch, p, p, lambda *args: bumped(*args)[:2])

    def test_layout_is_per_call(self):
        # two calls build equal tables, but not the same objects
        field = ext_quadratic(7)
        first, second = Layout.build(field), Layout.build(field)
        assert first == second and first.pieces is not second.pieces


def _all_rows(p, cols, rhs, tc):
    """All p^2 rows of a packed system, reduced, in row order."""
    entries = [_reduced(p, col, tc) for col in (*cols, rhs)]
    return [[col[k] for col in entries] for k in range(p * p)]


def _row_pair_rows(p, cols, rhs, tc):
    """Oracle, the solve's input in row form: the p rows of the triangular
    block j = p-1, reduced, in lead-column order: row (p-1, 0) first, then
    (p-1, m) for m from p-1 down to 1."""
    shift = (p - 1) * p * 8 * array(tc).itemsize
    parts = [[_slots(c >> shift, p, tc) for c in col] for col in (*cols, rhs)]
    for m in (0, *reversed(range(1, p))):
        yield [(c0[m] % p, c1[m] % p) for c0, c1 in parts]


def _row_solve_pair(field, rows, ncols):
    """Oracle: back substitution on ncols rows of ncols + 1 reduced pairs,
    the last the right side: the solution, or None unless row k is 0 left of
    column k and nonzero at column k.  Any other row count raises
    ValueError."""
    rows = list(rows)
    if len(rows) != ncols:
        raise ValueError(f"expected {ncols} rows, got {len(rows)}")
    p, n = field.p, field.nonres
    zero = (0, 0)
    sol = [zero] * ncols
    for k in reversed(range(ncols)):
        r = rows[k]
        if r[k] == zero or r[:k].count(zero) != k:
            return None
        acc0, acc1 = r[ncols]
        for (x0, x1), (y0, y1) in zip(r[k + 1 : ncols], sol[k + 1 :]):
            acc0 -= x0 * y0 + n * x1 * y1
            acc1 -= x0 * y1 + x1 * y0
        i0, i1 = field.inv_raw(r[k])
        sol[k] = ((acc0 * i0 + n * acc1 * i1) % p, (acc0 * i1 + acc1 * i0) % p)
    return sol


def _packed_block(field, rows, layout, rng):
    """Columns and right side whose last block holds the p rows, given in
    the solve's lead order, as unreduced slots up to (1+n)(p-1)^2; every
    slot below the block is random."""
    p, tc = field.p, layout.typecode
    top = (p - 1) * p * _width(layout)
    most = (1 + field.nonres) * (p - 1) ** 2

    def unreduced(x):
        return x + p * rng.randrange((most - x) // p + 1)

    packed = []
    for c in range(p + 1):
        block = [None] * p
        for k, row in enumerate(rows):
            block[(p - k) % p] = tuple(map(unreduced, row[c]))
        packed.append(tuple(
            (_pack(part, tc) << top) | rng.getrandbits(top) for part in zip(*block)
        ))
    return packed[:p], packed[p]


def _assert_no_solution_at(monkeypatch, p, seed, broken, at_pair=3):
    """The checker reports "no solution" at the at_pair-th pair when only
    that pair's system, columns and packed right side, is built by
    broken(field, at, bt, layout)."""
    import trunclog.verify as v

    calls = []

    def columns(*args):
        calls.append(args[1:3])
        return (broken if len(calls) == at_pair else pair_columns)(*args)

    monkeypatch.setattr(v, "pair_columns", columns)
    r = verify_c_coefficients(p, pair_budget=2 * at_pair, seed=seed)
    at, bt = calls[at_pair - 1]
    assert r.status == "fail" and r.cases_checked == at_pair
    assert r.witness == {
        "case": {"alpha": at, "beta": bt}, "lhs": "no solution", "rhs": "solvable system",
    }


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


def _triangular_system(field, rng, ncols):
    """Random rows k = 0..ncols-1: 0 left of column k, nonzero at column k,
    dense to its right and in the right side."""
    p = field.p

    def rand():
        return (rng.randrange(p), rng.randrange(p))

    return [
        [(0, 0)] * k + [(rng.randrange(1, p), rng.randrange(p))]
        + [rand() for _ in range(ncols - k)]
        for k in range(ncols)
    ]


class TestSolvePair:
    @pytest.mark.parametrize("p", [7, 11])
    def test_matches_full_elimination(self, p):
        # the last block's solution is the one of all p^2 equations
        field = ext_quadratic(p)
        layout = Layout.build(field)
        for at, bt in _c_pairs(field, 20, seed=p):
            cols, rhs = pair_columns(field, at, bt, layout)
            sol = solve_pair(field, cols, rhs, layout)
            assert (sol, True) == _reference_solve(field, _c_pair_rows(field, at, bt), p)

    @pytest.mark.parametrize("p", [3, 7, 31])
    def test_random_systems_match_full_elimination(self, p):
        # dense rows couple every later column, so each step of the back
        # substitution counts; the slots are unreduced, zeros among them
        # as multiples of p, and the slots below the block random
        import random

        field = ext_quadratic(p)
        layout = Layout.build(field)
        rng = random.Random(p)
        for _ in range(12):
            rows = _triangular_system(field, rng, p)
            sol = solve_pair(field, *_packed_block(field, rows, layout, rng), layout)
            assert (sol, True) == _reference_solve(field, rows, p)
            assert sol == _row_solve_pair(field, iter(rows), p)
            assert _satisfies(field, rows, sol)

    @pytest.mark.parametrize("p", [3, 7, 31])
    def test_shape_violations_have_no_solution(self, p):
        # a 0 on the diagonal, or a nonzero entry left of it, gives None
        import random

        field = ext_quadratic(p)
        layout = Layout.build(field)
        rng = random.Random(p)
        for _ in range(30):
            k = rng.randrange(p)
            rows = _triangular_system(field, rng, p)
            rows[k][k] = (0, 0)
            assert _row_solve_pair(field, rows, p) is None, k
            assert solve_pair(field, *_packed_block(field, rows, layout, rng), layout) is None, k
            if k:
                rows = _triangular_system(field, rng, p)
                rows[k][rng.randrange(k)] = (rng.randrange(p), rng.randrange(1, p))
                assert _row_solve_pair(field, rows, p) is None, k
                packed = _packed_block(field, rows, layout, rng)
                assert solve_pair(field, *packed, layout) is None, k

    def test_row_count_other_than_ncols_raises(self):
        # the row-form oracle reads exactly ncols rows
        import random

        field = ext_quadratic(7)
        rows = _triangular_system(field, random.Random(0), 4)
        for bad in (rows[:3], rows + [rows[0]], []):
            with pytest.raises(ValueError, match="expected 4 rows"):
                _row_solve_pair(field, iter(bad), 4)

    def test_inconsistent_before_full_rank_has_no_solution(self):
        # row 1 is twice row 0 with another right side
        import random

        field = ext_quadratic(3)
        rows = [
            [(1, 0), (2, 0), (0, 0), (0, 0)],
            [(2, 0), (1, 0), (0, 0), (2, 0)],
            [(0, 0), (0, 0), (1, 1), (2, 2)],
        ]
        assert _row_solve_pair(field, rows, 3) is None
        layout = Layout.build(field)
        packed = _packed_block(field, rows, layout, random.Random(3))
        assert solve_pair(field, *packed, layout) is None

    def test_reads_rows_only_up_to_full_rank(self):
        # the last block alone has rank p; no slot below it is read
        import random

        p = 7
        field = ext_quadratic(p)
        layout = Layout.build(field)
        cols, rhs = pair_columns(field, (2, 3), (4, 1), layout)
        rows = list(_row_pair_rows(p, cols, rhs, layout.typecode))
        oracle = _c_pair_rows(field, (2, 3), (4, 1))
        # rows (p-1, 0), then (p-1, m) for m from p-1 down to 1
        assert rows == [oracle[p * (p - 1)], *oracle[: p * (p - 1) : -1]]
        sol = solve_pair(field, cols, rhs, layout)
        packed = _packed_block(field, rows, layout, random.Random(p))
        assert solve_pair(field, *packed, layout) == sol == _row_solve_pair(field, rows, p)
        assert _satisfies(field, oracle, sol)


def _zero_test(field, layout, x0, x1):
    """substitutes on a system whose two accumulators are x0 and x1: zero
    columns and solution, and the pad less x as the right side."""
    zeros = [(0, 0)] * field.p
    return substitutes(field, zeros, (layout.pad - x0, layout.pad - x1), zeros, layout)


class TestPackedZeroTest:
    @pytest.mark.parametrize("p", [5, 7, 19])
    def test_divisible_int_with_nonzero_slots_fails(self, p):
        # slots (x, y) with x + y 2^w divisible by p and x, y in [1, p), at
        # every pair of neighbouring slots: divisibility of the whole int
        # passes, the quotient mask does not
        field = ext_quadratic(p)
        layout = Layout.build(field)
        w = _width(layout)
        for x in range(1, p):
            y = -x * pow(2, -w, p) % p
            for k in range(p * p - 1):
                acc = (x + (y << w)) << k * w
                assert acc % p == 0 and x % p and y % p
                assert not _zero_test(field, layout, acc, 0), (x, k)
                assert not _zero_test(field, layout, 0, acc), (x, k)

    @pytest.mark.parametrize("p", [5, 7, 19])
    def test_one_bumped_slot_fails(self, p):
        # every slot at the bound, a multiple of p, but one moved off it, in
        # either part
        field = ext_quadratic(p)
        layout = Layout.build(field)
        w = _width(layout)
        bound = slot_bound(p, field.nonres)
        assert bound % p == 0
        full = _pack([bound] * (p * p), layout.typecode)
        for k in range(p * p):
            for value in (1, bound - 1):
                bumped = full + ((value - bound) << k * w)
                assert not _zero_test(field, layout, bumped, full), (k, value)
                assert not _zero_test(field, layout, full, bumped), (k, value)

    @pytest.mark.parametrize("p", [5, 7, 19])
    def test_multiples_of_p_up_to_the_bound_pass(self, p):
        import random

        field = ext_quadratic(p)
        layout = Layout.build(field)
        top = slot_bound(p, field.nonres) // p
        rng = random.Random(p)
        cases = [[0] * (p * p), [top * p] * (p * p)]
        cases += [[p * rng.randrange(top + 1) for _ in range(p * p)] for _ in range(20)]
        for slots in cases:
            x = _pack(slots, layout.typecode)
            assert _zero_test(field, layout, x, x)
            assert _zero_test(field, layout, x, 0) and _zero_test(field, layout, 0, x)


class TestSlotBound:
    @pytest.mark.parametrize("p, budget", [(3, "exhaustive"), (19, 20), (31, 8)])
    def test_largest_raw_slot_within_bound(self, monkeypatch, p, budget):
        # 8-byte slots hold far more than the bound at these primes, so a
        # wrong bound would show as a larger slot instead of wrapping, and a
        # negative one raises; seen are the columns, the right side and
        # every int the zero test reads, the substitution's accumulators
        # among them, which bound the solve's accumulator too
        import trunclog.pairsystem as ps
        import trunclog.verify as v

        seen = [0]

        def record(x):
            seen[0] = max(seen[0], max(_slots(x, p * p, "Q")))

        def columns(*args):
            cols, rhs = pair_columns(*args)
            for part in (*rhs, *(x for col in cols for x in col)):
                record(part)
            return cols, rhs

        orig_vanishes = ps._vanishes

        def recording(x, q, high):
            record(x)
            return orig_vanishes(x, q, high)

        monkeypatch.setattr(ps, "_slot_typecode", lambda bound: "Q")
        monkeypatch.setattr(ps, "_vanishes", recording)
        monkeypatch.setattr(v, "pair_columns", columns)
        r = verify_c_coefficients(p, pair_budget=budget, seed=1)
        assert r.status == "pass"
        bound = slot_bound(p, ext_quadratic(p).nonres)
        assert 0 < seen[0] <= bound
        assert _slot_typecode(bound) == "I"

    @pytest.mark.parametrize("p", [3, 19, 43])
    def test_pad_and_quotient_mask_slots(self, p):
        # every pad slot is the least multiple of p that no right-side slot,
        # at most (1+n)(p-1)^2, exceeds, so no slot of the zero test goes
        # negative; every high slot masks the bits from b up
        field = ext_quadratic(p)
        layout = Layout.build(field)
        tc, w = layout.typecode, _width(layout)
        most = (1 + field.nonres) * (p - 1) ** 2
        (pad,) = set(_slots(layout.pad, p * p, tc))
        assert pad % p == 0 and most <= pad < most + p
        b = (slot_bound(p, field.nonres) // p).bit_length()
        assert set(_slots(layout.high, p * p, tc)) == {(1 << w) - (1 << b)}

    @pytest.mark.parametrize("p", [19, 43, 71, 97])
    def test_four_byte_slots_up_to_97(self, p):
        # the width holds the bound and p (2^b - 1), not twice the bound
        assert Layout.build(ext_quadratic(p)).typecode == "I"

    def test_width_holds_the_quotient_bits(self, monkeypatch):
        # a bound below 2^32 whose quotient by p needs b bits, with
        # p (2^b - 1) >= 2^32, takes 8-byte slots
        import trunclog.pairsystem as ps

        monkeypatch.setattr(ps, "slot_bound", lambda p, n: (1 << 32) - 1)
        assert Layout.build(ext_quadratic(5)).typecode == "Q"

    def test_bound_too_wide_raises(self, monkeypatch):
        import trunclog.pairsystem as ps

        with pytest.raises(OverflowError):
            _slot_typecode(slot_bound(65537, 3))
        monkeypatch.setattr(ps, "slot_bound", lambda p, n: 1 << 64)
        with pytest.raises(OverflowError):
            verify_c_coefficients(5, pair_budget=1)

    def test_large_prime_raises_before_building(self):
        # the guard runs before any table of p^2 slots exists
        with pytest.raises(OverflowError):
            verify_c_coefficients(65537, pair_budget=1)


class TestCCoefficientsMutationTraps:
    @pytest.mark.parametrize("index", [-1, 0])
    def test_bumped_right_side_fails(self, monkeypatch, index):
        # the last row is in the last block and yields a wrong solution;
        # row 0 is outside it, so only the substitution reads it
        import trunclog.verify as v

        build = v.pair_columns

        def bad_columns(field, at, bt, layout):
            cols, rhs = build(field, at, bt, layout)
            k = index % field.p ** 2
            r = field.add_raw(_reduced(field.p, rhs, layout.typecode)[k], (1, 0))
            return cols, _with_slot(rhs, k, r, _width(layout))

        monkeypatch.setattr(v, "pair_columns", bad_columns)
        r = verify_c_coefficients(7, pair_budget=5, seed=0)
        assert r.status == "fail"
        assert r.cases_checked == 1
        assert r.witness["lhs"] == "solution fails an equation"

    def test_inconsistent_first_row_has_no_solution(self, monkeypatch):
        # row p^2 - 1, the lead row of column 1, becomes 0 = 1
        import trunclog.verify as v

        build = v.pair_columns

        def bad_columns(field, at, bt, layout):
            cols, rhs = build(field, at, bt, layout)
            w = _width(layout)
            low = 1 << (field.p ** 2 - 1) * w
            cols = [(c0 % low, c1 % low) for c0, c1 in cols]
            return cols, _with_slot(rhs, field.p ** 2 - 1, (1, 0), w)

        monkeypatch.setattr(v, "pair_columns", bad_columns)
        r = verify_c_coefficients(7, pair_budget=5, seed=0)
        assert r.status == "fail" and r.cases_checked == 1
        assert r.witness["lhs"] == "no solution"
        assert r.witness["rhs"] == "solvable system"

    def test_consistent_wrong_system_fails_closed_forms(self, monkeypatch):
        # the right side is replaced by the columns applied to the closed
        # forms with c_0 bumped: the system is consistent, so substitution
        # passes, and only the closed forms at p = 3 see the wrong solution
        import trunclog.verify as v

        build = v.pair_columns
        bumped = []

        def wrong_system(field, at, bt, layout):
            cols, _ = build(field, at, bt, layout)
            p, tc = field.p, layout.typecode
            target = _closed_forms_p3(field, at, bt)
            target[0] = field.add_raw(target[0], (1, 0))
            bumped.append(target)
            parts = [_reduced(p, col, tc) for col in cols]
            rhs = []
            for k in range(p * p):
                acc = (0, 0)
                for part, s in zip(parts, target):
                    acc = field.add_raw(acc, field.mul_raw(part[k], s))
                rhs.append(acc)
            return cols, _packed(rhs, tc)

        monkeypatch.setattr(v, "pair_columns", wrong_system)
        r = verify_c_coefficients(3, pair_budget=5, seed=0)
        assert r.status == "fail" and r.cases_checked == 1
        at, bt = r.witness["case"]["alpha"], r.witness["case"]["beta"]
        assert r.witness["lhs"] == str(bumped[0])
        assert r.witness["rhs"] == str(_closed_forms_p3(ext_quadratic(3), at, bt))


# A fresh interpreter, so that no earlier test has filled the caches; every
# module that imported compose_mod or grid_mulmod gets a counting wrapper.
_COUNT_SHARED_WORK = """
import json, sys
import trunclog
from trunclog import quotient, special

orig = quotient.compose_mod
calls = []

def counted(*args):
    calls.append(1)
    return orig(*args)

grid_orig = quotient.grid_mulmod
pairs = []

def grid_counted(a, b, cpoly, p):
    pairs.append((tuple(a), tuple(b), cpoly))
    return grid_orig(a, b, cpoly, p)

for name, mod in list(sys.modules.items()):
    if name.startswith("trunclog"):
        if vars(mod).get("compose_mod") is orig:
            setattr(mod, "compose_mod", counted)
        if vars(mod).get("grid_mulmod") is grid_orig:
            setattr(mod, "grid_mulmod", grid_counted)
reports = trunclog.verify_all(7)
glog = sys.modules["trunclog.glog"]
print(json.dumps({
    "compose_mod": len(calls),
    "grid_mulmod_repeats": len(pairs) - len(set(pairs)),
    "power_route_runs": glog.power_route.cache_info().misses,
    "routes_built": special.laguerre_const_routes.cache_info().misses,
    "statuses": sorted({r.status for r in reports}),
}))
"""


class TestSharedResults:
    def test_each_identity_computed_once(self):
        # glog's guard, LeftInverse, RightInverse and PowerFormula share one
        # run of the power formula, LemmaProduct reads its steps for row 1,
        # no grid product is formed twice, and a passing run composes
        # nothing; laguerre_const and LFactorization share the routes to the
        # modulus constant
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-c", _COUNT_SHARED_WORK],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {
            "compose_mod": 0, "grid_mulmod_repeats": 0, "power_route_runs": 1,
            "routes_built": 1, "statuses": ["pass"],
        }
