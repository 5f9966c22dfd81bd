"""The b-family: three routes, predicted roots, conjugates, the full product."""

import math
import re

import pytest

import trunclog.bpoly as bp

from trunclog.bpoly import (
    CSV_HEADER,
    b_prefix_products,
    b_root_lucas,
    b_roots_csv_rows,
    b_roots_predicted,
    b_rs,
    b_rs_alt,
    b_rs_coeff,
    product_all_b,
)
from trunclog.fields import inv_mod
from trunclog.polys import FpPoly, roots_and_split
from trunclog.special import binomial_sum, laguerre_const, laguerre_pm1, laguerre_scaled
from trunclog.verify import (
    TheoremId,
    _b_alt_values,
    _b_coeff_values,
    _binomial_table,
    verify_theorem,
)

PRIMES = (3, 5, 7, 11, 13)


def binom_oracle(f, k):
    """C(f, k) = f(f-1)...(f-k+1) / k! for an FpPoly f and 0 <= k < p: a
    falling product of the tests' own, apart from ``special.binomials_of``."""
    p = f.p
    out = FpPoly.one(p, f.var)
    for j in range(k):
        out = out * (f - j)
    return out * inv_mod(math.factorial(k) % p, p)


class TestBKey:
    """Every constructor takes (p, r, s) and validates it before building."""

    def test_validation(self):
        for build in (b_rs, b_rs_alt, b_rs_coeff):
            with pytest.raises(ValueError):
                build(5, 0, 1)
            with pytest.raises(ValueError):
                build(5, 1, 5)
            with pytest.raises(ValueError):
                build(9, 1, 1)

    def test_degenerate_flag(self):
        # the diagonal r + s = p: b is zero, and the alternate form refuses it
        assert b_rs(5, 2, 3).is_zero
        with pytest.raises(ValueError):
            b_rs_alt(5, 2, 3)
        assert not b_rs(5, 2, 2).is_zero
        assert b_rs_alt(5, 2, 2) == b_rs(5, 2, 2)


class TestDefiningSum:
    def test_p5_b11(self):
        # oracle: the product (1-a)(1-3a) = 3a^2 + a + 1 mod 5, roots {1, 2}
        prod = FpPoly([1, -1], 5) * FpPoly([1, -3], 5)
        assert prod == FpPoly([1, 1, 3], 5)
        assert b_rs(5, 1, 1) == prod

    def test_p3_b11(self):
        assert b_rs(3, 1, 1) == FpPoly([1, -1], 3)

    def test_diagonal_is_zero(self):
        for p in PRIMES:
            for r in range(1, p):
                assert b_rs(p, r, p - r).is_zero

    def test_constant_term_one_off_diagonal(self):
        for p in PRIMES:
            for r in range(1, p):
                for s in range(1, p):
                    if r + s != p:
                        assert b_rs(p, r, s).eval_int(0) == 1

    def test_scaling_identity(self):
        # b[rt, st](a) = b[r, s](t a)
        for p in (5, 7):
            for t in range(1, p):
                for r in range(1, p):
                    for s in range(1, p):
                        rt, st = r * t % p, s * t % p
                        if rt and st:
                            assert b_rs(p, rt, st) == b_rs(p, r, s).subs_scale(t)

    def test_memoized(self):
        assert b_rs(5, 1, 1) is b_rs(5, 1, 1)

    @pytest.mark.parametrize("fn", [b_rs, b_rs_alt, b_rs_coeff])
    @pytest.mark.parametrize("r, s, name", [(2.5, 1, "r"), (1, 1.5, "s"), ("2", 1, "r")])
    def test_indices_must_be_integers(self, fn, r, s, name):
        # a float index would give a polynomial with float coefficients
        bad = r if name == "r" else s
        message = f"^argument {name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(TypeError, match=message):
            fn(5, r, s)
        assert all(isinstance(key[1], int) and isinstance(key[2], int)
                   for key in bp._B_CACHE)


class TestSigmaBuild:
    # rows r != 1 are built as b[1, s/r](r*a); the defining sum is the oracle
    @pytest.mark.parametrize("p", PRIMES)
    def test_every_member_equals_the_direct_sum(self, p):
        for r in range(1, p):
            for s in range(1, p):
                direct = binomial_sum(
                    FpPoly([-1, r], p), FpPoly([-1, s], p), 1, -r * inv_mod(s, p) % p
                )
                assert str(b_rs(p, r, s)) == str(direct), (r, s)

    @pytest.mark.parametrize("p", PRIMES)
    def test_scaled_exponential_is_sigma_of_the_base(self, p):
        # sigma_r: a -> r*a, X -> r*X sends L_1 to L_r coefficient by coefficient
        base = laguerre_pm1(p).coeffs
        for r in range(1, p):
            want = [c.num.subs_scale(r) * pow(r, k, p) for k, c in enumerate(base)]
            got = laguerre_scaled(p, r).coeffs
            assert all(c.den.is_one for c in got)
            assert [c.num for c in got] == want, r

    @pytest.mark.parametrize("p", [5, 7])
    def test_wrong_scale_trips_the_checkers(self, monkeypatch, p):
        # scaling by -r instead of r: b[1,s] is not even (b(a) * b(-a) =
        # 1 - a^(p-1) has simple roots), so every row r != 1 off the
        # diagonal is wrong, and the first such case in ascending order is
        # (2, 1), one past row 1
        import trunclog.bpoly as bp

        honest = bp._b_rs_build

        def wrong_scale(pp, r, s):
            if r == 1:
                return honest(pp, r, s)
            return b_rs(pp, 1, s * inv_mod(r, pp) % pp).subs_scale(-r)

        monkeypatch.setattr(bp, "_b_rs_build", wrong_scale)
        monkeypatch.setattr(bp, "_B_CACHE", {})
        r = verify_theorem(p, TheoremId.BAltAgreement)
        assert r.status == "fail" and r.cases_checked == p
        assert r.witness["case"] == {"r": 2, "s": 1, "routes": "sum vs coefficient"}
        r = verify_theorem(p, TheoremId.LemmaProduct)
        assert r.status == "fail" and r.cases_checked == p
        assert r.witness["case"] == {"r": 2, "s": 1}


class TestAlternateRoutes:
    def test_alt_matches(self):
        assert b_rs_alt(3, 1, 1) == b_rs(3, 1, 1)
        assert b_rs_alt(5, 1, 2) == b_rs(5, 1, 2)

    def test_alt_rejected_on_diagonal(self):
        with pytest.raises(ValueError):
            b_rs_alt(5, 2, 3)

    def test_coeff_route_matches(self):
        assert b_rs_coeff(5, 1, 1) == FpPoly([1, 1, 3], 5)
        for p in (5, 7):
            for r in range(1, p):
                for s in range(1, p):
                    assert b_rs_coeff(p, r, s) == b_rs(p, r, s)

    def test_b_rr_closed_form(self):
        # b[r,r] = (-1)^((p-1)/2) C(r a - 1, (p-1)/2)
        for p in (5, 7):
            for r in range(1, p):
                want = binom_oracle(FpPoly([-1, r], p), (p - 1) // 2) * pow(
                    -1, (p - 1) // 2, p
                )
                assert b_rs(p, r, r) == want

    def test_three_route_agreement_all_keys(self):
        for p in (3, 5, 7, 11):
            for r in range(1, p):
                for s in range(1, p):
                    base = b_rs(p, r, s)
                    assert base == b_rs_coeff(p, r, s)
                    if r + s != p:
                        assert base == b_rs_alt(p, r, s)


class TestValueRoutes:
    # the integer-table routes the verifier compares, against pointwise
    # evaluation of the polynomial routes they stand in for
    @pytest.mark.parametrize("p", PRIMES)
    def test_coeff_values_match_coeff_route(self, p):
        for r in range(1, p):
            for s in range(1, p):
                want = b_rs_coeff(p, r, s)
                assert _b_coeff_values(p, r, s) == [want.eval_int(t) for t in range(p)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_alt_values_match_alt_route(self, p):
        for r in range(1, p):
            for s in range(1, p):
                if r + s == p:
                    continue
                want = b_rs_alt(p, r, s)
                assert _b_alt_values(p, r, s) == [want.eval_int(t) for t in range(p)]

    @pytest.mark.parametrize("p", PRIMES)
    def test_binomial_table_is_the_polynomial_binomial(self, p):
        # C(a, m) as a polynomial in a takes the integer binomial mod p on F_p
        table = _binomial_table(p)
        for m in range(p):
            col = binom_oracle(FpPoly.x(p), m)
            assert [row[m] for row in table] == [col.eval_int(t) for t in range(p)]


class TestPredictedRoots:
    def test_examples(self):
        assert b_roots_predicted(5, 2) == frozenset({1, 3})
        assert b_roots_predicted(7, 3) == frozenset({1, 3, 5})

    def test_s_one_gives_first_half(self):
        for p in PRIMES:
            assert b_roots_predicted(p, 1) == frozenset(range(1, (p - 1) // 2 + 1))

    def test_half_the_points_and_pairing(self):
        for p in PRIMES:
            for s in range(1, p - 1):
                roots = b_roots_predicted(p, s)
                assert len(roots) == (p - 1) // 2
                for a in range(1, p):
                    assert (a in roots) != (p - a in roots)

    def test_s_pm1_rejected(self):
        with pytest.raises(ValueError):
            b_roots_predicted(7, 6)

    def test_matches_actual_roots(self):
        for p in PRIMES:
            for s in range(1, p - 1):
                f = b_rs(p, 1, s)
                assert f.degree == (p - 1) // 2
                _, roots = roots_and_split(f)
                assert all(m == 1 for m in roots.values())
                assert frozenset(roots) == b_roots_predicted(p, s)


class TestLucasCriterion:
    def test_examples(self):
        # C(3,1) = 3, not divisible by 5 -> root
        assert b_root_lucas(5, 2, 1) is True
        # C(6,2) = 15 = 0 mod 5 -> not a root
        assert b_root_lucas(5, 2, 2) is False
        # matches the predicate 5 + 1 < 7
        assert b_root_lucas(7, 3, 5) is True

    def test_agrees_with_prediction(self):
        for p in PRIMES:
            for s in range(1, p - 1):
                predicted = b_roots_predicted(p, s)
                for a in range(1, p):
                    assert b_root_lucas(p, s, a) == (a in predicted)

    def test_range_rejections(self):
        with pytest.raises(ValueError):
            b_root_lucas(5, 4, 1)
        with pytest.raises(ValueError):
            b_root_lucas(5, 2, 0)


class TestConjugateAndSymmetry:
    def test_conjugate_identity(self):
        for p in PRIMES:
            w = FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)
            for s in range(1, p - 1):
                f = b_rs(p, 1, s)
                assert f * f.subs_scale(p - 1) == w

    def test_symmetry(self):
        for p in PRIMES:
            for s in range(1, p - 1):
                assert b_rs(p, 1, s) == b_rs(p, 1, p - 1 - s)


class TestFullProduct:
    def test_p3_value(self):
        # single factor b[1,1] = 1 - a = 1 + 2a mod 3
        assert product_all_b(3) == FpPoly([1, 2], 3)

    def test_constant_term_one(self):
        for p in PRIMES:
            assert product_all_b(p).eval_int(0) == 1

    def test_multiplicities(self):
        for p in (5, 7, 11):
            _, roots = roots_and_split(product_all_b(p))
            for a in range(1, p):
                assert roots.get(a, 0) == p - 1 - a

    def test_against_modulus_constant(self):
        for p in PRIMES:
            w = FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)
            assert product_all_b(p) * w == laguerre_const(p)

    def test_prefix_products(self):
        p = 7
        pre = b_prefix_products(p)
        assert pre[0] == FpPoly.one(p)
        acc = FpPoly.one(p)
        for s in range(1, p - 1):
            acc = acc * b_rs(p, 1, s)
            assert pre[s] == acc
        pre_neg = b_prefix_products(p, negate=True)
        acc = FpPoly.one(p)
        for s in range(1, p - 1):
            acc = acc * b_rs(p, 1, s).subs_scale(p - 1)
            assert pre_neg[s] == acc


class TestCsv:
    def test_header_and_rows(self):
        assert CSV_HEADER == "p,s,roots,degree"
        rows = b_roots_csv_rows(5)
        assert rows == ["5,1,1;2,2", "5,2,1;3,2", "5,3,1;2,2"]


class TestCacheConcurrency:
    def test_concurrent_first_writers_agree(self):
        # idempotent inserts: many threads racing to build the same entries
        # must all observe equal values; the last row comes first, so rows
        # r != 1 race each other into the row-1 builds they read
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import trunclog.bpoly as bp

        p = 13
        keys = [(r, s) for r in range(p - 1, 0, -1) for s in range(1, p)]
        bp._B_CACHE.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda rs: b_rs(p, *rs), keys * 2))
        finally:
            sys.setswitchinterval(interval)
        for (r, s), f in zip(keys * 2, results):
            direct = binomial_sum(
                FpPoly([-1, r], p), FpPoly([-1, s], p), 1, -r * inv_mod(s, p) % p
            )
            assert f == direct, (r, s)
