"""Special-function constructors and their built-in identities."""

import math
import random
import re

import pytest

from trunclog import special
from trunclog.errors import TheoremViolationError
from trunclog.fields import inv_mod
from trunclog.polys import FpPoly, RatFn
from trunclog.quotient import XPoly, _coerce_ratfn
from trunclog.special import (
    alpha_p_minus_alpha,
    finite_polylog,
    laguerre_const,
    laguerre_const_routes,
    laguerre_pm1,
    laguerre_scaled,
    trunc_binomial,
)


def truncated_exponential(p):
    """Independent oracle: sum X^k / k! with factorials done in the integers."""
    return FpPoly(
        [inv_mod(math.factorial(k) % p, p) for k in range(p)], p, var="X"
    )


class TestLaguerrePm1:
    def test_p3_expansion(self):
        # expand term by term mod 3 by hand: (2a^2+1) + (2a+1) X + 2 X^2
        lag = laguerre_pm1(3)
        assert lag.coeffs[0] == RatFn.from_poly(FpPoly([1, 0, 2], 3))
        assert lag.coeffs[1] == RatFn.from_poly(FpPoly([1, 2], 3))
        assert lag.coeffs[2] == RatFn.const(2, 3)

    def test_constant_term(self):
        for p in (3, 5, 7, 11, 13):
            want = FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)
            assert laguerre_pm1(p).coeffs[0] == RatFn.from_poly(want)

    def test_top_coefficient_is_minus_one(self):
        for p in (3, 5, 7, 11, 13):
            assert laguerre_pm1(p).coeffs[p - 1] == RatFn.const(-1, p)

    def test_specializes_to_truncated_exponential(self):
        for p in (3, 5, 7):
            assert laguerre_pm1(p).specialize(0) == truncated_exponential(p)

    def test_two_displayed_coefficient_forms_agree(self):
        # -(a-1)_(p-1-k) == C(a-1, p-1-k) * (-1)^k / k! for every k, p <= 31:
        # L's coefficients, built from falling factorials, against binomials_of
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            bins = special.binomials_of(FpPoly([-1, 1], p), p)
            for k in range(p):
                first = laguerre_pm1(p).coeffs[k].as_poly()
                second = (
                    bins[p - 1 - k]
                    * pow(-1, k, p)
                    * inv_mod(math.factorial(k) % p, p)
                )
                assert first == second

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            laguerre_pm1(2)


def laguerre_direct(p, r):
    """Independent oracle for L_r: the falling-factorial chain of r*a - 1 for
    every r, coefficient of X^k -(ra-1)_(p-1-k) * r^k, with no cached L_1."""
    ra_minus_1 = FpPoly([-1, r], p)
    ff = [FpPoly.one(p)]
    for m in range(p - 1):
        ff.append(ff[-1] * (ra_minus_1 - m))
    return XPoly([RatFn.from_poly(-ff[p - 1 - k] * pow(r, k, p)) for k in range(p)], p)


def clear_per_prime_caches():
    from trunclog import fields

    for clear in fields.per_prime_clears:
        clear()


class TestLaguerreScaled:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_sigma_build_equals_the_direct_chain(self, p):
        for r in range(1, p):
            assert laguerre_scaled(p, r) == laguerre_direct(p, r), r

    @pytest.mark.parametrize("p", [5, 7])
    def test_a_bumped_l1_reaches_every_scale(self, monkeypatch, p):
        # every L_r with r != 1 is read off the cached L_1, so a twin L_1
        # moves them all off the direct chain, and PowerFormula fails
        import trunclog.verify as v

        orig = special.laguerre_scaled

        def bumped(pp, r):
            x = orig(pp, r)
            if r != 1:
                return x
            return XPoly([x.coeffs[0], x.coeffs[1] + 1, *x.coeffs[2:]], pp)

        monkeypatch.setattr(special, "laguerre_scaled", bumped)
        monkeypatch.setattr(v, "laguerre_scaled", bumped)
        clear_per_prime_caches()
        try:
            for r in range(2, p):
                assert bumped(p, r) != laguerre_direct(p, r), r
            report = v.verify_theorem(p, "PowerFormula")
            assert report.status == "fail"
        finally:
            clear_per_prime_caches()  # the L_r built from the twin go

    def test_r_one_is_plain(self):
        for p in (3, 5, 7):
            assert laguerre_scaled(p, 1) == laguerre_pm1(p)

    def test_constant_term_r2_p3(self):
        # substitute into 1 - a^(p-1): 1 - (2a)^2 = 1 + 2a^2 mod 3
        assert laguerre_scaled(3, 2).coeffs[0] == RatFn.from_poly(FpPoly([1, 0, 2], 3))

    def test_specializes_to_scaled_exponential(self):
        for p in (3, 5):
            for r in range(1, p):
                want = truncated_exponential(p).compose(FpPoly([0, r], p, "X"))
                assert laguerre_scaled(p, r).specialize(0) == want

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            laguerre_scaled(5, 5)


class TestFinitePolylog:
    def test_p3_d1(self):
        # 1/2 = 2 mod 3
        assert finite_polylog(3, 1) == FpPoly([0, 1, 2], 3, "X")

    def test_d0_all_units(self):
        for p in (3, 5, 7):
            assert finite_polylog(p, 0) == FpPoly([0] + [1] * (p - 1), p, "X")

    def test_p5_top_coefficient(self):
        # 1/4 = 4 mod 5
        assert finite_polylog(5, 1).coeffs[4] == 4

    def test_shape(self):
        for p in (3, 5, 7, 11, 13):
            l1 = finite_polylog(p, 1)
            assert l1.degree == p - 1
            assert l1.coeffs[0] == 0

    def test_shift_identity(self):
        # polylog_1(1 - X) == polylog_1(X) for p <= 13
        for p in (3, 5, 7, 11, 13):
            l1 = finite_polylog(p, 1)
            assert l1.compose(FpPoly([1, -1], p, "X")) == l1

    def test_reciprocal_identity(self):
        # polylog_1(X) == -X^p * polylog_1(1/X): compare the expanded polynomial
        for p in (3, 5, 7, 11, 13):
            l1 = finite_polylog(p, 1)
            rhs = FpPoly(
                [0] + [-inv_mod(p - k, p) % p for k in range(1, p)], p, "X"
            )
            assert l1 == rhs


# Series arithmetic for the derivative rule, on the coefficients of an
# untagged series below X^p.


def derivative(x):
    return XPoly([x.coeffs[e] * e for e in range(1, x.p)], x.p)


def times(x, s):
    return XPoly([c * s for c in x.coeffs], x.p)


def top_term(p, c):
    """c * X^(p-1)."""
    return XPoly([0] * (p - 1) + [c], p)


def _trunc_binomial_by_ratfn(f, b, p):
    """``trunc_binomial`` as a RatFn product loop: every binomial and every
    power of b coerced to a fraction first."""
    if isinstance(f, int):
        f = FpPoly.const(f, p)
    br = _coerce_ratfn(b, p)
    bk, out = br ** 0, []
    for c in special.binomials_of(f, p):
        out.append(_coerce_ratfn(c, p) * bk)
        bk = bk * br
    return XPoly(out, p)


class TestTruncBinomial:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_matches_the_ratfn_loop(self, p):
        exponents = [
            0, 3 % p, p - 2, FpPoly([-1, 2], p), FpPoly([1, 3, 1], p),
            RatFn(FpPoly([1], p), FpPoly([1, 1], p)),
        ]
        scales = [
            0, 1, p - 1, FpPoly([0, 1], p), FpPoly([2, 0, 1], p),
            RatFn(FpPoly([1], p), FpPoly([1, 1], p)),
        ]
        for f in exponents:
            for b in scales:
                got = trunc_binomial(f, b, p)
                assert got == _trunc_binomial_by_ratfn(f, b, p), (f, b)

    def test_f_zero(self):
        assert trunc_binomial(0, 1, 5) == XPoly.constant(1, 5)

    def test_int_exponent_needs_p(self):
        with pytest.raises(ValueError, match="p is required for an int exponent"):
            trunc_binomial(3)

    @pytest.mark.parametrize("f", [2.5, 2.0, "2", None])
    def test_a_plain_exponent_must_be_an_integer(self, f):
        # binomials_of(2.5, p) would give a series with float coefficients
        message = f"^argument f must be an integer, got {re.escape(repr(f))}$"
        with pytest.raises(TypeError, match=message):
            trunc_binomial(f, 1, 5)
        with pytest.raises(TypeError, match=message):
            trunc_binomial(f)

    def test_small_integer_exponent_is_exact_binomial(self):
        for p in (5, 7):
            for a in range(p):
                got = trunc_binomial(a, 1, p)
                want = XPoly([math.comb(a, k) for k in range(a + 1)], p)
                assert got == want

    def test_product_rule_sampled(self):
        rng = random.Random(0)
        zero = RatFn.zero(5)
        for _ in range(10):
            p = 5
            f = FpPoly([rng.randrange(p) for _ in range(2)], p)
            g = FpPoly([rng.randrange(p) for _ in range(2)], p)
            lhs = trunc_binomial(f, 1, p).with_modulus(zero) * trunc_binomial(
                g, 1, p
            ).with_modulus(zero)
            assert lhs == trunc_binomial(f + g, 1, p).with_modulus(zero)

    def test_derivative_rule_polynomial_exponent(self):
        for p in (5, 7):
            for coeffs in ([4, 1], [1, 2], [1, 1, 1]):
                f = FpPoly(coeffs, p)
                lhs = derivative(trunc_binomial(f, 1, p))
                rhs = times(trunc_binomial(f - 1, 1, p), f) + top_term(
                    p, f.frobenius_p() - f
                )
                assert lhs == rhs

    def test_derivative_rule_rational_exponent(self):
        # the rule holds verbatim with f a rational expression
        p = 5
        f = RatFn(FpPoly([1], p), FpPoly([1, 1], p))  # 1/(a+1)
        lhs = derivative(trunc_binomial(f, 1, p))
        rhs = times(trunc_binomial(f - 1, 1, p), f) + top_term(
            p, RatFn(f.num.frobenius_p(), f.den.frobenius_p()) - f
        )
        assert lhs == rhs

    def test_general_scale(self):
        # (1 + 2X)^3 over F_7
        got = trunc_binomial(3, 2, 7)
        want = XPoly([math.comb(3, k) * 2 ** k for k in range(4)], 7)
        assert got == want


def trunc_binomial_direct(f, b, p):
    """Independent oracle for ``trunc_binomial``: the binomials of f itself,
    C(f, k) by ``binomials_of``, times b^k, with no cached table."""
    return XPoly([c * b ** k for k, c in enumerate(special.binomials_of(f, p))], p)


ODD_PRIMES_TO_31 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


class TestTruncBinomialTable:
    """A linear exponent c*a + d reads the table C(a + d, k) mapped by
    a -> c*a; the oracle builds the binomials of c*a + d itself."""

    @staticmethod
    def _agree(f, b, p):
        got, want = trunc_binomial(f, b, p), trunc_binomial_direct(f, b, p)
        assert got == want, (f, b)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
    def test_every_linear_exponent(self, p):
        # b alternates between 1 and p - 1 over the exponents
        for c in range(1, p):
            for d in range(p):
                self._agree(FpPoly([d, c], p), (1, p - 1)[(c + d) % 2], p)

    @pytest.mark.parametrize("p", ODD_PRIMES_TO_31)
    def test_every_kind_of_scale(self, p):
        scales = [
            1, p - 1, FpPoly([2, 0, 1], p), RatFn(FpPoly([1], p), FpPoly([1, 1], p)),
        ]
        for c in (1, 2, p - 1):
            for d in (0, 1, p - 1):
                for b in scales:
                    self._agree(FpPoly([d, c], p), b, p)

    def test_the_variable_is_kept(self):
        f = FpPoly([3, 2], 7, "t")
        got = trunc_binomial(f, 1, 7)
        assert str(got) == str(trunc_binomial_direct(f, 1, 7)) and "t" in str(got)
        assert str(trunc_binomial(FpPoly([3, 2], 7), 1, 7)) == str(got).replace("t", "a")

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError, match="^mixed moduli: 7 and 5$"):
            trunc_binomial(FpPoly([1, 1], 5), 1, 7)

    def test_one_table_per_offset(self):
        clear_per_prime_caches()
        for c in range(1, 7):
            trunc_binomial(FpPoly([-1, c], 7), 1, 7)
            trunc_binomial(FpPoly([-2, c], 7), 1, 7)
        info = special._shifted_binomials.cache_info()
        assert (info.misses, info.currsize) == (2, 2)


def lc_by_falling_factorials(p):
    """Independent oracle for the modulus constant:
    -sum_k (a^p - 1)_(p-1-k) * (a^p - a)^k, the falling factorials of a^p - 1
    and the powers of a^p - a each built as a chain of products."""
    ap_minus_1 = FpPoly.monomial(1, p, p) - 1
    ff = [FpPoly.one(p)]
    for m in range(p - 1):
        ff.append(ff[-1] * (ap_minus_1 - m))
    arg, arg_pow, total = alpha_p_minus_alpha(p), FpPoly.one(p), FpPoly.zero(p)
    for k in range(p):
        total = total - ff[p - 1 - k] * arg_pow
        arg_pow = arg_pow * arg
    return total


class TestLaguerreConst:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43])
    def test_substitution_route_equals_the_falling_factorials(self, p):
        # the route reads the Frobenius image of L's record; the oracle forms
        # the falling factorials of a^p - 1 themselves
        assert laguerre_const_routes(p)[0] == lc_by_falling_factorials(p)

    @pytest.mark.parametrize("p", [5, 7])
    def test_a_bumped_l1_of_record_fails_l_factorization(self, monkeypatch, p):
        # the substitution route reads L's record, so a twin L_1 moves it off
        # the product route: LFactorization fails with both routes as witness
        import trunclog.verify as v

        orig = special.laguerre_scaled

        def bumped(pp, r):
            x = orig(pp, r)
            if r != 1:
                return x
            return XPoly([x.coeffs[0], x.coeffs[1] + 1, *x.coeffs[2:]], pp)

        monkeypatch.setattr(special, "laguerre_scaled", bumped)
        clear_per_prime_caches()
        try:
            report = v.verify_theorem(p, "LFactorization")
            sub_route, prod_route = laguerre_const_routes(p)
            assert sub_route != prod_route == lc_by_falling_factorials(p)
            assert report.status == "fail" and report.cases_checked == 1
            assert report.witness == {
                "case": {}, "lhs": str(sub_route), "rhs": str(prod_route),
            }
            with pytest.raises(TheoremViolationError, match="factorization"):
                laguerre_const(p)
        finally:
            clear_per_prime_caches()  # the routes built from the twin go

    def test_p3_value(self):
        # (1+a)(1+2a)^2 expanded mod 3
        assert laguerre_const(3) == FpPoly([1, 2, 2, 1], 3)

    def test_value_at_zero_is_one(self):
        for p in (3, 5, 7, 11):
            assert laguerre_const(p).eval_int(0) == 1

    def test_degree(self):
        for p in (3, 5, 7, 11, 13):
            assert laguerre_const(p).degree == p * (p - 1) // 2

    def test_routes_agree_independently(self):
        for p in (3, 5, 7, 11, 13):
            sub_route, prod_route = laguerre_const_routes(p)
            assert sub_route == prod_route

    def test_guard_raises_on_tampered_routes(self, monkeypatch):
        # laguerre_const keeps no cache of its own: every call compares the
        # cached pair of routes, so a tampered pair trips the guard
        sub_route, prod_route = laguerre_const_routes(5)
        monkeypatch.setattr(
            special, "laguerre_const_routes", lambda p: (sub_route, prod_route + 1)
        )
        with pytest.raises(TheoremViolationError, match="factorization"):
            laguerre_const(5)

    def test_alpha_p_minus_alpha(self):
        f = alpha_p_minus_alpha(5)
        assert f == FpPoly([0, -1, 0, 0, 0, 1], 5)
        for a in range(5):
            assert f.eval_int(a) == 0  # Fermat


def _binomial_sum_oracle(f, g, alpha, beta):
    """``binomial_sum`` as an FpPoly loop: one product and one sum per term."""
    p = f.p
    bin_f, bin_g = special.binomials_of(f, p), special.binomials_of(g, p)
    acc = FpPoly.zero(p)
    for k in range(p):
        w = pow(alpha, p - 1 - k, p) * pow(beta, k, p) % p
        if w:
            acc = acc + bin_f[p - 1 - k] * bin_g[k] * w
    return acc


class TestBinomialSum:
    """The packed dot product against the FpPoly loop."""

    @staticmethod
    def _agree(f, g, alpha, beta):
        got = special.binomial_sum(f, g, alpha, beta)
        assert got == _binomial_sum_oracle(f, g, alpha, beta), (f, g, alpha, beta)
        assert got.var == "a"
        return got

    @pytest.mark.parametrize("p", [3, 5, 13, 31, 109, 113])
    def test_random_linear_operands(self, p):
        rng = random.Random(p)
        for _ in range(2 if p > 100 else 8):
            f = FpPoly([rng.randrange(p), rng.randrange(p)], p, "X")
            g = FpPoly([rng.randrange(p), rng.randrange(p)], p)
            self._agree(f, g, rng.randrange(p), rng.randrange(p))

    @pytest.mark.parametrize("p", [3, 5, 13, 31])
    def test_zero_weights_and_empty_operands(self, p):
        f, g, zero = FpPoly([2, 1], p), FpPoly([1, 3], p), FpPoly.zero(p)
        for alpha, beta in [(0, 2), (2, 0), (0, 0)]:
            self._agree(f, g, alpha, beta)
        for a, b in [(zero, g), (f, zero), (zero, zero), (FpPoly.one(p), zero)]:
            self._agree(a, b, 1, p - 1)
        assert self._agree(zero, zero, 1, 1).is_zero
        assert self._agree(f, g, 0, 0).is_zero

    @pytest.mark.parametrize("p, typecode", [(109, "I"), (113, "Q")])
    def test_slot_switch(self, monkeypatch, p, typecode):
        # linear f, g and every weight nonzero: the slot bound sums
        # min(p - k, k + 1) * (p-1)^3 over k, just under 2^32 at p = 109
        # and over it at p = 113
        chosen = []
        pick = special._slot_typecode
        monkeypatch.setattr(special, "_slot_typecode", lambda b: chosen.append(pick(b)) or chosen[-1])
        self._agree(FpPoly([p - 1, 1], p), FpPoly([p - 1, 5], p), 1, p - inv_mod(5, p))
        assert chosen == [typecode]

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError, match="mixed moduli"):
            special.binomial_sum(FpPoly([1, 1], 5), FpPoly([1, 1], 7), 1, 1)
