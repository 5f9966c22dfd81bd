"""Prime-field scalars, binomial combinatorics, and the quadratic extension.

The falling factorials and binomials of a polynomial argument are built in
``special``; their unit tests sit here beside the integer binomial they must
agree with.
"""

import math
import random

import pytest

from trunclog.fields import binom_lucas, check_odd_prime, ext_quadratic, inv_mod
from trunclog.polys import FpPoly
from trunclog.special import _falling_factorials, binomials_of


class TestFpElem:
    """An element of F_p is a plain int mod p; the modulus is an argument."""

    def test_inverse_via_euclid_everywhere(self):
        for p in (3, 5, 13):
            for a in range(1, p):
                assert inv_mod(a, p) * a % p == 1

    def test_check_odd_prime(self):
        assert check_odd_prime(31) == 31
        for bad in (2, 4, 9, 1, -3, 15, True, 5.0):
            with pytest.raises(ValueError):
                check_odd_prime(bad)


class TestBinomLucas:
    def test_single_digit_case(self):
        assert binom_lucas(3, 1, 5) == 3

    def test_returns_int(self):
        assert type(binom_lucas(3, 1, 5)) is int
        assert type(binom_lucas(10, 5, 3)) is int  # the early zero
        assert type(binom_lucas(0, 0, 3)) is int  # the empty digit loop

    def test_cross_digit_cases(self):
        # oracles: direct integer binomials
        assert math.comb(7, 2) % 5 == 1
        assert binom_lucas(7, 2, 5) == 1
        assert math.comb(10, 5) % 3 == 0
        assert binom_lucas(10, 5, 3) == 0

    def test_matches_integer_binomial(self):
        for p in (3, 5, 7):
            for n in range(3 * p):
                for k in range(n + 1):
                    assert binom_lucas(n, k, p) == math.comb(n, k) % p

    def test_rejections(self):
        with pytest.raises(ValueError):
            binom_lucas(3, 1, 4)
        with pytest.raises(ValueError):
            binom_lucas(-1, 0, 5)


class TestPochhammer:
    """``special._falling_factorials``: (f)_0, ..., (f)_m for an FpPoly f."""

    def test_empty_product(self):
        assert _falling_factorials(FpPoly([0, 1], 5), 0) == [FpPoly([1], 5)]

    def test_scalar_case(self):
        # 3 * 2 = 6 = 1 mod 5 for a constant polynomial
        assert _falling_factorials(FpPoly.const(3, 5), 2)[2] == 1

    def test_alpha_minus_one_full_length(self):
        # (a-1)_(p-1) = a^(p-1) - 1
        for p in (3, 5, 7, 11):
            got = _falling_factorials(FpPoly([-1, 1], p), p - 1)[p - 1]
            want = FpPoly.monomial(1, p - 1, p) - 1
            assert got == want

    def test_cross_route_with_lucas(self):
        # (n)_k / k! agrees with the digit-wise binomial for 0 <= k <= n < p
        for p in (5, 7, 13):
            for n in range(p):
                falling = _falling_factorials(FpPoly.const(n, p), n)
                for k in range(n + 1):
                    via_poch = falling[k] * inv_mod(math.factorial(k), p)
                    assert via_poch == binom_lucas(n, k, p)


class TestBinomOfPoly:
    """``special.binomials_of``: C(f, 0), ..., C(f, p-1) for an FpPoly f."""

    def test_k_zero(self):
        assert binomials_of(FpPoly([0, 1], 5), 5)[0] == FpPoly([1], 5)

    def test_minus_one_choose_k(self):
        # C(-1, k) = (-1)^k
        row = binomials_of(FpPoly.const(-1, 5), 5)
        assert row[4] == 1
        assert row[3] == -1 % 5

    def test_alpha_minus_one_choose_two(self):
        # (a-1)(a-2)/2 expanded mod 3 by hand: (a^2 + 2)*2 = 2a^2 + 1
        got = binomials_of(FpPoly([-1, 1], 3), 3)[2]
        assert got == FpPoly([1, 0, 2], 3)

    def test_evaluation_commutes(self):
        rng = random.Random(0)
        for p in (5, 7):
            for _ in range(25):
                f = FpPoly([rng.randrange(p) for _ in range(3)], p)
                k = rng.randrange(p)
                a = rng.randrange(p)
                poly_then_eval = binomials_of(f, p)[k].eval_int(a)
                eval_then_binom = binomials_of(FpPoly.const(f.eval_int(a), p), p)[k]
                assert eval_then_binom == poly_then_eval


class TestExtQuadratic:
    def test_smallest_nonresidue(self):
        assert ext_quadratic(3).nonres == 2
        assert ext_quadratic(5).nonres == 2
        assert ext_quadratic(7).nonres == 3

    def test_minpoly_has_no_root(self):
        # t^2 - n has no root in F_p, so F_p[t]/(t^2 - n) is a field
        for p in (3, 5, 7, 11):
            n = ext_quadratic(p).nonres
            assert all((x * x - n) % p != 0 for x in range(p))

    def test_frobenius_of_generator(self):
        # in F_9, t^3 = 2t because t^2 = 2
        F = ext_quadratic(3)
        assert F.frobenius_raw((0, 1)) == (0, 2)
        assert F.pow_raw((0, 1), 3) == (0, 2)

    def test_field_has_p_squared_elements(self):
        # the p^2 - 1 nonzero pairs form one cyclic group under mul_raw,
        # which the product ring F_p x F_p never does
        for p in (3, 5):
            F = ext_quadratic(p)
            orders = [
                next(k for k in range(1, p * p) if F.pow_raw(x, k) == (1, 0))
                for x in pairs(p)[1:]
            ]
            assert max(orders) == p * p - 1
            assert all((p * p - 1) % k == 0 for k in orders)

    def test_every_element_fixed_by_p_squared_power(self):
        for p in (3, 5):
            F = ext_quadratic(p)
            for x in pairs(p):
                assert F.pow_raw(x, p * p) == x

    def test_frobenius_fixes_exactly_prime_field(self):
        for p in (3, 5, 7):
            F = ext_quadratic(p)
            fixed = [x for x in pairs(p) if F.frobenius_raw(x) == x]
            assert len(fixed) == p
            assert all(x[1] == 0 for x in fixed)
            assert all(F.frobenius_raw(x) == F.pow_raw(x, p) for x in pairs(p))

    def test_inverses(self):
        F = ext_quadratic(5)
        for x in pairs(5)[1:]:
            assert F.mul_raw(x, F.inv_raw(x)) == (1, 0)
            assert F.pow_raw(x, -1) == F.inv_raw(x)

    def test_field_axioms_sampled(self):
        rng = random.Random(1)
        F = ext_quadratic(7)
        els = pairs(7)
        add, sub, mul = F.add_raw, F.sub_raw, F.mul_raw
        for _ in range(60):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(x, y) == mul(y, x)
            assert add(sub(x, y), y) == x


def pairs(p):
    """All p^2 elements of F_{p^2} as raw pairs, zero first."""
    return [(c0, c1) for c0 in range(p) for c1 in range(p)]
