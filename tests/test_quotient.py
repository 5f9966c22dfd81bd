"""Quotient arena: reduction by X^p - c, modular products, composition."""

import random

import pytest

from trunclog.polys import FpPoly, RatFn
from trunclog.quotient import XPoly, compose_mod, grid_mulmod, xpoly_to_grid
from trunclog.quotient import _compose_horner
from trunclog.special import (
    alpha_p_minus_alpha,
    laguerre_const,
    laguerre_pm1,
    laguerre_scaled,
)
from trunclog.bpoly import b_rs


def modulus(p):
    return RatFn.from_poly(alpha_p_minus_alpha(p))


def x_power(p, e, scale=None):
    """The grid of scale * X^e, 0 <= e < p."""
    grid = [FpPoly.zero(p)] * p
    grid[e] = FpPoly.one(p) if scale is None else scale
    return grid


def reduce_reference(coeffs, cpoly, p):
    """Schoolbook reduction of a grid of any length: X^(p+t) -> cpoly * X^t."""
    work = list(coeffs)
    for e in range(len(work) - 1, p - 1, -1):
        work[e - p] = work[e - p] + cpoly * work[e]
    return work[:p] + [FpPoly.zero(p)] * (p - len(work))


def random_grid(rng, p, length):
    return [FpPoly([rng.randrange(p) for _ in range(3)], p) for _ in range(length)]


def uneven_grid(rng, p, length, long_row=None):
    """Rows of 0 to 2p random coefficients, so some rows are zero and the
    rest differ in length; row long_row, if given, has 2049 coefficients."""
    rows = [
        FpPoly([rng.randrange(p) for _ in range(rng.randrange(2 * p + 1))], p)
        for _ in range(length)
    ]
    if long_row is not None:
        coeffs = [rng.randrange(p) for _ in range(2048)]
        rows[long_row] = FpPoly(coeffs + [1], p)
    return rows


class TestReduceMod:
    """The reduction X^p -> c that grid_mulmod applies to every product."""

    def test_x_to_p_becomes_constant(self):
        p = 5
        c = alpha_p_minus_alpha(p)
        got = grid_mulmod(x_power(p, p - 1), x_power(p, 1), c, p)
        assert got == x_power(p, 0, scale=c)

    def test_x_to_p_plus_one(self):
        p = 5
        c = alpha_p_minus_alpha(p)
        got = grid_mulmod(x_power(p, p - 1), x_power(p, 2), c, p)
        assert got == x_power(p, 1, scale=c)

    def test_the_modulus_reduces_to_zero(self):
        # X^(p-1) * X - c, i.e. X^p - c, is zero in the quotient
        p = 5
        c = alpha_p_minus_alpha(p)
        got = grid_mulmod(x_power(p, p - 1), x_power(p, 1), c, p)
        got[0] = got[0] - c
        assert got == [FpPoly.zero(p)] * p

    def test_idempotent(self):
        # products of degree below p need no reduction, whatever c is
        p = 5
        for c in (alpha_p_minus_alpha(p), FpPoly.zero(p), FpPoly.one(p)):
            for i in range(p):
                for j in range(p - i):
                    got = grid_mulmod(x_power(p, i), x_power(p, j), c, p)
                    assert got == x_power(p, i + j)

    def test_cascading_reduction(self):
        # X^(2p) = X^(p-1) * X^(p-1) * X^2 -> c * X^p -> c^2
        p = 3
        c = alpha_p_minus_alpha(p)
        sq = grid_mulmod(x_power(p, p - 1), x_power(p, p - 1), c, p)
        got = grid_mulmod(sq, x_power(p, 2), c, p)
        assert got == x_power(p, 0, scale=c * c)


class TestMulmodPowmod:
    def test_x_pm1_times_x(self):
        # a zero constant truncates: X^(p-1) * X vanishes below X^p
        p = 5
        got = grid_mulmod(x_power(p, p - 1), x_power(p, 1), FpPoly.zero(p), p)
        assert got == [FpPoly.zero(p)] * p

    def test_mismatched_tags_rejected(self):
        p = 5
        a = XPoly.x_power(p, 1, modulus=modulus(p))
        b = XPoly.x_power(p, 1, modulus=RatFn.const(1, p))
        with pytest.raises(ValueError):
            a * b

    def test_mul_requires_tag(self):
        p = 5
        a = XPoly.x_power(p, 1)
        with pytest.raises(ValueError):
            a * a

    def test_powmod_zero_is_one(self):
        # the grid of 1 is the unit on both sides
        rng = random.Random(0)
        p = 5
        c = alpha_p_minus_alpha(p)
        one = x_power(p, 0)
        for _ in range(5):
            a = random_grid(rng, p, p)
            assert grid_mulmod(a, one, c, p) == a
            assert grid_mulmod(one, a, c, p) == a

    def test_square_of_exponential_analogue(self):
        # L^2 = b[1,1] * L_scaled(2) in the quotient ring
        for p in (5, 7):
            c = alpha_p_minus_alpha(p)
            lag = xpoly_to_grid(laguerre_pm1(p))
            want = [b_rs(p, 1, 1) * g for g in xpoly_to_grid(laguerre_scaled(p, 2))]
            assert grid_mulmod(lag, lag, c, p) == want

    def test_reduction_is_ring_homomorphism(self):
        # constant 0 is truncation below X^p, for which grid_mulmod skips
        # the upper half of the product; laguerre_const(7) has degree 21
        rng = random.Random(1)
        cases = [
            (5, alpha_p_minus_alpha(5)),
            (5, FpPoly.zero(5)),
            (7, laguerre_const(7)),
        ]
        for p, c in cases:
            zero = FpPoly.zero(p)
            n = 2 * p - 1
            pairs = [(random_grid(rng, p, n), random_grid(rng, p, n)) for _ in range(15)]
            pairs += [(uneven_grid(rng, p, n), uneven_grid(rng, p, n)) for _ in range(5)]
            pairs += [
                (uneven_grid(rng, p, n, long_row=1), uneven_grid(rng, p, n)),
                (uneven_grid(rng, p, n), uneven_grid(rng, p, n, long_row=p - 2)),
                ([zero] * n, uneven_grid(rng, p, n)),
            ]
            for fc, gc in pairs:
                full = [zero] * (len(fc) + len(gc) - 1)
                for i, a in enumerate(fc):
                    for j, b in enumerate(gc):
                        full[i + j] = full[i + j] + a * b
                lhs = reduce_reference(full, c, p)
                rhs = grid_mulmod(
                    reduce_reference(fc, c, p), reduce_reference(gc, c, p), c, p
                )
                assert lhs == rhs

    def test_slot_width_covers_sums_of_row_products(self):
        # at p = 65521 one row product's entries fit 4-byte slots, but
        # full[1] = A0*B1 + A1*B0 sums two of them, 2(p-1)^2 > 2^32
        p = 65521
        zero, minus_one = FpPoly.zero(p), FpPoly.const(-1, p)
        grid = [minus_one, minus_one] + [zero] * (p - 2)
        got = grid_mulmod(grid, grid, zero, p)
        assert got[:3] == [FpPoly.one(p), FpPoly.const(2, p), FpPoly.one(p)]
        assert got[3:] == [zero] * (p - 3)

    def test_matches_rational_coefficient_product(self):
        # the grid product and the XPoly product behind _compose_horner agree
        rng = random.Random(6)
        p = 5
        c = alpha_p_minus_alpha(p)
        for _ in range(5):
            a = random_grid(rng, p, p)
            b = random_grid(rng, p, p)
            xa = XPoly(a, p, modulus=c)
            xb = XPoly(b, p, modulus=c)
            assert xpoly_to_grid(xa * xb) == grid_mulmod(a, b, c, p)

    def test_specialization_commutes_with_reduction(self):
        # with c = a^p - a every specialization of the modulus is X^p, whose
        # reduction at a fixed a is truncation
        rng = random.Random(2)
        p = 5
        c = alpha_p_minus_alpha(p)
        zero = FpPoly.zero(p)
        for _ in range(10):
            f = random_grid(rng, p, p)
            g = random_grid(rng, p, p)
            a = rng.randrange(p)
            reduced_then_special = XPoly(grid_mulmod(f, g, c, p), p).specialize(a)
            fa = [FpPoly.const(h.eval_int(a), p) for h in f]
            ga = [FpPoly.const(h.eval_int(a), p) for h in g]
            special_then_reduced = XPoly(grid_mulmod(fa, ga, zero, p), p).specialize(a)
            assert reduced_then_special == special_then_reduced


class TestComposeMod:
    def test_identity_outer(self):
        p = 5
        c = modulus(p)
        inner = laguerre_pm1(p)
        assert compose_mod(XPoly.x_power(p, 1), inner, c) == inner.with_modulus(c)

    def test_constant_outer(self):
        p = 5
        c = modulus(p)
        k = XPoly.constant(7, p)
        got = compose_mod(k, laguerre_pm1(p), c)
        assert got == XPoly.constant(7, p, modulus=c)

    def test_cleared_path_matches_generic_horner(self):
        rng = random.Random(3)
        p = 5
        c = modulus(p)
        for _ in range(6):
            outer = XPoly(
                [
                    RatFn(
                        FpPoly([rng.randrange(p) for _ in range(2)], p),
                        FpPoly([rng.randrange(1, p), 1], p),
                    )
                    for _ in range(p)
                ],
                p,
            )
            inner = XPoly(
                [FpPoly([rng.randrange(p) for _ in range(2)], p) for _ in range(p)],
                p,
            )
            assert compose_mod(outer, inner, c) == _compose_horner(outer, inner, c)

    def test_fraction_inner_supported(self):
        rng = random.Random(4)
        p = 5
        c = modulus(p)
        outer = XPoly([rng.randrange(p) for _ in range(p)], p)
        inner = XPoly(
            [
                RatFn(
                    FpPoly([rng.randrange(p) for _ in range(2)], p),
                    FpPoly([1, 1], p),
                )
                for _ in range(p)
            ],
            p,
        )
        assert compose_mod(outer, inner, c) == _compose_horner(outer, inner, c)

    def test_fractions_on_both_sides(self):
        rng = random.Random(5)
        p = 5
        c = modulus(p)
        outer = XPoly(
            [
                RatFn(
                    FpPoly([rng.randrange(p), 1], p),
                    FpPoly([rng.randrange(1, p), 1], p),
                )
                for _ in range(p)
            ],
            p,
        )
        inner = XPoly(
            [
                RatFn(
                    FpPoly([rng.randrange(p)], p),
                    FpPoly([2, 1], p),
                )
                for _ in range(p)
            ],
            p,
        )
        assert compose_mod(outer, inner, c) == _compose_horner(outer, inner, c)

    def test_fractional_modulus_constant_rejected(self):
        p = 5
        c = RatFn(FpPoly([1], p), FpPoly([1, 1], p))  # 1/(a+1)
        outer = XPoly([0, 1, 1], p)
        inner = XPoly([0, 2], p)
        with pytest.raises(ValueError, match="polynomial constant"):
            compose_mod(outer, inner, c)
        # a fraction that reduces to a polynomial is one
        c = RatFn(FpPoly([1, 1], p), FpPoly([1, 1], p))
        assert compose_mod(outer, inner, c) == _compose_horner(outer, inner, c)


class TestXPolyMisc:
    def test_specialize_names_offending_power(self):
        p = 3
        x = XPoly([RatFn.const(1, p), RatFn(FpPoly([1], p), FpPoly([2, 1], p))], p)
        from trunclog.errors import PoleError

        with pytest.raises(PoleError) as exc:
            x.specialize(1)
        assert exc.value.index == 1
        f = x.specialize(0)
        assert f == FpPoly([1, 2], p, "X")

    def test_grid_of_rational_series_rejected(self):
        p = 5
        x = XPoly([1, RatFn(FpPoly([1], p), FpPoly([1, 1], p))], p)
        with pytest.raises(ValueError, match="non-polynomial"):
            xpoly_to_grid(x)

    def test_equality_includes_modulus_tag(self):
        p = 5
        a = XPoly([1, 2], p)
        assert a != a.with_modulus(modulus(p))

    def test_mixed_moduli_in_coefficients_rejected(self):
        with pytest.raises(ValueError):
            XPoly([RatFn.const(1, 3)], 5)
        with pytest.raises(ValueError):
            XPoly([FpPoly([1], 7)], 5)
