"""Dense polynomial arithmetic, splitting into linear factors, rational functions."""

import random
import re

import pytest

from trunclog.errors import NonSplitError, PoleError
from trunclog.fields import inv_mod
from trunclog.polys import FpPoly, RatFn, interpolate, roots_and_split, values
from trunclog.polys import _pack, _slot_typecode, _unpack


def rand_poly(rng, p, max_deg):
    return FpPoly([rng.randrange(p) for _ in range(rng.randrange(max_deg + 1) + 1)], p)


class TestFpPolyBasics:
    def test_canonical_form_strips_trailing_zeros(self):
        f = FpPoly([1, 2, 0, 0], 5)
        assert f.coeffs == (1, 2)
        assert FpPoly([0, 0], 5).is_zero
        assert FpPoly([], 5).degree == -1

    def test_negative_inputs_are_reduced(self):
        assert FpPoly([-1, -2], 5) == FpPoly([4, 3], 5)

    def test_degree_of_product_adds(self):
        rng = random.Random(2)
        for _ in range(40):
            f = rand_poly(rng, 7, 6)
            g = rand_poly(rng, 7, 6)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).degree == f.degree + g.degree

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            FpPoly([1], 5) + FpPoly([1], 7)

    def test_monomial(self):
        assert FpPoly.monomial(3, 2, 7) == FpPoly([0, 0, 3], 7)
        assert FpPoly.monomial(10, 0, 7) == FpPoly([3], 7)
        assert FpPoly.monomial(7, 4, 7).is_zero
        with pytest.raises(ValueError):
            FpPoly.monomial(3, -1, 7)

    def test_str_rendering(self):
        assert str(FpPoly([1, 0, 2], 3)) == "2*a^2 + 1"
        assert str(FpPoly([2, 1], 3)) == "a + 2"
        assert str(FpPoly([], 5)) == "0"

    @pytest.mark.parametrize("p", [3, 13, 31])
    @pytest.mark.parametrize(
        "la, lb",
        [
            (1, 1),
            (1, 7),  # constants scale, on either side
            (7, 1),
            (2, 2),
            (3, 3),
            (2, 50),
            (45, 45),
            (46, 46),
            (80, 70),
            (2049, 2),  # lopsided
        ],
    )
    def test_product_matches_naive(self, p, la, lb):
        # the top coefficients are p - 1 so the largest slot values occur
        rng = random.Random(3)
        a = [rng.randrange(p) for _ in range(la - 1)] + [p - 1]
        b = [rng.randrange(p) for _ in range(lb - 1)] + [p - 1]
        naive = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                naive[i + j] = (naive[i + j] + ai * bj) % p
        assert FpPoly(a, p) * FpPoly(b, p) == FpPoly(naive, p)

    @pytest.mark.parametrize("p", [3, 13, 31])
    def test_products_with_ints(self, p):
        f = FpPoly([1, p - 1, 0, 2], p, "X")
        scaled = FpPoly([2, 2 * (p - 1), 0, 4], p)
        for g in (2 * f, f * 2, f * (p + 2), (2 - p) * f):
            assert g == scaled and g.var == "X"
        assert (0 * f).is_zero and (f * p).is_zero
        assert f * 1 == f and (f * 1).var == "X"
        assert FpPoly.zero(p) * 3 == 0


def sub_by_index_guards(a, b, p):
    """Oracle for a - b: the index-guarded comprehension over both operands."""
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
            for i in range(n)]


class TestAddAndSubtract:
    # __add__, __sub__ and __rsub__ share one copy-and-loop
    @pytest.mark.parametrize("p", [3, 19, 61])
    def test_random_operands_of_unequal_length(self, p):
        rng = random.Random(p)
        for _ in range(60):
            f, g = rand_poly(rng, p, 12), rand_poly(rng, p, 30)
            for x, y in ((f, g), (g, f)):
                assert x - y == FpPoly(sub_by_index_guards(x.coeffs, y.coeffs, p), p)
                assert x + y == FpPoly([c + d for c, d in zip(
                    x.coeffs + (0,) * len(y.coeffs), y.coeffs + (0,) * len(x.coeffs))], p)
                assert (x - y) + y == x and x.__rsub__(y) == y - x

    @pytest.mark.parametrize("p", [3, 13])
    def test_int_operands_on_both_sides(self, p):
        f = FpPoly([1, p - 1, 0, 2], p, "X")
        for n in (0, 1, p - 1, p, p + 2, -3):
            assert f - n == FpPoly(sub_by_index_guards(f.coeffs, (n % p,), p), p)
            assert n - f == FpPoly(sub_by_index_guards((n % p,), f.coeffs, p), p)
            assert n + f == f + n == FpPoly([1 + n, p - 1, 0, 2], p)
            assert (f - n).var == (n - f).var == (n + f).var == "X"
        assert FpPoly.const(3, p) - 3 == 0 and (3 - FpPoly.const(3, p)).is_zero
        assert (1 - FpPoly.zero(p)) == 1 and (FpPoly.zero(p) - 1) == p - 1

    def test_cancellation_to_zero(self):
        rng = random.Random(5)
        for _ in range(30):
            f, low = rand_poly(rng, 7, 9), rand_poly(rng, 7, 3)
            # the tops cancel and the difference is trimmed to what is left
            assert ((f + low) - f).coeffs == low.coeffs
            assert (f - f).coeffs == () and f.__rsub__(f).coeffs == ()
            assert (f + (-f)).coeffs == ()

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__rsub__"])
    def test_mixed_moduli_rejected(self, op):
        with pytest.raises(ValueError, match="^mixed moduli: 5 and 7$"):
            getattr(FpPoly([1, 2], 5), op)(FpPoly([1], 7))


class TestIntegralPoints:
    # a float is refused rather than read by int(), which would truncate it
    @pytest.mark.parametrize("x", [2.5, 2.0, "2", None])
    def test_eval_int_point_must_be_an_integer(self, x):
        message = f"^argument a must be an integer, got {re.escape(repr(x))}$"
        with pytest.raises(TypeError, match=message):
            FpPoly([1, 1, 1], 5).eval_int(x)

    @pytest.mark.parametrize("x", [0.5, 2.0, "2", None])
    def test_ratfn_eval_point_must_be_an_integer(self, x):
        r = RatFn(FpPoly([1, 1], 7), FpPoly([3, 1], 7))
        message = f"^argument a must be an integer, got {re.escape(repr(x))}$"
        with pytest.raises(TypeError, match=message):
            r.eval(x)

    def test_integer_points_unchanged(self):
        class Two:
            def __index__(self):
                return 2

        f, r = FpPoly([1, 1, 1], 5), RatFn(FpPoly([1, 1], 7), FpPoly([3, 1], 7))
        assert f.eval_int(2) == f.eval_int(Two()) == f.eval_int(-3) == 2
        assert r.eval(2) == r.eval(Two()) == 3 * inv_mod(5, 7) % 7
        assert f.eval_int(True) == 3


class TestProductSlotLimit:
    """A non-constant product packs min(len)·(p−1)² into 8-byte slots at
    most, and raises before packing beyond that; constants only scale."""

    def test_at_a_billion_and_seven(self):
        p = 10**9 + 7
        assert 45 * (p - 1) ** 2 >= 2**64 > 2 * (p - 1) ** 2
        f = FpPoly([p - 1] * 45, p)
        with pytest.raises(OverflowError):
            f * f
        g = FpPoly([1, p - 1], p)
        assert g * g == FpPoly([1, -2, 1], p)
        assert f * (p - 1) == -f == (p - 1) * f

    def test_above_2_to_the_32(self):
        p = 4_294_967_311
        assert 2 * (p - 1) ** 2 >= 2**64
        g = FpPoly([1, p - 1], p)
        with pytest.raises(OverflowError):
            g * g
        assert g * 2 == FpPoly([2, -2], p) == 2 * g
        assert g * FpPoly.one(p) == g


class TestPackedSlots:
    @pytest.mark.parametrize(
        "bound, typecode",
        [(2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q")],
    )
    def test_slot_chooser(self, bound, typecode):
        assert _slot_typecode(bound) == typecode

    def test_slot_chooser_refuses_wider_than_8_bytes(self):
        with pytest.raises(OverflowError):
            _slot_typecode(2**64)

    @pytest.mark.parametrize("typecode, bits", [("I", 32), ("Q", 64)])
    def test_round_trip_with_full_top_slot(self, typecode, bits):
        # a modulus above every slot value leaves the residues unchanged, and
        # a to_bytes length one slot short would overflow on the top slot
        top = 2**bits - 1
        coeffs = [5, 0, top - 1, 1, top]
        n = _pack(coeffs, typecode)
        assert n >> (bits * (len(coeffs) - 1)) == top
        assert _unpack(n, len(coeffs), 1 << bits, typecode) == tuple(coeffs)


class TestDivisionAndGcd:
    def test_worked_division(self):
        # X^3 = X * (X^2 + 1) - X over F_3, by hand
        q, r = divmod(FpPoly([0, 0, 0, 1], 3, "X"), FpPoly([1, 0, 1], 3, "X"))
        assert q == FpPoly([0, 1], 3)
        assert r == FpPoly([0, -1], 3)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(FpPoly([1], 5), FpPoly([], 5))

    def test_divmod_round_trip(self):
        rng = random.Random(4)
        for p in (3, 5, 13):
            for _ in range(60):
                f = rand_poly(rng, p, 9)
                g = rand_poly(rng, p, 5)
                if g.is_zero:
                    continue
                q, r = divmod(f, g)
                assert q * g + r == f
                assert r.degree < g.degree

    def test_gcd_shared_root(self):
        f = FpPoly([-1, 0, 1], 5, "X")   # X^2 - 1
        g = FpPoly([-1, 1], 5, "X")      # X - 1
        assert f.gcd(g) == g.monic()

    def test_gcd_is_monic_common_divisor(self):
        rng = random.Random(5)
        for _ in range(40):
            p = 7
            h = rand_poly(rng, p, 3)
            f = rand_poly(rng, p, 3) * h
            g = rand_poly(rng, p, 3) * h
            if f.is_zero or g.is_zero:
                continue
            d = f.gcd(g)
            assert d.lead == 1
            assert divmod(f, d)[1].is_zero and divmod(g, d)[1].is_zero


class TestCalculus:
    def test_compose_and_eval_agree(self):
        rng = random.Random(7)
        p = 11
        for _ in range(20):
            f = rand_poly(rng, p, 4)
            g = rand_poly(rng, p, 3)
            a = rng.randrange(p)
            assert f.compose(g).eval_int(a) == f.eval_int(g.eval_int(a))

    def test_frobenius_is_pth_power(self):
        rng = random.Random(8)
        for p in (3, 5):
            for _ in range(10):
                f = rand_poly(rng, p, 3)
                assert f.frobenius_p() == f ** p

    def test_subs_scale(self):
        f = FpPoly([1, 2, 3], 7)
        g = f.subs_scale(3)
        for a in range(7):
            assert g.eval_int(a) == f.eval_int(3 * a)


class TestRootsAndSplit:
    def test_simple_split(self):
        lead, roots = roots_and_split(FpPoly([-1, 0, 1], 5))  # a^2 - 1
        assert type(lead) is int and lead == 1
        assert roots == {1: 1, 4: 1}

    def test_leading_coefficient_preserved(self):
        lead, roots = roots_and_split(FpPoly([0, 0, 3], 7))  # 3a^2
        assert type(lead) is int and lead == 3
        assert roots == {0: 2}

    def test_non_split_detected(self):
        with pytest.raises(NonSplitError):
            roots_and_split(FpPoly([1, 0, 1], 3))  # a^2 + 1, -1 not a square mod 3

    def test_reconstruction_and_counts(self):
        rng = random.Random(9)
        for _ in range(30):
            p = 7
            lead = rng.randrange(1, p)
            chosen = [rng.randrange(p) for _ in range(rng.randrange(1, 5))]
            f = FpPoly([lead], p)
            for a in chosen:
                f = f * FpPoly([-a, 1], p)
            got_lead, roots = roots_and_split(f)
            assert got_lead == lead
            assert sum(roots.values()) == f.degree
            rebuilt = FpPoly([lead], p)
            for a, m in roots.items():
                rebuilt = rebuilt * (FpPoly([-a, 1], p) ** m)
            assert rebuilt == f


class TestValueVectors:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_interpolation_round_trip(self, p):
        # degree at most p-1: the p values determine the polynomial
        rng = random.Random(p)
        for _ in range(30):
            f = rand_poly(rng, p, p - 1)
            assert interpolate(values(f), p) == f

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_values_are_pointwise_evaluations(self, p):
        rng = random.Random(100 + p)
        for max_deg in (p - 1, 3 * p):
            for _ in range(20):
                f = rand_poly(rng, p, max_deg)
                assert values(f) == [f.eval_int(t) for t in range(p)]

    def test_values_cannot_see_a_p_minus_a(self):
        # why checkers bound the degree before comparing values
        p = 7
        f = FpPoly([3, 1, 4], p)
        twin = f + FpPoly.monomial(1, p, p) - FpPoly.x(p)
        assert twin != f and values(twin) == values(f)
        assert interpolate(values(twin), p) == f

    def test_lagrange_basis_is_an_indicator(self):
        p = 5
        for t in range(p):
            basis = [0] * p
            basis[t] = 1
            assert values(interpolate(basis, p)) == basis

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            interpolate([1, 2], 5)


class TestRatFn:
    def test_canonicalization(self):
        # (a-1)/(a^2-1) -> 1/(a+1)
        r = RatFn(FpPoly([-1, 1], 5), FpPoly([-1, 0, 1], 5))
        assert r.num == FpPoly([1], 5)
        assert r.den == FpPoly([1, 1], 5)

    def test_denominator_made_monic(self):
        r = RatFn(FpPoly([1], 5), FpPoly([0, 2], 5))
        assert r.den == FpPoly([0, 1], 5)
        assert r.num == FpPoly([3], 5)  # 1/2 = 3 mod 5

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFn(FpPoly([1], 5), FpPoly([], 5))

    def test_normal_form_is_canonical(self):
        rng = random.Random(10)
        p = 7
        for _ in range(40):
            n = rand_poly(rng, p, 4)
            d = rand_poly(rng, p, 4)
            h = rand_poly(rng, p, 3)
            if d.is_zero or h.is_zero:
                continue
            assert RatFn(n, d) == RatFn(n * h, d * h)

    def test_field_axioms_sampled(self):
        rng = random.Random(11)
        p = 5

        def rand_ratfn():
            while True:
                d = rand_poly(rng, p, 3)
                if not d.is_zero:
                    return RatFn(rand_poly(rng, p, 3), d)

        for _ in range(25):
            x, y, z = rand_ratfn(), rand_ratfn(), rand_ratfn()
            assert x * (y + z) == x * y + x * z
            assert (x - y) + y == x

    def test_eval_and_pole(self):
        r = RatFn(FpPoly([1], 3), FpPoly([2, 1], 3))  # 1/(a+2)
        assert r.eval(0) == 2
        assert type(r.eval(0)) is int
        assert r.eval(3) == 2  # the point is read mod p
        with pytest.raises(PoleError) as exc:
            r.eval(1)
        assert exc.value.point == 1

    def test_pow_and_subs_scale(self):
        r = RatFn(FpPoly([0, 1], 5), FpPoly([1, 1], 5))
        assert r ** 2 == r * r
        with pytest.raises(ValueError):
            r ** -1
        # a -> 2a on numerator and denominator, as the tests scale a G(X)
        s = RatFn(r.num.subs_scale(2), r.den.subs_scale(2))
        for a in range(5):
            try:
                assert s.eval(a) == r.eval(2 * a)
            except PoleError:
                with pytest.raises(PoleError):
                    r.eval(2 * a)

    def test_str(self):
        r = RatFn(FpPoly([1], 3), FpPoly([2, 1], 3))
        assert str(r) == "(1) / (a + 2)"
        assert str(RatFn.from_poly(FpPoly([1, 2], 3))) == "2*a + 1"
