"""Specialized Jacobi polynomials mod p and their link to the b-family."""

import re

import pytest

from trunclog.bpoly import b_rs
from trunclog.fields import inv_mod
from trunclog.jacobi import jacobi_pm1, p_times_jacobi_p
from trunclog.polys import FpPoly, values
from trunclog.verify import _jacobi_values, _linked_x, _reflection_values

PRIMES = (3, 5, 7, 11, 13)


def linked_pairs(p):
    """(r, s, x) for every pair off the diagonal, x = (s - r)/(s + r)."""
    for r in range(1, p):
        for s in range(1, p):
            if (r + s) % p:
                yield r, s, (s - r) * inv_mod(r + s, p) % p


def linked_jacobi(p, r, s, shift=0):
    """jacobi_pm1 at A = r*a, B = s*a + shift and the linked argument."""
    x = (s - r) * inv_mod(r + s, p) % p
    return jacobi_pm1(p, FpPoly([0, r], p), FpPoly([shift, s], p), x)


def reflection_chain(p, s):
    """The three Jacobi polynomials of the argument reflection at r = 1."""
    a_poly = FpPoly([0, 1], p)
    x1 = (s - 1) * inv_mod(s + 1, p) % p
    x2 = (s + 2) * inv_mod(s, p) % p
    return (
        jacobi_pm1(p, a_poly, FpPoly([0, s], p), x1),
        jacobi_pm1(p, a_poly, FpPoly([1, -s - 1], p), x2),
        jacobi_pm1(p, a_poly, FpPoly([0, -s - 1], p), x2),
    )


class TestLink:
    def test_equal_parameters_at_zero(self):
        # A = B = a, x = 0: evaluates the defining sum to b[1,1]
        got = jacobi_pm1(5, FpPoly([0, 1], 5), FpPoly([0, 1], 5), 0)
        assert got == FpPoly([1, 1, 3], 5)
        assert got == b_rs(5, 1, 1)

    def test_linked_argument_reproduces_b(self):
        for p in (5, 7, 11):
            for r, s, _ in linked_pairs(p):
                assert linked_jacobi(p, r, s) == b_rs(p, r, s)

    def test_degenerate_argument_rejected(self):
        # (s - r)/(s + r) does not exist on the diagonal r + s = p
        with pytest.raises(ZeroDivisionError):
            _linked_x(5, 2, 3)

    def test_spec_object(self):
        # the specialized parameters (p, A, B, x) are validated on every call
        a5 = FpPoly([0, 1], 5)
        assert jacobi_pm1(5, a5, a5, 5) == b_rs(5, 1, 1)  # x is read mod p
        with pytest.raises(ValueError):
            jacobi_pm1(5, a5, FpPoly([0, 1], 7), 0)
        with pytest.raises(ValueError):
            jacobi_pm1(5, FpPoly([0, 1], 7), a5, 0)
        with pytest.raises(ValueError):
            jacobi_pm1(9, FpPoly([0, 1], 9), FpPoly([0, 1], 9), 0)


class TestParameterShift:
    def test_shift_by_one_is_invisible_at_linked_argument(self):
        for p in (5, 7):
            for r in range(1, p):
                for s in range(1, p):
                    if (r + s) % p == 0:
                        continue
                    x = (s - r) * inv_mod(r + s, p) % p
                    a_poly = FpPoly([0, r], p)
                    b_poly = FpPoly([0, s], p)
                    assert jacobi_pm1(p, a_poly, b_poly + 1, x) == jacobi_pm1(
                        p, a_poly, b_poly, x
                    )

    def test_recurrence_specialization(self):
        # (A+B) (x+1)/2 P(A, B+1; x) == B P(A, B; x) + p-fold degree-p term,
        # at the linked argument and one step off it
        for p in (3, 5, 7):
            half = inv_mod(2, p)
            for r, s, linked in linked_pairs(p):
                for x in (linked, (linked + 1) % p):
                    a_poly = FpPoly([0, r], p)
                    b_poly = FpPoly([0, s], p)
                    lhs = (a_poly + b_poly) * ((x + 1) * half % p) * jacobi_pm1(
                        p, a_poly, b_poly + 1, x
                    )
                    rhs = b_poly * jacobi_pm1(p, a_poly, b_poly, x) + p_times_jacobi_p(
                        p, a_poly, b_poly, x
                    )
                    assert lhs == rhs


class TestValueRoutes:
    # the integer-table routes the verifier compares, against pointwise
    # evaluation of jacobi_pm1 at the linked argument, with B shifted by 0 or 1
    @pytest.mark.parametrize("p", PRIMES)
    def test_plain_values_match_jacobi_for_pair(self, p):
        for r, s, x in linked_pairs(p):
            want = linked_jacobi(p, r, s)
            assert _jacobi_values(p, (r, 0), (s, 0), x) == values(want)

    @pytest.mark.parametrize("p", PRIMES)
    def test_shifted_values_match_jacobi_pm1(self, p):
        for r, s, x in linked_pairs(p):
            want = linked_jacobi(p, r, s, shift=1)
            assert _jacobi_values(p, (r, 0), (s, 1), x) == values(want)

    @pytest.mark.parametrize("p", (5, 7))
    def test_values_match_jacobi_pm1_at_every_argument(self, p):
        # JacobiShift's recurrence and JacobiReflection read arguments off
        # the linked one
        for r, s, _ in linked_pairs(p):
            for shift in (0, 1):
                for x in range(p):
                    want = jacobi_pm1(p, FpPoly([0, r], p), FpPoly([shift, s], p), x)
                    got = _jacobi_values(p, (r, 0), (s, shift), x)
                    assert got == values(want)


class TestLinkedArgumentCollapse:
    @pytest.mark.parametrize("p", PRIMES)
    def test_recurrence_reduces_to_b_times_shift(self, p):
        # at x = (s-r)/(s+r): p*P_p(r*a, s*a; x) = 0 and (A+B)(x+1)/2 = B, so
        # the parameter-shift recurrence says B*P(A, B+1; x) = B*P(A, B; x)
        half = inv_mod(2, p)
        for r, s, x in linked_pairs(p):
            a_poly = FpPoly([0, r], p)
            b_poly = FpPoly([0, s], p)
            assert p_times_jacobi_p(p, a_poly, b_poly, x).is_zero
            assert (a_poly + b_poly) * ((x + 1) * half % p) == b_poly

    def test_off_the_linked_argument_the_term_survives(self):
        # at x + 1 the term is (a - a^p)(r + s)/2, so JacobiShift's recurrence
        # there checks more than the shift does
        for p in PRIMES:
            half = inv_mod(2, p)
            frob = FpPoly.x(p) - FpPoly.monomial(1, p, p)
            for r, s, x in linked_pairs(p):
                got = p_times_jacobi_p(p, FpPoly([0, r], p), FpPoly([0, s], p), x + 1)
                assert got == frob * ((r + s) * half % p)
                assert not got.is_zero


class TestPTimesDegreeP:
    @pytest.mark.parametrize("fn", [jacobi_pm1, p_times_jacobi_p])
    def test_parameters_over_another_prime_are_rejected(self, fn):
        a_poly = FpPoly([0, 1], 7)
        with pytest.raises(ValueError, match="must share the prime"):
            fn(5, a_poly, a_poly, 1)

    def test_spec_example_vanishes(self):
        # A = B = a, x = 0, p = 3: the two terms cancel
        got = p_times_jacobi_p(3, FpPoly([0, 1], 3), FpPoly([0, 1], 3), 0)
        assert got.is_zero

    def test_constant_parameters_contribute_nothing(self):
        # c^p = c in F_p, so each difference vanishes
        got = p_times_jacobi_p(5, FpPoly([2], 5), FpPoly([3], 5), 2)
        assert got.is_zero

    def test_x_one_kills_second_term(self):
        # at x = 1 only the (x+1)-branch survives: (A - A^p) * 2^p / 2
        p = 5
        a_poly = FpPoly([0, 1], p)
        got = p_times_jacobi_p(p, a_poly, FpPoly([0, 2], p), 1)
        half = inv_mod(2, p)
        want = (a_poly - a_poly.frobenius_p()) * (pow(2, p, p) * half % p)
        assert got == want


def p_times_jacobi_p_direct(p, A, B, x):
    """Independent oracle for ``p_times_jacobi_p``: the two-term form
    (A - A^p)(x+1)^p / 2 + (B - B^p)(x-1)^p / 2, one Frobenius map per
    parameter."""
    half = inv_mod(2, p)
    t1 = (A - A.frobenius_p()) * (pow(x + 1, p, p) * half % p)
    t2 = (B - B.frobenius_p()) * (pow(x - 1, p, p) * half % p)
    return t1 + t2


class TestOneFrobenius:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_equals_the_two_term_form(self, p):
        import random

        rng = random.Random(p)
        def random_poly(degree):
            return FpPoly([rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)], p)

        for deg_a in range(4):
            for deg_b in range(4):
                A, B = random_poly(deg_a), random_poly(deg_b)
                for x in range(p):
                    want = p_times_jacobi_p_direct(p, A, B, x)
                    assert p_times_jacobi_p(p, A, B, x) == want, (A, B, x)

    @pytest.mark.parametrize("fn", [jacobi_pm1, p_times_jacobi_p])
    @pytest.mark.parametrize("x", [2.5, 2.0, "2", None])
    def test_the_argument_must_be_an_integer(self, fn, x):
        # int(x) would read 2.5 as 2; both functions refuse it alike
        a_poly = FpPoly([0, 1], 5)
        message = f"^argument x must be an integer, got {re.escape(repr(x))}$"
        with pytest.raises(TypeError, match=message):
            fn(5, a_poly, a_poly, x)

    @pytest.mark.parametrize("fn", [jacobi_pm1, p_times_jacobi_p])
    def test_integral_arguments_are_read_mod_p(self, fn):
        class Two:  # an integral type that is not int
            def __index__(self):
                return 2

        a_poly = FpPoly([0, 1], 5)
        want = fn(5, a_poly, a_poly, 2)
        assert fn(5, a_poly, a_poly, 7) == fn(5, a_poly, a_poly, -3) == want
        assert fn(5, a_poly, a_poly, Two()) == want
        assert fn(5, a_poly, a_poly, True) == fn(5, a_poly, a_poly, 1)


class TestClassicalSanity:
    def test_integer_constant_parameters_match_direct_arithmetic(self):
        # with constant parameters the whole sum is classical: every binomial
        # is an ordinary integer binomial reduced mod p
        import math

        for p in (5, 7):
            for a0 in range(1, p):
                for b0 in range(1, p):
                    for x in (0, 1, 2):
                        got = jacobi_pm1(
                            p, FpPoly([a0], p), FpPoly([b0], p), x
                        )
                        direct = (
                            sum(
                                math.comb(a0 - 1, p - 1 - k)
                                * math.comb(b0 - 1, k)
                                * pow(x + 1, p - 1 - k, p)
                                * pow(x - 1, k, p)
                                for k in range(p)
                            )
                            % p
                        )
                        assert got == FpPoly([direct], p)


class TestReflection:
    # the polynomial chain of the argument reflection, and the value vectors
    # JacobiReflection compares in its place
    def test_examples(self):
        for p in (5, 7):
            chain = reflection_chain(p, 2)
            assert chain[0] == chain[1] == chain[2]
            assert chain[0] == b_rs(p, 1, 2) == b_rs(p, 1, p - 3)

    def test_all_legal_s(self):
        for p in (5, 7, 11):
            for s in range(1, p - 1):
                chain = reflection_chain(p, s)
                assert chain[0] == chain[1] == chain[2] == b_rs(p, 1, s)
                assert chain[2] == b_rs(p, 1, p - 1 - s)
                got = [vals for _, vals in _reflection_values(p, s)]
                assert got == [values(f) for f in chain]

    def test_illegal_s_rejected(self):
        with pytest.raises(ZeroDivisionError):
            _reflection_values(5, 4)  # s = -1 mod 5
        with pytest.raises(ZeroDivisionError):
            _reflection_values(5, 5)  # s = 0 mod 5
