"""Degree-(p-1) Jacobi polynomials mod p at specialized parameters.

Only the specialized shape is ever represented: parameters A, B linear in the
parameter a (such as r*a and s*a) and an argument x in F_p.  Reduced mod p
the degree-(p-1) Jacobi polynomial at (A, B; x) equals

    sum_{k<p} C(A-1, p-1-k) * C(B-1, k) * (x+1)^(p-1-k) * (x-1)^k,

and at x = (s - r)/(s + r) with A = r*a, B = s*a it reproduces b[r,s](a).
``jacobi_pm1`` is that sum as one call to ``special.binomial_sum``.
``p_times_jacobi_p`` is the p-fold multiple of the degree-p polynomial, which
collapses mod p to (A - A^p)(x+1)^p / 2 + (B - B^p)(x-1)^p / 2 = C - C^p,
C = A(x+1)^p / 2 + B(x-1)^p / 2 (one Frobenius map, since a -> a^p is
additive and fixes F_p), and feeds the parameter-shift recurrence

    (A+B)(x+1)/2 * P(A, B+1; x) = B * P(A, B; x) + p*P_p(A, B; x).

At the linked arguments that term vanishes identically: with A = r*a,
B = s*a and x = (s - r)/(s + r), r^p = r and (x+1)^p = x+1 in F_p turn it
into (a - a^p)(r(x+1) + s(x-1)) / 2, and r(x+1) + s(x-1) = 0.  There also
(A+B)(x+1)/2 = B, so the recurrence reduces to B * P(A, B+1; x) =
B * P(A, B; x): it says no more than the shift B -> B+1 leaving the value
unchanged.  One step off, at x + 1, the same term is (a - a^p)(r + s) / 2,
which is nonzero, so the verifier checks the recurrence there.
"""

from __future__ import annotations

import operator

from .fields import check_odd_prime, inv_mod
from .polys import FpPoly
from .special import binomial_sum


def _checked(p: int, A: FpPoly, B: FpPoly, x) -> int:
    """x mod p, after checking p, A and B; x must be integral (a float or a
    string raises TypeError rather than being truncated)."""
    check_odd_prime(p)
    if A.p != p or B.p != p:
        raise ValueError("parameter polynomials must share the prime")
    try:
        return operator.index(x) % p
    except TypeError:
        raise TypeError(f"argument x must be an integer, got {x!r}") from None


def jacobi_pm1(p: int, A: FpPoly, B: FpPoly, x) -> FpPoly:
    """The reduced degree-(p-1) Jacobi polynomial as a polynomial in a.

    A and B are polynomials in a over F_p; the integer x is read mod p.
    """
    x = _checked(p, A, B, x)
    return binomial_sum(A - 1, B - 1, x + 1, x - 1)


def p_times_jacobi_p(p: int, A: FpPoly, B: FpPoly, x) -> FpPoly:
    """p times the degree-p Jacobi polynomial, reduced mod p.

    Equals (A - A^p) * (x+1)^p / 2 + (B - B^p) * (x-1)^p / 2, formed as
    C - C^p with C = A * (x+1)^p / 2 + B * (x-1)^p / 2: Frobenius is additive
    and fixes the scalars of F_p.  For constant parameters C^p = C.
    """
    x = _checked(p, A, B, x)
    half = inv_mod(2, p)
    c = A * (pow(x + 1, p, p) * half % p) + B * (pow(x - 1, p, p) * half % p)
    return c - c.frobenius_p()
