"""Degree-(p-1) Jacobi polynomials mod p at specialized parameters.

Only the specialized shape is ever represented: parameters A, B linear in the
parameter a (such as r*a and s*a) and an argument x in F_p.  Reduced mod p
the degree-(p-1) Jacobi polynomial at (A, B; x) equals

    sum_{k<p} C(A-1, p-1-k) * C(B-1, k) * (x+1)^(p-1-k) * (x-1)^k,

and at x = (s - r)/(s + r) with A = r*a, B = s*a it reproduces b[r,s](a).
``p_times_jacobi_p`` is the p-fold multiple of the degree-p polynomial, which
collapses mod p to (A - A^p)(x+1)^p / 2 + (B - B^p)(x-1)^p / 2 and feeds the
parameter-shift recurrence used by the verifier.

At the linked arguments that term vanishes identically: with A = r*a,
B = s*a and x = (s - r)/(s + r), r^p = r and (x+1)^p = x+1 in F_p turn it
into (a - a^p)(r(x+1) + s(x-1)) / 2, and r(x+1) + s(x-1) = 0.  There also
(A+B)(x+1)/2 = B, so the recurrence reduces to B * P(A, B+1; x) =
B * P(A, B; x): it says no more than the shift B -> B+1 leaving the value
unchanged.
"""

from __future__ import annotations

from .bpoly import b_rs
from .fields import check_odd_prime, inv_mod
from .polys import FpPoly
from .special import binomials_of


def jacobi_pm1(p: int, A: FpPoly, B: FpPoly, x) -> FpPoly:
    """The reduced degree-(p-1) Jacobi polynomial as a polynomial in a.

    A and B are polynomials in a over F_p; x is read mod p.
    """
    check_odd_prime(p)
    if A.p != p or B.p != p:
        raise ValueError("parameter polynomials must share the prime")
    x = int(x) % p
    bin_a = binomials_of(A - 1, p)
    bin_b = binomials_of(B - 1, p)
    xp1 = (x + 1) % p
    xm1 = (x - 1) % p
    acc = FpPoly.zero(p)
    for k in range(p):
        s = pow(xp1, p - 1 - k, p) * pow(xm1, k, p) % p
        if s:
            acc = acc + bin_a[p - 1 - k] * bin_b[k] * s
    return acc


def p_times_jacobi_p(p: int, A: FpPoly, B: FpPoly, x) -> FpPoly:
    """p times the degree-p Jacobi polynomial, reduced mod p.

    Equals (A - A^p) * (x+1)^p / 2 + (B - B^p) * (x-1)^p / 2; for constant
    parameters each difference vanishes.
    """
    check_odd_prime(p)
    x = int(x) % p
    half = inv_mod(2, p)
    t1 = (A - A.frobenius_p()) * (pow(x + 1, p, p) * half % p)
    t2 = (B - B.frobenius_p()) * (pow(x - 1, p, p) * half % p)
    return t1 + t2


def jacobi_for_pair(p: int, r: int, s: int) -> FpPoly:
    """Jacobi value at A = r*a, B = s*a, x = (s-r)/(s+r); needs r+s != 0 mod p."""
    if (r + s) % p == 0:
        raise ValueError("argument (s-r)/(s+r) undefined when r + s = 0 mod p")
    x = (s - r) * inv_mod(r + s, p) % p
    return jacobi_pm1(p, FpPoly([0, r], p), FpPoly([0, s], p), x)


def jacobi_reflection_check(p: int, s: int) -> bool:
    """Argument-reflection chain at r = 1.

    Checks, as identities in F_p[a], that the Jacobi value at (a, s*a) and
    argument (s-1)/(s+1) equals the two values at ((-s-1)*a + 1) and
    ((-s-1)*a) with argument (s+2)/s, and cross-checks both against the
    symmetry b[1,s] = b[1,p-1-s].  Requires s not in {0, -1} mod p, so
    1 <= s <= p-2.
    """
    check_odd_prime(p)
    if s % p in (0, p - 1):
        raise ValueError(f"reflection chain undefined for s = {s} mod {p}")
    s %= p
    a_poly = FpPoly([0, 1], p)
    x1 = (s - 1) * inv_mod(s + 1, p) % p
    x2 = (s + 2) * inv_mod(s, p) % p
    neg = (-s - 1) % p
    p1 = jacobi_pm1(p, a_poly, FpPoly([0, s], p), x1)
    p2 = jacobi_pm1(p, a_poly, FpPoly([1, neg], p), x2)
    p3 = jacobi_pm1(p, a_poly, FpPoly([0, neg], p), x2)
    return (
        p1 == p2 == p3
        and p1 == b_rs(p, 1, s)
        and p3 == b_rs(p, 1, p - 1 - s)
    )
