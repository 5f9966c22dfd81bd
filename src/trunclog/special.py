"""Constructors for the characteristic-p special functions.

The central object is the degree-(p-1) parametric exponential analogue

    L(X) = -sum_{k<p} (a - 1)_(p-1-k) * X^k,

whose coefficient of X^k is minus the falling factorial of a - 1 of length
p-1-k.  At a = 0 it collapses to the truncated exponential
E(X) = sum_{k<p} X^k / k!.  Its scaled companions are L_r = sigma_r(L_1)
under sigma_r: a -> r*a, X -> r*X; only L_1 runs the falling-factorial
chain, and every other L_r is read off the cached L_1.  The truncated
logarithm and its higher relatives are the finite polylogarithms
sum_{k=1}^{p-1} X^k / k^d.

``binomial_sum`` is the alternating sum
sum_k C(f, p-1-k) C(g, k) alpha^(p-1-k) beta^k as a polynomial in a, behind
b[r,s], its alternate route and the reduced Jacobi polynomial.  It is one
packed dot product (``binomial_dot``): every binomial Kronecker-packed once,
the weighted products summed as big ints and unpacked once.  Row 1 of b[r,s]
runs the same dot product on binomial tables it already holds.

``trunc_binomial`` is the series (1 + b*X)^f cut before degree p: its
coefficient of X^k is C(f, k) * b^k, a polynomial in a when f and b are, with
no fraction arithmetic unless f or b is a fraction.  A linear exponent
f = c*a + d reads one cached table per offset d, C(a + d, k) for k < p, and
maps it by a -> c*a, as L_r is read off L_1: the series (1+X)^(r*a - 1) of
TruncBinomialRules and b_rs_coeff are images of one series.  That table is
not row 1's of b_rs (``bpoly``), so the two routes to b[r,s] share no table.

``laguerre_const`` is the constant obtained by substituting a -> a^p in the
coefficients and X -> a^p - a.  ``laguerre_const_routes`` computes it by that
substitution and by the product formula prod_{k=1}^{p-1} (1 + a/k)^k, once
per prime, each route in its own function so that the two can be audited
apart; ``laguerre_const`` asserts the two equal and LFactorization compares
the same pair, so the factorization identity is a permanent check.  The
substitution, ``frobenius_image`` of L's record, is shared with RightInverse.
"""

from __future__ import annotations

from .errors import TheoremViolationError
from .fields import as_index, check_odd_prime, inv_mod, per_prime
from .polys import FpPoly, RatFn, _pack, _slot_typecode, _unpack
from .quotient import XPoly, common_denominator


def _falling_factorials(f: FpPoly, upto: int):
    """[ (f)_0, (f)_1, ..., (f)_upto ] computed incrementally."""
    out = [FpPoly.one(f.p, f.var)]
    for m in range(upto):
        out.append(out[-1] * (f - m))
    return out


def binomials_of(f, p: int):
    """[C(f, 0), ..., C(f, p-1)] computed incrementally in f's domain.

    Works for FpPoly and RatFn alike; only divisions by k < p occur.
    """
    out = [f ** 0]
    for k in range(1, p):
        out.append(out[-1] * (f - (k - 1)) * inv_mod(k, p))
    return out


def binomial_sum(f: FpPoly, g: FpPoly, alpha: int, beta: int) -> FpPoly:
    """sum_{k<p} C(f, p-1-k) * C(g, k) * alpha^(p-1-k) * beta^k over F_p,
    for f and g polynomials in a: ``binomial_dot`` of their binomials."""
    if g.p != f.p:
        raise ValueError(f"mixed moduli: {f.p} and {g.p}")
    return binomial_dot(binomials_of(f, f.p), binomials_of(g, f.p), alpha, beta)


def binomial_dot(bin_f, bin_g, alpha: int, beta: int) -> FpPoly:
    """sum_{k<p} bin_f[p-1-k] * bin_g[k] * alpha^(p-1-k) * beta^k over F_p,
    for two rows of p polynomials in a; terms whose scalar weight is zero are
    skipped.

    One packed dot product: each binomial is packed once into one int, and
    sum_k w_k * A_k * B_k is one big-int sum, unpacked once.  A slot sums,
    for every term, one convolution entry of at most min(len A_k, len B_k)
    products times a weight, each at most (p-1)^2 and p-1; that bounds the
    slot width.
    """
    p = len(bin_f)
    terms = []
    for k in range(p):
        w = pow(alpha, p - 1 - k, p) * pow(beta, k, p) % p
        a, b = bin_f[p - 1 - k].coeffs, bin_g[k].coeffs
        if w and a and b:
            terms.append((w, a, b))
    if not terms:
        return FpPoly.zero(p)
    tc = _slot_typecode(sum(min(len(a), len(b)) for _, a, b in terms) * (p - 1) ** 3)
    total = sum(w * _pack(a, tc) * _pack(b, tc) for w, a, b in terms)
    length = max(len(a) + len(b) - 1 for _, a, b in terms)
    return FpPoly._raw(_unpack(total, length, p, tc), p, "a")


def laguerre_pm1(p: int) -> XPoly:
    """The degree-(p-1) exponential analogue with parameter a: laguerre_scaled(p, 1).

    Coefficient of X^k is -(a - 1)_(p-1-k); the constant term is 1 - a^(p-1)
    and the top coefficient is -1.
    """
    return laguerre_scaled(p, 1)


@per_prime
def laguerre_scaled(p: int, r: int) -> XPoly:
    """L_r = sigma_r(L_1) for sigma_r: a -> r*a, X -> r*X: coefficient of X^k
    is -(ra-1)_(p-1-k) * r^k.

    L_1 is the falling-factorial chain of a - 1; every other r reads the
    cached L_1 and maps coefficient k, a polynomial num in a, to
    num.subs_scale(r) * r^k.
    """
    if r % p == 0:
        raise ValueError("scale r must be nonzero mod p")
    r %= p
    if r != 1:
        coeffs, rk = [], 1
        for c in laguerre_scaled(p, 1).coeffs:
            coeffs.append(RatFn.from_poly(c.num.subs_scale(r) * rk))
            rk = rk * r % p
        return XPoly(coeffs, p)
    ff = _falling_factorials(FpPoly([-1, 1], p, "a"), p - 1)
    return XPoly([RatFn.from_poly(-ff[p - 1 - k]) for k in range(p)], p)


def finite_polylog(p: int, d: int) -> FpPoly:
    """The finite polylogarithm sum_{k=1}^{p-1} X^k / k^d over F_p."""
    check_odd_prime(p)
    if d < 0:
        raise ValueError("polylog order must be >= 0")
    coeffs = [0] + [inv_mod(pow(k, d, p), p) if d else 1 for k in range(1, p)]
    return FpPoly(coeffs, p, var="X")


def trunc_binomial(f, b=1, p=None) -> XPoly:
    """The binomial series for (1 + b*X)^f cut before degree p.

    f may be an FpPoly or RatFn in the parameter, or an int constant (else
    TypeError); b is an int, FpPoly or RatFn.  For an integer constant
    0 <= f < p and b = 1 this is exactly (1 + X)^f.  p is needed for an int f.

    C(c*a + d, k) is C(a + d, k) under a -> c*a, so a linear FpPoly f over
    F_p maps the cached table of its offset d (``subs_scale(c)``); any other
    f runs ``binomials_of``.
    """
    if not isinstance(f, (FpPoly, RatFn)):
        f = as_index(f, "f")
        if p is None:
            raise ValueError("p is required for an int exponent")
        f = FpPoly.const(f, p)
    p = check_odd_prime(f.p if p is None else p)
    if isinstance(f, FpPoly) and f.p == p and f.degree == 1:
        d, c = f.coeffs
        coeffs = [t.subs_scale(c) for t in _shifted_binomials(p, d, f.var)]
    else:
        coeffs = binomials_of(f, p)
    if not (isinstance(b, int) and b == 1):
        coeffs = [c * b ** k for k, c in enumerate(coeffs)]
    return XPoly(coeffs, p)


@per_prime
def _shifted_binomials(p: int, d: int, var: str):
    """(C(a + d, 0), ..., C(a + d, p-1)) in the variable var: the exponent
    c*a + d of ``trunc_binomial`` reads its image under a -> c*a."""
    return tuple(binomials_of(FpPoly([d, 1], p, var), p))


def alpha_p_minus_alpha(p: int) -> FpPoly:
    """The quotient constant a^p - a."""
    check_odd_prime(p)
    return FpPoly.monomial(1, p, p) - FpPoly.x(p)


def w_poly(p: int) -> FpPoly:
    """The constant 1 - a^(p-1): L's constant term, and b[1,s](a) * b[1,s](-a)."""
    return FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)


@per_prime
def laguerre_const_routes(p: int):
    """Both routes to the modulus constant: (substitution, product formula)."""
    return _lc_by_substitution(p), _lc_by_product(p)


def _lc_by_substitution(p: int) -> FpPoly:
    """sum_k L_k(a^p) * (a^p - a)^k: ``frobenius_image`` of L's record at
    a^p - a, shared with RightInverse; L's record is polynomial, so M = 1."""
    return frobenius_image(p, laguerre_pm1(p).coeffs, alpha_p_minus_alpha(p))[0]


@per_prime
def frobenius_image(p: int, coeffs, arg: FpPoly):
    """(N, M) with sum_k c_k(a^p) * arg^k = N / M for a tuple of RatFn c_k, one
    run per (coeffs, arg): M = D(a^p) for the c_k's common denominator D, and N
    the Horner sum in arg of the cleared numerators (c_k * D)(a^p).  Over F_p,
    f(a^p) = f(a)^p, so M is nonzero and N == want * M decides the equation."""
    nums, den = common_denominator(coeffs)
    acc = FpPoly.zero(p)
    for num in reversed(nums):
        acc = acc * arg + num.frobenius_p()
    return acc, den.frobenius_p()


def _lc_by_product(p: int) -> FpPoly:
    """prod_{k=1}^{p-1} (1 + a/k)^k."""
    prod = FpPoly.one(p)
    for k in range(1, p):
        prod = prod * (FpPoly([1, inv_mod(k, p)], p) ** k)
    return prod


def laguerre_const(p: int) -> FpPoly:
    """The modulus constant: the exponential analogue at (a^p; a^p - a).

    Reads the cached pair of ``laguerre_const_routes``, coefficient
    substitution a -> a^p with argument a^p - a versus the product
    prod_{k=1}^{p-1} (1 + a/k)^k, and asserts the two equal before
    returning.  Degree p(p-1)/2; value 1 at a = 0.
    """
    total, prod = laguerre_const_routes(p)
    if total != prod:
        raise TheoremViolationError(
            f"factorization of the modulus constant fails at p={p}"
        )
    return total
