"""The two-index family b[r,s](a) of polynomials over F_p.

Three construction routes are provided:

  * ``b_rs``       is the defining alternating sum over products of binomials
                     C(r*a - 1, p-1-k) * C(s*a - 1, k) weighted by (-r/s)^k;
  * ``b_rs_alt``   is the same sum with C(s*a, k) in place of C(s*a - 1, k),
                     valid whenever r + s != p;
  * ``b_rs_coeff`` is the coefficient of X^(p-1) in the product of the two
                     truncated binomials (1 + X/r)^(r*a-1) (1 - X/s)^(s*a-1).

The two sums are one packed dot product each (``special.binomial_dot``).
``b_rs`` runs that sum only for row r = 1, and row 1 reads one binomial
table per prime, C(a - 1, k) for k < p (``_a_minus_1_binomials``): it is the
f side, and its image under a -> s*a (``subs_scale``) is the g side
C(s*a - 1, k).  Row r != 1 is b[1, s/r](r*a), read through the cache and
rescaled by ``subs_scale``.  The map sigma_r: a -> r*a sends
C(a - 1, .), C(s'*a - 1, .) and the weight -1/s' to C(r*a - 1, .),
C(r*s'*a - 1, .) and -r/(r*s'), so it sends b[1, s'] to b[r, r*s'].  That
is p - 1 sums per prime instead of (p-1)^2.  ``b_rs`` stays the polynomial
of record: the value routes of BAltAgreement and JacobiLink use neither
``subs_scale`` nor FpPoly arithmetic.  Those checkers compare row 1 against
them and count a case (r, s) of another row only where b[r,s] of record is
b[1, s/r](r*a); a build that breaks this identity has its cases computed.

For r + s = p the family degenerates to the zero polynomial; elsewhere the
constant term is 1 and the degree of b[1,s] is (p-1)/2 with all roots simple
and in F_p.  ``b_roots_predicted`` lists them directly: a is a root of b[1,s]
exactly when a + a' < p, where a' is the representative of s*a in (0, p).
``b_root_lucas`` decides the same membership from the single base-p binomial
coefficient C(a + s*a, a).

Indices r, s are read as elements of F_p*, so b[r,s] for r + s > p means the
reduction mod p throughout.  Results are memoized for one prime at a time
(``fields.per_prime``): the glog coefficients and the verifier reuse them,
and entries are immutable, so concurrent duplicate inserts are harmless.
"""

from __future__ import annotations

from .errors import TheoremViolationError
from .fields import binom_lucas, check_odd_prime, inv_mod, per_prime
from .fields import per_prime_clears, switch_prime
from .polys import FpPoly, roots_and_split
from .special import binomial_dot, binomial_sum, binomials_of, laguerre_const
from .special import trunc_binomial, w_poly


def _check_indices(p: int, r: int, s: int) -> None:
    """p an odd prime and 1 <= r, s <= p-1, else ValueError."""
    check_odd_prime(p)
    if not (1 <= r <= p - 1 and 1 <= s <= p - 1):
        raise ValueError(f"indices must lie in [1, p-1], got r={r}, s={s}")


_B_CACHE: dict[tuple[int, int, int], FpPoly] = {}
per_prime_clears.append(lambda: _B_CACHE.clear())  # whichever dict is bound


def b_rs(p: int, r: int, s: int) -> FpPoly:
    """The defining sum b[r,s] over F_p."""
    switch_prime(p)
    cached = _B_CACHE.get((p, r, s))
    if cached is None:
        _check_indices(p, r, s)
        cached = _B_CACHE[(p, r, s)] = _b_rs_build(p, r, s)
    return cached


def _b_rs_build(p: int, r: int, s: int) -> FpPoly:
    if r != 1:
        return b_rs(p, 1, s * inv_mod(r, p) % p).subs_scale(r)
    table = _a_minus_1_binomials(p)
    return binomial_dot(table, [c.subs_scale(s) for c in table], 1, -inv_mod(s, p) % p)


@per_prime
def _a_minus_1_binomials(p: int):
    """(C(a - 1, 0), ..., C(a - 1, p-1)): both sides of row 1 of ``b_rs``."""
    return tuple(binomials_of(FpPoly([-1, 1], p), p))


def b_rs_alt(p: int, r: int, s: int) -> FpPoly:
    """Alternate sum with C(s*a, k); requires r + s != p."""
    _check_indices(p, r, s)
    if r + s == p:
        raise ValueError(f"alternate form requires r + s != p, got r={r}, s={s}")
    return binomial_sum(
        FpPoly([-1, r], p), FpPoly([0, s], p), 1, -r * inv_mod(s, p) % p
    )


def b_rs_coeff(p: int, r: int, s: int) -> FpPoly:
    """X^(p-1) coefficient of (1 + X/r)^(r*a-1) * (1 - X/s)^(s*a-1)."""
    _check_indices(p, r, s)
    left = trunc_binomial(FpPoly([-1, r], p), inv_mod(r, p), p)
    right = trunc_binomial(FpPoly([-1, s], p), -inv_mod(s, p) % p, p)
    acc = FpPoly.zero(p)
    for j in range(p):
        term = left.coeffs[j] * right.coeffs[p - 1 - j]
        acc = acc + term.as_poly()
    return acc


def b_roots_predicted(p: int, s: int) -> frozenset:
    """Roots of b[1,s] in F_p*: the a with a + a' < p, a' = s*a mod p in (0, p).

    Exactly (p-1)/2 elements; requires 1 <= s <= p-2.
    """
    check_odd_prime(p)
    if not 1 <= s <= p - 2:
        raise ValueError(f"root prediction requires 1 <= s <= p-2, got s={s}")
    roots = frozenset(a for a in range(1, p) if a + (s * a % p) < p)
    assert len(roots) == (p - 1) // 2
    return roots


def b_root_lucas(p: int, s: int, a: int) -> bool:
    """Root test via base-p digits: a is a root of b[1,s] iff p does not
    divide the integer binomial C(a + s*a, a)."""
    check_odd_prime(p)
    if not 1 <= s <= p - 2:
        raise ValueError(f"Lucas criterion requires 1 <= s <= p-2, got s={s}")
    if not 1 <= a <= p - 1:
        raise ValueError(f"Lucas criterion requires 1 <= a <= p-1, got a={a}")
    return binom_lucas(a + s * a, a, p) != 0


@per_prime
def b_prefix_products(p: int, negate: bool = False):
    """Prefix products (1, b[1,1], b[1,1]*b[1,2], ...) of length p-1.

    Entry j is the product over s <= j; with negate=True each factor is
    evaluated at -a instead.  a -> -a is a ring automorphism, so those are
    the a-products rescaled by ``subs_scale(p - 1)``.
    """
    if negate:
        return tuple(f.subs_scale(p - 1) for f in b_prefix_products(p))
    out = [FpPoly.one(p)]
    for s in range(1, p - 1):
        out.append(out[-1] * b_rs(p, 1, s))
    return tuple(out)


@per_prime
def product_all_b(p: int) -> FpPoly:
    """The full product prod_{s=1}^{p-2} b[1,s](a), computed three ways that
    must agree: the last prefix product, and the two routes below, each its
    own function so that the three can be audited apart."""
    r1 = b_prefix_products(p)[p - 2]
    r2 = _product_by_linear_factors(p)
    r3 = _product_by_modulus_constant(p)
    if r3 is None or r1 != r2 or r1 != r3:
        raise TheoremViolationError(f"product of the b-family disagrees at p={p}")
    return r1


def _product_by_linear_factors(p: int) -> FpPoly:
    """prod_{k=2}^{p-1} (1 + a/k)^(k-1)."""
    prod = FpPoly.one(p)
    for k in range(2, p):
        prod = prod * (FpPoly([1, inv_mod(k, p)], p) ** (k - 1))
    return prod


def _product_by_modulus_constant(p: int) -> FpPoly | None:
    """Lc / (1 - a^(p-1)), or None when the division leaves a remainder."""
    q, rem = divmod(laguerre_const(p), w_poly(p))
    return q if rem.is_zero else None


CSV_HEADER = "p,s,roots,degree"


def b_roots_csv_rows(p: int):
    """Root-table rows 'p,s,roots,degree' with roots ascending, ;-separated."""
    rows = []
    for s in range(1, p - 1):
        f = b_rs(p, 1, s)
        _, roots = roots_and_split(f)
        listed = ";".join(str(a) for a in sorted(roots))
        rows.append(f"{p},{s},{listed},{f.degree}")
    return rows
