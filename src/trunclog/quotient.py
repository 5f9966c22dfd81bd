"""The quotient ring F_p(a)[X] truncated below degree p, modulo X^p - c.

The arithmetic runs on grids: lists of p ``FpPoly`` coefficients indexed by
the X-power.  ``grid_mulmod`` multiplies two grids and reduces by X^p -> c for
a polynomial constant c; c = 0 gives the product truncated below X^p.  It
Kronecker-packs each row once per product and multiplies packed integers, so
a grid product packs 2p rows rather than two operands for each of p² row
products.  ``compose_mod`` clears denominators (``common_denominator``) and
composes on grids; in the library it forms G(L(X)) only for a candidate G
that the power route of ``glog`` does not prove, and for a witness.

``XPoly`` is the value type that constructors return and witnesses print:
p ``RatFn`` coefficients (X^0 .. X^(p-1)) with an optional modulus tag c, for
rendering, equality and ``specialize``.  ``xpoly_to_grid`` and
``grid_to_xpoly`` convert, the first raising ValueError on a coefficient that
is not a polynomial.  XPoly's arithmetic (its sum and product, ``constant``
and ``with_modulus``) serves only ``_compose_horner``, the plain rational
Horner loop that the tests hold the grid composition to; the library never
calls it.  The constant c must be a polynomial (a fraction with denominator
1): only binomial moduli X^p - c with polynomial c occur anywhere in this
package.
"""

from __future__ import annotations

from functools import reduce

from .errors import PoleError
from .polys import FpPoly, RatFn, _pack, _slot_typecode, _unpack


def _coerce_ratfn(v, p):
    if isinstance(v, RatFn):
        if v.p != p:
            raise ValueError(f"mixed moduli: {p} and {v.p}")
        return v
    if isinstance(v, FpPoly):
        if v.p != p:
            raise ValueError(f"mixed moduli: {p} and {v.p}")
        return RatFn.from_poly(v)
    return RatFn.const(v, p)


class XPoly:
    """Polynomial of degree < p in X with RatFn coefficients in the parameter."""

    __slots__ = ("coeffs", "p", "modulus", "_hash")

    def __init__(self, coeffs, p, modulus=None):
        coeffs = [_coerce_ratfn(c, p) for c in coeffs]
        if len(coeffs) > p:
            raise ValueError("degree in X must stay below p")
        coeffs += [RatFn.zero(p)] * (p - len(coeffs))
        if modulus is not None:
            modulus = _coerce_ratfn(modulus, p)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, c, p, modulus=None):
        return cls((c,), p, modulus)

    @classmethod
    def x_power(cls, p, e, modulus=None):
        if not 0 <= e < p:
            raise ValueError("exponent out of range")
        return cls([0] * e + [1], p, modulus)

    def with_modulus(self, c):
        return XPoly(self.coeffs, self.p, c)

    def _check_tags(self, other):
        if self.p != other.p:
            raise ValueError(f"mixed moduli: {self.p} and {other.p}")
        if self.modulus != other.modulus:
            raise ValueError(
                f"mismatched modulus tags: {self.modulus} and {other.modulus}"
            )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (RatFn, FpPoly, int)):
            other = XPoly.constant(other, self.p, self.modulus)
        if not isinstance(other, XPoly):
            return NotImplemented
        self._check_tags(other)
        coeffs = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        return XPoly(coeffs, self.p, self.modulus)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        self._check_tags(other)
        if self.modulus is None:
            raise ValueError("multiplication requires a modulus tag for reduction")
        p = self.p
        full = [RatFn.zero(p) for _ in range(2 * p - 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero:
                    full[i + j] = full[i + j] + a * b
        c = self.modulus
        for e in range(2 * p - 2, p - 1, -1):
            if not full[e].is_zero:
                full[e - p] = full[e - p] + c * full[e]
        return XPoly(full[:p], p, c)

    # -- evaluation -----------------------------------------------------------

    def specialize(self, a) -> FpPoly:
        """Substitute the parameter value a into every coefficient.

        Raises PoleError naming the offending X-power when a reduced
        denominator vanishes at a.
        """
        vals = []
        for e, c in enumerate(self.coeffs):
            try:
                vals.append(c.eval(a))
            except PoleError as exc:
                raise PoleError(exc.point, index=e) from None
        return FpPoly(vals, self.p, var="X")

    # -- comparison and rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return (
            self.p == other.p
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # cached, as FpPoly's: an lru_cache key hashes on every read
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.coeffs, self.p, self.modulus)))
            return self._hash

    def __str__(self):
        terms = []
        for e, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            xs = "" if e == 0 else ("X" if e == 1 else f"X^{e}")
            if not xs:
                terms.append(cs if _is_plain(cs) else f"({cs})")
            elif cs == "1":
                terms.append(xs)
            else:
                head = cs if _is_plain(cs) else f"({cs})"
                terms.append(f"{head}*{xs}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        tag = f", mod X^{self.p} - ({self.modulus})" if self.modulus is not None else ""
        return f"XPoly({self}{tag}, p={self.p})"


def _is_plain(s: str) -> bool:
    return " " not in s and "/" not in s


# -- polynomial-grid helpers --------------------------------------------------
# Lists of FpPoly indexed by the X-power, used wherever every coefficient in
# sight is a polynomial: the verification battery and the cleared composition.


def grid_mulmod(a, b, cpoly: FpPoly, p: int):
    """Product of two length-p FpPoly grids, reduced by X^p -> cpoly.

    Each nonzero row of a and of b is packed once into one int, and
    full[e] = sum of A_i * B_j over i + j = e is a sum of plain big-int
    products, unpacked once per e.  A slot of full[e] sums one convolution
    entry, at most min(row lengths)·(p-1)², for each of at most
    min(nonzero rows of a, of b) terms; that bounds the slot width.  With
    cpoly zero this is the product truncated below X^p, and only the terms
    with i + j < p are formed.
    """
    zero = FpPoly.zero(p)
    n = p if cpoly.is_zero else 2 * p - 1
    rows_a = [(i, r.coeffs) for i, r in enumerate(a) if r.coeffs]
    rows_b = [(j, r.coeffs) for j, r in enumerate(b[:n]) if r.coeffs]
    if not rows_a or not rows_b:
        return [zero] * p
    terms = min(len(rows_a), len(rows_b))
    short = min(max(len(c) for _, c in rows_a), max(len(c) for _, c in rows_b))
    tc = _slot_typecode(terms * short * (p - 1) * (p - 1))
    packed_b = [(j, len(c), _pack(c, tc)) for j, c in rows_b]
    sums = [0] * n
    lens = [0] * n  # slots of sums[e]; its top slot is nonzero before mod p
    for i, ca in rows_a:
        la, pa = len(ca), _pack(ca, tc)
        for j, lb, pb in packed_b:
            e = i + j
            if e >= n:
                break
            sums[e] += pa * pb
            if la + lb - 1 > lens[e]:
                lens[e] = la + lb - 1
    full = [
        FpPoly._raw(_unpack(s, k, p, tc), p, "a") if k else zero
        for s, k in zip(sums, lens)
    ]
    for e in range(n - 1, p - 1, -1):
        if not full[e].is_zero:
            full[e - p] = full[e - p] + cpoly * full[e]
    return full[:p]


def xpoly_to_grid(x: XPoly):
    """The coefficient grid of an XPoly whose coefficients are polynomials;
    ValueError if any coefficient has a nontrivial denominator."""
    if any(not c.den.is_one for c in x.coeffs):
        raise ValueError("series with non-polynomial coefficients")
    return [c.num for c in x.coeffs]


def grid_to_xpoly(grid, p, modulus=None) -> XPoly:
    return XPoly([RatFn.from_poly(g) for g in grid], p, modulus)


def _lcm(a: FpPoly, b: FpPoly) -> FpPoly:
    g = a.gcd(b)
    return (a * (b // g)).monic()


def common_denominator(coeffs):
    """(numerators, D) for a nonempty sequence of RatFn: D is the monic lcm
    of their denominators and numerators[k] = coeffs[k] * D, all FpPoly."""
    den = reduce(_lcm, (c.den for c in coeffs))
    return [c.num * (den // c.den) for c in coeffs], den


def compose_mod(outer: XPoly, inner: XPoly, c) -> XPoly:
    """Horner evaluation of outer at inner, reduced modulo X^p - c.

    c must be a polynomial; a fraction with a nontrivial denominator raises
    ValueError.  The computation runs on cleared-denominator grids: outer =
    P/D and inner = H/Din coefficient-wise, and

        outer(inner) = (sum_k P_k H^k Din^(p-1-k)) / (D * Din^(p-1)),

    with the single division performed at the end.
    """
    p = outer.p
    c = _coerce_ratfn(c, p)
    if not c.den.is_one:
        raise ValueError(f"compose_mod needs a polynomial constant, got {c}")

    cpoly = c.num
    var = cpoly.var if not cpoly.is_zero else "a"
    one = FpPoly.one(p, var)

    pnum, d_out = common_denominator(outer.coeffs)
    hgrid, d_in = common_denominator(inner.coeffs)

    din_pows = [one]
    for _ in range(p - 1):
        din_pows.append(din_pows[-1] * d_in)

    zero = FpPoly.zero(p)
    acc = [zero] * p
    acc[0] = pnum[p - 1]
    for k in range(p - 2, -1, -1):
        acc = grid_mulmod(acc, hgrid, cpoly, p)
        acc[0] = acc[0] + pnum[k] * din_pows[p - 1 - k]

    denom = d_out * din_pows[p - 1]
    return XPoly([RatFn(n, denom) for n in acc], p, c)


def _compose_horner(outer: XPoly, inner: XPoly, c: RatFn) -> XPoly:
    """outer(inner) mod X^p - c by a rational Horner loop on XPoly products;
    the reference that the tests hold ``compose_mod`` to."""
    p = outer.p
    inner = inner.with_modulus(c)
    acc = XPoly.constant(outer.coeffs[p - 1], p, c)
    for k in range(p - 2, -1, -1):
        acc = acc * inner + outer.coeffs[k]
    return acc
