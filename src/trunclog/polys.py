"""Dense univariate polynomials over F_p and the field of rational functions.

Polynomials are stored as tuples of int residues, lowest degree first, with no
trailing zero (the zero polynomial is the empty tuple).  The variable-name tag
is purely informational ("a" for the parameter, "X" for the main variable);
arithmetic never inspects it and mixing tags is permitted; binary operations
keep the left operand's tag.

Multiplication has one path.  A constant operand, on either side, scales the
other's coefficients; every other product is Kronecker substitution: both
operands packed into one Python int each, one big-int product, one unpack.
Packing and unpacking are one bulk ``array`` conversion each.  The slot width
comes from a proven bound on the largest slot value, min(la, lb)·(p−1)² for
one product: 4-byte slots below 2^32 and 8-byte slots below 2^64, so a packed
product never overflows its slots.  A non-constant product whose bound
reaches 2^64 raises OverflowError before anything is packed; for 2×2
products that starts above p ≈ 3.04·10^9, for 45×45 above p ≈ 6.4·10^8.
The packing helpers (``_slot_typecode``, ``_pack``, ``_slots``, ``_unpack``)
also pack the sums of ``quotient.grid_mulmod``, ``special.binomial_sum``,
``glog.left_inverse_by_powers`` and ``pairsystem``, each under its own
slot bound.

``values`` and ``interpolate`` pass between a polynomial and its value
vector on F_p; they are inverse to each other on degrees at most p-1, where
a polynomial is determined by its p values.

``RatFn`` keeps fractions in canonical form at all times: the denominator is
monic and coprime to the numerator, and the zero fraction is 0/1.  Equality of
canonical forms is therefore plain coordinate equality.

Everything is immutable and pure, hence freely shareable across threads.
"""

from __future__ import annotations

import operator
import sys
from array import array

from .errors import NonSplitError, PoleError
from .fields import check_odd_prime, inv_mod, per_prime


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _slot_typecode(bound):
    """The ``array`` typecode of the narrowest slot holding every int in
    [0, bound]; OverflowError when no slot of 8 bytes or less does."""
    for tc in "IQ":
        if bound < 1 << 8 * array(tc).itemsize:
            return tc
    raise OverflowError(f"packed slot bound {bound} needs more than 8 bytes")


def _pack(coeffs, typecode):
    """Kronecker packing: coeffs[k] in slot k of one int, lowest slot first."""
    return int.from_bytes(array(typecode, coeffs).tobytes(), sys.byteorder)


def _slots(n, length, typecode):
    """The first length slots of n as an ``array``, unreduced."""
    slots = array(typecode)
    slots.frombytes(n.to_bytes(length * slots.itemsize, sys.byteorder))
    return slots


def _unpack(n, length, p, typecode):
    """The trimmed residues mod p of the first length slots of n."""
    return _trim([c % p for c in _slots(n, length, typecode)])


def _mul_tuples(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    if len(b) == 1:
        s = b[0]
        return a if s == 1 else tuple(c * s % p for c in a)
    # Kronecker substitution: one big-int product of the packed operands.  A
    # slot of the product holds a convolution entry, at most len(b)·(p-1)².
    tc = _slot_typecode(len(b) * (p - 1) * (p - 1))
    return _unpack(_pack(a, tc) * _pack(b, tc), len(a) + len(b) - 1, p, tc)


def _divmod_tuples(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    la, lb = len(a), len(b)
    if la < lb:
        return (), a
    inv_lead = inv_mod(b[-1], p)
    r = list(a)
    q = [0] * (la - lb + 1)
    for i in range(la - lb, -1, -1):
        c = r[i + lb - 1] % p
        if c:
            c = c * inv_lead % p
            q[i] = c
            for j in range(lb):
                r[i + j] -= c * b[j]
    return _trim(q), _trim([c % p for c in r[: lb - 1]])


def _gcd_tuples(a, b, p):
    while b:
        a, b = b, _divmod_tuples(a, b, p)[1]
    if a:
        inv_lead = inv_mod(a[-1], p)
        a = tuple(c * inv_lead % p for c in a)
    return a


class FpPoly:
    """Dense polynomial over F_p, lowest-degree coefficient first."""

    __slots__ = ("coeffs", "p", "var", "_hash")

    def __init__(self, coeffs, p, var="a"):
        check_odd_prime(p)
        object.__setattr__(self, "coeffs", _trim([int(c) % p for c in coeffs]))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("FpPoly is immutable")

    @classmethod
    def _raw(cls, coeffs, p, var):
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "var", var)
        return self

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, p, var="a"):
        return cls._raw((), p, var)

    @classmethod
    def one(cls, p, var="a"):
        return cls._raw((1,), p, var)

    @classmethod
    def const(cls, c, p, var="a"):
        return cls((c,), p, var)

    @classmethod
    def x(cls, p, var="a"):
        return cls._raw((0, 1), p, var)

    @classmethod
    def monomial(cls, c, e, p, var="a"):
        if e < 0:
            raise ValueError("negative exponent")
        c = int(c) % p
        if c == 0:
            return cls.zero(p, var)
        return cls._raw((0,) * e + (c,), p, var)

    # -- structure ------------------------------------------------------------

    @property
    def degree(self):
        """Degree, with deg 0 = -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_one(self):
        return self.coeffs == (1,)

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self):
        if self.is_zero or self.lead == 1:
            return self
        inv_lead = inv_mod(self.lead, self.p)
        return FpPoly._raw(
            tuple(c * inv_lead % self.p for c in self.coeffs), self.p, self.var
        )

    # -- arithmetic -----------------------------------------------------------

    def _other_coeffs(self, other):
        if isinstance(other, FpPoly):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} and {other.p}")
            return other.coeffs
        if isinstance(other, int):
            v = other % self.p
            return (v,) if v else ()
        return None

    def __add__(self, other):
        oc = self._other_coeffs(other)
        if oc is None:
            return NotImplemented
        a, b, p = self.coeffs, oc, self.p
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return FpPoly._raw(_trim(out), p, self.var)

    __radd__ = __add__

    def __sub__(self, other):
        oc = self._other_coeffs(other)
        if oc is None:
            return NotImplemented
        p = self.p
        n = max(len(self.coeffs), len(oc))
        out = [
            ((self.coeffs[i] if i < len(self.coeffs) else 0)
             - (oc[i] if i < len(oc) else 0)) % p
            for i in range(n)
        ]
        return FpPoly._raw(_trim(out), p, self.var)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        p = self.p
        return FpPoly._raw(tuple(-c % p for c in self.coeffs), p, self.var)

    def __mul__(self, other):
        oc = self._other_coeffs(other)
        if oc is None:
            return NotImplemented
        return FpPoly._raw(_mul_tuples(self.coeffs, oc, self.p), self.p, self.var)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = FpPoly.one(self.p, self.var)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __divmod__(self, other):
        oc = self._other_coeffs(other)
        if oc is None:
            return NotImplemented
        q, r = _divmod_tuples(self.coeffs, oc, self.p)
        return (FpPoly._raw(q, self.p, self.var), FpPoly._raw(r, self.p, self.var))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def gcd(self, other):
        """Monic greatest common divisor."""
        oc = self._other_coeffs(other)
        if oc is None:
            raise TypeError("gcd with incompatible operand")
        return FpPoly._raw(_gcd_tuples(self.coeffs, oc, self.p), self.p, self.var)

    # -- evaluation and substitution -------------------------------------------

    def eval_int(self, a: int) -> int:
        p = self.p
        a %= p
        out = 0
        for c in reversed(self.coeffs):
            out = (out * a + c) % p
        return out

    def compose(self, g: "FpPoly") -> "FpPoly":
        """Substitution self(g) by Horner."""
        if not self.coeffs:
            return FpPoly.zero(self.p, g.var)
        out = FpPoly.const(self.coeffs[-1], self.p, g.var)
        for c in reversed(self.coeffs[:-1]):
            out = out * g + c
        return out

    def subs_scale(self, h: int) -> "FpPoly":
        """Substitute var -> h*var (an automorphism for h != 0)."""
        p = self.p
        h %= p
        out, hk = [], 1
        for c in self.coeffs:
            out.append(c * hk % p)
            hk = hk * h % p
        return FpPoly._raw(_trim(out), p, self.var)

    def frobenius_p(self) -> "FpPoly":
        """The p-th power: coefficients spread to exponents p*i."""
        if self.is_zero:
            return self
        p = self.p
        out = [0] * (p * (len(self.coeffs) - 1) + 1)
        for i, c in enumerate(self.coeffs):
            out[p * i] = c
        return FpPoly._raw(_trim(out), p, self.var)

    # -- comparison and rendering ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FpPoly):
            return self.p == other.p and self.coeffs == other.coeffs
        if isinstance(other, int):
            oc = self._other_coeffs(other)
            return self.coeffs == oc
        return NotImplemented

    def __hash__(self):
        # cached: lru_cache keys hold long polynomials and hash on every read
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.coeffs, self.p)))
            return self._hash

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append(self.var if c == 1 else f"{c}*{self.var}")
            else:
                head = "" if c == 1 else f"{c}*"
                terms.append(f"{head}{self.var}^{e}")
        return " + ".join(terms)

    def __repr__(self):
        return f"FpPoly({self}, p={self.p})"


def roots_and_split(f: FpPoly):
    """Split f into linear factors over F_p.

    Returns (leading coefficient, {root: multiplicity}).  Raises NonSplitError
    if a factor of degree > 1 without roots in F_p remains; for the b-family
    such a remainder would witness a violated identity.
    """
    if f.is_zero:
        raise ValueError("cannot split the zero polynomial")
    g = f.monic().coeffs
    p = f.p
    roots: dict[int, int] = {}
    for a in range(p):
        while len(g) > 1:
            # synthetic division by (var - a); its remainder is g(a), and the
            # quotient of a monic g is monic, so needs no trimming
            q = [0] * (len(g) - 1)
            acc = 0
            for i in range(len(g) - 1, 0, -1):
                acc = (acc * a + g[i]) % p
                q[i - 1] = acc
            if (acc * a + g[0]) % p:
                break
            g = q
            roots[a] = roots.get(a, 0) + 1
    if len(g) > 1:
        raise NonSplitError(FpPoly._raw(tuple(g), p, f.var))
    return f.lead, roots


@per_prime
def _power_rows(p):
    """Row t holds t^0, ..., t^(p-1) mod p, for each t in F_p."""
    return tuple(tuple(pow(t, k, p) for k in range(p)) for t in range(p))


@per_prime
def _lagrange_columns(p):
    """Entry [k][t]: coefficient of var^k in the Lagrange basis polynomial of t.

    Over F_p that polynomial is 1 - (var - t)^(p-1), since (u)^(p-1) is 1 for
    u != 0 and 0 for u = 0; with C(p-1, k) = (-1)^k mod p its coefficient of
    var^k is [k == 0] - t^(p-1-k).
    """
    return tuple(
        tuple(((k == 0) - pow(t, p - 1 - k, p)) % p for t in range(p))
        for k in range(p)
    )


def values(f: FpPoly):
    """[f(0), ..., f(p-1)], the value vector of f on F_p.

    As functions on F_p, var^k = var^(k - (p-1)) for k >= p, so higher
    coefficients fold down first; values never tell f from f + (var^p - var).
    """
    p = f.p
    coeffs = list(f.coeffs[:p])
    for k in range(p, len(f.coeffs)):
        coeffs[(k - 1) % (p - 1) + 1] += f.coeffs[k]
    return [sum(map(operator.mul, coeffs, row)) % p for row in _power_rows(p)]


def interpolate(vals, p) -> FpPoly:
    """The unique polynomial of degree at most p-1 with the given value vector
    [f(0), ..., f(p-1)], by the Lagrange basis of ``_lagrange_columns``."""
    vals = list(vals)
    if len(vals) != p:
        raise ValueError(f"need {p} values, got {len(vals)}")
    coeffs = [sum(map(operator.mul, vals, col)) % p for col in _lagrange_columns(p)]
    return FpPoly._raw(_trim(coeffs), p, "a")


class RatFn:
    """A reduced fraction of two FpPoly values.

    Canonical form: monic nonzero denominator, gcd(num, den) = 1, and the
    zero fraction is 0/1.  Construction canonicalizes; a cheap exact-division
    probe runs before the full gcd because results in this package are very
    often polynomials in disguise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            raise TypeError("RatFn numerator must be an FpPoly; use RatFn.const")
        p = num.p
        if den is None:
            den = FpPoly.one(p, num.var)
        elif isinstance(den, int):
            den = FpPoly.const(den, p, num.var)
        if den.p != p:
            raise ValueError(f"mixed moduli: {p} and {den.p}")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = self._canonical(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFn is immutable")

    @staticmethod
    def _canonical(num, den):
        p = num.p
        if num.is_zero:
            return FpPoly.zero(p, num.var), FpPoly.one(p, num.var)
        if den.degree == 0:
            s = inv_mod(den.lead, p)
            return num * s, FpPoly.one(p, num.var)
        if num.degree >= den.degree:
            q, r = divmod(num, den)
            if r.is_zero:
                return q, FpPoly.one(p, num.var)
            g = den.gcd(r)
        else:
            g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
        if den.lead != 1:
            s = inv_mod(den.lead, p)
            num = num * s
            den = den * s
        return num, den

    @classmethod
    def _raw(cls, num, den):
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def from_poly(cls, f: FpPoly):
        return cls._raw(f, FpPoly.one(f.p, f.var))

    @classmethod
    def const(cls, c, p, var="a"):
        return cls.from_poly(FpPoly.const(c, p, var))

    @classmethod
    def zero(cls, p, var="a"):
        return cls._raw(FpPoly.zero(p, var), FpPoly.one(p, var))

    @property
    def p(self):
        return self.num.p

    @property
    def var(self):
        return self.num.var

    @property
    def is_zero(self):
        return self.num.is_zero

    def as_poly(self) -> FpPoly:
        if not self.den.is_one:
            raise ValueError(f"not a polynomial: {self}")
        return self.num

    def _coerce(self, other):
        if isinstance(other, RatFn):
            if other.p != self.p:
                raise ValueError(f"mixed moduli: {self.p} and {other.p}")
            return other
        if isinstance(other, FpPoly):
            return RatFn.from_poly(other)
        if isinstance(other, int):
            return RatFn.const(other, self.p, self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one and o.den.is_one:
            return RatFn._raw(self.num + o.num, self.den)
        return RatFn(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one and o.den.is_one:
            return RatFn._raw(self.num - o.num, self.den)
        return RatFn(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one and o.den.is_one:
            return RatFn._raw(self.num * o.num, self.den)
        return RatFn(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __neg__(self):
        return RatFn._raw(-self.num, self.den)

    def __pow__(self, e: int):
        # num and den stay coprime under powering; den stays monic; a
        # negative e raises ValueError in FpPoly.__pow__
        return RatFn._raw(self.num ** e, self.den ** e)

    def eval(self, a) -> int:
        """Evaluate at a point of F_p; raises PoleError at a denominator root."""
        a = int(a)
        dv = self.den.eval_int(a)
        if dv == 0:
            raise PoleError(a % self.p)
        return self.num.eval_int(a) * inv_mod(dv, self.p) % self.p

    def __eq__(self, other):
        if isinstance(other, RatFn):
            return (
                self.p == other.p
                and self.num == other.num
                and self.den == other.den
            )
        if isinstance(other, (FpPoly, int)):
            try:
                o = self._coerce(other)
            except ValueError:
                return False
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero

    def __str__(self):
        if self.den.is_one:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFn({self}, p={self.p})"
