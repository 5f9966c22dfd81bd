"""Prime-field scalars, a quadratic extension field, and binomials mod p.

An element of F_p is a plain int in [0, p), the modulus a runtime argument:
one build serves every odd prime, with primality checked by trial division
on each call, with no cache (desk-scale p).  ``ext_quadratic(p)`` constructs
F_{p^2} as F_p[t]/(t^2 - n) with n the smallest quadratic non-residue mod p;
any irreducible quadratic would do, this choice makes outputs reproducible.
``binom_lucas`` is the integer binomial mod p; binomials of a polynomial
argument are built in ``special`` (``binomials_of``).

All values are immutable and all operations are pure functions, so everything
here is safe to share between threads without synchronization.
"""

from __future__ import annotations

import functools


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def check_odd_prime(p) -> int:
    """Return p if it is an odd prime, raise ValueError otherwise."""
    if not isinstance(p, int) or isinstance(p, bool) or p < 3 or not _is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p!r}")
    return p


per_prime_clears = []  # the clear of every per-prime cache
_prime = None  # the prime whose objects they hold


def switch_prime(p) -> None:
    """Check p, then empty the per-prime caches unless they hold p's objects."""
    global _prime
    if p != _prime or type(p) is not int:  # 7.0 == 7, but is no prime
        check_odd_prime(p)
        if p != _prime:
            for clear in per_prime_clears:
                clear()
            _prime = p


def per_prime(fn):
    """``lru_cache(maxsize=None)`` for fn(p, ...) under the package's one cache
    rule: every cache keyed by a prime holds one prime's objects.  p goes
    through ``switch_prime`` before the lookup counts a hit or a miss."""
    cached = functools.lru_cache(maxsize=None)(fn)
    per_prime_clears.append(cached.cache_clear)

    @functools.wraps(fn)
    def lookup(p, *args, **kwargs):
        switch_prime(p)
        return cached(p, *args, **kwargs)

    lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
    return lookup


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo p via extended Euclid (deterministic)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 is not invertible modulo {p}")
    r0, r1, s0, s1 = p, a, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    return s0 % p


@per_prime
def _factorials(p: int):
    """(k!, (k!)^-1) tables for 0 <= k < p."""
    fact = [1] * p
    for k in range(1, p):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [inv_mod(f, p) for f in fact]
    return tuple(fact), tuple(inv_fact)


def binom_lucas(n: int, k: int, p: int) -> int:
    """C(n, k) mod p computed digit-wise in base p.

    Equals the factorial formula for n < p; for larger n each base-p digit
    pair contributes an ordinary small binomial.
    """
    check_odd_prime(p)
    if n < 0 or k < 0:
        raise ValueError("binom_lucas requires n, k >= 0")
    fact, inv_fact = _factorials(p)
    out = 1
    while n or k:
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = out * fact[nd] * inv_fact[kd] * inv_fact[nd - kd] % p
        n //= p
        k //= p
    return out


class Ext2Field:
    """Descriptor for F_{p^2} with arithmetic on raw (c0, c1) int pairs."""

    __slots__ = ("p", "nonres")

    def __init__(self, p: int, nonres: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nonres", nonres)

    def __setattr__(self, name, value):
        raise AttributeError("Ext2Field is immutable")

    # -- raw tuple arithmetic ------------------------------------------------

    def add_raw(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def sub_raw(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def mul_raw(self, a, b):
        p, n = self.p, self.nonres
        a0, a1 = a
        b0, b1 = b
        return ((a0 * b0 + n * a1 * b1) % p, (a0 * b1 + a1 * b0) % p)

    def inv_raw(self, a):
        p, n = self.p, self.nonres
        a0, a1 = a
        norm = (a0 * a0 - n * a1 * a1) % p
        d = inv_mod(norm, p)
        return (a0 * d % p, -a1 * d % p)

    def pow_raw(self, a, e: int):
        if e < 0:
            a, e = self.inv_raw(a), -e
        out = (1, 0)
        base = a
        while e:
            if e & 1:
                out = self.mul_raw(out, base)
            base = self.mul_raw(base, base)
            e >>= 1
        return out

    def frobenius_raw(self, a):
        """x -> x^p, the order-2 automorphism fixing exactly F_p."""
        # t^p = -t since the non-residue n satisfies n^((p-1)/2) = -1.
        return (a[0], -a[1] % self.p)

    def __eq__(self, other):
        if isinstance(other, Ext2Field):
            return self.p == other.p and self.nonres == other.nonres
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.nonres))

    def __repr__(self):
        return f"Ext2Field(p={self.p}, t^2 = {self.nonres})"


@per_prime
def ext_quadratic(p: int) -> Ext2Field:
    """F_{p^2} as F_p[t]/(t^2 - n), n the smallest quadratic non-residue."""
    check_odd_prime(p)
    squares = {x * x % p for x in range(p)}
    nonres = next(n for n in range(2, p) if n not in squares)
    # Degree 2, so irreducible over F_p iff it has no root there.
    assert all((x * x - nonres) % p != 0 for x in range(p))
    return Ext2Field(p, nonres)
