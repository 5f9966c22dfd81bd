"""The linear systems of the CCoefficients check over F_{p^2}, on packed ints.

For a pair (alpha, beta) the product coefficients c_0..c_{p-1} satisfy the
paper's weak analogue of exp(X) exp(Y) = exp(X + Y),

    L_alpha(X) L_beta(Y) = (c_0 + sum_{i>=1} c_i X^i Y^(p-i)) L_{alpha+beta}(X+Y)

in F_{p^2}[X, Y]/(X^p - u, Y^p - v), u = alpha^p - alpha, v = beta^p - beta.
With ca, cb, cg the coefficients of L at alpha, beta and alpha + beta, its
coefficient of X^j Y^m is equation (j, m), in row j*p + m:

    sum_i C_i[j][m] c_i = ca[j] cb[m].

Column 0 is L_{alpha+beta}(X+Y) itself, g2[j][m] = C(j+m, j) cg[j+m] (0 for
j + m >= p), of total degree below p, so nothing reduces.  Column i >= 1 is
X^i Y^(p-i) g2: the term X^j' Y^m' lands on X^(j'+i) Y^(m'+p-i), so
C_i[j][m] = g2[j-i][m+i] (indices mod p), times u when the X exponent
reaches p (j < i) and times v when the Y exponent does (m + i < p).

Each column is two packed ints, the c0 parts and the c1 parts, entry (j, m)
in slot j*p + m (Kronecker packing, as in ``quotient.grid_mulmod``).  Per
pair the four scaled copies of g2 are formed once, and column i is one
shifted piece of each, cut out by a quadrant mask: the block mask (rows
j < i) times the in-block mask (columns m + i < p).  A scale (s0, s1) maps
parts (x0, x1) to (s0 x0 + n s1 x1, s1 x0 + s0 x1), n s1 unreduced, so a
column slot holds at most (1+n)(p-1)^2.  The right side is one outer
product per part: with ca packed at slot stride p and cb densely, slot
j*p + m of their product is ca[j] cb[m] and nothing overlaps, so the right
side is (a0 b0 + n a1 b1, a0 b1 + a1 b0), its slots at most (1+n)(p-1)^2
too.  The masks live in a per-call ``Layout``.

The X^(p-1) block, j = p-1, is triangular.  No row index wraps there, and
g2[p-1-i][m+i mod p] is nonzero only for m = 0 or i >= p-m: row (p-1, 0)
holds cg[p-1] in column 0, and row (p-1, m), m >= 1, is 0 left of column
p-m and holds C(m-1, m-1) cg[m-1] = cg[m-1] there.  Each cg[k] is a falling
factorial -(alpha+beta-1)_(p-1-k), nonzero since the pair stream keeps
alpha + beta outside F_p*.  So ``solve_pair`` shifts the columns and the
right side down to that block, p slots each, and back-substitutes it from
column p-1 (lead in slot 1) down to column 0 (lead in slot 0): column k
must vanish mod p in slots 1..p-k-1, the rows whose lead lies right of
it, and not in its lead slot, and sol[k] is that slot of the right side
less the p-slot accumulator of sum_{c>k} sol[c] col_c, over the lead.
Its rank p is the rank of the whole system, so a solution is unique.

``substitutes`` checks all p^2 equations at once.  It forms

    acc = pad - rhs + sum_i c_i C_i,

pad holding in every slot the least multiple of p that is at least
(1+n)(p-1)^2, so no slot goes negative, and every slot of acc must vanish
mod p.  With q, r = divmod(acc, p) that is r == 0 and q & high == 0, where
high masks the bits at or above b = (slot_bound // p).bit_length() in every
slot.  Sound: if every slot of acc is below 2^w, q & high == 0 makes
sum_k (p q_k) 2^(wk) a second base-2^w expansion of acc, since each
p q_k <= p (2^b - 1) < 2^w; expansions are unique, so every slot is p q_k.
Complete: a slot that is p q_k <= slot_bound has q_k < 2^b.  The same test,
on p slots, decides the triangular shape in ``solve_pair``.  Every slot
stays at most ``slot_bound``; ``Layout.build`` picks the narrowest slot
width w that holds it and p (2^b - 1), and past 8 bytes raises
OverflowError before any table is built.

Nothing here reads ``special``, ``bpoly`` or ``glog``: ``lag_coeffs_at`` is
an independent route to the coefficients of L.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from .polys import _pack, _slot_typecode


def lag_coeffs_at(field, at):
    """Coefficients of the exponential analogue with the parameter specialized.

    An intended independent route to L's coefficients over F_{p^2}: it forms
    the falling factorials -(at - 1)_(p-1-k) on int pairs and never reads
    ``special``, so a defect in ``laguerre_pm1`` cannot carry over into this
    system.
    """
    p, n = field.p, field.nonres
    b0, b1 = (at[0] - 1) % p, at[1] % p
    f0, f1 = 1, 0
    ff = [(1, 0)]
    for m in range(p - 1):
        x0 = b0 - m
        f0, f1 = (f0 * x0 + n * f1 * b1) % p, (f0 * b1 + f1 * x0) % p
        ff.append((f0, f1))
    return [(-f0 % p, -f1 % p) for f0, f1 in reversed(ff)]


def _pad(p, n):
    """The least multiple of p that is at least (1+n)(p-1)^2."""
    return -(-(1 + n) * (p - 1) ** 2 // p) * p


def slot_bound(p, n):
    """The largest slot value the packed kernel can form.

    Column and right-side slots are at most (1+n)(p-1)^2.  The substitution
    sum adds p products c_i C_i, each slot at most (1+n)^2 (p-1)^3, to the
    pad less the right side, which bounds the solve's accumulator too.
    """
    return p * (1 + n) ** 2 * (p - 1) ** 3 + _pad(p, n)


def _vanishes(x, p, high):
    """Whether every slot of x is divisible by p: exact when no slot of x is
    negative or above ``slot_bound`` and high masks the bits at or above b
    in every slot (see the module docstring)."""
    q, r = divmod(x, p)
    return not r and not q & high


class Layout(NamedTuple):
    """The pair-independent tables of the kernel at one prime.

    ``binoms`` lists slot k = j*p + m of g2 as (j+m, C(j+m, j) mod p), or
    (0, 0) when j + m >= p.  Column i takes slot (j, m) from slot
    (j-i mod p, m+i mod p) of g2, which lies t = i(p-1) slots lower, t + p
    when the column index wraps (m + i >= p), and p^2 fewer when the row
    index wraps (j < i).  So ``pieces[i-1]`` lists, for the (uv, v, u, 1)
    copies of g2 in turn, a right, left, right and left shift in bits, each
    followed by its quadrant's mask.  ``pad`` holds ``_pad`` in every slot
    and ``high`` the bits at or above b = (slot_bound // p).bit_length() in
    every slot.  ``leads[k]`` is, in the last block, the bit shift of column
    k's lead slot (0 for k = 0, p - k otherwise) and the mask of slots
    1..p-k-1.
    """

    typecode: str
    binoms: list
    pieces: list
    pad: int
    high: int
    leads: list

    @classmethod
    def build(cls, field):
        p, n = field.p, field.nonres
        bound = slot_bound(p, n)
        b = (bound // p).bit_length()
        tc = _slot_typecode(max(bound, p * ((1 << b) - 1)))
        w = 8 * array(tc).itemsize
        binoms = [
            (j + m, math.comb(j + m, j) % p) if j + m < p else (0, 0)
            for j in range(p)
            for m in range(p)
        ]
        row = (1 << p * w) - 1
        every_row = sum(1 << j * p * w for j in range(p))
        pieces = []
        for i in range(1, p):
            inner = ((1 << (p - i) * w) - 1) * every_row  # m + i < p
            outer = (row * every_row) ^ inner
            low = (1 << i * p * w) - 1  # j < i
            t = i * (p - 1)
            pieces.append((
                (p * p - t) * w, inner & low,
                t * w, inner ^ (inner & low),
                (p * p - p - t) * w, outer & low,
                (t + p) * w, outer ^ (outer & low),
            ))
        every_slot = row * every_row // ((1 << w) - 1)
        leads = [
            ((p - k) % p * w, ((1 << (p - k - 1) * w) - 1) << w) for k in range(p)
        ]
        return cls(
            tc, binoms, pieces, _pad(p, n) * every_slot,
            ((1 << w) - (1 << b)) * every_slot, leads,
        )


def _strided(values, stride, tc):
    """values[j] packed in slot j*stride, the other slots 0."""
    slots = array(tc, [0]) * (len(values) * stride)
    slots[::stride] = array(tc, values)
    return _pack(slots, tc)


def pair_columns(field, at, bt, layout):
    """The pair system: p packed columns (c0 part, c1 part) and the right
    side (c0 part, c1 part), every slot unreduced."""
    p, n = field.p, field.nonres
    tc = layout.typecode
    u = field.sub_raw(field.frobenius_raw(at), at)
    v = field.sub_raw(field.frobenius_raw(bt), bt)
    cg = lag_coeffs_at(field, field.add_raw(at, bt))
    g0 = _pack([cg[k][0] * s % p for k, s in layout.binoms], tc)
    g1 = _pack([cg[k][1] * s % p for k, s in layout.binoms], tc)
    uv0, uv1, v0, v1, u0, u1 = (
        part
        for s0, s1 in (field.mul_raw(u, v), v, u)
        for part in (s0 * g0 + n * s1 * g1, s1 * g0 + s0 * g1)
    )
    cols = [(g0, g1)]
    for ruv, muv, lv, mv, ru, mu, l1, m1 in layout.pieces:
        cols.append(tuple(
            ((xuv >> ruv) & muv) | ((xv << lv) & mv) | ((xu >> ru) & mu) | ((x << l1) & m1)
            for xuv, xv, xu, x in ((uv0, v0, u0, g0), (uv1, v1, u1, g1))
        ))
    ca = lag_coeffs_at(field, at)
    cb = lag_coeffs_at(field, bt)
    a0, a1 = (_strided(part, p, tc) for part in zip(*ca))
    b0, b1 = (_pack(part, tc) for part in zip(*cb))
    return cols, (a0 * b0 + n * a1 * b1, a0 * b1 + a1 * b0)


def solve_pair(field, cols, rhs, layout):
    """Back substitution on the last block, the top p slots of the columns
    and the right side: the solution, or None unless every column k is 0 mod
    p in the rows whose lead lies right of it and nonzero at its own lead.

    A triangular block with a nonzero diagonal has full rank, so the
    solution is unique.  The other equations are not checked here; the
    caller's substitution pass checks every one.
    """
    p, n, high = field.p, field.nonres, layout.high
    w = 8 * array(layout.typecode).itemsize
    top, slot = (p - 1) * p * w, (1 << w) - 1
    r0, r1 = rhs[0] >> top, rhs[1] >> top
    acc0 = acc1 = 0
    sol = [None] * p
    for k in reversed(range(p)):
        shift, below = layout.leads[k]
        c0, c1 = cols[k][0] >> top, cols[k][1] >> top
        if not (_vanishes(c0 & below, p, high) and _vanishes(c1 & below, p, high)):
            return None
        lead = ((c0 >> shift) & slot) % p, ((c1 >> shift) & slot) % p
        if lead == (0, 0):
            return None
        x0 = ((r0 >> shift) & slot) - ((acc0 >> shift) & slot)
        x1 = ((r1 >> shift) & slot) - ((acc1 >> shift) & slot)
        i0, i1 = field.inv_raw(lead)
        s0, s1 = sol[k] = (x0 * i0 + n * x1 * i1) % p, (x0 * i1 + x1 * i0) % p
        acc0 += s0 * c0 + n * s1 * c1
        acc1 += s1 * c0 + s0 * c1
    return sol


def substitutes(field, cols, rhs, sol, layout):
    """Whether sol satisfies all p^2 equations: every slot of the pad less
    the right side plus the packed sum of c_i C_i vanishes mod p."""
    p, n, high = field.p, field.nonres, layout.high
    acc0, acc1 = layout.pad - rhs[0], layout.pad - rhs[1]
    for (c0, c1), (s0, s1) in zip(cols, sol):
        acc0 += s0 * c0 + n * s1 * c1
        acc1 += s1 * c0 + s0 * c1
    return _vanishes(acc0, p, high) and _vanishes(acc1, p, high)
