"""The linear systems of the CCoefficients check over F_{p^2}, on packed ints.

For a pair (alpha, beta) the product coefficients c_0..c_{p-1} solve p^2
equations over F_{p^2}, equation (j, m) in row j*p + m:

    sum_i C_i[j][m] c_i = ca[j] cb[m],

with ca, cb, cg the coefficients of the exponential analogue at alpha, beta
and alpha + beta.  Column 0 is g2[j][m] = C(j+m, j) cg[j+m] (0 for
j + m >= p).  Column i >= 1 is g2 after a 2-D cyclic rotation, rows moved by
+i and columns by -i, so C_i[j][m] = g2[j-i][m+i] (indices mod p), scaled
by quadrant: uv where j < i and m + i < p, v where only m + i < p, u where
only j < i, 1 elsewhere; u = alpha^p - alpha, v = beta^p - beta.

Each column is two packed ints, the c0 parts and the c1 parts, entry (j, m)
in slot j*p + m (Kronecker packing, as in ``quotient.grid_mulmod``).  Per
pair the four scaled copies of g2 are formed once, and column i is one
shifted piece of each, cut out by a quadrant mask: the block mask (rows
j < i) times the in-block mask (columns m + i < p).  A scale (s0, s1) maps
parts (x0, x1) to (s0 x0 + n s1 x1, s1 x0 + s0 x1), n s1 unreduced, so a
column slot holds at most (1+n)(p-1)^2.  The masks live in a per-call ``Layout``.

``pair_rows`` yields block j = p-1 first and block 0 last, unpacking one
block of p slots at a time, and in each block row m = 0 first, then m from
p-1 down to 1.  Block p-1 is triangular: row (p-1, m) is 0 in columns
i < p-m and holds cg[m-1] in column p-m for m >= 1, cg[p-1] in column 0 for
m = 0.  Each cg[k] is nonzero, alpha + beta being outside F_p*, so each of
the first p rows is 0 in the lead columns of the rows before it:
``solve_pair``, which reduces a row only where it is nonzero in a pivot's
column, reduces none of them and stops at the p-th pivot; earlier blocks are
read if the rank falls short.  ``substitutes`` checks all p^2 equations at
once: every slot of the packed sum_i c_i C_i minus the right side must
vanish mod p.  Packed slots stay nonnegative and at most ``slot_bound``,
which picks the slot width; past 8 bytes ``Layout.build`` raises
OverflowError.

Nothing here reads ``special``, ``bpoly`` or ``glog``: ``lag_coeffs_at`` is
an independent route to the coefficients of L.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple

from .polys import _pack, _slot_typecode, _slots


def lag_coeffs_at(field, at):
    """Coefficients of the exponential analogue with the parameter specialized.

    An intended independent route to L's coefficients over F_{p^2}: it forms
    the falling factorials -(at - 1)_(p-1-k) on raw pairs and never reads
    ``special``, so a defect in ``laguerre_pm1`` cannot carry over into this
    system.
    """
    p = field.p
    base = field.sub_raw(at, (1, 0))
    ff = [(1, 0)]
    for m in range(p - 1):
        ff.append(field.mul_raw(ff[-1], field.sub_raw(base, (m % p, 0))))
    return [field.sub_raw((0, 0), ff[p - 1 - k]) for k in range(p)]


def slot_bound(p, n):
    """The largest slot value the packed kernel can form.

    A column slot is at most (1+n)(p-1)^2.  The substitution sum adds p
    products c_i C_i, each slot at most (1+n)^2 (p-1)^3, to a negated right
    side of at most p, which bounds the column slots too.
    """
    return p * (1 + n) ** 2 * (p - 1) ** 3 + p


class Layout(NamedTuple):
    """The pair-independent tables of the kernel at one prime.

    ``binoms`` lists slot k = j*p + m of g2 as (j+m, C(j+m, j) mod p), or
    (0, 0) when j + m >= p.  Column i takes slot (j, m) from slot
    (j-i mod p, m+i mod p) of g2, which lies t = i(p-1) slots lower, t + p
    when the column index wraps (m + i >= p), and p^2 fewer when the row
    index wraps (j < i).  So ``pieces[i-1]`` lists, for the (uv, v, u, 1)
    copies of g2 in turn, a right, left, right and left shift in bits, each
    followed by its quadrant's mask.  ``p_slots`` holds p in every slot.
    """

    typecode: str
    binoms: list
    pieces: list
    p_slots: int

    @classmethod
    def build(cls, field):
        p = field.p
        tc = _slot_typecode(slot_bound(p, field.nonres))
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
        return cls(tc, binoms, pieces, _pack([p] * (p * p), tc))


def pair_columns(field, at, bt, layout):
    """The pair system: p packed columns (c0 part, c1 part), right side.

    Column slots are unreduced; the right side is the p^2 reduced pairs
    ca[j] cb[m], in row order.
    """
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
    rhs = [
        ((x0 * y0 + n * x1 * y1) % p, (x0 * y1 + x1 * y0) % p)
        for x0, x1 in ca
        for y0, y1 in cb
    ]
    return cols, rhs


def pair_rows(p, cols, rhs, tc):
    """The rows of the pair system, reduced: blocks j from p-1 down to 0, in
    each m = 0 first, then m from p-1 down to 1; a block's p slots are
    unpacked when its first row is read."""
    w = p * 8 * array(tc).itemsize
    for j in reversed(range(p)):
        parts = [[_slots((c >> j * w) & ((1 << w) - 1), p, tc) for c in col] for col in cols]
        for m in (0, *reversed(range(1, p))):
            yield [(c0[m] % p, c1[m] % p) for c0, c1 in parts] + [rhs[j * p + m]]


def solve_pair(field, rows, ncols):
    """Solve the pair system; returns (solution | None, unique).

    The rows are lists of ncols + 1 reduced pairs, the last the right side.
    Forward elimination, one row at a time: the row is reduced against a
    pivot row only where it is nonzero in that pivot's lead column.  A pivot
    row is kept as it reduced, with the inverse of its lead, not scaled to
    lead 1; a row that reduces to zero is dropped, and one that reduces to
    0 = nonzero returns None.

    Reading stops at the ncols-th pivot, before the next row is asked for:
    the solution is then unique if one exists at all.  The rows not read are
    not checked here; the caller's substitution pass, which checks every row
    against the solution, makes the result sound.  Back substitution, last
    pivot first, gives the solution, each free unknown set to 0 and unique
    False when the rank stays below ncols.
    """
    p, n = field.p, field.nonres
    zero = (0, 0)
    basis: list[tuple] = []  # (lead column, reduced row, inverse of its lead)
    for r in rows:
        for lead, b, (i0, i1) in basis:
            x0, x1 = r[lead]
            if x0 or x1:
                f0, f1 = (x0 * i0 + n * x1 * i1) % p, (x0 * i1 + x1 * i0) % p
                r = [
                    ((r0 - f0 * b0 - n * f1 * b1) % p, (r1 - f0 * b1 - f1 * b0) % p)
                    for (r0, r1), (b0, b1) in zip(r, b)
                ]
        lead = next((c for c in range(ncols) if r[c] != zero), None)
        if lead is None:
            if r[ncols] != zero:
                return None, False
            continue
        basis.append((lead, r, field.inv_raw(r[lead])))
        if len(basis) == ncols:
            break
    sol = [zero] * ncols
    for lead, r, (i0, i1) in reversed(basis):
        acc0, acc1 = r[ncols]
        for (x0, x1), (y0, y1) in zip(r, sol):
            acc0 -= x0 * y0 + n * x1 * y1
            acc1 -= x0 * y1 + x1 * y0
        sol[lead] = ((acc0 * i0 + n * acc1 * i1) % p, (acc0 * i1 + acc1 * i0) % p)
    return sol, len(basis) == ncols


def substitutes(field, cols, rhs, sol, layout):
    """Whether sol satisfies all p^2 equations: the packed sum of c_i C_i and
    p minus the right side, every slot reduced mod p."""
    p, n, tc = field.p, field.nonres, layout.typecode
    acc0 = layout.p_slots - _pack([r0 for r0, _ in rhs], tc)
    acc1 = layout.p_slots - _pack([r1 for _, r1 in rhs], tc)
    for (c0, c1), (s0, s1) in zip(cols, sol):
        acc0 += s0 * c0 + n * s1 * c1
        acc1 += s1 * c0 + s0 * c1
    return not any(x % p for acc in (acc0, acc1) for x in _slots(acc, p * p, tc))
