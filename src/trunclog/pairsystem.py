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
column slot holds at most (1+n)(p-1)^2.  The masks live in a per-call ``Layout``.

The X^(p-1) block, j = p-1, is triangular.  No row index wraps there, and
g2[p-1-i][m+i mod p] is nonzero only for m = 0 or i >= p-m: row (p-1, 0)
holds cg[p-1] in column 0, and row (p-1, m), m >= 1, is 0 left of column
p-m and holds C(m-1, m-1) cg[m-1] = cg[m-1] there.  Each cg[k] is a falling
factorial -(alpha+beta-1)_(p-1-k), nonzero since the pair stream keeps
alpha + beta outside F_p*.  So ``pair_rows`` yields just that block in
lead-column order, row (p-1, 0) and then m from p-1 down to 1, and
``solve_pair`` back-substitutes it.  Its rank p is the rank of the whole
system, so a solution is unique.  ``substitutes`` checks all p^2 equations
at once: every slot of the packed sum_i c_i C_i minus the right side must
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
    """The p rows of the triangular block j = p-1, reduced, in lead-column
    order: row (p-1, 0) first, then (p-1, m) for m from p-1 down to 1."""
    shift = (p - 1) * p * 8 * array(tc).itemsize
    parts = [[_slots(c >> shift, p, tc) for c in col] for col in cols]
    last = (p - 1) * p
    for m in (0, *reversed(range(1, p))):
        yield [(c0[m] % p, c1[m] % p) for c0, c1 in parts] + [rhs[last + m]]


def solve_pair(field, rows, ncols):
    """Back substitution on ncols rows of ncols + 1 reduced pairs, the last
    the right side: the solution, or None unless row k is 0 left of column k
    and nonzero at column k.  Any other row count raises ValueError.

    A triangular block with a nonzero diagonal has full rank, so the
    solution is unique.  The other equations are not checked here; the
    caller's substitution pass checks every one.
    """
    rows = list(rows)
    if len(rows) != ncols:
        raise ValueError(f"expected {ncols} rows, got {len(rows)}")
    p, n = field.p, field.nonres
    zero = (0, 0)
    sol = [zero] * ncols
    for k in reversed(range(ncols)):
        r = rows[k]
        if r[k] == zero or r[:k].count(zero) != k:
            return None
        acc0, acc1 = r[ncols]
        for (x0, x1), (y0, y1) in zip(r[k + 1 : ncols], sol[k + 1 :]):
            acc0 -= x0 * y0 + n * x1 * y1
            acc1 -= x0 * y1 + x1 * y0
        i0, i1 = field.inv_raw(r[k])
        sol[k] = ((acc0 * i0 + n * acc1 * i1) % p, (acc0 * i1 + acc1 * i0) % p)
    return sol


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
