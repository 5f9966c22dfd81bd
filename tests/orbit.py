"""Mutations of what the orbit checkers read, shared by the tests.

The orbit checkers are TruncBinomialRules, JacobiLink, JacobiShift and
BAltAgreement: each computes row r = 1 and counts a case (r, s) with r != 1
as an image of a row-1 case.  Each mutation maps names that
``trunclog.verify`` reads at call time to a wrapper of the original.  Most
break a case off row 1 or an object that row 1 never reads; the two b[2,2]
mutations break the build identity b[2,2] = b[1,1](2a) that JacobiLink and
BAltAgreement test before they count (2, 2).  ``test_verify.py`` holds each
checker to its direct loop under every mutation; ``test_golden.py`` pins the
reports byte for byte.
"""

from trunclog.polys import FpPoly
from trunclog.quotient import XPoly

import g_side

ORBIT = ("TruncBinomialRules", "JacobiLink", "JacobiShift", "BAltAgreement")


def _series_bumped(slope, offset):
    # the X coefficient of trunc_binomial(slope*a + offset) plus 1
    def wrap(orig):
        def trunc_binomial(f, b=1, p=None):
            x = orig(f, b, p)
            if f != FpPoly([offset, slope], f.p):
                return x
            return XPoly([x.coeffs[0], x.coeffs[1] + 1, *x.coeffs[2:]], f.p)

        return trunc_binomial

    return wrap


def _ptjp_bumped(r0, s0):
    # p*P_p(r0*a, s0*a; x) plus 1, at every x
    def wrap(orig):
        def p_times_jacobi_p(p, A, B, x):
            out = orig(p, A, B, x)
            if (A, B) == (FpPoly([0, r0], p), FpPoly([0, s0], p)):
                return out + 1
            return out

        return p_times_jacobi_p

    return wrap


def _b_changed(r0, s0, change):
    def wrap(orig):
        def b_rs(p, r, s):
            b = orig(p, r, s)
            return change(b, p) if (r, s) == (r0, s0) else b

        return b_rs

    return wrap


def _table_bumped(orig):
    def _binomial_table(p):
        rows = [list(row) for row in orig(p)]
        rows[2][1] = (rows[2][1] + 1) % p
        return tuple(tuple(row) for row in rows)

    return _binomial_table


# name: {name in trunclog.verify: wrapper of the original}
MUTATIONS = {
    "none": {},
    # wants[1], read first at (2, p-1) and never by a row-1 product
    "(1+X)^(a-2) twin": {"trunc_binomial": _series_bumped(1, -2)},
    "(1+X)^(2a-1) twin": {"trunc_binomial": _series_bumped(2, -1)},
    "p*P_p at (2,2) + 1": {"p_times_jacobi_p": _ptjp_bumped(2, 2)},
    "b[2,2] + 1": {"b_rs": _b_changed(2, 2, lambda b, p: b + 1)},
    "b[2,2] + a^p - a": {"b_rs": _b_changed(
        2, 2, lambda b, p: b + FpPoly.monomial(1, p, p) - FpPoly.x(p))},
    "binomial table bumped": {"_binomial_table": _table_bumped},
}


def apply(monkeypatch, name):
    """Patch trunclog.verify with the named mutation."""
    g_side.apply(monkeypatch, name, MUTATIONS)


def golden_text(primes=(5, 7)):
    """The orbit checkers' reports under every mutation, as the golden file
    holds them."""
    return g_side.golden_text(primes, MUTATIONS, ORBIT)
