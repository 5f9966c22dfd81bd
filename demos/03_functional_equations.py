"""Functional equations: the truncated log's symmetries and their G-versions.

The truncated logarithm satisfies reflection identities with no classical
analogue; two of them extend to the parametrized G.  This script states each
equation and lets the checker battery confirm it exactly.
"""

from trunclog import (
    TheoremId,
    finite_polylog,
    glog,
    laguerre_const,
    reciprocal_rhs,
    verify_theorem,
)
from trunclog.polys import FpPoly

p = 7

l1 = finite_polylog(p, 1)
print(f"p = {p}")
print(f"polylog_1(X) = {l1}")
print(f"  shift:      polylog_1(1-X) == polylog_1(X)   -> "
      f"{l1.compose(FpPoly([1, -1], p, 'X')) == l1}")

for tid in (
    TheoremId.PolylogWilson,
    TheoremId.SixSymmetries,
    TheoremId.FourTerm,
    TheoremId.Reciprocal,
    TheoremId.PowersFunctional,
    TheoremId.PowersHEqualsPMinus1,
):
    r = verify_theorem(p, tid)
    print(f"  {tid.value:22s} {r.status} ({r.cases_checked} cases)")

# the reciprocal equation in explicit form:
#   laguerre_const * G(X) == -X^p * G_at_minus_a((1 - a^(p-1)) / X)
lc = laguerre_const(p)
lhs = [c * lc for c in glog(p).as_xpoly().coeffs]
rhs = list(reciprocal_rhs(p).coeffs)
print()
print(f"reciprocal equation holds coefficient-wise: {lhs == rhs}")
