"""Exact characteristic-p arithmetic for truncated exponentials and logarithms.

The package builds, over any odd prime p chosen at runtime:

  * F_p arithmetic on plain ints, and F_{p^2} on int pairs   (``fields``);
  * dense polynomials over F_p and reduced rational functions (``polys``);
  * the quotient arena F_p(a)[X] mod X^p - c              (``quotient``);
  * the parametric exponential analogue, truncated exponential, finite
    polylogarithms and truncated binomials                  (``special``);
  * the two-index b-family with predicted root sets        (``bpoly``);
  * the generalized truncated logarithm G(X)               (``glog``);
  * specialized Jacobi polynomials mod p                   (``jacobi``);
  * the CCoefficients linear systems over F_{p^2}, packed  (``pairsystem``);
  * an exact checker per identity plus a batch runner      (``verify``).

All arithmetic is exact; every check is an identity of canonical forms.
"""

from .errors import NonSplitError, PoleError, TheoremViolationError
from .fields import (
    Ext2Field,
    binom_lucas,
    check_odd_prime,
    ext_quadratic,
    inv_mod,
)
from .polys import FpPoly, RatFn, roots_and_split
from .quotient import XPoly, compose_mod
from .special import (
    alpha_p_minus_alpha,
    finite_polylog,
    laguerre_const,
    laguerre_pm1,
    laguerre_scaled,
    trunc_binomial,
)
from .bpoly import (
    b_root_lucas,
    b_roots_csv_rows,
    b_roots_predicted,
    b_rs,
    b_rs_alt,
    b_rs_coeff,
    product_all_b,
)
from .glog import (
    GLog,
    glog,
    glog_coeff_normal,
    glog_pole_table,
    glog_specialize,
    reciprocal_rhs,
)
from .jacobi import jacobi_pm1, p_times_jacobi_p
from .verify import (
    TheoremId,
    VerifyReport,
    verify_all,
    verify_c_coefficients,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "Ext2Field",
    "FpPoly",
    "GLog",
    "NonSplitError",
    "PoleError",
    "RatFn",
    "TheoremId",
    "TheoremViolationError",
    "VerifyReport",
    "XPoly",
    "alpha_p_minus_alpha",
    "b_root_lucas",
    "b_roots_csv_rows",
    "b_roots_predicted",
    "b_rs",
    "b_rs_alt",
    "b_rs_coeff",
    "binom_lucas",
    "check_odd_prime",
    "compose_mod",
    "ext_quadratic",
    "finite_polylog",
    "glog",
    "glog_coeff_normal",
    "glog_pole_table",
    "glog_specialize",
    "inv_mod",
    "jacobi_pm1",
    "laguerre_const",
    "laguerre_pm1",
    "laguerre_scaled",
    "p_times_jacobi_p",
    "product_all_b",
    "reciprocal_rhs",
    "roots_and_split",
    "trunc_binomial",
    "verify_all",
    "verify_c_coefficients",
    "verify_theorem",
]
