"""One checker per identity, a structured report type, and the batch runner.

Every checker enumerates its statement's full parameter range in a fixed
ascending order and compares both sides in canonical form: pass always means
exact identity, never closeness.  On the first violated case the checker
stops and the report carries a witness with the parameter values and both
sides rendered.  Case counts per checker:

    LeftInverse, RightInverse, Reciprocal, PowersHEqualsPMinus1,
    ProductFormula, LFactorization, PolylogShift, PolylogWilson,
    FourTerm                                  1
    LemmaProduct, BAltAgreement               (p-1)^2
    PowerFormula, PowersFunctional            p-1
    BConjugate, Symmetry, JacobiReflection    p-2
    RootsTheorem, LucasCriterion              (p-2)(p-1)
    SixSymmetries                             6
    TruncBinomialRules                        (p-1)^2 + (p-1)
    JacobiLink, JacobiShift                   (p-1)(p-2)
    CCoefficients                             number of sampled pairs

A few checkers accept keyword overrides (g=, lag=, lag_fn=, b_fn=) so the
test suite can inject single-site mutations and watch the battery trip.

Reports are deterministic apart from elapsed_ms; ``verify_all`` emits them
in the declaration order of ``TheoremId`` regardless of execution schedule.
"""

from __future__ import annotations

import enum
import math
import random
import time
from dataclasses import dataclass

from .bpoly import (
    b_prefix_products,
    b_roots_predicted,
    b_root_lucas,
    b_rs,
    b_rs_alt,
    b_rs_coeff,
    product_all_b,
)
from .errors import NonSplitError, NotApplicable, TheoremViolationError
from .fields import check_odd_prime, ext_quadratic, inv_mod
from .glog import glog, reciprocal_rhs
from .jacobi import jacobi_for_pair, jacobi_pm1, p_times_jacobi_p, jacobi_reflection_check
from .polys import FpPoly, RatFn, roots_and_split
from .quotient import XPoly, compose_mod, grid_mulmod, grid_to_xpoly, xpoly_to_grid
from .special import (
    alpha_p_minus_alpha,
    finite_polylog,
    laguerre_const,
    laguerre_const_routes,
    laguerre_pm1,
    laguerre_scaled,
    trunc_binomial,
    w_poly,
)


class TheoremId(enum.Enum):
    LeftInverse = "LeftInverse"
    RightInverse = "RightInverse"
    LemmaProduct = "LemmaProduct"
    PowerFormula = "PowerFormula"
    BConjugate = "BConjugate"
    RootsTheorem = "RootsTheorem"
    LucasCriterion = "LucasCriterion"
    Symmetry = "Symmetry"
    ProductFormula = "ProductFormula"
    LFactorization = "LFactorization"
    Reciprocal = "Reciprocal"
    PowersFunctional = "PowersFunctional"
    PowersHEqualsPMinus1 = "PowersHEqualsPMinus1"
    PolylogShift = "PolylogShift"
    PolylogWilson = "PolylogWilson"
    SixSymmetries = "SixSymmetries"
    FourTerm = "FourTerm"
    TruncBinomialRules = "TruncBinomialRules"
    BAltAgreement = "BAltAgreement"
    JacobiLink = "JacobiLink"
    JacobiShift = "JacobiShift"
    JacobiReflection = "JacobiReflection"
    CCoefficients = "CCoefficients"


@dataclass(frozen=True)
class VerifyReport:
    """Structured outcome of one checker run.

    witness is present exactly when status == "fail"; notes carry auxiliary
    deterministic text (skip reasons, uniqueness tallies) and stay out of the
    JSON object, whose schema is fixed.
    """

    theorem: TheoremId
    prime: int
    cases_checked: int
    status: str
    witness: dict | None
    elapsed_ms: int
    notes: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "theorem": self.theorem.value,
            "cases": self.cases_checked,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }

    def one_line(self) -> str:
        return (
            f"[{self.status}] p={self.prime} {self.theorem.value} "
            f"cases={self.cases_checked} elapsed_ms={self.elapsed_ms}"
        )


def _witness(case: dict, lhs, rhs) -> dict:
    return {"case": case, "lhs": str(lhs), "rhs": str(rhs)}


def _first_diff(a: XPoly, b: XPoly) -> int:
    for k in range(a.p):
        if a.coeffs[k] != b.coeffs[k]:
            return k
    return -1


# -- inverse pair --------------------------------------------------------------


def _check_left_inverse(p, g=None, lag=None):
    g = glog(p) if g is None else g
    lag = laguerre_pm1(p) if lag is None else lag
    c = RatFn.from_poly(alpha_p_minus_alpha(p))
    got = compose_mod(g.as_xpoly(), lag, c)
    want = XPoly.x_power(p, 1, modulus=c)
    if got != want:
        k = _first_diff(got, want)
        return 1, _witness({"coefficient": k}, got.coeffs[k], want.coeffs[k]), None
    return 1, None, None


def _check_right_inverse(p, g=None, lag=None):
    g = glog(p) if g is None else g
    lag = laguerre_pm1(p) if lag is None else lag
    c = RatFn.from_poly(laguerre_const(p))
    got = compose_mod(lag, g.as_xpoly(), c)
    want = XPoly.x_power(p, 1, modulus=c)
    if got != want:
        k = _first_diff(got, want)
        return 1, _witness({"coefficient": k}, got.coeffs[k], want.coeffs[k]), None
    return 1, None, None


# -- products of scaled exponentials --------------------------------------------


def _poly_grid(x: XPoly):
    grid = xpoly_to_grid(x)
    if grid is None:
        raise ValueError("series with non-polynomial coefficients")
    return grid


def _check_lemma_product(p, lag_fn=None):
    lag_fn = laguerre_scaled if lag_fn is None else lag_fn
    cpoly = alpha_p_minus_alpha(p)
    w = w_poly(p)
    zero = FpPoly.zero(p)
    grids = {r: _poly_grid(lag_fn(p, r)) for r in range(1, p)}
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            cases += 1
            prod = grid_mulmod(grids[r], grids[s], cpoly, p)
            if (r + s) % p == 0:
                want = [w] + [zero] * (p - 1)
            else:
                b = b_rs(p, r, s)
                want = [b * g for g in grids[(r + s) % p]]
            if prod != want:
                return cases, _witness(
                    {"r": r, "s": s},
                    grid_to_xpoly(prod, p),
                    grid_to_xpoly(want, p),
                ), None
    return cases, None, None


def _check_power_formula(p, lag_fn=None):
    lag_fn = laguerre_scaled if lag_fn is None else lag_fn
    cpoly = alpha_p_minus_alpha(p)
    base = _poly_grid(lag_fn(p, 1))
    power = base
    prefix = FpPoly.one(p)
    cases = 0
    for j in range(1, p):
        cases += 1
        if j > 1:
            power = grid_mulmod(power, base, cpoly, p)
            prefix = prefix * b_rs(p, 1, j - 1)
        want = [prefix * g for g in _poly_grid(lag_fn(p, j))]
        if power != want:
            return cases, _witness(
                {"j": j}, grid_to_xpoly(power, p), grid_to_xpoly(want, p)
            ), None
    return cases, None, None


# -- the b-family ---------------------------------------------------------------


def _check_b_conjugate(p, b_fn=None):
    b_fn = b_rs if b_fn is None else b_fn
    w = w_poly(p)
    cases = 0
    for s in range(1, p - 1):
        cases += 1
        f = b_fn(p, 1, s)
        got = f * f.subs_scale(p - 1)
        if got != w:
            return cases, _witness({"s": s}, got, w), None
    return cases, None, None


def _check_roots_theorem(p, b_fn=None):
    b_fn = b_rs if b_fn is None else b_fn
    cases = 0
    for s in range(1, p - 1):
        f = b_fn(p, 1, s)
        predicted = b_roots_predicted(p, s)
        try:
            _, roots = roots_and_split(f)
        except NonSplitError as exc:
            return cases + 1, _witness({"s": s}, exc.remainder, "split"), None
        structure_ok = (
            f.degree == (p - 1) // 2
            and all(m == 1 for m in roots.values())
            and frozenset(roots) == predicted
        )
        for a in range(1, p):
            cases += 1
            is_root = f.eval_int(a) == 0
            if is_root != (a in predicted) or not structure_ok:
                return cases, _witness(
                    {"s": s, "a": a},
                    f"b[1,{s}]({a}) = {f.eval_int(a)}",
                    f"root predicted: {a in predicted}",
                ), None
    return cases, None, None


def _check_lucas_criterion(p):
    cases = 0
    for s in range(1, p - 1):
        f = b_rs(p, 1, s)
        predicted = b_roots_predicted(p, s)
        for a in range(1, p):
            cases += 1
            by_lucas = b_root_lucas(p, s, a)
            by_eval = f.eval_int(a) == 0
            if by_lucas != by_eval or by_lucas != (a in predicted):
                return cases, _witness(
                    {"s": s, "a": a},
                    f"Lucas says root: {by_lucas}",
                    f"evaluation says root: {by_eval}",
                ), None
    return cases, None, None


def _check_symmetry(p, b_fn=None):
    b_fn = b_rs if b_fn is None else b_fn
    cases = 0
    for s in range(1, p - 1):
        cases += 1
        lhs = b_fn(p, 1, s)
        rhs = b_fn(p, 1, p - 1 - s)
        if lhs != rhs:
            return cases, _witness({"s": s}, lhs, rhs), None
    return cases, None, None


def _check_product_formula(p):
    try:
        prod = product_all_b(p)
    except TheoremViolationError as exc:
        return 1, _witness({}, str(exc), "three equal routes"), None
    _, roots = roots_and_split(prod)
    for a in range(1, p):
        if roots.get(a, 0) != p - 1 - a:
            return 1, _witness(
                {"root": a},
                f"multiplicity {roots.get(a, 0)}",
                f"multiplicity {p - 1 - a}",
            ), None
    return 1, None, None


def _check_l_factorization(p):
    sub_route, prod_route = laguerre_const_routes(p)
    if sub_route != prod_route:
        return 1, _witness({}, sub_route, prod_route), None
    return 1, None, None


# -- functional equations --------------------------------------------------------


def _check_reciprocal(p, g=None):
    g = glog(p) if g is None else g
    lhs = g.as_xpoly().scalar_mul(laguerre_const(p))
    rhs = reciprocal_rhs(p)
    if lhs != rhs:
        k = _first_diff(lhs, rhs)
        return 1, _witness({"coefficient": k}, lhs.coeffs[k], rhs.coeffs[k]), None
    return 1, None, None


def _check_powers_functional(p):
    lc = laguerre_const(p)
    pre = b_prefix_products(p)
    lc_pows = [FpPoly.one(p)]
    for _ in range(p - 1):
        lc_pows.append(lc_pows[-1] * lc)
    cases = 0
    for h in range(1, p):
        cases += 1
        pre_h = [f.subs_scale(h) for f in pre]
        p_h = pre[h - 1]
        ph_pow = FpPoly.one(p)
        for k in range(1, p):
            ph_pow = ph_pow * p_h
            rem = h * k % p
            q = h * k // p
            # cross-multiplied coefficient comparison at X^rem:
            #   (1/k) Lc^q / (P_h^k Q_k)  ==  (h/rem) / prod_{s<rem} b[1,s]
            lhs = lc_pows[q] * inv_mod(k, p) * pre[rem - 1]
            rhs = ph_pow * pre_h[k - 1] * (h * inv_mod(rem, p) % p)
            if lhs != rhs:
                return cases, _witness({"h": h, "k": k}, lhs, rhs), None
    return cases, None, None


def _check_powers_h_pm1(p):
    # the h = p-1 display reduces to W^k * prod_{s<p-k} b = Lc * prod_{s<k} b(-a)
    lc = laguerre_const(p)
    pre = b_prefix_products(p)
    pre_neg = b_prefix_products(p, negate=True)
    w = w_poly(p)
    wk = FpPoly.one(p)
    for k in range(1, p):
        wk = wk * w
        lhs = wk * pre[p - k - 1]
        rhs = lc * pre_neg[k - 1]
        if lhs != rhs:
            return 1, _witness({"k": k}, lhs, rhs), None
    return 1, None, None


def _polylog_at(p: int, u: RatFn) -> RatFn:
    """The truncated logarithm formally evaluated at a rational expression."""
    res = RatFn.const(inv_mod(p - 1, p), p, u.var)
    for k in range(p - 2, 0, -1):
        res = res * u + inv_mod(k, p)
    return res * u


def _check_polylog_shift(p):
    l1 = finite_polylog(p, 1)
    shifted = l1.compose(FpPoly([1, -1], p, var="X"))
    if shifted != l1:
        return 1, _witness({}, shifted, l1), None
    return 1, None, None


def _check_polylog_wilson(p):
    l1 = RatFn.from_poly(finite_polylog(p, 1))
    x = FpPoly.x(p, "X")
    rhs = -(RatFn.from_poly(x ** p)) * _polylog_at(p, RatFn(FpPoly.one(p, "X"), x))
    if l1 != rhs:
        return 1, _witness({}, l1, rhs), None
    return 1, None, None


def _check_six_symmetries(p):
    x = FpPoly.x(p, "X")
    one = FpPoly.one(p, "X")
    xm1_p = RatFn.from_poly((x - 1) ** p)
    xp = RatFn.from_poly(x ** p)
    l1 = finite_polylog(p, 1)
    exprs = [
        RatFn.from_poly(l1),
        RatFn.from_poly(l1.compose(one - x)),
        xm1_p * _polylog_at(p, RatFn(one, one - x)),
        xm1_p * _polylog_at(p, RatFn(x, x - 1)),
        -xp * _polylog_at(p, RatFn(x - 1, x)),
        -xp * _polylog_at(p, RatFn(one, x)),
    ]
    cases = 0
    for i, e in enumerate(exprs):
        cases += 1
        if e != exprs[0]:
            return cases, _witness({"expression": i + 1}, e, exprs[0]), None
    return cases, None, None


def _check_four_term(p):
    # sum over k of (1/k) [X^k - Y^k + Y^k X^(p-k) + (1-Y)^k (1-X)^(p-k)] == 0
    grid = [[0] * (p + 1) for _ in range(p + 1)]
    for k in range(1, p):
        ik = inv_mod(k, p)
        grid[k][0] = (grid[k][0] + ik) % p
        grid[0][k] = (grid[0][k] - ik) % p
        grid[p - k][k] = (grid[p - k][k] + ik) % p
        for i in range(p - k + 1):
            ci = math.comb(p - k, i) * ((-1) ** i) % p
            if not ci:
                continue
            for j in range(k + 1):
                cj = math.comb(k, j) * ((-1) ** j) % p
                if cj:
                    grid[i][j] = (grid[i][j] + ik * ci * cj) % p
    for i in range(p + 1):
        for j in range(p + 1):
            if grid[i][j]:
                return 1, _witness(
                    {"monomial": f"X^{i}*Y^{j}"}, grid[i][j], 0
                ), None
    return 1, None, None


# -- truncated binomials -----------------------------------------------------------


def _check_trunc_binomial_rules(p):
    truncate = FpPoly.zero(p)
    cases = 0
    tbs = {r: trunc_binomial(FpPoly([-1, r], p), 1, p) for r in range(1, p)}
    grids = {r: _poly_grid(tb) for r, tb in tbs.items()}
    # (1+X)^(ra-1) (1+X)^(sa-1) = (1+X)^(ta-2) with t = r+s mod p
    wants = {
        t: _poly_grid(trunc_binomial(FpPoly([-2, t], p), 1, p)) for t in range(p)
    }
    for r in range(1, p):
        for s in range(1, p):
            cases += 1
            prod = grid_mulmod(grids[r], grids[s], truncate, p)
            want = wants[(r + s) % p]
            if prod != want:
                return cases, _witness(
                    {"r": r, "s": s},
                    grid_to_xpoly(prod, p),
                    grid_to_xpoly(want, p),
                ), None
    for r in range(1, p):
        cases += 1
        f = FpPoly([-1, r], p)
        lhs = tbs[r].derivative()
        frob_term = f.frobenius_p() - f
        rhs = trunc_binomial(f - 1, 1, p).scalar_mul(f) + XPoly.x_power(
            p, p - 1, scale=RatFn.from_poly(frob_term)
        )
        if lhs != rhs:
            return cases, _witness({"derivative of": f"(1+X)^({f})"}, lhs, rhs), None
    return cases, None, None


def _check_b_alt(p):
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            cases += 1
            base = b_rs(p, r, s)
            coeff_route = b_rs_coeff(p, r, s)
            if base != coeff_route:
                return cases, _witness(
                    {"r": r, "s": s, "routes": "sum vs coefficient"},
                    base,
                    coeff_route,
                ), None
            if (r + s) % p == 0:
                if not base.is_zero:
                    return cases, _witness({"r": r, "s": s}, base, 0), None
                continue
            alt = b_rs_alt(p, r, s)
            if base != alt:
                return cases, _witness(
                    {"r": r, "s": s, "routes": "sum vs alternate"}, base, alt
                ), None
    return cases, None, None


# -- Jacobi connection ---------------------------------------------------------------


def _check_jacobi_link(p):
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            if (r + s) % p == 0:
                continue
            cases += 1
            lhs = jacobi_for_pair(p, r, s)
            rhs = b_rs(p, r, s)
            if lhs != rhs:
                return cases, _witness({"r": r, "s": s}, lhs, rhs), None
    return cases, None, None


def _check_jacobi_shift(p):
    half = inv_mod(2, p)
    cases = 0
    for r in range(1, p):
        for s in range(1, p):
            if (r + s) % p == 0:
                continue
            cases += 1
            x = (s - r) * inv_mod(r + s, p) % p
            a_poly = FpPoly([0, r], p)
            b_poly = FpPoly([0, s], p)
            plain = jacobi_pm1(p, a_poly, b_poly, x)
            shifted = jacobi_pm1(p, a_poly, b_poly + 1, x)
            if shifted != plain:
                return cases, _witness({"r": r, "s": s}, shifted, plain), None
            # parameter-shift recurrence specialization
            lhs = (a_poly + b_poly) * ((x + 1) * half % p) * shifted
            rhs = b_poly * plain + p_times_jacobi_p(p, a_poly, b_poly, x)
            if lhs != rhs:
                return cases, _witness(
                    {"r": r, "s": s, "identity": "parameter-shift recurrence"},
                    lhs,
                    rhs,
                ), None
    return cases, None, None


def _check_jacobi_reflection(p):
    cases = 0
    for s in range(1, p - 1):
        cases += 1
        if not jacobi_reflection_check(p, s):
            return cases, _witness(
                {"s": s}, "reflection chain broken", "three equal values"
            ), None
    return cases, None, None


# -- specialized product coefficients over F_{p^2} -------------------------------------
#
# For each sampled pair (alpha, beta) the product coefficients solve a system
# of p^2 equations in p unknowns over F_{p^2}, on raw (c0, c1) pairs.  The
# elimination stops once the rank reaches p, and a substitution pass then
# checks every equation against the solution.  An inconsistent system fails
# with one of two witnesses: "no solution" when a row reduces to 0 = nonzero
# before the rank reaches p, "solution fails an equation" when the bad row
# comes after.


def _lag_coeffs_at(field, at):
    """Coefficients of the exponential analogue with the parameter specialized."""
    p = field.p
    base = field.sub_raw(at, (1, 0))
    ff = [(1, 0)]
    for m in range(p - 1):
        ff.append(field.mul_raw(ff[-1], field.sub_raw(base, (m % p, 0))))
    return [field.sub_raw((0, 0), ff[p - 1 - k]) for k in range(p)]


def _c_pair_rows(field, at, bt):
    """(rows, columns) of the linear system for the product coefficients."""
    p = field.p
    zero = (0, 0)
    u = field.sub_raw(field.frobenius_raw(at), at)
    v = field.sub_raw(field.frobenius_raw(bt), bt)
    ca = _lag_coeffs_at(field, at)
    cb = _lag_coeffs_at(field, bt)
    gamma = field.add_raw(at, bt)
    cg = _lag_coeffs_at(field, gamma)
    g1 = [[field.mul_raw(ca[j], cb[m]) for m in range(p)] for j in range(p)]
    g2 = [[zero] * p for _ in range(p)]
    for j in range(p):
        for m in range(p - j):
            s = math.comb(j + m, j) % p
            if s:
                g2[j][m] = field.mul_raw(cg[j + m], (s, 0))
    # entry (j, m, i) is g2[j - i][m + i] (indices mod p), times u when the
    # first index wraps (j < i) and times v when the second does not
    # (m + i <= p - 1); tables[2 * (j < i) + (m + i < p)] holds that product
    uv = field.mul_raw(u, v)
    tables = [g2] + [
        [[field.mul_raw(x, s) for x in row] for row in g2] for s in (v, u, uv)
    ]
    rows = []
    for j in range(p):
        for m in range(p):
            row = [g2[j][m]]
            row += [
                tables[2 * (j < i) + (m + i < p)][(j - i) % p][(m + i) % p]
                for i in range(1, p)
            ]
            row.append(g1[j][m])
            rows.append(row)
    return rows


def _sub_multiple(p, n, xs, f, ys):
    """xs - f*ys entrywise over F_p[t]/(t^2 - n), one reduction per component."""
    f0, f1 = f
    nf1 = n * f1
    return [
        ((x0 - f0 * y0 - nf1 * y1) % p, (x1 - f0 * y1 - f1 * y0) % p)
        for (x0, x1), (y0, y1) in zip(xs, ys)
    ]


def _solve_pair(field, rows, ncols):
    """Solve the pair system; returns (solution | None, unique).

    Gauss-Jordan elimination, one row at a time, keeping the rows seen so
    far in reduced echelon form.  It stops as soon as the rank reaches
    ncols: the solution is then unique if one exists at all, and the rows
    not yet read cannot change it.  Those rows are not checked here, so an
    inconsistency among them goes unnoticed by this function; the caller's
    substitution pass, which checks every row against the solution, is what
    makes the result sound.  A system of rank below ncols reads every row
    and returns the solution with each free unknown set to 0, with unique
    False; None means a row reduced to 0 = nonzero before the rank reached
    ncols.
    """
    p, n = field.p, field.nonres
    zero = (0, 0)
    pivots: list[int] = []
    basis: list[list] = []
    for row in rows:
        if len(pivots) == ncols:
            break
        r = row
        for pc, brow in zip(pivots, basis):
            if r[pc] != zero:
                r = _sub_multiple(p, n, r, r[pc], brow)
        lead = next((c for c in range(ncols) if r[c] != zero), None)
        if lead is None:
            if r[ncols] != zero:
                return None, False
            continue
        i0, i1 = field.inv_raw(r[lead])
        ni1 = n * i1
        r = [((x0 * i0 + x1 * ni1) % p, (x0 * i1 + x1 * i0) % p) for x0, x1 in r]
        for idx, brow in enumerate(basis):
            if brow[lead] != zero:
                basis[idx] = _sub_multiple(p, n, brow, brow[lead], r)
        pivots.append(lead)
        basis.append(r)
    sol = [zero] * ncols
    for pc, brow in zip(pivots, basis):
        sol[pc] = brow[ncols]
    return sol, len(pivots) == ncols


def _closed_forms_p3(field, at, bt):
    """The explicit product coefficients at p = 3."""
    one = (1, 0)
    gamma = field.add_raw(at, bt)
    den = field.sub_raw(one, field.mul_raw(gamma, gamma))
    inv_den = field.inv_raw(den)
    c0 = field.mul_raw(
        field.mul_raw(
            field.sub_raw(one, field.mul_raw(at, at)),
            field.sub_raw(one, field.mul_raw(bt, bt)),
        ),
        inv_den,
    )
    c1 = field.mul_raw(field.sub_raw(at, one), inv_den)
    c2 = field.mul_raw(field.sub_raw(bt, one), inv_den)
    return [c0, c1, c2]


def _c_pairs(field, pair_budget, seed):
    """Deterministic pair stream with the sum outside F_p*."""
    p = field.p
    if pair_budget == "exhaustive":
        for a0 in range(p):
            for a1 in range(p):
                for b0 in range(p):
                    for b1 in range(p):
                        if (a1 + b1) % p == 0 and (a0 + b0) % p != 0:
                            continue
                        yield (a0, a1), (b0, b1)
        return
    rng = random.Random(seed)
    produced = 0
    while produced < pair_budget:
        at = (rng.randrange(p), rng.randrange(p))
        bt = (rng.randrange(p), rng.randrange(p))
        if (at[1] + bt[1]) % p == 0 and (at[0] + bt[0]) % p != 0:
            continue
        produced += 1
        yield at, bt


def _pair_budget(p, pair_budget):
    """The budget to use: the default for p when None; below 1 is rejected."""
    if pair_budget is None:
        return "exhaustive" if p <= 5 else 200
    if pair_budget != "exhaustive" and pair_budget < 1:
        raise ValueError(f"pair budget must be >= 1 or 'exhaustive', got {pair_budget}")
    return pair_budget


def _check_c_coefficients(p, pair_budget=None, seed=0):
    field = ext_quadratic(p)
    pair_budget = _pair_budget(p, pair_budget)
    n = field.nonres
    cases = 0
    unique_count = 0
    for at, bt in _c_pairs(field, pair_budget, seed):
        cases += 1
        rows = _c_pair_rows(field, at, bt)
        sol, unique = _solve_pair(field, rows, p)
        if sol is None:
            return cases, _witness(
                {"alpha": at, "beta": bt}, "no solution", "solvable system"
            ), None
        # substitution re-verification of every equation with the solved
        # values: each dot product sums plain ints and reduces once
        s0 = [s[0] for s in sol]
        s1 = [s[1] for s in sol]
        ns1 = [n * s for s in s1]
        for row in rows:
            acc0 = acc1 = 0
            for (x0, x1), y0, y1, ny1 in zip(row, s0, s1, ns1):
                acc0 += x0 * y0 + x1 * ny1
                acc1 += x0 * y1 + x1 * y0
            rhs0, rhs1 = row[p]
            if (acc0 - rhs0) % p or (acc1 - rhs1) % p:
                return cases, _witness(
                    {"alpha": at, "beta": bt}, "solution fails an equation", "all satisfied"
                ), None
        if unique:
            unique_count += 1
        if p == 3:
            closed = _closed_forms_p3(field, at, bt)
            if not unique or sol != closed:
                return cases, _witness(
                    {"alpha": at, "beta": bt}, sol, closed
                ), None
    notes = f"unique solutions: {unique_count}/{cases}"
    return cases, None, notes


# -- registry and runners ----------------------------------------------------------


_CHECKERS = {
    TheoremId.LeftInverse: _check_left_inverse,
    TheoremId.RightInverse: _check_right_inverse,
    TheoremId.LemmaProduct: _check_lemma_product,
    TheoremId.PowerFormula: _check_power_formula,
    TheoremId.BConjugate: _check_b_conjugate,
    TheoremId.RootsTheorem: _check_roots_theorem,
    TheoremId.LucasCriterion: _check_lucas_criterion,
    TheoremId.Symmetry: _check_symmetry,
    TheoremId.ProductFormula: _check_product_formula,
    TheoremId.LFactorization: _check_l_factorization,
    TheoremId.Reciprocal: _check_reciprocal,
    TheoremId.PowersFunctional: _check_powers_functional,
    TheoremId.PowersHEqualsPMinus1: _check_powers_h_pm1,
    TheoremId.PolylogShift: _check_polylog_shift,
    TheoremId.PolylogWilson: _check_polylog_wilson,
    TheoremId.SixSymmetries: _check_six_symmetries,
    TheoremId.FourTerm: _check_four_term,
    TheoremId.TruncBinomialRules: _check_trunc_binomial_rules,
    TheoremId.BAltAgreement: _check_b_alt,
    TheoremId.JacobiLink: _check_jacobi_link,
    TheoremId.JacobiShift: _check_jacobi_shift,
    TheoremId.JacobiReflection: _check_jacobi_reflection,
    TheoremId.CCoefficients: _check_c_coefficients,
}


def coerce_theorem(theorem) -> TheoremId:
    if isinstance(theorem, TheoremId):
        return theorem
    try:
        return TheoremId(theorem)
    except ValueError:
        raise ValueError(f"unknown theorem id: {theorem!r}") from None


def verify_theorem(p: int, theorem, **overrides) -> VerifyReport:
    """Run one checker and wrap the outcome in a report.

    A checker that checked no case and found no witness would read as a
    vacuous pass; that raises RuntimeError instead.
    """
    check_odd_prime(p)
    tid = coerce_theorem(theorem)
    t0 = time.perf_counter()
    cases, witness, notes = _CHECKERS[tid](p, **overrides)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    if cases == 0 and witness is None:
        raise RuntimeError(f"{tid.value} checked no case at p={p}")
    status = "fail" if witness is not None else "pass"
    return VerifyReport(tid, p, cases, status, witness, elapsed_ms, notes)


def verify_all(p: int, *, c_pairs=None, seed: int = 0):
    """Run every checker in declaration order.

    A checker that raises NotApplicable is reported as skipped; any other
    exception propagates.  Arguments are checked before any checker runs.
    """
    check_odd_prime(p)
    _pair_budget(p, c_pairs)
    reports = []
    for tid in TheoremId:
        overrides = {}
        if tid is TheoremId.CCoefficients:
            overrides = {"pair_budget": c_pairs, "seed": seed}
        try:
            reports.append(verify_theorem(p, tid, **overrides))
        except NotApplicable as exc:
            reports.append(
                VerifyReport(tid, p, 0, "skipped", None, 0, notes=str(exc))
            )
    return reports


def verify_c_coefficients(p: int, pair_budget=None, seed: int = 0) -> VerifyReport:
    """Stand-alone entry for the specialized product-coefficient check."""
    return verify_theorem(
        p, TheoremId.CCoefficients, pair_budget=pair_budget, seed=seed
    )
