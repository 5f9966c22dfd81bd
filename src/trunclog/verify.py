"""One checker per identity, a structured report type, and the batch runner.

Every checker enumerates its statement's full parameter range in a fixed
ascending order and compares both sides in canonical form: pass always means
exact identity, never closeness.  On the first violated case the run
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

PowerFormula runs by induction on the product lemma, LeftInverse sums
c_k * L_k by the power formula and composes only what that does not prove
(``glog.power_route`` and ``left_inverse_by_powers``: one run per set of
records, shared with glog()'s guard, whose step flags also count
LemmaProduct's row 1).
RightInverse forms no composition L(G(X)): it follows from LeftInverse and
L-Frobenius by the inverse-map lemma.

LemmaProduct, TruncBinomialRules, BAltAgreement, JacobiLink and JacobiShift
compute row r = 1 only: a case (r, s) with r != 1 is counted as the image of
the passed case (1, s/r) under a -> r*a (X -> r*X for LemmaProduct) when the
conditions in the checker's docstring hold on the objects of record, b_rs of
record included (``_b_image``).  TruncBinomialRules' derivative cases are
one orbit too: case r != 1 is the a -> r*a image of case 1 when the two
series it reads are the images of case 1's.  Every other case is computed,
so the first failing case, its witness and the count are the direct loop's.

BAltAgreement and the three Jacobi checkers compare value vectors
[f(0), ..., f(p-1)] on F_p.  Every b[r,s] route and every Jacobi sum with
parameters linear in a is a sum of C(f, p-1-k) * C(g, k) times scalars, with
f, g linear in a, so it has degree at most p-1; two such polynomials are
equal iff they agree at all p points, since their difference has degree at
most p-1 and p roots.  The comparison is exact, not sampling.  The other
routes are evaluated from one integer table C(x, m) mod p per prime, without
``special.binomials_of`` or FpPoly arithmetic; ``b_rs``, the polynomial of
record, is the one route through both, and its degree is checked to be at
most p-1 before its values are compared.  A failing route is interpolated
back to a polynomial for the witness.

PowersFunctional compares split forms.  Lc and every b[1,s] with s <= p-2
split into linear factors over F_p, so each is bound once to a form
lead * prod_t (a - t)^e[t] that must re-expand to the polynomial of record,
or that factor is the witness.  F_p[a] has unique factorisation, so an equal
re-expansion proves the form however it was found: a form the paper states
(Lc = prod_k (1 + a/k)^k, root -k with multiplicity k, and for
ProductFormula prod_s b[1,s], root a with multiplicity p-1-a) is bound, with
the record's leading coefficient as its lead, when it re-expands to the
record, and ``roots_and_split`` finds the form otherwise, so a witness is the
root search's.  Two nonzero products of bound forms are equal iff their
leads and exponent vectors are; products, powers and a -> h*a act on the
vectors, and polynomials are rebuilt only for a witness.

Checkers compute on polynomials only: FpPoly values, FpPoly grids, value
vectors on F_p, split forms and CCoefficients' packed columns.  Fractions are
compared cross-multiplied; RatFn and XPoly are what the constructors return
and the witnesses print, and no passing case does their arithmetic.

Every checker is a generator that yields one outcome per case, in that
order: None for a case that passed or was counted as an orbit image, and
the witness of the first case that failed.  CCoefficients returns its
notes as the generator's value.  ``verify_theorem`` alone counts: the count
is the number of outcomes up to and including the first witness, and it never
resumes a checker after a witness, so no checker code runs past one.  Helpers
that can fail a case and have a value to give (``_split``,
``_bound_split_form``) run under ``yield from``: they yield the witness or
return the value.

Checkers take only p, except LeftInverse (g=, a candidate G) and CCoefficients
(pair budget, seed); tests patch the module globals they read at call time.

Reports are deterministic apart from elapsed_ms; ``verify_all`` emits them
in the declaration order of ``TheoremId`` regardless of execution schedule.
"""

from __future__ import annotations

import enum
import math
import operator
import random
import time
from typing import NamedTuple

from .bpoly import (
    b_prefix_products,
    b_roots_predicted,
    b_root_lucas,
    b_rs,
    product_all_b,
)
from .errors import NonSplitError, TheoremViolationError
from .fields import check_odd_prime, ext_quadratic, inv_mod, per_prime
from .glog import _reciprocal_terms, glog, left_inverse_by_powers
from .glog import left_inverse_lhs, power_route, reciprocal_rhs
from .jacobi import p_times_jacobi_p
from .pairsystem import Layout, pair_columns, solve_pair, substitutes
from .polys import FpPoly, interpolate, roots_and_split, values
from .quotient import grid_mulmod, grid_to_xpoly, xpoly_to_grid
from .special import (
    alpha_p_minus_alpha,
    finite_polylog,
    frobenius_image,
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


class VerifyReport(NamedTuple):
    """Structured outcome of one checker run, an immutable named tuple:
    ``_replace`` gives a copy with fields changed.

    witness is present exactly when status == "fail"; notes carry auxiliary
    deterministic text (uniqueness tallies) and stay out of the JSON object,
    whose schema is fixed.
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


# -- inverse pair --------------------------------------------------------------


def _is_x(got, **case):
    """None if a composite is X in its quotient ring, else a witness whose
    case holds the given keys, then the first coefficient that differs."""
    for k, c in enumerate(got.coeffs):
        want = int(k == 1)
        if not (c.den.is_one and c.num == want):
            return _witness({**case, "coefficient": k}, c, want)
    return None


def _power_inputs(p):
    """The power route's records: (L_1 .. L_(p-1)), prefix products, b[1,s]."""
    scaled = tuple(laguerre_scaled(p, j) for j in range(1, p))
    return scaled, b_prefix_products(p), tuple(b_rs(p, 1, s) for s in range(1, p - 1))


def _check_left_inverse(p, g=None):
    """G(L(X)) = X by ``left_inverse_by_powers``; the composite decides, and
    is the witness, only where that route proves nothing."""
    if g is None:
        g = glog(p)
    elif g.p != p:
        raise ValueError(f"candidate G is for p = {g.p}, not p = {p}")
    lag = laguerre_pm1(p)
    if left_inverse_by_powers(g, lag, *_power_inputs(p)):
        yield None
    else:
        yield _is_x(left_inverse_lhs(g, lag))


def _check_right_inverse(p):
    """L(G(X)) = X mod X^p - Lc, proved from LeftInverse by the inverse-map
    lemma; no composition L(G(X)) is formed.

    Write alpha = a^p - a, Lc = laguerre_const(p), K1 = F_p(a)[X]/(X^p - alpha)
    and K2 = F_p(a)[Y]/(Y^p - Lc).  In characteristic p,
    (sum_k f_k X^k)^p = sum_k f_k(a^p) X^(pk) for f_k in F_p(a), so:

    - "L-frobenius": Y -> L(X) is a ring map K2 -> K1 iff L(X)^p = Lc in K1,
      i.e. sum_k L_k(a^p) * alpha^k = Lc;
    - "left inverse": G(L(X)) = X in K1, by LeftInverse's route;
    - "G-frobenius": X -> G(Y) is a ring map K1 -> K2 iff G(Y)^p = alpha in
      K2, i.e. sum_k G_k(a^p) * Lc^k = alpha.  The p-th power of G(L) = X
      in K1 is that equation, so the first two parts imply it.  It is
      computed, over G's common denominator D, only when the power route
      does not prove the left inverse, and then precedes the composite.

    Both maps are F_p(a)-linear and both rings have dimension p over F_p(a).
    K1 -> K2 -> K1 is the identity, so K2 -> K1 is onto, hence bijective;
    X -> G(Y) is its inverse and L(G(Y)) = Y in K2, which is the statement.
    One case; a witness is cross-multiplied by M as in ``frobenius_image``.  An
    honest L reads the run ``laguerre_const`` built, not vacuously: its guard
    proved that run equal to prod_k (1 + a/k)^k.  A twin gets a run of its own.
    """
    g, lag, lc = glog(p), laguerre_pm1(p), laguerre_const(p)
    alpha = alpha_p_minus_alpha(p)
    num, den = frobenius_image(p, lag.coeffs, alpha)
    if num != lc * den:
        yield _witness({"part": "L-frobenius"}, num, lc * den)
    if left_inverse_by_powers(g, lag, *_power_inputs(p)):
        yield None
        return
    num, den = frobenius_image(p, g.as_xpoly().coeffs, lc)
    if num != alpha * den:
        yield _witness({"part": "G-frobenius"}, num, alpha * den)
    yield _is_x(left_inverse_lhs(g, lag), part="left inverse")


# -- products of scaled exponentials --------------------------------------------


def _sigma(grid, t, p):
    """sigma_t of a grid: row k -> t^k * row_k(t*a)."""
    return [row.subs_scale(t) * pow(t, k, p) for k, row in enumerate(grid)]


def _tau(grid, t):
    """tau_t of a grid: a -> t*a with X fixed, row k -> row_k(t*a)."""
    return [row.subs_scale(t) for row in grid]


def _check_lemma_product(p):
    """L_r(X) * L_s(X) = b[r,s](a) * L_{r+s}(X) mod X^p - (a^p - a) for every
    (r, s), with 1 - a^(p-1) in place of the right side when r + s = p.

    sigma_t (a -> t*a, X -> t*X) is a ring automorphism of F_p(a)[X] that
    sends X^p - (a^p - a) to t * (X^p - (a^p - a)), since t^p = t, so it
    keeps the ideal and maps a reduced product to the reduced product of the
    images; sigma_r o sigma_u = sigma_{r*u}, and sigma_r fixes 1 - a^(p-1).
    Row r = 1: a case (1, s), s <= p-2, is the power formula's step, counted
    where ``power_route`` (one run shared with glog()'s guard) says it held
    on the records read here, ``_power_inputs``; a failing step's case and
    (1, p-1) are computed.  With sym[t] meaning
    L_t = sigma_t(L_1), a case (r, s) with r != 1 is the sigma_r image of
    the passed case (1, s1), s1 = s/r: L_r * L_s = sigma_r(L_1 * L_s1) when
    sym[r], sym[s] and sym[s1] hold, and off the diagonal the right side
    sigma_r(b[1,s1] * L_{1+s1}) is b[r,s] * L_{r+s} when also sym[r+s],
    sym[1+s1] and b[r,s] = b[1,s1](r*a) (``_b_image``).  Such a case is
    counted and not recomputed; every other case is computed.
    """
    cpoly = alpha_p_minus_alpha(p)
    w = w_poly(p)
    zero = FpPoly.zero(p)
    scaled, pre, bs = _power_inputs(p)
    steps, _ = power_route(p, scaled, pre, bs)
    grids = {r: xpoly_to_grid(x) for r, x in enumerate(scaled, 1)}
    sym = {t: grids[t] == _sigma(grids[1], t, p) for t in range(1, p)}
    for r in range(1, p):
        for s in range(1, p):
            t = (r + s) % p
            s1 = s * inv_mod(r, p) % p
            if r == 1 and t != 0 and steps[s - 1]:
                yield None
                continue
            if r != 1 and sym[r] and sym[s] and sym[s1] and (
                t == 0
                or sym[t] and sym[(1 + s1) % p] and _b_image(p, r, s)
            ):
                yield None
                continue
            prod = grid_mulmod(grids[r], grids[s], cpoly, p)
            if t == 0:
                want = [w] + [zero] * (p - 1)
            else:
                b = b_rs(p, r, s)
                want = [b * g for g in grids[t]]
            yield None if prod == want else _witness(
                {"r": r, "s": s}, grid_to_xpoly(prod, p), grid_to_xpoly(want, p)
            )


def _check_power_formula(p):
    """L_1^j = pre[j-1] * L_j by induction on the product lemma
    (``power_route``, the run LemmaProduct and glog()'s guard read), with the
    direct loop's count and witness."""
    scaled, pre, bs = _power_inputs(p)
    _, failure = power_route(p, scaled, pre, bs)
    if failure is None:
        yield from [None] * (p - 1)
        return
    j, power = failure
    yield from [None] * (j - 1)
    want = [pre[j - 1] * g for g in xpoly_to_grid(scaled[j - 1])]
    yield _witness({"j": j}, grid_to_xpoly(power, p), grid_to_xpoly(want, p))


# -- the b-family ---------------------------------------------------------------


def _check_b_conjugate(p):
    w = w_poly(p)
    for s in range(1, p - 1):
        f = b_rs(p, 1, s)
        got = f * f.subs_scale(p - 1)
        yield None if got == w else _witness({"s": s}, got, w)


def _split(f, case):
    """roots_and_split(f); yields the witness instead when f is zero or does
    not split over F_p."""
    if f.is_zero:
        yield _witness(case, f, "nonzero")
    try:
        return roots_and_split(f)
    except NonSplitError as exc:
        yield _witness(case, exc.remainder, "split")


def _check_roots_theorem(p):
    """A split or shape failure of b[1,s] is one case; else every a is one."""
    for s in range(1, p - 1):
        f = b_rs(p, 1, s)
        predicted = b_roots_predicted(p, s)
        _, roots = yield from _split(f, {"s": s})
        if not (
            f.degree == (p - 1) // 2
            and all(m == 1 for m in roots.values())
            and frozenset(roots) == predicted
        ):
            yield _witness(
                {"s": s},
                f"degree {f.degree}, roots with multiplicity "
                f"{dict(sorted(roots.items()))}",
                f"degree {(p - 1) // 2}, simple roots {sorted(predicted)}",
            )
        for a in range(1, p):
            is_root = f.eval_int(a) == 0
            yield None if is_root == (a in predicted) else _witness(
                {"s": s, "a": a},
                f"b[1,{s}]({a}) = {f.eval_int(a)}",
                f"root predicted: {a in predicted}",
            )


def _check_lucas_criterion(p):
    for s in range(1, p - 1):
        f = b_rs(p, 1, s)
        predicted = b_roots_predicted(p, s)
        for a in range(1, p):
            by_lucas = b_root_lucas(p, s, a)
            by_eval = f.eval_int(a) == 0
            yield None if by_lucas == by_eval == (a in predicted) else _witness(
                {"s": s, "a": a},
                f"Lucas says root: {by_lucas}",
                f"evaluation says root: {by_eval}",
            )


def _check_symmetry(p):
    for s in range(1, p - 1):
        lhs = b_rs(p, 1, s)
        rhs = b_rs(p, 1, p - 1 - s)
        yield None if lhs == rhs else _witness({"s": s}, lhs, rhs)


def _check_product_formula(p):
    """prod_s b[1,s] splits with root a of multiplicity p-1-a for a = 1 .. p-1
    and none at a = 0, and has constant term 1 as every b[1,s] does; every a
    in F_p is compared.  The roots fix the product up to its lead, and the
    constant term fixes the lead.  The stated form is bound when it
    re-expands to the product (``_bound_split_form``); otherwise root search
    finds the multiplicities that are compared."""
    try:
        prod = product_all_b(p)
    except TheoremViolationError as exc:
        yield _witness({}, str(exc), "three equal routes")
    want = (0,) + tuple(p - 1 - a for a in range(1, p))
    _, e = yield from _bound_split_form({}, prod, want)
    for a in range(p):
        if e[a] != want[a]:
            yield _witness(
                {"root": a}, f"multiplicity {e[a]}", f"multiplicity {want[a]}"
            )
    const = prod.eval_int(0)
    yield None if const == 1 else _witness({"part": "constant term"}, const, 1)


def _check_l_factorization(p):
    sub_route, prod_route = laguerre_const_routes(p)
    yield None if sub_route == prod_route else _witness({}, sub_route, prod_route)


# -- functional equations --------------------------------------------------------


def _check_reciprocal(p):
    """Lc * G(X) = reciprocal_rhs(p), with G_k = n_k / d_k reduced and the
    right side's unreduced term m_k / e_k (``glog._reciprocal_terms``)
    cross-multiplied: Lc * n_k * e_k == m_k * d_k.  reciprocal_rhs and the
    fraction G_k * Lc are formed only for a witness."""
    lc = laguerre_const(p)
    terms = _reciprocal_terms(p)
    for k, (gk, (m, e)) in enumerate(zip(glog(p).as_xpoly().coeffs, terms)):
        if lc * gk.num * e != m * gk.den:
            yield _witness({"coefficient": k}, gk * lc, reciprocal_rhs(p).coeffs[k])
    yield None


# A split form (lead, e) stands for lead * prod_t (a - t)^e[t] over t in F_p;
# the module docstring says why comparing split forms is exact.


def _bound_split_form(case, f, predicted=None):
    """f's split form; yields the witness for case instead when f is zero,
    does not split over F_p, or its form does not re-expand to f.

    A predicted exponent vector is bound, with f's leading coefficient as
    the lead, when that form re-expands to f; otherwise ``roots_and_split``
    finds the form, and a witness is the one it gives.
    """
    p = f.p
    if predicted is not None and not f.is_zero:
        form = f.lead, tuple(predicted)
        if _expand(form, p) == f:
            return form
    lead, roots = yield from _split(f, case)
    form = lead, tuple(roots.get(t, 0) for t in range(p))
    expanded = _expand(form, p)
    if expanded != f:
        yield _witness(case, expanded, f)
    return form


def _expand(form, p):
    """The polynomial lead * prod_t (a - t)^e[t] of a split form."""
    lead, e = form
    out = FpPoly.const(lead, p)
    for t, m in enumerate(e):
        if m:
            out = out * FpPoly([-t, 1], p) ** m
    return out


def _form_subs_scale(form, h, p):
    """The form of f(h*a): h*a - t = h * (a - t/h), so e'[u] = e[h*u] and the
    lead gains h^deg."""
    lead, e = form
    return lead * pow(h, sum(e), p) % p, tuple(e[h * u % p] for u in range(p))


def _check_powers_functional(p):
    """The power-substitution equation for G, one case per h, compared at
    every X^rem with rem = h*k mod p, k = 1..p-1, cross-multiplied as

        (1/k) * Lc^q * Q_rem  ==  (h/rem) * P_h^k * Q_k(h*a),

    q = h*k // p, Q_j = prod_{s<j} b[1,s], P_h = Q_h.  Lc and every b[1,s]
    are bound to split forms once (``_bound_split_form``), so each side is a
    lead times an exponent vector over the factors a - t: products add the
    vectors, powers scale them and the scalars go on the leads.  Lc is bound
    to the paper's form prod_k (1 + a/k)^k when that re-expands to the
    record, and found by root search otherwise; each b[1,s] is found by root
    search.  A case passes iff both leads and both vectors are equal.  The first failing
    case's witness shows both sides rebuilt as polynomials from Lc and the
    b[1,s] of record; a factor that fails to bind is the witness instead.
    """
    lc = laguerre_const(p)
    bs = [b_rs(p, 1, s) for s in range(1, p - 1)]
    stated = (0,) + tuple(p - t for t in range(1, p))  # root -k, multiplicity k
    lc_lead, lc_e = yield from _bound_split_form({"factor": "Lc"}, lc, stated)
    pre = [(1, (0,) * p)]
    for s, b in enumerate(bs, 1):
        form = yield from _bound_split_form({"factor": f"b[1,{s}]"}, b)
        lead, e = pre[-1]
        pre.append((lead * form[0] % p, [c + d for c, d in zip(e, form[1])]))
    for h in range(1, p):
        pre_h = [_form_subs_scale(f, h, p) for f in pre]
        h_lead, h_e = pre[h - 1]
        for k in range(1, p):
            rem = h * k % p
            q = h * k // p
            r_lead, r_e = pre[rem - 1]
            s_lead, s_e = pre_h[k - 1]
            lhs = (
                pow(lc_lead, q, p) * inv_mod(k, p) * r_lead % p,
                [q * c + d for c, d in zip(lc_e, r_e)],
            )
            rhs = (
                pow(h_lead, k, p) * s_lead * h * inv_mod(rem, p) % p,
                [k * c + d for c, d in zip(h_e, s_e)],
            )
            if lhs != rhs:
                yield _witness({"h": h, "k": k}, *_powers_sides(p, lc, bs, h, k))
        yield None


def _powers_sides(p, lc, bs, h, k):
    """Both sides of case (h, k) of ``_check_powers_functional`` as
    polynomials, for its witness."""
    pre = [FpPoly.one(p)]
    for b in bs:
        pre.append(pre[-1] * b)
    rem = h * k % p
    lhs = lc ** (h * k // p) * inv_mod(k, p) * pre[rem - 1]
    rhs = pre[h - 1] ** k * pre[k - 1].subs_scale(h) * (h * inv_mod(rem, p) % p)
    return lhs, rhs


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
            yield _witness({"k": k}, lhs, rhs)
    yield None


def _polylog_at(p: int, num: FpPoly, den: FpPoly) -> FpPoly:
    """N with L1(num/den) = N / den^(p-1): N = sum_k num^k den^(p-1-k) / k.

    X^p / X^(p-1) = X and (X-1)^p / (1-X)^(p-1) = X - 1 (p - 1 is even), so
    each reflected side below is a linear factor times such an N."""
    acc = FpPoly.const(inv_mod(p - 1, p), p, num.var)
    den_pow = FpPoly.one(p, num.var)
    for k in range(p - 2, 0, -1):
        den_pow = den_pow * den
        acc = acc * num + den_pow * inv_mod(k, p)
    return acc * num


def _check_polylog_shift(p):
    l1 = finite_polylog(p, 1)
    shifted = l1.compose(FpPoly([1, -1], p, var="X"))
    yield None if shifted == l1 else _witness({}, shifted, l1)


def _check_polylog_wilson(p):
    l1 = finite_polylog(p, 1)
    x = FpPoly.x(p, "X")
    rhs = -x * _polylog_at(p, FpPoly.one(p, "X"), x)
    yield None if l1 == rhs else _witness({}, l1, rhs)


def _check_six_symmetries(p):
    x = FpPoly.x(p, "X")
    one = FpPoly.one(p, "X")
    l1 = finite_polylog(p, 1)
    exprs = [
        l1,
        l1.compose(one - x),
        (x - 1) * _polylog_at(p, one, one - x),
        (x - 1) * _polylog_at(p, x, x - 1),
        -x * _polylog_at(p, x - 1, x),
        -x * _polylog_at(p, one, x),
    ]
    for i, e in enumerate(exprs, 1):
        yield None if e == exprs[0] else _witness({"expression": i}, e, exprs[0])


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
                yield _witness({"monomial": f"X^{i}*Y^{j}"}, grid[i][j], 0)
    yield None


# -- truncated binomials -----------------------------------------------------------


def _check_trunc_binomial_rules(p):
    """(1+X)^(r*a-1) (1+X)^(s*a-1) = (1+X)^((r+s)*a-2) mod X^p; derivatives.

    tau_t (a -> t*a, X fixed) is an automorphism of F_p[a][X]/(X^p) and
    tau_r o tau_u = tau_{r*u}.  So case (r, s), r != 1, is tau_r of the passed
    case (1, s1), s1 = s/r, when sym[u]: grids[u] = tau_u(grids[1]) holds at
    u = r, s, s1 and wsym[u]: wants[u] = tau_u(wants[1]) at u = r+s, 1+s1,
    or, on the diagonal r + s = 0, tau_r fixes wants[0].  tau_r commutes with
    d/dX, sends a - 1 to r*a - 1 and (a - 1)^p to (r*a - 1)^p, so the
    derivative case r != 1 is tau_r of the passed case 1 when sym[r] and
    wsym[r] hold.  Such a case is counted; every other case is computed.
    """
    truncate = FpPoly.zero(p)
    grids = {
        r: xpoly_to_grid(trunc_binomial(FpPoly([-1, r], p), 1, p)) for r in range(1, p)
    }
    wants = {
        t: xpoly_to_grid(trunc_binomial(FpPoly([-2, t], p), 1, p)) for t in range(p)
    }
    sym = {u: grids[u] == _tau(grids[1], u) for u in range(1, p)}
    wsym = {u: wants[u] == _tau(wants[1], u) for u in range(1, p)}
    for r in range(1, p):
        for s in range(1, p):
            t = (r + s) % p
            s1 = s * inv_mod(r, p) % p
            if r != 1 and sym[r] and sym[s] and sym[s1] and (
                wsym[t] and wsym[(1 + s1) % p] if t else _tau(wants[0], r) == wants[0]
            ):
                yield None
                continue
            prod = grid_mulmod(grids[r], grids[s], truncate, p)
            yield None if prod == wants[t] else _witness(
                {"r": r, "s": s}, grid_to_xpoly(prod, p), grid_to_xpoly(wants[t], p)
            )
    # d/dX (1+X)^f = f*(1+X)^(f-1) + (f^p-f)*X^(p-1); (1+X)^(f-1) is wants[r]
    for r in range(1, p):
        if r != 1 and sym[r] and wsym[r]:
            yield None
            continue
        f = FpPoly([-1, r], p)
        lhs = [grids[r][e] * e for e in range(1, p)] + [truncate]
        rhs = [row * f for row in wants[r]]
        rhs[p - 1] = rhs[p - 1] + f.frobenius_p() - f
        yield None if lhs == rhs else _witness(
            {"derivative of": f"(1+X)^({f})"},
            grid_to_xpoly(lhs, p),
            grid_to_xpoly(rhs, p),
        )


# -- value vectors for the degree-(p-1) family in a ------------------------------
#
# Why comparing values on F_p is exact here is in the module docstring.  The
# routes below evaluate each sum at a = t from ``_binomial_table`` alone,
# with neither ``special.binomials_of`` nor FpPoly arithmetic; ``b_rs`` stays
# the one route through both, and ``_b_record`` checks its degree before its
# values are compared, since values cannot tell f from f + (a^p - a).


@per_prime
def _binomial_table(p):
    """Row x holds C(x, 0), ..., C(x, p-1) mod p, for 0 <= x < p.

    For x in F_p, C(x, m) with m < p is the falling factorial x(x-1)...(x-m+1)
    divided by the unit m!, which is the integer binomial mod p: the
    polynomial C(f, m) takes the value table[f(t)][m] at a = t.
    """
    return tuple(tuple(math.comb(x, m) % p for m in range(p)) for x in range(p))


@per_prime
def _weights(p, alpha, beta):
    """alpha^(p-1-k) * beta^k mod p for k < p; the checkers repeat each
    (alpha, beta) across many cases."""
    return tuple(pow(alpha, p - 1 - k, p) * pow(beta, k, p) % p for k in range(p))


def _sum_values(p, f, g, alpha, beta):
    """Values on F_p of sum_k C(f, p-1-k) C(g, k) alpha^(p-1-k) beta^k, the
    sum ``special.binomial_sum`` builds as a polynomial.

    f and g are linear in a, given as (slope, offset); alpha and beta are
    scalars.  Each point costs O(p) integer operations.
    """
    table = _binomial_table(p)
    weights = _weights(p, alpha % p, beta % p)
    out = []
    for t in range(p):
        left = reversed(table[(f[0] * t + f[1]) % p])
        right = table[(g[0] * t + g[1]) % p]
        out.append(sum(map(operator.mul, map(operator.mul, left, right), weights)) % p)
    return out


def _b_alt_values(p, r, s):
    """Values of ``b_rs_alt``: C(r*a - 1, p-1-k) C(s*a, k) (-r/s)^k."""
    return _sum_values(p, (r, -1), (s, 0), 1, -r * inv_mod(s, p))


def _b_coeff_values(p, r, s):
    """Values of ``b_rs_coeff``: the X^(p-1) coefficient of the product of
    the truncated series sum_j C(r*a - 1, j) (X/r)^j and
    sum_j C(s*a - 1, j) (-X/s)^j, taken pointwise."""
    return _sum_values(p, (r, -1), (s, -1), inv_mod(r, p), -inv_mod(s, p))


def _linked_x(p, r, s):
    """The linked argument x = (s - r)/(s + r); needs r + s != 0 mod p."""
    return (s - r) * inv_mod(r + s, p) % p


def _jacobi_values(p, A, B, x):
    """Values of ``jacobi_pm1(p, A, B, x)`` with A and B linear in a, given as
    (slope, offset): C(A - 1, p-1-k) C(B - 1, k) weighted by
    (x+1)^(p-1-k) (x-1)^k."""
    return _sum_values(p, (A[0], A[1] - 1), (B[0], B[1] - 1), x + 1, x - 1)


def _b_record(p, r, s):
    """(b[r,s] of record, its value vector, a witness or None).

    The witness replaces the values when the degree exceeds p-1, where the
    values no longer determine the polynomial and a comparison of values
    could pass vacuously.
    """
    base = b_rs(p, r, s)
    if base.degree > p - 1:
        return base, None, _witness(
            {"r": r, "s": s, "guard": "degree"},
            f"degree {base.degree}",
            f"degree at most {p - 1}",
        )
    return base, values(base), None


def _b_image(p, r, s):
    """r != 1 and b[r,s] of record is b[1,s/r](r*a), as ``b_rs`` builds it."""
    return r != 1 and b_rs(p, r, s) == b_rs(p, 1, s * inv_mod(r, p) % p).subs_scale(r)


def _check_b_alt(p):
    """b_rs equals the coefficient route for every (r, s), is zero on the
    diagonal r + s = p, and equals the alternate route off it.

    Compares value vectors on F_p (module docstring): b_rs of record against
    ``_b_coeff_values`` and ``_b_alt_values``.  Row r = 1 is computed.  At
    a = t, both routes at (r, s) are row 1's at (1, s1), s1 = s/r, and
    a = r*t, with no condition: the coefficient route's weight r^-(p-1-k) is
    r^k, as r^(p-1) = 1, and the alternate route reads C(s*t, k) =
    C(s1*(r*t), k); the case (r, -r) maps to (1, p-1).  When ``_b_image``
    holds, b[r,s] of record has row 1's values permuted too and b[1,s1]'s
    degree, as a -> r*a keeps degrees, so the case is counted.
    """
    for r in range(1, p):
        for s in range(1, p):
            if _b_image(p, r, s):
                yield None
                continue
            base, vals, bad = _b_record(p, r, s)
            if bad:
                yield bad
            coeff = _b_coeff_values(p, r, s)
            if vals != coeff:
                case = {"r": r, "s": s, "routes": "sum vs coefficient"}
                yield _witness(case, base, interpolate(coeff, p))
            if (r + s) % p == 0:
                yield None if base.is_zero else _witness({"r": r, "s": s}, base, 0)
                continue
            alt = _b_alt_values(p, r, s)
            case = {"r": r, "s": s, "routes": "sum vs alternate"}
            yield None if vals == alt else _witness(case, base, interpolate(alt, p))


# -- Jacobi connection ---------------------------------------------------------------


def _check_jacobi_link(p):
    """The Jacobi sum at A = r*a, B = s*a, x = (s-r)/(s+r) is b[r,s].

    Compares value vectors on F_p (module docstring): ``_jacobi_values``
    against b_rs of record.  Row r = 1 is computed.  ``_sum_values`` reads f
    and g only through f(t) and g(t), and x depends only on s/r, so row r's
    sums are row 1's with t -> r*t; when ``_b_image`` holds, so are the
    values of b[r,s] of record, and the case is counted.
    """
    for r in range(1, p):
        for s in range(1, p):
            if (r + s) % p == 0:
                continue
            if _b_image(p, r, s):
                yield None
                continue
            base, vals, bad = _b_record(p, r, s)
            if bad:
                yield bad
            jac_vals = _jacobi_values(p, (r, 0), (s, 0), _linked_x(p, r, s))
            yield None if jac_vals == vals else _witness(
                {"r": r, "s": s}, interpolate(jac_vals, p), base
            )


def _check_jacobi_shift(p):
    """Shifting B = s*a to B + 1 leaves the linked Jacobi value unchanged, and
    the parameter-shift recurrence
    (A+B)(x+1)/2 * P(A, B+1; x) = B * P(A, B; x) + p*P_p(A, B; x) holds one
    step off the linked argument.

    The shift compares value vectors: both sums have degree at most p-1 in a
    (C(s*a, k) has degree k as C(s*a - 1, k) does), so equal values on F_p
    mean equal polynomials.  The recurrence has degree p in a, which values
    cannot decide, so it runs as FpPoly arithmetic on the plain and shifted
    sums, interpolated from their value vectors.

    At the linked argument x = (s-r)/(s+r), p*P_p(r*a, s*a; x) is identically
    zero and (A+B)(x+1)/2 = B, so there the recurrence would only restate the
    shift (see ``jacobi``).  It is checked at x + 1 instead, where
    p*P_p = (a - a^p)(r + s)/2 is nonzero; the witness case records that x.
    Row r's vectors are row 1's at permuted points (see JacobiLink), so the
    shift holds at (r, s) iff at (1, s1), s1 = s/r, and the recurrence at
    (r, s) is that at (1, s1) under a -> r*a when p*P_p(r*a, s*a; x+1) is the
    image of the term at (1, s1).  Such a case is counted; any other case is
    computed as row 1's are, shift and recurrence.
    """
    half = inv_mod(2, p)
    lin = [FpPoly([0, u], p) for u in range(p)]  # the parameters u*a
    row1 = {}
    for r in range(1, p):
        a_poly = lin[r]
        for s in range(1, p):
            if (r + s) % p == 0:
                continue
            x = _linked_x(p, r, s)
            b_poly = lin[s]
            term = p_times_jacobi_p(p, a_poly, b_poly, x + 1)
            if r == 1:
                row1[s] = term
            elif term == row1[s * inv_mod(r, p) % p].subs_scale(r):
                yield None
                continue
            plain_vals = _jacobi_values(p, (r, 0), (s, 0), x)
            shifted_vals = _jacobi_values(p, (r, 0), (s, 1), x)
            if shifted_vals != plain_vals:
                yield _witness(
                    {"r": r, "s": s},
                    interpolate(shifted_vals, p),
                    interpolate(plain_vals, p),
                )
            x = (x + 1) % p
            plain, shifted = (
                interpolate(_jacobi_values(p, (r, 0), (s, b), x), p) for b in (0, 1)
            )
            lhs = (a_poly + b_poly) * ((x + 1) * half % p) * shifted
            rhs = b_poly * plain + term
            yield None if lhs == rhs else _witness(
                {"r": r, "s": s, "x": x, "identity": "parameter-shift recurrence"},
                lhs,
                rhs,
            )


def _reflection_values(p, s):
    """(label, value vector) of the three Jacobi values with A = a in the
    argument reflection at r = 1, in chain order; needs 1 <= s <= p-2."""
    x1 = _linked_x(p, 1, s)
    x2 = (s + 2) * inv_mod(s, p) % p
    return (
        ("P(a, s*a; (s-1)/(s+1))", _jacobi_values(p, (1, 0), (s, 0), x1)),
        ("P(a, (-s-1)*a + 1; (s+2)/s)", _jacobi_values(p, (1, 0), (-s - 1, 1), x2)),
        ("P(a, (-s-1)*a; (s+2)/s)", _jacobi_values(p, (1, 0), (-s - 1, 0), x2)),
    )


def _check_jacobi_reflection(p):
    """The argument reflection ties b[1,s] to b[1,p-1-s] through the chain

        b[1,s] = P(a, s*a; (s-1)/(s+1)) = P(a, (-s-1)*a + 1; (s+2)/s)
               = P(a, (-s-1)*a; (s+2)/s) = b[1,p-1-s].

    Compares value vectors link by link: every Jacobi sum here has degree at
    most p-1 in a, and both b's of record are checked to have degree at most
    p-1 first.  The witness names the first link whose sides differ, both
    interpolated back to polynomials.
    """
    for s in range(1, p - 1):
        _, head, bad = _b_record(p, 1, s)
        if bad:
            yield bad
        _, tail, bad = _b_record(p, 1, p - 1 - s)
        if bad:
            yield bad
        chain = [("b[1,s]", head), *_reflection_values(p, s), ("b[1,p-1-s]", tail)]
        for (left, lvals), (right, rvals) in zip(chain, chain[1:]):
            if lvals != rvals:
                yield _witness(
                    {"s": s, "link": f"{left} = {right}"},
                    interpolate(lvals, p),
                    interpolate(rvals, p),
                )
        yield None


# -- specialized product coefficients over F_{p^2} -------------------------------------
#
# Each sampled pair's system is built, solved and substituted in
# ``pairsystem``.  Its last block is triangular with a nonzero diagonal for
# every pair of the stream, so "no solution" means that block is not; a bad
# row elsewhere fails "solution fails an equation".


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


def check_pair_budget(pair_budget):
    """pair_budget if it is None (the default for the prime), "exhaustive" or
    an int >= 1; anything else (a bool, a float, another string) raises
    ValueError."""
    if pair_budget is None or pair_budget == "exhaustive" or (
        isinstance(pair_budget, int)
        and not isinstance(pair_budget, bool)
        and pair_budget >= 1
    ):
        return pair_budget
    raise ValueError(
        f"pair budget must be an int >= 1 or 'exhaustive', got {pair_budget!r}"
    )


def _check_c_coefficients(p, pair_budget=None, seed=0):
    field = ext_quadratic(p)
    pair_budget = check_pair_budget(pair_budget)
    if pair_budget is None:
        pair_budget = "exhaustive" if p <= 5 else 200
    layout = Layout.build(field)
    solved = 0
    for at, bt in _c_pairs(field, pair_budget, seed):
        case = {"alpha": at, "beta": bt}
        cols, rhs = pair_columns(field, at, bt, layout)
        sol = solve_pair(field, cols, rhs, layout)
        if sol is None:
            yield _witness(case, "no solution", "solvable system")
        if not substitutes(field, cols, rhs, sol, layout):
            yield _witness(case, "solution fails an equation", "all satisfied")
        solved += 1
        if p == 3:
            closed = _closed_forms_p3(field, at, bt)
            if sol != closed:
                yield _witness(case, sol, closed)
        yield None
    # a solved triangular block has rank p, so every solution is unique
    return f"unique solutions: {solved}/{solved}"


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

    The checker yields one outcome per case, None for a pass or a witness.
    The count is the number of outcomes up to and including the first
    witness; the checker is not resumed after one, and its return value is
    the report's notes only when it ran to the end.  A checker that yields
    no outcome would read as a vacuous pass; that raises RuntimeError.
    """
    check_odd_prime(p)
    tid = coerce_theorem(theorem)
    t0 = time.perf_counter()
    outcomes = _CHECKERS[tid](p, **overrides)
    cases, witness, notes = 0, None, None
    try:
        while witness is None:
            witness = next(outcomes)
            cases += 1
    except StopIteration as stop:
        notes = stop.value
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    if cases == 0:
        raise RuntimeError(f"{tid.value} checked no case at p={p}")
    status = "fail" if witness is not None else "pass"
    return VerifyReport(tid, p, cases, status, witness, elapsed_ms, notes)


def checker_options(tid: TheoremId, pair_budget, seed: int) -> dict:
    """The keyword arguments a run passes to tid's checker: CCoefficients
    takes the pair budget and the seed, and no other checker takes either."""
    if tid is TheoremId.CCoefficients:
        return {"pair_budget": pair_budget, "seed": seed}
    return {}


def verify_all(p: int, *, c_pairs=None, seed: int = 0):
    """Run every checker in declaration order; any exception propagates.

    Arguments are checked before any checker runs.
    """
    check_odd_prime(p)
    check_pair_budget(c_pairs)
    return [
        verify_theorem(p, tid, **checker_options(tid, c_pairs, seed))
        for tid in TheoremId
    ]


def verify_c_coefficients(p: int, pair_budget=None, seed: int = 0) -> VerifyReport:
    """Stand-alone entry for the specialized product-coefficient check."""
    return verify_theorem(
        p, TheoremId.CCoefficients, pair_budget=pair_budget, seed=seed
    )
