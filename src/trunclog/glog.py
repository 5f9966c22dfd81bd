"""The generalized truncated logarithm G(X) and its companions.

G(X) is the unique polynomial of degree < p over F_p(a) with

    G(L(X)) = X   modulo X^p - (a^p - a),

where L is the parametric exponential analogue from ``special``.  Its
coefficient of X^k is -(1/k) / prod_{s<k} b[1,s](a); there is no constant
term, the coefficient of X is -1, and at a = 0 the whole thing collapses to
minus the truncated logarithm.

``glog`` verifies the defining inverse identity at construction as
G(L) = sum_k c_k * L_k by the power formula (``left_inverse_by_powers``, on
``power_route``'s one run, which the checkers share), and caches the result
per prime.  Each c_k = G_k * pre[k-1] is read off G_k's canonical form with
no product (``_times_to_constant``).  The sum is packed: each L_k grid is one
int with entry (e, d) in slot e * width + d, so sum_k c_k * L_k is one big-int
sum, checked slot by slot mod p; a slot holds at most (p-1)^2 * (p-1), which
sets its width.  The raw ``GLog`` constructor performs no check, which is what
the mutation tests use to build deliberately broken twins.  ``trunclog.glog``
is that function, re-exported over this module's name; the module itself is
``importlib.import_module("trunclog.glog")``.

In normal form the k-th coefficient is N_k(a) / (1 - a^(p-1))^(k-1) with
N_k = -(1/k) * prod_{s<k} b[1,s](-a); ``glog_coeff_normal`` returns that pair
and asserts it against the reduced coefficient.

Whether a nonzero specialization point a is a pole of some coefficient is a
question this module measures rather than decides: ``glog_pole_table``
reports the offending (k, a) pairs and asserts nothing.
"""

from __future__ import annotations

from .errors import TheoremViolationError
from .bpoly import b_prefix_products, b_rs
from .fields import check_odd_prime, inv_mod, per_prime
from .polys import FpPoly, RatFn, _pack, _slot_typecode, _slots
from .quotient import XPoly, compose_mod, grid_mulmod, xpoly_to_grid
from .special import alpha_p_minus_alpha, laguerre_pm1, laguerre_scaled, w_poly


class GLog:
    """Coefficients of X^1 .. X^(p-1) of the generalized truncated logarithm."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        check_odd_prime(p)
        coeffs = tuple(coeffs)
        if len(coeffs) != p - 1:
            raise ValueError(f"expected {p - 1} coefficients, got {len(coeffs)}")
        if any(c.p != p for c in coeffs):
            raise ValueError("coefficient modulus disagrees with p")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("GLog is immutable")

    def _index(self, k: int) -> int:
        if not 1 <= k <= self.p - 1:
            raise ValueError(f"coefficient index out of range: {k}")
        return k - 1

    def coeff(self, k: int) -> RatFn:
        """Coefficient of X^k, 1 <= k <= p-1."""
        return self.coeffs[self._index(k)]

    def as_xpoly(self) -> XPoly:
        return XPoly((RatFn.zero(self.p),) + self.coeffs, self.p)

    def with_coeff(self, k: int, value: RatFn) -> "GLog":
        """A copy with coefficient k, 1 <= k <= p-1, replaced; used to build
        broken twins."""
        new = list(self.coeffs)
        new[self._index(k)] = value
        return GLog(self.p, new)

    def __eq__(self, other):
        if not isinstance(other, GLog):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def render_text(self) -> str:
        """Signed rendering such as '-X - X^2/(a + 2)' (every term is negative)."""
        terms = []
        for k in range(1, self.p):
            c = -self.coeff(k)
            xs = "X" if k == 1 else f"X^{k}"
            num = str(c.num)
            body = xs if num == "1" else f"{num}*{xs}"
            if not c.den.is_one:
                body += f"/({c.den})"
            terms.append(body)
        return "-" + " - ".join(terms)

    def to_json(self) -> dict:
        return {
            "prime": self.p,
            "variable": "a",
            "coefficients": [
                {"power": k, "num": str(self.coeff(k).num), "den": str(self.coeff(k).den)}
                for k in range(1, self.p)
            ],
        }

    def __str__(self):
        return self.render_text()

    def __repr__(self):
        return f"GLog(p={self.p}, {self.render_text()})"


@per_prime
def glog(p: int) -> GLog:
    """Build G(X) and assert the left-inverse identity before returning."""
    pre = b_prefix_products(p)
    coeffs = [
        RatFn(FpPoly.const(-inv_mod(k, p), p), pre[k - 1]) for k in range(1, p)
    ]
    g = GLog(p, coeffs)
    lag = laguerre_pm1(p)
    scaled = tuple(laguerre_scaled(p, j) for j in range(1, p))
    bs = tuple(b_rs(p, 1, s) for s in range(1, p - 1))
    if not left_inverse_by_powers(g, lag, scaled, pre, bs):
        got = left_inverse_lhs(g, lag)
        if got != XPoly.x_power(p, 1, modulus=got.modulus):
            raise TheoremViolationError(f"left-inverse construction fails at p={p}")
    return g


def left_inverse_lhs(g: GLog, lag: XPoly) -> XPoly:
    """G(L(X)) mod X^p - (a^p - a) by ``compose_mod``, uncached."""
    return compose_mod(g.as_xpoly(), lag, RatFn.from_poly(alpha_p_minus_alpha(g.p)))


def left_inverse_by_powers(g: GLog, lag: XPoly, scaled, pre, bs) -> bool:
    """True when G(L(X)) = X mod X^p - (a^p - a) follows from the power
    formula lag^k = pre[k-1] * L_k (``power_route``): if each G_k * pre[k-1]
    is a constant c_k, G(L) = sum_k c_k * L_k.  Only lag = scaled[0], L_1 of
    record, is read on the route; a twin lag is left to composition.

    The sum is packed: entry (e, d), the a^d coefficient of X^e, of every L_k
    sits in slot e * width + d of one int, width the longest entry of record,
    and sum_k c_k * L_k is one big-int sum, compared slot by slot mod p with
    X's grid.  A slot sums at most p - 1 products of two residues, so it
    holds at most (p-1)^2 * (p-1); that fixes the slot width.
    """
    p = g.p
    if lag != scaled[0] or any(not c.den.is_one for x in scaled for c in x.coeffs):
        return False
    terms = []
    for gk, q, x in zip(g.coeffs, pre, scaled, strict=True):
        c = _times_to_constant(gk, q)
        if c is None:
            return False
        if c:
            terms.append((c, x))
    # all-zero records leave width 0; one slot per entry still holds X's 1
    width = max(len(c.num.coeffs) for x in scaled for c in x.coeffs) or 1
    tc = _slot_typecode(len(terms) * (p - 1) * (p - 1))
    pad = (0,) * width
    total = 0
    for c, x in terms:
        flat = []
        for entry in x.coeffs:
            flat += entry.num.coeffs
            flat += pad[len(entry.num.coeffs):]
        total += c * _pack(flat, tc)
    sums = [s % p for s in _slots(total, p * width, tc)]
    x_grid = [int(i == width) for i in range(p * width)]  # X: slot (1, 0) is 1
    return sums == x_grid and power_route(p, scaled, pre, bs)[1] is None


def _times_to_constant(gk: RatFn, q: FpPoly):
    """c = G_k * q when that is a constant, else None.  Exact on the canonical
    form G_k = n/d, d monic and coprime to n: n*q = c*d with c != 0 forces d
    to divide q, say q = m*d; then n*m = c makes n and m constants, and
    m = lead(q) as d is monic."""
    n, d = gk.num, gk.den
    if q.is_zero or n.is_zero:
        return 0
    if n.degree == 0 and d == q.monic():
        return n.lead * q.lead % q.p
    return None


@per_prime
def power_route(p: int, scaled: tuple, pre: tuple, bs: tuple):
    """(steps, failure) of the power formula L_1^j = pre[j-1] * L_j mod X^p -
    (a^p - a), scaled = (L_1 ..), pre[k] = prod_{s<=k} b[1,s], bs = (b[1,1]
    ..); one run per set of records, for glog()'s guard and the checkers.
    steps flags, for every j = 2..p-1, the step L_1 * L_(j-1) = b[1,j-1] * L_j,
    LemmaProduct's case (1, j-1).  failure is (j, L_1^j as a grid) for the
    first failing j, or None: case j >= 2 follows from case j-1, the step and
    pre[j-1] = pre[j-2] * b[1,j-1], and where either fails it is compared on
    L_1^j = pre[j-2] * (L_1 * L_(j-1)), the step's own product.
    """
    cpoly = alpha_p_minus_alpha(p)
    grids = [xpoly_to_grid(x) for x in scaled]
    base = grids[0]
    failure = None if base == [pre[0] * x for x in base] else (1, base)
    steps = []
    for j in range(2, p):
        step = grid_mulmod(base, grids[j - 2], cpoly, p)
        steps.append(step == [bs[j - 2] * x for x in grids[j - 1]])
        if failure is None and not (steps[-1] and pre[j - 1] == pre[j - 2] * bs[j - 2]):
            power = [pre[j - 2] * x for x in step]
            if power != [pre[j - 1] * x for x in grids[j - 1]]:
                failure = j, power
    return tuple(steps), failure


def glog_coeff_normal(p: int, k: int):
    """Normal form (N_k, k-1) with coefficient_k = N_k / (1 - a^(p-1))^(k-1).

    N_k = -(1/k) * prod_{s<k} b[1,s](-a); the pair is asserted equal to the
    reduced coefficient before returning.
    """
    check_odd_prime(p)
    if not 1 <= k <= p - 1:
        raise ValueError(f"coefficient index out of range: {k}")
    pre_neg = b_prefix_products(p, negate=True)
    num = pre_neg[k - 1] * (-inv_mod(k, p))
    w = w_poly(p)
    coeff = glog(p).coeff(k)
    # cross-multiplied comparison: num / w^(k-1) == coeff.num / coeff.den
    if num * coeff.den != coeff.num * w ** (k - 1):
        raise TheoremViolationError(
            f"normal form of coefficient {k} disagrees at p={p}"
        )
    return num, k - 1


def glog_specialize(g: GLog, a) -> FpPoly:
    """Substitute the parameter value a; PoleError names the offending k."""
    return g.as_xpoly().specialize(a)


def glog_pole_table(p: int):
    """Measured pole locations: {k: sorted tuple of a in F_p* with a pole}.

    Reported, never asserted; whether poles survive reduction at a given
    point is read off the reduced denominators.
    """
    g = glog(p)
    out = {}
    for k in range(1, p):
        den = g.coeff(k).den
        poles = tuple(a for a in range(1, p) if den.eval_int(a) == 0)
        if poles:
            out[k] = poles
    return out


def _reciprocal_terms(p: int):
    """``reciprocal_rhs``'s coefficients as unreduced (num, den) pairs."""
    pre_neg, w, wk = b_prefix_products(p, negate=True), w_poly(p), FpPoly.one(p)
    terms = [(FpPoly.zero(p), FpPoly.one(p))] * p
    for k in range(1, p):
        wk = wk * w
        terms[p - k] = (wk * inv_mod(k, p), pre_neg[k - 1])
    return terms


def reciprocal_rhs(p: int) -> XPoly:
    """The reflected side -X^p * G_(-a)((1 - a^(p-1)) / X) of the reciprocal
    equation, expanded by formal substitution.

    Term k of G contributes (1/k) * (1 - a^(p-1))^k * X^(p-k) divided by
    prod_{s<k} b[1,s](-a); no constant term of G means no X^p survives, so
    the result is a genuine polynomial of degree <= p-1 in X.  It equals
    laguerre_const(p) * G(X) identically; the verifier checks that.
    """
    check_odd_prime(p)
    return XPoly([RatFn(num, den) for num, den in _reciprocal_terms(p)], p)
