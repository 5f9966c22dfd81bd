"""Mutations of what the G-side checkers read, shared by the tests.

The G-side checkers are LeftInverse, RightInverse, PowerFormula and
Reciprocal.  Each mutation maps names that ``trunclog.verify`` reads at call
time to a wrapper of the original: a broken twin of G or of L, a tampered
modulus constant Lc, a bumped scaled exponential L_2, a doubled b[1,1], a
bumped prefix product and candidates G whose coefficients are not constants
over the prefix products.  ``test_verify.py`` holds each checker to its
direct oracle under every mutation; ``test_golden.py`` pins the reports byte
for byte.
"""

import json

import pytest

import trunclog.verify as v
from trunclog.polys import FpPoly, RatFn
from trunclog.quotient import XPoly

G_SIDE = ("LeftInverse", "RightInverse", "PowerFormula", "Reciprocal")


def _g_with_coeff2(orig, change):
    def glog(p):
        g = orig(p)
        return g.with_coeff(2, change(g.coeff(2), p))

    return glog


def _lag_with_coeff1(orig, change):
    def laguerre_pm1(p):
        coeffs = list(orig(p).coeffs)
        coeffs[1] = change(coeffs[1], p)
        return XPoly(coeffs, p)

    return laguerre_pm1


def _l2_bumped(orig):
    def laguerre_scaled(p, r):
        x = orig(p, r)
        if r != 2:
            return x
        return XPoly([x.coeffs[0] + 1] + list(x.coeffs[1:]), p)

    return laguerre_scaled


def _b11_doubled(orig):
    return lambda p, r, s: orig(p, r, s) * (2 if (r, s) == (1, 1) else 1)


def _pre_changed(at, change):
    def wrap(orig):
        def b_prefix_products(p, negate=False):
            pre = orig(p, negate)
            return pre if negate else pre[:at] + (change(pre[at]),) + pre[at + 1:]

        return b_prefix_products

    return wrap


# name: {name in trunclog.verify: wrapper of the original}
MUTATIONS = {
    "none": {},
    "G twin": {"glog": lambda orig: _g_with_coeff2(
        orig, lambda c, p: RatFn(c.num + 1, c.den))},
    "G without the c_k shape": {"glog": lambda orig: _g_with_coeff2(
        orig, lambda c, p: RatFn(c.num * FpPoly([1, 1], p), c.den))},
    # G_2 + 1/d^2 for G_2 = n/d: the leads of G_2 * pre[1] are those of the
    # constant c_2, but the product is not constant
    "G with the c_k leads only": {"glog": lambda orig: _g_with_coeff2(
        orig, lambda c, p: c + RatFn(FpPoly.one(p), c.den * c.den))},
    "L twin": {"laguerre_pm1": lambda orig: _lag_with_coeff1(
        orig, lambda c, p: c + 1)},
    "rational L twin": {"laguerre_pm1": lambda orig: _lag_with_coeff1(
        orig, lambda c, p: RatFn(c.as_poly(), FpPoly([1, 1], p)))},
    "Lc + 1": {"laguerre_const": lambda orig: lambda p: orig(p) + 1},
    "L_2 bumped": {"laguerre_scaled": _l2_bumped},
    "2*b[1,1]": {"b_rs": _b11_doubled},
    "2*pre[0]": {"b_prefix_products": _pre_changed(0, lambda f: f * 2)},
    "pre[2] + 1": {"b_prefix_products": _pre_changed(2, lambda f: f + 1)},
}


def apply(monkeypatch, name, mutations=MUTATIONS):
    """Patch trunclog.verify with the named mutation of a table."""
    for attr, wrap in mutations[name].items():
        monkeypatch.setattr(v, attr, wrap(getattr(v, attr)))


def report_json(p, theorem):
    """The JSON report of one checker run, elapsed_ms masked to 0."""
    out = v.verify_theorem(p, theorem).to_json_dict()
    out["elapsed_ms"] = 0
    return out


def golden_text(primes=(5, 7), mutations=MUTATIONS, theorems=G_SIDE):
    """The reports of the theorems under every mutation of a table, as a
    golden file holds them; by default the G side's."""
    entries = []
    for p in primes:
        for name in mutations:
            with pytest.MonkeyPatch.context() as mp:
                apply(mp, name, mutations)
                reports = [report_json(p, t) for t in theorems]
            entries.append({"prime": p, "mutation": name, "reports": reports})
    return json.dumps(entries, indent=2) + "\n"
