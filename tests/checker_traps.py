"""Mutations that make each multi-case checker fail after its first case.

A checker that ran more than one case reports how many it ran up to and
including the first failing one.  Each mutation below maps names that
``trunclog.verify`` reads at call time to a wrapper of the original, and at
p = 7 it fails at least one of the checkers in ``MULTI_CASE`` at a later
case: a changed b[r,s] on or off row 1, a squared b[1,2], a tampered Lc,
a flipped Lucas test, a bumped polylog reflection, a bumped link of the
Jacobi reflection chain and a pair system that goes wrong at its third
pair.  ``test_golden.py`` pins the reports byte for byte.
"""

from trunclog.polys import FpPoly

import g_side
import orbit

MULTI_CASE = (
    "LemmaProduct",
    "BConjugate",
    "RootsTheorem",
    "LucasCriterion",
    "Symmetry",
    "PowersFunctional",
    "SixSymmetries",
    "BAltAgreement",
    "JacobiReflection",
    "CCoefficients",
)


def _lucas_flipped(s0, a0):
    return lambda orig: lambda p, s, a: orig(p, s, a) != ((s, a) == (s0, a0))


def _reflection_bumped(s0):
    # the second value vector of the chain at s0, plus 1 at a = 0
    def wrap(orig):
        def _reflection_values(p, s):
            chain = list(orig(p, s))
            if s == s0:
                label, vals = chain[1]
                chain[1] = label, [(vals[0] + 1) % p, *vals[1:]]
            return tuple(chain)

        return _reflection_values

    return wrap


def _polylog_at_bumped(orig):
    # N(X - 1, X) + 1, SixSymmetries' fifth expression
    def _polylog_at(p, num, den):
        out = orig(p, num, den)
        return out + 1 if num == FpPoly([-1, 1], p, "X") else out

    return _polylog_at


def _solve_pair_on_call(n, change):
    def wrap(orig):
        calls = []

        def solve_pair(field, cols, rhs, layout):
            sol = orig(field, cols, rhs, layout)
            calls.append(1)
            return change(sol, field.p) if len(calls) == n else sol

        return solve_pair

    return wrap


def _first_bumped(sol, p):
    (c0, c1), *rest = sol
    return [((c0 + 1) % p, c1), *rest]


# name: {name in trunclog.verify: wrapper of the original}
MUTATIONS = {
    "none": {},
    "b[1,2] + 1": {"b_rs": orbit._b_changed(1, 2, lambda b, p: b + 1)},
    "b[1,2]^2": {"b_rs": orbit._b_changed(1, 2, lambda b, p: b * b)},
    "b[3,2] + 1": {"b_rs": orbit._b_changed(3, 2, lambda b, p: b + 1)},
    "b[3,2] + a^p - a": {"b_rs": orbit._b_changed(
        3, 2, lambda b, p: b + FpPoly.monomial(1, p, p) - FpPoly.x(p))},
    # h = 1 never reads Lc; h = 2 does from k = 4 on
    "2*Lc": {"laguerre_const": lambda orig: lambda p: orig(p) * 2},
    "Lucas flipped at (2,3)": {"b_root_lucas": _lucas_flipped(2, 3)},
    "N(X-1, X) + 1": {"_polylog_at": _polylog_at_bumped},
    "reflection link 2 bumped at s=3": {"_reflection_values": _reflection_bumped(3)},
    "no solution at pair 3": {"solve_pair": _solve_pair_on_call(3, lambda sol, p: None)},
    "wrong solution at pair 3": {"solve_pair": _solve_pair_on_call(3, _first_bumped)},
}


def golden_text(primes=(7,)):
    """The multi-case checkers' reports under every mutation, as the golden
    file holds them."""
    return g_side.golden_text(primes, MUTATIONS, MULTI_CASE)
