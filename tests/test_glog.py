"""The generalized truncated logarithm: construction, normal form, equations."""

import importlib
import random

import pytest

import g_side

from trunclog.bpoly import b_prefix_products
from trunclog.errors import PoleError, TheoremViolationError
from trunclog.fields import inv_mod
from trunclog.glog import (
    GLog,
    glog,
    glog_coeff_normal,
    glog_pole_table,
    glog_specialize,
    reciprocal_rhs,
)
from trunclog.polys import FpPoly, RatFn
from trunclog.quotient import XPoly, compose_mod, xpoly_to_grid
from trunclog.special import (
    alpha_p_minus_alpha,
    finite_polylog,
    laguerre_const,
    laguerre_pm1,
    laguerre_scaled,
)
from trunclog.verify import _power_inputs

GLOG_MOD = importlib.import_module("trunclog.glog")


class TestConstruction:
    def test_p3_closed_form(self):
        g = glog(3)
        assert g.coeff(1) == RatFn.const(-1, 3)
        assert g.coeff(2) == RatFn(FpPoly([2], 3), FpPoly([2, 1], 3))
        assert g.render_text() == "-X - X^2/(a + 2)"

    def test_p5_coefficient_of_x2(self):
        # -(1/2)/b[1,1] = -3/(3a^2+a+1), canonical 4/(a^2+2a+2)
        got = glog(5).coeff(2)
        assert got == RatFn(FpPoly([-3], 5), FpPoly([1, 1, 3], 5))
        assert got.num == FpPoly([4], 5)
        assert got.den == FpPoly([2, 2, 1], 5)

    def test_first_coefficient_is_minus_one(self):
        for p in (3, 5, 7, 11):
            assert glog(p).coeff(1) == RatFn.const(-1, p)

    def test_no_constant_term_and_degree(self):
        g = glog(7)
        x = g.as_xpoly()
        assert x.coeffs[0].is_zero
        assert len(x.coeffs) == 7 and not x.coeffs[6].is_zero

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            glog(2)

    def test_cached(self):
        assert glog(5) is glog(5)

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_with_coeff_rejects_an_index_out_of_range(self, k):
        # k = 0 and -1 would otherwise replace X^4's coefficient by list index
        with pytest.raises(ValueError, match="coefficient index out of range"):
            glog(5).with_coeff(k, RatFn.const(1, 5))


class TestConstructionGuard:
    """glog's left-inverse guard still fails on tampered input.

    ``glog.__wrapped__`` skips the per-prime cache; the power route keeps its
    result only for the inputs it was given, so nothing is read from the good
    ones.
    """

    glog_mod = importlib.import_module("trunclog.glog")

    def test_tampered_exponential_raises(self, monkeypatch):
        p = 5
        good = laguerre_pm1(p)
        bumped = XPoly([good.coeffs[0], good.coeffs[1] + 1] + list(good.coeffs[2:]), p)
        monkeypatch.setattr(self.glog_mod, "laguerre_pm1", lambda q: bumped)
        with pytest.raises(TheoremViolationError, match="left-inverse"):
            glog.__wrapped__(p)

    def test_tampered_prefix_products_raise(self, monkeypatch):
        p = 5
        good = self.glog_mod.b_prefix_products(p)
        bumped = good[:2] + (good[2] + 1,) + good[3:]
        monkeypatch.setattr(
            self.glog_mod, "b_prefix_products", lambda q, negate=False: bumped
        )
        with pytest.raises(TheoremViolationError, match="left-inverse"):
            glog.__wrapped__(p)

    def test_untampered_rebuild_passes(self):
        assert glog.__wrapped__(5) == glog(5)


class TestInverseIdentities:
    def test_left_inverse(self):
        for p in (3, 5, 7):
            c = RatFn.from_poly(alpha_p_minus_alpha(p))
            got = compose_mod(glog(p).as_xpoly(), laguerre_pm1(p), c)
            assert got == XPoly.x_power(p, 1, modulus=c)

    def test_right_inverse(self):
        # the literal composition L(G(X)), an oracle for the RightInverse
        # checker, which proves the identity without forming it
        for p in (3, 5, 7, 11, 13):
            c = RatFn.from_poly(laguerre_const(p))
            got = compose_mod(laguerre_pm1(p), glog(p).as_xpoly(), c)
            assert got == XPoly.x_power(p, 1, modulus=c)

    def test_uniqueness_spot_check(self):
        # perturbing any single coefficient by a nonzero constant breaks it
        p = 5
        c = RatFn.from_poly(alpha_p_minus_alpha(p))
        want = XPoly.x_power(p, 1, modulus=c)
        for k in (1, 2, 4):
            bad = glog(p).with_coeff(k, glog(p).coeff(k) + 1)
            got = compose_mod(bad.as_xpoly(), laguerre_pm1(p), c)
            assert got != want


def _constant_by_products(gk, q):
    """The constant c = G_k * q, or None, by two products: num = n*q against
    d*c, c read off the leads.  ``_times_to_constant`` must agree."""
    num, den = gk.num * q, gk.den
    c = num.lead * inv_mod(den.lead, q.p) if num.degree == den.degree else 0
    return c if num == den * c else None


def _left_inverse_oracle(g, lag, scaled, pre, bs):
    """``left_inverse_by_powers`` with the sum taken entry by entry: p FpPoly
    sums of c_k * L_k, compared with X's grid.  The packed sum must agree."""
    p = g.p
    if lag != scaled[0] or any(not c.den.is_one for x in scaled for c in x.coeffs):
        return False
    total = [FpPoly.zero(p)] * p
    for gk, q, x in zip(g.coeffs, pre, scaled, strict=True):
        c = _constant_by_products(gk, q)
        if c is None:
            return False
        total = [t + r.num * c for t, r in zip(total, x.coeffs)]
    x_grid = xpoly_to_grid(XPoly.x_power(p, 1))
    return total == x_grid and GLOG_MOD.power_route(p, scaled, pre, bs)[1] is None


def _entry_changed(x, changes):
    """A twin of the XPoly x with changes[e] added to its X^e entry."""
    coeffs = list(x.coeffs)
    for e, delta in changes.items():
        coeffs[e] = RatFn.from_poly(coeffs[e].num + delta)
    return XPoly(coeffs, x.p)


class TestPackedLeftInverse:
    """The packed sum of ``left_inverse_by_powers`` against the entry-by-entry
    oracle, on the records and on twins of L_k and G.  On the twins the power
    route is made to vouch for every input, so that the sum alone decides."""

    @staticmethod
    def _agree(g, scaled, p):
        pre, bs = _power_inputs(p)[1:]
        args = (g, scaled[0], scaled, pre, bs)
        got = GLOG_MOD.left_inverse_by_powers(*args)
        assert got == _left_inverse_oracle(*args)
        return got

    @staticmethod
    def _records(monkeypatch, p):
        """(G, L_1 .. L_(p-1)) of record, then a power route that vouches for
        every input and lists its reads, which are returned third."""
        g, records, reads = glog(p), tuple(laguerre_scaled(p, j) for j in range(1, p)), []
        monkeypatch.setattr(GLOG_MOD, "power_route", lambda *a: reads.append(a) or ((), None))
        return g, records, reads

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
    def test_records(self, p):
        scaled = tuple(laguerre_scaled(p, j) for j in range(1, p))
        assert self._agree(glog(p), scaled, p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_top_coefficient_twins(self, monkeypatch, p):
        # every entry of L_k, the longest (X^0, degree p - 1) included, with
        # its top coefficient moved; k = 1 moves lag with it
        g, records, reads = self._records(monkeypatch, p)
        for k in sorted({1, 2, p - 1}):
            x = records[k - 1]
            for e in range(p):
                top = FpPoly.monomial(1, x.coeffs[e].num.degree, p)
                scaled = records[:k - 1] + (_entry_changed(x, {e: top}),) + records[k:]
                assert not self._agree(g, scaled, p), (k, e)
        assert reads == []

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_entries_of_degree_p(self, monkeypatch, p):
        # a^p added to the X^e entry of L_k and taken back, times c_k / c_j,
        # from that of L_j: the sum stays X, and only a width read from the
        # records (p + 1 here) packs the longer entries without shifting
        g, records, reads = self._records(monkeypatch, p)
        pre = b_prefix_products(p)
        c = [(gk.num * q).lead * inv_mod(gk.den.lead, p) for gk, q in zip(g.coeffs, pre)]
        j, k = 1, p - 1
        for e in (0, 1, p - 1):
            scaled = list(records)
            scaled[k - 1] = _entry_changed(records[k - 1], {e: FpPoly.monomial(1, p, p)})
            scaled[j - 1] = _entry_changed(
                records[j - 1], {e: FpPoly.monomial(-c[k - 1] * inv_mod(c[j - 1], p), p, p)}
            )
            assert self._agree(g, tuple(scaled), p), e
            scaled[j - 1] = records[j - 1]
            assert not self._agree(g, tuple(scaled), p), e
        assert len(reads) == 6

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_g_twins(self, monkeypatch, p):
        g, records, reads = self._records(monkeypatch, p)
        for k in range(1, p):
            # c_k = 0: the term of L_k is left out of the sum
            assert not self._agree(g.with_coeff(k, RatFn.zero(p)), records, p), k
        assert reads == []
        # G_k doubled beside L_k halved keeps the sum at X, and only then is
        # the power route read
        for k in range(1, p):
            twin = g.with_coeff(k, g.coeff(k) * 2)
            half = XPoly([c * inv_mod(2, p) for c in records[k - 1].coeffs], p)
            assert self._agree(twin, records[:k - 1] + (half,) + records[k:], p), k
        assert len(reads) == 2 * (p - 1)

    def test_the_route_decides_a_matching_sum(self):
        # the same twin, on the honest route, fails there: the halved L_k
        # breaks the power formula
        p, k = 7, 3
        records = tuple(laguerre_scaled(p, j) for j in range(1, p))
        g = glog(p)
        twin = g.with_coeff(k, g.coeff(k) * 2)
        half = XPoly([c * inv_mod(2, p) for c in records[k - 1].coeffs], p)
        assert not self._agree(twin, records[:k - 1] + (half,) + records[k:], p)


class TestConstantShape:
    """``_times_to_constant`` reads G_k * q's shape off G_k's canonical form;
    the two products of ``_constant_by_products`` are its oracle."""

    @staticmethod
    def _agree(gk, q):
        got = GLOG_MOD._times_to_constant(gk, q)
        assert got == _constant_by_products(gk, q), (gk, q)
        return got

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("name", list(g_side.MUTATIONS))
    def test_g_side_twins(self, monkeypatch, p, name):
        import trunclog.verify as v

        g_side.apply(monkeypatch, name)
        g, pre = v.glog(p), v.b_prefix_products(p)
        for gk, q in zip(g.coeffs, pre, strict=True):
            self._agree(gk, q)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_random_canonical_fractions(self, p):
        rng = random.Random(p)

        def poly(deg):
            return FpPoly([rng.randrange(p) for _ in range(deg + 1)], p)

        seen = set()
        for _ in range(400):
            q = poly(rng.randrange(4)) if rng.randrange(5) else FpPoly.zero(p)
            n = poly(rng.randrange(3)) if rng.randrange(5) else FpPoly.zero(p)
            d = q if rng.randrange(2) and not q.is_zero else poly(rng.randrange(3))
            gk = RatFn(n, d if not d.is_zero else FpPoly.one(p))
            got = self._agree(gk, q)
            if q.is_zero:
                seen.add("q = 0")
            elif gk.is_zero:
                seen.add("n = 0")
            elif gk.num.degree > 0 and gk.den == q.monic():
                seen.add("non-constant n over q")
            elif got is None:
                seen.add("no constant")
            else:
                seen.add("constant")
        assert len(seen) == 5, seen


class TestSpecialization:
    def test_at_zero_is_minus_polylog(self):
        # negate inverses 1, 1/2, 1/3, 1/4 mod 5 -> 4X + 2X^2 + 3X^3 + X^4
        assert glog_specialize(glog(5), 0) == FpPoly([0, 4, 2, 3, 1], 5, "X")
        for p in (3, 7, 11):
            assert glog_specialize(glog(p), 0) == -finite_polylog(p, 1)

    def test_pole_reported_with_index(self):
        with pytest.raises(PoleError) as exc:
            glog_specialize(glog(3), 1)
        assert exc.value.index == 2
        assert exc.value.point == 1

    def test_p3_at_two(self):
        # (a+2) at a=2 is 4 = 1, so -X - X^2
        assert glog_specialize(glog(3), 2) == FpPoly([0, -1, -1], 3, "X")

    def test_matches_coefficientwise_evaluation(self):
        # oracle: evaluate coefficient k of G at a; the first pole names k
        for p in (3, 5, 7, 11, 13):
            g = glog(p)
            for a in range(p):
                vals, pole = [0], None
                for k in range(1, p):
                    den = g.coeff(k).den.eval_int(a)
                    if den == 0:
                        pole = k
                        break
                    vals.append(g.coeff(k).num.eval_int(a) * inv_mod(den, p) % p)
                if pole is None:
                    assert glog_specialize(g, a) == FpPoly(vals, p, "X")
                else:
                    with pytest.raises(PoleError) as exc:
                        glog_specialize(g, a)
                    assert (exc.value.index, exc.value.point) == (pole, a)

    def test_pole_table(self):
        assert glog_pole_table(3) == {2: (1,)}
        for p in (3, 5, 7):
            table = glog_pole_table(p)
            for k, points in table.items():
                assert 2 <= k <= p - 1
                assert 0 not in points  # a = 0 always evaluates


class TestNormalForm:
    def test_k_one_is_empty_product(self):
        num, e = glog_coeff_normal(5, 1)
        assert num == FpPoly([-1], 5)
        assert e == 0

    def test_p3_k2(self):
        # -(1/2) * b[1,1](-a) = -2(1+a) = (1+a) mod 3
        num, e = glog_coeff_normal(3, 2)
        assert num == FpPoly([1, 1], 3)
        assert e == 1

    def test_reduced_denominator_divides_w_power(self):
        for p in (3, 5, 7, 11):
            w = FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)
            for k in range(1, p):
                den = glog(p).coeff(k).den
                assert divmod(w ** (k - 1), den)[1].is_zero

    def test_normal_form_equals_coefficient(self):
        for p in (3, 5, 7):
            w = FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)
            for k in range(1, p):
                num, e = glog_coeff_normal(p, k)
                assert e == k - 1
                assert RatFn(num, w ** e) == glog(p).coeff(k)


def scaled(g, h):
    """G with a -> h*a in every coefficient, the oracle's substitution."""
    return GLog(g.p, [RatFn(c.num.subs_scale(h), c.den.subs_scale(h)) for c in g.coeffs])


class TestParameterSubstitution:
    def test_subs_scale_evaluates_consistently(self):
        g = glog(5)
        g2 = scaled(g, 2)
        for k in range(1, 5):
            for a in range(5):
                try:
                    want = g.coeff(k).eval(2 * a)
                except PoleError:
                    with pytest.raises(PoleError):
                        g2.coeff(k).eval(a)
                    continue
                assert g2.coeff(k).eval(a) == want


def times(x, s):
    """x with every coefficient multiplied by s (a RatFn, FpPoly or int)."""
    return XPoly([c * s for c in x.coeffs], x.p, x.modulus)


class TestReciprocal:
    def test_p3_matches_scaled_glog(self):
        # multiply the p=3 closed form by the factored constant
        lhs = times(glog(3).as_xpoly(), laguerre_const(3))
        assert reciprocal_rhs(3) == lhs

    def test_equation_all_small_primes(self):
        for p in (3, 5, 7, 11):
            lhs = times(glog(p).as_xpoly(), laguerre_const(p))
            assert reciprocal_rhs(p) == lhs

    def test_no_constant_term(self):
        for p in (3, 5, 7):
            assert reciprocal_rhs(p).coeffs[0].is_zero

    def test_specialize_at_zero_gives_reflected_polylog(self):
        # at a = 0 the equation collapses to the reflection of the truncated log
        for p in (3, 5, 7):
            assert reciprocal_rhs(p).specialize(0) == -finite_polylog(p, 1)


class TestPowerSubstitution:
    def test_power_identity_by_direct_composition(self):
        # independent of the verifier's cross-multiplied route: substitute
        # X^h / prod_{s<h} b[1,s] into the h-scaled logarithm with the
        # generic composition machinery and compare against h * G
        from trunclog.bpoly import b_prefix_products

        for p in (3, 5):
            lc = RatFn.from_poly(laguerre_const(p))
            pre = b_prefix_products(p)
            g = glog(p)
            for h in range(1, p):
                inner_coeffs = [RatFn.zero(p)] * p
                inner_coeffs[h] = RatFn(FpPoly.one(p), pre[h - 1])
                inner = XPoly(inner_coeffs, p)
                lhs = compose_mod(scaled(g, h).as_xpoly(), inner, lc)
                assert lhs == times(g.as_xpoly().with_modulus(lc), h), (p, h)

    def test_top_power_variant_by_direct_composition(self):
        for p in (3, 5):
            lc = RatFn.from_poly(laguerre_const(p))
            g = glog(p)
            w = FpPoly.one(p) - FpPoly.monomial(1, p - 1, p)
            inner_coeffs = [RatFn.zero(p)] * p
            inner_coeffs[p - 1] = RatFn(w, laguerre_const(p))
            inner = XPoly(inner_coeffs, p)
            lhs = compose_mod(scaled(g, p - 1).as_xpoly(), inner, lc)
            assert lhs == times(g.as_xpoly().with_modulus(lc), -1)


class TestRawConstructor:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GLog(5, [RatFn.zero(5)] * 3)

    def test_raw_constructor_skips_the_self_check(self):
        # deliberately broken coefficients construct fine; checkers catch them
        p = 5
        coeffs = [RatFn.const(1, p)] * (p - 1)
        g = GLog(p, coeffs)
        assert g.coeff(1) == RatFn.const(1, p)

    def test_json_shape(self):
        d = glog(3).to_json()
        assert d["prime"] == 3
        assert [c["power"] for c in d["coefficients"]] == [1, 2]
        assert d["coefficients"][1]["den"] == "a + 2"
