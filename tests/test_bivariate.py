"""Model addition, the product rule, and derived subtraction/division."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import coeffs, make_model, mid, random_model_for_atom, unit_domain
from isarith.bivariate import (
    _CAP_SLACK,
    add_models,
    div_models,
    mul_models,
    product_workspace,
    scalar_affine,
    sub_models,
)
from isarith.interval import Interval, ZeroInDomain
from isarith.model import Domain, DomainMismatch, init_constant, init_variable
from isarith.univariate import Atom, compose


def random_pair(rng, n, branches):
    a = random_model_for_atom(rng, Atom.SQR, n, branches)
    b = random_model_for_atom(rng, Atom.SQR, n, branches)
    return a, b


class TestAdd:
    def test_two_variables(self):
        d = Domain.of([(0, 1), (0, 1)], branches=1)
        s = add_models(init_variable(d, 0), init_variable(d, 1))
        rb = s.range_bounds()
        assert (rb.lo, rb.hi) == (0.0, 2.0)

    def test_zero_constant_is_identity(self):
        rng = np.random.default_rng(2)
        m = random_model_for_atom(rng, Atom.SQR, 2, 3)
        s = add_models(m, init_constant(m.domain, 0.0))
        assert coeffs(s) == coeffs(m)

    def test_range_additivity(self):
        # sum range never exceeds the sum of ranges; equal when every row
        # attains its extremes on the same branch, e.g. with a single branch
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b = random_pair(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            ra, rbb, rs = a.range_bounds(), b.range_bounds(), add_models(a, b).range_bounds()
            assert rs.lo >= ra.lo + rbb.lo - 1e-12
            assert rs.hi <= ra.hi + rbb.hi + 1e-12
        for _ in range(30):
            a, b = random_pair(rng, int(rng.integers(1, 4)), 1)
            ra, rbb, rs = a.range_bounds(), b.range_bounds(), add_models(a, b).range_bounds()
            assert abs(rs.lo - (ra.lo + rbb.lo)) < 1e-12
            assert abs(rs.hi - (ra.hi + rbb.hi)) < 1e-12

    def test_commutes_and_associates_at_range_level(self):
        rng = np.random.default_rng(6)
        a, b = random_pair(rng, 3, 2)
        c = random_model_for_atom(rng, Atom.SQR, 3, 2)
        r1 = add_models(add_models(a, b), c).range_bounds()
        r2 = add_models(a, add_models(c, b)).range_bounds()
        assert abs(r1.lo - r2.lo) < 1e-12 and abs(r1.hi - r2.hi) < 1e-12

    def test_domain_mismatch(self):
        d1 = Domain.of([(0, 1)], branches=2)
        d2 = Domain.of([(0, 1)], branches=3)
        with pytest.raises(DomainMismatch):
            add_models(init_variable(d1, 0), init_variable(d2, 0))


class TestMul:
    def test_unit_square_one_row(self):
        d = Domain.of([(0, 1)], branches=1)
        m = init_variable(d, 0)
        p = mul_models(m, m)
        w = product_workspace(m, m)
        assert w.remainder == 0.0
        assert p.const == Interval(0.25, 0.25)
        e = coeffs(p)[0][0] + p.const
        assert e.lo <= 0.0 and e.hi >= 1.0
        assert e.lo > -1e-12 and e.hi < 1.0 + 1e-12

    def test_two_axis_worked_product(self):
        # x1 in [0,1] times x2 in [0,2], one branch
        d = Domain.of([(0, 1), (0, 2)], branches=1)
        a = init_variable(d, 0)
        b = init_variable(d, 1)
        w = product_workspace(a, b)
        assert (mid(w.alpha), mid(w.beta)) == (0.5, 1.0)
        assert w.remainder == pytest.approx(0.5, abs=1e-12)
        p = mul_models(a, b)
        assert p.const == Interval(0.5, 0.5)
        first = coeffs(p)[0][0]
        second = coeffs(p)[1][0]
        # remainder goes to the first row on an average-diameter tie
        assert first.lo == pytest.approx(-1.0, abs=1e-12)
        assert first.hi == pytest.approx(1.0, abs=1e-12)
        assert second.lo == pytest.approx(-0.5, abs=1e-12)
        assert second.hi == pytest.approx(0.5, abs=1e-12)
        rb = p.range_bounds()
        assert rb.lo == pytest.approx(-1.0, abs=1e-12)
        assert rb.hi == pytest.approx(2.0, abs=1e-12)

    def test_constant_factor_keeps_zero_remainder(self):
        rng = np.random.default_rng(8)
        m = random_model_for_atom(rng, Atom.SQR, 2, 3)
        c = init_constant(m.domain, 2.5)
        w = product_workspace(m, c)
        assert w.remainder == 0.0
        rb_m = m.range_bounds()
        rb_p = mul_models(m, c).range_bounds()
        assert rb_p.lo == pytest.approx(2.5 * rb_m.lo, rel=1e-12, abs=1e-12)
        assert rb_p.hi == pytest.approx(2.5 * rb_m.hi, rel=1e-12, abs=1e-12)

    def test_soundness_by_sampling(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, cap = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a, b = random_pair(rng, n, cap)
            p = mul_models(a, b)
            for _ in range(50):
                js = rng.integers(0, cap, size=n)
                ys = [rng.uniform(coeffs(a)[i][j].lo, coeffs(a)[i][j].hi) for i, j in enumerate(js)]
                zs = [rng.uniform(coeffs(b)[i][j].lo, coeffs(b)[i][j].hi) for i, j in enumerate(js)]
                target = sum(ys) * sum(zs)
                window = p.const
                for i, j in enumerate(js):
                    window = window + coeffs(p)[i][j]
                assert window.contains(target)

    def test_inner_bound_fuzz(self):
        # |(sum dy)(sum dz) - sum dy dz| <= R over admissible offsets
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a, b = random_pair(rng, n, int(rng.integers(1, 4)))
            w = product_workspace(a, b)
            ra = np.array(w.radii_a)
            rbb = np.array(w.radii_b)
            dy = rng.uniform(-ra, ra, size=(500, n))
            dz = rng.uniform(-rbb, rbb, size=(500, n))
            lhs = np.abs(dy.sum(1) * dz.sum(1) - (dy * dz).sum(1))
            assert lhs.max() <= w.remainder * (1 + 1e-12) + 1e-14

    def test_quarter_width_cap(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            a, b = random_pair(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            w = product_workspace(a, b)
            ra, rbb = a.range_bounds(), b.range_bounds()
            cap = 0.25 * (ra.hi - ra.lo) * (rbb.hi - rbb.lo)
            assert w.remainder <= cap * (1 + 1e-10) + 1e-300

    @pytest.mark.parametrize("lo", [-1.1454123247037766, 1.0, -1.0, 3e5, -7.5e-8])
    @pytest.mark.parametrize("ulps", [1, 2, 3])
    def test_cap_allows_the_ulps_the_centering_loses(self, lo, ulps):
        # a row a few ulps wide cannot hold its midpoint: its float center is
        # a float of the row, and its radius exceeds half the width unless
        # the width is an even number of ulps.  The radius stays below half
        # the width plus 4 ulps of the row's larger end, and the cap allows 8
        # of them on each range width
        hi = lo
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        d = Domain.of([(0.0, 1.0), (0.0, 1.0)], branches=2)
        a = make_model(d, [[(lo, hi)] * 2, [(0.0, 0.0)] * 2])
        b = make_model(d, [[(0.0, 0.0)] * 2, [(lo, hi)] * 2])
        w = product_workspace(a, b)
        width, u = Fraction(hi) - Fraction(lo), Fraction(math.ulp(max(abs(lo), abs(hi))))
        r = Fraction(w.radii_a[0])
        assert r == Fraction(w.radii_b[1]) == {1: width, 2: width / 2, 3: 2 * width / 3}[ulps]
        assert width / 2 <= r < width / 2 + 4 * u
        remainder = Fraction(w.remainder)
        assert remainder == r * r  # one cross product, exact at these magnitudes
        assert remainder <= (width + 8 * u) ** 2 / 4
        # the exact-arithmetic cap is too small for an odd number of ulps
        assert (remainder > width**2 / 4 * (1 + Fraction(_CAP_SLACK))) == (ulps % 2 == 1)

    def test_same_axis_separable_factors_have_zero_remainder(self):
        d = Domain.of([(0, 1), (0, 1), (0, 1)], branches=2)
        rng = np.random.default_rng(16)
        for _ in range(20):
            rows_a, rows_b = [], []
            for i in range(3):
                if i == 1:
                    lo = rng.uniform(-1, 1, size=2)
                    w = rng.uniform(0.1, 0.5, size=2)
                    rows_a.append(list(zip(lo, lo + w)))
                    lo = rng.uniform(-1, 1, size=2)
                    w = rng.uniform(0.1, 0.5, size=2)
                    rows_b.append(list(zip(lo, lo + w)))
                else:
                    c1, c2 = rng.uniform(-1, 1, size=2)
                    rows_a.append([(c1, c1)] * 2)
                    rows_b.append([(c2, c2)] * 2)
            a = make_model(d, rows_a)
            b = make_model(d, rows_b)
            assert product_workspace(a, b).remainder == 0.0


class TestSubDiv:
    def test_self_subtraction_stays_bounded_but_wide(self):
        d = Domain.of([(0, 1)], branches=10)
        m = init_variable(d, 0)
        rb = sub_models(m, m).range_bounds()
        width = m.range_bounds().hi - m.range_bounds().lo
        assert rb.lo >= -width - 1e-12 and rb.hi <= width + 1e-12
        assert rb.lo < 0 < rb.hi  # the dependency is not tracked

    def test_div_by_constant_halves(self):
        rng = np.random.default_rng(18)
        m = random_model_for_atom(rng, Atom.SQR, 2, 2)
        q = div_models(m, init_constant(m.domain, 2.0))
        rb_m, rb_q = m.range_bounds(), q.range_bounds()
        assert rb_q.lo == pytest.approx(rb_m.lo / 2, rel=1e-9, abs=1e-9)
        assert rb_q.hi == pytest.approx(rb_m.hi / 2, rel=1e-9, abs=1e-9)

    def test_div_by_zero_spanning_model(self):
        d = Domain.of([(-1, 1), (0, 1)], branches=2)
        with pytest.raises(ZeroInDomain):
            div_models(init_variable(d, 1), init_variable(d, 0))

    def test_div_sound_by_sampling(self):
        d = Domain.of([(1.0, 3.0), (0.5, 2.0)], branches=4)
        num = init_variable(d, 0)
        den = init_variable(d, 1)
        q = div_models(num, den)
        rng = np.random.default_rng(20)
        for _ in range(300):
            x = (rng.uniform(1, 3), rng.uniform(0.5, 2))
            assert q.evaluate(x).contains(x[0] / x[1])


class TestScalarAffine:
    def test_identity(self):
        rng = np.random.default_rng(22)
        m = random_model_for_atom(rng, Atom.SQR, 2, 2)
        assert coeffs(scalar_affine(m, 1.0, 0.0)) == coeffs(m)

    def test_negation_matches_neg_atom(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m = random_model_for_atom(rng, Atom.SQR, int(rng.integers(1, 4)), 2)
            a = scalar_affine(m, -1.0).range_bounds()
            b = compose(Atom.NEG, m).range_bounds()
            assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_zero_scale_gives_constant(self):
        d = unit_domain(2, 3)
        m = init_variable(d, 1)
        c = scalar_affine(m, 0.0, 5.0)
        rb = c.range_bounds()
        assert (rb.lo, rb.hi) == (5.0, 5.0)
        assert c.const == Interval(5.0, 5.0)
        assert all(e == Interval(0.0, 0.0) for row in coeffs(c) for e in row)

    def test_affine_evaluation(self):
        d = Domain.of([(0, 2)], branches=4)
        m = scalar_affine(init_variable(d, 0), 3.0, -1.0)
        rng = np.random.default_rng(26)
        for x in rng.uniform(0, 2, size=200):
            assert m.evaluate((x,)).contains(3.0 * x - 1.0)
