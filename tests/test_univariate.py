"""Composition rule: central points, remainder bounds, soundness."""

import math

import mpmath
import numpy as np
import pytest

from conftest import (
    admissible_offsets,
    coeffs,
    defect_noise_floor,
    defect_values,
    make_model,
    mid,
    random_model_for_atom,
    random_separable_model,
    unit_domain,
)
from isarith.interval import DomainViolation, Interval, ZeroInDomain
from isarith.model import Domain, init_constant, init_variable
from isarith.univariate import (
    Atom,
    central_points,
    compose,
    cot_model,
    pow_model,
    recip_model,
    remainder_bound,
    sqrt_model,
)

mpmath.mp.dps = 40

ALL_ATOMS = list(Atom)


class TestCentralPoints:
    def test_exp_center_is_log_mean_of_exponentials(self):
        m = make_model(unit_domain(1, 1), [[(0.0, 1.0)]])
        w = central_points(Atom.EXP, m)
        expected = float(mpmath.log((mpmath.e + 1) / 2))  # 0.62011450695...
        assert abs(w.centers[0] - expected) < 1e-12
        assert w.omega.contains(w.centers[0])

    def test_exp_past_the_largest_float_centers_then_raises(self):
        # e^709.8 overflows: the center is taken relative to the upper end,
        # and the composition raises only on the windows that reach past it
        m = make_model(unit_domain(1, 1), [[(0.0, 709.8)]])
        a = central_points(Atom.EXP, m).centers[0]
        assert abs(a - (709.8 - math.log(2.0))) < 1e-12
        with pytest.raises(OverflowError):
            compose(Atom.EXP, m)

    @pytest.mark.parametrize("lo, hi", [(-900.0, -800.0), (-1e308, -1e300), (-1e308, 1e300)])
    def test_exp_center_where_an_exponential_leaves_the_floats(self, lo, hi):
        a = central_points(Atom.EXP, make_model(unit_domain(1, 1), [[(lo, hi)]])).centers[0]
        assert lo <= a <= hi and a >= hi - math.log(2.0) - 1e-9 * abs(hi)

    def test_midpoint_atoms(self):
        m = make_model(unit_domain(1, 1), [[(0.0, 1.0)]])
        for atom in (Atom.SQR, Atom.SIN, Atom.COS, Atom.LOG, Atom.TAN, Atom.NEG):
            assert central_points(atom, m).centers[0] == 0.5

    def test_degenerate_row_center_is_its_value(self):
        m = make_model(unit_domain(2, 2), [[(0.0, 1.0), (0.5, 1.5)], [(0.7, 0.7), (0.7, 0.7)]])
        for atom in ALL_ATOMS:
            w = central_points(atom, m)
            assert w.centers[1] == 0.7
            assert w.spreads[1] == 0.0

    def test_centers_stay_inside_row_hulls(self):
        rng = np.random.default_rng(3)
        for atom in ALL_ATOMS:
            for _ in range(20):
                m = random_model_for_atom(rng, atom, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                rb = m.range_bounds()
                w = central_points(atom, m)
                for a, lo, hi in zip(w.centers, rb.row_lo, rb.row_hi):
                    assert lo <= a <= hi

    def test_inv_center_weighting(self):
        # one row: center collapses to the midpoint-free formula value L=U mix
        m = make_model(unit_domain(2, 1), [[(1.0, 2.0)], [(3.0, 4.0)]])
        rb = m.range_bounds()
        w = central_points(Atom.INV, m)
        lam, mu = rb.lo, rb.hi  # 4, 6
        for i, (lo, hi) in enumerate(zip(rb.row_lo, rb.row_hi)):
            expected = (lo * mu + hi * lam) / (lam + mu)
            assert abs(w.centers[i] - expected) < 1e-12


class TestRemainderBound:
    def test_square_two_unit_rows(self):
        m = make_model(unit_domain(2, 1), [[(0.0, 1.0)], [(0.0, 1.0)]])
        w = central_points(Atom.SQR, m)
        r = remainder_bound(Atom.SQR, m, w)
        # oracle: the defect for squares is |2 d1 d2|, maximal at the corners
        corners = [(a, b) for a in (-0.5, 0.5) for b in (-0.5, 0.5)]
        oracle = max(abs(2 * a * b) for a, b in corners)
        assert oracle == 0.5
        assert r >= oracle
        assert r <= oracle + 1e-12

    def test_separable_models_have_zero_remainder(self):
        rng = np.random.default_rng(5)
        for atom in ALL_ATOMS:
            for _ in range(10):
                m = random_separable_model(rng, atom, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
                w = central_points(atom, m)
                assert remainder_bound(atom, m, w) == 0.0

    def test_exp_two_unit_rows_matches_closed_form(self):
        m = make_model(unit_domain(2, 1), [[(0.0, 1.0)], [(0.0, 1.0)]])
        w = central_points(Atom.EXP, m)
        r = remainder_bound(Atom.EXP, m, w)
        s = (mpmath.e - 1) / (mpmath.e + 1)
        omega = 2 * mpmath.log((mpmath.e + 1) / 2)
        expected = float(mpmath.e**omega * s * s)  # product form for n = 2
        assert r >= expected - 1e-15
        assert r <= expected * (1 + 1e-10)

    @pytest.mark.parametrize("atom", ALL_ATOMS)
    def test_defect_never_exceeds_bound(self, atom):
        rng = np.random.default_rng(hash(atom.value) % 2**32)
        for _ in range(25):
            m = random_model_for_atom(rng, atom, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            w = central_points(atom, m)
            r = remainder_bound(atom, m, w)
            deltas = admissible_offsets(m, w.centers, rng, trials=2000)
            worst = defect_values(atom, mid(w.omega), deltas).max()
            assert worst <= r + defect_noise_floor(atom, mid(w.omega), deltas)

    def test_log_bound_blows_up_on_very_wide_models(self):
        from isarith.univariate import RemainderUnbounded

        m = make_model(unit_domain(2, 1), [[(0.1, 10.0)], [(0.1, 10.0)]])
        w = central_points(Atom.LOG, m)
        with pytest.raises(RemainderUnbounded):
            remainder_bound(Atom.LOG, m, w)

    def test_quadratic_local_decay(self):
        # shrinking the row widths by t shrinks the bound like t^2
        for atom in (Atom.EXP, Atom.SIN, Atom.SQR):
            ratios = []
            for t in (1.0, 0.5, 0.25, 0.125):
                rows = [
                    [(0.3 - 0.4 * t, 0.3 + 0.4 * t)],
                    [(-0.2 - 0.3 * t, -0.2 + 0.3 * t)],
                ]
                m = make_model(unit_domain(2, 1), rows)
                rb = m.range_bounds()
                w = central_points(atom, m)
                r = remainder_bound(atom, m, w)
                width = rb.hi - rb.lo
                ratios.append(r / width**2)
            assert all(q <= 2.0 * ratios[0] + 1e-12 for q in ratios)


class TestCompose:
    def test_neg_mirrors_exactly(self):
        d = Domain.of([(0, 1), (0, 2)], branches=3)
        m = init_variable(d, 1)
        nm = compose(Atom.NEG, m)
        assert coeffs(nm) == tuple(tuple(-e for e in row) for row in coeffs(m))
        rb, nrb = m.range_bounds(), nm.range_bounds()
        assert (nrb.lo, nrb.hi) == (-rb.hi, -rb.lo)

    def test_neg_twice_is_identity(self):
        rng = np.random.default_rng(9)
        m = random_model_for_atom(rng, Atom.NEG, 3, 4)
        assert coeffs(compose(Atom.NEG, compose(Atom.NEG, m))) == coeffs(m)

    def test_exp_on_separable_two_row_model(self):
        m = make_model(unit_domain(2, 1), [[(0.0, 1.0)], [(0.0, 0.0)]])
        c = compose(Atom.EXP, m)
        eomega = float((mpmath.e + 1) / 2)
        lo_expected = float(1 - (mpmath.e + 1) / 2)  # -0.85914091...
        hi_expected = float(mpmath.e - (mpmath.e + 1) / 2)  # 0.85914091...
        top = coeffs(c)[0][0]
        assert abs(top.lo - lo_expected) < 1e-10
        assert abs(top.hi - hi_expected) < 1e-10
        assert coeffs(c)[1][0] == Interval(0.0, 0.0)
        assert abs(c.const.lo - eomega) < 1e-10
        assert abs(c.const.hi - eomega) < 1e-10
        rb = c.range_bounds()
        assert rb.lo <= 1.0 <= rb.lo + 1e-10
        e_val = float(mpmath.e)
        assert e_val <= rb.hi <= e_val + 1e-10

    def test_sin_composition_is_sound_by_sampling(self):
        d = Domain.of([(0.0, 2 * math.pi)], branches=4)
        c = compose(Atom.SIN, init_variable(d, 0))
        rng = np.random.default_rng(13)
        for x in rng.uniform(0.0, 2 * math.pi, size=1000):
            assert c.evaluate((x,)).contains(math.sin(x))

    @pytest.mark.parametrize("atom", [a for a in ALL_ATOMS if a is not Atom.NEG])
    def test_composition_soundness_random_models(self, atom):
        # containment of g(sum of row picks) for random admissible sums
        rng = np.random.default_rng(hash(atom.value) % 1000 + 17)
        g = {
            Atom.SQR: lambda v: v * v,
            Atom.INV: lambda v: 1.0 / v,
            Atom.EXP: math.exp,
            Atom.LOG: math.log,
            Atom.SIN: math.sin,
            Atom.COS: math.cos,
            Atom.TAN: math.tan,
        }[atom]
        for _ in range(10):
            n, cap = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = random_model_for_atom(rng, atom, n, cap)
            c = compose(atom, m)
            for _ in range(50):
                js = rng.integers(0, cap, size=n)
                ys = [rng.uniform(coeffs(m)[i][j].lo, coeffs(m)[i][j].hi) for i, j in enumerate(js)]
                target = g(sum(ys))
                window = c.const
                for i, j in enumerate(js):
                    window = window + coeffs(c)[i][j]
                assert window.contains(target), (atom, target, window)

    def test_domain_violations(self):
        d = Domain.of([(-1.0, 1.0)], branches=2)
        m = init_variable(d, 0)
        with pytest.raises(DomainViolation):
            compose(Atom.LOG, m)
        with pytest.raises(ZeroInDomain):
            compose(Atom.INV, m)
        wide = init_variable(Domain.of([(-2.0, 2.0)], branches=2), 0)
        with pytest.raises(DomainViolation):
            compose(Atom.TAN, wide)

    def test_remainder_lands_on_widest_support_row(self):
        m = make_model(
            unit_domain(2, 2),
            [[(0.0, 0.1), (0.1, 0.2)], [(0.0, 1.0), (1.0, 2.0)]],
        )
        c = compose(Atom.SQR, m)
        w = central_points(Atom.SQR, m)
        r = remainder_bound(Atom.SQR, m, w)
        assert r > 0
        # row 1 entries are much wider, so the pad must sit there: removing it
        # from row 1 reproduces row 0 of a pad-free recomputation
        no_pad = [e + Interval(-r, r) for e in coeffs(c)[0]]
        assert all(e.diam < p.diam for e, p in zip(coeffs(c)[0], no_pad))


class TestDerived:
    def test_sqrt_of_constant(self):
        d = unit_domain(1, 2)
        s = sqrt_model(init_constant(d, 4.0))
        rb = s.range_bounds()
        assert abs(rb.lo - 2.0) < 1e-12 and abs(rb.hi - 2.0) < 1e-12

    def test_sqrt_needs_positive_range(self):
        d = Domain.of([(-1.0, 1.0)], branches=2)
        with pytest.raises(DomainViolation):
            sqrt_model(init_variable(d, 0))

    def test_sqrt_sound_on_variable(self):
        d = Domain.of([(0.5, 9.0)], branches=8)
        s = sqrt_model(init_variable(d, 0))
        rng = np.random.default_rng(23)
        for x in rng.uniform(0.5, 9.0, size=300):
            assert s.evaluate((x,)).contains(math.sqrt(x))

    def test_pow_two_matches_square_atom(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            m = random_model_for_atom(rng, Atom.SQR, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            a = pow_model(m, 2).range_bounds()
            b = compose(Atom.SQR, m).range_bounds()
            assert (a.lo, a.hi) == (b.lo, b.hi)

    def test_pow_identity_and_validation(self):
        d = unit_domain(1, 2)
        m = init_variable(d, 0)
        assert pow_model(m, 1) is m
        with pytest.raises(ValueError):
            pow_model(m, 0)

    def test_pow_cube_sound(self):
        d = Domain.of([(-1.5, 1.5)], branches=6)
        c = pow_model(init_variable(d, 0), 3)
        rng = np.random.default_rng(31)
        for x in rng.uniform(-1.5, 1.5, size=300):
            assert c.evaluate((x,)).contains(x**3)

    def test_recip_mirrored_for_negative_ranges(self):
        d = Domain.of([(-4.0, -2.0)], branches=4)
        r = recip_model(init_variable(d, 0))
        rb = r.range_bounds()
        assert rb.lo <= -0.5 and rb.hi >= -0.25
        assert rb.lo > -0.5 - 1e-9 and rb.hi < -0.25 + 1e-9

    def test_recip_zero_span_rejected(self):
        d = Domain.of([(-1.0, 1.0)], branches=2)
        with pytest.raises(ZeroInDomain):
            recip_model(init_variable(d, 0))

    def test_cot_sound(self):
        d = Domain.of([(0.3, 1.2)], branches=6)
        c = cot_model(init_variable(d, 0))
        rng = np.random.default_rng(37)
        for x in rng.uniform(0.3, 1.2, size=300):
            assert c.evaluate((x,)).contains(1.0 / math.tan(x))
