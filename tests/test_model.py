"""Domain geometry and superposition model storage/range tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import branch_interval, coeffs, is_separable, make_model, row
from isarith.interval import Interval, IntervalError
from isarith.model import (
    Domain,
    OutOfDomain,
    RangeBounds,
    _midpoints_and_radii,
    _with_remainder,
    init_constant,
    init_variable,
)


def brute_range(m):
    """Independent oracle: enumerate all N^n branch tuples of endpoint sums."""
    lows = [[e.lo for e in row] for row in coeffs(m)]
    highs = [[e.hi for e in row] for row in coeffs(m)]
    n, cap = m.dim, m.branches
    best_lo = math.inf
    best_hi = -math.inf
    for combo in itertools.product(range(cap), repeat=n):
        best_lo = min(best_lo, sum(lows[i][j] for i, j in enumerate(combo)))
        best_hi = max(best_hi, sum(highs[i][j] for i, j in enumerate(combo)))
    return best_lo, best_hi


class TestDomain:
    def test_branch_geometry_unit(self):
        d = Domain.of([(0, 1)], branches=2)
        assert branch_interval(d, 0, 0) == Interval(0.0, 0.5)
        assert branch_interval(d, 0, 1) == Interval(0.5, 1.0)

    def test_last_branch_hits_box_endpoint(self):
        d = Domain.of([(0, 10), (0, 20)], branches=100)
        b = branch_interval(d, 1, 99)
        assert b.hi == 20.0
        assert math.isclose(b.lo, 19.8, rel_tol=0, abs_tol=1e-12)

    def test_bad_indices(self):
        d = Domain.of([(0, 1)], branches=2)
        with pytest.raises(IndexError):
            branch_interval(d, 1, 0)
        with pytest.raises(IndexError):
            branch_interval(d, 0, 2)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Domain.of([(1, 1)], branches=2)
        with pytest.raises(ValueError):
            Domain.of([(0, 1)], branches=0)

    def test_branch_index_half_open(self):
        d = Domain.of([(0, 1)], branches=2)
        assert d.branch_index(0, 0.25) == 0
        assert d.branch_index(0, 0.5) == 1  # shared endpoint goes right
        assert d.branch_index(0, 1.0) == 1  # box top goes to the last branch

    def test_branch_index_near_top(self):
        d = Domain.of([(0, 10)], branches=100)
        assert d.branch_index(0, 9.999) == 99

    def test_branch_index_outside(self):
        d = Domain.of([(0, 1)], branches=2)
        with pytest.raises(OutOfDomain):
            d.branch_index(0, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-6, 1e6),
        st.integers(1, 37),
        st.floats(0, 1),
    )
    def test_branch_contains_its_points(self, lo, width, cap, t):
        d = Domain.of([(lo, lo + width)], branches=cap)
        x = min(max(lo + t * width, lo), lo + width)
        j = d.branch_index(0, x)
        assert branch_interval(d, 0, j).contains(x)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-100, 100), st.floats(1e-3, 100), st.integers(1, 19))
    def test_branches_tile_the_box(self, lo, width, cap):
        d = Domain.of([(lo, lo + width)], branches=cap)
        pieces = [branch_interval(d, 0, j) for j in range(cap)]
        assert pieces[0].lo == lo
        assert pieces[-1].hi == lo + width
        for a, b in zip(pieces, pieces[1:]):
            assert a.hi == b.lo  # adjacent branches share exactly one endpoint

    # boxes the test above never draws: large magnitudes a few ulps wide,
    # where several grid points coincide, and boxes out to +-1e300
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.builds(
                lambda sign, e, k: (sign * 10.0**e, sign * 10.0**e + k * math.ulp(10.0**e)),
                st.sampled_from([-1.0, 1.0]), st.floats(10, 17), st.integers(1, 64),
            ),
            st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
            .map(sorted).filter(lambda b: b[0] < b[1]),
        ),
        st.integers(1, 37),
        st.lists(st.floats(0, 1), max_size=8),
    )
    @example((1e16, 1e16 + 4), 16, [])
    @example((-1e300, 1e300), 7, [0.5])
    def test_grid_and_lookup_on_collapsed_and_huge_boxes(self, box, cap, ts):
        lo, hi = box
        d = Domain.of([box], branches=cap)
        grid = d.grid[0]
        expected = [lo] + [min(lo + j * ((hi - lo) / cap), hi) for j in range(1, cap)] + [hi]
        assert [v.hex() for v in grid] == [v.hex() for v in expected]
        xs = {min(max(lo + t * (hi - lo), lo), hi) for t in ts}
        for g in grid:
            xs |= {math.nextafter(g, -math.inf), g, math.nextafter(g, math.inf)}
        xs = [x for x in xs if lo <= x <= hi]
        for x in xs:
            assert d.branch_index(0, x) == max(j for j in range(cap) if grid[j] <= x)


class TestInit:
    def test_variable_rows(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        m = init_variable(d, 0)
        assert row(m, 0) == (Interval(0, 0.5), Interval(0.5, 1))
        assert row(m, 1) == (Interval(0, 0), Interval(0, 0))
        assert m.const == Interval(0, 0)

    def test_variable_range_is_exact(self):
        d = Domain.of([(-2, 5), (0, 1)], branches=7)
        rb = init_variable(d, 0).range_bounds()
        assert (rb.lo, rb.hi) == (-2.0, 5.0)

    def test_variable_evaluate_selects_branch(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        m = init_variable(d, 0)
        assert m.evaluate((0.7, 0.1)) == Interval(0.5, 1.0)

    def test_constant(self):
        d = Domain.of([(0, 1), (0, 1)], branches=3)
        m = init_constant(d, 0.0)
        assert all(e == Interval(0, 0) for row in coeffs(m) for e in row)
        rb = init_constant(d, 3.5).range_bounds()
        assert (rb.lo, rb.hi) == (3.5, 3.5)
        assert init_constant(d, -1.0).evaluate((0.2, 0.9)) == Interval(-1, -1)
        c = init_constant(d, 2.0)
        assert c.const == Interval(2, 2)
        assert all(e == Interval(0, 0) for row in coeffs(c) for e in row)

    def test_storage_is_2nN_endpoints(self):
        d = Domain.of([(0, 1), (0, 2), (0, 3)], branches=5)
        m = init_variable(d, 1)
        endpoints = [v for row in coeffs(m) for e in row for v in (e.lo, e.hi)]
        assert len(endpoints) == 2 * 3 * 5


class TestConstructorChecks:
    @pytest.mark.parametrize("entry", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (1.0, 0.5)],
                             ids=["inf", "-inf", "nan", "inverted"])
    def test_bad_entry_raises(self, entry):
        d = Domain.of([(0, 1)], branches=2)
        with pytest.raises(IntervalError):
            make_model(d, [[(0.0, 1.0), entry]])

    def test_bounds_are_read_only(self):
        m = init_variable(Domain.of([(0, 1)], branches=2), 0)
        with pytest.raises(ValueError):
            m.bounds[0, 0, 0] = 5.0


class TestRange:
    def test_two_row_example(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        m = make_model(d, [[(1, 2), (3, 4)], [(0, 1), (-1, 0)]])
        rb = m.range_bounds()
        assert (rb.lo, rb.hi) == brute_range(m) == (0.0, 5.0)
        assert rb.row_lo == (1.0, -1.0)
        assert rb.row_hi == (4.0, 1.0)

    def test_all_zero(self):
        d = Domain.of([(0, 1)], branches=4)
        rb = init_constant(d, 0.0).range_bounds()
        assert (rb.lo, rb.hi) == (0.0, 0.0)

    def test_matches_brute_force_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            cap = int(rng.integers(1, 5))
            d = Domain.of([(0, 1)] * n, branches=cap)
            rows = []
            for _ in range(n):
                lo = rng.integers(-5, 5, size=cap)
                w = rng.integers(0, 4, size=cap)
                rows.append([(float(a), float(a + b)) for a, b in zip(lo, w)])
            m = make_model(d, rows)
            rb = m.range_bounds()
            assert (rb.lo, rb.hi) == brute_range(m)  # integer sums are exact


class TestEvaluate:
    def test_selected_minkowski_sum(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        m = make_model(d, [[(1, 2), (3, 4)], [(0, 1), (-1, 0)]])
        # x picks branch 1 on axis 0 and branch 0 on axis 1
        assert m.evaluate((0.9, 0.2)) == Interval(3, 5)

    def test_zero_model(self):
        d = Domain.of([(0, 1)], branches=3)
        assert init_constant(d, 0.0).evaluate((0.5,)) == Interval(0, 0)

    def test_point_arity_checked(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        with pytest.raises(OutOfDomain):
            init_variable(d, 0).evaluate((0.5,))

    def test_always_inside_range(self):
        rng = np.random.default_rng(11)
        d = Domain.of([(0, 2), (-1, 1), (3, 8)], branches=4)
        rows = []
        for _ in range(3):
            lo = rng.uniform(-3, 3, size=4)
            w = rng.uniform(0, 2, size=4)
            rows.append(list(zip(lo, lo + w)))
        m = make_model(d, rows)
        rb = m.range_bounds()
        window = Interval(rb.lo, rb.hi)
        for _ in range(1000):
            x = [rng.uniform(b.lo, b.hi) for b in d.boxes]
            assert window.encloses(m.evaluate(x))

    def test_encloses_the_exact_sum_of_the_selected_entries(self):
        # entries of magnitudes 1e-20 to 1e4 make most float sums inexact;
        # the endpoints must bound the exact sum, not merely round near it
        rng = np.random.default_rng(17)
        d = Domain.of([(0, 1), (-1, 1), (2, 5)], branches=5)
        inexact = 0
        for _ in range(100):
            lo = rng.uniform(-1, 1, (4, 5)) * 10.0 ** rng.integers(-20, 5, (4, 5))
            hi = lo + rng.uniform(0, 1, (4, 5)) * 10.0 ** rng.integers(-20, 5, (4, 5))
            m = make_model(d, [list(zip(a, b)) for a, b in zip(lo[:3], hi[:3])],
                           const=(lo[3, 0], hi[3, 0]))
            rows = coeffs(m)
            for _ in range(10):
                x = [rng.uniform(b.lo, b.hi) for b in d.boxes]
                picked = [rows[i][d.branch_index(i, xi)] for i, xi in enumerate(x)]
                exact_lo = sum(map(Fraction, (e.lo for e in picked)), Fraction(m.const.lo))
                exact_hi = sum(map(Fraction, (e.hi for e in picked)), Fraction(m.const.hi))
                got = m.evaluate(x)
                assert Fraction(got.lo) <= exact_lo and exact_hi <= Fraction(got.hi)
                inexact += Fraction(float(exact_hi)) != exact_hi
        assert inexact > 100  # the draws reach the rounding


class TestCentering:
    def test_radius_reaches_the_farther_endpoint_exactly(self):
        # rows whose endpoints differ in magnitude by up to 1e40 make most
        # differences from the midpoint inexact
        rng = np.random.default_rng(23)
        lo = rng.uniform(-1, 1, 2000) * 10.0 ** rng.integers(-20, 20, 2000)
        hi = lo + rng.uniform(0, 1, 2000) * 10.0 ** rng.integers(-20, 20, 2000)
        rb = RangeBounds(0.0, 0.0, tuple(map(float, lo)), tuple(map(float, hi)))
        centers, radii = _midpoints_and_radii(rb)
        inexact = 0
        for a, b, c, r in zip(rb.row_lo, rb.row_hi, centers, radii):
            assert a <= c <= b
            far = max(Fraction(b) - Fraction(c), Fraction(c) - Fraction(a))
            assert Fraction(r) >= far
            inexact += Fraction(float(far)) != far
        assert inexact > 100  # the draws reach the rounding


class TestWithRemainder:
    """The rule result: given rows minus the constant, zero rows elsewhere,
    and [-r, r] on the row with the largest sum of diameters, lowest index on
    ties, padded rows included."""

    D = Domain.of([(0, 1)] * 4, branches=3)
    WIDE = [(0.1, 0.7), (-1.3, 2.9), (0.3, 0.3)]  # inexact sums with the constant
    NARROW = [(0.2, 0.4), (-1.1, -1.0), (5.5, 5.6)]
    POINTS = [(1.5, 1.5), (2.25, 2.25), (-0.75, -0.75)]  # minus 0.5: exact points

    @staticmethod
    def check(rows, windows, const, r, chosen):
        out = _with_remainder(init_constant(TestWithRemainder.D, 0.0), rows,
                              np.array(windows, dtype=float).transpose(2, 0, 1), const, r)
        assert out.const == const
        given = dict(zip(rows, windows))
        for i in range(out.dim):
            pad = Fraction(r) if i == chosen else 0
            for j, (lo, hi) in enumerate(given.get(i, [(0.0, 0.0)] * out.branches)):
                want_lo = Fraction(lo) - Fraction(const.hi if i in given else 0) - pad
                want_hi = Fraction(hi) - Fraction(const.lo if i in given else 0) + pad
                got_lo, got_hi = float(out.lo[i, j]), float(out.hi[i, j])
                assert Fraction(got_lo) <= want_lo and want_hi <= Fraction(got_hi), (i, j)
                if i != chosen:  # outward to the nearest floats, [0, 0] when padded
                    assert Fraction(math.nextafter(got_lo, math.inf)) > want_lo
                    assert Fraction(math.nextafter(got_hi, -math.inf)) < want_hi

    def test_tied_wide_rows_go_to_the_lowest_index(self):
        self.check([1, 2, 3], [self.WIDE, self.NARROW, self.WIDE], Interval(0.1, 0.2), 0.1, 1)

    def test_the_widest_row_wins_over_lower_indices(self):
        self.check([0, 2], [self.NARROW, self.WIDE], Interval(0.1, 0.2), 0.3, 2)

    def test_a_padded_zero_row_ties_rows_whose_outputs_are_points(self):
        self.check([1, 3], [self.POINTS, self.POINTS], Interval.point(0.5), 0.1, 0)

    def test_no_remainder_leaves_every_row(self):
        self.check([1, 3], [self.WIDE, self.NARROW], Interval(0.1, 0.2), 0.0, None)


class TestSeparable:
    def test_trivial_models(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        assert is_separable(init_variable(d, 0))
        assert is_separable(init_variable(d, 1))
        assert is_separable(init_constant(d, 4.2))

    def test_two_wide_rows(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        m = make_model(d, [[(1, 2), (3, 4)], [(0, 1), (-1, 0)]])
        assert not is_separable(m)


class TestValidation:
    def test_shape_mismatch(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        with pytest.raises(ValueError):
            make_model(d, [[(0, 1), (0, 1)]])
