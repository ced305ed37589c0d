"""The array model rules against the per-entry scalar rules, bit for bit.

Every model rule runs over one stacked (2, n, N) endpoint array, lower
endpoints at index 0 and upper ones at index 1; `reference.py` holds
the same rules one `Interval` at a time.  Each case compares lower and upper
endpoints and the constant as raw bits, so a -0.0 where the scalar rule gives
0.0 fails, or requires both to raise the same exception class.
"""

import math
import warnings

import numpy as np
import pytest

import reference
from conftest import coeffs, make_model, random_model_for_atom, unit_domain
from isarith.bivariate import add_models, mul_models, product_workspace, scalar_affine
from isarith.interval import (
    _ARRAY_RULES,
    _SPLIT_LIMIT,
    PI_HALF,
    DomainViolation,
    Interval,
    _add_down,
    _add_up,
    _interval_products,
    _quiet,
    _widened_arrays,
    _sums,
)
from isarith.model import Domain, RangeBounds, SuperpositionModel, _affine, _midpoints_and_radii, init_variable
from isarith.univariate import Atom, central_points, compose, recip_model

# values that take the array rules off their plain path: signed zeros,
# subnormals, factors whose products fall below 1e-290, operands on either
# side of the splitting limit
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-320, -2.5e-310, 2.0**-1022,
    1e-150, -3e-152, 1e-146, 6.6e299, -6.6e299, 6.8e299, -7e299,
)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def same_bits(a, b):
    return np.array_equal(bits(a), bits(b))


def outcome(fn):
    """('ok', value) or ('raise', exception class).  A numpy warning fails:
    the model rules silence the overflow their array helpers check for, and
    a bare helper runs here as the rules run it, wrapped in _quiet."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return "ok", fn()
    except (ArithmeticError, ValueError) as err:
        return "raise", type(err)


def check_model(got, want):
    """got: outcome of an array rule; want: outcome of its reference."""
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got[1] is want[1]
        return False
    m, (rows, const) = got[1], want[1]
    assert same_bits(m.lo, [[e.lo for e in row] for row in rows])
    assert same_bits(m.hi, [[e.hi for e in row] for row in rows])
    assert same_bits([m.const.lo, m.const.hi], [const.lo, const.hi])
    rb, ref = m.range_bounds(), reference.range_bounds(m)
    assert same_bits([rb.lo, rb.hi, *rb.row_lo, *rb.row_hi], [ref.lo, ref.hi, *ref.row_lo, *ref.row_hi])
    return True


def check_unit_scale(got, m, c, shift, want):
    """got: outcome of a point scale c of 1 or -1 and a shift; want: outcome
    of the reference product.  The matrix is kept (the same array) under 1
    and mirrored under -1, the constant moves exactly, and every entry and
    the constant lie inside the product's result.  Where the product raises,
    a step past the largest float, the kept or mirrored entries stand."""
    assert got[0] == "ok", got
    out = got[1]
    if (c if isinstance(c, float) else c.lo) > 0.0:
        assert out.bounds is m.bounds
        const = m.const + shift
    else:
        assert same_bits(out.bounds, -m.bounds[::-1])
        const = -m.const + shift
    assert same_bits([out.const.lo, out.const.hi], [const.lo, const.hi])
    rb, ref = out.range_bounds(), reference.range_bounds(out)
    assert same_bits([rb.lo, rb.hi, *rb.row_lo, *rb.row_hi], [ref.lo, ref.hi, *ref.row_lo, *ref.row_hi])
    if want[0] == "raise":
        assert want[1] is OverflowError
        return False
    rows, wconst = want[1]
    assert (np.array([[e.lo for e in row] for row in rows]) <= out.lo).all()
    assert (out.hi <= np.array([[e.hi for e in row] for row in rows])).all()
    assert wconst.lo <= out.const.lo and out.const.hi <= wconst.hi
    return True


def sprinkle(rng, m, share=0.25, pool=SPECIAL):
    """m with some entries replaced by [v, w] from the pool, ordered so the
    interval is valid; equal values of either sign keep their drawn order."""
    rows = [[(e.lo, e.hi) for e in row] for row in coeffs(m)]
    for row in rows:
        for j in range(len(row)):
            if rng.random() < share:
                v, w = (float(pool[k]) for k in rng.integers(0, len(pool), size=2))
                row[j] = (v, w) if not w < v else (w, v)
    return make_model(m.domain, rows, (m.const.lo, m.const.hi))


def zero_ties(m):
    """m with row 0 led by signed-zero ties, so the row minimum and maximum
    pick by order."""
    rows = [[(e.lo, e.hi) for e in row] for row in coeffs(m)]
    rows[0][0] = (-0.0, 0.0)
    if len(rows[0]) > 1:
        rows[0][1] = (0.0, -0.0)
    return make_model(m.domain, rows, (m.const.lo, m.const.hi))


def degenerate_row(m, i, v):
    rows = [[(e.lo, e.hi) for e in row] for row in coeffs(m)]
    rows[i] = [(v, v)] * m.branches
    return make_model(m.domain, rows, (m.const.lo, m.const.hi))


def random_models(rng, atom, count):
    """Random models valid for the atom, a share of them with special entries,
    signed-zero ties or a degenerate row."""
    for t in range(count):
        n, cap = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        m = random_model_for_atom(rng, atom, n, cap)
        kind = t % 4
        if kind == 1:
            m = sprinkle(rng, m)
        elif kind == 2:
            m = zero_ties(m)
        elif kind == 3:
            m = degenerate_row(m, int(rng.integers(0, n)), float(rng.uniform(-0.5, 0.5)))
        yield m


class TestPrimitives:
    def test_interval_products_match_interval_mul(self):
        rng = np.random.default_rng(101)
        pool = SPECIAL + (1.0, -1.0, 3.5, -0.25, 1e5, -1e-5)
        for _ in range(200):
            shape = (int(rng.integers(1, 4)), int(rng.integers(1, 6)))
            a = [sorted(rng.choice(pool, size=2).tolist()) for _ in range(shape[0] * shape[1])]
            b = [sorted(rng.choice(pool, size=2).tolist()) for _ in range(shape[0] * shape[1])]
            arrays = [np.array([[p[k] for p in x] for k in (0, 1)]).reshape((2,) + shape) for x in (a, b)]
            got = outcome(_quiet(lambda: _interval_products(*arrays)))
            want = outcome(lambda: [Interval(*x) * Interval(*y) for x, y in zip(a, b)])
            assert got[0] == want[0]
            if got[0] == "ok":
                assert same_bits(got[1][0].ravel(), [iv.lo for iv in want[1]])
                assert same_bits(got[1][1].ravel(), [iv.hi for iv in want[1]])

    def test_sums_match_interval_add(self):
        rng = np.random.default_rng(102)
        pool = SPECIAL + (1.0, -1.0, 0.1, 0.2, -0.3, 1e308, -1e308)
        for _ in range(200):
            x = rng.choice(pool, size=(2, 3, 4))
            y = rng.choice(pool, size=(2, 3, 4))
            got = outcome(_quiet(lambda: _sums(x, y)))
            want = outcome(lambda: [
                scalar(a, b) for half, scalar in zip((0, 1), (_add_down, _add_up))
                for a, b in zip(x[half].ravel().tolist(), y[half].ravel().tolist())
            ])
            assert got[0] == want[0]
            if got[0] == "ok":
                assert same_bits(got[1].ravel(), want[1])

    @pytest.mark.parametrize("name", sorted(_ARRAY_RULES))
    def test_unary_rules_match_interval_methods(self, name):
        rng = np.random.default_rng(sorted(_ARRAY_RULES).index(name) + 103)
        positive = (5e-324, 1e-320, 2.0**-1022, 1e-150, 1e-146, 0.5, 1.0, 2.0, 10.0, 700.0, 1e15, 6.6e299)
        pool = SPECIAL[:10] + (1.0, -1.0, 0.5, 2.0, -3.0, 10.0, 700.0, 1e15, math.pi / 2)
        tan_pool = SPECIAL[:9] + (0.25, 0.5, -0.5, 1.0, -1.0, 1.2, -1.5, 1.55)
        compared = 0
        for _ in range(300):
            if name in ("inv", "log"):  # one sign per entry, mostly inside the domain
                signs = rng.choice((-1.0, 1.0), size=6) if name == "inv" else np.ones(6)
                pairs = [sorted(float(v * sign) for v in rng.choice(positive, size=2)) for sign in signs]
            else:
                values = pool if name != "tan" else tan_pool
                pairs = [sorted(float(v) for v in rng.choice(values, size=2)) for _ in range(6)]
            bounds = np.array([[p[k] for p in pairs] for k in (0, 1)]).reshape(2, 2, 3)
            got = outcome(_quiet(lambda: _ARRAY_RULES[name](bounds)))
            want = [outcome(lambda: getattr(Interval(*p), name)()) for p in pairs]
            raised = {w[1] for w in want if w[0] == "raise"}
            if raised:
                # the array rule checks one condition over every entry at a
                # time, so it raises the class of some entry, not of the first
                assert got[0] == "raise" and got[1] in raised, (name, pairs, got)
                continue
            assert got[0] == "ok", (name, pairs, got)
            assert same_bits(got[1][0].ravel(), [w[1].lo for w in want])
            assert same_bits(got[1][1].ravel(), [w[1].hi for w in want])
            compared += 1
        assert compared >= 20


    @pytest.mark.parametrize("name", ["sin", "cos", "tan"])
    def test_widths_whose_upward_rounding_overflows(self, name):
        # hi - lo rounds to the largest float or past it: wider than any period
        top = 1.7976931348623157e308
        pairs = [(-top, 710.0), (-710.0, top), (-top, 0.5), (-1e-300, top), (-top, top), (-1e308, 1e308)]
        for lo, hi in pairs:
            got = outcome(_quiet(lambda: _ARRAY_RULES[name](np.array([lo, hi]).reshape(2, 1, 1))))
            want = outcome(lambda: getattr(Interval(lo, hi), name)())
            if name == "tan":
                assert got == want == ("raise", DomainViolation), (lo, hi)
            else:
                assert want == ("ok", Interval(-1.0, 1.0)) and got[0] == "ok", (lo, hi, got)
                assert same_bits(got[1].ravel(), [-1.0, 1.0])


class TestRulesAgainstReference:
    def test_add_models(self):
        rng = np.random.default_rng(111)
        models = list(random_models(rng, Atom.SQR, 160))
        compared = 0
        for a, b in zip(models[::2], models[1::2]):
            if a.domain != b.domain:
                b = make_model(a.domain, [[(0.5, 1.5)] * a.branches] * a.dim)
                b = sprinkle(rng, b)
            compared += check_model(outcome(lambda: add_models(a, b)), outcome(lambda: reference.add(a, b)))
        assert compared >= 60

    def test_mul_models(self):
        rng = np.random.default_rng(112)
        compared = 0
        for t, m in enumerate(random_models(rng, Atom.SQR, 200)):
            other = random_model_for_atom(rng, Atom.SQR, m.dim, m.branches)
            if t % 5 in (3, 4):
                m = random_model_for_atom(rng, Atom.SQR, m.dim, m.branches)
            if t % 5 == 4:  # tiny factors: window products below 1e-290
                m = make_model(m.domain, [[(e.lo * 1e-150, e.hi * 1e-150) for e in row] for row in coeffs(m)])
                other = make_model(m.domain, [[(e.lo * 1e-148, e.hi * 1e-148) for e in row] for row in coeffs(other)])
            elif t % 5 == 3:  # one factor beyond the splitting limit
                big = _SPLIT_LIMIT * 1.5
                m = make_model(m.domain, [[(e.lo * big / 4, e.hi * big / 4) for e in row] for row in coeffs(m)])
                other = make_model(m.domain, [[(e.lo * 1e-9, e.hi * 1e-9) for e in row] for row in coeffs(other)])
            compared += check_model(outcome(lambda: mul_models(m, other)), outcome(lambda: reference.mul(m, other)))
        assert compared >= 120

    @pytest.mark.parametrize("c", [1.0, -1.0, 2.5, -0.3, 1e-300, 3.0e299, 0.0, -5e-324, 7e299])
    @pytest.mark.parametrize("d", [0.0, 1.5])
    def test_scalar_affine(self, c, d):
        rng = np.random.default_rng(113)
        compared = 0
        for m in random_models(rng, Atom.SQR, 40):
            got, want = outcome(lambda: scalar_affine(m, c, d)), outcome(lambda: reference.scalar_affine(m, c, d))
            compared += check_unit_scale(got, m, c, d, want) if abs(c) == 1.0 else check_model(got, want)
        assert compared >= 10

    def test_interval_scale_and_shift(self):
        # division by a constant scales by an interval; cot shifts by pi/2
        rng = np.random.default_rng(114)
        scale = Interval.point(3.0).inv()
        for m in random_models(rng, Atom.SQR, 40):
            check_model(outcome(lambda: _affine(m, scale)), outcome(lambda: reference.affine(m, scale)))
            check_unit_scale(
                outcome(lambda: _affine(m, -1.0, PI_HALF)), m, -1.0, PI_HALF,
                outcome(lambda: reference.affine(m, -1.0, PI_HALF)),
            )

    @pytest.mark.parametrize("atom", list(Atom))
    def test_compose(self, atom):
        rng = np.random.default_rng(115 + list(Atom).index(atom))
        compared = 0
        for m in random_models(rng, atom, 80):
            compared += check_model(outcome(lambda: compose(atom, m)), outcome(lambda: reference.compose(atom, m)))
        assert compared >= 40

    def test_recip_model_both_signs(self):
        rng = np.random.default_rng(116)
        compared = 0
        for t, m in enumerate(random_models(rng, Atom.INV, 80)):
            if t % 2:
                m = make_model(m.domain, [[(-e.hi, -e.lo) for e in row] for row in coeffs(m)])
            compared += check_model(outcome(lambda: recip_model(m)), outcome(lambda: reference.recip(m)))
        assert compared >= 40


class TestScalarWork:
    """Central points and product workspaces, whose sums and products run on
    float endpoints, against their Interval forms in `reference.py`: the same
    bits, or the same exception class."""

    @staticmethod
    def check_workspace(got, want, fields):
        assert got[0] == want[0], (got, want)
        if got[0] == "raise":
            assert got[1] is want[1]
            return False
        for name in fields:
            a, b = getattr(got[1], name), getattr(want[1], name)
            if isinstance(a, Interval):
                a, b = (a.lo, a.hi), (b.lo, b.hi)
            assert same_bits(a, b), name
        return True

    def test_midpoints_and_radii_keep_signed_zeros(self):
        # degenerate rows of either zero, both zero orders, and a wide row
        rb = RangeBounds(0.0, 4.0, (-0.0, 0.0, 0.0, -0.0, 1.0), (0.0, -0.0, 0.0, -0.0, 3.0))
        assert same_bits(_midpoints_and_radii(rb), reference.midpoints_and_radii(rb))

    @pytest.mark.parametrize("atom", list(Atom))
    def test_central_points(self, atom):
        rng = np.random.default_rng(130 + list(Atom).index(atom))
        compared = 0
        for m in random_models(rng, atom, 80):
            got = outcome(lambda: central_points(atom, m))
            want = outcome(lambda: reference.central_points(atom, m))
            compared += self.check_workspace(got, want, ("centers", "omega", "spreads"))
        assert compared >= 40

    def test_exp_near_overflow_matches_without_raising(self):
        # rows near exp's overflow threshold: where e^hi passes the largest
        # float, both sides center relative to hi, and nothing raises
        rng = np.random.default_rng(137)
        for _ in range(200):
            n = int(rng.integers(1, 4))
            lo = rng.uniform(600.0 / n, 715.0 / n, size=(n, 3))
            rows = [[(a, a + w) for a, w in zip(r, rng.uniform(0.0, 20.0, 3))] for r in lo]
            m = make_model(unit_domain(n, 3), rows)
            got, want = outcome(lambda: central_points(Atom.EXP, m)), outcome(lambda: reference.central_points(Atom.EXP, m))
            assert self.check_workspace(got, want, ("centers", "omega", "spreads"))

    def test_product_workspace(self):
        rng = np.random.default_rng(138)
        fields = ("centers_a", "centers_b", "alpha", "beta", "radii_a", "radii_b", "remainder")
        compared = 0
        for t, m in enumerate(random_models(rng, Atom.SQR, 120)):
            other = random_model_for_atom(rng, Atom.SQR, m.dim, m.branches)
            if t % 4 == 3:  # radii whose products pass the largest float
                m, other = (
                    make_model(m.domain, [[(e.lo * 1e160, e.hi * 1e160) for e in row] for row in coeffs(x)])
                    for x in (random_model_for_atom(rng, Atom.SQR, m.dim, m.branches), other)
                )
            else:
                other = sprinkle(rng, other)
            got, want = outcome(lambda: product_workspace(m, other)), outcome(lambda: reference.product_workspace(m, other))
            compared += self.check_workspace(got, want, fields)
        assert compared >= 60


class TestLeanPath:
    """Rules build their results without the public constructor's checks."""

    @pytest.mark.parametrize("rule", [
        lambda m: compose(Atom.NEG, m),
        lambda m: _affine(m, 1.0, 0.0),
        lambda m: _affine(m, 1.0, -0.0),
        lambda m: _affine(m, -1.0, PI_HALF),
        lambda m: scalar_affine(m, -1.0, 2.5),
    ], ids=["neg", "plus-one", "plus-one-negative-zero", "minus-one-pi-half", "minus-one"])
    def test_unit_scales_bound_as_a_checked_model(self, rule):
        entries = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]
        rows = [entries, [(-0.0, 0.0), (-1.0, -0.0), (0.0, 2.0), (-3.0, 0.0)], [(0.5, 0.5)] * 4]
        for const in ((-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (-1.0, 2.0)):
            m = make_model(unit_domain(3, 4), rows, const)
            m.range_bounds()
            out = rule(m)
            rb = out.range_bounds()
            fresh = SuperpositionModel(out.domain, out.bounds, out.const).range_bounds()
            assert same_bits([rb.lo, rb.hi, *rb.row_lo, *rb.row_hi], [fresh.lo, fresh.hi, *fresh.row_lo, *fresh.row_hi])

    def test_rules_still_raise_past_the_largest_float(self):
        # through outcome, so a numpy overflow warning fails the test too
        top = 1.7976931348623157e308
        d = unit_domain(2, 2)
        big = make_model(d, [[(1.0, top / 2), (0.0, top)], [(0.0, 1.0), (1.0, 2.0)]])
        wide = make_model(unit_domain(1, 2), [[(-1e200, 0.0), (0.0, 1e200)]])  # squares overflow
        far = make_model(unit_domain(1, 2), [[(0.0, 5.0), (5.0, 10.0)]], const=(1e160, 1e160))
        for rule in (
            lambda: add_models(big, big),
            lambda: _affine(big, 2.0),
            lambda: _affine(make_model(d, [[(0.0, 1.0)] * 2] * 2, const=(0.0, top)), 1.0, top),
            lambda: mul_models(big, big),
            lambda: mul_models(far, far),  # the window products overflow
            lambda: compose(Atom.SQR, big),
            lambda: compose(Atom.SQR, wide),
            lambda: compose(Atom.EXP, make_model(d, [[(0.0, 1.0)] * 2, [(700.0, 720.0)] * 2])),
        ):
            assert outcome(rule) == ("raise", OverflowError)

    def test_public_constructor_copies_the_callers_array(self):
        d = Domain.of([(0.0, 1.0)], 2)
        a = np.zeros((2, 1, 2))
        m = SuperpositionModel(d, a)
        a[0, 0, 0] = -1.0  # still the caller's to write
        assert m.lo[0, 0] == 0.0 and not m.bounds.flags.writeable
        assert init_variable(d, 0).bounds.flags.writeable is False


class TestUnitScale:
    """A point scale of 1 or -1 keeps or mirrors the matrix without
    multiplying; the exact result lies inside the product's."""

    ENTRIES = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (-1.0, 0.0), (-0.0, 2.0), (0.5, 0.5), (-3.0, -1.0)]

    @pytest.mark.parametrize("c", [1.0, -1.0, Interval(1.0, 1.0), Interval(-1.0, -1.0)])
    def test_matches_the_product_with_signed_zeros(self, c):
        m = make_model(unit_domain(2, 4), [self.ENTRIES[:4], self.ENTRIES[4:]], const=(-0.0, 0.0))
        assert check_unit_scale(outcome(lambda: _affine(m, c)), m, c, 0.0, outcome(lambda: reference.affine(m, c)))

    @pytest.mark.parametrize("c", [1.0, -1.0])
    def test_keeps_entries_the_product_cannot_round(self, c):
        # the product rounds the largest float up past itself and raises
        top = 1.7976931348623157e308
        m = make_model(unit_domain(1, 2), [[(1.0, top), (-top, 5e-324)]])
        assert not check_unit_scale(outcome(lambda: _affine(m, c)), m, c, 0.0, outcome(lambda: reference.affine(m, c)))


def test_model_arrays_are_read_only():
    m = make_model(unit_domain(1, 2), [[(0.0, 1.0), (1.0, 2.0)]])
    with pytest.raises(ValueError):
        m.lo[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.bounds[1, 0, 1] = 5.0
    shifted = scalar_affine(m, 1.0, 3.0)
    with pytest.raises(ValueError):
        shifted.hi[0, 0] = 5.0


def test_exp_lower_endpoint_clamps_at_zero():
    # exp of an endpoint below about -745 is 0.0, and its margin steps go negative
    pairs = [(-800.0, -700.0), (-745.0, 0.0), (-1e300, -744.5), (-746.0, -745.5)]
    got = _ARRAY_RULES["exp"](np.array([[[p[k] for p in pairs]] for k in (0, 1)]))
    want = [Interval(*p).exp() for p in pairs]
    assert same_bits(got[0].ravel(), [w.lo for w in want])
    assert same_bits(got[1].ravel(), [w.hi for w in want])


def test_margin_past_the_largest_float_raises():
    near = np.array([[1.0, math.nextafter(1.7976931348623157e308, 0.0)]])
    with pytest.raises(OverflowError):
        _quiet(_widened_arrays)(near)
    with pytest.raises(OverflowError):
        _quiet(_widened_arrays)(-near)
