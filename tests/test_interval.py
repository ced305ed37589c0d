"""Endpoint-level tests for the directed-rounding interval layer."""

import math
import operator
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import hull, make_model, mid, scale, shift
from isarith.interval import (
    PI,
    PI_HALF,
    DomainViolation,
    Interval,
    IntervalError,
    ZeroInDomain,
    _ARRAY_RULES,
    _SPLIT_LIMIT,
    _add_down,
    _add_up,
    _div_down,
    _div_up,
    _inv_arrays,
    _mul_down,
    _mul_up,
    _SIGNS,
    _quiet,
    _round_sums,
    _sub_up,
    _widened,
)
from isarith.model import Domain


def ulps_apart(a: float, b: float) -> int:
    """Number of nextafter steps from a to b (small distances only)."""
    n = 0
    x = a
    while x != b and n < 64:
        x = math.nextafter(x, b)
        n += 1
    return n


class TestConstruction:
    def test_orders_endpoints(self):
        with pytest.raises(IntervalError):
            Interval(2.0, 1.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(IntervalError):
            Interval(math.nan, 1.0)
        with pytest.raises(IntervalError):
            Interval(0.0, math.inf)

    def test_degenerate_allowed(self):
        assert Interval.point(3.0) == Interval(3.0, 3.0)


class TestAdd:
    def test_exact_integer_endpoints(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_zero_is_identity(self):
        x = Interval(-1.25, 7.5)
        assert Interval(0, 0) + x == x

    def test_inexact_sum_is_outward_and_tight(self):
        r = Interval(0.1, 0.1) + Interval(0.2, 0.2)
        exact = Fraction(0.1) + Fraction(0.2)
        assert Fraction(r.lo) <= exact <= Fraction(r.hi)
        assert ulps_apart(r.lo, r.hi) <= 2

    def test_scalar_shift(self):
        assert shift(Interval(0, 1), 5.0) == Interval(5, 6)
        assert Interval(0, 1) + 5 == Interval(5, 6)

    def test_overflow_raises(self):
        big = Interval(1e308, 1e308)
        with pytest.raises(OverflowError):
            big + big


class TestMul:
    def test_mixed_signs(self):
        assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)

    def test_zero_annihilates(self):
        assert Interval(0, 0) * Interval(-3.7, 11.0) == Interval(0, 0)

    def test_four_product_enumeration(self):
        # min/max of {6, -2, 3, -1}
        assert Interval(-2, -1) * Interval(-3, 1) == Interval(-2, 6)

    def test_inexact_product_contains_exact(self):
        x, y = Interval(0.1, 0.3), Interval(0.7, 0.9)
        r = x * y
        for a in (x.lo, x.hi):
            for b in (y.lo, y.hi):
                assert Fraction(r.lo) <= Fraction(a) * Fraction(b) <= Fraction(r.hi)

    def test_underflow_to_zero_keeps_the_sign(self):
        tiny = math.ulp(0.0)
        assert Interval(1e-200, 1e-200) * Interval(1e-200, 1e-200) == Interval(0.0, tiny)
        assert Interval(-1e-200, -1e-200) * Interval(1e-200, 1e-200) == Interval(-tiny, 0.0)
        # inclusion monotone: a product that underflows stays inside the larger one
        big = Interval(0.0, 1.7341384870745271e-279)
        assert (Interval(0.0, 1.0) * big).encloses(Interval(0.0, 1.8666640976643918e-50) * big)

    def test_scale_flips_for_negative_constant(self):
        assert scale(Interval(1, 3), -2.0) == Interval(-6, -2)

    def test_scale_minus_one_is_exact_negation(self):
        for iv in (Interval(0.1, 0.7), Interval(-3.2, 1e-9), Interval(5.5, 5.5)):
            assert scale(iv, -1.0) == -iv


class TestSub:
    def test_same_interval_does_not_cancel(self):
        assert Interval(1, 2) - Interval(1, 2) == Interval(-1, 1)

    def test_int_zero_keeps_a_negative_zero_end(self):
        # subtracting the point [0, 0] would add -0.0 + 0.0 = +0.0
        lo = (Interval(-0.0, 1.0) - 0).lo
        assert lo == 0.0 and math.copysign(1.0, lo) == -1.0


class TestInv:
    def test_positive(self):
        assert Interval(1, 2).inv() == Interval(0.5, 1.0)

    def test_negative(self):
        assert Interval(-4, -2).inv() == Interval(-0.5, -0.25)

    def test_zero_spanning_rejected(self):
        with pytest.raises(ZeroInDomain):
            Interval(-1, 1).inv()
        with pytest.raises(ZeroInDomain):
            Interval(0, 1).inv()


class TestSqr:
    def test_zero_inside_clamps_to_zero(self):
        assert Interval(-1, 2).sqr() == Interval(0, 4)

    def test_negative_interval(self):
        assert Interval(-3, -2).sqr() == Interval(4, 9)


class TestTranscendental:
    def test_exp_unit_interval_is_tight(self):
        r = Interval(0, 1).exp()
        # independently computed enclosure of [1, e]
        import mpmath

        e_hi = float(mpmath.mpf(mpmath.exp(1)))
        assert r.lo <= 1.0 <= r.hi
        assert Fraction(r.lo) <= 1 and ulps_apart(r.lo, 1.0) <= 4
        assert abs(r.hi - e_hi) <= 4 * math.ulp(e_hi)
        assert float(mpmath.exp(1)) <= r.hi

    def test_log_requires_positive(self):
        with pytest.raises(DomainViolation):
            Interval(0, 1).log()
        r = Interval(1, math.e).log()
        assert r.lo <= 0.0 and r.hi >= 1.0
        assert ulps_apart(r.hi, 1.0) <= 8

    def test_sin_half_period(self):
        r = Interval(0.0, math.pi).sin()
        assert r.hi == 1.0
        assert r.lo <= 0.0
        assert abs(r.lo) < 1e-15

    def test_sin_clamps_at_maximum(self):
        assert Interval(1.0, 2.0).sin().hi == 1.0  # pi/2 inside

    def test_sin_wide_interval(self):
        assert Interval(0.0, 10.0).sin() == Interval(-1.0, 1.0)

    def test_sin_width_past_largest_float(self):
        assert Interval(-1e308, 1e308).sin() == Interval(-1.0, 1.0)

    def test_cos_width_past_largest_float(self):
        assert Interval(-1e308, 1e308).cos() == Interval(-1.0, 1.0)

    def test_cos_contains_minimum(self):
        r = Interval(3.0, 3.3).cos()  # pi inside
        assert r.lo == -1.0

    def test_tan_monotone_piece(self):
        r = Interval(-0.5, 0.5).tan()
        t = math.tan(0.5)
        assert r.lo <= -t and r.hi >= t
        assert ulps_apart(r.hi, t) <= 4

    def test_tan_pole_rejected(self):
        with pytest.raises(DomainViolation):
            Interval(1.0, 2.0).tan()  # pi/2 inside
        with pytest.raises(DomainViolation):
            Interval(0.0, 4.0).tan()

    def test_tan_width_past_largest_float(self):
        with pytest.raises(DomainViolation):
            Interval(-1e308, 1e308).tan()


class TestPlumbing:
    def test_diam(self):
        assert Interval(1, 4).diam == 3.0

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_operand_neither_number_nor_interval(self, op):
        with pytest.raises(TypeError):
            op(Interval(0, 1), "a")

    def test_mid_inside(self):
        iv = Interval(1.0, math.nextafter(1.0, 2.0))
        assert iv.contains(mid(iv))

    def test_contains(self):
        assert not Interval(0, 1).contains(1.5)
        assert Interval(0, 1).contains(1.0)

    def test_hull(self):
        assert hull(Interval(0, 1), Interval(2, 3)) == Interval(0, 3)

    def test_pi_constants_enclose(self):
        import mpmath

        mpmath.mp.dps = 40
        assert Fraction(PI.lo) < Fraction(str(mpmath.pi)) < Fraction(PI.hi)
        assert Fraction(PI_HALF.lo) < Fraction(str(mpmath.pi / 2)) < Fraction(PI_HALF.hi)


# ----------------------------------------------------------------------
# property-based soundness
# ----------------------------------------------------------------------

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)


def intervals(bound: float = 1e12) -> st.SearchStrategy[Interval]:
    fl = st.floats(min_value=-bound, max_value=bound, allow_nan=False)
    return st.tuples(fl, fl).map(lambda t: Interval(min(t), max(t)))


def pick_inside(iv: Interval, t: float) -> float:
    p = iv.lo + t * (iv.hi - iv.lo)
    return min(max(p, iv.lo), iv.hi)


@settings(max_examples=300, deadline=None)
@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1))
def test_binary_ops_enclose_point_results(x, y, s, t):
    u, v = pick_inside(x, s), pick_inside(y, t)
    assert (x + y).contains(u + v)
    assert (x - y).contains(u - v)
    p = u * v
    if math.isfinite(p):
        assert (x * y).contains(p)


@settings(max_examples=300, deadline=None)
@given(intervals(bound=30.0), st.floats(0, 1))
def test_unary_ops_enclose_point_results(x, t):
    u = pick_inside(x, t)
    assert x.sqr().contains(u * u)
    assert x.exp().contains(math.exp(u))
    assert x.sin().contains(math.sin(u))
    assert x.cos().contains(math.cos(u))
    if x.lo > 1e-300:
        u = max(u, x.lo)
        assert x.log().contains(math.log(u))
        assert x.inv().contains(1.0 / u)


@settings(max_examples=200, deadline=None)
@given(intervals(bound=1e6), intervals(bound=1e6), st.floats(0, 1), st.floats(0, 1))
def test_inclusion_monotonicity(x, big, s, t):
    # shrink x into a subinterval and check op(sub) is inside op(x)
    a, b = pick_inside(x, min(s, t)), pick_inside(x, max(s, t))
    sub = Interval(a, b)
    assert x.encloses(sub)
    assert (x + big).encloses(sub + big)
    assert (x * big).encloses(sub * big)
    assert x.sqr().encloses(sub.sqr())
    assert x.sin().encloses(sub.sin())


@settings(max_examples=200, deadline=None)
@given(intervals(bound=1e3))
def test_range_clamps(x):
    s = x.sin()
    c = x.cos()
    assert -1.0 <= s.lo <= s.hi <= 1.0
    assert -1.0 <= c.lo <= c.hi <= 1.0
    assert x.sqr().lo >= 0.0


def test_bulk_soundness_fuzz():
    # 10^4 seeded draws per operation, point results stay inside
    import numpy as np

    rng = np.random.default_rng(20260808)
    for _ in range(10_000 // 25):
        lo = rng.uniform(-40, 40, size=4)
        w = rng.uniform(0, 10, size=4)
        x = Interval(lo[0], lo[0] + w[0])
        y = Interval(lo[1], lo[1] + w[1])
        for _ in range(25):
            u = rng.uniform(x.lo, x.hi)
            v = rng.uniform(y.lo, y.hi)
            assert (x + y).contains(u + v)
            assert (x - y).contains(u - v)
            assert (x * y).contains(u * v)
            assert x.sqr().contains(u * u)
            assert x.exp().contains(math.exp(u))
            assert x.sin().contains(math.sin(u))
            assert x.cos().contains(math.cos(u))
            if x.lo > 0.0:
                assert x.inv().contains(1.0 / u)
                assert x.log().contains(math.log(u))


# ----------------------------------------------------------------------
# directed rounding against exact rationals, over the whole float range
# ----------------------------------------------------------------------

MAX = sys.float_info.max
TINY = math.ulp(0.0)
# beyond this magnitude a rounding may legitimately leave the finite range
NEAR_MAX = Fraction(math.nextafter(math.nextafter(MAX, 0.0), 0.0))

any_float = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True) | st.sampled_from(
    [MAX, -MAX, TINY, -TINY, sys.float_info.min, -sys.float_info.min, 0.0, 1.0, -1.0]
)

ROUNDED = [
    (_add_down, _add_up, operator.add),
    (_mul_down, _mul_up, operator.mul),
    (_div_down, _div_up, operator.truediv),
]


def assert_tight(r: float, exact: Fraction, side: int) -> None:
    """r bounds exact from below (side -1) or above (side +1), and two steps
    back toward it reach or pass it."""
    assert math.isfinite(r)
    toward = math.inf if side < 0 else -math.inf
    back = math.nextafter(math.nextafter(r, toward), toward)
    if side < 0:
        assert Fraction(r) <= exact and (back == math.inf or Fraction(back) >= exact)
    else:
        assert Fraction(r) >= exact and (back == -math.inf or Fraction(back) <= exact)


def tight_or_overflow(call, exact: Fraction, side: int) -> None:
    try:
        r = call()
    except OverflowError:
        assert abs(exact) >= NEAR_MAX
        return
    assert_tight(r, exact, side)


@settings(max_examples=1000, deadline=None)
@example(8.918978694188795e307, -MAX)  # 2Sum's intermediate s - a overflows
@example(1.0, MAX)
@example(math.sqrt(MAX), math.nextafter(math.sqrt(MAX), math.inf))
@example(1e-200, 1e-200)
@example(-TINY, TINY)
@given(any_float, any_float)
def test_directed_rounding_is_tight_or_overflows(a, b):
    for down, up, op in ROUNDED:
        if op is operator.truediv and b == 0.0:
            continue
        exact = op(Fraction(a), Fraction(b))
        tight_or_overflow(lambda: down(a, b), exact, -1)
        tight_or_overflow(lambda: up(a, b), exact, 1)

    x = Interval(min(a, b), max(a, b))
    squares = [Fraction(v) ** 2 for v in (x.lo, x.hi)]
    try:
        sq = x.sqr()
    except OverflowError:
        assert max(squares) >= NEAR_MAX
    else:
        assert_tight(sq.lo, 0 if x.lo <= 0.0 <= x.hi else min(squares), -1)
        assert_tight(sq.hi, max(squares), 1)
    if x.lo <= 0.0 <= x.hi:
        return
    recips = (1 / Fraction(x.hi), 1 / Fraction(x.lo))
    try:
        inv = x.inv()
    except OverflowError:
        assert max(abs(r) for r in recips) >= NEAR_MAX
    else:
        assert_tight(inv.lo, recips[0], -1)
        assert_tight(inv.hi, recips[1], 1)


def fraction_rounding(a: float, b: float) -> tuple[float, float]:
    """a / b rounded down and up, decided on the exact quotient."""
    q = a / b
    exact, rounded = Fraction(a) / Fraction(b), Fraction(q)
    down = q if rounded <= exact else math.nextafter(q, -math.inf)
    up = q if rounded >= exact else math.nextafter(q, math.inf)
    return down, up


def log_uniform_floats(rng, size: int) -> np.ndarray:
    """Signed floats whose magnitudes spread evenly over the exponent range,
    subnormals included."""
    with np.errstate(under="ignore"):
        mags = rng.uniform(1.0, 10.0, size) * 10.0 ** rng.uniform(-322, 307, size).round()
    return np.where(rng.random(size) < 0.5, -mags, mags)


def test_quotients_match_fraction_rounding():
    # the exact residual decides the direction; Fraction only where TwoProduct
    # is untrusted: divisors past the splitting limit, residual products
    # below 1e-290, subnormal quotients
    rng = np.random.default_rng(20261018)
    a, b = log_uniform_floats(rng, 120_000), log_uniform_floats(rng, 120_000)
    with np.errstate(over="ignore", under="ignore"):
        keep = np.abs(a / b) < 1e307
    pairs = list(zip(a[keep].tolist(), b[keep].tolist()))
    pairs += [(1.0, 7e299), (-3.0, 6.8e299), (1e-300, 3.0), (1e-20, 1e290), (5e-324, 3.0), (1.0, 3.0)]
    assert len(pairs) >= 100_000
    assert sum(abs(y) > _SPLIT_LIMIT for _, y in pairs) >= 500
    assert sum(0.0 < abs(x) < 1e-290 for x, _ in pairs) >= 1000
    for x, y in pairs:
        assert (_div_down(x, y), _div_up(x, y)) == fraction_rounding(x, y), (x, y)

    with np.errstate(over="ignore"):
        divisors = b[np.abs(1.0 / b) < 1e307]
    assert len(divisors) >= 100_000
    down, up = _quiet(_inv_arrays)(np.array((divisors, divisors))[:, None])[:, 0]
    want = np.array([fraction_rounding(1.0, y) for y in divisors.tolist()])
    assert np.array_equal(down.view(np.uint64), want[:, 0].view(np.uint64))
    assert np.array_equal(up.view(np.uint64), want[:, 1].view(np.uint64))


def test_directed_sums_near_the_largest_float_match_fraction():
    # one operand within 3 ulps of +-MAX and the other of opposite sign, in
    # either order: 2Sum's intermediate s - a can overflow although s cannot
    # (1,577 wrong sums of each rule at the parent)
    rng = np.random.default_rng(20261019)
    count = 100_000
    near = [MAX]
    for _ in range(3):
        near.append(math.nextafter(near[-1], 0.0))
    a = np.array(near)[rng.integers(0, 4, count)] * rng.choice((-1.0, 1.0), count)
    b = -np.sign(a) * rng.uniform(0.0, 1.0, count) * MAX
    a, b = np.where(rng.random(count) < 0.5, (a, b), (b, a))
    stacked = _quiet(_round_sums)(np.array((a, a))[:, None], np.array((b, b))[:, None], _SIGNS)
    wrong = 0
    for x, y, array_down, array_up in zip(a.tolist(), b.tolist(), *stacked[:, 0].tolist()):
        exact = Fraction(x) + Fraction(y)
        for rule, side, array_sum in ((_add_down, -1, array_down), (_add_up, 1, array_up)):
            r = rule(x, y)
            wrong += (Fraction(r) - exact) * side < 0 or r != array_sum
    assert wrong == 0


def test_rounding_past_the_largest_float_raises():
    root = math.sqrt(MAX)
    with pytest.raises(OverflowError):
        _add_up(1.0, MAX)
    with pytest.raises(OverflowError):
        _sub_up(MAX, -1.0)
    with pytest.raises(OverflowError):
        _mul_up(root, math.nextafter(root, math.inf))
    with pytest.raises(OverflowError):
        _widened(0.0, math.nextafter(MAX, 0.0))  # a transcendental margin
    model = make_model(Domain.of([(0.0, 1.0)] * 2, 1), [[(0.0, MAX)], [(0.0, 1.0)]])
    with pytest.raises(OverflowError):
        model.range_bounds()


# ----------------------------------------------------------------------
# transcendental endpoints against mpmath at 40 digits
# ----------------------------------------------------------------------

MIN_NORMAL = sys.float_info.min
SUBNORMALS = [TINY, -TINY, 3 * TINY, 1e-310, -1e-310, math.nextafter(MIN_NORMAL, 0.0), MIN_NORMAL]
HUGE = [s * 10.0**k for k in range(15, 23) for s in (1.0, -1.0, 3.7)]
NEAR_POLES = [
    math.pi / 2 + k * math.pi + d
    for k in (-1e6, -3, -1, 0, 1, 2, 7, 1e6)
    for d in (-1e-7, -1e-8, -1e-9, 1e-9, 1e-8, 1e-7)
]
NEAR_ONE = [1.0 + d for d in (-1e-9, -1e-15, 1e-15, 1e-9)] + [
    math.nextafter(1.0, v) for v in (0.0, 2.0)
]
EDGE_INPUTS = {
    "exp": SUBNORMALS + [0.0, 1.0, -1.0, 709.78, -709.78, 709.782712893384, 709.79, -745.0, -745.13, -746.0],
    "log": [x for x in SUBNORMALS if x > 0] + NEAR_ONE + [1.0, 0.5, 2.0, 1e300, MAX],
    "sin": SUBNORMALS + [0.0, 1.0, math.pi, -math.pi / 2] + HUGE,
    "cos": SUBNORMALS + [0.0, 1.0, math.pi, math.pi / 2] + HUGE,
    "tan": SUBNORMALS + [0.0, 1.0, -1.0, math.pi] + HUGE + NEAR_POLES,
}
#: (offset, period), in units of pi/2, of the points where each rule's exact
#: image turns: the maxima and minima of sin and cos, the poles of tan
TURNS = {
    "sin": ((1, 4), (-1, 4)),
    "cos": ((0, 4), (2, 4)),
    "tan": ((1, 2),),
}


def _has_turn(a, b, offset, period, slack=0):
    """Does (offset + k * period) * pi/2 lie within slack of [a, b] for an
    integer k?  Located at 60 digits, which resolves arguments up to 1e22."""
    with mpmath.workdps(60):
        unit = mpmath.pi / 2
        k = mpmath.ceil((mpmath.mpf(a) - slack - offset * unit) / (period * unit))
        return (offset + k * period) * unit <= mpmath.mpf(b) + slack


def _scalar_rule(name, lo, hi):
    """(lo, hi) of the scalar rule over [lo, hi], or the class it raises."""
    try:
        out = getattr(Interval(lo, hi), name)()
    except (DomainViolation, OverflowError) as err:
        return type(err)
    return out.lo, out.hi


def _array_rule(name, pairs):
    """The array rule over the pairs as one (2, 1, k) array, as a (k, 2) array,
    or the class it raises."""
    try:
        out = _ARRAY_RULES[name](np.array(pairs, dtype=float).T[:, None, :])
    except (DomainViolation, OverflowError) as err:
        return type(err)
    return out[:, 0, :].T


def _assert_holds_exact_image(name, a, b, got, inner):
    """The scalar result over [a, b] holds the exact value at a, b and the
    inner points, and reaches +-1 where an exact extremum lies inside; a
    raise is legitimate only at an exact pole or overflow, up to the rule's
    tolerance."""
    f = getattr(mpmath, name)
    if got is OverflowError:
        assert name == "exp" and f(mpmath.mpf(b)) > MAX * (1 - mpmath.mpf(2) ** -48), (a, b)
        return
    if got is DomainViolation:
        assert name == "tan" and _has_turn(a, b, *TURNS["tan"][0], 4e-9 + 1e-14 * max(abs(a), abs(b))), (a, b)
        return
    lo, hi = mpmath.mpf(got[0]), mpmath.mpf(got[1])
    for x in (a, b, *inner):
        assert lo <= f(mpmath.mpf(x)) <= hi, (name, a, b, x, got)
    if name == "tan":
        assert not _has_turn(a, b, *TURNS["tan"][0]), (a, b, got)
    elif name in TURNS:
        peak, trough = TURNS[name]
        assert got[1] == 1.0 or not _has_turn(a, b, *peak), (name, a, b, got)
        assert got[0] == -1.0 or not _has_turn(a, b, *trough), (name, a, b, got)


def check_transcendental(name, pairs, ts):
    """Every (lo, hi) pair against mpmath at 40 digits, and the array rule
    against the scalar rule: the same class raised per entry, and the same
    bits over all the entries that do not raise, in one call."""
    scalar = [_scalar_rule(name, a, b) for a, b in pairs]
    with mpmath.workdps(40):
        for (a, b), got in zip(pairs, scalar):
            inner = [min(max(a + t * (b - a), a), b) for t in ts]
            _assert_holds_exact_image(name, a, b, got, inner)
    for pair, got in zip(pairs, scalar):
        if isinstance(got, type):
            assert _array_rule(name, [pair]) is got, (name, pair)
    kept = [(pair, got) for pair, got in zip(pairs, scalar) if not isinstance(got, type)]
    if kept:
        out = _array_rule(name, [pair for pair, _ in kept])
        want = np.array([got for _, got in kept])
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64)), name


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_transcendental_edges_hold_exact_values(name):
    xs = EDGE_INPUTS[name]
    pairs = [(x, x) for x in xs] + [(min(a, b), max(a, b)) for a, b in zip(xs, xs[1:])]
    check_transcendental(name, pairs, ts=(0.25, 0.5))


def transcendental_inputs(name):
    wide = {"exp": (-746.0, 709.8), "log": (TINY, MAX)}.get(name, (-1e22, 1e22))
    narrow = {"exp": (-20.0, 20.0), "log": (TINY, 4.0)}.get(name, (-8.0, 8.0))
    return st.one_of(st.sampled_from(EDGE_INPUTS[name]), st.floats(*wide), st.floats(*narrow))


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_transcendental_fuzz_holds_exact_values(name, data):
    xs = transcendental_inputs(name)
    pair = st.one_of(xs.map(lambda x: (x, x)), st.tuples(xs, xs).map(lambda p: (min(p), max(p))))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=6))
    check_transcendental(name, pairs, ts=(data.draw(st.floats(0.0, 1.0)),))
