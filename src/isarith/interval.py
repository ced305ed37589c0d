"""Directed-rounding interval arithmetic over closed finite intervals.

Every operation returns an interval that contains the exact real image of its
arguments.  Rational operations (add, sub, mul, inv, sqr) round each endpoint
to the nearest representable value in the outward direction, using error-free
transformations to avoid widening results that are exact in floating point.
Transcendental operations (exp, log, sin, cos, tan) evaluate endpoints in
working precision and widen each endpoint by ULP_MARGIN ulps.

Endpoints are always finite; an operation that would overflow raises
OverflowError instead of producing an infinite endpoint.

The module also carries each rule over numpy arrays of endpoints, for the
superposition models' coefficient matrices.  Those give every entry the bits
the scalar rule gives it and raise the scalar rule's exception classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Interval",
    "IntervalError",
    "DomainViolation",
    "ZeroInDomain",
    "ULP_MARGIN",
    "PI",
    "PI_HALF",
]


class IntervalError(ValueError):
    """Base class for interval arithmetic errors."""


class DomainViolation(IntervalError):
    """An argument lies outside the mathematical domain of the operation."""


class ZeroInDomain(DomainViolation):
    """A reciprocal was requested for an interval containing zero."""


#: Number of ulps added to each endpoint of a transcendental result.  libm
#: functions are well under 1 ulp off; 4 leaves generous slack.
ULP_MARGIN = 4

_INF = math.inf
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant
_SPLIT_LIMIT = 6.7e299  # beyond this the splitting itself overflows


def _require_finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise OverflowError(f"{what} overflowed to a non-finite value")
    return x


def _down(x: float) -> float:
    return _require_finite(math.nextafter(x, -_INF), "rounding down")


def _up(x: float) -> float:
    return _require_finite(math.nextafter(x, _INF), "rounding up")


def _steps(x: float, k: int, direction: float) -> float:
    """x moved k floats toward direction, checked once: a step that leaves
    the finite range stays infinite."""
    for _ in range(k):
        x = math.nextafter(x, direction)
    return _require_finite(x, "rounding")


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """lo moved ULP_MARGIN floats down and hi as many up: the widening of a
    transcendental result's endpoints."""
    return _steps(lo, ULP_MARGIN, -_INF), _steps(hi, ULP_MARGIN, _INF)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # Knuth's branch-free 2Sum: a + b == s + err exactly.  err is NaN where s
    # overflows, or where s is finite but a step on the way overflows (Boldo,
    # Graillat & Muller, ACM TOMS 2017); the directed sums then step outward,
    # and one step from the rounded-to-nearest s bounds the exact sum.
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return s, err


def _two_prod(a: float, b: float) -> tuple[float, float | None]:
    # Dekker's product: a * b == p + err exactly, or err None when the
    # error term cannot be trusted (near under/overflow).
    p = a * b
    if p == 0.0:
        return p, (0.0 if (a == 0.0 or b == 0.0) else None)
    if abs(p) < 1e-290 or abs(a) > _SPLIT_LIMIT or abs(b) > _SPLIT_LIMIT:
        return p, None
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    d = _SPLITTER * b
    bhi = d - (d - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    if not math.isfinite(err):  # a product or an intermediate one overflowed
        return p, None
    return p, err


def _add_down(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    return s if e >= 0 else _down(_require_finite(s, "sum"))


def _add_up(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    return s if e <= 0 else _up(_require_finite(s, "sum"))


def _sub_up(a: float, b: float) -> float:
    return _add_up(a, -b)


def _add_floats(x: Interval, los, his) -> tuple[float, float]:
    """x.lo plus each of los rounded down, x.hi plus each of his up: x + v, repeated."""
    lo, hi = x.lo, x.hi
    for a, b in zip(los, his):
        lo, hi = _add_down(lo, a), _add_up(hi, b)
    return lo, hi


def _mul_both(a: float, b: float) -> tuple[float, float]:
    """a * b rounded down and up, from one TwoProduct."""
    p, e = _two_prod(a, b)
    if e is None:
        _require_finite(p, "product")
        # a product that underflowed to zero is bounded by 0 on its sign's side
        if p == 0.0:
            return (0.0, _up(p)) if (a > 0.0) == (b > 0.0) else (_down(p), 0.0)
        return _down(p), _up(p)
    return (_down(p) if e < 0 else p), (_up(p) if e > 0 else p)


def _mul_down(a: float, b: float) -> float:
    return _mul_both(a, b)[0]


def _mul_up(a: float, b: float) -> float:
    return _mul_both(a, b)[1]


def _quotient_side(a: float, b: float, q: float) -> int:
    """Sign of the exact a / b minus its rounded quotient q.

    The residual a - q*b is exact: a - p loses nothing because p = fl(q*b)
    lies within a factor 2 of a, and TwoProduct gives q*b = p + err exactly.
    Where TwoProduct cannot be trusted the comparison is made in Fraction.
    """
    p, err = _two_prod(q, b)
    if err is None:
        exact, rounded = Fraction(a) / Fraction(b), Fraction(q)
        return (exact > rounded) - (exact < rounded)
    r = (a - p) - err
    if r == 0.0:
        return 0
    return 1 if (r > 0.0) == (b > 0.0) else -1


def _div_down(a: float, b: float) -> float:
    q = _require_finite(a / b, "quotient")
    return _down(q) if _quotient_side(a, b, q) < 0 else q


def _div_up(a: float, b: float) -> float:
    q = _require_finite(a / b, "quotient")
    return _up(q) if _quotient_side(a, b, q) > 0 else q


def _reaches_width(lo: float, hi: float, limit: float) -> bool:
    """Is hi - lo, rounded up, at least limit?  A width that overflows is."""
    s, err = _two_sum(hi, -lo)
    return (s if err <= 0 else math.nextafter(s, _INF)) >= limit


def _has_grid_point(lo: float, hi: float, offset: float, period: float) -> bool:
    """Is offset + k*period inside [lo, hi] for some integer k?

    The test is widened by a tolerance that accounts for rounding in the
    division, so it can only ever report extra grid points.  Erring on the
    inclusive side keeps enclosures sound (an extra critical point widens a
    result, an extra pole rejects a tangent evaluation).
    """
    a = (lo - offset) / period
    b = (hi - offset) / period
    tol = 1e-9 + 2e-15 * max(abs(a), abs(b))
    return math.ceil(a - tol) <= math.floor(b + tol)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with finite float endpoints, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise IntervalError(f"non-finite endpoint in [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise IntervalError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v: float) -> Interval:
        """Degenerate interval [v, v]."""
        v = float(v)
        return cls(v, v)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def diam(self) -> float:
        """Diameter hi - lo, rounded up."""
        return _sub_up(self.hi, self.lo)

    def mag(self) -> float:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, p: float) -> bool:
        return self.lo <= p <= self.hi

    def encloses(self, other: Interval) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    # ------------------------------------------------------------------
    # rational arithmetic
    # ------------------------------------------------------------------

    def __add__(self, other: Interval | float | int) -> Interval:
        if isinstance(other, (int, float)):
            other = Interval.point(other)
        elif not isinstance(other, Interval):
            return NotImplemented
        return Interval(_add_down(self.lo, other.lo), _add_up(self.hi, other.hi))

    def __radd__(self, other: float | int) -> Interval:
        return self + other

    def __neg__(self) -> Interval:
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: Interval | float | int) -> Interval:
        if isinstance(other, (int, float)):
            other = Interval.point(other)
        elif not isinstance(other, Interval):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: float | int) -> Interval:
        return Interval.point(other) + (-self)

    def __mul__(self, other: Interval | float | int) -> Interval:
        if isinstance(other, (int, float)):
            other = Interval.point(other)
        elif not isinstance(other, Interval):
            return NotImplemented
        products = (
            _mul_both(self.lo, other.lo),
            _mul_both(self.lo, other.hi),
            _mul_both(self.hi, other.lo),
            _mul_both(self.hi, other.hi),
        )
        return Interval(min(d for d, _ in products), max(u for _, u in products))

    def __rmul__(self, other: float | int) -> Interval:
        return self * other

    def inv(self) -> Interval:
        """Reciprocal 1/x.  The interval must not contain zero."""
        if self.lo <= 0.0 <= self.hi:
            raise ZeroInDomain(f"reciprocal of [{self.lo}, {self.hi}] spans zero")
        return Interval(_div_down(1.0, self.hi), _div_up(1.0, self.lo))

    def sqr(self) -> Interval:
        """Square x**2; tighter than self * self when zero is inside: the
        point nearest zero squared down, the farther endpoint squared up."""
        near, far = min(max(self.lo, 0.0), self.hi), max(-self.lo, self.hi)
        # a square is never negative; subnormal rounding may dip below
        return Interval(max(0.0, _mul_down(near, near)), _mul_up(far, far))

    # ------------------------------------------------------------------
    # transcendental functions
    # ------------------------------------------------------------------

    def exp(self) -> Interval:
        # math.exp raises OverflowError past the largest float
        lo, hi = _widened(math.exp(self.lo), math.exp(self.hi))
        return Interval(max(0.0, lo), hi)

    def log(self) -> Interval:
        if self.lo <= 0.0:
            raise DomainViolation(f"log of [{self.lo}, {self.hi}] needs a positive lower endpoint")
        return Interval(*_widened(math.log(self.lo), math.log(self.hi)))

    def _periodic(self, f, peak: float, trough: float) -> Interval:
        """Image under sin or cos (f), whose maxima lie at peak + 2k*pi and
        minima at trough + 2k*pi: an extremum that may lie inside is exact,
        otherwise the endpoint values are widened by ULP_MARGIN ulps."""
        if _reaches_width(self.lo, self.hi, math.tau):
            return Interval(-1.0, 1.0)
        vlo, vhi = f(self.lo), f(self.hi)
        lo, hi = _widened(min(vlo, vhi), max(vlo, vhi))
        hi = 1.0 if _has_grid_point(self.lo, self.hi, peak, math.tau) else min(1.0, hi)
        lo = -1.0 if _has_grid_point(self.lo, self.hi, trough, math.tau) else max(-1.0, lo)
        return Interval(lo, hi)

    def sin(self) -> Interval:
        return self._periodic(math.sin, math.pi / 2, -math.pi / 2)

    def cos(self) -> Interval:
        return self._periodic(math.cos, 0.0, math.pi)

    def tan(self) -> Interval:
        # poles at pi/2 + k*pi; reject any interval that may touch one
        lo, hi = self.lo, self.hi
        if _reaches_width(lo, hi, math.pi) or _has_grid_point(lo, hi, math.pi / 2, math.pi):
            raise DomainViolation(f"tan over [{lo}, {hi}] spans a pole")
        return Interval(*_widened(math.tan(lo), math.tan(hi)))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


# ----------------------------------------------------------------------
# the same rules over arrays of endpoints
# ----------------------------------------------------------------------
#
# The interval rules take and return stacked arrays: index 0 holds the lower
# endpoints and index 1 the upper ones, and each directed step rounds both
# halves in one call toward _DIRS.  Every entry gets the bits of its scalar
# rule, and the scalar rule's exception classes are raised.  The error-free
# transformations run vectorized (Ogita, Rump & Oishi, SIAM J. Sci. Comput.
# 2005); transcendental endpoints go through math (libm) as in the scalar
# rules, since numpy's own kernels differ from it in the last bit; and the
# scalar min and max keep the first of equal candidates (so -0.0 and 0.0
# depend on order), which ordered np.where chains reproduce.

#: Signs and rounding directions of the lower and upper halves of a stacked
#: (2, n, N) array.
_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1)
_DIRS = _SIGNS * _INF
_MIRROR = -_SIGNS[..., None]


def _stacked(lo: float, hi: float) -> np.ndarray:
    """Two endpoints shaped to pair with a stacked (2, n, N) array."""
    return np.array((lo, hi)).reshape(2, 1, 1)


def _quiet(rule):
    """rule run with numpy's overflow and invalid warnings off.  The helpers
    below leave both to their caller and check for them; every model rule
    that runs them is wrapped in this."""
    return np.errstate(over="ignore", invalid="ignore")(rule)


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
        raise OverflowError(f"{what} overflowed to a non-finite value")
    return x


def _round_sums(a, b, sign) -> np.ndarray:
    """a + b rounded toward sign * inf (sign -1.0, 1.0 or _SIGNS) as _add_down
    and _add_up round.  An overflowing entry is left non-finite for the caller
    to check: its step goes toward s + sign * inf, NaN where s is the
    infinity of the other direction."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    toward = s + (_DIRS if sign is _SIGNS else sign * _INF)
    return np.nextafter(s, toward, out=s, where=~(err * sign <= 0.0))


def _sums(a, b) -> np.ndarray:
    """Stacked a + b: the lower half rounded down, the upper half up."""
    return _finite(_round_sums(a, b, _SIGNS), "sum")


def _two_prods(a: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_two_prod entrywise: the products, their error terms (non-finite where
    a product is), and the mask of the entries where _two_prod returns None."""
    p = a * b
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    d = _SPLITTER * b
    bhi = d - (d - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    zero = (a == 0.0) | (b == 0.0)
    trusted = np.isfinite(err) & (np.abs(p) >= 1e-290)
    trusted &= np.maximum(np.abs(a), np.abs(b)) <= _SPLIT_LIMIT
    return p, np.where(zero, 0.0, err), ~(trusted | zero)


def _products(a: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """_mul_both entrywise, b an array or one float, unchecked for a rounding
    step past the largest float; entries without a trusted error term use the
    scalar rule."""
    p, err, untrusted = _two_prods(a, b)
    _finite(p, "product")
    down = np.nextafter(p, -_INF, where=err < 0.0, out=p.copy())
    up = np.nextafter(p, _INF, where=err > 0.0, out=p)
    if untrusted.any():
        a, b = np.broadcast_arrays(a, b)
        pairs = map(_mul_both, a[untrusted].tolist(), b[untrusted].tolist())
        down[untrusted], up[untrusted] = zip(*pairs)
    return down, up


def _outward_quotients(a: float, b: np.ndarray) -> np.ndarray:
    """a over the stacked b, the lower half rounded down and the upper half
    up, checked: the sign of the exact residual a - q*b, as in _quotient_side,
    with the scalar rule only where TwoProduct is untrusted."""
    q = _finite(a / b, "quotient")
    p, err, untrusted = _two_prods(q, b)
    side = np.sign((a - p) - err) * np.sign(b)
    np.nextafter(q, _DIRS, out=q, where=side * _SIGNS > 0.0)
    for half, rule in ((0, _div_down), (1, _div_up)):
        if untrusted[half].any():
            q[half][untrusted[half]] = [rule(a, y) for y in b[half][untrusted[half]].tolist()]
    return _finite(q, "rounding")


def _interval_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interval.__mul__ entrywise over stacked arrays: four directed products
    per entry, their minimum and maximum taken in the scalar rule's order."""
    # the lower ends and the negated upper ends, so that one minimum picks both
    ends = _finite(np.array(_products(a[[0, 0, 1, 1]], b[[0, 1, 0, 1]])) * _MIRROR, "rounding")
    out = ends[:, 0]
    for k in (1, 2, 3):
        out = np.where(ends[:, k] < out, ends[:, k], out)
    return out * _MIRROR[:, 0]


def _first(mask: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Endpoints of the first entry the mask selects, in row-major order."""
    i = int(np.flatnonzero(mask)[0])
    return float(b[0].flat[i]), float(b[1].flat[i])


def _libm(f, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _steps_arrays(x: np.ndarray, k: int, direction) -> np.ndarray:
    for _ in range(k):
        x = np.nextafter(x, direction)
    return _finite(x, "rounding")


def _reaches(b: np.ndarray, limit: float) -> np.ndarray:
    """_reaches_width entrywise: a width past the largest float, or one whose
    rounding up overflows, reaches any limit."""
    return _round_sums(b[1], -b[0], 1.0) >= limit


def _has_grid_points(lo, hi, offset, period: float) -> np.ndarray:
    """_has_grid_point entrywise, with the same float formulas."""
    a = (lo - offset) / period
    b = (hi - offset) / period
    tol = 1e-9 + 2e-15 * np.maximum(np.abs(a), np.abs(b))
    return np.ceil(a - tol) <= np.floor(b + tol)


def _sqr_arrays(b):
    lo, hi = b
    # squared per half: the point nearest zero (0.0 in a zero-spanning entry,
    # as in the scalar rule) and the farther endpoint; squares ignore signs
    base = np.array((np.minimum(np.maximum(lo, 0.0), hi), np.maximum(-lo, hi)))
    down, up = _products(base, base)
    out = _finite(np.array((down[0], up[1])), "rounding")
    out[0] = np.where(out[0] > 0.0, out[0], 0.0)
    return out


def _inv_arrays(b):
    spans = (b[0] <= 0.0) & (b[1] >= 0.0)
    if spans.any():
        raise ZeroInDomain("reciprocal of [{}, {}] spans zero".format(*_first(spans, b)))
    return _outward_quotients(1.0, b[::-1])


def _exp_arrays(b):
    out = _steps_arrays(_libm(math.exp, b), ULP_MARGIN, _DIRS)
    out[0] = np.where(out[0] > 0.0, out[0], 0.0)
    return out


def _log_arrays(b):
    bad = b[0] <= 0.0
    if bad.any():
        raise DomainViolation("log of [{}, {}] needs a positive lower endpoint".format(*_first(bad, b)))
    return _steps_arrays(_libm(math.log, b), ULP_MARGIN, _DIRS)


def _periodic_arrays(b, f, trough: float, peak: float):
    """Each half is the endpoint value widened and clamped to -1 or 1, or that
    bound itself where the interval is a full period wide or may hold a
    minimum (lower half) or maximum (upper half) at trough or peak + 2k*pi."""
    v = _libm(f, b)
    lower, upper = np.where(v[1] < v[0], v[1], v[0]), np.where(v[1] > v[0], v[1], v[0])
    ends = _steps_arrays(np.array((lower, upper)), ULP_MARGIN, _DIRS)
    extreme = _reaches(b, math.tau) | _has_grid_points(*b, _stacked(trough, peak), math.tau)
    return np.where(extreme | (ends * _SIGNS >= 1.0), _SIGNS, ends)


def _tan_arrays(b):
    poles = _reaches(b, math.pi) | _has_grid_points(*b, math.pi / 2, math.pi)
    if poles.any():
        raise DomainViolation("tan over [{}, {}] spans a pole".format(*_first(poles, b)))
    return _steps_arrays(_libm(math.tan, b), ULP_MARGIN, _DIRS)


#: Array form of each unary Interval method, by method name: stacked in,
#: stacked out.
_ARRAY_RULES = {
    "sqr": _sqr_arrays,
    "inv": _inv_arrays,
    "exp": _exp_arrays,
    "log": _log_arrays,
    "sin": lambda b: _periodic_arrays(b, math.sin, -math.pi / 2, math.pi / 2),
    "cos": lambda b: _periodic_arrays(b, math.cos, math.pi, 0.0),
    "tan": _tan_arrays,
}


#: Tight enclosures of pi and pi/2 (math.pi rounds down, and halving is exact).
PI = Interval(math.pi, _up(math.pi))
PI_HALF = Interval(math.pi / 2, _up(math.pi / 2))
