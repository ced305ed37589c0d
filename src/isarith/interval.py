"""Directed-rounding interval arithmetic over closed finite intervals.

Every operation returns an interval that contains the exact real image of its
arguments.  Rational operations (add, sub, mul, scale, shift, inv, sqr) round
each endpoint to the nearest representable value in the outward direction,
using error-free transformations to avoid widening results that are exact in
floating point.  Transcendental operations (exp, log, sin, cos, tan) evaluate
endpoints in working precision and widen each endpoint by ULP_MARGIN ulps.

Endpoints are always finite; an operation that would overflow raises
OverflowError instead of producing an infinite endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Interval",
    "IntervalError",
    "DomainViolation",
    "ZeroInDomain",
    "ULP_MARGIN",
    "PI",
    "PI_HALF",
    "TAU",
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


def _two_sum(a: float, b: float) -> tuple[float, float]:
    # Knuth's branch-free 2Sum: a + b == s + err exactly.
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
    if not math.isfinite(p):
        return p, None
    if abs(p) < 1e-290 or abs(a) > _SPLIT_LIMIT or abs(b) > _SPLIT_LIMIT:
        return p, None
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    d = _SPLITTER * b
    bhi = d - (d - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    if err != err:  # NaN from an overflowing intermediate
        return p, None
    return p, err


def _add_down(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    _require_finite(s, "sum")
    return _down(s) if e < 0 else s


def _add_up(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    _require_finite(s, "sum")
    return _up(s) if e > 0 else s


def _sub_up(a: float, b: float) -> float:
    return _add_up(a, -b)


def _mul_down(a: float, b: float) -> float:
    p, e = _two_prod(a, b)
    _require_finite(p, "product")
    if e is None:
        # a positive product that underflowed to zero is bounded below by 0
        return 0.0 if p == 0.0 and (a > 0.0) == (b > 0.0) else _down(p)
    return _down(p) if e < 0 else p


def _mul_up(a: float, b: float) -> float:
    p, e = _two_prod(a, b)
    _require_finite(p, "product")
    if e is None:
        # a negative product that underflowed to zero is bounded above by 0
        return 0.0 if p == 0.0 and (a > 0.0) != (b > 0.0) else _up(p)
    return _up(p) if e > 0 else p


def _div_down(a: float, b: float) -> float:
    q = a / b
    _require_finite(q, "quotient")
    exact = Fraction(a) / Fraction(b)
    if exact == Fraction(q):
        return q
    return _down(q) if exact < Fraction(q) else q


def _div_up(a: float, b: float) -> float:
    q = a / b
    _require_finite(q, "quotient")
    exact = Fraction(a) / Fraction(b)
    if exact == Fraction(q):
        return q
    return _up(q) if exact > Fraction(q) else q


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

    @property
    def mid(self) -> float:
        """A midpoint guaranteed to lie inside the interval."""
        m = self.lo + 0.5 * (self.hi - self.lo)
        if m < self.lo:
            return self.lo
        if m > self.hi:
            return self.hi
        return m

    def mag(self) -> float:
        """Largest absolute value over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, p: float) -> bool:
        return self.lo <= p <= self.hi

    def encloses(self, other: Interval) -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def hull(self, other: Interval) -> Interval:
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

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
        combos = (
            (self.lo, other.lo),
            (self.lo, other.hi),
            (self.hi, other.lo),
            (self.hi, other.hi),
        )
        return Interval(
            min(_mul_down(a, b) for a, b in combos),
            max(_mul_up(a, b) for a, b in combos),
        )

    def __rmul__(self, other: float | int) -> Interval:
        return self * other

    def shift(self, c: float) -> Interval:
        """Translate by the constant c."""
        return self + c

    def scale(self, c: float) -> Interval:
        """Multiply by the constant c (endpoints swap for c < 0)."""
        return self * c

    def inv(self) -> Interval:
        """Reciprocal 1/x.  The interval must not contain zero."""
        if self.lo <= 0.0 <= self.hi:
            raise ZeroInDomain(f"reciprocal of [{self.lo}, {self.hi}] spans zero")
        return Interval(_div_down(1.0, self.hi), _div_up(1.0, self.lo))

    def sqr(self) -> Interval:
        """Square x**2; tighter than self * self when zero is inside."""
        if self.lo >= 0.0:
            lo, hi = _mul_down(self.lo, self.lo), _mul_up(self.hi, self.hi)
        elif self.hi <= 0.0:
            lo, hi = _mul_down(self.hi, self.hi), _mul_up(self.lo, self.lo)
        else:
            m = max(-self.lo, self.hi)
            lo, hi = 0.0, _mul_up(m, m)
        # a square is never negative; subnormal rounding may dip below
        return Interval(max(0.0, lo), hi)

    # ------------------------------------------------------------------
    # transcendental functions
    # ------------------------------------------------------------------

    def exp(self) -> Interval:
        lo = math.exp(self.lo)
        hi = math.exp(self.hi)  # raises OverflowError past the largest float
        return Interval(max(0.0, _steps(lo, ULP_MARGIN, -_INF)), _steps(hi, ULP_MARGIN, _INF))

    def log(self) -> Interval:
        if self.lo <= 0.0:
            raise DomainViolation(f"log of [{self.lo}, {self.hi}] needs a positive lower endpoint")
        return Interval(
            _steps(math.log(self.lo), ULP_MARGIN, -_INF),
            _steps(math.log(self.hi), ULP_MARGIN, _INF),
        )

    def _periodic(self, f, peak: float, trough: float) -> Interval:
        """Image under sin or cos (f), whose maxima lie at peak + 2k*pi and
        minima at trough + 2k*pi: an extremum that may lie inside is exact,
        otherwise the endpoint values are widened by ULP_MARGIN ulps."""
        # isinf: a width past the largest float, where diam raises OverflowError
        if math.isinf(self.hi - self.lo) or self.diam >= math.tau:
            return Interval(-1.0, 1.0)
        vlo, vhi = f(self.lo), f(self.hi)
        lo, hi = min(vlo, vhi), max(vlo, vhi)
        hi = 1.0 if _has_grid_point(self.lo, self.hi, peak, math.tau) else min(
            1.0, _steps(hi, ULP_MARGIN, _INF)
        )
        lo = -1.0 if _has_grid_point(self.lo, self.hi, trough, math.tau) else max(
            -1.0, _steps(lo, ULP_MARGIN, -_INF)
        )
        return Interval(lo, hi)

    def sin(self) -> Interval:
        return self._periodic(math.sin, math.pi / 2, -math.pi / 2)

    def cos(self) -> Interval:
        return self._periodic(math.cos, 0.0, math.pi)

    def tan(self) -> Interval:
        # poles at pi/2 + k*pi; reject any interval that may touch one
        # isinf: a width past the largest float, where diam raises OverflowError
        wide = math.isinf(self.hi - self.lo) or self.diam >= math.pi
        if wide or _has_grid_point(self.lo, self.hi, math.pi / 2, math.pi):
            raise DomainViolation(f"tan over [{self.lo}, {self.hi}] spans a pole")
        return Interval(
            _steps(math.tan(self.lo), ULP_MARGIN, -_INF),
            _steps(math.tan(self.hi), ULP_MARGIN, _INF),
        )

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


#: Tight enclosures of the circle constants (math.pi and math.tau round down).
PI = Interval(math.pi, _up(math.pi))
PI_HALF = Interval(math.pi / 2, _up(math.pi / 2))
TAU = Interval(math.tau, _up(math.tau))
