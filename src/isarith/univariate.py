"""Composition of a univariate atom with a superposition model.

Composing g with a model works row by row: pick a central point a_i inside
each row's hull, let omega be the model constant plus the sum of the a_i,
evaluate g over the recentered branch windows minus g(omega), keep g(omega)
as the new constant, and absorb the non-additive part of g into a scalar
remainder bound that is added to a single row as a symmetric interval.  The
remainder bound for each atom comes from a globally valid algebraic identity
(addition theorems and their relatives), so no derivative or local expansion
is involved and the construction stays valid on arbitrarily wide domains.

All remainder formulas are evaluated in interval arithmetic internally and the
upper endpoint is returned, so rounding can only ever over-estimate.  A model
in which at most one row has positive width incurs a remainder of exactly 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .interval import _ARRAY_RULES, PI_HALF, DomainViolation, Interval, ZeroInDomain, _add_floats
from .interval import _quiet, _sub_up
from .model import (
    RangeBounds,
    SuperpositionModel,
    _ZERO,
    _affine,
    _clamp,
    _midpoints_and_radii,
    _model,
    _windows,
    _with_remainder,
)

__all__ = [
    "Atom",
    "CompositionWorkspace",
    "RemainderUnbounded",
    "central_points",
    "remainder_bound",
    "compose",
    "sqrt_model",
    "cot_model",
    "pow_model",
    "recip_model",
]


_ONE = Interval(1.0, 1.0)


class RemainderUnbounded(DomainViolation):
    """The remainder formula has no finite value on this model (log row)."""


class Atom(Enum):
    """The closed set of univariate atoms with known remainder bounds."""

    NEG = "neg"
    SQR = "sqr"
    INV = "inv"
    EXP = "exp"
    LOG = "log"
    SIN = "sin"
    COS = "cos"
    TAN = "tan"


@dataclass(frozen=True, slots=True)
class CompositionWorkspace:
    """Per-composition scalars: one central point per row, their sum plus the
    model constant as an interval, and per-row spread bounds."""

    centers: tuple[float, ...]
    omega: Interval
    spreads: tuple[float, ...]


def _check_atom_domain(g: Atom, rb: RangeBounds) -> None:
    if g is Atom.INV:
        if rb.lo <= 0.0 <= rb.hi:
            raise ZeroInDomain(f"model range [{rb.lo}, {rb.hi}] spans zero")
        if rb.hi < 0.0:
            raise DomainViolation(
                "reciprocal atom needs a positive range; use recip_model for negative ranges"
            )
    elif g is Atom.LOG:
        if rb.lo <= 0.0:
            raise DomainViolation(f"log needs a positive model range, got [{rb.lo}, {rb.hi}]")
    elif g is Atom.TAN:
        Interval(rb.lo, rb.hi).tan()  # raises on pole contact


def central_points(g: Atom, m: SuperpositionModel) -> CompositionWorkspace:
    """Choose a central point inside every row hull and bound the admissible
    per-row offsets around it.

    Midpoints everywhere except: exp uses the log of the mean of the endpoint
    exponentials (which minimizes the exponential spread), and the reciprocal
    uses the range-weighted mix of the hull endpoints.  A degenerate row's
    center is its single value and its spread is exactly zero.
    """
    rb = m.range_bounds()
    centers, radii = _midpoints_and_radii(rb)
    for i, (lo, hi) in enumerate(zip(rb.row_lo, rb.row_hi)):
        if lo == hi:
            continue
        if g is Atom.EXP:
            try:
                centers[i] = _clamp(math.log(0.5 * (math.exp(hi) + math.exp(lo))), lo, hi)
            except (OverflowError, ValueError):  # e^hi overflows, or both ends underflow
                centers[i] = _clamp(hi + math.log(0.5 + 0.5 * math.exp(lo - hi)), lo, hi)
        elif g is Atom.INV:
            if rb.lo + rb.hi == 0.0:
                raise DomainViolation("reciprocal center undefined: range endpoints cancel")
            centers[i] = _clamp((lo * rb.hi + hi * rb.lo) / (rb.lo + rb.hi), lo, hi)

    omega = Interval(*_add_floats(m.const, centers, centers))

    spreads = tuple(
        _spread(g, lo, hi, a, rad, omega)
        for lo, hi, a, rad in zip(rb.row_lo, rb.row_hi, centers, radii)
    )
    return CompositionWorkspace(tuple(centers), omega, spreads)


def _spread(g: Atom, lo: float, hi: float, a: float, rad: float, omega: Interval) -> float:
    """Offset bound of one row around its center a; rad is the row's radius
    around its midpoint, which is the center of every atom that reads it."""
    if lo == hi or g is Atom.NEG:
        return 0.0
    if g in (Atom.SQR, Atom.LOG, Atom.TAN):
        return rad
    if g is Atom.EXP:
        grow = ((Interval.point(hi) - a).exp() - 1.0).hi
        drop = (1.0 - (Interval.point(lo) - a).exp()).hi
        return max(grow, drop, 0.0)
    if g in (Atom.SIN, Atom.COS):
        half = Interval(0.0, rad) * 0.5
        return min(2.0, (half.sin() * 2.0).hi)
    # reciprocal: bound |offset / (omega + offset)| at both hull endpoints
    left_num = Interval.point(a) - lo
    left_den = (omega - a) + lo
    right_num = Interval.point(hi) - a
    right_den = (omega - a) + hi
    if left_den.lo <= 0.0 or right_den.lo <= 0.0:
        raise DomainViolation("reciprocal spread undefined: recentered row touches zero")
    return max((left_num * left_den.inv()).hi, (right_num * right_den.inv()).hi, 0.0)


def remainder_bound(g: Atom, m: SuperpositionModel, w: CompositionWorkspace) -> float:
    """Scalar bound on the defect of writing g over a sum of rows as a sum of
    recentered row images.  Exactly zero whenever at most one row is wide.
    Sums and products run over the wide rows' spreads left to right from an
    interval start, never over bare floats, which Python 3.12 sums compensated."""
    if g is Atom.NEG:
        return 0.0
    rb = m.range_bounds()
    active = [i for i, x in enumerate(w.spreads) if x > 0.0]
    if len(active) <= 1:
        return 0.0

    omega = w.omega
    s = [w.spreads[i] for i in active]
    if g is Atom.SQR:
        sigma = sum(s, _ZERO)
        return max(0.0, sum(((sigma - x) * x for x in s), _ZERO).hi)

    if g is Atom.EXP or g in (Atom.SIN, Atom.COS):
        excess = math.prod((_ONE + x for x in s), start=_ONE) - sum(s, _ZERO) - 1.0
        if g is Atom.EXP:
            return max(0.0, (omega.exp() * excess).hi)
        amplitude = omega.sin().mag() + omega.cos().mag()
        return max(0.0, (Interval(0.0, amplitude) * excess).hi)

    if g is Atom.LOG:
        if rb.lo <= 0.0:
            raise DomainViolation("log remainder needs a positive model range")
        power = math.prod([omega] * (len(s) - 1), start=_ONE)
        numer = math.prod((omega + x for x in s), start=_ONE) - power * (omega + sum(s, _ZERO))
        arg = 1.0 - numer * (power * rb.lo).inv()
        if arg.lo <= 0.0:
            raise RemainderUnbounded(
                f"log remainder argument reaches {arg.lo}; the model is too wide"
            )
        return max(0.0, -(arg.log().lo))

    if g is Atom.INV:
        if rb.lo <= 0.0:
            raise DomainViolation("reciprocal remainder needs a positive model range")
        acc = _ZERO
        for i in active:
            upper = (Interval.point(rb.hi) - omega) - (Interval.point(rb.row_hi[i]) - w.centers[i])
            lower = (omega - rb.lo) - (Interval.point(w.centers[i]) - rb.row_lo[i])
            others = max(0.0, upper.hi, lower.hi)
            acc = acc + Interval(0.0, w.spreads[i]) * others
        denom = omega * rb.lo
        if denom.lo <= 0.0:
            raise DomainViolation("reciprocal remainder denominator touches zero")
        return max(0.0, (acc * denom.inv()).hi)

    # tangent: interval form of the telescoped addition identity
    offs = [Interval(-x, x) for x in s]
    prefixes = list(itertools.accumulate(offs))
    sigma = prefixes[-1]
    others = [Interval(-t, t) for t in (max(0.0, _sub_up(sigma.hi, x)) for x in s)]
    tan_w = omega.tan()
    tan_ws = (omega + sigma).tan()
    steps = zip(offs[1:], prefixes, prefixes[1:])
    chain = sum((o.tan() * p.tan() * q.tan() for o, p, q in steps), _ZERO)
    bracket = _ONE + tan_w * tan_ws
    inner = [_ONE + (omega + o).tan() * tan_ws for o in offs]
    cross = sum((tan_w * o.tan() * t.tan() * u for o, t, u in zip(offs, others, inner)), _ZERO)
    return (chain * bracket + cross).mag()


@_quiet
def compose(g: Atom, m: SuperpositionModel) -> SuperpositionModel:
    """Model of g applied to the function the input model encloses.

    Negation mirrors every coefficient and the constant, and is exact.  Every
    other atom takes g(omega) as the new constant, evaluates g over the
    recentered branch windows of each row with width and subtracts g(omega)
    there, leaves degenerate rows at exactly [0, 0] (their offset is zero),
    and adds the remainder bound to the row with the widest entries.  Where
    the remainder has no finite bound, the result is the constant model of g
    over the whole model range.
    """
    if g is Atom.NEG:
        return _model(m.domain, -m.bounds[::-1], -m.const)

    rb = m.range_bounds()
    _check_atom_domain(g, rb)
    w = central_points(g, m)
    try:
        r = remainder_bound(g, m, w)
    except RemainderUnbounded:
        return _model(m.domain, np.zeros(m.bounds.shape), getattr(Interval, g.value)(Interval(rb.lo, rb.hi)))

    g_omega = getattr(Interval, g.value)(w.omega)  # every atom but NEG names its Interval method
    wide = [i for i, (lo, hi) in enumerate(zip(rb.row_lo, rb.row_hi)) if lo < hi]
    bounds = _ARRAY_RULES[g.value](_windows(m, wide, w.centers, w.omega))
    return _with_remainder(m, wide, bounds, g_omega, r)


def sqrt_model(m: SuperpositionModel) -> SuperpositionModel:
    """Square root as exp(0.5 * log(x)); needs a positive model range."""
    rb = m.range_bounds()
    if rb.lo <= 0.0:
        raise DomainViolation(f"sqrt needs a positive model range, got [{rb.lo}, {rb.hi}]")
    return compose(Atom.EXP, _affine(compose(Atom.LOG, m), 0.5))


def cot_model(m: SuperpositionModel) -> SuperpositionModel:
    """Cotangent as tan(pi/2 - x), with an interval enclosure of pi/2."""
    return compose(Atom.TAN, _affine(m, -1.0, PI_HALF))


def _by_squaring(x, k: int, sqr, mul):
    """x^k for a positive integer k: the square of x^(k/2) for even k, else
    x^(k-1) times x.  The model and the interval power rules share it."""
    if k == 1:
        return x
    if k % 2 == 0:
        return sqr(_by_squaring(x, k // 2, sqr, mul))
    return mul(_by_squaring(x, k - 1, sqr, mul), x)


def pow_model(m: SuperpositionModel, k: int) -> SuperpositionModel:
    """Integer power by squaring over the square atom and the product rule."""
    if k < 1:
        raise ValueError(f"exponent must be a positive integer, got {k}")
    from .bivariate import mul_models

    return _by_squaring(m, k, lambda x: compose(Atom.SQR, x), mul_models)


def recip_model(m: SuperpositionModel) -> SuperpositionModel:
    """Reciprocal on either sign of the range: direct on positive ranges,
    mirrored through negation on negative ones."""
    rb = m.range_bounds()
    if rb.lo > 0.0:
        return compose(Atom.INV, m)
    if rb.hi < 0.0:
        return compose(Atom.NEG, compose(Atom.INV, compose(Atom.NEG, m)))
    raise ZeroInDomain(f"reciprocal of a model with range [{rb.lo}, {rb.hi}] spanning zero")
