"""Composition of a univariate atom with a superposition model.

Composing g with a model works row by row: pick a central point a_i inside
each row's hull, evaluate g over the recentered branch windows, and absorb the
non-additive part of g into a scalar remainder bound that is added to a single
row as a symmetric interval.  The remainder bound for each atom comes from a
globally valid algebraic identity (addition theorems and their relatives), so
no derivative or local expansion is involved and the construction stays valid
on arbitrarily wide domains.

All remainder formulas are evaluated in interval arithmetic internally and the
upper endpoint is returned, so rounding can only ever over-estimate.  A model
in which at most one row has positive width incurs a remainder of exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .interval import (
    PI_HALF,
    DomainViolation,
    Interval,
    ZeroInDomain,
    _enclose_fraction,
    _sub_up,
)
from .model import RangeBounds, SuperpositionModel, _affine, _pick_remainder_row

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
    """Per-composition scalars: one central point per row, their sum as a thin
    interval, per-row spread bounds, and the remainder."""

    centers: tuple[float, ...]
    omega: Interval
    spreads: tuple[float, ...]
    remainder: float


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


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def central_points(g: Atom, m: SuperpositionModel, rb: RangeBounds | None = None) -> CompositionWorkspace:
    """Choose a central point inside every row hull and bound the admissible
    per-row offsets around it.

    Midpoints everywhere except: exp uses the log of the mean of the endpoint
    exponentials (which minimizes the exponential spread), and the reciprocal
    uses the range-weighted mix of the hull endpoints.  A degenerate row's
    center is its single value and its spread is exactly zero.
    """
    rb = rb if rb is not None else m.range_bounds()
    centers: list[float] = []
    for lo, hi in zip(rb.row_lo, rb.row_hi):
        if lo == hi:
            centers.append(lo)
        elif g is Atom.EXP:
            eu, el = math.exp(hi), math.exp(lo)
            if not math.isfinite(eu):
                raise OverflowError(f"exp central point overflows on row hull [{lo}, {hi}]")
            centers.append(_clamp(math.log(0.5 * (eu + el)), lo, hi))
        elif g is Atom.INV:
            if rb.lo + rb.hi == 0.0:
                raise DomainViolation("reciprocal center undefined: range endpoints cancel")
            a = (lo * rb.hi + hi * rb.lo) / (rb.lo + rb.hi)
            centers.append(_clamp(a, lo, hi))
        else:
            centers.append(_clamp(lo + 0.5 * (hi - lo), lo, hi))

    omega = Interval(0.0, 0.0)
    for a in centers:
        omega = omega + a

    spreads = tuple(
        _spread(g, lo, hi, a, rb, omega)
        for lo, hi, a in zip(rb.row_lo, rb.row_hi, centers)
    )
    return CompositionWorkspace(tuple(centers), omega, spreads, 0.0)


def _spread(g: Atom, lo: float, hi: float, a: float, rb: RangeBounds, omega: Interval) -> float:
    if lo == hi or g is Atom.NEG:
        return 0.0
    rad = max(_sub_up(hi, a), _sub_up(a, lo))
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


def remainder_bound(
    g: Atom, m: SuperpositionModel, w: CompositionWorkspace, rb: RangeBounds | None = None
) -> float:
    """Scalar bound on the defect of writing g over a sum of rows as a sum of
    recentered row images.  Exactly zero whenever at most one row is wide."""
    if g is Atom.NEG:
        return 0.0
    rb = rb if rb is not None else m.range_bounds()
    active = [i for i, s in enumerate(w.spreads) if s > 0.0]
    if len(active) <= 1:
        return 0.0

    omega = w.omega
    if g is Atom.SQR:
        total = Interval(0.0, 0.0)
        sigma = Interval(0.0, 0.0)
        for i in active:
            sigma = sigma + w.spreads[i]
        for i in active:
            total = total + (sigma - w.spreads[i]) * w.spreads[i]
        return max(0.0, total.hi)

    if g is Atom.EXP or g in (Atom.SIN, Atom.COS):
        prod = Interval(1.0, 1.0)
        ssum = Interval(0.0, 0.0)
        for i in active:
            prod = prod * (Interval.point(1.0) + w.spreads[i])
            ssum = ssum + w.spreads[i]
        excess = (prod - ssum) - 1.0
        if g is Atom.EXP:
            return max(0.0, (omega.exp() * excess).hi)
        amplitude = omega.sin().mag() + omega.cos().mag()
        return max(0.0, (Interval(0.0, amplitude) * excess).hi)

    if g is Atom.LOG:
        if rb.lo <= 0.0:
            raise DomainViolation("log remainder needs a positive model range")
        count = len(active)
        prod = Interval(1.0, 1.0)
        ssum = Interval(0.0, 0.0)
        for i in active:
            prod = prod * (omega + w.spreads[i])
            ssum = ssum + w.spreads[i]
        power = Interval(1.0, 1.0)
        for _ in range(count - 1):
            power = power * omega
        numer = prod - power * (omega + ssum)
        arg = 1.0 - numer * (power * rb.lo).inv()
        if arg.lo <= 0.0:
            raise RemainderUnbounded(
                f"log remainder argument reaches {arg.lo}; the model is too wide"
            )
        return max(0.0, -(arg.log().lo))

    if g is Atom.INV:
        if rb.lo <= 0.0:
            raise DomainViolation("reciprocal remainder needs a positive model range")
        acc = Interval(0.0, 0.0)
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
    spreads = [w.spreads[i] for i in active]
    offs = [Interval(-s, s) for s in spreads]
    prefixes: list[Interval] = []
    run = Interval(0.0, 0.0)
    for s in offs:
        run = run + s
        prefixes.append(run)
    sigma = prefixes[-1]
    others = []
    for i, s in enumerate(spreads):
        t = max(0.0, _sub_up(sigma.hi, s))
        others.append(Interval(-t, t))
    tan_w = omega.tan()
    tan_ws = (omega + sigma).tan()
    chain = Interval(0.0, 0.0)
    for i in range(len(offs) - 1):
        chain = chain + offs[i + 1].tan() * prefixes[i].tan() * prefixes[i + 1].tan()
    bracket = Interval.point(1.0) + tan_w * tan_ws
    cross = Interval(0.0, 0.0)
    for i, s in enumerate(offs):
        inner = Interval.point(1.0) + (omega + s).tan() * tan_ws
        cross = cross + tan_w * s.tan() * others[i].tan() * inner
    return (chain * bracket + cross).mag()


def compose(g: Atom, m: SuperpositionModel) -> SuperpositionModel:
    """Model of g applied to the function the input model encloses.

    Negation mirrors every coefficient and is exact.  Every other atom
    evaluates g over the recentered branch windows, subtracts the centering
    term (n-1)/n * g(omega) from each entry, and adds the remainder bound to
    the row with the widest entries.
    """
    if g is Atom.NEG:
        rows = tuple(tuple(-e for e in row) for row in m.coeffs)
        return SuperpositionModel(m.domain, rows, m.support)

    rb = m.range_bounds()
    _check_atom_domain(g, rb)
    w = central_points(g, m, rb)
    r = remainder_bound(g, m, w, rb)
    w = replace(w, remainder=r)

    n = m.dim
    apply = getattr(Interval, g.value)  # every atom but NEG names its Interval method
    centering = apply(w.omega) * _enclose_fraction(Fraction(n - 1, n))
    rows = [
        [apply((e - a) + w.omega) - centering for e in row]
        for row, a in zip(m.coeffs, w.centers)
    ]
    support = m.support
    if r > 0.0:
        k = _pick_remainder_row(rows, m.support)
        pad = Interval(-r, r)
        rows[k] = [e + pad for e in rows[k]]
        support = support | {k}
    return SuperpositionModel(m.domain, tuple(tuple(row) for row in rows), support)


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
