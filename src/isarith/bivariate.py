"""Addition and multiplication of superposition models over a shared domain.

Addition is entrywise and exact, constants included.  Multiplication
recenters both factor rows around their midpoints, keeps the product
alpha * beta of the two centered sums (each factor's constant plus its
midpoints) as the new constant, multiplies the recentered branch windows minus
alpha * beta in each row where either factor has width, and absorbs the
cross-row products of the offsets into a scalar remainder added to one row.
The remainder R is a product of total radii minus the aligned-row radii
products, hence zero whenever the factors are wide in at most one common row,
and in exact arithmetic never more than a quarter of the product of the range
widths; the check of that cap allows for the ulps the float centering loses.

Subtraction and division are derived: a - b = a + neg(b) and a / b is the
product with the reciprocal of b.  Constant factors never route through the
product rule; scalar_affine folds them exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .interval import Interval, _add_down, _add_floats, _add_up, _interval_products, _mul_down
from .interval import _mul_up, _quiet, _sub_up, _sums
from .model import (
    RangeBounds,
    SuperpositionModel,
    _affine,
    _midpoints_and_radii,
    _model,
    _same_domain,
    _windows,
    _with_remainder,
    init_constant,
)
from .univariate import Atom, compose, recip_model

__all__ = [
    "RemainderCapExceeded",
    "ProductWorkspace",
    "product_workspace",
    "add_models",
    "mul_models",
    "sub_models",
    "div_models",
    "scalar_affine",
]

#: Relative slack for the quarter-width remainder cap, which holds exactly in
#: real arithmetic and up to rounding here.
_CAP_SLACK = 1e-12


class RemainderCapExceeded(AssertionError):
    """A product remainder broke the quarter-width cap, which holds in exact
    arithmetic; seeing it means a bug, never a bad input."""


@dataclass(frozen=True, slots=True)
class ProductWorkspace:
    """Centering scalars for one product: per-row midpoints of both factors,
    each factor's constant plus its midpoints as an interval, per-row radii,
    and the remainder bound."""

    centers_a: tuple[float, ...]
    centers_b: tuple[float, ...]
    alpha: Interval
    beta: Interval
    radii_a: tuple[float, ...]
    radii_b: tuple[float, ...]
    remainder: float


def _cap_width(rb: RangeBounds) -> float:
    """The range width plus 8 ulps of the larger end of each row with width:
    at least twice the sum of the row radii `_midpoints_and_radii` returns."""
    width = _sub_up(rb.hi, rb.lo)
    for lo, hi in zip(rb.row_lo, rb.row_hi):
        if lo < hi:
            width = _add_up(width, 8.0 * math.ulp(max(abs(lo), abs(hi))))
    return width


def product_workspace(ma: SuperpositionModel, mb: SuperpositionModel) -> ProductWorkspace:
    """Centering scalars and the remainder bound of ma * mb; raises
    RemainderCapExceeded where the remainder breaks the quarter-width cap.

    In exact arithmetic each row's radius is half its width w, and the widths
    sum to at most the range width W, so the remainder, a sum of radius
    products over pairs of distinct rows, is at most W_a * W_b / 4.  The float
    radii can exceed w / 2.  With U = ulp(max(|lo|, |hi|)) of a row, every
    value below lies within 2 max(|lo|, |hi|), where floats are at most 2U
    apart.  hi - lo rounds by at most U, which the halving halves; the halving
    itself rounds by at most U / 2, and only below the normal range; adding lo
    rounds by at most U; clamping into [lo, hi] only moves the center toward
    the true midpoint.  So the center lies within 2U of the midpoint, and the
    distance to the farther end, at most w / 2 + 2U, gains less than 2U when
    rounded up: a radius is below w / 2 + 4U.  The cap therefore takes each W
    plus 8U for every row with width (`_cap_width`).  A row one ulp wide needs
    that allowance: its center is one of its ends, its radius its whole width.
    """
    _same_domain(ma, mb)
    n = ma.dim
    rba = ma.range_bounds()
    rbx = mb.range_bounds()
    ca, ra = _midpoints_and_radii(rba)
    cb, rbb = _midpoints_and_radii(rbx)

    alpha, beta = Interval(*_add_floats(ma.const, ca, ca)), Interval(*_add_floats(mb.const, cb, cb))

    active = [i for i in range(n) if ra[i] > 0.0 or rbb[i] > 0.0]
    if len(active) <= 1:
        remainder = 0.0
    else:
        # (sum_a * sum_b - cross).hi in intervals: radii are never negative
        sum_a = sum_b = cross_lo = 0.0
        for i in active:
            sum_a, sum_b = _add_up(sum_a, ra[i]), _add_up(sum_b, rbb[i])
            cross_lo = _add_down(cross_lo, _mul_down(ra[i], rbb[i]))
        remainder = max(0.0, _add_up(_mul_up(sum_a, sum_b), -cross_lo))

    cap = _mul_up(0.25, _mul_up(_cap_width(rba), _cap_width(rbx)))
    if remainder > cap * (1.0 + _CAP_SLACK) + 1e-300:
        raise RemainderCapExceeded(
            f"product remainder {remainder} exceeds the quarter-width cap {cap}"
        )
    return ProductWorkspace(
        tuple(ca), tuple(cb), alpha, beta, tuple(ra), tuple(rbb), remainder
    )


@_quiet
def add_models(ma: SuperpositionModel, mb: SuperpositionModel) -> SuperpositionModel:
    """Entrywise sum; exact up to outward rounding, no remainder."""
    _same_domain(ma, mb)
    return _model(ma.domain, _sums(ma.bounds, mb.bounds), ma.const + mb.const)


@_quiet
def mul_models(ma: SuperpositionModel, mb: SuperpositionModel) -> SuperpositionModel:
    """Product rule: alpha * beta as the constant, recentered window products
    minus alpha * beta in every row where a factor has width, zero rows
    elsewhere, plus the cross-row remainder on one row."""
    w = product_workspace(ma, mb)
    wide = [i for i in range(ma.dim) if w.radii_a[i] > 0.0 or w.radii_b[i] > 0.0]
    windows = _windows(ma, wide, w.centers_a, w.alpha), _windows(mb, wide, w.centers_b, w.beta)
    return _with_remainder(ma, wide, _interval_products(*windows), w.alpha * w.beta, w.remainder)


def sub_models(ma: SuperpositionModel, mb: SuperpositionModel) -> SuperpositionModel:
    return add_models(ma, compose(Atom.NEG, mb))


def div_models(ma: SuperpositionModel, mb: SuperpositionModel) -> SuperpositionModel:
    """Quotient as the product with the reciprocal of the divisor; the divisor
    range must not touch zero."""
    _same_domain(ma, mb)
    return mul_models(ma, recip_model(mb))


def scalar_affine(m: SuperpositionModel, c: float, d: float = 0.0) -> SuperpositionModel:
    """c * m + d, folded exactly without the product rule."""
    if c == 0.0:
        return init_constant(m.domain, d)
    return _affine(m, c, d)
