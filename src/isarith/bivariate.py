"""Addition and multiplication of superposition models over a shared domain.

Addition is entrywise and exact.  Multiplication recenters both factor rows
around their midpoints, multiplies the recentered branch windows, and absorbs
the cross-row products of the offsets into a scalar remainder added to one
row.  The remainder R is a product of total radii minus the aligned-row
radii products, hence zero whenever the factors are wide in at most one
common row, and never more than a quarter of the product of the range widths.

Subtraction and division are derived: a - b = a + neg(b) and a / b is the
product with the reciprocal of b.  Constant factors never route through the
product rule; scalar_affine folds them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interval import Interval, _mul_up, _sub_up
from .model import (
    DomainMismatch,
    RangeBounds,
    SuperpositionModel,
    _affine,
    _pick_remainder_row,
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
    their sums and the mixed sum as thin intervals, per-row radii, and the
    remainder bound."""

    centers_a: tuple[float, ...]
    centers_b: tuple[float, ...]
    alpha: Interval
    beta: Interval
    gamma: Interval
    omega: Interval
    radii_a: tuple[float, ...]
    radii_b: tuple[float, ...]
    remainder: float


def _same_domain(ma: SuperpositionModel, mb: SuperpositionModel) -> None:
    if ma.domain != mb.domain:
        raise DomainMismatch("models live on different domains; re-grid before combining")


def _midpoints_and_radii(rb: RangeBounds) -> tuple[list[float], list[float]]:
    centers: list[float] = []
    radii: list[float] = []
    for lo, hi in zip(rb.row_lo, rb.row_hi):
        if lo == hi:
            centers.append(lo)
            radii.append(0.0)
        else:
            a = min(max(lo + 0.5 * (hi - lo), lo), hi)
            centers.append(a)
            radii.append(max(_sub_up(hi, a), _sub_up(a, lo)))
    return centers, radii


def product_workspace(ma: SuperpositionModel, mb: SuperpositionModel) -> ProductWorkspace:
    _same_domain(ma, mb)
    n = ma.dim
    rba, rbx = ma.range_bounds(), mb.range_bounds()
    ca, ra = _midpoints_and_radii(rba)
    cb, rbb = _midpoints_and_radii(rbx)

    alpha = Interval(0.0, 0.0)
    beta = Interval(0.0, 0.0)
    gamma = Interval(0.0, 0.0)
    for a, b in zip(ca, cb):
        alpha = alpha + a
        beta = beta + b
        gamma = gamma + Interval.point(a) * b
    omega = (alpha * beta - gamma) * Interval.point(float(n)).inv()

    active = [i for i in range(n) if ra[i] > 0.0 or rbb[i] > 0.0]
    if len(active) <= 1:
        remainder = 0.0
    else:
        sum_a = Interval(0.0, 0.0)
        sum_b = Interval(0.0, 0.0)
        cross = Interval(0.0, 0.0)
        for i in active:
            sum_a = sum_a + ra[i]
            sum_b = sum_b + rbb[i]
            cross = cross + Interval.point(ra[i]) * rbb[i]
        remainder = max(0.0, (sum_a * sum_b - cross).hi)

    cap = _mul_up(0.25, _mul_up(_sub_up(rba.hi, rba.lo), _sub_up(rbx.hi, rbx.lo)))
    if remainder > cap * (1.0 + _CAP_SLACK) + 1e-300:
        raise RemainderCapExceeded(
            f"product remainder {remainder} exceeds the quarter-width cap {cap}"
        )
    return ProductWorkspace(
        tuple(ca), tuple(cb), alpha, beta, gamma, omega, tuple(ra), tuple(rbb), remainder
    )


def add_models(ma: SuperpositionModel, mb: SuperpositionModel) -> SuperpositionModel:
    """Entrywise sum; exact up to outward rounding, no remainder."""
    _same_domain(ma, mb)
    rows = tuple(
        tuple(a + b for a, b in zip(row_a, row_b))
        for row_a, row_b in zip(ma.coeffs, mb.coeffs)
    )
    return SuperpositionModel(ma.domain, rows, ma.support | mb.support)


def mul_models(ma: SuperpositionModel, mb: SuperpositionModel) -> SuperpositionModel:
    """Product rule: recentered window products minus the centering constant,
    plus the cross-row remainder on one row."""
    w = product_workspace(ma, mb)
    rows = []
    for i in range(ma.dim):
        a_i, b_i = w.centers_a[i], w.centers_b[i]
        off_a = w.alpha - a_i
        off_b = w.beta - b_i
        const = off_a * off_b + w.omega
        rows.append(
            [
                ((ea - a_i) + w.alpha) * ((eb - b_i) + w.beta) - const
                for ea, eb in zip(ma.coeffs[i], mb.coeffs[i])
            ]
        )
    support = ma.support | mb.support
    if w.remainder > 0.0:
        k = _pick_remainder_row(rows, support)
        pad = Interval(-w.remainder, w.remainder)
        rows[k] = [e + pad for e in rows[k]]
        support = support | {k}
    return SuperpositionModel(ma.domain, tuple(tuple(r) for r in rows), support)


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
