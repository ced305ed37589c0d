"""Branched box domains and interval superposition models.

A Domain is a box in R^n with every axis cut into N equidistant branches.
A SuperpositionModel attaches an n x N matrix of interval coefficients and
one interval constant to a Domain: the model's value at a point x is the
constant plus the interval sum of one coefficient per row, the one whose
branch contains the corresponding coordinate of x.  Because each row depends
on a single coordinate, the exact range of the model is the constant plus the
sum of per-row minima and maxima and costs O(nN) to evaluate.  A row the
function does not depend on is exactly [0, 0] in every branch.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .interval import (
    _SIGNS,
    Interval,
    IntervalError,
    _add_floats,
    _finite,
    _interval_products,
    _products,
    _quiet,
    _stacked,
    _sub_up,
    _sums,
)

__all__ = [
    "Domain",
    "SuperpositionModel",
    "RangeBounds",
    "OutOfDomain",
    "DomainMismatch",
    "init_variable",
    "init_constant",
]


class OutOfDomain(ValueError):
    """A point or index lies outside the domain box."""


class DomainMismatch(ValueError):
    """Binary model operation over two different domains."""


@dataclass(frozen=True, slots=True)
class Domain:
    """Box [lo_1, hi_1] x ... x [lo_n, hi_n] with N branches per axis.

    Axes and branches are indexed from 0.  ``grid[i]`` holds the N + 1 branch
    endpoints of axis i, computed once: lo_i + j*((hi_i - lo_i)/N) clamped to
    hi_i, with grid[i][0] = lo_i and grid[i][N] = hi_i exactly.  Branch j of
    axis i is [grid[i][j], grid[i][j+1]].  The grid follows from the boxes
    and N, so equality and hashing ignore it.
    """

    boxes: tuple[Interval, ...]
    branches: int
    grid: tuple[tuple[float, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("domain needs at least one axis")
        if self.branches < 1:
            raise ValueError(f"branch count must be positive, got {self.branches}")
        grid = []
        for i, box in enumerate(self.boxes):
            if not box.lo < box.hi:
                raise ValueError(f"axis {i} box [{box.lo}, {box.hi}] is degenerate")
            x = box.lo + np.arange(1, self.branches) * ((box.hi - box.lo) / self.branches)
            # min(x, hi) per point, keeping x on a tie of signed zeros as min does
            grid.append((box.lo, *np.where(box.hi < x, box.hi, x).tolist(), box.hi))
        object.__setattr__(self, "grid", tuple(grid))

    @classmethod
    def of(cls, bounds: Iterable[tuple[float, float] | Interval], branches: int) -> Domain:
        boxes = tuple(b if isinstance(b, Interval) else Interval(*b) for b in bounds)
        return cls(boxes, branches)

    @property
    def dim(self) -> int:
        return len(self.boxes)

    def branch_index(self, axis: int, x: float) -> int:
        """Branch containing x: the largest j < N with grid[axis][j] <= x.

        The grid point shared by branches j and j+1 belongs to branch j+1;
        the box's upper endpoint belongs to the last branch.
        """
        box = self.boxes[axis]
        if not box.contains(x):
            raise OutOfDomain(f"{x} outside axis-{axis} box [{box.lo}, {box.hi}]")
        return min(bisect_right(self.grid[axis], x) - 1, self.branches - 1)


@dataclass(frozen=True, slots=True)
class RangeBounds:
    """Exact range [lo, hi] of a model plus the per-row minima and maxima."""

    lo: float
    hi: float
    row_lo: tuple[float, ...]
    row_hi: tuple[float, ...]


_ZERO = Interval(0.0, 0.0)


@dataclass(frozen=True, slots=True, eq=False)
class SuperpositionModel:
    """Interval constant plus an n x N interval coefficient matrix on a Domain.

    The matrix is stored as one read-only (2, n, N) float64 array, ``bounds``,
    whose index 0 holds the lower endpoints and index 1 the upper ones, so
    every rule runs over the whole matrix and both endpoints at once; ``lo``
    and ``hi`` are read-only views of the two halves.  The value at a point
    is ``const`` plus one coefficient per row, 2nN + 2 numbers in all.
    Constant terms go to ``const`` only, so a row the function does not
    depend on stays exactly [0, 0] through any chain of operations, and a
    model that depends on one coordinate stays separable.
    The constructor checks and copies the matrix; rules build with _model.
    """

    domain: Domain
    bounds: np.ndarray
    const: Interval = _ZERO
    _range: RangeBounds | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        shape = (2, self.domain.dim, self.domain.branches)
        b = np.array(self.bounds, dtype=float)
        if b.shape != shape:
            raise ValueError(f"coefficient bounds have shape {b.shape}, domain needs {shape}")
        b.flags.writeable = False  # rules share matrices between models
        object.__setattr__(self, "bounds", b)
        if not np.isfinite(b).all():
            raise IntervalError("non-finite coefficient endpoint")
        if (b[0] > b[1]).any():
            raise IntervalError("inverted coefficient interval")

    @property
    def lo(self) -> np.ndarray:
        return self.bounds[0]

    @property
    def hi(self) -> np.ndarray:
        return self.bounds[1]

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def branches(self) -> int:
        return self.domain.branches

    def range_bounds(self) -> RangeBounds:
        """Exact model range via per-row extrema (outward-rounded sums); each
        extremum is the first of equal values in its row, as min and max pick.
        Computed on the first call and kept: the matrix is read-only."""
        if self._range is None:
            rows = np.arange(self.dim)
            row_lo = tuple(self.lo[rows, self.lo.argmin(axis=1)].tolist())
            row_hi = tuple(self.hi[rows, self.hi.argmax(axis=1)].tolist())
            lo, hi = _add_floats(self.const, row_lo, row_hi)
            object.__setattr__(self, "_range", RangeBounds(lo, hi, row_lo, row_hi))
        return self._range

    def evaluate(self, x: Sequence[float]) -> Interval:
        """Interval value at a point: the constant plus the branch-selected
        coefficients."""
        if len(x) != self.dim:
            raise OutOfDomain(f"point has {len(x)} coordinates, domain has {self.dim}")
        cells = [(i, self.domain.branch_index(i, xi)) for i, xi in enumerate(x)]
        lo, hi = _add_floats(self.const, map(self.lo.item, cells), map(self.hi.item, cells))
        return Interval(lo, hi)


def _model(domain: Domain, bounds: np.ndarray, const: Interval) -> SuperpositionModel:
    """A rule's result, unchecked: bounds is finite, ordered and the rule's own or shared."""
    m = object.__new__(SuperpositionModel)
    bounds.flags.writeable = False
    for name, value in (("domain", domain), ("bounds", bounds), ("const", const), ("_range", None)):
        object.__setattr__(m, name, value)
    return m


def init_variable(domain: Domain, axis: int) -> SuperpositionModel:
    """Model of the coordinate function x -> x_axis: row `axis` holds the
    branch intervals, every other row and the constant are zero."""
    if not 0 <= axis < domain.dim:
        raise IndexError(f"axis {axis} out of range for dimension {domain.dim}")
    grid = np.array(domain.grid[axis])
    bounds = np.zeros((2, domain.dim, domain.branches))
    bounds[:, axis] = grid[:-1], grid[1:]
    return SuperpositionModel(domain, bounds)


def init_constant(domain: Domain, c: float) -> SuperpositionModel:
    """Model of the constant function: [c, c] in the constant, zero rows."""
    return SuperpositionModel(domain, np.zeros((2, domain.dim, domain.branches)), Interval.point(c))


@_quiet
def _affine(
    m: SuperpositionModel, scale: float | Interval, shift: float | Interval = 0.0
) -> SuperpositionModel:
    """Entrywise scale plus a shift of the constant.  Exact and remainder-free.

    A point scale of 1 or -1 is exact with no rounding at all: 1 shares the
    read-only matrix and moves only the constant, and -1 mirrors the matrix
    and the constant as negation does.  Any other point scale takes one directed
    product per entry, its ends picked as the product rule picks them.
    """
    c_lo, c_hi = (scale.lo, scale.hi) if isinstance(scale, Interval) else (scale, scale)
    if c_lo == c_hi == 1.0:
        return _model(m.domain, m.bounds, m.const + shift)
    if c_lo == c_hi == -1.0:
        return _model(m.domain, -m.bounds[::-1], -m.const + shift)
    if c_lo != c_hi or c_lo == 0.0:  # [-0.0, 0.0] is no point for that rule
        bounds = _interval_products(m.bounds, np.broadcast_to(_stacked(c_lo, c_hi), m.bounds.shape))
    else:
        down, up = _products(m.bounds, c_lo)
        pair = np.where(down[1] < down[0], down[1], down[0]), np.where(up[1] > up[0], up[1], up[0])
        bounds = _finite(np.array(pair), "rounding")
    return _model(m.domain, bounds, m.const * scale + shift)


def _clamp(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _midpoints_and_radii(rb: RangeBounds) -> tuple[list[float], list[float]]:
    """Midpoint of every row hull and the upward-rounded distance from it to
    the farther hull endpoint; a degenerate row is centered on its single
    value with radius exactly zero."""
    rows = list(zip(rb.row_lo, rb.row_hi))
    centers = [lo if lo == hi else _clamp(lo + 0.5 * (hi - lo), lo, hi) for lo, hi in rows]
    radii = [0.0 if lo == hi else max(_sub_up(hi, a), _sub_up(a, lo))
             for (lo, hi), a in zip(rows, centers)]
    return centers, radii


def _windows(
    m: SuperpositionModel, rows: list[int], centers: Sequence[float], omega: Interval
) -> np.ndarray:
    """The stacked recentered branch windows (e - a_i) + omega of the given
    rows, each row i moved by its center a_i."""
    a = np.array([centers[i] for i in rows])[:, None]
    b = m.bounds if len(rows) == m.dim else m.bounds[:, rows]
    return _sums(_sums(b, -a), _stacked(omega.lo, omega.hi))


def _with_remainder(
    m: SuperpositionModel, rows: list[int], bounds: np.ndarray, const: Interval, r: float
) -> SuperpositionModel:
    """Model on m's domain whose given rows hold the stacked bounds minus the
    constant, whose other rows are zero, and which adds a scalar remainder r
    as [-r, r] to one row.  Any row keeps the model sound, so the row is a
    choice, not a bound: the one whose entries have the largest sum of plain
    float diameters, lowest index on ties, padded zero rows included."""
    full = np.zeros((2, m.dim, m.branches))
    full[:, rows] = _sums(bounds, _stacked(-const.hi, -const.lo))
    if r > 0.0:
        k = int(np.argmax((full[1] - full[0]).sum(axis=1)))
        full[:, k : k + 1] = _sums(full[:, k : k + 1], r * _SIGNS)
    return _model(m.domain, full, const)
