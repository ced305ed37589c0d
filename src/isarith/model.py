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

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .interval import Interval, _add_down, _add_up, _sub_up

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

    Axes and branches are indexed from 0.  Branch j of axis i is
    [lo_i + j*h_i, lo_i + (j+1)*h_i] with h_i = (hi_i - lo_i) / N; the last
    branch ends exactly at the box endpoint rather than at an accumulated sum.
    """

    boxes: tuple[Interval, ...]
    branches: int

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("domain needs at least one axis")
        if self.branches < 1:
            raise ValueError(f"branch count must be positive, got {self.branches}")
        for i, box in enumerate(self.boxes):
            if not box.lo < box.hi:
                raise ValueError(f"axis {i} box [{box.lo}, {box.hi}] is degenerate")

    @classmethod
    def of(cls, bounds: Iterable[tuple[float, float] | Interval], branches: int) -> Domain:
        boxes = tuple(b if isinstance(b, Interval) else Interval(*b) for b in bounds)
        return cls(boxes, branches)

    @property
    def dim(self) -> int:
        return len(self.boxes)

    def step(self, axis: int) -> float:
        box = self.boxes[axis]
        return (box.hi - box.lo) / self.branches

    def _grid(self, axis: int, j: int) -> float:
        """j-th grid point of an axis, clamped so the grid stays inside the box."""
        box = self.boxes[axis]
        if j <= 0:
            return box.lo
        if j >= self.branches:
            return box.hi
        return min(box.lo + j * self.step(axis), box.hi)

    def branch_interval(self, axis: int, j: int) -> Interval:
        if not 0 <= axis < self.dim:
            raise IndexError(f"axis {axis} out of range for dimension {self.dim}")
        if not 0 <= j < self.branches:
            raise IndexError(f"branch {j} out of range for N={self.branches}")
        return Interval(self._grid(axis, j), self._grid(axis, j + 1))

    def branch_index(self, axis: int, x: float) -> int:
        """Branch containing x: branches are half-open below the top endpoint.

        The grid point shared by branches j and j+1 belongs to branch j+1;
        the box's upper endpoint belongs to the last branch.
        """
        box = self.boxes[axis]
        if not box.contains(x):
            raise OutOfDomain(f"{x} outside axis-{axis} box [{box.lo}, {box.hi}]")
        j = int((x - box.lo) / self.step(axis))
        j = min(max(j, 0), self.branches - 1)
        while j > 0 and x < self._grid(axis, j):
            j -= 1
        while j < self.branches - 1 and x >= self._grid(axis, j + 1):
            j += 1
        return j


@dataclass(frozen=True, slots=True)
class RangeBounds:
    """Exact range [lo, hi] of a model plus the per-row minima and maxima."""

    lo: float
    hi: float
    row_lo: tuple[float, ...]
    row_hi: tuple[float, ...]


_ZERO = Interval(0.0, 0.0)


@dataclass(frozen=True, slots=True)
class SuperpositionModel:
    """Interval constant plus an n x N interval coefficient matrix on a Domain.

    The value at a point is ``const`` plus one coefficient per row, 2nN + 2
    numbers in all.  Constant terms go to ``const`` only, so a row the
    function does not depend on stays exactly [0, 0] through any chain of
    operations, and a model that depends on one coordinate stays separable.
    """

    domain: Domain
    coeffs: tuple[tuple[Interval, ...], ...]
    const: Interval = _ZERO

    def __post_init__(self) -> None:
        n, cap = self.domain.dim, self.domain.branches
        if len(self.coeffs) != n:
            raise ValueError(f"coefficient matrix has {len(self.coeffs)} rows, domain has {n}")
        for i, row in enumerate(self.coeffs):
            if len(row) != cap:
                raise ValueError(f"row {i} has {len(row)} entries, expected {cap}")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def branches(self) -> int:
        return self.domain.branches

    def row(self, i: int) -> tuple[Interval, ...]:
        return self.coeffs[i]

    def range_bounds(self) -> RangeBounds:
        """Exact model range via per-row extrema (outward-rounded sums)."""
        row_lo = tuple(min(e.lo for e in row) for row in self.coeffs)
        row_hi = tuple(max(e.hi for e in row) for row in self.coeffs)
        lo = self.const.lo
        hi = self.const.hi
        for a, b in zip(row_lo, row_hi):
            lo = _add_down(lo, a)
            hi = _add_up(hi, b)
        return RangeBounds(lo, hi, row_lo, row_hi)

    def evaluate(self, x: Sequence[float]) -> Interval:
        """Interval value at a point: the constant plus the branch-selected
        coefficients."""
        if len(x) != self.dim:
            raise OutOfDomain(f"point has {len(x)} coordinates, domain has {self.dim}")
        acc = self.const
        for i, xi in enumerate(x):
            acc = acc + self.coeffs[i][self.domain.branch_index(i, xi)]
        return acc

    def is_separable(self) -> bool:
        """True when at most one row has positive width across its branches."""
        wide = 0
        for row in self.coeffs:
            if min(e.lo for e in row) < max(e.hi for e in row):
                wide += 1
                if wide > 1:
                    return False
        return True


def init_variable(domain: Domain, axis: int) -> SuperpositionModel:
    """Model of the coordinate function x -> x_axis: row `axis` holds the
    branch intervals, every other row and the constant are zero."""
    if not 0 <= axis < domain.dim:
        raise IndexError(f"axis {axis} out of range for dimension {domain.dim}")
    rows = [(_ZERO,) * domain.branches] * domain.dim
    rows[axis] = tuple(domain.branch_interval(axis, j) for j in range(domain.branches))
    return SuperpositionModel(domain, tuple(rows))


def init_constant(domain: Domain, c: float) -> SuperpositionModel:
    """Model of the constant function: [c, c] in the constant, zero rows."""
    if not math.isfinite(c):
        raise ValueError(f"constant must be finite, got {c}")
    rows = ((_ZERO,) * domain.branches,) * domain.dim
    return SuperpositionModel(domain, rows, Interval.point(c))


def _affine(
    m: SuperpositionModel, scale: float | Interval, shift: float | Interval = 0.0
) -> SuperpositionModel:
    """Entrywise scale plus a shift of the constant.  Exact and remainder-free."""
    rows = tuple(tuple(e * scale for e in row) for row in m.coeffs)
    return SuperpositionModel(m.domain, rows, m.const * scale + shift)


def _midpoints_and_radii(rb: RangeBounds) -> tuple[list[float], list[float]]:
    """Midpoint of every row hull and the upward-rounded distance from it to
    the farther hull endpoint; a degenerate row is centered on its single
    value with radius exactly zero."""
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


def _with_remainder(
    domain: Domain, rows: list[list[Interval]], const: Interval, r: float
) -> SuperpositionModel:
    """Model of the given rows and constant with a scalar remainder r added as
    [-r, r] to one row, in place: the row whose entries have the largest
    average diameter, lowest index on ties."""
    if r > 0.0:
        avg_diam = [sum(_sub_up(e.hi, e.lo) for e in row) / len(row) for row in rows]
        k = max(range(len(rows)), key=lambda i: (avg_diam[i], -i))
        pad = Interval(-r, r)
        rows[k] = [e + pad for e in rows[k]]
    return SuperpositionModel(domain, tuple(tuple(row) for row in rows), const)
