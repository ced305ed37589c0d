"""Desk-scale ground truth: image sampling and the overestimation distance.

Everything here is deterministic, and every estimator works by exhaustive or
dense enumeration rather than by reusing the enclosure code it is meant to
check.  The brute-force checkers of the range bounder and the univariate
remainder are test code and live in `tests/reference.py`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .expr import Expr, eval_interval, eval_points
from .interval import Interval, _quiet
from .model import SuperpositionModel, _same_domain

__all__ = [
    "BudgetExceeded",
    "SoundnessViolation",
    "SampleInaccurate",
    "ImageSample",
    "sample_image",
    "hausdorff_enclosure",
]

DEFAULT_BUDGET = 10**6
#: most lattice points of one enclosure scan batch (at least one block)
_BATCH_POINTS = 1 << 17
#: index blocks per axis that the enclosure scan cuts its lattice into
_BLOCKS_PER_AXIS = 8
#: eps of the approximate queries that bound the scan's blocks and points
_MID_EPS = 2.0
#: exact point queries of a batch that set its maximum before the rest
_FIRST_POINTS = 8


def __getattr__(name: str):
    """`cKDTree`, imported on first use (PEP 562), as scipy is slow to import."""
    if name != "cKDTree":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.spatial import cKDTree
    globals()[name] = cKDTree
    return cKDTree


class BudgetExceeded(ValueError):
    """The requested enumeration is larger than the configured budget."""


class SoundnessViolation(RuntimeError):
    """An enclosure failed to contain sampled exact values (always a bug)."""


class SampleInaccurate(ValueError):
    """A float sample escapes an enclosure that the interval value at its
    lattice point does not miss: the sample is too inaccurate to judge it."""


@dataclass
class ImageSample:
    """Sampled image set: an (m, outputs) array of values and its
    componentwise hull, and, from `sample_image`, the expression and the
    (n, grid) per-axis lattice coordinates it was sampled on."""

    points: np.ndarray
    per_axis_hull: tuple[Interval, ...]
    source: tuple[Expr, np.ndarray] | None = field(default=None, repr=False, compare=False)
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)

    @property
    def n_outputs(self) -> int:
        return self.points.shape[1]

    def kd_tree(self) -> cKDTree:
        if self._tree is None:
            # sliding-midpoint splits and node boxes not shrunk to the data:
            # on images that collapse onto a plane, as the recursion map's
            # do, the default tree answers queries from outside the image up
            # to a hundred times slower; the nearest distances are the same.
            # The module attribute: loaded on first use, or as patched
            self._tree = sys.modules[__name__].cKDTree(self.points, balanced_tree=False, compact_nodes=False)
        return self._tree


def _grid_per_axis(budget: int, n: int) -> int:
    """Points per axis of the largest n-axis lattice within the budget."""
    if budget < 2**n:
        raise BudgetExceeded(f"a budget of {budget} points cannot hold 2 points on each of {n} axes")
    return int(budget ** (1.0 / n) + 1e-9)


@_quiet  # _farthest rejects a non-finite result
def _linspace(lo: np.ndarray, hi: np.ndarray, k: int) -> np.ndarray:
    """`np.linspace(lo[i], hi[i], k)` for every entry of the arrays, stacked on
    a new last axis, with k >= 2.

    np.linspace given arrays switches every row to its zero-step formula as
    soon as one row has a zero step, so it does not match the scalar calls row
    by row; here each row picks its own formula, as the scalar call does.
    """
    # lattice axis first, so that every broadcast runs along the long axes
    i = np.arange(k, dtype=float).reshape((k,) + (1,) * lo.ndim)
    delta = hi - lo
    step = delta / (k - 1)
    points = np.where(step == 0, i / (k - 1) * delta, i * step) + lo
    points[-1] = hi
    return np.moveaxis(points, 0, -1)


def _block_points(coords: np.ndarray) -> np.ndarray:
    """The (blocks, k**m, m) lattice points of blocks given by their (blocks,
    m, k) per-axis coordinates, first axis slowest within each block."""
    blocks, m, k = coords.shape
    points = np.empty((blocks,) + (k,) * m + (m,))
    for j in range(m):
        shape = [blocks] + [1] * m
        shape[1 + j] = k
        points[..., j] = coords[:, j].reshape(shape)  # broadcast in place
    return points.reshape(blocks, k**m, m)


def _fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc folded over the last axis of a, one slice at a time (the first
    slice itself when there is only one)."""
    return reduce(ufunc, [a[..., j] for j in range(a.shape[-1])])


def _distinct(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct rows of a non-empty p (0.0 is -0.0) and each row's index among them."""
    order = np.lexsort(p.T[::-1])
    p = p[order]
    new = np.concatenate(([True], _fold(np.logical_or, p[1:] != p[:-1])))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return p[new], inverse


def sample_image(
    e: Expr,
    box: Sequence[Interval],
    *,
    grid: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ImageSample:
    """Evaluate the expression on a lattice over the box, corners included,
    with `grid` points per axis (by default the most the budget holds).

    `eval_points` fills one (m, outputs) array from the open grid slab by slab,
    each node once per point of the sub-lattice of the axes it reads: the dense
    lattice's values, first axis slowest, or the error the dense lattice raises."""
    n = len(box)
    if grid is None:
        grid = _grid_per_axis(budget, n)
    elif grid < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {grid}")
    if grid**n > budget:
        raise BudgetExceeded(f"{grid}^{n} lattice points exceed the budget {budget}")
    lo, hi = np.array([(b.lo, b.hi) for b in box], dtype=float).T
    coords = _linspace(lo, hi, grid)
    values = eval_points(e, tuple(np.meshgrid(*coords, indexing="ij", sparse=True)))
    hull = tuple(Interval(float(v.min()), float(v.max())) for v in values.T)
    return ImageSample(values, hull, source=(e, coords))


@_quiet  # a bound that overflows is inf, which only means "query it exactly"
def _farthest(img: ImageSample, coords: np.ndarray) -> float:
    """Largest max-norm distance from the sampled image to a lattice point of
    any of the blocks, each given by its per-axis coordinates: an array of
    shape (blocks, m, k) for k**m points per block.  This is the one branch
    and bound scan of the oracle's distances, in two levels.

    Blocks: the distance to the nearest sample is 1-Lipschitz in the max norm,
    so no point of a block lies farther than the block's midpoint distance
    plus its max-norm reach from the midpoint.  That bound takes the midpoint
    distance from an approximate query (Arya et al., JACM 1998), which returns
    a real sample up to 1 + _MID_EPS times farther than the nearest.  Blocks
    are scanned by falling bound, in batches that start at one block and
    double up to _BATCH_POINTS lattice points, until no bound left exceeds
    the maximum found.  A batch queries its distinct midpoints exactly, for
    the samples that bound its points.

    Points: each point of a block the scan reaches is bounded by its distance
    to the sample nearest its block's midpoint and, if that exceeds the
    maximum, by its distance to the sample one approximate query returns; the
    smaller bound is kept.  Points are then queried exactly by falling bound,
    the first _FIRST_POINTS alone, the rest in one query of those whose bound
    still exceeds the raised maximum.

    Every bound is a distance to a real sample, by the tree's own formula and
    padded by the slack below, and the nearest sample is never farther, so a
    skipped block or point cannot raise the maximum: the result is the
    exhaustive scan's to the last bit.  Extents and bounds are minima and
    maxima folded slice by slice over the m outputs or the k points per axis
    (`_fold`): numpy's own reductions along so short a last axis cost 40 to
    85 times more, and a minimum or maximum is exact, so no bit changes.
    """
    # finite coordinates keep every midpoint and reach below the largest float
    if not np.isfinite(coords).all():
        raise OverflowError("a scan lattice coordinate overflowed to a non-finite value")
    tree = img.kd_tree()
    blocks, m, k = coords.shape
    lo, hi = _fold(np.minimum, coords), _fold(np.maximum, coords)
    mid = 0.5 * lo + 0.5 * hi
    reach = _fold(np.maximum, np.maximum(hi - mid, mid - lo))
    # A computed distance max_i |x_i - s_i| carries one rounding, so it lies
    # within a factor 1 +- eps/2 of the exact distance, and the rounded reach
    # within the same factor of the exact reach.  Chained through the
    # Lipschitz bound, every point of a block has a computed distance below
    # (1 + 2 eps) times the block's computed bound.  The slack takes 16 eps of
    # the bound instead, plus 16 eps of `top` for the kd-tree's own rounding.
    slack = 16 * np.finfo(float).eps
    top = max(float(hi.max()), -float(lo.min()))  # the scan's largest |coordinate|
    bound = tree.query(mid, k=1, p=np.inf, eps=_MID_EPS)[0] + reach
    bound += slack * (top + bound)
    order = np.argsort(-bound, kind="stable")
    most = max(1, _BATCH_POINTS // k**m)
    worst, start, size = 0.0, 0, 1
    while start < blocks and bound[order[start]] > worst:
        batch = order[start : start + size]
        batch = batch[bound[batch] > worst]
        mids, inverse = _distinct(mid[batch])
        nearest = tree.query(mids, k=1, p=np.inf)[1][inverse]
        points = _block_points(coords[batch])
        # Each point's distance to the sample nearest its block's midpoint, by
        # the tree's own formula and rounding: the tree returns the least such
        # value over all samples, so never more than this one, up to the
        # rounding in its search that the slack covers.  A point whose padded
        # bound is at most the maximum cannot raise it, and a repeated point (a
        # zero-width axis, an edge block) cannot change a maximum either.
        ub = _fold(np.maximum, np.abs(points - img.points[nearest, None]))
        live = ub + slack * (top + ub) > worst
        if live.any():
            # any copy's bound serves each copy of a point
            points, inverse = _distinct(points[live])
            point_ub = np.empty(len(points))
            point_ub[inverse] = ub[live]
            # the sample an approximate query returns is a real one, so its
            # distance by the tree's formula bounds the point as well
            sample = img.points[tree.query(points, k=1, p=np.inf, eps=_MID_EPS)[1]]
            point_ub = np.minimum(point_ub, _fold(np.maximum, np.abs(points - sample)))
            point_ub += slack * (top + point_ub)
            # exact queries by falling bound: the first few raise the maximum,
            # which prunes the rest before one query of the survivors
            ranked = np.argsort(-point_ub, kind="stable")
            for group in (ranked[:_FIRST_POINTS], ranked[_FIRST_POINTS:]):
                group = group[point_ub[group] > worst]
                if len(group):
                    worst = max(worst, float(tree.query(points[group], k=1, p=np.inf)[0].max()))
        start += size
        size = min(2 * size, most)
    return worst


def _check_hull(img: ImageSample, enclosure: Sequence[Interval]) -> None:
    """Raise ValueError unless the enclosure has one interval per image
    output, and SoundnessViolation where the sampled hull escapes it.

    A float sample can round out of a sound enclosure, so where the image
    knows its source, each escaping side's extreme lattice point is evaluated
    in interval arithmetic on the point box: only a value that misses the
    enclosure too is a violation, and otherwise SampleInaccurate names it."""
    if len(enclosure) != img.n_outputs:
        raise ValueError(f"enclosure has {len(enclosure)} axes, image has {img.n_outputs}")
    for j, (hull, enc) in enumerate(zip(img.per_axis_hull, enclosure)):
        if enc.encloses(hull):
            continue
        violation = SoundnessViolation(
            f"axis {j}: sampled hull [{hull.lo}, {hull.hi}] escapes enclosure [{enc.lo}, {enc.hi}]"
        )
        if img.source is None:
            raise violation
        e, coords = img.source
        n, k = coords.shape
        for extreme, escapes in ((np.argmin, hull.lo < enc.lo), (np.argmax, enc.hi < hull.hi)):
            if escapes:
                flat = extreme(img.points[:, j])
                x = coords[np.arange(n), np.unravel_index(flat, (k,) * n)].tolist()
                value = eval_interval(e, [Interval.point(c) for c in x])[j]
                if value.hi < enc.lo or enc.hi < value.lo:
                    raise violation
        raise SampleInaccurate(
            f"axis {j}: the float sample {float(img.points[flat, j])!r} at x={x} escapes enclosure "
            f"[{enc.lo}, {enc.hi}], but its interval value [{value.lo}, {value.hi}] meets it"
        )


def hausdorff_enclosure(
    img: ImageSample, enclosure: Sequence[Interval], *, budget: int = DEFAULT_BUDGET
) -> float:
    """One-sided overestimation distance: the farthest point of the enclosure
    box from the sampled image, in the max norm.

    The enclosure must contain the sample hull componentwise (`_check_hull`);
    a violation is a soundness bug in the enclosure, not a large distance.
    For one output the distance is exact; for several the enclosure box is
    scanned on a lattice with the same budget discipline as the sampler, cut
    into equal index blocks for the branch and bound of `_farthest`.
    """
    _check_hull(img, enclosure)
    m = img.n_outputs
    if m == 1:
        hull, enc = img.per_axis_hull[0], enclosure[0]
        return max(hull.lo - enc.lo, enc.hi - hull.hi)
    per_axis = _grid_per_axis(budget, m)
    lo, hi = np.array([(enc.lo, enc.hi) for enc in enclosure]).T
    axes = _linspace(lo, hi, per_axis)
    # cut the lattice into equal index blocks per axis; the last ones repeat
    # the edge index, which repeats points and leaves the maximum unchanged
    parts = min(_BLOCKS_PER_AXIS, per_axis)
    size = -(-per_axis // parts)
    index = np.minimum(np.arange(parts * size), per_axis - 1).reshape(parts, size)
    which = np.indices((parts,) * m).reshape(m, -1).T
    return _farthest(img, axes[np.arange(m)[:, None], index[which]])


def hausdorff_piecewise(
    img: ImageSample,
    models: Sequence[SuperpositionModel],
    *,
    clip: Sequence[Interval] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Overestimation distance of a piecewise enclosure.

    A tuple of superposition models over one domain encloses a vector function
    pointwise: each branch cell of the domain carries its own box (per
    component, the constant plus the selected coefficients).  The enclosure
    set is the union of those N^n boxes, usually far smaller than the bounding
    box of the ranges, and this measures the farthest point of that union from
    the sampled image.  `clip` intersects every cell box with a global enclosure
    of the same function (sound: both contain the cell's true values).

    Cell boxes get a slice of the point budget each, so the scan is corner
    dominated; that under-resolves the sup slightly but never reports a cell
    the models do not claim.  Each cell's lattice is one block of the branch
    and bound of `_farthest`, so most cells cost one approximate midpoint
    query.
    """
    if not models:
        raise ValueError("need at least one component model")
    for mdl in models:
        _same_domain(models[0], mdl)
    domain = models[0].domain
    n, cap = domain.dim, domain.branches
    m = len(models)
    cells = cap**n
    if cells > budget:
        raise BudgetExceeded(f"{cells} branch cells exceed the budget {budget}")
    # checked one at a time: a hull inside both lies inside their intersection
    _check_hull(img, [Interval(rb.lo, rb.hi) for rb in (mdl.range_bounds() for mdl in models)])
    if clip is not None:
        _check_hull(img, clip)
    # every cell box at once, in the order of operations of a per-cell loop:
    # the constant, then rows 0..n-1 left to right, then the clip
    combos = np.indices((cap,) * n).reshape(n, -1)
    boxes = np.empty((2, m, cells))
    for c, mdl in enumerate(models):
        boxes[:, c] = [[mdl.const.lo], [mdl.const.hi]]
        for i in range(n):
            boxes[:, c] += mdl.bounds[:, i, combos[i]]
    lo, hi = boxes.transpose(0, 2, 1)
    if clip is not None:
        clip_lo, clip_hi = np.array([(e.lo, e.hi) for e in clip]).T
        lo = np.where(clip_lo > lo, clip_lo, lo)
        hi = np.where(clip_hi < hi, clip_hi, hi)
        disjoint = np.argwhere(lo > hi)
        if len(disjoint):
            cell, c = disjoint[0]
            combo = tuple(int(j) for j in np.unravel_index(cell, (cap,) * n))
            raise SoundnessViolation(f"cell {combo} box is disjoint from the clip on axis {c}")
    per_axis = _grid_per_axis(max(budget // cells, 2**m), m)
    return _farthest(img, _linspace(lo, hi, per_axis))
