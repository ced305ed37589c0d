"""Desk-scale ground truth: image sampling, overestimation distance, and
brute-force checkers for the range bounder and the univariate remainder.

Everything here is deterministic given its seed, and every estimator works by
exhaustive or dense enumeration rather than by reusing the enclosure code it
is meant to check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .expr import _OPS, Expr, eval_points
from .interval import Interval, _add_down, _add_up
from .model import SuperpositionModel
from .univariate import Atom, CompositionWorkspace, central_points, remainder_bound

__all__ = [
    "BudgetExceeded",
    "SoundnessViolation",
    "ImageSample",
    "sample_image",
    "hausdorff_enclosure",
    "brute_force_range",
    "remainder_violation_search",
]

DEFAULT_BUDGET = 10**6
_CHUNK = 1 << 16


class BudgetExceeded(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class SoundnessViolation(RuntimeError):
    """An enclosure failed to contain sampled exact values (always a bug)."""


@dataclass
class ImageSample:
    """Sampled image set: an (m, outputs) array of values and its
    componentwise hull."""

    points: np.ndarray
    per_axis_hull: tuple[Interval, ...]
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)

    @property
    def n_outputs(self) -> int:
        return self.points.shape[1]

    def kd_tree(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self.points)
        return self._tree


def _evaluate_chunked(e: Expr, xs: np.ndarray) -> np.ndarray:
    parts = [eval_points(e, xs[i : i + _CHUNK]) for i in range(0, len(xs), _CHUNK)]
    return np.concatenate(parts, axis=0)


def sample_image(
    e: Expr,
    box: Sequence[Interval],
    *,
    grid: int | None = None,
    count: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> ImageSample:
    """Evaluate the expression on a lattice (grid points per axis, corners
    included) or on `count` seeded uniform draws."""
    if (grid is None) == (count is None):
        raise ValueError("pass exactly one of grid= or count=")
    n = len(box)
    if grid is not None:
        if grid < 2:
            raise ValueError(f"grid needs at least 2 points per axis, got {grid}")
        if grid**n > budget:
            raise BudgetExceeded(f"{grid}^{n} lattice points exceed the budget {budget}")
        axes = [np.linspace(b.lo, b.hi, grid) for b in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        xs = np.stack([g.ravel() for g in mesh], axis=1)
    else:
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        if count > budget:
            raise BudgetExceeded(f"{count} samples exceed the budget {budget}")
        rng = np.random.default_rng(seed)
        lo = np.array([b.lo for b in box])
        hi = np.array([b.hi for b in box])
        xs = rng.uniform(lo, hi, size=(count, n))
    values = _evaluate_chunked(e, xs)
    hull = tuple(
        Interval(float(values[:, j].min()), float(values[:, j].max()))
        for j in range(values.shape[1])
    )
    return ImageSample(values, hull)


def hausdorff_enclosure(
    img: ImageSample, enclosure: Sequence[Interval], *, budget: int = DEFAULT_BUDGET
) -> float:
    """One-sided overestimation distance: the farthest point of the enclosure
    box from the sampled image, in the max norm.

    The enclosure must contain the sample hull componentwise; a violation is a
    soundness bug in the enclosure, not a large distance.  For one output the
    distance is exact; for several the enclosure box is scanned on a lattice
    with the same budget discipline as the sampler.
    """
    m = img.n_outputs
    if len(enclosure) != m:
        raise ValueError(f"enclosure has {len(enclosure)} axes, image has {m}")
    for j, (hull, enc) in enumerate(zip(img.per_axis_hull, enclosure)):
        if not enc.encloses(hull):
            raise SoundnessViolation(
                f"axis {j}: sampled hull [{hull.lo}, {hull.hi}] escapes "
                f"enclosure [{enc.lo}, {enc.hi}]"
            )
    if m == 1:
        hull, enc = img.per_axis_hull[0], enclosure[0]
        return max(hull.lo - enc.lo, enc.hi - hull.hi)
    per_axis = max(2, int(budget ** (1.0 / m)))
    axes = [np.linspace(enc.lo, enc.hi, per_axis) for enc in enclosure]
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([g.ravel() for g in mesh], axis=1)
    dists, _ = img.kd_tree().query(lattice, k=1, p=np.inf)
    return float(dists.max())


def hausdorff_piecewise(
    img: ImageSample,
    models: Sequence[SuperpositionModel],
    *,
    clip: Sequence[Interval] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Overestimation distance of a piecewise enclosure.

    A tuple of superposition models over one domain encloses a vector function
    pointwise: each branch cell of the domain carries its own box (the per
    component sums of the selected coefficients).  The enclosure set is the
    union of those N^n boxes, usually far smaller than the bounding box of the
    ranges, and this measures the farthest point of that union from the
    sampled image.  `clip` intersects every cell box with a global enclosure
    of the same function (sound: both contain the cell's true values).

    Cell boxes get a slice of the point budget each, so the scan is corner
    dominated; that under-resolves the sup slightly but never reports a cell
    the models do not claim.
    """
    if not models:
        raise ValueError("need at least one component model")
    domain = models[0].domain
    n, cap = domain.dim, domain.branches
    m = len(models)
    cells = cap**n
    if cells > budget:
        raise BudgetExceeded(f"{cells} branch cells exceed the budget {budget}")
    for j, (hull, mdl) in enumerate(zip(img.per_axis_hull, models)):
        rb = mdl.range_bounds()
        enc = Interval(rb.lo, rb.hi) if clip is None else Interval(
            max(rb.lo, clip[j].lo), min(rb.hi, clip[j].hi)
        )
        if not enc.encloses(hull):
            raise SoundnessViolation(
                f"axis {j}: sampled hull [{hull.lo}, {hull.hi}] escapes "
                f"enclosure [{enc.lo}, {enc.hi}]"
            )
    per_axis = max(2, int(max(budget // cells, 2**m) ** (1.0 / m)))
    rows = [[[(e.lo, e.hi) for e in mdl.coeffs[i]] for i in range(n)] for mdl in models]
    tree = img.kd_tree()
    worst = 0.0
    for combo in itertools.product(range(cap), repeat=n):
        axes = []
        for c in range(m):
            lo = sum(rows[c][i][j][0] for i, j in enumerate(combo))
            hi = sum(rows[c][i][j][1] for i, j in enumerate(combo))
            if clip is not None:
                lo, hi = max(lo, clip[c].lo), min(hi, clip[c].hi)
                if lo > hi:
                    raise SoundnessViolation(
                        f"cell {combo} box is disjoint from the clip on axis {c}"
                    )
            axes.append(np.linspace(lo, hi, per_axis))
        mesh = np.meshgrid(*axes, indexing="ij")
        lattice = np.stack([g.ravel() for g in mesh], axis=1)
        dists, _ = tree.query(lattice, k=1, p=np.inf)
        worst = max(worst, float(dists.max()))
    return worst


def brute_force_range(m: SuperpositionModel, *, budget: int = DEFAULT_BUDGET) -> tuple[float, float]:
    """Exact range by enumerating every branch tuple; the per-tuple endpoint
    sums use the same directed rounding as the row-wise bounder."""
    combos = m.branches**m.dim
    if combos > budget:
        raise BudgetExceeded(f"{combos} branch tuples exceed the budget {budget}")
    lows = [[e.lo for e in row] for row in m.coeffs]
    highs = [[e.hi for e in row] for row in m.coeffs]
    best_lo = math.inf
    best_hi = -math.inf
    for combo in itertools.product(range(m.branches), repeat=m.dim):
        lo = 0.0
        hi = 0.0
        for i, j in enumerate(combo):
            lo = _add_down(lo, lows[i][j])
            hi = _add_up(hi, highs[i][j])
        best_lo = min(best_lo, lo)
        best_hi = max(best_hi, hi)
    return best_lo, best_hi


def remainder_violation_search(
    g: Atom,
    m: SuperpositionModel,
    trials: int = 10_000,
    seed: int = 0,
    workspace: CompositionWorkspace | None = None,
) -> float:
    """Search for offsets that violate the univariate remainder bound.

    Draws admissible per-row offsets (uniform draws plus every corner of the
    offset box plus zero), measures the composition defect in float64, and
    returns the largest measured defect minus the bound.  The measurement is
    discounted by its own float64 resolution, about one ulp per term, so a
    sound bound yields a non-positive result instead of ulp-level false alarms
    at points where the bound is attained exactly.
    """
    rb = m.range_bounds()
    w = workspace if workspace is not None else central_points(g, m, rb)
    r = remainder_bound(g, m, w, rb)
    n = m.dim
    lo = np.array([l - a for l, a in zip(rb.row_lo, w.centers)])
    hi = np.array([h - a for h, a in zip(rb.row_hi, w.centers)])
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, size=(trials, n))
    corners = np.array(list(itertools.product(*zip(lo, hi)))) if n <= 20 else np.empty((0, n))
    deltas = np.vstack([draws, corners, np.zeros((1, n))])

    fn = _OPS[g.value].np
    omega = w.omega.mid
    spread_terms = fn(omega + deltas)
    center_term = (n - 1) * fn(omega)
    total_term = fn(omega + deltas.sum(axis=1))
    defects = np.abs(spread_terms.sum(axis=1) - center_term - total_term)
    scale = max(
        float(np.abs(spread_terms).max()),
        abs(center_term),
        float(np.abs(total_term).max()),
        1e-30,
    )
    resolution = 4.0 * (n + 2) * np.finfo(float).eps * scale
    return float(defects.max() - resolution) - r
