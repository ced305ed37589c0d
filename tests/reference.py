"""Per-entry scalar reference for the model rules.

These are the rules as they ran before the coefficient matrices became
arrays: every coefficient an `Interval`, every entry its own scalar
operation.  `tests/test_array_models.py` checks the array rules against them
bit for bit.  The scalar work the program runs on float endpoints is written
here as it ran before, one `Interval` operation at a time: the per-row
midpoints and radii, the constant plus the row centers, and the product
workspace; the spreads, the remainder bounds and the atom domain check are
shared with the program.

Each rule returns (rows, const): a list of rows of `Interval` and the
constant.  `model` turns such a pair back into a model for the next rule.

The brute-force checkers live here too: `brute_force_range` enumerates every
branch tuple of a model, and `remainder_violation_search` measures the
composition defect at sampled offsets against the remainder bound.

`eval_points` is the lattice evaluator as it ran before it went slab by slab:
one walk over the whole lattice and a stack of the outputs.
"""

import itertools
import math
from functools import partial

import numpy as np

from conftest import admissible_offsets, coeffs, defect_noise_floor, defect_values, make_model, mid
from isarith.bivariate import _CAP_SLACK, ProductWorkspace, RemainderCapExceeded
from isarith.expr import ArityError, _apply, _walk
from isarith.interval import DomainViolation, Interval, _add_down, _add_up, _mul_up, _sub_up
from isarith.model import RangeBounds
from isarith.oracle import DEFAULT_BUDGET, BudgetExceeded
from isarith.univariate import Atom, CompositionWorkspace, _check_atom_domain, _clamp, _spread, remainder_bound

ZERO = Interval(0.0, 0.0)


def model(domain, rows, const):
    return make_model(domain, [[(e.lo, e.hi) for e in row] for row in rows], (const.lo, const.hi))


def range_bounds(m):
    rows = coeffs(m)
    row_lo = tuple(min(e.lo for e in row) for row in rows)
    row_hi = tuple(max(e.hi for e in row) for row in rows)
    lo, hi = m.const.lo, m.const.hi
    for a, b in zip(row_lo, row_hi):
        lo = _add_down(lo, a)
        hi = _add_up(hi, b)
    return RangeBounds(lo, hi, row_lo, row_hi)


def with_remainder(rows, const, r):
    if r > 0.0:
        avg_diam = [sum(_sub_up(e.hi, e.lo) for e in row) / len(row) for row in rows]
        k = max(range(len(rows)), key=lambda i: (avg_diam[i], -i))
        pad = Interval(-r, r)
        rows[k] = [e + pad for e in rows[k]]
    return rows, const


def add(ma, mb):
    rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(coeffs(ma), coeffs(mb))]
    return rows, ma.const + mb.const


def affine(m, scale, shift=0.0):
    return [[e * scale for e in row] for row in coeffs(m)], m.const * scale + shift


def scalar_affine(m, c, d=0.0):
    if c == 0.0:
        return [[ZERO] * m.branches for _ in range(m.dim)], Interval.point(d)
    return affine(m, c, d)


def midpoints_and_radii(rb):
    """model._midpoints_and_radii as a loop over the rows."""
    centers, radii = [], []
    for lo, hi in zip(rb.row_lo, rb.row_hi):
        if lo == hi:
            centers.append(lo)
            radii.append(0.0)
        else:
            a = min(max(lo + 0.5 * (hi - lo), lo), hi)
            centers.append(a)
            radii.append(max(_sub_up(hi, a), _sub_up(a, lo)))
    return centers, radii


def central_points(g, m):
    """univariate.central_points with the constant summed one Interval
    operation at a time."""
    rb = m.range_bounds()
    centers, radii = midpoints_and_radii(rb)
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

    omega = sum(centers, m.const)

    spreads = tuple(
        _spread(g, lo, hi, a, rad, omega)
        for lo, hi, a, rad in zip(rb.row_lo, rb.row_hi, centers, radii)
    )
    return CompositionWorkspace(tuple(centers), omega, spreads)


def cap_width(rb):
    """The range width plus 8 ulps of the larger end of each row with width."""
    width = Interval.point(rb.hi) - rb.lo
    for lo, hi in zip(rb.row_lo, rb.row_hi):
        if lo < hi:
            width = width + 8.0 * math.ulp(max(abs(lo), abs(hi)))
    return width.hi


def product_workspace(ma, mb):
    """bivariate.product_workspace one Interval operation at a time."""
    n = ma.dim
    rba = ma.range_bounds()
    rbx = mb.range_bounds()
    ca, ra = midpoints_and_radii(rba)
    cb, rbb = midpoints_and_radii(rbx)

    alpha, beta = sum(ca, ma.const), sum(cb, mb.const)

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

    cap = _mul_up(0.25, _mul_up(cap_width(rba), cap_width(rbx)))
    if remainder > cap * (1.0 + _CAP_SLACK) + 1e-300:
        raise RemainderCapExceeded(
            f"product remainder {remainder} exceeds the quarter-width cap {cap}"
        )
    return ProductWorkspace(
        tuple(ca), tuple(cb), alpha, beta, tuple(ra), tuple(rbb), remainder
    )


def compose(g, m):
    if g is Atom.NEG:
        return [[-e for e in row] for row in coeffs(m)], -m.const
    rb = range_bounds(m)
    _check_atom_domain(g, rb)
    w = central_points(g, m)
    r = remainder_bound(g, m, w)
    apply = getattr(Interval, g.value)
    g_omega = apply(w.omega)
    rows = [
        [apply((e - a) + w.omega) - g_omega for e in row] if lo < hi else [ZERO] * m.branches
        for row, a, lo, hi in zip(coeffs(m), w.centers, rb.row_lo, rb.row_hi)
    ]
    return with_remainder(rows, g_omega, r)


def mul(ma, mb):
    w = product_workspace(ma, mb)
    const = w.alpha * w.beta
    rows = []
    for i, (row_a, row_b) in enumerate(zip(coeffs(ma), coeffs(mb))):
        a_i, b_i = w.centers_a[i], w.centers_b[i]
        if w.radii_a[i] == 0.0 and w.radii_b[i] == 0.0:
            rows.append([ZERO] * ma.branches)
            continue
        rows.append(
            [((ea - a_i) + w.alpha) * ((eb - b_i) + w.beta) - const for ea, eb in zip(row_a, row_b)]
        )
    return with_remainder(rows, const, w.remainder)


def recip(m):
    rb = range_bounds(m)
    if rb.lo > 0.0:
        return compose(Atom.INV, m)
    negated = model(m.domain, *compose(Atom.NEG, m))
    return compose(Atom.NEG, model(m.domain, *compose(Atom.INV, negated)))


def brute_force_range(m, *, budget=DEFAULT_BUDGET):
    """Exact range by enumerating every branch tuple; the per-tuple endpoint
    sums start from the constant and use the same directed rounding as the
    row-wise bounder."""
    combos = m.branches**m.dim
    if combos > budget:
        raise BudgetExceeded(f"{combos} branch tuples exceed the budget {budget}")
    lows, highs = m.lo.tolist(), m.hi.tolist()
    best_lo = math.inf
    best_hi = -math.inf
    for combo in itertools.product(range(m.branches), repeat=m.dim):
        lo = m.const.lo
        hi = m.const.hi
        for i, j in enumerate(combo):
            lo = _add_down(lo, lows[i][j])
            hi = _add_up(hi, highs[i][j])
        best_lo = min(best_lo, lo)
        best_hi = max(best_hi, hi)
    return best_lo, best_hi


def remainder_violation_search(g, m, trials=10_000, seed=0):
    """Search for offsets that violate the univariate remainder bound.

    Draws admissible per-row offsets (`admissible_offsets`), measures the
    composition defect in float64, and returns the largest measured defect
    minus the bound.  The measurement is discounted by half the noise floor,
    about one ulp per term, so a sound bound yields a non-positive result
    instead of ulp-level false alarms at points where the bound is attained
    exactly.
    """
    w = central_points(g, m)
    r = remainder_bound(g, m, w)
    deltas = admissible_offsets(m, w.centers, np.random.default_rng(seed), trials)
    omega = mid(w.omega)
    resolution = defect_noise_floor(g, omega, deltas) / 2
    return float(defect_values(g, omega, deltas).max() - resolution) - r


def eval_points(e, xs):
    """`expr.eval_points` on the whole lattice at once: (m, arity) points or
    one coordinate array per variable, broadcast together."""
    if isinstance(xs, tuple):
        if len(xs) != e.arity:
            raise ArityError(f"got {len(xs)} coordinate arrays, expression takes {e.arity}")
        coords = tuple(np.asarray(x, dtype=float) for x in xs)
        shape = np.broadcast_shapes(*(x.shape for x in coords))
    else:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != e.arity:
            raise ArityError(f"expected an (m, {e.arity}) array, got {xs.shape}")
        coords, shape = xs.T, xs.shape[:1]
    outs = _walk(e, coords.__getitem__, float, partial(_apply, "np"),
                 lambda v: np.isfinite(v).all())
    return np.stack([np.broadcast_to(v, shape) for v in outs], axis=-1).reshape(-1, len(outs))
