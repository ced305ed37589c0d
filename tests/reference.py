"""Per-entry scalar reference for the model rules.

These are the rules as they ran before the coefficient matrices became
arrays: every coefficient an `Interval`, every entry its own scalar
operation.  `tests/test_array_models.py` checks the array rules against them
bit for bit.  The O(n) scalar work (range bounds, central points, remainder
bounds, product workspaces) is shared with the program where it was scalar
there too; only the per-entry part is written out here.

Each rule returns (rows, const): a list of rows of `Interval` and the
constant.  `model` turns such a pair back into a model for the next rule.

The brute-force checkers live here too: `brute_force_range` enumerates every
branch tuple of a model, and `remainder_violation_search` measures the
composition defect at sampled offsets against the remainder bound.
"""

import itertools
import math

import numpy as np

from conftest import admissible_offsets, defect_noise_floor, defect_values, make_model
from isarith.bivariate import product_workspace
from isarith.interval import Interval, _add_down, _add_up, _sub_up
from isarith.model import RangeBounds
from isarith.oracle import DEFAULT_BUDGET, BudgetExceeded
from isarith.univariate import Atom, _check_atom_domain, central_points, remainder_bound

ZERO = Interval(0.0, 0.0)


def model(domain, rows, const):
    return make_model(domain, [[(e.lo, e.hi) for e in row] for row in rows], (const.lo, const.hi))


def range_bounds(m):
    rows = m.coeffs
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
    rows = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(ma.coeffs, mb.coeffs)]
    return rows, ma.const + mb.const


def affine(m, scale, shift=0.0):
    return [[e * scale for e in row] for row in m.coeffs], m.const * scale + shift


def scalar_affine(m, c, d=0.0):
    if c == 0.0:
        return [[ZERO] * m.branches for _ in range(m.dim)], Interval.point(d)
    return affine(m, c, d)


def compose(g, m):
    if g is Atom.NEG:
        return [[-e for e in row] for row in m.coeffs], -m.const
    rb = range_bounds(m)
    _check_atom_domain(g, rb)
    w = central_points(g, m)
    r = remainder_bound(g, m, w)
    apply = getattr(Interval, g.value)
    g_omega = apply(w.omega)
    rows = [
        [apply((e - a) + w.omega) - g_omega for e in row] if lo < hi else [ZERO] * m.branches
        for row, a, lo, hi in zip(m.coeffs, w.centers, rb.row_lo, rb.row_hi)
    ]
    return with_remainder(rows, g_omega, r)


def mul(ma, mb):
    w = product_workspace(ma, mb)
    const = w.alpha * w.beta
    rows = []
    for i, (row_a, row_b) in enumerate(zip(ma.coeffs, mb.coeffs)):
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
    omega = w.omega.mid
    resolution = defect_noise_floor(g, omega, deltas) / 2
    return float(defect_values(g, omega, deltas).max() - resolution) - r
