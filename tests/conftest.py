"""Shared builders for randomized model-level tests."""

import itertools

import numpy as np

from isarith import oracle
from isarith.interval import Interval
from isarith.model import Domain, SuperpositionModel
from isarith.univariate import Atom

ATOM_NP = {
    Atom.NEG: lambda x: -x,
    Atom.SQR: np.square,
    Atom.INV: lambda x: 1.0 / x,
    Atom.EXP: np.exp,
    Atom.LOG: np.log,
    Atom.SIN: np.sin,
    Atom.COS: np.cos,
    Atom.TAN: np.tan,
}


def lattice(bounds, per_axis):
    """The dense (per_axis**n, n) array of lattice points over the box with
    the given (lo, hi) axes, corners included, first axis slowest: the
    reference the oracle's open-grid sampling and block scans must match."""
    lo, hi = np.array(bounds, dtype=float).T
    return oracle._block_points(oracle._linspace(lo, hi, per_axis)[None])[0]


def make_model(domain, rows, const=(0.0, 0.0)):
    """Model from rows of (lo, hi) pairs and a (lo, hi) constant."""
    bounds = [[[float(e[k]) for e in row] for row in rows] for k in (0, 1)]
    return SuperpositionModel(domain, bounds, Interval(*const))


def coeffs(m):
    """A model's coefficient matrix as rows of Interval values."""
    return tuple(
        tuple(Interval(a, b) for a, b in zip(row_lo, row_hi))
        for row_lo, row_hi in zip(m.lo.tolist(), m.hi.tolist())
    )


def row(m, i):
    """Row i of a model's coefficient matrix as Interval values."""
    return coeffs(m)[i]


def mid(iv):
    """A midpoint guaranteed to lie inside the interval."""
    m = iv.lo + 0.5 * (iv.hi - iv.lo)
    return min(max(m, iv.lo), iv.hi)


def is_separable(m):
    """True when at most one row of the model has positive width across its
    branches."""
    return int((m.lo.min(axis=1) < m.hi.max(axis=1)).sum()) <= 1


def shift(iv, c):
    """Interval translated by the constant c."""
    return iv + c


def scale(iv, c):
    """Interval multiplied by the constant c (endpoints swap for c < 0)."""
    return iv * c


def hull(a, b):
    """Smallest interval containing both operands."""
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def branch_interval(d, axis, j):
    """Branch j of an axis of the domain d as an interval."""
    if not 0 <= axis < d.dim:
        raise IndexError(f"axis {axis} out of range for dimension {d.dim}")
    if not 0 <= j < d.branches:
        raise IndexError(f"branch {j} out of range for N={d.branches}")
    return Interval(d.grid[axis][j], d.grid[axis][j + 1])


def unit_domain(n, branches):
    return Domain.of([(0.0, 1.0)] * n, branches)


def random_model_for_atom(rng, atom, n, branches):
    """Random coefficient matrix whose range satisfies the atom's domain with
    a comfortable margin."""
    if atom in (Atom.LOG, Atom.INV):
        lo_band, width = (0.4, 1.2), 0.5
    elif atom is Atom.TAN:
        lo_band, width = (-0.35 / n, 0.25 / n), 0.4 / n
    else:
        lo_band, width = (-1.2, 0.8), 0.9
    rows = []
    for _ in range(n):
        lo = rng.uniform(*lo_band, size=branches)
        w = rng.uniform(0.01, width, size=branches)
        rows.append([(float(a), float(a + b)) for a, b in zip(lo, w)])
    return make_model(unit_domain(n, branches), rows)


def random_separable_model(rng, atom, n, branches, wide_row=None):
    """All rows degenerate constants except one."""
    wide = int(rng.integers(0, n)) if wide_row is None else wide_row
    if atom in (Atom.LOG, Atom.INV):
        base, width = (0.5, 1.0), 0.6
    elif atom is Atom.TAN:
        base, width = (-0.3 / n, 0.2 / n), 0.5 / n
    else:
        base, width = (-1.0, 0.7), 0.8
    rows = []
    for i in range(n):
        if i == wide:
            lo = rng.uniform(*base, size=branches)
            w = rng.uniform(0.05, width, size=branches)
            rows.append([(float(a), float(a + b)) for a, b in zip(lo, w)])
        else:
            c = float(rng.uniform(*base))
            rows.append([(c, c)] * branches)
    return make_model(unit_domain(n, branches), rows)


def admissible_offsets(m, centers, rng, trials):
    """Uniform draws plus all corner vectors of the admissible offset box,
    then the zero vector."""
    rb = m.range_bounds()
    lo = np.array([l - a for l, a in zip(rb.row_lo, centers)])
    hi = np.array([h - a for h, a in zip(rb.row_hi, centers)])
    draws = rng.uniform(lo, hi, size=(trials, len(centers)))
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    zero = np.zeros((1, len(centers)))
    return np.vstack([draws, corners, zero])


def defect_values(atom, omega, deltas):
    """|sum g(w+d_i) - (n-1) g(w) - g(w + sum d_i)| for each offset row."""
    g = ATOM_NP[atom]
    n = deltas.shape[1]
    return np.abs(
        g(omega + deltas).sum(axis=1) - (n - 1) * g(omega) - g(omega + deltas.sum(axis=1))
    )


def defect_noise_floor(atom, omega, deltas):
    """Resolution of the float64 defect measurement: each of the n + 2 terms
    carries about one ulp of its own magnitude."""
    g = ATOM_NP[atom]
    n = deltas.shape[1]
    gmax = max(
        float(np.abs(g(omega + deltas)).max()),
        abs(g(omega)) * (n - 1),
        float(np.abs(g(omega + deltas.sum(axis=1))).max()),
        1e-30,
    )
    return 8.0 * (n + 2) * np.finfo(float).eps * gmax
