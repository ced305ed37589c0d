"""`sample_image` takes its hull in the slab walk of `eval_points`
(`expr._eval_points_hull`), each slab's minima and maxima folded while the
slab is in cache.  The hull must keep the bits of the whole columns' min()
and max(): on lattices that cross slab borders, over signed zeros, after the
checked walk and on an empty lattice."""

import numpy as np
import pytest

import reference
from isarith import cli, expr
from isarith.expr import _SLAB, _eval_points_hull, eval_points, parse, parse_vector, self_compose
from isarith.interval import Interval
from isarith.oracle import sample_image


def column_bits(values):
    """The bits of each column's min() and max(), as the hull was taken before."""
    return np.array([(v.min(), v.max()) for v in values.T]).tobytes()


def hull_bits(hull):
    return np.array([(h.lo, h.hi) for h in hull]).tobytes()


def sampled(texts, box, grid):
    img = sample_image(parse_vector(texts, len(box)), [Interval(*b) for b in box], grid=grid)
    assert len(img.points) > 2 * _SLAB  # the lattice crosses slab borders
    return img


def test_showcase_at_grid_1000():
    img = sampled([cli.SHOWCASE_EXPR], [(0.0, 1.0), (0.0, 5.0)], 1000)
    assert hull_bits(img.per_axis_hull) == column_bits(img.points)


def test_recursion_map_at_depth_three():
    box = [(b.lo, b.hi) for b in cli.parse_domain_spec(cli.RECURSION_DOMAIN, 1).boxes]
    img = sample_image(self_compose(parse_vector(cli.RECURSION_TEXTS, 3), 3),
                       [Interval(*b) for b in box], grid=46)  # the bench pass's 10^5-point lattice
    assert img.points.shape == (46**3, 3) and 46**3 > _SLAB
    assert hull_bits(img.per_axis_hull) == column_bits(img.points)


def test_signed_zeros_in_different_slabs():
    # 0*x1 is -0.0 on the slabs of negative x1 and 0.0 on the others; numpy's
    # min() over the whole column picks 0.0 there, a fold slab by slab -0.0
    img = sampled(["0*x1"], [(-1.0, 1.0), (0.0, 1.0)], 1000)
    signs = np.signbit(img.points[:, 0])
    assert signs[:_SLAB].all() and not signs[-_SLAB:].any()
    assert hull_bits(img.per_axis_hull) == column_bits(img.points)


@pytest.mark.parametrize("seed", range(40))
def test_random_signed_zeros_over_small_slabs(monkeypatch, seed):
    monkeypatch.setattr(expr, "_SLAB", 7)
    x1 = np.random.default_rng(seed).choice([-1.0, 1.0], size=200)
    x1[:7] = -1.0  # a first slab of -0.0 only
    values, lo, hi = _eval_points_hull(parse_vector(["0*x1", "x1"], 1), (x1,))
    assert np.array([lo, hi]).T.tobytes() == column_bits(values)


def test_a_late_slab_trap_takes_the_hull_from_the_checked_values(monkeypatch):
    sin = expr._OPS["sin"]
    calls = []

    def flaky(v):
        calls.append(len(v))
        if len(calls) == 2:  # the second slab only
            raise FloatingPointError("mistaken trap")
        return sin.np(v)

    monkeypatch.setitem(expr._OPS, "sin", sin._replace(np=flaky))
    # rising in x1: the first slab does not hold the lattice's maximum
    img = sample_image(parse("sin(x1) + x1", 1), [Interval(-3.0, 3.0)], grid=3 * _SLAB)
    assert calls == [_SLAB, _SLAB, 3 * _SLAB]  # two slabs, then the checked walk
    assert img.points.tobytes() == reference.eval_points(img.source[0], (img.source[1][0],)).tobytes()
    assert hull_bits(img.per_axis_hull) == column_bits(img.points)


@pytest.mark.parametrize("xs", [
    np.zeros((0, 2)),
    (np.zeros((0, 1)), np.ones((1, 5))),
    (np.ones((5, 1)), np.zeros((1, 0))),
    (np.zeros((0, 1)), np.full((1, 5), np.inf)),  # the checked walk, on no point
])
def test_empty_lattice(xs):
    e = parse_vector(["x1", "sin(x1)", "3.0"], 2)
    values, lo, hi = _eval_points_hull(e, xs)
    assert values.shape == (0, 3) and lo == [np.inf] * 3 and hi == [-np.inf] * 3
    assert eval_points(e, xs).tobytes() == values.tobytes() == reference.eval_points(e, xs).tobytes()
