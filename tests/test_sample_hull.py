"""`sample_image` takes its hull in the slab walk of `eval_points`
(`expr._eval_points_hull`), each slab's minima and maxima folded while the
slab is in cache.  The hull must keep the bits of the whole columns' min()
and max(): on lattices that cross slab borders, over signed zeros, after the
checked walk and on an empty lattice.  A one-output sample keeps no values,
its slabs written into one scratch array per thread, and must keep the same
bits, also with several threads sampling at once."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference
from isarith import cli, expr, oracle
from isarith.expr import _SLAB, _eval_points_hull, eval_interval, eval_points, parse, parse_vector, self_compose
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


# One output: `sample_image` keeps the hull, not the values, and the slabs go
# through one scratch array per thread.  `points` is then computed on first
# read by the kept walk, unless the hull already took the values from it.

SHOWCASE_BOX = [Interval(0.0, 10.0), Interval(0.0, 5.0)]


def dense(img):
    """The dense lattice's values of a sample, walked whole (`reference`)."""
    e, coords = img.source
    return reference.eval_points(e, tuple(np.meshgrid(*coords, indexing="ij", sparse=True)))


def counting_walks(monkeypatch):
    """Count every lattice walk: each call of `_eval_points_hull`, through
    `sample_image`, `eval_points` or its own restart."""
    walks = []
    real = expr._eval_points_hull

    def counted(*args, **kwargs):
        walks.append(kwargs.get("keep", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(expr, "_eval_points_hull", counted)
    monkeypatch.setattr(oracle, "_eval_points_hull", counted)
    return walks


@pytest.mark.parametrize("text, box, restarts, kept", [
    (cli.SHOWCASE_EXPR, [(0.0, 10.0), (0.0, 5.0)], False, False),
    ("x1*x2", [(-1.0, 0.0), (0.0, 1.0)], True, True),  # the maximum folds to ±0.0
    ("0*x1", [(-1.0, 1.0), (0.0, 1.0)], True, True),  # -0.0 in the first slabs, 0.0 in the last
    ("sin(x1)", [(-3.0, 3.0), (-1.7e308, 1.7e308)], False, True),  # a NaN x2 coordinate: the checked walk
])
def test_one_output_hull_and_points(monkeypatch, text, box, restarts, kept):
    walks = counting_walks(monkeypatch)
    img = sample_image(parse(text, 2), [Interval(*b) for b in box], grid=1000)
    assert walks == [False] + [True] * restarts  # a zero end: the kept walk takes over
    points = img.points
    assert walks == [False] + [True] * (restarts or not kept)  # the points walk, unless the hull's
    values = eval_points(img.source[0], tuple(np.meshgrid(*img.source[1], indexing="ij", sparse=True)))
    assert hull_bits(img.per_axis_hull) == column_bits(values)
    assert points.tobytes() == values.tobytes() == dense(img).tobytes()


def test_a_one_output_trap_in_a_late_slab_keeps_the_checked_values(monkeypatch):
    sin = expr._OPS["sin"]
    calls = []

    def flaky(v):
        calls.append(v.shape)
        if len(calls) == 3:  # the third slab only
            raise FloatingPointError("mistaken trap")
        return sin.np(v)

    monkeypatch.setitem(expr._OPS, "sin", sin._replace(np=flaky))
    walks = counting_walks(monkeypatch)
    img = sample_image(parse("sin(x1) + x2", 2), [Interval(-3.0, 3.0), Interval(0.0, 1.0)], grid=1000)
    assert len(calls) == 4  # three slabs, then the checked walk
    assert img.points.tobytes() == dense(img).tobytes()
    assert hull_bits(img.per_axis_hull) == column_bits(img.points)
    assert walks == [False]  # the checked walk's values are the points


def test_a_zero_end_in_the_first_slab_hands_over_to_the_kept_walk_at_once(monkeypatch):
    sin = expr._OPS["sin"]
    calls = []
    monkeypatch.setitem(expr._OPS, "sin", sin._replace(np=lambda v: calls.append(v.shape) or sin.np(v)))
    # the first slab's x1 are near -3, so its maximum is sin(x1)*0.0 = -0.0
    img = sample_image(parse("sin(x1)*x2", 2), [Interval(-3.0, 3.0), Interval(0.0, 1.0)], grid=1000)
    assert len(calls) == 1 + 16  # one slab of the scratch walk, then every slab of the kept one
    assert img.points.tobytes() == dense(img).tobytes()
    assert hull_bits(img.per_axis_hull) == column_bits(img.points)


@pytest.mark.parametrize("seed", range(10))
def test_one_output_random_signed_zeros_over_small_slabs(monkeypatch, seed):
    monkeypatch.setattr(expr, "_SLAB", 7)
    x1 = np.random.default_rng(seed).choice([-1.0, 1.0], size=200)
    e = parse("0*x1", 1)
    values, lo, hi = _eval_points_hull(e, (x1,), keep=False)
    assert values.tobytes() == eval_points(e, (x1,)).tobytes()
    assert np.array([lo, hi]).T.tobytes() == column_bits(values)


@pytest.mark.parametrize("xs", [
    (np.zeros((0, 1)), np.ones((1, 5))),
    (np.ones((5, 1)), np.zeros((1, 0))),
    (np.zeros((0, 1)), np.full((1, 5), np.inf)),  # the checked walk, on no point
])
def test_one_output_empty_lattice(xs):
    values, lo, hi = _eval_points_hull(parse("sin(x1)", 2), xs, keep=False)
    assert values is None or values.shape == (0, 1)
    assert lo == [np.inf] and hi == [-np.inf]


def test_hausdorff_enclosure_of_one_output_walks_the_lattice_once(monkeypatch):
    walks = counting_walks(monkeypatch)
    e = parse(cli.SHOWCASE_EXPR, 2)
    img = sample_image(e, SHOWCASE_BOX)
    assert oracle.hausdorff_enclosure(img, eval_interval(e, SHOWCASE_BOX)) > 0
    assert walks == [False]
    img.points, img.points
    assert walks == [False, True]  # the points, computed on first read only


def test_samples_on_several_threads_keep_their_serial_hulls():
    texts = [cli.SHOWCASE_EXPR, "x1*x1 - 3*x2 + 1", "sin(3*x1)*x2 - 7"]
    exprs = [parse(t, 2) for t in texts]
    serial = [hull_bits(sample_image(e, SHOWCASE_BOX).per_axis_hull) for e in exprs]
    got = [[] for _ in exprs]

    def sample(i):
        for _ in range(10):
            got[i].append(hull_bits(sample_image(exprs[i], SHOWCASE_BOX).per_axis_hull))

    # more threads than this suite's 2-core hosts have, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sample, args=(i,)) for i in range(len(exprs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[bits] * 10 for bits in serial]


def test_a_one_output_sample_holds_no_lattice_values():
    e = parse(cli.SHOWCASE_EXPR, 2)
    sample_image(e, SHOWCASE_BOX)  # this thread's scratch is allocated
    tracemalloc.start()
    try:
        sample_image(e, SHOWCASE_BOX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # the 8 MB of 10^6 values would not fit


def test_a_three_output_sample_holds_its_values(monkeypatch):
    walks = counting_walks(monkeypatch)
    e = self_compose(parse_vector(cli.RECURSION_TEXTS, 3), 2)
    img = sample_image(e, [Interval(-1.0, 1.0)] * 3, grid=46)
    assert walks == [True] and img.points.shape == (46**3, 3)
    img.kd_tree()
    assert walks == [True]
