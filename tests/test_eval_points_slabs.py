"""`eval_points` computes a node that reads no sliced coordinate once per
call, before its slab loop, and every other node once per slab; an output
node whose rule is a numpy ufunc writes each slab straight into the result
array.  Every case runs on at least four slabs (a small _SLAB) and must give
the checked walk's values byte for byte."""

import numpy as np
import pytest

import reference
from isarith import expr
from isarith.expr import eval_points, parse, parse_vector
from isarith.interval import _quiet

#: the checked walk over the whole lattice, numpy quiet, as the fallback runs it
checked = _quiet(reference.eval_points)

#: (9, 7) points over [0.5, 2] x [-1, 3]; a slab of 14 points is 2 rows, so 5 slabs
BOX, SHAPE, SLAB = [(0.5, 2.0), (-1.0, 3.0)], (9, 7), 14


def open_grid(box=BOX, shape=SHAPE):
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(box, shape)]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@pytest.fixture(autouse=True)
def small_slabs(monkeypatch):
    monkeypatch.setattr(expr, "_SLAB", SLAB)


def counting(monkeypatch, name):
    """Patch op name's numpy rule to record the shape of every operand it gets."""
    row = expr._OPS[name]
    shapes = []

    def rule(*args):
        shapes.append(np.shape(args[0]))
        return row.np(*args)

    monkeypatch.setitem(expr._OPS, name, row._replace(np=rule))
    return shapes


def test_a_node_that_reads_no_sliced_axis_runs_once_per_call(monkeypatch):
    sins, coss = counting(monkeypatch, "sin"), counting(monkeypatch, "cos")
    e = parse("sin(x1*x2) + cos(x2)", 2)
    xs = open_grid()
    got = eval_points(e, xs)
    assert coss == [(1, 7)]  # on its own sub-lattice, before the slabs
    assert sins == [(2, 7)] * 4 + [(1, 7)]  # once per slab, the last one short
    assert got.tobytes() == checked(e, xs).tobytes()


def test_the_three_axis_lattice_hoists_each_node_on_its_own_axes(monkeypatch):
    sins, coss = counting(monkeypatch, "sin"), counting(monkeypatch, "cos")
    e = parse_vector(["sin(x1) * cos(x2*x3)", "cos(x3)"], 3)
    xs = open_grid([(0.0, 1.0)] * 3, (8, 4, 4))  # 16 points a row: 8 slabs of one row
    got = eval_points(e, xs)
    assert sorted(coss) == [(1, 1, 4), (1, 4, 4)]
    assert sins == [(1, 1, 1)] * 8
    assert got.tobytes() == checked(e, xs).tobytes()


def test_a_ufunc_output_is_written_in_place(monkeypatch):
    calls = []
    apply = expr._apply

    def spy(column, kind, param, *args, out=None):
        got = apply(column, kind, param, *args, out=out)
        if out is not None:
            calls.append((param, got is out, out.base is not None))
        return got

    monkeypatch.setattr(expr, "_apply", spy)
    e = parse_vector(["exp(x1*x2)", "sin(x1)", "log(x1*x2+3)", "x1*x2"], 2)
    xs = open_grid()
    got = eval_points(e, xs)
    # exp fills its slab; sin(x1) reads one axis, so it is computed once per
    # row and copied; log is not a ufunc; exp and log read x1*x2, so it gets
    # no destination
    assert [c for c in calls if c[0] == "exp"] == [("exp", True, True)] * 5
    assert [c for c in calls if c[0] == "sin"] == [("sin", False, True)] * 5
    assert [c for c in calls if c[0] == "log"] == [("log", False, True)] * 5
    assert len(calls) == 15
    assert got.tobytes() == checked(e, xs).tobytes()


@pytest.mark.parametrize("texts", [
    ["sin(x2)", "sin(x2)"],  # a duplicated slab-invariant output
    ["sin(x1*x2)", "x1", "sin(x1*x2)"],  # a duplicated output the slab walk computes
    ["2.5", "x1*x2"],  # a constant output
    ["x1", "x2", "x2*x1"],  # bare variables
    ["sin(x1*x2)", "exp(sin(x1*x2))"],  # an output another output consumes
    ["exp(sin(x1*x2))", "sin(x1*x2)"],  # the same, consumer first
    ["log(x1+2)", "x1/(x2+3)", "(x1+x2)^3", "inv(x1)"],  # rules that are not ufuncs
    ["x2^2", "-x1", "x1+x2", "x1-x2", "x1*x2"],  # rules that are
    ["sin(x1)", "cos(x2)"],  # outputs smaller than the slab
])
def test_outputs_match_the_checked_walk(texts):
    e = parse_vector(texts, 2)
    xs = open_grid()
    points = np.stack([np.broadcast_to(x, SHAPE).ravel() for x in xs], axis=-1)
    for lattice in (xs, points):  # the (m, arity) form slices every variable
        got, want = eval_points(e, lattice), checked(e, lattice)
        assert got.shape == want.shape == (63, len(texts))
        assert got.tobytes() == want.tobytes()
