"""`eval_points` walks the lattice under numpy's floating-point traps and
falls back to the checked walk, which checks every node's value for
finiteness, on a trap, a domain error or a non-finite coordinate.  Either
way it must give what the checked walk alone gives: the same bytes, or the
same exception class and message, with the caller's numpy error state kept."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from isarith import expr
from isarith.expr import _SLAB, ParseError, eval_points, parse, parse_vector
from isarith.interval import DomainViolation, _quiet
from test_cli_fuzz import boxes, expressions

#: the checked walk over the whole lattice, numpy quiet, as the fallback runs it
checked = _quiet(reference.eval_points)


def outcome(evaluate, e, xs):
    """The values' shape and bytes, or the exception's class and message."""
    try:
        got = evaluate(e, xs)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return got.shape, got.tobytes()


def open_grid(box, k):
    """One coordinate array per axis of the k-per-axis lattice over the box,
    first axis slowest; an overflowing box gives non-finite coordinates."""
    with np.errstate(all="ignore"):
        axes = [np.linspace(lo, hi, k) for lo, hi in box]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 3))
    texts = [draw(expressions(n)) for _ in range(draw(st.integers(1, 2)))]
    xs = open_grid([draw(boxes()) for _ in range(n)], draw(st.integers(1, 12)))
    if draw(st.booleans()):  # the (m, arity) form
        xs = np.stack([np.broadcast_to(x, np.broadcast_shapes(*(x.shape for x in xs))).ravel()
                       for x in xs], axis=-1)
    return texts, n, xs, draw(st.sampled_from([1, 5, 64, _SLAB]))


@settings(max_examples=200, deadline=None)
@given(lattices())
def test_traps_give_what_the_checked_walk_gives(case):
    texts, n, xs, slab = case
    try:
        e = parse_vector(texts, n)
    except (ParseError, DomainViolation, OverflowError):  # a constant that fails to fold
        return
    state = np.geterr()
    with mock.patch.object(expr, "_SLAB", slab):  # many slabs on a small lattice
        assert outcome(eval_points, e, xs) == outcome(checked, e, xs)
    assert np.geterr() == state


def test_overflow_in_a_late_slab_only():
    e = parse("exp(x1)", 1)  # overflows past x1 = 709.78, in the last slab only
    x1 = np.linspace(0.0, 800.0, 3 * _SLAB)
    assert np.isfinite(eval_points(e, (x1[:2 * _SLAB],))).all()
    for xs in ((x1,), x1[:, None]):
        with pytest.raises(OverflowError, match="^intermediate value overflowed$"):
            eval_points(e, xs)
        assert outcome(eval_points, e, xs) == outcome(checked, e, xs)


def test_domain_error_in_a_late_slab_only():
    e = parse("sin(x1) + log(x1)", 1)  # x1 reaches zero in the last slab only
    x1 = np.linspace(1.0, -0.1, 3 * _SLAB)
    assert np.isfinite(eval_points(e, (x1[:2 * _SLAB],))).all()
    for xs in ((x1,), x1[:, None]):
        with pytest.raises(DomainViolation, match=r"^node \d+ \(un\): log of a non-positive value$"):
            eval_points(e, xs)
        assert outcome(eval_points, e, xs) == outcome(checked, e, xs)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_coordinate(bad):
    # no op traps on a leaf: the coordinates are checked before the walk
    x1 = np.linspace(0.0, 1.0, 2 * _SLAB)
    x1[-1] = bad
    e = parse("x1 + 1", 1)
    with pytest.raises(OverflowError, match="^intermediate value overflowed$"):
        eval_points(e, (x1,))
    # a non-finite coordinate of a variable no output reads is no error
    e = parse("sin(x1)", 2)
    xs = (x1[:10], np.full(10, bad))
    got = eval_points(e, xs)
    assert got.tobytes() == checked(e, xs).tobytes() == np.sin(x1[:10, None]).tobytes()


def test_a_mistaken_trap_returns_the_checked_values(monkeypatch):
    sin = expr._OPS["sin"]
    calls = []

    def flaky(v):
        calls.append(len(v))
        if len(calls) == 2:  # the second slab only
            raise FloatingPointError("mistaken trap")
        return sin.np(v)

    monkeypatch.setitem(expr._OPS, "sin", sin._replace(np=flaky))
    e = parse("sin(x1) * x1", 1)
    x1 = np.linspace(-3.0, 3.0, 3 * _SLAB)
    got = eval_points(e, (x1,))
    assert calls == [_SLAB, _SLAB, 3 * _SLAB]  # two slabs, then the checked walk
    assert got.tobytes() == checked(e, (x1,)).tobytes()


@pytest.mark.parametrize("bad", [lambda v: np.sqrt(-1.0 - np.abs(v)), lambda v: np.log(0.0 * v)],
                         ids=["invalid", "divide"])
def test_a_non_finite_value_from_finite_ones_is_the_checked_walks_error(monkeypatch, bad):
    # no op of the table gives a NaN or an infinity from finite values but by
    # overflow, yet the invalid and divide traps catch one that did, as the
    # checked walk does; that walk quiets only overflow and invalid, as
    # _quiet does, so the caller here turns numpy's divide warning off
    monkeypatch.setitem(expr._OPS, "sin", expr._OPS["sin"]._replace(np=bad))
    e = parse("sin(x1) + 1", 1)
    with np.errstate(divide="ignore"), pytest.raises(OverflowError, match="^intermediate value overflowed$"):
        eval_points(e, (np.linspace(0.0, 1.0, 5),))


@pytest.mark.parametrize("text, x", [("x1 * 2", 0.5), ("exp(x1)", 1000.0), ("log(x1)", -1.0)])
def test_the_callers_error_state_is_kept(text, x):
    e = parse(text, 1)
    with np.errstate(over="warn", invalid="ignore", divide="warn", under="warn"):
        state = np.geterr()
        try:
            eval_points(e, (np.full(5, x),))
        except (DomainViolation, OverflowError):
            pass
        assert np.geterr() == state
    with np.errstate(all="raise"):  # a trap the caller set stays a typed error
        state = np.geterr()
        assert outcome(eval_points, e, (np.full(5, x),)) == outcome(checked, e, (np.full(5, x),))
        assert np.geterr() == state
