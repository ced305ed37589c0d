"""Grammar fuzz of `isarith bound`: every input ends in a result or a typed
error, and every result encloses the function at sampled points."""

import contextlib
import io
import math
import random
from fractions import Fraction

import mpmath
from hypothesis import example, given, settings, strategies as st

from isarith import cli, expr
from isarith.expr import eval_point, parse
from test_acceptance import _exact_value

FUNCS = sorted(expr._FUNCS)
EDGES = [-1.7976931348623157e308, -1e300, -710.0, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1.0, 709.0,
         710.0, 1e300, 1.7976931348623157e308]

literals = st.one_of(
    st.floats(1e-300, 1e300).map(repr),
    st.integers(-300, 300).map("1e{}".format),
    st.sampled_from(["pi", "e", "0", "1", "2"]),
)


def expressions(n):
    leaves = st.one_of(st.integers(1, n).map("x{}".format), literals)
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds("{}({})".format, st.sampled_from(FUNCS), kids),
            st.builds("({}{}{})".format, kids, st.sampled_from("+-*/"), kids),
            st.builds("({})^{}".format, kids, st.integers(1, 6)),
            kids.map("-{}".format),
        ),
        max_leaves=10,
    )


ends = st.one_of(st.floats(-4.0, 4.0), st.floats(-1e3, 1e3), st.sampled_from(EDGES),
                 st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def boxes(draw):
    lo = draw(ends)
    ulps = draw(st.sampled_from([None] * 6 + [0, 1, 3]))  # collapsed and few-ulp boxes too
    if ulps is None:
        return tuple(sorted((lo, draw(ends.filter(lambda v: v != lo)))))
    hi = lo
    for _ in range(ulps):
        hi = math.nextafter(hi, math.inf)
    return lo, hi


@st.composite
def bound_cases(draw):
    n = draw(st.integers(1, 3))
    text = draw(expressions(n))
    # wrap to any depth up to one past the parser's limit
    wraps = draw(st.sampled_from([0, 0, 0, 1, 10, expr.MAX_NESTING - 20, expr.MAX_NESTING + 1]))
    text = draw(st.sampled_from(["(", "sin(", "exp(", "-("])) * wraps + text + ")" * wraps
    box = [draw(boxes()) for _ in range(n)]
    return text, box, draw(st.integers(1, 64)), draw(st.integers(0, 2**32 - 1))


def bound(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue()


def inner_points(box, seed, count=4):
    rng = random.Random(seed)
    for _ in range(count):
        u = [rng.random() for _ in box]
        yield [min(max((1.0 - t) * lo + t * hi, lo), hi) for t, (lo, hi) in zip(u, box)]


# x2 - x1 is one ulp at the first inner point of seed 1, and the float value
# of the sum rounds one ulp past the isa upper end, which the exact value meets
ROUNDS_OUT = "(-x1+(x2+4.0647727923493324e-181))"
ROUNDS_OUT_BOX = [(4.0647727923493324e-181, 4.064772792349333e-181)] * 2


@settings(max_examples=250, deadline=None)
@given(bound_cases())
@example((ROUNDS_OUT, ROUNDS_OUT_BOX, 1, 1))
def test_bound_ends_in_a_result_or_a_typed_error(case):
    text, box, branches, seed = case
    spec = ";".join(f"x{i + 1}=[{lo!r},{hi!r}]" for i, (lo, hi) in enumerate(box))
    status, out = bound(["bound", f"--expr={text}", f"--domain={spec}", "-N", str(branches)])
    assert status in (0, 2)  # exit 3, a soundness violation, is a bug on any input
    if status != 0:
        return
    enclosures = [tuple(map(float, line.split()[1:])) for line in out.splitlines()]
    assert [line.split()[0] for line in out.splitlines()] == ["isa", "ia"]
    e = parse(text, len(box))
    for x in inner_points(box, seed):
        (v,) = eval_point(e, x)
        for lo, hi in enclosures:
            # a float value can round out of a sound enclosure, so one that
            # escapes is judged by the exact value, as the oracle fuzz does
            assert lo <= v <= hi or _exactly_within(e, x, lo, hi), (x, v, lo, hi)


def _exactly_within(e, x, lo, hi):
    with mpmath.workdps(50):
        return Fraction(lo) <= _exact_value(e, x) <= Fraction(hi)


def test_an_exact_value_past_an_end_still_escapes():
    e, x = parse(ROUNDS_OUT, 2), list(ROUNDS_OUT_BOX[0])  # x1 at its low end, x2 at its high end
    (v,) = eval_point(e, x)
    top = 4.064772792349333e-181  # the exact value, a float itself
    assert v > top and _exactly_within(e, x, 0.0, top)
    assert not _exactly_within(e, x, 0.0, math.nextafter(top, 0.0))
