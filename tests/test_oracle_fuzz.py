"""Grammar fuzz of the oracle path: `isarith compare` on a small grid, and the
piecewise scan of 2- and 3-output maps with the plain-interval clip, as
`run_recursion` runs it.  Every case ends in a row of finite, non-negative
distances, in a typed error (exit 2), or in a soundness violation (exit 3)
whose escaping lattice point has an exact value outside the enclosure."""

import contextlib
import io
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

from isarith import cli
from isarith.bivariate import RemainderCapExceeded
from isarith.expr import ParseError, eval_interval, eval_ism, parse, parse_vector
from isarith.interval import DomainViolation
from isarith.oracle import SoundnessViolation, hausdorff_piecewise, sample_image
from test_acceptance import _exact_value
from test_cli_fuzz import boxes, expressions

#: lattice points the image samples hold, and the piecewise scan's budget
GRID, SCAN = 300, 4096
#: the message `oracle._check_hull` gives a sampled hull that escapes an enclosure
ESCAPE = re.compile(r"axis (\d+): sampled hull \[([^,]+), ([^\]]+)\] escapes enclosure \[([^,]+), ([^\]]+)\]")


def spec_of(box):
    return ";".join(f"x{i + 1}=[{lo!r},{hi!r}]" for i, (lo, hi) in enumerate(box))


def escapes_exactly(texts, box, branches, message):
    """True when the message is `_check_hull`'s and the lattice point it
    checked, the escaping extreme of the sampled output, has an exact value
    outside the enclosure (taken as c4's `_exact_value` takes it)."""
    match = ESCAPE.search(message)
    if match is None:
        return False
    j = int(match[1])
    hull_lo, _, enc_lo, enc_hi = map(float, match.groups()[1:])
    domain = cli.parse_domain_spec(spec_of(box), branches)
    img = sample_image(parse_vector(texts, domain.dim), domain.boxes, budget=GRID)
    _, coords = img.source
    n, k = coords.shape
    flat = (np.argmin if hull_lo < enc_lo else np.argmax)(img.points[:, j])
    x = coords[np.arange(n), np.unravel_index(flat, (k,) * n)].tolist()
    with mpmath.workdps(50):
        exact = _exact_value(parse(texts[j], n), x)
    return not Fraction(enc_lo) <= exact <= Fraction(enc_hi)


@st.composite
def maps(draw, outputs):
    n = draw(st.integers(1, 3))
    texts = [draw(expressions(n)) for _ in range(draw(outputs))]
    return texts, [draw(boxes()) for _ in range(n)], draw(st.integers(1, 8))


@settings(max_examples=150, deadline=None)
@given(maps(st.just(1)))
def test_compare_ends_in_a_row_a_typed_error_or_an_exact_violation(case):
    texts, box, branches = case
    out, err = io.StringIO(), io.StringIO()
    argv = ["compare", f"--expr={texts[0]}", f"--domain={spec_of(box)}", "-N", str(branches), "--grid", str(GRID)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status == 0:
        header, row = out.getvalue().splitlines()[-2:]
        cells = dict(zip(header.split(","), row.split(",")))
        for key in ("dH_isa", "dH_ia"):
            assert math.isfinite(float(cells[key])) and float(cells[key]) >= 0.0, (key, cells)
    elif status == 3:
        assert escapes_exactly(texts, box, branches, err.getvalue()), err.getvalue()
    else:
        assert status == 2 and err.getvalue().startswith("error: "), (status, err.getvalue())


@settings(max_examples=100, deadline=None)
@given(maps(st.integers(2, 3)))
def test_piecewise_scan_ends_in_a_distance_a_typed_error_or_an_exact_violation(case):
    texts, box, branches = case
    try:
        domain = cli.parse_domain_spec(spec_of(box), branches)
        e = parse_vector(texts, domain.dim)
        models = eval_ism(e, domain)
        clip = eval_interval(e, domain.boxes)
        img = sample_image(e, domain.boxes, budget=GRID)
        d = hausdorff_piecewise(img, models, clip=clip, budget=SCAN)
    except (SoundnessViolation, RemainderCapExceeded) as violation:  # exit 3
        assert escapes_exactly(texts, box, branches, str(violation)), violation
    except (ParseError, DomainViolation, OverflowError, ValueError):  # exit 2
        pass
    else:
        assert math.isfinite(d) and d >= 0.0, d
