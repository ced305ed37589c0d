"""Public error paths of each module: the exception each raises, and its
message where a caller reads one."""

import math

import numpy as np
import pytest

from isarith import cli
from isarith.expr import ArityError, eval_interval, eval_ism, eval_point, parse, parse_vector, self_compose
from isarith.interval import _ARRAY_RULES, DomainViolation, Interval, ZeroInDomain
from isarith.model import Domain, SuperpositionModel, init_constant, init_variable
from isarith.oracle import SoundnessViolation, hausdorff_enclosure, hausdorff_piecewise, sample_image
from isarith.univariate import Atom, central_points, remainder_bound

UNIT = Domain.of([(0.0, 1.0)] * 2, 4)


def test_domain_axis_without_brackets_exits_2(capsys):
    assert cli.main(["bound", "--expr", "x1", "--domain", "x1=0,1"]) == 2
    assert "axis x1: expected [lo,hi], got '0,1'" in capsys.readouterr().err


def test_sweep_records_a_failed_oracle_as_an_empty_row(monkeypatch, tmp_path, capsys):
    real_sample_image = cli.sample_image

    def sample_image_failing_once(e, box, **kwargs):
        if box[0].hi == 1.0 and box[1].hi == 20.0:
            raise DomainViolation("synthetic")
        return real_sample_image(e, box, **kwargs)

    monkeypatch.setattr(cli, "sample_image", sample_image_failing_once)
    for path in cli.run_sweep(str(tmp_path), points=2, grid_budget=100):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [row["x2max"] for row in rows] == ["0.1", "20.0"]
        for row in rows:
            failed = path.name == "sweep_x1max_1.csv" and row["x2max"] == "20.0"
            assert all((value == "") == failed for key, value in row.items() if key != "x2max")
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "warning: oracle failed at x2max=20.0: synthetic" in err


def test_arity_errors():
    with pytest.raises(ArityError):
        parse("1", -1)
    e = parse("x1+x2", 2)
    with pytest.raises(ArityError):
        eval_point(e, [0.5])
    with pytest.raises(ArityError):
        eval_interval(e, [Interval(0.0, 1.0)] * 3)
    with pytest.raises(ArityError):
        eval_ism(e, Domain.of([(0.0, 1.0)], 2))
    with pytest.raises(ValueError, match="depth must be positive, got 0"):
        self_compose(parse_vector(["x2", "x1"], 2), 0)


def test_domain_and_model_constructors_reject_bad_input():
    with pytest.raises(ValueError, match="at least one axis"):
        Domain((), 4)
    # -1 is no axis, though Python's indexing would pick the last one
    for axis in (UNIT.dim, -1):
        with pytest.raises(IndexError, match=f"axis {axis} out of range"):
            init_variable(UNIT, axis)
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            init_constant(UNIT, c)


def test_oracle_rejects_bad_arguments():
    e = parse_vector(["x1", "x2"], 2)
    box = UNIT.boxes
    with pytest.raises(ValueError, match="grid needs at least 2 points per axis, got 1"):
        sample_image(e, box, grid=1)
    img = sample_image(e, box, grid=3)
    with pytest.raises(ValueError, match="enclosure has 1 axes, image has 2"):
        hausdorff_enclosure(img, [Interval(0.0, 1.0)])
    with pytest.raises(ValueError, match="need at least one component model"):
        hausdorff_piecewise(img, [])


@pytest.mark.parametrize("rule,lo,hi,error", [
    ("inv", -1.0, 1.0, ZeroInDomain),
    ("log", 0.0, 1.0, DomainViolation),
])
def test_array_rules_raise_the_scalar_rules_errors(rule, lo, hi, error):
    with pytest.raises(error) as scalar:
        getattr(Interval(lo, hi), rule)()
    stacked = np.array([[[2.0, lo]], [[3.0, hi]]])
    with pytest.raises(error) as array:
        _ARRAY_RULES[rule](stacked)
    assert type(array.value) is type(scalar.value)
    assert str(array.value) == str(scalar.value)


def test_reciprocal_center_undefined_where_range_ends_cancel():
    m = eval_ism(parse("x1-0.5", 1), Domain.of([(0.0, 1.0)], 4))[0]
    assert (m.range_bounds().lo, m.range_bounds().hi) == (-0.5, 0.5)
    with pytest.raises(DomainViolation, match="range endpoints cancel"):
        central_points(Atom.INV, m)


def test_log_remainder_needs_a_positive_range():
    m = eval_ism(parse("x1+x2", 2), UNIT)[0]
    assert m.range_bounds().lo == 0.0
    with pytest.raises(DomainViolation, match="log remainder needs a positive model range"):
        remainder_bound(Atom.LOG, m, central_points(Atom.LOG, m))


def test_piecewise_cell_disjoint_from_the_clip_is_a_soundness_violation():
    domain = Domain.of([(0.0, 1.0)], 2)
    m = SuperpositionModel(domain, [[[0.0, 5.0]], [[1.0, 6.0]]])
    img = sample_image(parse("x1", 1), domain.boxes, grid=3)
    assert img.per_axis_hull == (Interval(0.0, 1.0),)
    with pytest.raises(SoundnessViolation, match=r"cell \(1,\) box is disjoint from the clip on axis 0"):
        hausdorff_piecewise(img, [m], clip=[Interval(0.0, 1.0)])
