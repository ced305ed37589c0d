"""Parser, DAG structure, and the three evaluators."""

import math

import numpy as np
import pytest

from isarith.expr import (
    ArityError,
    Expr,
    ParseError,
    ShapeMismatch,
    UnknownIdentifier,
    eval_interval,
    eval_ism,
    eval_point,
    eval_points,
    parse,
    parse_vector,
    self_compose,
    to_text,
)
from isarith.interval import DomainViolation, Interval
from isarith.model import Domain

F1_TEXTS = (
    "0.1*(exp(-sin(4*x1)+x2-x2^2-x1^2)-1)",
    "0.1*cos(10*x2+0.2*tan(0.2*x3))-0.4*x2^2",
    "0.01*sin(cos(x3))",
)


def node_kinds(e: Expr):
    return [n[0] for n in e.nodes]


class TestParse:
    def test_showcase_shape(self):
        e = parse("exp(sin(x1)+sin(x2)*cos(x2))", arity=2)
        root = e.nodes[e.outputs[0]]
        assert root[:2] == ("un", "exp")
        add = e.nodes[root[2]]
        assert add[:2] == ("bin", "add")
        assert e.nodes[add[2]][:2] == ("un", "sin")
        mul = e.nodes[add[3]]
        assert mul[:2] == ("bin", "mul")

    def test_shared_subexpression(self):
        e = parse("x1 - x1", arity=1)
        root = e.nodes[e.outputs[0]]
        assert root[0] == "bin" and root[1] == "sub"
        assert root[2] == root[3]  # one shared variable node
        assert node_kinds(e).count("var") == 1

    def test_sin_x2_shared_across_sum_and_product(self):
        e = parse("sin(x2)+sin(x2)*cos(x2)", arity=2)
        assert node_kinds(e).count("un") == 2  # sin(x2) interned once

    def test_scaled_tangent(self):
        e = parse("tan(0.2*x3)", arity=3)
        root = e.nodes[e.outputs[0]]
        assert root[:2] == ("un", "tan")
        inner = e.nodes[root[2]]
        assert inner[:2] == ("bin", "mul")

    def test_constants_fold(self):
        e = parse("2*3+1", arity=0)
        assert e.nodes == (("const", 7.0),)
        e = parse("exp(0)", arity=1)
        assert e.nodes[e.outputs[0]] == ("const", 1.0)
        e = parse("pi-pi", arity=0)
        assert e.nodes[e.outputs[0]] == ("const", 0.0)

    def test_power_rules(self):
        e = parse("x1^3", arity=1)
        assert e.nodes[e.outputs[0]][:2] == ("pow", 3)
        assert parse("x1^1", arity=1).nodes[-1] == ("var", 0)
        with pytest.raises(ParseError):
            parse("x1^0", arity=1)
        with pytest.raises(ParseError):
            parse("x1^2.5", arity=1)
        with pytest.raises(ParseError):
            parse("x1^x1", arity=1)

    def test_unary_minus(self):
        e = parse("-x1", arity=1)
        assert e.nodes[e.outputs[0]][:2] == ("un", "neg")
        assert parse("-3.5", arity=0).nodes == (("const", -3.5),)

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + @", arity=1)
        assert err.value.position == 5
        with pytest.raises(UnknownIdentifier):
            parse("x1 + foo(x1)", arity=1)
        with pytest.raises(ParseError):
            parse("sin x1", arity=1)
        with pytest.raises(ParseError):
            parse("(x1", arity=1)
        with pytest.raises(ParseError):
            parse("x1 x1", arity=1)

    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            parse("x3", arity=2)
        with pytest.raises(ArityError):
            parse("x0", arity=2)

    def test_vector_outputs_share_nodes(self):
        e = parse_vector(["x1+x2", "x1*x2"], arity=2)
        assert e.n_outputs == 2
        assert node_kinds(e).count("var") == 2

    def test_roundtrip_through_text(self):
        samples = [
            ("exp(sin(x1)+sin(x2)*cos(x2))", 2),
            ("x1 - x1", 1),
            ("-x1*(x2-0.5)^2/(x1+2)", 2),
            ("cot(sqrt(x1)+1)-inv(x2)", 2),
            ("sqr(x1)^2", 1),
        ] + [(t, 3) for t in F1_TEXTS]
        for text, arity in samples:
            e = parse(text, arity)
            assert parse(to_text(e), arity) == e


class TestDeepDag:
    def test_long_sum_models_and_renders(self):
        # 3000 terms, 8999 nodes: far deeper than the interpreter's recursion limit
        text = "sin(x1)+" + "+".join(f"x1*{k}" for k in range(1, 3000))
        e = parse(text, 1)
        assert len(e.nodes) == 8999
        d = Domain.of([(0.0, 1.0)], branches=2)
        rb = eval_ism(e, d)[0].range_bounds()
        assert rb.lo <= 0.0 and rb.hi >= math.sin(1.0) + 2999 * 3000 / 2
        assert parse(to_text(e), 1).nodes == e.nodes


class TestEvalPoint:
    def test_basic(self):
        assert eval_point(parse("x1+x2", 2), (1.0, 2.0)) == (3.0,)

    def test_showcase_at_origin(self):
        e = parse("exp(sin(x1)+sin(x2)*cos(x2))", 2)
        assert eval_point(e, (0.0, 0.0)) == (1.0,)

    def test_recursion_map_at_origin(self):
        e = parse_vector(F1_TEXTS, 3)
        got = eval_point(e, (0.0, 0.0, 0.0))
        assert got[0] == 0.0
        assert got[1] == pytest.approx(0.1, abs=1e-15)
        assert got[2] == pytest.approx(0.01 * math.sin(1.0), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainViolation):
            eval_point(parse("log(x1)", 1), (-1.0,))
        with pytest.raises(DomainViolation):
            eval_point(parse("x1/x2", 2), (1.0, 0.0))

    def test_vectorized_agrees_with_scalar(self):
        e = parse_vector(F1_TEXTS, 3)
        rng = np.random.default_rng(41)
        xs = rng.uniform(-0.7, 0.7, size=(200, 3))
        batch = eval_points(e, xs)
        for row, x in zip(batch, xs):
            single = eval_point(e, tuple(x))
            assert np.allclose(row, single, rtol=1e-13, atol=1e-15)


class TestEvalInterval:
    def test_dependency_problem_shows(self):
        got = eval_interval(parse("x1 - x1", 1), [Interval(0, 1)])[0]
        assert got == Interval(-1, 1)

    def test_exp_monotone_tight(self):
        got = eval_interval(parse("exp(x1)", 1), [Interval(0, 1)])[0]
        assert got.lo <= 1.0 <= got.lo + 1e-12
        assert math.e <= got.hi <= math.e + 1e-12

    def test_grid_containment(self):
        e = parse("exp(sin(x1)+sin(x2)*cos(x2))", 2)
        box = [Interval(0.0, 0.1), Interval(0.0, 0.1)]
        enc = eval_interval(e, box)[0]
        for u in np.linspace(0, 0.1, 20):
            for v in np.linspace(0, 0.1, 20):
                assert enc.contains(eval_point(e, (u, v))[0])

    def test_derived_unaries(self):
        got = eval_interval(parse("sqrt(x1)", 1), [Interval(4.0, 9.0)])[0]
        assert got.lo <= 2.0 and got.hi >= 3.0
        assert got.lo > 1.99 and got.hi < 3.01
        got = eval_interval(parse("cot(x1)", 1), [Interval(0.5, 1.0)])[0]
        assert got.contains(1 / math.tan(0.7))


class TestEvalIsm:
    def test_variable_leaf(self):
        d = Domain.of([(0, 1)], branches=2)
        m = eval_ism(parse("x1", 1), d)[0]
        assert m.row(0) == (Interval(0, 0.5), Interval(0.5, 1))
        assert m.support == frozenset({0})

    def test_separable_sum_diameter_shrinks_with_branching(self):
        e = parse("sin(x1)+sin(x2)", 2)
        diams = []
        for cap in (8, 16, 32):
            d = Domain.of([(0, 2 * math.pi)] * 2, branches=cap)
            m = eval_ism(e, d)[0]
            worst = sum(max(en.diam for en in row) for row in m.coeffs)
            diams.append(worst)
        assert diams[0] > diams[1] > diams[2]
        assert diams[0] / diams[2] > 3.0  # roughly linear in 1/N

    def test_constant_dispatch_routes_exactly(self):
        d = Domain.of([(1.0, 2.0)], branches=3)
        rb = eval_ism(parse("3*x1+1", 1), d)[0].range_bounds()
        assert rb.lo == pytest.approx(4.0, abs=1e-12)
        assert rb.hi == pytest.approx(7.0, abs=1e-12)
        rb = eval_ism(parse("x1/4", 1), d)[0].range_bounds()
        assert rb.lo == pytest.approx(0.25, abs=1e-12)
        assert rb.hi == pytest.approx(0.5, abs=1e-12)
        rb = eval_ism(parse("2/x1", 1), d)[0].range_bounds()
        assert rb.lo <= 1.0 <= 2.0 <= rb.hi

    def test_domain_violation_carries_node_id(self):
        d = Domain.of([(-1.0, 1.0)], branches=2)
        with pytest.raises(DomainViolation) as err:
            eval_ism(parse("log(x1)", 1), d)
        assert "node" in str(err.value)

    def test_memoization_transparency(self):
        e = parse("(x1+x2)*(x1+x2)+sin(x1+x2)", 2)
        d = Domain.of([(0, 1), (0, 1)], branches=3)
        with_memo = eval_ism(e, d, memoize=True)[0].range_bounds()
        without = eval_ism(e, d, memoize=False)[0].range_bounds()
        assert (with_memo.lo, with_memo.hi) == (without.lo, without.hi)

    def test_point_membership_consistency(self):
        e = parse("exp(sin(x1)+sin(x2)*cos(x2))", 2)
        d = Domain.of([(0, 3), (0, 4)], branches=6)
        m = eval_ism(e, d)[0]
        box = list(d.boxes)
        enc = eval_interval(e, box)[0]
        rng = np.random.default_rng(43)
        for _ in range(500):
            x = (rng.uniform(0, 3), rng.uniform(0, 4))
            v = eval_point(e, x)[0]
            assert enc.contains(v)
            assert m.evaluate(x).contains(v)


class TestSelfCompose:
    def test_identity_at_depth_one(self):
        e = parse_vector(F1_TEXTS, 3)
        assert self_compose(e, 1) == e

    def test_matches_sequential_application(self):
        e = parse_vector(F1_TEXTS, 3)
        e2 = self_compose(e, 2)
        rng = np.random.default_rng(47)
        for _ in range(100):
            x = tuple(rng.uniform(-0.7, 0.7, size=3))
            once = eval_point(e, x)
            twice = eval_point(e, once)
            got = eval_point(e2, x)
            assert np.allclose(got, twice, rtol=1e-12, atol=1e-15)

    def test_linear_node_growth(self):
        e = parse_vector(F1_TEXTS, 3)
        base = len(e.nodes)
        step = len(self_compose(e, 2).nodes) - base
        e8 = self_compose(e, 8)
        assert len(e8.nodes) == base + 7 * step  # same body re-added per stage
        assert len(e8.nodes) <= 8 * base

    def test_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            self_compose(parse("x1+x2", 2), 2)
