"""Parser, DAG structure, and the three evaluators."""

import math
import warnings

import numpy as np
import pytest

import reference
from conftest import coeffs, is_separable, row

from isarith import cli
from isarith.bivariate import product_workspace
from isarith.expr import (
    _SLAB,
    MAX_NESTING,
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
from isarith.interval import DomainViolation, Interval, ZeroInDomain
from isarith.model import Domain
from isarith.univariate import Atom, RemainderUnbounded, central_points, remainder_bound

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

    def test_nesting_limit(self):
        for wrap in (lambda t: f"({t})", lambda t: f"-({t})", lambda t: f"sin({t})"):
            text = "x1"
            for _ in range(MAX_NESTING):
                text = wrap(text)
            assert parse(text, arity=1).arity == 1
            with pytest.raises(ParseError, match="nested deeper"):
                parse(wrap(text), arity=1)
        with pytest.raises(ParseError, match="nested deeper"):
            parse("(" * (MAX_NESTING + 1), arity=1)

    def test_unary_minuses_do_not_nest(self):
        # minuses bind looser than ^ however many there are
        assert eval_point(parse("-" * 5001 + "x1^2", arity=1), [3.0]) == (-9.0,)
        assert eval_point(parse("--x1^2", arity=1), [3.0]) == (9.0,)

    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            parse("x3", arity=2)
        with pytest.raises(ArityError):
            parse("x0", arity=2)
        e = parse("x1+x2", arity=2)
        with pytest.raises(ArityError):
            eval_points(e, np.zeros((4, 3)))
        with pytest.raises(ArityError):
            eval_points(e, (np.zeros(4),))

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

    @pytest.mark.parametrize("text, x", [("exp(x1)", 1000.0), ("x1^2", 1e300), ("x1*x1", 1e300)])
    def test_overflow_is_one_typed_error_without_warnings(self, text, x):
        # math.exp and the float ** raise messages of their own, and numpy
        # warns before the finite check sees its value
        e = parse(text, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate, point in ((eval_point, [x]), (eval_points, np.array([[x]])),
                                    (eval_points, (np.array([x]),))):
                with pytest.raises(OverflowError, match="^intermediate value overflowed$"):
                    evaluate(e, point)

    def test_vectorized_agrees_with_scalar(self):
        e = parse_vector(F1_TEXTS, 3)
        rng = np.random.default_rng(41)
        xs = rng.uniform(-0.7, 0.7, size=(200, 3))
        batch = eval_points(e, xs)
        for row, x in zip(batch, xs):
            single = eval_point(e, tuple(x))
            assert np.allclose(row, single, rtol=1e-13, atol=1e-15)



def _open_grid(box, k):
    """One coordinate array per axis of the k-per-axis lattice over the box,
    first axis slowest, as sample_image builds it."""
    return tuple(np.meshgrid(*(np.linspace(lo, hi, k) for lo, hi in box), indexing="ij", sparse=True))


class TestSlabs:
    """eval_points walks the lattice slab by slab into one output array; its
    values, shapes and errors must be those of one walk over the whole
    lattice (reference.eval_points), byte for byte."""

    @pytest.mark.parametrize("texts, box, k", [
        ([cli.SHOWCASE_EXPR], [(0.0, 1.0), (0.0, 5.0)], 1000),
        # outputs that read a subset of the axes
        (["x2", "sin(x1)", "x1*x3"], [(-1.0, 1.0), (0.0, 2.0), (3.0, 4.0)], 60),
        (["x1", "2.5"], [(0.0, 1.0)] * 2, 400),  # a constant output
        ([cli.SHOWCASE_EXPR], [(0.0, 1.0), (0.7, 0.7)], 400),  # a zero-width axis
        (["exp(x1)"], [(0.0, 1.0)], 3 * _SLAB + 5),
    ])
    def test_open_grid_matches_one_walk(self, texts, box, k):
        e = parse_vector(texts, len(box))
        xs = _open_grid(box, k)
        assert k ** len(box) > 2 * _SLAB
        got, want = eval_points(e, xs), reference.eval_points(e, xs)
        assert got.shape == want.shape == (k ** len(box), len(texts))
        assert got.tobytes() == want.tobytes()

    def test_recursion_map_at_depth_three(self):
        e = self_compose(parse_vector(cli.RECURSION_TEXTS, 3), 3)
        box = [(b.lo, b.hi) for b in cli.parse_domain_spec(cli.RECURSION_DOMAIN, 1).boxes]
        xs = _open_grid(box, 46)  # the bench pass's 10^5-point lattice
        got, want = eval_points(e, xs), reference.eval_points(e, xs)
        assert got.shape == want.shape == (46**3, 3) and got.tobytes() == want.tobytes()

    def test_dense_points_off_the_slab_multiple(self):
        e = parse_vector(F1_TEXTS, 3)
        xs = np.random.default_rng(43).uniform(-0.7, 0.7, size=(3 * _SLAB + 123, 3))
        got, want = eval_points(e, xs), reference.eval_points(e, xs)
        assert got.shape == want.shape == (len(xs), 3) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("texts, xs", [
        (["x1*x2", "sin(x2)", "3.0"], np.zeros((0, 2))),
        (["x1*x2", "sin(x2)", "3.0"], (np.zeros((0, 1)), np.ones((1, 5)))),
        (["x1*x2", "sin(x2)", "3.0"], (np.ones((5, 1)), np.zeros((1, 0)))),
        (["x1*x2", "sin(x2)", "3.0"], (np.float64(0.25), np.float64(0.5))),
        (["x1*x2", "sin(x2)", "3.0"], (np.float64(0.25), np.linspace(0.0, 1.0, 7))),
        # a row wider than a slab: one row at a time
        (["x1*x2", "sin(x2)", "3.0"], (np.linspace(0.0, 1.0, 3)[:, None], np.linspace(0.0, 1.0, _SLAB + 9))),
        (["2.5", "-1.0"], ()),
    ])
    def test_empty_zero_dimensional_and_wide_rows(self, texts, xs):
        e = parse_vector(texts, len(xs) if isinstance(xs, tuple) else xs.shape[1])
        got, want = eval_points(e, xs), reference.eval_points(e, xs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_error_is_the_earliest_failing_node_over_all_points(self):
        # exp (node 3) overflows past x1 = 0.7098 only; the first slab, all
        # below 0.5, fails later at log (node 6)
        e = parse("exp(1000*x1) + log(x1-0.5)", 1)
        x1 = np.linspace(0.0, 1.0, 3 * _SLAB)
        with np.errstate(over="ignore"):
            with pytest.raises(DomainViolation, match=r"^node 6 \(un\): log"):
                eval_points(e, (x1[:_SLAB],))
            for xs in ((x1,), x1[:, None]):
                with pytest.raises(OverflowError, match="^intermediate value overflowed$"):
                    reference.eval_points(e, xs)
                with pytest.raises(OverflowError, match="^intermediate value overflowed$"):
                    eval_points(e, xs)


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
        assert row(m, 0) == (Interval(0, 0.5), Interval(0.5, 1))
        assert m.const == Interval(0, 0)

    def test_separable_sum_diameter_shrinks_with_branching(self):
        e = parse("sin(x1)+sin(x2)", 2)
        diams = []
        for cap in (8, 16, 32):
            d = Domain.of([(0, 2 * math.pi)] * 2, branches=cap)
            m = eval_ism(e, d)[0]
            worst = sum(max(en.diam for en in row) for row in coeffs(m))
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

    def test_inv_of_negative_range_matches_reciprocal(self):
        d = Domain.of([(-3.0, -1.0)], branches=4)
        inv = eval_ism(parse("inv(x1)", 1), d)[0].range_bounds()
        recip = eval_ism(parse("1/x1", 1), d)[0].range_bounds()
        assert (inv.lo, inv.hi) == (recip.lo, recip.hi)
        assert inv.lo <= -1.0 and -1.0 / 3.0 <= inv.hi

    def test_separable_chain_keeps_exact_zero_remainders(self):
        d = Domain.of([(0, 10), (0, 20)], branches=100)
        sin2, cos2, prod = eval_ism(parse_vector(["sin(x2)", "cos(x2)", "sin(x2)*cos(x2)"], 2), d)
        assert is_separable(sin2)
        assert product_workspace(sin2, cos2).remainder == 0.0
        assert remainder_bound(Atom.EXP, prod, central_points(Atom.EXP, prod)) == 0.0

    def test_domain_violation_carries_node_id(self):
        d = Domain.of([(-1.0, 1.0)], branches=2)
        with pytest.raises(DomainViolation) as err:
            eval_ism(parse("log(x1)", 1), d)
        assert "node" in str(err.value)

    @pytest.mark.parametrize("text,box,evaluate,error", [
        ("1/x1", [(-1.0, 1.0)], eval_ism, ZeroInDomain),
        ("1/x1", [(-1.0, 1.0)], lambda e, d: eval_interval(e, d.boxes), ZeroInDomain),
    ], ids=["ism-reciprocal", "interval-reciprocal"])
    def test_domain_error_keeps_its_class_and_names_its_node(self, text, box, evaluate, error):
        e = parse(text, len(box))
        with pytest.raises(DomainViolation) as err:
            evaluate(e, Domain.of(box, 4))
        assert type(err.value) is error
        assert type(err.value.__cause__) is error
        assert str(err.value).startswith("node ")
        assert str(err.value).endswith(str(err.value.__cause__))

    def test_log_too_wide_for_its_remainder_is_the_constant_model_of_the_range(self):
        # the log remainder formula has no finite bound here, so the log
        # node's model is log over the whole argument range, in its constant
        d = Domain.of([(1e-9, 1.0)] * 2, 4)
        (arg,) = eval_ism(parse("x1+x2", 2), d)
        with pytest.raises(RemainderUnbounded):
            remainder_bound(Atom.LOG, arg, central_points(Atom.LOG, arg))
        (m,) = eval_ism(parse("log(x1+x2)", 2), d)
        assert not m.bounds.any()
        rb = arg.range_bounds()
        assert m.const == Interval(rb.lo, rb.hi).log()

    def test_memoization_transparency(self):
        # the shared DAG against a hand-built one that repeats x1+x2 as
        # separate nodes, each evaluated on its own
        e = parse("(x1+x2)*(x1+x2)+sin(x1+x2)", 2)
        s = ("bin", "add", 0, 1)
        nodes = (("var", 0), ("var", 1), s, s, ("bin", "mul", 2, 3), s, ("un", "sin", 5))
        repeated = Expr(nodes + (("bin", "add", 4, 6),), (7,), 2)
        assert len(e.nodes) < len(repeated.nodes)
        d = Domain.of([(0, 1), (0, 1)], branches=3)
        with_memo = eval_ism(e, d)[0].range_bounds()
        without = eval_ism(repeated, d)[0].range_bounds()
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
