"""Layer microbenchmarks on fixed operands, for the traced run.

Each number is the median over repeats of the mean time per call, with the
call count per repeat chosen so one repeat lasts about 20 ms.  Model operands
live on the showcase domain [0,10] x [0,20] (n=2) with N=100 unless the name
says otherwise.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from isarith import bivariate, cli, expr, oracle, univariate
from isarith.interval import Interval
from isarith.univariate import Atom

from spans import Tracer, counting_tree, patched

SHOWCASE_BOX = "x1=[0,10];x2=[0,20]"
# oracle stages run on the recursion map over its domain, at a size that
# keeps the four stages near half a second together
ORACLE_BRANCHES = 10
ORACLE_GRID = 46
ORACLE_SCAN_BUDGET = 20_000

#: ROADMAP open item 1, "numbers to reproduce".  The ROADMAP does not give
#: its operands, so part of each difference is the choice of operand.
ROADMAP = {
    "interval.add_us": 2.2,
    "interval.mul_us": 10.5,
    "interval.inv_us": 22.8,
    "interval.exp_us": 2.6,
    "interval.sin_us": 4.9,
    "univariate.compose_ms.sin": 3.4,
    "bivariate.mul_models_ms": 6.1,
    "bivariate.add_models_ms": 0.38,
    "expr.eval_ism_ms.showcase_N10": 3.6,
    "expr.eval_ism_ms.showcase_N100": 22.8,
    "expr.eval_ism_ms.showcase_N1000": 247.0,
    "cli.run_compare_ms": 107.0,
}


def per_call(fn, repeats: int = 5, target: float = 0.02) -> float:
    """Median over repeats of seconds per call."""
    fn()
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        took = time.perf_counter() - start
        if took >= target:
            break
        number = max(number * 2, int(number * target / max(took, 1e-9)))
    samples = [took / number]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _model(text: str, branches: int = 100):
    domain = cli.parse_domain_spec(SHOWCASE_BOX, branches)
    return expr.eval_ism(expr.parse(text, 2), domain)[0]


def _interval_ops(out: dict) -> None:
    a, b, t = Interval(0.3, 1.7), Interval(0.5, 2.5), Interval(0.3, 1.2)
    ops = {
        "add": lambda: a + b,
        "mul": lambda: a * b,
        "inv": b.inv,
        "sqr": Interval(-0.4, 1.7).sqr,
        "exp": a.exp,
        "log": a.log,
        "sin": a.sin,
        "tan": t.tan,
    }
    for name, fn in ops.items():
        out[f"interval.{name}_us"] = (per_call(fn) * 1e6, "us")


def _model_rules(out: dict) -> None:
    inner = "sin(x1)+sin(x2)*cos(x2)"
    base = _model(inner)
    out["model.range_bounds_us.N100"] = (per_call(base.range_bounds) * 1e6, "us")
    out["model.range_bounds_us.N1000"] = (per_call(_model(inner, 1000).range_bounds) * 1e6, "us")
    out["model.evaluate_us"] = (per_call(lambda: base.evaluate((3.3, 7.7))) * 1e6, "us")

    positive = _model(f"2.5+{inner}")
    narrow = _model(f"0.3*({inner})")
    operand = {Atom.LOG: positive, Atom.INV: positive, Atom.TAN: narrow}
    for atom in (Atom.EXP, Atom.LOG, Atom.SIN, Atom.COS, Atom.TAN, Atom.INV, Atom.SQR):
        m = operand.get(atom, base)
        out[f"univariate.compose_ms.{atom.value}"] = (
            per_call(lambda: univariate.compose(atom, m)) * 1e3, "ms")

    left, right = _model("sin(x1)+0.05*x2"), _model("cos(x2)+0.1*x1")
    divisor = _model("2.5+cos(x2)+0.1*x1")
    out["bivariate.mul_models_ms"] = (per_call(lambda: bivariate.mul_models(left, right)) * 1e3, "ms")
    out["bivariate.add_models_ms"] = (per_call(lambda: bivariate.add_models(left, right)) * 1e3, "ms")
    out["bivariate.div_models_ms"] = (per_call(lambda: bivariate.div_models(left, divisor)) * 1e3, "ms")


def _expr_layer(out: dict) -> None:
    showcase = expr.parse(cli.SHOWCASE_EXPR, 2)
    for branches in (10, 100, 1000):
        domain = cli.parse_domain_spec(SHOWCASE_BOX, branches)
        out[f"expr.eval_ism_ms.showcase_N{branches}"] = (
            per_call(lambda: expr.eval_ism(showcase, domain), repeats=3) * 1e3, "ms")
    out["expr.parse_ms"] = (per_call(lambda: expr.parse_vector(cli.RECURSION_TEXTS, 3)) * 1e3, "ms")
    xs = np.random.default_rng(0).uniform((0.0, 0.0), (10.0, 20.0), size=(1 << 16, 2))
    out["expr.eval_points_ns_per_point"] = (per_call(lambda: expr.eval_points(showcase, xs)) / len(xs) * 1e9, "ns")
    recursion_map = expr.parse_vector(cli.RECURSION_TEXTS, 3)
    out["expr.self_compose_ms"] = (per_call(lambda: expr.self_compose(recursion_map, 8)) * 1e3, "ms")


def _oracle_stages(out: dict) -> None:
    recursion_map = expr.parse_vector(cli.RECURSION_TEXTS, 3)
    domain = cli.parse_domain_spec(cli.RECURSION_DOMAIN, ORACLE_BRANCHES)
    budget = ORACLE_GRID ** 3
    ia = expr.eval_interval(recursion_map, domain.boxes)
    models = expr.eval_ism(recursion_map, domain)

    def sample():
        return oracle.sample_image(recursion_map, domain.boxes, grid=ORACLE_GRID, budget=budget)

    img = sample()
    out["oracle.sample_image_ms"] = (per_call(sample, repeats=3) * 1e3, "ms")
    out["oracle.kd_tree_ms"] = (
        per_call(lambda: oracle.ImageSample(img.points, img.per_axis_hull).kd_tree(), repeats=3) * 1e3, "ms")
    img.kd_tree()
    out["oracle.hausdorff_enclosure_ms"] = (
        per_call(lambda: oracle.hausdorff_enclosure(img, ia, budget=ORACLE_SCAN_BUDGET), repeats=3) * 1e3, "ms")
    out["oracle.hausdorff_piecewise_ms"] = (
        per_call(lambda: oracle.hausdorff_piecewise(img, models, clip=ia, budget=ORACLE_SCAN_BUDGET),
                 repeats=3) * 1e3, "ms")

    counter = Tracer()
    with patched([(oracle, "cKDTree", counting_tree(counter))]):
        fresh = oracle.ImageSample(img.points, img.per_axis_hull)
        oracle.hausdorff_enclosure(fresh, ia, budget=ORACLE_SCAN_BUDGET)
        oracle.hausdorff_piecewise(fresh, models, clip=ia, budget=ORACLE_SCAN_BUDGET)
    out["oracle.scan_points"] = (counter.points_queried, "count")
    out["oracle.piecewise_cells"] = (domain.branches ** domain.dim, "count")


def _cli_layer(out: dict, seed: int) -> None:
    cfg = cli.RunConfig(expr=cli.SHOWCASE_EXPR, domain=SHOWCASE_BOX, branches=100,
                        grid=10**6, seed=seed, out=None, depth=1)
    out["cli.run_compare_ms"] = (per_call(lambda: cli.run_compare(cfg), repeats=3) * 1e3, "ms")


def measure(seed: int) -> dict[str, tuple[float, str]]:
    """Every layer microbenchmark, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    _interval_ops(out)
    _model_rules(out)
    _expr_layer(out)
    _oracle_stages(out)
    _cli_layer(out, seed)
    return out


def roadmap_lines(measured: dict[str, tuple[float, str]]) -> list[str]:
    """The measured layer numbers next to the ROADMAP's, with the difference."""
    lines = []
    for name, ref in ROADMAP.items():
        value, unit = measured[name]
        lines.append(f"{name:36s} {value:10.3f} {unit:3s} roadmap {ref:8.3f}  {100 * (value / ref - 1):+6.1f}%")
    return lines
