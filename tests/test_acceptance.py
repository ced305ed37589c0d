"""Acceptance suite: the shipped guarantees, each measured at its tolerance.

Every test prints one line with the measured quantities, so running

    pytest tests/test_acceptance.py -v -s

produces a full scorecard.  Budgets and tolerances are pinned here, not
calibrated elsewhere.
"""

import math
import operator
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import (
    admissible_offsets,
    coeffs,
    defect_values,
    mid,
    random_model_for_atom,
    random_separable_model,
)
from isarith.bivariate import product_workspace
from isarith.cli import (
    RECURSION_DOMAIN,
    RECURSION_TEXTS,
    RunConfig,
    parse_domain_spec,
    run_compare,
    run_recursion,
    run_sweep,
)
from isarith.expr import _walk, eval_interval, eval_ism, eval_points, parse, parse_vector, to_text
from isarith.interval import DomainViolation, Interval
from isarith.model import Domain
from isarith.oracle import hausdorff_enclosure, hausdorff_piecewise, sample_image
from isarith.univariate import Atom, central_points, remainder_bound
from reference import brute_force_range, remainder_violation_search

SHOWCASE = "exp(sin(x1)+sin(x2)*cos(x2))"
SEED = 20260808


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_c1_showcase_width_ratio():
    # wide-domain headline: enclosure width vs dense-grid range width
    start = time.perf_counter()
    cfg = RunConfig(expr=SHOWCASE, domain="x1=[0,10];x2=[0,20]", branches=100,
                    grid=10**6, seed=SEED, out=None, depth=1)
    row = run_compare(cfg)
    ratio = (row["isa_hi"] - row["isa_lo"]) / (row["oracle_hi"] - row["oracle_lo"])
    elapsed = time.perf_counter() - start
    ok = 1.45 <= ratio <= 1.80 and elapsed < 60.0
    _report("criterion 1", ok, f"width ratio {ratio:.4f} in [1.45, 1.80], {elapsed:.1f}s")
    assert 1.45 <= ratio <= 1.80
    assert elapsed < 60.0


def test_c2_sweep_monotone_in_branch_count(tmp_path):
    # refining the branching never worsens the sweep overestimation
    start = time.perf_counter()
    paths = run_sweep(str(tmp_path), points=40, grid_budget=10**6, seed=SEED)
    violations = 0
    rows_seen = 0
    import csv

    for p in paths:
        lines = [l for l in p.read_text().splitlines() if not l.startswith("#")]
        for row in csv.DictReader(lines):
            rows_seen += 1
            d1, d10, d100 = (float(row[k]) for k in ("dH_isa_N1", "dH_isa_N10", "dH_isa_N100"))
            if not (d100 <= d10 + 1e-12 and d10 <= d1 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and rows_seen == 120 and elapsed < 300.0
    _report("criterion 2", ok,
            f"{rows_seen} sweep points, {violations} monotonicity violations, {elapsed:.1f}s")
    assert violations == 0 and rows_seen == 120
    assert elapsed < 300.0


@pytest.mark.slow
def test_c3_recursion_dominates_baseline():
    # iterated map: piecewise enclosure beats the plain interval chain
    start = time.perf_counter()
    rows = run_recursion(depth=8, branches=20, grid_budget=10**6, seed=SEED)
    d_isa = {r[0]: r[1] for r in rows}
    d_ia = {r[0]: r[2] for r in rows}
    dominated = all(d_isa[k] <= d_ia[k] for k in range(2, 9))
    contracted = d_isa[8] < d_isa[1]
    elapsed = time.perf_counter() - start
    ok = dominated and contracted and elapsed < 180.0
    _report("criterion 3", ok,
            f"dH_isa(2..8) <= dH_ia: {dominated}, dH_isa(8)={d_isa[8]:.3g} < "
            f"dH_isa(1)={d_isa[1]:.3g}: {contracted}, {elapsed:.1f}s")
    assert dominated and contracted
    assert elapsed < 180.0


# ----------------------------------------------------------------------
# criterion 4: randomized expression soundness
# ----------------------------------------------------------------------

_UNARIES = ("neg", "sqr", "inv", "exp", "log", "sin", "cos", "tan", "sqrt", "cot")
_BINARIES = ("+", "-", "*", "/")


class _ExprGen:
    """Seeded generator of domain-safe expressions over a fixed box."""

    def __init__(self, rng, arity, box):
        self.rng = rng
        self.arity = arity
        self.box = box

    def range_of(self, text):
        return eval_interval(parse(text, self.arity), self.box)[0]

    def fit(self, text, lo, hi):
        """Scale then shift the subexpression so its interval range lands
        inside [lo, hi] with margin."""
        r = self.range_of(text)
        span = hi - lo
        if r.diam > 0.8 * span:
            s = round(0.7 * span / r.diam, 6)
            text = f"({text})*{s}"
            r = self.range_of(text)
        mid_target = lo + 0.5 * span
        shift = round(mid_target - (r.lo + 0.5 * r.diam), 6)
        if shift > 0:
            text = f"({text}+{shift})"
        elif shift < 0:
            text = f"({text}-{-shift})"
        return text

    def leaf(self):
        if self.rng.random() < 0.7:
            return f"x{int(self.rng.integers(1, self.arity + 1))}"
        return repr(round(float(self.rng.uniform(-2.0, 2.0)), 3))

    def build(self, depth, force=None):
        if depth == 0:
            return self.leaf()
        op = force if force is not None else self._pick()
        if op == "pow":
            child = self.fit(self.build(depth - 1), -1.6, 1.6)
            k = int(self.rng.integers(2, 5))
            return f"({child})^{k}"
        if op in _BINARIES:
            left = self.build(depth - 1)
            right = self.build(depth - 1)
            if op == "/":
                right = self._offzero(right)
            left = self.fit(left, -4.0, 4.0)
            return f"({left}{op}{right})"
        child = self.build(depth - 1)
        if op in ("log", "sqrt"):
            child = self.fit(child, 0.7, 4.0)
        elif op == "inv":
            child = self._offzero(child)
        elif op == "exp":
            child = self.fit(child, -3.0, 2.2)
        elif op == "tan":
            child = self.fit(child, -0.6, 0.6)
        elif op == "cot":
            child = self.fit(child, 0.5, 1.1)
        else:
            child = self.fit(child, -4.0, 4.0)
        if op == "neg":
            return f"(-({child}))"
        return f"{op}({child})"

    def _offzero(self, text):
        if self.rng.random() < 0.5:
            return self.fit(text, 0.6, 3.0)
        return self.fit(text, -3.0, -0.6)

    def _pick(self):
        roll = self.rng.random()
        if roll < 0.45:
            return _BINARIES[int(self.rng.integers(0, 4))]
        if roll < 0.9:
            return _UNARIES[int(self.rng.integers(0, len(_UNARIES)))]
        return "pow"


def _coverage(e):
    seen = set()
    for node in e.nodes:
        if node[0] == "un":
            seen.add(node[1])
        elif node[0] == "pow":
            seen.add("pow")
        elif node[0] == "bin":
            seen.add(node[1])
    return seen


def _random_cases(rng, count, points):
    """c4's cases: `count` random expressions that eval_ism accepts, each as
    (expression, model, points uniform in its box)."""
    root_bag = list(_UNARIES) + list(_BINARIES) + ["pow"]
    expressions = 0
    attempts = 0
    while expressions < count:
        attempts += 1
        assert attempts < 6000, "expression generator stalled"
        arity = int(rng.integers(1, 4))
        lows = rng.uniform(-2.0, 1.0, size=arity)
        widths = rng.uniform(0.5, 2.5, size=arity)
        box = [Interval(float(a), float(a + w)) for a, w in zip(lows, widths)]
        gen = _ExprGen(rng, arity, box)
        depth = 1 + expressions % 6
        root = root_bag[expressions % len(root_bag)]
        try:
            text = gen.build(depth, force=root)
            e = parse(text, arity)
            domain = Domain.of(box, int(rng.integers(1, 5)))
            model = eval_ism(e, domain)[0]
        except (DomainViolation, OverflowError):
            continue
        expressions += 1
        lo = np.array([b.lo for b in box])
        hi = np.array([b.hi for b in box])
        yield e, model, rng.uniform(lo, hi, size=(points, arity))


def test_c4_random_expression_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    violations = 0
    covered = set()
    expressions = 0
    for e, model, xs in _random_cases(rng, 300, 340):
        expressions += 1
        covered |= _coverage(e)
        vals = eval_points(e, xs)[:, 0]
        for x, v in zip(xs, vals):
            checked += 1
            if not model.evaluate(tuple(x)).contains(float(v)):
                violations += 1
    elapsed = time.perf_counter() - start
    want = set(_UNARIES) | {"add", "sub", "mul", "div", "pow"}
    ok = violations == 0 and checked >= 100_000 and want <= covered
    _report("criterion 4", ok,
            f"{checked} point checks over {expressions} expressions, "
            f"{violations} violations, coverage {len(covered & want)}/{len(want)}, {elapsed:.1f}s")
    assert violations == 0
    assert checked >= 100_000
    assert want <= covered, want - covered


_EXACT_OPS = {
    "neg": operator.neg, "sqr": lambda a: a * a, "inv": lambda a: 1 / a,
    "exp": mpmath.exp, "log": mpmath.log, "sin": mpmath.sin, "cos": mpmath.cos,
    "tan": mpmath.tan, "cot": mpmath.cot, "sqrt": mpmath.sqrt,
    "add": operator.add, "sub": operator.sub, "mul": operator.mul, "div": operator.truediv,
}


def _exact_value(e, x):
    """The expression's first output at the point x, at the working precision
    of mpmath; the float constants and coordinates enter exactly."""
    op = lambda kind, param, *args: args[0] ** param if kind == "pow" else _EXACT_OPS[param](*args)
    v = _walk(e, lambda i: mpmath.mpf(x[i]), mpmath.mpf, op)[0]
    man, exp = v.man_exp  # man is |mantissa|
    return int(mpmath.sign(v)) * Fraction(man) * Fraction(2) ** exp


def test_c4_pointwise_soundness_in_exact_arithmetic():
    # c4's first 30 expressions and their points, each value taken at 50
    # digits instead of in float64 and compared with the enclosure endpoints
    # as Fractions
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    checked = 0
    violations = []
    with mpmath.workdps(50):
        for e, model, xs in _random_cases(rng, 30, 340):
            for x in xs.tolist():
                checked += 1
                enc = model.evaluate(x)
                if not Fraction(enc.lo) <= _exact_value(e, x) <= Fraction(enc.hi):
                    violations.append((to_text(e), x))
    elapsed = time.perf_counter() - start
    ok = not violations and checked >= 10_000
    _report("criterion 4, exact", ok,
            f"{checked} points over 30 expressions at 50 digits, "
            f"{len(violations)} violations, {elapsed:.1f}s")
    assert not violations, violations[:5]
    assert checked >= 10_000


def test_c5_remainder_bounds_hold_under_search():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = -math.inf
    for atom in Atom:
        for trial in range(100):
            m = random_model_for_atom(rng, atom, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            gap = remainder_violation_search(atom, m, trials=10_000, seed=SEED + trial)
            worst = max(worst, gap)
            assert gap <= 0.0, (atom, trial, gap)
    # exact zero on separable inputs, for every atom
    exact_univariate = True
    for atom in Atom:
        for _ in range(25):
            m = random_separable_model(rng, atom, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
            w = central_points(atom, m)
            exact_univariate &= remainder_bound(atom, m, w) == 0.0
    # exact zero for products separable in a common row
    exact_product = True
    for _ in range(25):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(0, n))
        a = random_separable_model(rng, Atom.SQR, n, 2, wide_row=k)
        b = random_separable_model(rng, Atom.SQR, n, 2, wide_row=k)
        exact_product &= product_workspace(a, b).remainder == 0.0
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and exact_univariate and exact_product
    _report("criterion 5", ok,
            f"800 models x 10^4 draws, worst gap {worst:.3g}, separable exact: "
            f"{exact_univariate}, aligned products exact: {exact_product}, {elapsed:.1f}s")
    assert exact_univariate and exact_product


def test_c5_worst_draws_hold_in_exact_arithmetic():
    # c5's first 30 models per atom and the offsets remainder_violation_search
    # draws for them (same generators, same seeds): the 20 draws with the
    # largest float64 defects, recomputed at 40 digits with no resolution
    # discount, stay within the remainder bound
    exact = {Atom.NEG: lambda x: -x, Atom.SQR: lambda x: x * x, Atom.INV: lambda x: 1 / x}
    start = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = {}
    with mpmath.workdps(40):
        for atom in Atom:
            g = exact.get(atom) or getattr(mpmath, atom.value)
            models = [random_model_for_atom(rng, atom, int(rng.integers(2, 5)), int(rng.integers(1, 4)))
                      for _ in range(100)]
            for trial, m in enumerate(models[:30]):
                w = central_points(atom, m)
                r = remainder_bound(atom, m, w)
                deltas = admissible_offsets(m, w.centers, np.random.default_rng(SEED + trial), 10_000)
                omega = mid(w.omega)
                defects = defect_values(atom, omega, deltas)
                om = mpmath.mpf(omega)
                for d in deltas[np.argsort(defects)[-20:]]:
                    ds = [mpmath.mpf(float(x)) for x in d]
                    defect = abs(mpmath.fsum(g(om + x) for x in ds) - (m.dim - 1) * g(om)
                                 - g(om + mpmath.fsum(ds)))
                    worst[atom] = max(worst.get(atom, -math.inf), float(defect - r))
    elapsed = time.perf_counter() - start
    ok = all(gap <= 0.0 for gap in worst.values())
    _report("criterion 5, exact", ok,
            "240 models x 20 worst draws at 40 digits, worst gap per atom "
            + ", ".join(f"{a.value} {gap:.3g}" for a, gap in worst.items()) + f", {elapsed:.1f}s")
    assert ok, worst


def test_c6_range_bounder_matches_brute_force():
    rng = np.random.default_rng(SEED + 2)
    worst_ulps = 0
    for _ in range(500):
        m = random_model_for_atom(rng, Atom.SQR, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        rb = m.range_bounds()
        lo, hi = brute_force_range(m)
        for a, b in ((lo, rb.lo), (hi, rb.hi)):
            if a != b:
                assert abs(a - b) <= math.ulp(max(abs(a), abs(b))), (a, b)
                worst_ulps = 1
    _report("criterion 6", True, f"500 models, max endpoint gap {worst_ulps} ulp")


def test_c7_product_remainder_quarter_cap():
    rng = np.random.default_rng(SEED + 3)
    failures = 0
    for _ in range(1000):
        n, cap = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        a = random_model_for_atom(rng, Atom.SQR, n, cap)
        b = random_model_for_atom(rng, Atom.SQR, n, cap)
        w = product_workspace(a, b)  # construction itself asserts the cap
        ra, rbb = a.range_bounds(), b.range_bounds()
        quarter = 0.25 * (ra.hi - ra.lo) * (rbb.hi - rbb.lo)
        if w.remainder > quarter * (1 + 1e-12) + 1e-300:
            failures += 1
    _report("criterion 7", failures == 0, f"1000 workspaces, {failures} cap violations")
    assert failures == 0


def test_c8_separable_diameter_halves_with_branching():
    e = parse("sin(x1)+sin(x2)+sin(x3)", 3)
    diams = []
    for cap in (8, 16, 32, 64):
        d = Domain.of([(0.0, 2 * math.pi)] * 3, branches=cap)
        m = eval_ism(e, d)[0]
        diams.append(sum(max(entry.diam for entry in row) for row in coeffs(m)))
    ratios = [diams[i] / diams[i + 1] for i in range(3)]
    decreasing = all(a > b for a, b in zip(diams, diams[1:]))
    in_window = all(1.7 <= q <= 2.3 for q in ratios)
    _report("criterion 8", decreasing and in_window,
            f"diameters {['%.4f' % v for v in diams]}, ratios {['%.3f' % q for q in ratios]}")
    assert decreasing
    assert in_window


def test_c9_overestimation_vanishes_on_shrinking_domains():
    dists = []
    for t in (1.0, 0.5, 0.25, 0.125):
        spec = f"x1=[{5 - 5 * t},{5 + 5 * t}];x2=[{10 - 10 * t},{10 + 10 * t}]"
        cfg = RunConfig(expr=SHOWCASE, domain=spec, branches=10,
                        grid=250_000, seed=SEED, out=None, depth=1)
        dists.append(run_compare(cfg)["dH_isa"])
    monotone = all(a > b for a, b in zip(dists, dists[1:]))
    _report("criterion 9", monotone, f"dH by scale {['%.4f' % v for v in dists]}")
    assert monotone


def test_c10_convergence_orders_on_shrinking_domains():
    # dH on the showcase over boxes centred at (5, 10) with half-widths 5t and
    # 10t; the order is the slope of log2 dH against log2 t over t in
    # [1/32, 1/4].  Measured: ISA at N=100 1.90, ISA at N=10 1.54, IA 0.79.
    # Bounds fixed before the run, with margin: ISA at N=100 second order
    # (>= 1.7), IA first order (<= 1.2).
    ts = [2.0**-k for k in range(2, 7)]
    dists = {}
    for n in (100, 10, 1):
        for t in ts:
            spec = f"x1=[{5 - 5 * t},{5 + 5 * t}];x2=[{10 - 10 * t},{10 + 10 * t}]"
            cfg = RunConfig(expr=SHOWCASE, domain=spec, branches=n,
                            grid=250_000, seed=SEED, out=None, depth=1)
            row = run_compare(cfg)
            dists[n, t] = (row["dH_isa"], row["dH_ia"])

    def order(values):
        fit = [(math.log2(t), math.log2(v)) for t, v in zip(ts, values) if t >= 1 / 32]
        return float(np.polyfit(*zip(*fit), 1)[0])

    isa = {n: [dists[n, t][0] for t in ts] for n in (100, 10, 1)}
    ia = [dists[100, t][1] for t in ts]
    orders = {"isa100": order(isa[100]), "isa10": order(isa[10]), "ia": order(ia)}
    isa10_below_ia = all(a < b for a, b in zip(isa[10], ia))
    isa1_is_ia = all(abs(a - b) <= 1e-12 * b for a, b in zip(isa[1], ia))
    ok = orders["isa100"] >= 1.7 and orders["ia"] <= 1.2 and isa10_below_ia and isa1_is_ia
    _report("criterion 10", ok,
            ", ".join(f"order {k} {v:.2f}" for k, v in orders.items())
            + f", N=10 below IA: {isa10_below_ia}, N=1 equals IA: {isa1_is_ia}")
    assert orders["isa100"] >= 1.7, orders
    assert orders["ia"] <= 1.2, orders
    assert isa10_below_ia, (isa[10], ia)
    assert isa1_is_ia, (isa[1], ia)


def test_c10_pointwise_cell_union_converges_on_shrinking_boxes():
    # One stage of the recursion map over its domain scaled by t about its
    # centre, the origin; dH of the cell union (`hausdorff_piecewise`, clipped
    # by IA as run_recursion does) and of the IA box against a 20^3 sample,
    # order fitted over t in [1/64, 1/4].  Measured: cell union at N=4 1.46,
    # at N=16 1.50; IA 1.55, above first order because two outputs are flat
    # at the origin.  The cell union at N=16 lies at 0.30-0.51 of IA.  Bounds
    # fixed after the measurement, with margin: each cell union of order
    # >= 1.3, and N=16 below N=4 below IA at every t.
    base = parse_vector(RECURSION_TEXTS, 3)
    full = parse_domain_spec(RECURSION_DOMAIN, 1).boxes
    ts = [2.0**-k for k in range(2, 7)]
    dists = {}
    for t in ts:
        box = [Interval(b.lo * t, b.hi * t) for b in full]
        img = sample_image(base, box, budget=20**3)
        ia = eval_interval(base, box)
        dists["ia", t] = hausdorff_enclosure(img, ia, budget=2 * 10**4)
        for n in (4, 16):
            models = eval_ism(base, Domain.of(box, n))
            dists[n, t] = hausdorff_piecewise(img, models, clip=ia, budget=2 * 10**4)

    def order(key):
        return float(np.polyfit([math.log2(t) for t in ts], [math.log2(dists[key, t]) for t in ts], 1)[0])

    orders = {key: order(key) for key in (4, 16, "ia")}
    nested = all(dists[16, t] < dists[4, t] < dists["ia", t] for t in ts)
    ok = orders[4] >= 1.3 and orders[16] >= 1.3 and nested
    _report("criterion 10, pointwise", ok,
            f"order N=4 {orders[4]:.2f}, N=16 {orders[16]:.2f}, IA {orders['ia']:.2f}, "
            f"N=16 < N=4 < IA at every t: {nested}")
    assert orders[4] >= 1.3 and orders[16] >= 1.3, orders
    assert nested, dists
