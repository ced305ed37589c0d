"""Sampling oracle and overestimation distance, plus the brute-force checkers
of `tests/reference.py`."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from conftest import (
    coeffs,
    lattice,
    make_model,
    random_model_for_atom,
    random_separable_model,
    unit_domain,
)
from isarith import cli, oracle
from isarith.expr import eval_interval, eval_ism, eval_points, parse, parse_vector, self_compose
from isarith.interval import DomainViolation, Interval
from isarith.model import Domain, DomainMismatch, init_variable
from isarith.oracle import (
    BudgetExceeded,
    ImageSample,
    SampleInaccurate,
    SoundnessViolation,
    hausdorff_enclosure,
    hausdorff_piecewise,
    sample_image,
)
from isarith.univariate import Atom, compose
from reference import brute_force_range, remainder_violation_search


class TestSampleImage:
    def test_identity_grid(self):
        img = sample_image(parse("x1", 1), [Interval(0, 1)], grid=3)
        assert sorted(img.points[:, 0]) == [0.0, 0.5, 1.0]
        assert img.per_axis_hull == (Interval(0, 1),)

    def test_square_catches_interior_minimum(self):
        img = sample_image(parse("sqr(x1)", 1), [Interval(-1, 1)], grid=101)
        hull = img.per_axis_hull[0]
        assert hull.lo == 0.0 and hull.hi == 1.0

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            sample_image(parse("x1+x2", 2), [Interval(0, 1)] * 2, grid=2000, budget=10**6)

    def test_default_grid_fills_the_budget(self):
        img = sample_image(parse("x1+x2+x3", 3), [Interval(0, 1)] * 3, budget=5**3)
        assert img.points.shape == (5**3, 1)
        assert sorted(set(img.points[:, 0])) == [k / 4 for k in range(13)]

    @pytest.mark.parametrize("budget", [7, 0, -5])
    def test_budget_below_two_points_per_axis(self, budget):
        box = [Interval(0, 1)] * 3
        with pytest.raises(BudgetExceeded, match="cannot hold 2 points"):
            sample_image(parse("x1+x2+x3", 3), box, budget=budget)
        img = ImageSample(np.zeros((1, 3)), (Interval(0, 0),) * 3)
        with pytest.raises(BudgetExceeded, match="cannot hold 2 points"):
            hausdorff_enclosure(img, box, budget=budget)

    @pytest.mark.parametrize("bounds, per_axis", [
        ([(0.0, 1.0)], 3),
        ([(0.0, 1.0), (-2.0, 7.3)], 50),
        ([(0.0, 1.0), (-2.0, 7.3), (0.5, 0.5)], 7),
        ([(0.0, 1.0)] * 4, 2),
    ])
    def test_lattice_matches_dense_meshgrid(self, bounds, per_axis):
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in bounds]
        dense = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert np.array_equal(lattice(bounds, per_axis), dense)

    def test_linspace_matches_scalar_linspace_per_row(self):
        # zero-width rows next to wide ones: np.linspace given these arrays
        # moves every row to its zero-step formula and misses the scalar calls
        from isarith.oracle import _linspace

        lo = np.array([[0.1, 0.5, -3.0], [1e12, 0.3, 5e-324], [0.0, 0.0, -7.1]])
        hi = np.array([[0.7, 0.5, 2.9], [1e12 + 0.5, 0.3, 5e-324], [1e-300, 1.0, 1e5]])
        for k in (2, 3, 7, 46):
            got = _linspace(lo, hi, k)
            assert got.shape == lo.shape + (k,)
            for idx in np.ndindex(lo.shape):
                assert np.array_equal(got[idx], np.linspace(lo[idx], hi[idx], k)), (idx, k)

    def test_grid_refinement_grows_hull(self):
        e = parse("sin(x1)+sin(x2)", 2)
        box = [Interval(0, 6), Interval(0, 6)]
        coarse = sample_image(e, box, grid=20).per_axis_hull[0]
        fine = sample_image(e, box, grid=39).per_axis_hull[0]  # nested lattice
        assert fine.encloses(coarse)


#: every row of the op table: neg sqr inv exp log sin cos tan cot sqrt ^k / + - *
_EVERY_OP = "-sqr(x1) + inv(x2)*exp(x3) - log(x1+x2)/sin(x2) + cos(x1*x3)*tan(x2) - cot(x1) + sqrt(x3)^3"


def _dense_points(e, box, k):
    """The expression on every point of the dense lattice, row by row."""
    return eval_points(e, lattice([(b.lo, b.hi) for b in box], k))


class TestOpenGrid:
    """sample_image hands eval_points one coordinate array per axis, so each
    node runs on the sub-lattice of the axes it reads; its points must be the
    dense lattice's, byte for byte, and it must fail where that fails."""

    @pytest.mark.parametrize("texts, box, k", [
        ([_EVERY_OP], [Interval(0.5, 1.0), Interval(0.2, 0.9), Interval(1.0, 2.0)], 9),
        ([cli.SHOWCASE_EXPR], [Interval(0.0, 1.0), Interval(0.0, 5.0)], 300),
        # outputs that read different subsets of the axes
        (["x2", "sin(x1)", "x1*x3"], [Interval(-1.0, 1.0), Interval(0.0, 2.0), Interval(3.0, 4.0)], 11),
        (["x1", "2.5"], [Interval(0.0, 1.0)] * 2, 5),
        ([cli.SHOWCASE_EXPR], [Interval(0.0, 1.0), Interval(0.7, 0.7)], 50),
    ])
    def test_points_equal_the_dense_lattice(self, texts, box, k):
        e = parse_vector(texts, len(box))
        got, want = sample_image(e, box, grid=k).points, _dense_points(e, box, k)
        assert got.shape == want.shape == (k ** len(box), len(texts))
        assert got.tobytes() == want.tobytes()

    def test_recursion_map_self_composed(self):
        e = self_compose(parse_vector(cli.RECURSION_TEXTS, 3), 3)
        box = cli.parse_domain_spec(cli.RECURSION_DOMAIN, 1).boxes
        assert sample_image(e, box, grid=20).points.tobytes() == _dense_points(e, box, 20).tobytes()

    @pytest.mark.parametrize("text, error, message", [
        ("log(x1-0.5)", DomainViolation, r"^node \d+ \(un\): log of a non-positive value$"),
        ("exp(1000*x1)", OverflowError, "^intermediate value overflowed$"),
    ])
    def test_errors_match_the_dense_lattice(self, text, error, message):
        e, box = parse(text, 1), [Interval(0.0, 1.0)]
        with np.errstate(over="ignore"), pytest.raises(error, match=message) as dense:
            _dense_points(e, box, 11)
        with np.errstate(over="ignore"), pytest.raises(error, match=message) as grid:
            sample_image(e, box, grid=11)
        assert str(grid.value) == str(dense.value)

    def test_peak_memory_within_three_results(self):
        # the showcase at the default budget: only its last two nodes run on
        # the full lattice, so the peak stays near the (10^6, 1) result
        e = parse(cli.SHOWCASE_EXPR, 2)
        tracemalloc.start()
        try:
            img = sample_image(e, [Interval(0.0, 1.0), Interval(0.0, 5.0)], budget=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert img.points.shape == (10**6, 1)
        assert peak <= 3 * img.points.nbytes


class TestHausdorff:
    def test_scalar_endpoint_formula(self):
        img = ImageSample(np.array([[0.0], [1.0], [2.0]]), (Interval(0, 2),))
        assert hausdorff_enclosure(img, [Interval(-1, 2)]) == 1.0

    def test_exact_enclosure_has_zero_distance(self):
        img = ImageSample(np.array([[0.0], [2.0]]), (Interval(0, 2),))
        assert hausdorff_enclosure(img, [Interval(0, 2)]) == 0.0

    def test_soundness_precondition(self):
        img = ImageSample(np.array([[0.0], [2.0]]), (Interval(0, 2),))
        with pytest.raises(SoundnessViolation):
            hausdorff_enclosure(img, [Interval(0.5, 2)])

    def test_denser_image_sampling_shrinks_the_distance(self):
        e = parse("sin(x1)*x1", 1)
        box = [Interval(0.0, 3.0)]
        enclosure = [Interval(-1.0, 3.5)]
        coarse = hausdorff_enclosure(sample_image(e, box, grid=11), enclosure)
        fine = hausdorff_enclosure(sample_image(e, box, grid=21), enclosure)
        assert fine <= coarse

    def test_multi_output_matches_componentwise_formula_on_dense_box(self):
        # when the image fills its hull box, the lattice maximum reduces to
        # the per-axis endpoint formula
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, size=(20000, 3))
        pts[0] = (0, 0, 0)
        pts[1] = (1, 1, 1)
        hull = tuple(Interval(0, 1) for _ in range(3))
        img = ImageSample(pts, hull)
        enclosure = [Interval(-0.5, 1.2), Interval(0, 1.4), Interval(-0.1, 1.0)]
        expected = max(0.5, 0.2, 0.4, 0.1)
        got = hausdorff_enclosure(img, enclosure, budget=64**3)
        assert got == pytest.approx(expected, abs=0.05)

    def test_perfect_power_budget_scans_its_full_lattice(self):
        # 125 ** (1/3) rounds to 4.999...; the scan must still use 5 points
        # per axis, which land exactly on the sampled lattice
        axis = np.arange(5.0)
        pts = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")], axis=1)
        img = ImageSample(pts, (Interval(0, 4),) * 3)
        assert hausdorff_enclosure(img, [Interval(0, 4)] * 3, budget=5**3) == 0.0


def _exhaustive(img, bounds, per_axis):
    """The per-point scan the block scan must reproduce: every lattice point
    of every box queried, the largest distance kept."""
    tree = cKDTree(img.points)
    points = np.concatenate([lattice(b, per_axis) for b in bounds])
    return max(0.0, float(tree.query(points, k=1, p=np.inf)[0].max()))


@st.composite
def _scan_cases(draw):
    """A sampled image and blocks of k points per axis, with zero-width axes,
    large offsets under tiny widths, and samples on the blocks' lattices."""
    m = draw(st.integers(2, 3))
    k = draw(st.integers(2, 7))
    offset = draw(st.sampled_from([0.0, 1.0, -3.5, 1e6, -1e12, 1e12]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e-9, 1e-12]))
    unit = st.floats(-1.0, 1.0)
    width = st.just(0.0) | st.floats(0.0, 2.0)
    blocks = draw(st.integers(1, 6))
    lo = np.array([[offset + draw(unit) * scale for _ in range(m)] for _ in range(blocks)])
    hi = lo + np.array([[draw(width) * scale for _ in range(m)] for _ in range(blocks)])
    on_blocks = np.concatenate([lattice(list(zip(a, b)), k) for a, b in zip(lo, hi)])
    points = np.array([
        on_blocks[draw(st.integers(0, len(on_blocks) - 1))]
        if draw(st.booleans())
        else np.array([offset + 1.5 * draw(unit) * scale for _ in range(m)])
        for _ in range(draw(st.integers(1, 12)))
    ])
    hull = tuple(Interval(float(c.min()), float(c.max())) for c in points.T)
    return ImageSample(points, hull), lo, hi, k


@st.composite
def _one_and_four_output_cases(draw):
    """Like `_scan_cases`, but with one or four outputs: every fold over the
    outputs then runs on a single slice or on a chain of four."""
    m = draw(st.sampled_from([1, 4]))
    k = draw(st.integers(2, 4))
    offset = draw(st.sampled_from([0.0, -3.5, 1e12]))
    scale = draw(st.sampled_from([1.0, 1e-9]))
    unit = st.floats(-1.0, 1.0)
    blocks = draw(st.integers(1, 4))
    lo = offset + scale * np.array(draw(st.lists(unit, min_size=blocks * m, max_size=blocks * m)))
    widths = draw(st.lists(st.just(0.0) | st.floats(0.0, 2.0), min_size=blocks * m, max_size=blocks * m))
    lo = lo.reshape(blocks, m)
    hi = lo + scale * np.array(widths).reshape(blocks, m)
    on_blocks = np.concatenate([lattice(list(zip(a, b)), k) for a, b in zip(lo, hi)])
    points = np.array([
        on_blocks[draw(st.integers(0, len(on_blocks) - 1))]
        if draw(st.booleans())
        else offset + 1.5 * scale * np.array(draw(st.lists(unit, min_size=m, max_size=m)))
        for _ in range(draw(st.integers(1, 12)))
    ])
    hull = tuple(Interval(float(c.min()), float(c.max())) for c in points.T)
    return ImageSample(points, hull), lo, hi, k


class TestSampleRounding:
    def test_a_value_the_point_interval_misses_is_still_a_violation(self):
        # the interval value at x1 = 1 is [1, 1], outside [0, 0.5]
        img = sample_image(parse("x1", 1), [Interval(0, 1)], grid=11)
        with pytest.raises(SoundnessViolation, match="escapes enclosure"):
            hausdorff_enclosure(img, [Interval(0, 0.5)])

    def test_a_sample_rounded_out_of_a_sound_enclosure(self):
        # x1 + 1e16 rounds to a multiple of 2, so the samples are 0 and 2
        img = sample_image(parse("(x1+1e16)-1e16", 1), [Interval(1, 1.5)], grid=11)
        assert img.per_axis_hull == (Interval(0, 2),)
        with pytest.raises(SampleInaccurate, match=r"float sample 2\.0 at x=\[1\.05\].*\[0\.0, 2\.0\]"):
            hausdorff_enclosure(img, [Interval(1, 1.5)])

    def test_the_extreme_of_a_later_output_on_a_lattice(self):
        # output 1 escapes only at its largest sample, the corner (2, 3)
        img = sample_image(parse_vector(["x1", "x1*x2"], 2), [Interval(0, 2), Interval(1, 3)], grid=5)
        with pytest.raises(SoundnessViolation, match="axis 1"):
            hausdorff_enclosure(img, [Interval(0, 2), Interval(0, 5.5)])
        img = sample_image(parse_vector(["x1", "(x2+1e16)-1e16"], 2), [Interval(0, 2), Interval(1, 1.5)], grid=5)
        with pytest.raises(SampleInaccurate, match=r"x=\[0\.0, 1\.125\]"):
            hausdorff_enclosure(img, [Interval(0, 2), Interval(1, 1.5)])


class TestBlockScan:
    @settings(max_examples=300, deadline=None)
    @given(_scan_cases())
    def test_equals_the_exhaustive_scan(self, case):
        img, lo, hi, k = case
        boxes = [list(zip(a, b)) for a, b in zip(lo, hi)]
        assert oracle._farthest(img, oracle._linspace(lo, hi, k)) == _exhaustive(img, boxes, k)
        # the enclosure scan cuts a finer lattice over the first box and the
        # hull into index blocks of several points per axis
        box = [(min(a, h.lo), max(b, h.hi)) for a, b, h in zip(lo[0], hi[0], img.per_axis_hull)]
        per_axis = 3 * k
        got = hausdorff_enclosure(img, [Interval(*b) for b in box], budget=per_axis ** len(box))
        assert got == _exhaustive(img, [box], per_axis)

    @settings(max_examples=200, deadline=None)
    @given(_one_and_four_output_cases())
    def test_one_and_four_outputs_equal_the_exhaustive_scan(self, case):
        img, lo, hi, k = case
        boxes = [list(zip(a, b)) for a, b in zip(lo, hi)]
        assert oracle._farthest(img, oracle._linspace(lo, hi, k)) == _exhaustive(img, boxes, k)

    def test_one_output_cells_equal_the_exhaustive_scan(self):
        # the enclosure scan takes the closed form for one output, so the
        # piecewise scan is the only route to a block scan of one axis
        domain = Domain.of([(-1.0, 1.0), (0.5, 2.0)], branches=6)
        e = parse("x1*x2 + sin(3*x1)", 2)
        models = eval_ism(e, domain)
        clip = eval_interval(e, domain.boxes)
        img = sample_image(e, domain.boxes, grid=41)
        got = hausdorff_piecewise(img, models, clip=clip, budget=6**2 * 9)
        assert got > 0.0
        assert got == _exhaustive(img, _per_cell_boxes(models, clip), 9)

    def test_bound_carries_the_rounding_slack(self):
        # block b's far corner is one ulp beyond its rounded midpoint bound;
        # block a, a single point at exactly that bound, is scanned first, so
        # without the slack block b would be pruned and its corner lost
        s0, lo, hi = -4.0973523936194685, 0.9981562229493293, 1.7557405086953304
        mid = 0.5 * lo + 0.5 * hi
        rounded = (mid - s0) + max(hi - mid, mid - lo)
        assert hi - s0 > rounded
        img = ImageSample(np.array([[s0, 0.0]]), (Interval(s0, s0), Interval(0.0, 0.0)))
        corner_lo = np.array([[s0, rounded], [lo, 0.0]])
        corner_hi = np.array([[s0, rounded], [hi, 0.0]])
        blocks = oracle._linspace(corner_lo, corner_hi, 2)
        assert oracle._farthest(img, blocks) == hi - s0

    @settings(max_examples=100, deadline=None)
    @given(_scan_cases(), st.sampled_from([1, 8]))
    def test_a_loose_midpoint_query_keeps_the_scan_exact(self, case, first):
        # any real sample bounds a block or a point, however far it lies from
        # the nearest, so far looser approximate queries of the midpoints and
        # the points only cost exact queries, and so does a first group of
        # exact point queries of any size
        img, lo, hi, k = case
        boxes = [list(zip(a, b)) for a, b in zip(lo, hi)]
        box = [(min(a, h.lo), max(b, h.hi)) for a, b, h in zip(lo[0], hi[0], img.per_axis_hull)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_MID_EPS", 1e6)
            patch.setattr(oracle, "_FIRST_POINTS", first)
            got = oracle._farthest(img, oracle._linspace(lo, hi, k))
            enclosure = hausdorff_enclosure(img, [Interval(*b) for b in box], budget=(3 * k) ** len(box))
        assert got == _exhaustive(img, boxes, k)
        assert enclosure == _exhaustive(img, [box], 3 * k)

    @staticmethod
    def depth_one(monkeypatch, queried=None, exact=None):
        """Depth 1 of run_recursion on a 10^5 grid, its scan budget included:
        the image, the boxes, both distances and the points each scan queried;
        `queried` is left holding the piecewise scan's queries and `exact`
        its exact ones."""
        grid_budget, branches = 10**5, 20
        scan_budget = min(grid_budget, 200_000)
        base = parse_vector(cli.RECURSION_TEXTS, 3)
        domain0 = cli.parse_domain_spec(cli.RECURSION_DOMAIN, branches)
        stage = Domain.of(cli._widen_thin(domain0.boxes), branches)
        models = eval_ism(base, stage)
        clip = eval_interval(base, stage.boxes)
        ia_boxes = eval_interval(base, domain0.boxes)
        img = sample_image(self_compose(base, 1), domain0.boxes, budget=grid_budget)

        queried = [] if queried is None else queried
        exact = [] if exact is None else exact
        monkeypatch.setattr(oracle, "cKDTree", _counting_tree(queried, exact))
        d_ia = hausdorff_enclosure(img, ia_boxes, budget=scan_budget)
        enclosure_points, queried[:], exact[:] = sum(map(len, queried)), [], []
        d_isa = hausdorff_piecewise(img, models, clip=clip, budget=scan_budget)
        piecewise_points = sum(map(len, queried))
        monkeypatch.undo()
        return img, models, clip, ia_boxes, d_ia, d_isa, enclosure_points, piecewise_points

    def test_recursion_map_prunes_and_stays_exact(self, monkeypatch):
        img, models, clip, ia_boxes, d_ia, d_isa, enclosure_points, piecewise_points = (
            self.depth_one(monkeypatch)
        )

        assert d_ia == _exhaustive(img, [[(b.lo, b.hi) for b in ia_boxes]], 46)
        assert enclosure_points < 46**3 / 3

        cells = _per_cell_boxes(models, clip)
        assert d_isa == _exhaustive(img, cells, 2)
        assert piecewise_points < len(cells) * 8 / 2

    def test_recursion_map_skips_points_bounded_by_a_known_sample(self, monkeypatch):
        # the far face of the enclosure box lies parallel to the near-planar
        # image, so block bounds alone query it in full (12,608 points, and
        # 27,520 on the cells); the per-point bound skips it
        *_, enclosure_points, piecewise_points = self.depth_one(monkeypatch)
        assert enclosure_points < 46**3 / 30
        assert piecewise_points < 20**3 * 8 / 4

    def test_recursion_map_queries_only_reached_midpoints_exactly(self, monkeypatch):
        # the first piecewise query holds every cell's midpoint, answered
        # approximately; the exact re-queries hold only the midpoints of the
        # batches the scan reaches (1,335 of the 8,000).  An approximate
        # nearest sample bounds each lattice point of those cells, so few of
        # them are queried exactly (74, where the sample nearest each cell's
        # midpoint alone left 3,002)
        queried, exact = [], []
        self.depth_one(monkeypatch, queried, exact)
        midpoints, *scans = queried
        assert len(midpoints) == 20**3
        known = {tuple(p) for p in midpoints}
        requeried = sum(len(q) for q in scans if known.issuperset(map(tuple, q)))
        assert 0 < requeried < 20**3 / 4
        lattice_points = sum(len(q) for q in exact if not known.issuperset(map(tuple, q)))
        assert 0 < lattice_points < 300

    def test_batches_keep_doubling_past_twenty_blocks(self, monkeypatch):
        # 64 blocks of 56 x 56 points around a wavy sheet: the scan reaches
        # batches of 1, 2, 4, 8, 16 and 32 blocks, and stays exact
        e = parse_vector(["x1", "x2 + 0.01*sin(7*x1)"], 2)
        img = sample_image(e, [Interval(0.0, 1.0)] * 2, budget=10**4)
        box = [(-0.01, 1.01), (-0.02, 1.02)]
        batches, block_points = [], oracle._block_points
        monkeypatch.setattr(oracle, "_block_points", lambda c: batches.append(len(c)) or block_points(c))
        got = hausdorff_enclosure(img, [Interval(*b) for b in box], budget=2 * 10**5)
        monkeypatch.undo()
        assert got == _exhaustive(img, [box], 447) == 0.029825410141374187
        assert max(batches) > 20

    def test_batches_stop_doubling_at_the_point_cap(self, monkeypatch):
        # the same sheet at a 10^6 scan budget: 64 blocks of 125 x 125 points,
        # which uncapped batches would reach 32 at a time (500,000 points)
        e = parse_vector(["x1", "x2 + 0.01*sin(7*x1)"], 2)
        img = sample_image(e, [Interval(0.0, 1.0)] * 2, budget=10**4)
        box = [Interval(-0.01, 1.01), Interval(-0.02, 1.02)]
        points, block_points = [], oracle._block_points

        def counted(c):  # (blocks, m, k) coordinates give blocks * k**m points
            points.append(len(c) * c.shape[2] ** c.shape[1])
            return block_points(c)

        monkeypatch.setattr(oracle, "_block_points", counted)
        hausdorff_enclosure(img, box, budget=10**6)
        assert oracle._BATCH_POINTS // 2 < max(points) <= oracle._BATCH_POINTS


def _per_cell_boxes(models, clip):
    """Every cell box of the models the way a per-cell loop sums it: the
    constant, then rows 0..n-1 left to right, then the clip."""
    matrices = [coeffs(mdl) for mdl in models]
    cells = []
    for combo in np.ndindex((models[0].branches,) * models[0].domain.dim):
        box = []
        for mdl, rows, c in zip(models, matrices, clip):
            lo = sum((rows[i][j].lo for i, j in enumerate(combo)), mdl.const.lo)
            hi = sum((rows[i][j].hi for i, j in enumerate(combo)), mdl.const.hi)
            box.append((max(lo, c.lo), min(hi, c.hi)))
        cells.append(box)
    return cells


def _counting_tree(queried, exact=None):
    """cKDTree whose queries append their points to the list, and whose exact
    (eps 0) queries append them to `exact` too, where given."""

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(np.array(x))
            if exact is not None and not kwargs.get("eps", 0):
                exact.append(queried[-1])
            return super().query(x, *args, **kwargs)

    return CountingTree


class TestDistinct:
    def test_merges_signed_zeros_and_rebuilds_the_input(self):
        p = np.random.default_rng(4).choice([-1.0, -0.0, 0.0, 0.5], size=(500, 3))
        rows, inverse = oracle._distinct(p)
        assert np.array_equal(rows[inverse], p)  # -0.0 == 0.0
        assert len(rows) == len({tuple(r) for r in p})  # one zero, as in a set
        assert all(tuple(a) < tuple(b) for a, b in zip(rows, rows[1:]))

    def test_one_row_for_zeros_of_either_sign(self):
        rows, inverse = oracle._distinct(np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]))
        assert rows.shape == (1, 2) and list(inverse) == [0, 0, 0]


class TestPointBound:
    """The per-point bound and the dropped repeats keep the scan exact where
    many points tie at the maximum and where every point repeats."""

    def test_far_face_parallel_to_a_planar_image(self, monkeypatch):
        # the image is the plane x3 = 0.1; every point of the face x3 = 1.3
        # is 1.2 from it up to rounding, so the maximum is tied many times
        xy = lattice([(0.0, 1.0), (-0.5, 0.7)], 9)
        img = ImageSample(np.column_stack([xy, np.full(len(xy), 0.1)]),
                          (Interval(0.0, 1.0), Interval(-0.5, 0.7), Interval(0.1, 0.1)))
        box = [(-0.05, 1.0), (-0.5, 0.75), (0.1, 1.3)]
        queried = []
        monkeypatch.setattr(oracle, "cKDTree", _counting_tree(queried))
        got = hausdorff_enclosure(img, [Interval(*b) for b in box], budget=24**3)
        monkeypatch.undo()
        assert got == _exhaustive(img, [box], 24)
        assert sum(map(len, queried[1:])) < 24**3

    def test_zero_width_enclosure_axis_queries_each_point_once(self, monkeypatch):
        # a third axis of zero width repeats every point of the lattice 24
        # times, as the recursion map's enclosure boxes do from depth 2; a
        # query holds each point once, and the scan queries fewer points than
        # the lattice holds distinct ones (an identical block in a later
        # batch may query its points again)
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(0.0, 1.0, (300, 2)), np.full(300, 0.008)])
        img = ImageSample(pts, tuple(Interval(float(c.min()), float(c.max())) for c in pts.T))
        box = [(-0.3, 1.2), (0.0, 1.6), (0.008, 0.008)]
        queried = []
        monkeypatch.setattr(oracle, "cKDTree", _counting_tree(queried))
        got = hausdorff_enclosure(img, [Interval(*b) for b in box], budget=24**3)
        monkeypatch.undo()
        assert got == _exhaustive(img, [box], 24)
        scans = queried[1:]  # the first query holds the block midpoints
        assert all(len(q) == len(np.unique(q, axis=0)) for q in scans)
        assert sum(map(len, scans)) < 24**2

    def test_piecewise_cells_with_a_zero_width_axis(self, monkeypatch):
        # two wide outputs and a constant one: every cell box is flat
        d = Domain.of([(0.0, 1.0), (0.0, 2.0)], branches=4)
        x1, x2 = init_variable(d, 0), init_variable(d, 1)
        flat = make_model(d, [[(0.0, 0.0)] * 4] * 2, const=(0.25, 0.25))
        xy = lattice([(0.0, 1.0), (0.0, 2.0)], 7)
        img = ImageSample(np.column_stack([xy, np.full(len(xy), 0.25)]),
                          (Interval(0.0, 1.0), Interval(0.0, 2.0), Interval(0.25, 0.25)))
        queried = []
        monkeypatch.setattr(oracle, "cKDTree", _counting_tree(queried))
        got = hausdorff_piecewise(img, (x1, x2, flat), budget=16 * 5**3)
        monkeypatch.undo()
        cells = [[(i / 4, (i + 1) / 4), (j / 2, (j + 1) / 2), (0.25, 0.25)]
                 for i in range(4) for j in range(4)]
        assert got == _exhaustive(img, cells, 5)
        assert all(len(q) == len(np.unique(q, axis=0)) for q in queried[1:])


class TestOverflowingLattice:
    """A finite enclosure whose width overflows the largest float raises
    OverflowError before the kd-tree sees a non-finite coordinate."""

    @staticmethod
    def image():
        pts = np.random.default_rng(5).uniform(0, 1, size=(200, 2))
        return ImageSample(pts, (Interval(0, 1), Interval(0, 1)))

    def test_enclosure_box(self, monkeypatch):
        monkeypatch.setattr(oracle, "cKDTree", None)  # no tree may be built
        with pytest.raises(OverflowError):
            hausdorff_enclosure(self.image(), [Interval(-1e308, 1e308), Interval(0, 1)])

    def test_piecewise_cells(self, monkeypatch):
        monkeypatch.setattr(oracle, "cKDTree", None)
        d = Domain.of([(0.0, 1.0)], branches=2)
        wide = make_model(d, [[(-1e308, 1e308), (-1e308, 1e308)]])
        narrow = make_model(d, [[(0.0, 0.5), (0.5, 1.0)]])
        with pytest.raises(OverflowError):
            hausdorff_piecewise(self.image(), [wide, narrow], budget=1000)


class TestPiecewiseHausdorff:
    def setup_models(self):
        # two output components over one 1-axis domain with 2 branches
        d = Domain.of([(0.0, 1.0)], branches=2)
        m1 = make_model(d, [[(0.0, 0.5), (0.5, 1.0)]])  # identity-like
        m2 = make_model(d, [[(0.0, 0.25), (0.25, 1.0)]])  # square-like
        return d, (m1, m2)

    def test_tighter_than_bounding_box(self):
        from isarith.oracle import hausdorff_piecewise

        d, models = self.setup_models()
        xs = np.linspace(0, 1, 400)
        pts = np.column_stack([xs, xs**2])
        img = ImageSample(pts, (Interval(0, 1), Interval(0, 1)))
        d_cells = hausdorff_piecewise(img, models, budget=10_000)
        d_box = hausdorff_enclosure(img, [Interval(0, 1), Interval(0, 1)], budget=10_000)
        assert d_cells <= d_box
        # the box corner (0, 1) is far from the curve; the cells exclude it
        assert d_box > 0.4 and d_cells < 0.4

    def test_clip_shrinks_cells(self):
        from isarith.oracle import hausdorff_piecewise

        d, models = self.setup_models()
        xs = np.linspace(0, 1, 400)
        img = ImageSample(np.column_stack([xs, xs**2]), (Interval(0, 1), Interval(0, 1)))
        loose = hausdorff_piecewise(img, models, budget=10_000)
        clipped = hausdorff_piecewise(
            img, models, clip=[Interval(0, 1), Interval(0, 1)], budget=10_000
        )
        assert clipped <= loose + 1e-12

    def test_constant_shifts_every_cell(self):
        from isarith.oracle import hausdorff_piecewise

        d, models = self.setup_models()
        xs = np.linspace(0, 1, 400)
        img = ImageSample(np.column_stack([xs, xs**2]), (Interval(0, 1), Interval(0, 1)))
        shifted = ImageSample(img.points + 1.0, (Interval(1, 2), Interval(1, 2)))
        # the same cells moved by +1: rows lowered by 1, constant 2
        moved = tuple(
            make_model(d, [[(e.lo - 1.0, e.hi - 1.0) for e in coeffs(m)[0]]], const=(2.0, 2.0))
            for m in models
        )
        assert hausdorff_piecewise(shifted, moved, budget=10_000) == pytest.approx(
            hausdorff_piecewise(img, models, budget=10_000), abs=1e-12
        )

    def test_budget_guard(self):
        from isarith.oracle import BudgetExceeded, hausdorff_piecewise

        d = Domain.of([(0, 1)] * 3, branches=30)
        ms = tuple(init_variable(d, i) for i in range(3))
        img = ImageSample(np.zeros((4, 3)), tuple(Interval(0, 0) for _ in range(3)))
        with pytest.raises(BudgetExceeded):
            hausdorff_piecewise(img, ms, budget=1000)

    def test_soundness_precondition(self):
        from isarith.oracle import hausdorff_piecewise

        d, models = self.setup_models()
        img = ImageSample(np.array([[0.0, 2.0]]), (Interval(0, 0), Interval(2, 2)))
        with pytest.raises(SoundnessViolation):
            hausdorff_piecewise(img, models, budget=1000)


    def test_clip_disjoint_from_a_range(self):
        d = Domain.of([(0.0, 1.0)] * 2, branches=4)
        models = (init_variable(d, 0), init_variable(d, 1))
        img = sample_image(parse_vector(["x1", "x2"], 2), d.boxes, budget=100)
        clip = [Interval(2, 3), Interval(0, 1)]
        with pytest.raises(SoundnessViolation):
            hausdorff_piecewise(img, models, clip=clip, budget=1000)


class TestScanInputShape:
    """Each enclosure a scan reads, the models and the clip too, needs one
    interval per image output."""

    def image_and_models(self):
        d = Domain.of([(0.0, 1.0)] * 2, branches=4)
        e = parse_vector(["x1", "x2+10"], 2)
        return sample_image(e, d.boxes, budget=100), eval_ism(e, d)

    @pytest.mark.parametrize("count", [1, 3])
    def test_piecewise_models(self, count):
        img, models = self.image_and_models()
        with pytest.raises(ValueError, match=f"enclosure has {count} axes, image has 2"):
            hausdorff_piecewise(img, (models * 2)[:count], budget=1000)

    def test_piecewise_clip(self):
        img, models = self.image_and_models()
        with pytest.raises(ValueError, match="enclosure has 1 axes, image has 2"):
            hausdorff_piecewise(img, models, clip=[Interval(0.0, 1.0)], budget=1000)


class TestPiecewiseDomains:
    """Every model of a piecewise enclosure lives on the first one's domain."""

    @pytest.mark.parametrize("second", [
        Domain.of([(0.0, 2.0), (0.0, 1.0)], 4),
        Domain.of([(0.0, 1.0)] * 2, 5),
    ], ids=["wider-box", "more-branches"])
    def test_a_model_on_another_domain(self, second):
        first = Domain.of([(0.0, 1.0)] * 2, 4)
        img = sample_image(parse_vector(["x1", "x2"], 2), first.boxes, budget=100)
        models = [init_variable(first, 0), init_variable(second, 1)]
        with pytest.raises(DomainMismatch, match="models live on different domains"):
            hausdorff_piecewise(img, models, budget=1000)


class TestBruteForceRange:
    def test_worked_example(self):
        d = Domain.of([(0, 1), (0, 1)], branches=2)
        m = make_model(d, [[(1, 2), (3, 4)], [(0, 1), (-1, 0)]])
        assert brute_force_range(m) == (0.0, 5.0)

    def test_variable_model(self):
        d = Domain.of([(-3, 7)], branches=5)
        assert brute_force_range(init_variable(d, 0)) == (-3.0, 7.0)

    def test_agrees_with_row_bounder(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            base = random_model_for_atom(rng, Atom.SQR, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            for m in (base, compose(Atom.EXP, base)):  # the second has a non-zero constant
                rb = m.range_bounds()
                lo, hi = brute_force_range(m)
                assert math.isclose(lo, rb.lo, rel_tol=0, abs_tol=0) or abs(lo - rb.lo) <= math.ulp(abs(lo))
                assert hi == rb.hi or abs(hi - rb.hi) <= math.ulp(abs(hi))

    def test_budget(self):
        d = Domain.of([(0, 1)] * 4, branches=50)
        with pytest.raises(BudgetExceeded):
            brute_force_range(init_variable(d, 0), budget=10**5)


class TestViolationSearch:
    def test_negation_is_identically_zero(self):
        rng = np.random.default_rng(7)
        m = random_model_for_atom(rng, Atom.NEG, 3, 2)
        assert remainder_violation_search(Atom.NEG, m, trials=2000, seed=1) <= 0.0

    def test_square_bound_attained_at_corners(self):
        m = make_model(unit_domain(2, 1), [[(0.0, 1.0)], [(0.0, 1.0)]])
        gap = remainder_violation_search(Atom.SQR, m, trials=100, seed=2)
        assert -1e-12 <= gap <= 0.0  # corners reach the bound exactly

    def test_separable_models_have_zero_defect(self):
        rng = np.random.default_rng(9)
        for atom in Atom:
            m = random_separable_model(rng, atom, 3, 2)
            gap = remainder_violation_search(atom, m, trials=1000, seed=3)
            assert gap <= 0.0

    def test_sound_across_atoms(self):
        rng = np.random.default_rng(11)
        for atom in Atom:
            for trial in range(10):
                m = random_model_for_atom(rng, atom, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
                assert remainder_violation_search(atom, m, trials=3000, seed=trial) <= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        m = random_model_for_atom(rng, Atom.EXP, 3, 3)
        a = remainder_violation_search(Atom.EXP, m, trials=500, seed=42)
        b = remainder_violation_search(Atom.EXP, m, trials=500, seed=42)
        assert a == b


def test_oracle_imports_only_the_expression_interval_and_model_layers():
    # the oracle samples and scans; the checkers that need the composition
    # rules are test code (tests/reference.py)
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["isarith" if node.level else "", node.module]))
            names = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        imported |= {name.split(".")[1] for name in names if name.startswith("isarith.")}
    assert imported <= {"expr", "interval", "model"}, imported
