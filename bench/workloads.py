"""The three workloads.

Each workload builds its inputs from the seed when it is constructed (that is
its set-up), runs one pass of work per ``run_pass`` call and returns the
(start, end) clock readings of every task in the pass, and checks the outputs
outside the timed section.  A pass is one closed loop: each task starts when
the previous one ended.  Given a ``speed.Speed``, a pass reads its clock and
lets it probe the host at task boundaries and at the listed call sites.

* ``enclose`` bounds a seeded corpus of expressions the way ``isarith bound``
  does: parse, eval_ism, eval_interval, range_bounds.  One task is one
  expression.
* ``sweep`` calls ``cli.run_sweep`` with its defaults.  One task is one row of
  the sweep; rows are told apart by the time ``run_sweep`` asks for the row's
  oracle sample.
* ``recursion`` calls ``cli.run_recursion`` at depth 3, N=20 and a 10^5-point
  grid.  One task is one depth; depths are told apart by the time
  ``run_recursion`` starts the depth's ``eval_ism``.
"""

from __future__ import annotations

import csv
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from isarith import cli, expr, oracle
from isarith.interval import DomainViolation, Interval
from isarith.model import Domain, RangeBounds, SuperpositionModel

import corpus
from spans import Tracer, patched
from speed import Speed

CHECK_POINTS = 16
# c1's band for the showcase width ratio at N=100 on [0,10] x [0,20]
SHOWCASE_RATIO_BAND = (1.45, 1.80)
MONOTONE_SLACK = 1e-12


@dataclass
class Quality:
    """Tightness of the enclosures a pass produced."""

    width_ratio: float
    dH_isa_mean: float
    dH_ia_mean: float


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def clock_of(speed: Speed | None):
    return time.perf_counter if speed is None else speed.now


def task_marks(name: str, marks: list[float], tracer: Tracer | None, speed: Speed | None,
               probe_at: tuple[str, ...] = ()):
    """Timestamp every call of cli.<name>, which starts a new task.  With a
    speed probe, let it probe before those calls and before every call of
    cli.<probe_at>."""
    clock = clock_of(speed)

    def marked(inner):
        def call(*args, **kwargs):
            if speed is not None:
                speed.maybe_probe()
            marks.append(clock())
            if tracer is not None:
                tracer.task += 1
            return inner(*args, **kwargs)

        return call

    def probed(inner):
        def call(*args, **kwargs):
            speed.maybe_probe()
            return inner(*args, **kwargs)

        return call

    swaps = [(cli, name, marked(getattr(cli, name)))]
    if speed is not None:
        swaps += [(cli, other, probed(getattr(cli, other))) for other in probe_at]
    return patched(swaps)


def probing_tree(speed: Speed):
    """cKDTree whose queries first let the speed probe run if it is due."""

    class ProbingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            speed.maybe_probe()
            return super().query(x, *args, **kwargs)

    return ProbingTree


def task_spans(start: float, marks: list[float], end: float) -> list[tuple[float, float]]:
    """Tasks run from one task start to the next.  The first mark comes just
    after the call started, inside the first task."""
    bounds = [start] + marks[1:] + [end]
    return list(zip(bounds[:-1], bounds[1:]))


def durations(spans: list[tuple[float, float]]) -> list[float]:
    return [end - start for start, end in spans]


class Workload:
    name = ""
    #: speed.py kernels that probe the host: the kinds of work the workload does
    PROBE_KERNELS = ("py", "np", "kd")

    def __init__(self, seed: int, toy: bool, out_dir: Path):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: list[str] = []

    def run_pass(self, tracer: Tracer | None, speed: Speed | None = None) -> list[tuple[float, float]]:
        raise NotImplementedError

    def quality(self) -> Quality:
        raise NotImplementedError

    def error(self, message: str) -> None:
        self.errors.append(message)


@dataclass
class _Bound:
    domain: Domain
    e: expr.Expr
    models: tuple[SuperpositionModel, ...] | None
    bounds: list[RangeBounds] | None
    boxes: tuple[Interval, ...] | None


def _bound(task: corpus.Task) -> _Bound:
    """The calls `isarith bound` makes, looked up on isarith.cli."""
    domain = cli.parse_domain_spec(task.spec, task.branches)
    if len(task.texts) == 1:
        e = cli.parse(task.texts[0], task.arity)
    else:
        e = cli.parse_vector(task.texts, task.arity)
    if task.depth > 1:
        e = cli.self_compose(e, task.depth)
    try:
        models = cli.eval_ism(e, domain)
    except (DomainViolation, OverflowError):
        models = None
    try:
        boxes = cli.eval_interval(e, domain.boxes)
    except (DomainViolation, OverflowError):
        boxes = None
    bounds = None if models is None else [m.range_bounds() for m in models]
    return _Bound(domain, e, models, bounds, boxes)


class Enclose(Workload):
    name = "enclose"

    def __init__(self, seed: int, toy: bool, out_dir: Path):
        super().__init__(seed, toy, out_dir)
        if toy:
            self.tasks = corpus.random_tasks(seed, blocks=1, per_block={16: 2}, arities=(1, 2))
            self.tasks += corpus.anchor_tasks()[:1]
        else:
            self.tasks = corpus.random_tasks(seed) + corpus.anchor_tasks()
        self._first: dict[int, tuple] = {}
        self._ratios: list[float] = []
        self._showcase: list[_Bound] = []

    def run_pass(self, tracer: Tracer | None, speed: Speed | None = None) -> list[tuple[float, float]]:
        clock = clock_of(speed)
        spans = []
        for i, task in enumerate(self.tasks):
            if speed is not None:
                speed.maybe_probe()
            if tracer is None:
                start = clock()
                out = _bound(task)
            else:
                tracer.task = i
                start = clock()
                out = tracer.call("bench.bound", _bound, task)
            spans.append((start, clock()))
            self._check(i, task, out)
        return spans

    def _check(self, i: int, task: corpus.Task, out: _Bound) -> None:
        self.attempted += 1
        if out.boxes is None:
            self.error(f"{task.name}: interval evaluation failed on a domain-safe expression")
            return
        if out.models is None:
            self.failed += 1
        key = (None if out.bounds is None else tuple((b.lo, b.hi) for b in out.bounds),
               tuple((b.lo, b.hi) for b in out.boxes))
        if i in self._first:
            if self._first[i] != key:
                self.error(f"{task.name}: bounds differ between passes")
            return
        self._first[i] = key
        rng = np.random.default_rng([self.seed, i])
        lo = [b.lo for b in out.domain.boxes]
        hi = [b.hi for b in out.domain.boxes]
        for x in map(tuple, rng.uniform(lo, hi, size=(CHECK_POINTS, len(lo)))):
            for j, v in enumerate(expr.eval_point(out.e, x)):
                if not out.boxes[j].contains(v):
                    self.error(f"{task.name}: f{j}({x}) = {v} escapes the interval box")
                if out.models is None:
                    continue
                if not (out.bounds[j].lo <= v <= out.bounds[j].hi):
                    self.error(f"{task.name}: f{j}({x}) = {v} escapes the range bounds")
                if not out.models[j].evaluate(x).contains(v):
                    self.error(f"{task.name}: f{j}({x}) = {v} escapes the model value")
        if out.models is not None:
            self._ratios.extend(
                (b.hi - b.lo) / (box.hi - box.lo) for b, box in zip(out.bounds, out.boxes)
            )
            if task.name.startswith("showcase"):
                self._showcase.append(out)

    def quality(self) -> Quality:
        """width_ratio over every bounded output; the distances over the
        showcase anchors against a 1000 x 1000 grid of the same box."""
        if not self._showcase:
            raise RuntimeError("no showcase anchor was bounded")
        first = self._showcase[0]
        img = cli.sample_image(first.e, first.domain.boxes, grid=1000, budget=10**6)
        hull = img.per_axis_hull[0]
        d_isa = [max(hull.lo - b.bounds[0].lo, b.bounds[0].hi - hull.hi) for b in self._showcase]
        d_ia = [max(hull.lo - b.boxes[0].lo, b.boxes[0].hi - hull.hi) for b in self._showcase]
        return Quality(_geomean(self._ratios), statistics.fmean(d_isa), statistics.fmean(d_ia))


class Sweep(Workload):
    name = "sweep"

    def __init__(self, seed: int, toy: bool, out_dir: Path):
        super().__init__(seed, toy, out_dir)
        self.points = 2 if toy else 40
        self.grid = 10**4 if toy else 10**6
        self.rows_expected = 3 * self.points
        self.csv_dir = out_dir / f"sweep-seed{seed}"
        self._first: list[str] | None = None
        self._rows: list[dict] = []

    def run_pass(self, tracer: Tracer | None, speed: Speed | None = None) -> list[tuple[float, float]]:
        marks: list[float] = []
        clock = clock_of(speed)
        with task_marks("sample_image", marks, tracer, speed):
            start = clock()
            if tracer is None:
                paths = cli.run_sweep(str(self.csv_dir), points=self.points,
                                      grid_budget=self.grid, seed=self.seed)
            else:
                paths = tracer.call("cli.run_sweep", cli.run_sweep, str(self.csv_dir),
                                    points=self.points, grid_budget=self.grid, seed=self.seed)
            end = clock()
        self._check(paths)
        return task_spans(start, marks, end)

    def _check(self, paths) -> None:
        texts = [Path(p).read_text(encoding="utf-8") for p in paths]
        if self._first is not None:
            if texts != self._first:
                self.error("sweep CSVs differ between passes")
            self.attempted += len(self._rows)
            self.failed += sum(any(v == "" for v in r.values()) for r in self._rows)
            return
        self._first = texts
        for text in texts:
            lines = [line for line in text.splitlines() if not line.startswith("#")]
            self._rows.extend(csv.DictReader(lines))
        self.attempted += len(self._rows)
        if len(self._rows) != self.rows_expected:
            self.error(f"sweep wrote {len(self._rows)} rows, expected {self.rows_expected}")
        violations = 0
        for row in self._rows:
            if any(v == "" for v in row.values()):
                self.failed += 1
                continue
            d1, d10, d100 = (float(row[k]) for k in ("dH_isa_N1", "dH_isa_N10", "dH_isa_N100"))
            if not (d100 <= d10 + MONOTONE_SLACK and d10 <= d1 + MONOTONE_SLACK):
                violations += 1
        if violations:
            self.error(f"{violations} sweep rows get worse with more branches")
        self.notes.append(f"sweep rows {len(self._rows)}, branch-monotonicity violations {violations}")

    def quality(self) -> Quality:
        done = [r for r in self._rows if all(v != "" for v in r.values())]
        isa = [float(r["dH_isa_N100"]) for r in done]
        ia = [float(r["dH_ia"]) for r in done]
        return Quality(_geomean(a / b for a, b in zip(isa, ia)), statistics.fmean(isa), statistics.fmean(ia))


class Recursion(Workload):
    name = "recursion"
    # its time is the oracle's many small numpy calls and kd-tree queries; of
    # the kernels, the numpy one follows the host's speed there most closely
    PROBE_KERNELS = ("np",)
    # a depth takes seconds, so the host is probed inside it too: before the
    # depth's other stages and before each kd-tree query of the oracle scans
    PROBE_AT = ("eval_interval", "self_compose", "sample_image", "hausdorff_piecewise",
                "hausdorff_enclosure")

    def __init__(self, seed: int, toy: bool, out_dir: Path):
        super().__init__(seed, toy, out_dir)
        self.depth = 2 if toy else 3
        self.branches = 8 if toy else 20
        self.grid = 10**4 if toy else 10**5
        self._first: list | None = None

    def run_pass(self, tracer: Tracer | None, speed: Speed | None = None) -> list[tuple[float, float]]:
        marks: list[float] = []
        clock = clock_of(speed)
        kwargs = dict(depth=self.depth, branches=self.branches, grid_budget=self.grid, seed=self.seed)
        trees = [] if speed is None else [(oracle, "cKDTree", probing_tree(speed))]
        with task_marks("eval_ism", marks, tracer, speed, probe_at=self.PROBE_AT), patched(trees):
            start = clock()
            if tracer is None:
                rows = cli.run_recursion(**kwargs)
            else:
                rows = tracer.call("cli.run_recursion", cli.run_recursion, **kwargs)
            end = clock()
        self._check(rows)
        return task_spans(start, marks, end)

    def _check(self, rows) -> None:
        self.attempted += len(rows)
        self.failed += sum(any(v is None for v in row) for row in rows)
        if self._first is not None:
            if rows != self._first:
                self.error("recursion rows differ between passes")
            return
        self._first = rows
        if len(rows) != self.depth:
            self.error(f"recursion returned {len(rows)} depths, expected {self.depth}")
        for row in rows:
            k, d_isa, d_ia = row[:3]
            if d_isa is None or d_ia is None:
                self.error(f"depth {k} failed")
            elif k >= 2 and not d_isa <= d_ia:
                self.error(f"depth {k}: dH_isa {d_isa} > dH_ia {d_ia}")
        self.notes.append("recursion dH_isa/dH_ia per depth: " + ", ".join(
            f"k={r[0]}: {r[1]!r}/{r[2]!r}" for r in rows))

    def quality(self) -> Quality:
        done = [r for r in self._first if r[1] is not None and r[2] is not None]
        isa = [r[1] for r in done]
        ia = [r[2] for r in done]
        return Quality(_geomean(a / b for a, b in zip(isa, ia)), statistics.fmean(isa), statistics.fmean(ia))


WORKLOADS = {w.name: w for w in (Enclose, Sweep, Recursion)}


def showcase_width_ratio(seed: int) -> float:
    """c1's headline: ISA width over the grid oracle's width, showcase at
    N=100 on [0,10] x [0,20] with a 10^6-point grid."""
    cfg = cli.RunConfig(expr=cli.SHOWCASE_EXPR, domain="x1=[0,10];x2=[0,20]", branches=100,
                        grid=10**6, seed=seed, out=None, depth=1)
    row = cli.run_compare(cfg)
    return (row["isa_hi"] - row["isa_lo"]) / (row["oracle_hi"] - row["oracle_lo"])
