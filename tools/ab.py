"""Interleaved A/B timing of a bench workload against another checkout.

    python3 tools/ab.py [--workload enclose|recursion|sweep] OTHER_CHECKOUT

Loads src/isarith of this checkout and of OTHER_CHECKOUT in one process, as
two packages with distinct names, and runs the workload on both sides
alternately, flipping which side goes first every time.

- `enclose` (the default) builds the bench corpus of seed 7 once
  (bench/corpus.py of this checkout) and bounds its tasks task by task with
  the calls `isarith bound` makes.  Every task must give both sides the same
  bits (each model's matrix, constant and range, and the plain interval
  boxes) or the same exception class.  Each of the PASSES (5) passes prints the
  time ratio this / other.
- `recursion` runs `run_recursion(depth=3, branches=20, grid_budget=10**5)`,
  the bench workload's pass, RECURSION_PASSES (20) times per side, pass by pass.
  Both sides must give `repr`-equal rows.  Each pass prints its time ratio
  and, for each side, the milliseconds its kd-trees spent in builds, exact
  (eps 0) queries and approximate ones, the rest of the pass, and the points
  queried exactly and approximately, all taken by a cKDTree subclass patched
  into each side's oracle.  The last lines give each side's median split.
- `sweep` runs `run_sweep(points=40, grid_budget=10**6)`, SWEEP_PASSES (30) times
  per side, pass by pass, each into a fresh temporary directory.  Both sides
  must write byte-identical CSVs and the same standard error, whose warnings
  name each cell that failed.  Each pass prints its time ratio.

A ratio below 1 means this checkout is faster.  Each pass also prints the
minor page faults of each side's runs (`ru_minflt`).  The last line gives the
median ratio and, around it, the lower and upper quartiles of the passes.

Both sides share one process and so one allocator, whose mmap threshold
and heap trimming adapt to the blocks freed, so one side's large arrays can
spare the other side's mid-sized temporaries a map and unmap per call.  A
change to what a side allocates can therefore read faster here than in a
process of its own: on a 2-vCPU guest, a variant of `sample_image` that kept
no lattice values read 0.796 on `sweep`, yet alone took 7.97 ms per call
against 5.75 ms, with 3,330 minor faults per call against 31.  Fault counts
far apart between the sides call for timing each side in its own process.

Alternating within one process cancels the drift of a shared host: on a
2-vCPU guest, passes of the same code took from 1.7 to 3.9 s across runs,
while the interleaved ratio of a checkout against a copy of itself read, per
workload:

- `enclose`: median 1.005, quartiles 0.999 to 1.009;
- `recursion`: medians 1.009 and 0.987 in two runs;
- `sweep`: quartiles 0.964 to 1.039, so a sweep difference of a few
  percent is within the spread.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PASSES = 5
RECURSION_PASSES = 20
SWEEP_PASSES = 30


def load(checkout: Path, name: str):
    """The cli module of checkout's src/isarith, imported as package name."""
    package = checkout / "src" / "isarith"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


TREE_KEYS = ("build_s", "exact_s", "approx_s", "exact", "approx")


def count_queries(oracle) -> dict[str, float]:
    """Patch the oracle module's cKDTree with a subclass that adds up the
    seconds spent in tree builds, in exact queries and in approximate ones,
    and the points of each kind of query; returns the running totals."""
    totals = dict.fromkeys(TREE_KEYS, 0)

    class CountingTree(oracle.cKDTree):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            totals["build_s"] += time.perf_counter() - start

        def query(self, x, *args, **kwargs):
            kind = "approx" if kwargs.get("eps", 0) else "exact"
            start = time.perf_counter()
            result = super().query(x, *args, **kwargs)
            totals[f"{kind}_s"] += time.perf_counter() - start
            totals[kind] += len(x)
            return result

    oracle.cKDTree = CountingTree
    return totals


def tree_split(totals: dict[str, float], spent: float) -> dict[str, float]:
    """Milliseconds of a pass in tree builds, exact and approximate queries
    and the rest of the pass."""
    ms = {key: 1e3 * totals[f"{key}_s"] for key in ("build", "exact", "approx")}
    return {**ms, "rest": 1e3 * spent - sum(ms.values())}


def bound(cli, task) -> tuple[float, bytes | str]:
    """Seconds taken and a bit-exact record of what `isarith bound` builds."""
    start = time.perf_counter()
    domain = cli.parse_domain_spec(task.spec, task.branches)
    e = cli.parse_vector(task.texts, task.arity)
    if task.depth > 1:
        e = cli.self_compose(e, task.depth)
    parts: list = []
    try:
        for m in cli.eval_ism(e, domain):
            rb = m.range_bounds()
            ends = [m.const.lo, m.const.hi, rb.lo, rb.hi, *rb.row_lo, *rb.row_hi]
            parts += [m.bounds.tobytes(), np.array(ends).tobytes()]
    except (ArithmeticError, ValueError) as err:
        parts.append(type(err).__name__)
    try:
        parts.append(np.array([(b.lo, b.hi) for b in cli.eval_interval(e, domain.boxes)]).tobytes())
    except (ArithmeticError, ValueError) as err:
        parts.append(type(err).__name__)
    elapsed = time.perf_counter() - start
    return elapsed, repr(parts)


def recursion(cli, task=None) -> tuple[float, str]:
    """Seconds taken and the rows of the bench `recursion` workload's pass."""
    start = time.perf_counter()
    rows = cli.run_recursion(depth=3, branches=20, grid_budget=10**5)
    return time.perf_counter() - start, repr(rows)


def sweep(cli, task=None) -> tuple[float, str]:
    """Seconds taken, and the CSV bytes and standard error of one sweep."""
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        paths = cli.run_sweep(out, points=40, grid_budget=10**6)
        elapsed = time.perf_counter() - start
        csvs = [(Path(p).name, Path(p).read_bytes()) for p in paths]
    return elapsed, repr((csvs, err.getvalue()))


def main() -> None:
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("--workload", choices=("enclose", "recursion", "sweep"), default="enclose")
    parser.add_argument("other")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    if args.workload == "enclose":
        import corpus  # bench/corpus.py, read only

        tasks, run, passes = corpus.random_tasks(7) + corpus.anchor_tasks(), bound, PASSES
    elif args.workload == "recursion":
        tasks, run, passes = [None], recursion, RECURSION_PASSES
    else:
        tasks, run, passes = [None], sweep, SWEEP_PASSES
    this, other = load(ROOT, "isarith_this"), load(Path(args.other).resolve(), "isarith_other")
    counts = {side: count_queries(importlib.import_module(f"isarith_{side}.oracle"))
              for side in ("this", "other")}
    for _ in range(2):  # warm both sides up
        for task in tasks[:20]:
            run(this, task), run(other, task)
    ratios, splits = [], {"this": [], "other": []}
    for k in range(passes):
        spent = {"this": 0.0, "other": 0.0}
        faults = {"this": 0, "other": 0}
        for c in counts.values():
            c.update(dict.fromkeys(TREE_KEYS, 0))
        for i, task in enumerate(tasks):
            order = (("this", this), ("other", other)) if (i + k) % 2 == 0 else (("other", other), ("this", this))
            out = {}
            for side, cli in order:
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                seconds, out[side] = run(cli, task)
                faults[side] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
                spent[side] += seconds
            if out["this"] != out["other"]:
                raise SystemExit(f"task {i} ({getattr(task, 'name', args.workload)}): the outputs differ")
        ratios.append(spent["this"] / spent["other"])
        print(f"pass {k + 1}: this {spent['this']:.3f} s, other {spent['other']:.3f} s, "
              f"ratio {ratios[-1]:.4f}, minor faults this {faults['this']} / other {faults['other']}",
              flush=True)
        if any(c["exact"] or c["approx"] for c in counts.values()):
            for side in splits:
                splits[side].append(tree_split(counts[side], spent[side]))
            print("  kd-tree ms, this / other: " + ", ".join(
                f"{key} {splits['this'][-1][key]:.1f} / {splits['other'][-1][key]:.1f}"
                for key in ("build", "exact", "approx", "rest")), flush=True)
            print("  kd query points, this / other: exact {} / {}, approx {} / {}".format(
                counts["this"]["exact"], counts["other"]["exact"],
                counts["this"]["approx"], counts["other"]["approx"]), flush=True)
    for side, split in splits.items():
        if split:
            print(f"median ms of {side}: " + ", ".join(
                f"{key} {statistics.median(s[key] for s in split):.1f}"
                for key in ("build", "exact", "approx", "rest")))
    low, median, high = statistics.quantiles(ratios, n=4)
    print(f"median ratio {median:.4f} (quartiles {low:.4f} to {high:.4f}) over {len(tasks)} tasks, "
          f"{passes} passes")


if __name__ == "__main__":
    main()
