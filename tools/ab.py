"""Interleaved A/B timing of a bench workload against another checkout.

    python3 tools/ab.py [--workload enclose|recursion|sweep] OTHER_CHECKOUT

Each side, this checkout and OTHER_CHECKOUT, runs in a worker process that
imports isarith from the side's src/ (the tool stops if it came from anywhere
else).  The sides take turns, flipping which goes first every time, and an
output that differs stops the tool.  A process stays a few percent faster or
slower than an identical one for life, so a fresh pair of workers, sharing
one random hash seed, takes over every few passes.

- `enclose` (5 pairs of 1 pass, the default): the bench corpus of seed 7,
  task by task, with the calls `isarith bound` makes; both sides must give
  the same bits (each model's matrix, constant and range, and the plain
  interval boxes) or the same exception.
- `recursion` (20 pairs of 10 passes): `run_recursion(depth=3, branches=20,
  grid_budget=10**5)`, the bench workload's pass, with `repr`-equal rows;
  each pass splits each side's milliseconds into kd-tree builds, exact (eps
  0) queries, approximate ones and the rest, next to the points queried each
  way, from a cKDTree subclass patched into each worker's oracle.
- `sweep` (10 pairs of 6 passes): `run_sweep(points=40, grid_budget=10**6)`
  in a fresh temporary directory; both sides must write byte-identical CSVs
  and the same warnings on standard error.

Each pass prints the time ratio this / other (below 1 where this checkout is
faster) and each worker's minor page faults (`ru_minflt`), a clue, not a
gate; the last lines give each side's median kd-tree split and the median
ratio with its quartiles, next to each side's median minor faults per pass,
where a change that maps fresh memory on every call shows at a glance.
Against a copy of itself on a noisy 2-vCPU guest the median ratio read 0.989
to 1.007 on `enclose`, 0.991 to 1.011 on `recursion` and 0.988 to 1.012 on
`sweep`.
"""

import argparse
import contextlib
import io
import multiprocessing
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PASSES = {"enclose": (5, 1), "recursion": (20, 10), "sweep": (10, 6)}  # worker pairs, passes per pair
SIDES = ("this", "other")


def count_queries(oracle) -> dict[str, float]:
    """Patch oracle.cKDTree with a subclass that adds up the seconds of tree
    builds, exact and approximate queries and the points each kind queries."""
    totals = dict.fromkeys(("build_s", "exact_s", "approx_s", "exact", "approx"), 0)

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


def tree_split(tally: dict[str, float]) -> dict[str, float]:
    """Milliseconds of a pass in tree builds, exact and approximate queries and the rest."""
    ms = {key: 1e3 * tally[f"{key}_s"] for key in ("build", "exact", "approx")}
    return {**ms, "rest": 1e3 * tally["seconds"] - sum(ms.values())}


def enclose(cli, task) -> tuple[float, str]:
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
    return time.perf_counter() - start, repr(parts)


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


def serve(src: Path, workload: str, tasks: list, conn) -> None:
    """A worker: import isarith from src, send None if it came from there, else
    the path it came from; then answer each task index until None with the
    output record and the call's seconds, minor faults and kd-tree totals."""
    sys.path.insert(0, str(src))  # ahead of the parent's path, which holds this checkout's src/
    import isarith
    from isarith import cli, oracle
    got, want = Path(isarith.__file__).resolve().parent, (src / "isarith").resolve()
    conn.send(None if got == want else f"imported isarith from {got}, not from {want}")
    run, totals = globals()[workload], count_queries(oracle)
    for i in iter(conn.recv, None):
        totals.update(dict.fromkeys(totals, 0))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds, record = run(cli, tasks[i])
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        conn.send((record, {**totals, "seconds": seconds, "faults": faults}))


@contextlib.contextmanager
def start_pair(workload: str, tasks: list, other: Path):
    """Start a worker per side on one fresh hash seed and check where each got
    isarith from; yield a run(k) that gives this and the other side's summed
    numbers of pass k.  Each worker is then sent None and joined."""
    os.environ["PYTHONHASHSEED"] = str(random.randrange(2**32))  # the workers inherit it
    spawn = multiprocessing.get_context("spawn")
    conns, workers = {}, []
    try:
        for side, checkout in zip(SIDES, (ROOT, other)):
            conns[side], child = spawn.Pipe()
            workers.append(spawn.Process(target=serve, args=(checkout / "src", workload, tasks, child)))
            workers[-1].start()
            child.close()  # so that a worker's exit ends the parent's recv
        for side, conn in conns.items():
            if (wrong := conn.recv()) is not None:
                raise SystemExit(f"{side} side: {wrong}")

        def run(k: int) -> dict[str, Counter]:
            tally = {side: Counter() for side in SIDES}
            for i, task in enumerate(tasks):
                out = {}
                for side in SIDES if (i + k) % 2 == 0 else SIDES[::-1]:  # who goes first flips
                    conns[side].send(i)
                    out[side], numbers = conns[side].recv()
                    tally[side].update(numbers)
                if out["this"] != out["other"]:
                    raise SystemExit(f"task {i} ({getattr(task, 'name', workload)}): the outputs differ")
            return tally["this"], tally["other"]

        run(0), run(1)  # warm both sides up
        yield run
    finally:
        for conn, worker in zip(conns.values(), workers):
            with contextlib.suppress(OSError):
                conn.send(None)
            worker.join()


def main() -> None:
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("--workload", choices=("enclose", "recursion", "sweep"), default="enclose")
    parser.add_argument("other")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]  # the workers inherit it
    tasks, (pairs, per_pair) = [None], PASSES[args.workload]
    if args.workload == "enclose":
        import corpus  # bench/corpus.py, read only
        # plain namespaces, which a worker unpickles without importing isarith
        tasks = [SimpleNamespace(**vars(t), arity=t.arity) for t in corpus.random_tasks(7) + corpus.anchor_tasks()]
    ratios, splits, faults = [], {side: [] for side in SIDES}, {side: [] for side in SIDES}
    for pair in range(pairs):
        with start_pair(args.workload, tasks, Path(args.other).resolve()) as run:
            for this, other in map(run, range(pair * per_pair, (pair + 1) * per_pair)):
                ratios.append(this["seconds"] / other["seconds"])
                for side, tally in zip(SIDES, (this, other)):
                    faults[side].append(tally["faults"])
                print(f"pass {len(ratios)}: this {this['seconds']:.3f} s, other {other['seconds']:.3f} s, ratio "
                      f"{ratios[-1]:.4f}, minor faults this {this['faults']} / other {other['faults']}", flush=True)
                if any(t["exact"] or t["approx"] for t in (this, other)):
                    for side, tally in zip(SIDES, (this, other)):
                        splits[side].append(tree_split(tally))
                    print("  kd-tree ms, this / other: " + ", ".join(
                        f"{key} {splits['this'][-1][key]:.1f} / {splits['other'][-1][key]:.1f}"
                        for key in ("build", "exact", "approx", "rest")), flush=True)
                    print(f"  kd query points, this / other: exact {this['exact']} / {other['exact']}, "
                          f"approx {this['approx']} / {other['approx']}", flush=True)
    for side, split in splits.items():
        if split:
            print(f"median ms of {side}: " + ", ".join(f"{key} {statistics.median(s[key] for s in split):.1f}"
                                                       for key in ("build", "exact", "approx", "rest")))
    low, median, high = statistics.quantiles(ratios, n=4)
    print(f"median ratio {median:.4f} (quartiles {low:.4f} to {high:.4f}) over {len(tasks)} tasks, "
          f"{len(ratios)} passes; median minor faults per pass this {statistics.median(faults['this']):g} "
          f"/ other {statistics.median(faults['other']):g}")


if __name__ == "__main__":
    main()
