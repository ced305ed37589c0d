"""Write every deterministic output of isarith to a directory.

    python3 tools/fingerprint.py OUT_DIR

Imports isarith from src/ of the checkout this file sits in and writes the
three `experiment sweep` CSVs, `experiment recursion --depth 8`, three
`bound` outputs, `compare` on the showcase without its `wall_ms` column,
one line per task of the bench corpora of seeds 7 and 11: a digest of every
model's matrix bits, constant and range and of its values at every branch
endpoint of each axis and the box top, or the class of the exception, and
one line per oracle image that `experiment sweep` (its 120 default boxes) and
the bench `recursion` pass (depths 1-3, 10^5 points) sample: a digest of the
sampled points' bytes, which the CSVs, reading only hulls and distances,
would not show.
Run it on two checkouts; an empty `diff -r` of the two directories means no
output changed.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpus  # noqa: E402  (bench/corpus.py, read only)
from isarith import cli  # noqa: E402
from isarith.interval import Interval  # noqa: E402
from isarith.model import init_variable  # noqa: E402

BOUNDS = (
    (cli.SHOWCASE_EXPR, "x1=[0,10];x2=[0,20]", 100),
    ("cot(x1+1)*x2^4 - 1/(x1-3) + exp(-x2)*sin(3*x1*x2)*cos(x3) + sqrt(x3+1)/(x2+2)",
     "x1=[0,1];x2=[-1,2];x3=[0,4]", 8),
    ("1-x1+x2*(2-x1)-(x2-3)", "x1=[-1,0];x2=[-0.5,0.5]", 4),
)


def run(argv) -> str:
    """Standard output of one CLI call; a nonzero exit status is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status:
        raise SystemExit(f"isarith {' '.join(argv)} exited with {status}")
    return out.getvalue()


def probe_points(domain) -> list[list[float]]:
    """Every branch endpoint of each axis, then the box top, with the other
    coordinates at their lower ends: a shared endpoint's value shows which
    branch the lookup picked for it."""
    base = [box.lo for box in domain.boxes]
    points = []
    for i, box in enumerate(domain.boxes):
        for x in [*init_variable(domain, i).lo[i].tolist(), box.hi]:
            points.append(base[:i] + [x] + base[i + 1 :])
    return points


def digest(task: corpus.Task) -> str:
    """Digest of the models `isarith bound` builds for a task and of their
    values at the probe points."""
    h = hashlib.sha256()
    try:
        domain = cli.parse_domain_spec(task.spec, task.branches)
        e = cli.parse_vector(task.texts, task.arity)
        points = probe_points(domain)
        for m in cli.eval_ism(cli.self_compose(e, task.depth) if task.depth > 1 else e, domain):
            rb = m.range_bounds()
            ends = [m.const.lo, m.const.hi, rb.lo, rb.hi, *rb.row_lo, *rb.row_hi]
            values = [(v.lo, v.hi) for v in map(m.evaluate, points)]
            h.update(m.bounds.tobytes() + np.array(ends).tobytes() + np.array(values).tobytes())
    except (ArithmeticError, ValueError, cli.RemainderCapExceeded) as err:  # typed failures
        return type(err).__name__
    return h.hexdigest()


def sample_digests():
    """(name, digest of the sampled points or the exception class) of every
    image `run_sweep` with its defaults and `run_recursion(depth=3,
    grid_budget=10**5)` sample, in their order."""
    showcase = cli.parse(cli.SHOWCASE_EXPR, 2)
    images = [(f"sweep {x1_top:g} {float(x2_top)!r}", showcase,
               (Interval(0.0, float(x1_top)), Interval(0.0, float(x2_top))), cli.DEFAULT_BUDGET)
              for x1_top in cli.SWEEP_X1_TOPS for x2_top in np.geomspace(0.1, 20.0, 40)]
    base = cli.parse_vector(cli.RECURSION_TEXTS, 3)
    box = cli.parse_domain_spec(cli.RECURSION_DOMAIN, 20).boxes
    images += [(f"recursion {k}", cli.self_compose(base, k), box, 10**5) for k in (1, 2, 3)]
    for name, e, box, budget in images:
        try:
            points = cli.sample_image(e, box, budget=budget).points
        except (ArithmeticError, ValueError) as err:  # typed failures
            yield name, type(err).__name__
            continue
        yield name, hashlib.sha256(points.tobytes()).hexdigest()


def main(out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run(["experiment", "sweep", "--out", str(out)])
    run(["experiment", "recursion", "--depth", "8", "--out", str(out / "recursion_k8.csv")])
    for i, (text, spec, n) in enumerate(BOUNDS):
        (out / f"bound_{i}.txt").write_text(run(["bound", "--expr", text, "--domain", spec, "-N", str(n)]))
    showcase = ["--expr", cli.SHOWCASE_EXPR, "--domain", BOUNDS[0][1], "-N", "100"]
    compare = run(["compare", *showcase]).splitlines()
    if not compare[-2].endswith(",wall_ms"):
        raise SystemExit("compare: wall_ms is no longer the last column")
    lines = [s if s.startswith("#") else s.rsplit(",", 1)[0] for s in compare]
    (out / "compare_no_wall_ms.csv").write_text("\n".join(lines) + "\n")
    with open(out / "corpus.txt", "w", encoding="utf-8") as fh:
        for seed in (7, 11):
            for task in corpus.random_tasks(seed) + corpus.anchor_tasks():
                fh.write(f"{seed} {task.name} {digest(task)}\n")
    (out / "samples.txt").write_text("".join(f"{name} {d}\n" for name, d in sample_digests()))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
