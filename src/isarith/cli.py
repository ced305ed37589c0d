"""Command-line interface: one-shot bounding, enclosure comparison, and the
two benchmark experiments as CSV plot data.

Commands::

    isarith bound --expr "exp(x1)" --domain "x1=[0,1]" -N 4
    isarith compare --expr "..." --domain "..." -N 64 [--out file.csv]
    isarith experiment sweep --out DIR [--points 40] [--grid 1000000]
    isarith experiment recursion [--depth 8] [--out file.csv]

CSV files are UTF-8 with comma separators and a dot decimal point; lines
starting with '#' carry the full configuration (seed, branch count, grid
budget, tool version) so identical configurations reproduce identical bytes.

Domain specs look like "x1=[0,1];x2=[0,2*pi]": endpoints accept the same
numeric syntax as expressions, including 'pi' and 'e'.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .bivariate import RemainderCapExceeded
from .expr import _NUMBER, ParseError, eval_interval, eval_ism, parse, parse_vector, self_compose
from .interval import DomainViolation, Interval
from .model import Domain
from .oracle import (
    DEFAULT_BUDGET,
    SampleInaccurate,
    SoundnessViolation,
    hausdorff_enclosure,
    hausdorff_piecewise,
    sample_image,
)

#: Wide-domain showcase function used by the sweep experiment, with the
#: sweep's first-axis tops (one CSV each) and branch counts (one column each).
SHOWCASE_EXPR = "exp(sin(x1)+sin(x2)*cos(x2))"
SWEEP_X1_TOPS = (0.1, 1.0, 10.0)
SWEEP_BRANCH_COUNTS = (1, 10, 100)

#: Three-component contractive map iterated by the recursion experiment
#: (coefficients 0.1 and 0.2 wired in).
RECURSION_TEXTS = (
    "0.1*(exp(-sin(4*x1)+x2-x2^2-x1^2)-1)",
    "0.1*cos(10*x2+0.2*tan(0.2*x3))-0.4*x2^2",
    "0.01*sin(cos(x3))",
)
RECURSION_DOMAIN = "x1=[-0.25*pi,0.25*pi];x2=[-0.5*pi,0.5*pi];x3=[-0.5*pi,0.5*pi]"

_EXIT_USAGE = 2
_EXIT_UNSOUND = 3


_SIGNED_NUMBER = re.compile("-?" + _NUMBER)


def _const_eval(text: str) -> float:
    """Value of a constant expression.  A plain decimal literal skips the
    parser when its float is finite and nonzero; that is the value the parser
    folds it to, while it turns -0.0 into 0.0 and 1e999 into OverflowError."""
    text = text.strip()
    if _SIGNED_NUMBER.fullmatch(text):
        v = float(text)
        if v != 0.0 and math.isfinite(v):
            return v
    e = parse(text, arity=0)
    return e.nodes[e.outputs[0]][1]


def parse_domain_spec(spec: str, branches: int) -> Domain:
    """Parse "x1=[a,b];x2=[c,d];..." into a branched domain."""
    bounds: dict[int, tuple[float, float]] = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, rest = part.partition("=")
        name = name.strip()
        rest = rest.strip()
        if not (name.startswith("x") and name[1:].isdigit() and int(name[1:]) >= 1):
            raise ValueError(f"bad axis name {name!r} in domain spec")
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ValueError(f"axis {name}: expected [lo,hi], got {rest!r}")
        axis = int(name[1:])
        if axis in bounds:
            raise ValueError(f"axis {name} given twice")
        lo_text, _, hi_text = rest[1:-1].partition(",")
        bounds[axis] = (_const_eval(lo_text), _const_eval(hi_text))
    if not bounds:
        raise ValueError("empty domain spec")
    n = max(bounds)
    missing = [i for i in range(1, n + 1) if i not in bounds]
    if missing:
        raise ValueError(f"domain spec misses x{missing[0]}")
    return Domain.of([bounds[i] for i in range(1, n + 1)], branches)


@dataclass(frozen=True)
class RunConfig:
    expr: str
    domain: str
    branches: int
    grid: int
    seed: int
    out: str | None
    depth: int


def _emit(out: str | None, meta: dict, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write a CSV with its '#' metadata lines to stdout, or to the file out."""
    lines = [f"# {key}={value}" for key, value in meta.items()] + [",".join(header)]
    for row in rows:
        cells = ("" if v is None else (repr(v) if isinstance(v, float) else str(v)) for v in row)
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _base_meta(args: RunConfig | argparse.Namespace) -> dict:
    return {
        "version": __version__,
        "seed": args.seed,
        "branches": args.branches,
        "grid_budget": args.grid,
    }


def cmd_bound(args: argparse.Namespace) -> int:
    _require_inputs(args)
    domain = parse_domain_spec(args.domain, args.branches)
    e = parse(args.expr, domain.dim)
    models = eval_ism(e, domain)
    boxes = eval_interval(e, domain.boxes)
    for i, (m, box) in enumerate(zip(models, boxes)):
        rb = m.range_bounds()
        tag = "" if len(models) == 1 else f"[{i}] "
        print(f"{tag}isa {rb.lo!r} {rb.hi!r}")
        print(f"{tag}ia {box.lo!r} {box.hi!r}")
    return 0


def run_compare(cfg: RunConfig) -> dict:
    """One comparison row: superposition vs plain interval bounds vs a grid
    oracle, with overestimation distances for both enclosures."""
    start = time.perf_counter()
    domain = parse_domain_spec(cfg.domain, cfg.branches)
    e = parse(cfg.expr, domain.dim)
    model = eval_ism(e, domain)[0]
    rb = model.range_bounds()
    ia = eval_interval(e, domain.boxes)[0]
    img = sample_image(e, domain.boxes, budget=cfg.grid)
    d_isa = hausdorff_enclosure(img, [Interval(rb.lo, rb.hi)], budget=cfg.grid)
    d_ia = hausdorff_enclosure(img, [ia], budget=cfg.grid)
    hull = img.per_axis_hull[0]
    return {
        "expr": cfg.expr,
        "N": cfg.branches,
        "seed": cfg.seed,
        "isa_lo": rb.lo,
        "isa_hi": rb.hi,
        "ia_lo": ia.lo,
        "ia_hi": ia.hi,
        "oracle_lo": hull.lo,
        "oracle_hi": hull.hi,
        "dH_isa": d_isa,
        "dH_ia": d_ia,
        "wall_ms": round((time.perf_counter() - start) * 1e3, 3),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    _require_inputs(args)
    # compare takes no --depth, so its config has none
    cfg = RunConfig(**{name: getattr(args, name, None) for name in RunConfig.__dataclass_fields__})
    row = run_compare(cfg)
    header = list(row.keys())
    _emit(cfg.out, _base_meta(cfg) | {"expr": cfg.expr, "domain": cfg.domain}, header, [list(row.values())])
    return 0


def run_sweep(
    out_dir: str,
    *,
    points: int = 40,
    grid_budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> list[Path]:
    """Sweep the second axis top over a log grid for each first-axis top and
    record the overestimation distance per branch count plus the plain
    interval baseline.  One CSV per first-axis top."""
    if points < 1:
        raise ValueError(f"points must be positive, got {points}")
    e = parse(SHOWCASE_EXPR, 2)
    x2_tops = np.geomspace(0.1, 20.0, points)
    written: list[Path] = []
    for x1_top in SWEEP_X1_TOPS:
        rows = []
        for x2_top in x2_tops:
            box = (Interval(0.0, float(x1_top)), Interval(0.0, float(x2_top)))
            row: list[object] = [float(x2_top)]
            try:
                img = sample_image(e, box, budget=grid_budget)
            except (DomainViolation, OverflowError) as err:
                print(f"warning: oracle failed at x2max={x2_top}: {err}", file=sys.stderr)
                rows.append(row + [None] * (len(SWEEP_BRANCH_COUNTS) + 1))
                continue
            for cap in SWEEP_BRANCH_COUNTS:
                try:
                    m = eval_ism(e, Domain.of(box, cap))[0]
                    rb = m.range_bounds()
                    row.append(hausdorff_enclosure(img, [Interval(rb.lo, rb.hi)], budget=grid_budget))
                except (DomainViolation, OverflowError, SampleInaccurate) as err:
                    print(f"warning: N={cap} failed at x2max={x2_top}: {err}", file=sys.stderr)
                    row.append(None)
            try:
                ia = eval_interval(e, box)[0]
                row.append(hausdorff_enclosure(img, [ia], budget=grid_budget))
            except (DomainViolation, OverflowError, SampleInaccurate) as err:
                print(f"warning: interval baseline failed at x2max={x2_top}: {err}", file=sys.stderr)
                row.append(None)
            rows.append(row)
        path = Path(out_dir) / f"sweep_x1max_{x1_top:g}.csv"
        meta = {
            "version": __version__,
            "seed": seed,
            "expr": SHOWCASE_EXPR,
            "x1max": f"{x1_top:g}",
            "grid_budget": grid_budget,
            "branch_counts": " ".join(str(c) for c in SWEEP_BRANCH_COUNTS),
        }
        header = ["x2max"] + [f"dH_isa_N{c}" for c in SWEEP_BRANCH_COUNTS] + ["dH_ia"]
        _emit(str(path), meta, header, rows)
        written.append(path)
    return written


def cmd_sweep(args: argparse.Namespace) -> int:
    for path in run_sweep(args.out, points=args.points, grid_budget=args.grid, seed=args.seed):
        print(path)
    return 0


def _widen_thin(boxes: Sequence[Interval]) -> list[Interval]:
    """Pad collapsed axes so a branched domain over them stays valid."""
    out = []
    for b in boxes:
        pad = max(1e-9, 8 * math.ulp(max(abs(b.lo), abs(b.hi), 1.0)))
        out.append(Interval(b.lo - pad, b.hi + pad) if b.hi - b.lo < pad else b)
    return out


def run_recursion(
    *,
    depth: int = 10,
    branches: int = 20,
    grid_budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    domain_spec: str = RECURSION_DOMAIN,
) -> list[list]:
    """Iterate the bundled three-component map set-to-set and record, per
    depth, the overestimation of both enclosure chains against a grid oracle,
    plus the oracle hull per component.

    The superposition chain re-initializes each stage on the previous stage's
    range box, so branch resolution follows the contracting iterates, and it
    never carries a range looser than the plain interval evaluation of the
    same stage (the usual trivial-bound intersection).  Its distance is
    measured on the pointwise cell union, which is the set the models actually
    describe.  The baseline chain iterates plain interval evaluation on its
    own boxes.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    base = parse_vector(RECURSION_TEXTS, 3)
    # scanning enclosures is cheaper than sampling the image, so the scan
    # lattices get a smaller slice of the point budget
    scan_budget = min(grid_budget, 200_000)
    domain0 = parse_domain_spec(domain_spec, branches)
    isa_boxes = list(domain0.boxes)
    ia_boxes = list(domain0.boxes)
    rows: list[list] = []
    for k in range(1, depth + 1):
        row: list[object] = [k]
        try:
            stage = Domain.of(_widen_thin(isa_boxes), branches)
            models = eval_ism(base, stage)
            stage_trivial = eval_interval(base, stage.boxes)
            carried = []
            for m, g in zip(models, stage_trivial):
                rb = m.range_bounds()
                lo, hi = max(rb.lo, g.lo), min(rb.hi, g.hi)
                if lo > hi:  # both enclose the stage image, so never disjoint
                    raise SoundnessViolation(
                        f"stage {k}: range [{rb.lo}, {rb.hi}] disjoint from "
                        f"trivial bound [{g.lo}, {g.hi}]"
                    )
                carried.append(Interval(lo, hi))
            isa_boxes = carried
            ia_boxes = list(eval_interval(base, ia_boxes))
            flat = self_compose(base, k)
            img = sample_image(flat, domain0.boxes, budget=grid_budget)
            row.append(hausdorff_piecewise(img, models, clip=stage_trivial, budget=scan_budget))
            row.append(hausdorff_enclosure(img, ia_boxes, budget=scan_budget))
            for hull in img.per_axis_hull:
                row.extend([hull.lo, hull.hi])
        except (DomainViolation, OverflowError, SampleInaccurate) as err:
            print(f"warning: depth {k} failed: {err}", file=sys.stderr)
            row.extend([None] * 8)
        rows.append(row)
    return rows


def cmd_recursion(args: argparse.Namespace) -> int:
    rows = run_recursion(depth=args.depth, branches=args.branches, grid_budget=args.grid,
                         seed=args.seed, domain_spec=args.domain)
    header = ["k", "dH_isa", "dH_ia"] + [f"oracle_{side}_{i}" for i in (1, 2, 3) for side in ("lo", "hi")]
    _emit(args.out, _base_meta(args) | {"domain": args.domain, "depth": args.depth}, header, rows)
    return 0


#: Every command flag by destination, with its default.
_FLAGS = {
    "expr": (("--expr",), {"help": "expression text"}),
    "domain": (("--domain",), {"help": "domain spec x1=[a,b];..."}),
    "branches": (("-N", "--branches"), {"type": int, "default": 16}),
    "grid": (("--grid",), {"type": int, "default": DEFAULT_BUDGET, "help": "oracle point budget"}),
    "seed": (("--seed",), {"type": int, "default": 0}),
    "out": (("--out",), {"help": "output file (or directory for sweep)"}),
    "depth": (("--depth",), {"type": int, "default": 10, "help": "recursion depth"}),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isarith",
        description="Branched interval enclosures for factorable functions",
    )
    p.add_argument("--version", action="version", version=f"isarith {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def flags(sp, *dests, **defaults):
        for dest in dests:
            names, kwargs = _FLAGS[dest]
            sp.add_argument(*names, **kwargs)
        sp.set_defaults(**defaults)

    flags(sub.add_parser("bound", help="print enclosure bounds"), "expr", "domain", "branches", run=cmd_bound)
    flags(
        sub.add_parser("compare", help="one CSV row comparing enclosures"),
        "expr", "domain", "branches", "grid", "seed", "out", run=cmd_compare,
    )
    exp = sub.add_parser("experiment", help="benchmark experiments")
    which = exp.add_subparsers(dest="which", required=True)
    sweep = which.add_parser("sweep", help="domain-growth sweep of the showcase function")
    flags(sweep, "grid", "seed", "out", out=".", run=cmd_sweep)
    sweep.add_argument("--points", type=int, default=40, help="sweep resolution")
    flags(
        which.add_parser("recursion", help="iterated-map contraction experiment"),
        "domain", "branches", "grid", "seed", "out", "depth",
        domain=RECURSION_DOMAIN, branches=20, run=cmd_recursion,
    )
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SoundnessViolation, RemainderCapExceeded) as err:
        print(f"soundness violation: {err}", file=sys.stderr)
        return _EXIT_UNSOUND
    except (ParseError, DomainViolation, OverflowError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_USAGE


def _require_inputs(args: argparse.Namespace) -> None:
    for flag, value in (("--expr", args.expr), ("--domain", args.domain)):
        if not value:
            raise ValueError(f"{flag} is required for this command")


if __name__ == "__main__":
    sys.exit(main())
