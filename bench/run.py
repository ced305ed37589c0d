"""isarith benchmark harness.

    python3 bench/run.py --workload enclose --seed 1 --seconds 30 --trace 0

Runs one workload (enclose, sweep or recursion; see workloads.py and
BENCHMARK.json) in this process as a single closed-loop client with no
worker threads, checks its outputs, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, from untraced passes
only, with task and set-up times scaled to the nominal host speed (see
speed.py and measure_setup).  With --trace 1 the run makes one untraced and
one traced pass of the workload and prints the per-layer metrics: span self
times, the tracing overhead, and the layer microbenchmarks.  The lines above
the JSON object carry the machine and provenance record and, in a traced run,
the span table and the microbenchmarks next to the ROADMAP's reference
numbers.  Records, span dumps and the raw timings behind the scaled ones are
also written to .bench_out/ in the checkout.

The program is imported from src/ of the checkout this file sits in; if it
is not there the harness exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5
# a fresh interpreter that imports the program's dependencies and nothing of
# the program; it is ready after STARTUP_NOMINAL seconds (median) on the
# host the benchmark was built on
STARTUP_REF = [sys.executable, "-c", "import numpy, scipy.spatial; print('ready', flush=True)"]
STARTUP_NOMINAL = 0.68
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


def _import_program():
    package = SRC / "isarith"
    if not (package / "__init__.py").is_file():
        print(f"bench: no isarith sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import isarith

    if Path(isarith.__file__).resolve().parent != package.resolve():
        print(f"bench: imported isarith from {isarith.__file__}, not from {package}", file=sys.stderr)
        sys.exit(2)
    return isarith


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("enclose", "sweep", "recursion"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the harness self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# provenance


def _cpu_info() -> dict:
    info: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in ("model name", "cache size") and key not in info:
                info[key] = value.strip()
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_per_cpu0"] = caches
    return info


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "isarith").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256_16": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu": _cpu_info(),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


# ----------------------------------------------------------------------
# measurement


def time_to_ready(cmd: list[str]) -> float:
    """Wall time from starting `cmd` to its first output line, "ready"."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        took = time.perf_counter() - start
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{cmd[1:3]} exited with status {proc.returncode} before it was ready")
    return took


def measure_setup(args) -> list[float]:
    """Wall time from starting a fresh interpreter to the workload being
    ready for its first task, SETUP_RUNS times.  Each is scaled by the host's
    start-up slowdown: the mean time of STARTUP_REF just before and just
    after it, over STARTUP_NOMINAL."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else [])
    refs = [time_to_ready(STARTUP_REF)]
    times = []
    for _ in range(SETUP_RUNS):
        took = time_to_ready(cmd)
        refs.append(time_to_ready(STARTUP_REF))
        times.append(took * STARTUP_NOMINAL / statistics.fmean(refs[-2:]))
    return times


def timed_passes(workload, seconds: float, speed) -> list[list[tuple[float, float]]]:
    """The task spans of each whole pass on the speed probe's clock, until
    the next pass would end after `seconds`."""
    passes: list[list[tuple[float, float]]] = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(None, speed))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def task_medians(passes: list[list[float]]) -> list[float]:
    """Each task's median time over the passes."""
    if len({len(p) for p in passes}) != 1:
        raise RuntimeError("passes timed different numbers of tasks")
    return [float(t) for t in np.median(np.array(passes), axis=0)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, workload, workloads_mod) -> dict:
    from speed import Speed

    setup = measure_setup(args)
    speed = Speed(workload.PROBE_KERNELS)
    spans = timed_passes(workload, args.seconds, speed)
    passes = [speed.scale(p) for p in spans]
    times = task_medians(passes)
    OUT.mkdir(exist_ok=True)
    (OUT / f"timing-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"spans": spans, "probes": speed.samples}))
    rss = peak_rss_mb()
    q = workload.quality()
    ratio = workloads_mod.showcase_width_ratio(args.seed)
    lo, hi = workloads_mod.SHOWCASE_RATIO_BAND
    if not lo <= ratio <= hi:
        workload.error(f"showcase width ratio {ratio} outside [{lo}, {hi}]")
    p50, p90 = np.percentile(np.array(times) * 1e3, [50, 90])
    slow = [speed.slowdown(took) for _, took in speed.samples]
    print(f"set-up runs, scaled (s): {', '.join(f'{t:.4f}' for t in setup)}")
    print(f"host slowdown over {len(slow)} probes: min {min(slow):.3f} "
          f"median {statistics.median(slow):.3f} max {max(slow):.3f}")
    print(f"passes: {len(passes)} of {len(times)} tasks, pass times (s) measured "
          f"{', '.join(f'{sum(workloads_mod.durations(p)):.3f}' for p in spans)}, scaled "
          f"{', '.join(f'{sum(p):.3f}' for p in passes)}, task medians total {sum(times):.3f} s")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "tasks_per_s": (len(times) / sum(times), "1/s"),
        "task_p50_ms": (float(p50), "ms"),
        "task_p90_ms": (float(p90), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (1.0 - workload.failed / workload.attempted, "frac"),
        "width_ratio": (q.width_ratio, "ratio"),
        "dH_isa_mean": (q.dH_isa_mean, "1"),
        "dH_ia_mean": (q.dH_ia_mean, "1"),
        "showcase_width_ratio": (ratio, "ratio"),
    }


def per_layer(args, workload) -> dict:
    import micro
    from spans import LAYERS, Tracer, tracing
    from workloads import durations

    untraced = durations(workload.run_pass(None))
    tracer = Tracer()
    with tracing(tracer):
        traced = durations(workload.run_pass(tracer))
    selfs = tracer.self_times()
    tasks = len(traced)
    untraced_tps = len(untraced) / sum(untraced)
    traced_tps = tasks / sum(traced)

    total = sum(t for t, _ in selfs.values())
    print(f"traced pass: {tasks} tasks, {len(tracer.spans)} spans, "
          f"tasks/s untraced {untraced_tps:.4f} traced {traced_tps:.4f}")
    print(f"{'span':34s} {'self ms':>12s} {'calls':>8s} {'share':>7s}")
    for name, (t, n) in sorted(selfs.items(), key=lambda kv: -kv[1][0]):
        print(f"{name:34s} {t * 1e3:12.3f} {n:8d} {100 * t / total:6.2f}%")
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, (t, _) in selfs.items():
        layer = name.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += t
    print("self time per layer: " + ", ".join(
        f"{k} {v * 1e3:.1f} ms ({100 * v / total:.1f}%)" for k, v in by_layer.items()))
    print(f"oracle points queried in the traced pass: {tracer.points_queried}")

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    dump.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "task"],
                                "spans": tracer.spans}))

    roots = [s for s in tracer.spans if s[3] < 0]
    root_self = sum(selfs[name][0] for name in {s[0] for s in roots})
    ism_self = selfs.get("expr.eval_ism", (0.0, 0))[0]
    metrics = {
        "cli.entry_self_ms": (root_self / tasks * 1e3, "ms"),
        "expr.eval_ism_us_per_node": (ism_self / tracer.nodes_built * 1e6, "us"),
        "trace.overhead_pct": (100.0 * (untraced_tps - traced_tps) / untraced_tps, "%"),
        "trace.tasks_per_s_delta": (traced_tps - untraced_tps, "1/s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in ("cli", "expr", "univariate", "bivariate", "model"):
        metrics[f"trace.{layer}_self_ms_per_task"] = (by_layer[layer] / tasks * 1e3, "ms")

    layers = micro.measure(args.seed)
    print("layer microbenchmarks against ROADMAP open item 1:")
    for line in micro.roadmap_lines(layers):
        print("  " + line)
    metrics.update(layers)
    return metrics


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as workloads_mod

    cls = workloads_mod.WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed, args.toy, OUT)
        print("ready", flush=True)
        return 0

    record = provenance(args)
    print("provenance: " + json.dumps(record, sort_keys=True))
    workload = cls(args.seed, args.toy, OUT)
    metrics = end_to_end(args, workload, workloads_mod) if args.trace == 0 else per_layer(args, workload)
    for note in workload.notes:
        print(note)
    for err in workload.errors[:20]:
        print(f"CHECK FAILED: {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    result = {
        "correct": not workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": record, "result": result, "errors": workload.errors}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
