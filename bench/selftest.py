"""Harness self-test at toy sizes.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with --toy, untraced and traced, and
checks the last line of each run: exactly the keys correct, attempted,
failed and metrics; every end-to-end metric (untraced) or per-layer metric
(traced) of BENCHMARK.json and no other, each with its unit and a finite
value; and the same metric names on every workload.  End-to-end values must
be nonzero.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(spec: dict, workload: str, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--toy"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def _check(result: dict, wanted: dict[str, str], nonzero: bool, label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{label}: correctness checks failed")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{label}: failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        problems.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != unit:
            problems.append(f"{label}: {name} is {got}, wants unit {unit}")
        elif not (isinstance(got["value"], (int, float)) and math.isfinite(got["value"])):
            problems.append(f"{label}: {name} value {got['value']!r}")
        elif nonzero and got["value"] == 0:
            problems.append(f"{label}: {name} reads 0")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: ({m["name"]: m["unit"] for m in spec["end_to_end"]}, True),
        1: ({m["name"]: m["unit"] for m in spec["per_layer"]}, False),
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, (wanted, nonzero) in modes.items():
            label = f"{workload} --trace {trace}"
            problems += _check(_run(spec, workload, trace), wanted, nonzero, label)
            print(f"{label}: done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
