"""tools/ab.py: each side's worker must import its own checkout's isarith,
and the tool must stop on the first differing output with its workers gone."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(*args: str) -> subprocess.CompletedProcess:
    # the workers inherit the tool's standard output and error, so the run
    # only returns once no worker is left holding them
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)


def test_a_checkout_without_isarith_sources_is_refused(tmp_path):
    done = _ab("--workload", "recursion", str(tmp_path))
    assert done.returncode != 0
    assert f"not from {tmp_path.resolve() / 'src' / 'isarith'}" in done.stderr
    assert "pass 1" not in done.stdout
    assert "Traceback" not in done.stderr and "SpawnProcess" not in done.stderr


def test_a_changed_recursion_map_stops_the_tool(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    source = tmp_path / "src" / "isarith" / "cli.py"
    text = source.read_text(encoding="utf-8")
    assert text.count('"0.1*(exp(-sin(4*x1)') == 1
    source.write_text(text.replace('"0.1*(exp(-sin(4*x1)', '"0.1*(exp(-sin(5*x1)'), encoding="utf-8")
    done = _ab("--workload", "recursion", str(tmp_path))
    assert done.returncode != 0
    assert "task 0 (recursion): the outputs differ" in done.stderr
    assert "Traceback" not in done.stderr and "SpawnProcess" not in done.stderr
