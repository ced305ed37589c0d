"""The benchmark's tracer patches layer functions by name (`bench/spans.py`);
a rename that leaves one of those names dangling fails here."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, names in spans.CALL_SITES.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for cls, name in spans.METHODS:
        assert callable(getattr(cls, name, None)), f"{cls.__name__}.{name}"
