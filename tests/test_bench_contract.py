"""The benchmark's traced run finds every function it wraps by name.

``perfbench/spans.py`` binds a timing wrapper to each ``(module, function)``
pair in its ``TRACED`` table, so renaming or deleting one of those functions
breaks ``perfbench/run.py --trace 1``. This test keeps that contract in the
tier-1 suite.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402


def test_tracer_binds_every_traced_function():
    modules = {m: importlib.import_module(f"thztrack.{m}") for m, _ in spans.TRACED}
    originals = {(m, name): getattr(modules[m], name) for m, name in spans.TRACED}
    tracer = spans.Tracer(SimpleNamespace(now=time.perf_counter))  # _wrap reads clock.now
    tracer.install()
    try:
        unbound = [key for key, fn in originals.items() if getattr(modules[key[0]], key[1]) is fn]
    finally:
        tracer.uninstall()
    assert unbound == []
    assert all(getattr(modules[m], name) is fn for (m, name), fn in originals.items())
