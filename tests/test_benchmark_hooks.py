"""The benchmark's tracer finds every program name it rebinds.

``perfbench/tracing.py`` wraps module attributes such as
``hurstks.minimize.minimize_scalar`` or
``hurstks.pipeline.confidence_interval`` by name.  A refactor that
renames or removes one of them does not fail the benchmark: it reports
the layer as unmeasured.  This test makes such a change fail the suite
instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_binds_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    assert tracer.unmeasured == {}
    assert tracer.unbound == []
